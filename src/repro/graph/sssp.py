"""Hop-limited shortest paths: one numpy relaxation kernel, run per summary.

The paper summarizes each request independently, and each summary's search
stays within ``max_hops`` = H edges of its own terminals. So the kernel is a
vectorized hop-limited Bellman–Ford over numpy arrays that runs per summary
inside a Spark task, and a call is one fan-out job (:func:`fan_out`): the
call's edge table is collected once and broadcast as arrays sorted by
``src``, the items (a summary's seeds, and for ST its Eq. 1 boost rows) are
dealt round-robin to its tasks, and each task returns only what its caller
keeps.

The state is a dense :class:`Table`: ``dist`` is ``(rows, span)``, inf
where a node is unreached, and ``path`` is ``(rows, span, H + 1)``, padded
with −1; ``span`` is one more than the largest node id, which stays small
because IdSpace ids are contiguous. Each round expands the frontier along
one edge table, reads each candidate's key entry directly, and keeps the
minimum ``(dist, path)`` per key; a path starts at its landmark. The next
frontier is the entries that are new or beat the key's previous distance by
more than ``_EPS``; an empty frontier ends the loop early. Because of the −1
padding, ``np.lexsort`` orders paths as Spark orders arrays (elementwise, a
prefix first) and a tie in distance goes to the smaller path, as Spark's
``min(struct(dist, landmark, path))`` did when this kernel was a Catalyst
round loop. Node ids must therefore be ≥ 0. The key, and so the number of
rows, is the only difference between the two uses:

* ``(landmark, node)``, one row per landmark — shortest paths from every
  landmark: :func:`multi_landmark_paths`, Table II's path lengths, and ST's
  metric closure (Algorithm 1, step 2).
* ``node``, a single row — each node keeps only its nearest terminal, the
  root of its Voronoi cell: :func:`voronoi_partition`, and PCST. One pass
  costs the same whatever the number of terminals, the |T|-independence the
  paper credits PCST with (Figs. 9–11).

Costs are strictly positive, so H rounds give Dijkstra's answer for paths of
at most H edges. A summary's Eq. 1 boosts are folded into its own copy of
the cost column first (:func:`boosted`): each KG copy of a boosted edge
costs the smaller of its shared cost and its boost, so one summary's boosts
never reach another's search.

The summarizers and :func:`repro.graph.stats.path_length_stats` call
:func:`relax` in their own tasks. :func:`multi_landmark_paths` and
:func:`voronoi_partition` exist for the benchmark's traced run, which wraps
those two names and counts the rows they return: each runs :func:`relax`
once per summary on the driver and returns its reached entries as a
DataFrame.
"""
from functools import partial
from typing import NamedTuple

import numpy as np
from pyspark import SparkContext
from pyspark.sql import DataFrame

_EPS = 1e-9


class Edges(NamedTuple):
    """Directed ``(src, dst, cost)`` rows as arrays sorted by ``src``."""

    src: np.ndarray
    dst: np.ndarray
    cost: np.ndarray


class Table(NamedTuple):
    """The kernel's state: ``dist[r, v]`` and ``path[r, v]`` are row ``r``'s
    best distance to node ``v`` (inf if unreached) and its path (−1-padded,
    all −1 if unreached). Row ``r`` is ``landmarks[r]``'s when the table is
    keyed per landmark; a table keyed by node has one row, whose paths start
    at the nearest landmark.
    """

    landmarks: np.ndarray
    dist: np.ndarray
    path: np.ndarray


def _check_ids(*ids: np.ndarray) -> None:
    if any(a.size and a.min() < 0 for a in ids):
        raise ValueError("node ids must be >= 0: paths are padded with -1")


def edge_arrays(src, dst, cost) -> Edges:
    """:class:`Edges` from three columns."""
    src, dst = np.asarray(src, np.int64), np.asarray(dst, np.int64)
    _check_ids(src, dst)
    order = np.argsort(src, kind="stable")
    return Edges(src[order], dst[order], np.asarray(cost, np.float64)[order])


def collect_edges(edges: DataFrame) -> Edges:
    """The ``(src, dst, cost)`` DataFrame as :class:`Edges`, in one job."""
    pdf = edges.select("src", "dst", "cost").toPandas()
    return edge_arrays(pdf["src"], pdf["dst"], pdf["cost"])


def edges_by_sid(rows: DataFrame | None) -> dict:
    """``(sid, src, dst, cost)`` rows, collected, as ``{sid: Edges}``."""
    if rows is None:
        return {}
    pdf = rows.select("sid", "src", "dst", "cost").toPandas()
    return {sid: edge_arrays(g["src"], g["dst"], g["cost"]) for sid, g in pdf.groupby("sid")}


def out_edges(edges: Edges, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(row, pos)``: ``edges[pos]`` leaves ``nodes[row]``, for every such edge."""
    lo = np.searchsorted(edges.src, nodes, "left")
    n = np.searchsorted(edges.src, nodes, "right") - lo
    row = np.repeat(np.arange(len(nodes)), n)
    pos = np.arange(n.sum()) + np.repeat(lo - (np.cumsum(n) - n), n)
    return row, pos


def copies(edges: Edges, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(row, pos)``: ``edges[pos]`` is a copy of ``(src[row], dst[row])``."""
    row, pos = out_edges(edges, src)
    hit = edges.dst[pos] == dst[row]
    return row[hit], pos[hit]


def boosted(edges: Edges, boosts: Edges | None) -> Edges:
    """``edges`` with each KG copy of a ``boosts`` row costing the smaller of
    the two; a boost row matching no edge adds nothing. ``edges`` is not
    changed: the cost column is copied.
    """
    if boosts is None:
        return edges
    row, pos = copies(edges, boosts.src, boosts.dst)
    cost = edges.cost.copy()
    np.minimum.at(cost, pos, boosts.cost[row])
    return edges._replace(cost=cost)


def relax(edges: Edges, landmarks, *, max_hops: int, per_landmark: bool) -> Table:
    """Hop-limited Bellman–Ford from ``landmarks`` over ``edges``.

    Keyed by ``(landmark, node)`` when ``per_landmark``, else by ``node``;
    the :class:`Table` has one row per landmark, or a single row. A
    candidate that costs more than its key's entry cannot win and is dropped
    before the sort; the others are sorted with the key's entry, and the
    first per key wins. Raises ``ValueError`` on a negative node id.
    """
    lm = np.unique(np.asarray(landmarks, np.int64))
    _check_ids(lm)
    span = 1 + max(int(lm.max(initial=0)), int(edges.dst.max(initial=0)))
    dist = np.full((lm.size if per_landmark else 1, span), np.inf)
    path = np.full((*dist.shape, max_hops + 1), -1, np.int64)
    # Flat views: key ``r * span + v`` is entry ``(r, v)``.
    d, p = dist.reshape(-1), path.reshape(-1, max_hops + 1)
    frontier = (np.arange(lm.size) * span if per_landmark else 0) + lm
    d[frontier], p[frontier, 0] = 0.0, lm
    for hop in range(1, max_hops + 1):
        r, v = np.divmod(frontier, span)
        row, pos = out_edges(edges, v)
        node, cost = edges.dst[pos], d[frontier[row]] + edges.cost[pos]
        key = r[row] * span + node
        keep = cost <= d[key]
        if not keep.any():
            break
        row, node, key, cost = row[keep], node[keep], key[keep], cost[keep]
        cand = p[frontier[row]]
        cand[:, hop] = node  # a round-``hop`` frontier entry holds ``hop`` nodes
        # A held entry joins once per candidate of its key; the copies are equal.
        held = key[np.isfinite(d[key])]
        gk, gd, gp = np.r_[held, key], np.r_[d[held], cost], np.concatenate([p[held], cand])
        # Columns past ``hop`` are −1 in every row of the group, and column 0
        # is the landmark, so a tie in distance goes to the smaller landmark.
        srt = np.lexsort((*gp[:, hop::-1].T, gd, gk))
        win = srt[np.r_[True, gk[srt][1:] != gk[srt][:-1]]]
        key, cost = gk[win], gd[win]
        frontier = key[cost < d[key] - _EPS]
        d[key], p[key] = cost, gp[win]
    return Table(lm, dist, path)


def join_paths(a: np.ndarray, b: np.ndarray, *, skip: int) -> np.ndarray:
    """Row-wise ``a`` followed by ``b`` reversed, without ``b``'s last
    ``skip`` nodes (−1-padded in and out): ``skip=1`` drops the meeting node
    two halves of a path share.
    """
    la, lb = (a >= 0).sum(1), (b >= 0).sum(1)
    out = np.full((len(a), a.shape[1] + b.shape[1] - skip), -1, np.int64)
    out[:, : a.shape[1]] = a
    rows = np.arange(len(a))
    for i in range(b.shape[1] - skip):
        sel = i < lb - skip
        out[rows[sel], la[sel] + i] = b[rows[sel], lb[sel] - 1 - skip - i]
    return out


def cheapest_pairs(cost, ra, rb, path) -> list[tuple[float, int, int, tuple[int, ...]]]:
    """The cheapest ``(cost, ra, rb, path)`` per ``(ra, rb)``; a tie in cost
    goes to the smaller path, as Spark's ``min(struct(cost, path))`` orders.
    """
    if not len(cost):
        return []
    srt = np.lexsort((*path.T[::-1], cost, rb, ra))
    ra, rb = ra[srt], rb[srt]
    first = np.r_[True, (ra[1:] != ra[:-1]) | (rb[1:] != rb[:-1])]
    return [
        (float(c), int(a), int(b), tuple(int(n) for n in p if n >= 0))
        for c, a, b, p in zip(cost[srt][first], ra[first], rb[first], path[srt][first])
    ]


def _run(task, table, hands):
    return task(table.value, [item for hand in hands for item in hand])


def fan_out(sc: SparkContext, edges: Edges, items: list, task) -> list:
    """``task(edges, items)`` over ``items``, in one Spark job.

    ``edges`` is broadcast once; the items are dealt round-robin into
    ``n = min(len(items), defaultParallelism)`` partitions (item ``i`` to
    partition ``i mod n``, so callers pass their largest items first), and
    each partition's task returns an iterable of rows, all collected. An
    RDD, not an Arrow UDF: in a fresh JVM on a 4-core VM, the first Arrow
    UDF took 2.25 s against 0.45 s for the RDD job.
    """
    if not items:
        return []
    table = sc.broadcast(edges)
    try:
        n = min(len(items), sc.defaultParallelism)
        # One hand per partition: ``parallelize`` slices a list in order.
        rdd = sc.parallelize([items[i::n] for i in range(n)], n)
        return rdd.mapPartitions(partial(_run, task, table)).collect()
    finally:
        table.destroy()


def _frame(edges: DataFrame, seeds: DataFrame, *, max_hops: int, per_landmark: bool) -> DataFrame:
    """``(sid, landmark|root, node, dist, path)``, one row per reached entry
    of one :func:`relax` run per sid over its ``seeds``, on the driver."""
    table, by_sid = collect_edges(edges), {}
    for sid, lm in seeds.select("sid", "landmark").collect():
        by_sid.setdefault(sid, []).append(lm)
    rows = []
    for sid, landmarks in by_sid.items():
        t = relax(table, landmarks, max_hops=max_hops, per_landmark=per_landmark)
        for r, v in zip(*np.nonzero(np.isfinite(t.dist))):
            p = t.path[r, v]
            rows.append((sid, int(p[0]), int(v), float(t.dist[r, v]), p[p >= 0].tolist()))
    root = "landmark" if per_landmark else "root"
    sid = seeds.schema["sid"].dataType.simpleString()
    schema = f"sid: {sid}, {root}: long, node: long, dist: double, path: array<bigint>"
    return seeds.sparkSession.createDataFrame(rows, schema)


def multi_landmark_paths(edges: DataFrame, sources: DataFrame, *, max_hops: int) -> DataFrame:
    """Shortest paths from every landmark of every summary, one kernel run
    per summary on the driver.

    Args:
        edges: symmetrized edge table ``(src, dst, cost)`` with ``cost > 0``.
        sources: ``(sid, landmark)`` — one row per landmark per summary.
        max_hops: maximum number of edges on any returned path.

    Returns:
        ``(sid, landmark, node, dist, path)`` where ``path`` is the node array
        from ``landmark`` to ``node`` inclusive; one row per reached node.
    """
    return _frame(edges, sources, max_hops=max_hops, per_landmark=True)


def voronoi_partition(edges: DataFrame, seeds: DataFrame, *, max_hops: int) -> DataFrame:
    """Assign every reachable node to its nearest terminal, one kernel run
    per summary on the driver.

    Args:
        edges: symmetrized ``(src, dst, cost)`` with ``cost > 0``.
        seeds: ``(sid, landmark)`` — the prize-bearing terminals per summary,
            the same schema :func:`multi_landmark_paths` takes.
        max_hops: exploration radius in edges.

    Returns:
        ``(sid, node, root, dist, path)`` — ``root`` is the nearest terminal
        (ties go to the smaller one), ``path`` the node array from ``root``
        to ``node`` inclusive.
    """
    frame = _frame(edges, seeds, max_hops=max_hops, per_landmark=False)
    return frame.select("sid", "node", "root", "dist", "path")
