"""Algorithm 1 — Steiner-tree summary explanations (KMB 2-approximation).

Stage split between Spark and the driver:

1. **Metric closure (one Spark job)** — one task item per request: its
   terminals and its Eq. 1 boost rows, which lower the request's own copy of
   the edge costs (:func:`repro.graph.sssp.boosted`). Only terminal→terminal
   distances are needed, so the search meets in the middle (bidirectional
   search, Pohl 1971): every path of at most ``max_hops`` = H edges splits at
   a node into a ≤⌈H/2⌉ half from one terminal and a ≤⌊H/2⌋ half from the
   other. The kernel relaxes ⌈H/2⌉ rounds (plus a ⌊H/2⌋-round run when H is
   odd), and each terminal's half is added to the halves of every larger
   terminal at every meeting node, a min-plus product of the terminals ×
   nodes distance tables; the cheapest meeting per pair is its closure edge.
   Costs are symmetric, so each closure pair reaches the driver once, from
   the smaller terminal. Algorithm 1's "replace closure edge with its
   shortest path" step is a concatenation of the two halves, built only for
   the cheapest meetings.
2. **MST + unfold + MST + prune (driver)** — per request and cut-off ``k``:
   the closure MST is Kruskal over the k-restricted closure, i.e. PCST's
   cluster merge with unlimited prizes (:func:`repro.core.summary._merge_phase`);
   the union of its paths is spanned by the same merge over the request's
   Eq. 1 costs, and non-terminal leaves are pruned (the standard KMB cleanup
   that keeps the 2-approximation guarantee).

Terminals unreachable within ``max_hops`` are dropped from the tree: only the
merged component holding the first terminal is kept (the summary stays
weakly connected, which the problem definition requires).
"""
from collections import defaultdict
from functools import partial

import numpy as np
from pyspark import SparkContext
from pyspark.sql import SparkSession

from repro.core.scenarios import SummaryRequest
from repro.core.summary import Summary, _merge_phase, _norm, _path_edges
from repro.core.weights import base_cost_edges, boost_table, w_cap_for
from repro.graph.model import KG
from repro.graph.sssp import Edges, Table, boosted, cheapest_pairs, collect_edges, copies
from repro.graph.sssp import edges_by_sid, fan_out, join_paths, relax
from repro.graph.sssp import multi_landmark_paths  # noqa: F401 (perfbench/run.py traces it by name)

_INF = float("inf")


def _meet(near: Table, far: Table) -> list[tuple[float, int, int, tuple[int, ...]]]:
    """Closure edges ``(cost, ra, rb, path)``, ``ra < rb``: the cheapest
    ``near[ra] + far[rb]`` over the nodes both halves reach, a tie in cost
    going to the smaller path.

    The sums are a min-plus product of the two terminals × nodes distance
    tables, one ``ra`` row against the rows after it at a time; paths are
    built only for the tied minima. Only a node that two terminals reach can
    join two halves.
    """
    meet = np.flatnonzero(np.isfinite(near.dist).sum(0) > 1)
    a, b = near.dist[:, meet], far.dist[:, meet]
    hits = []
    for i in range(len(a) - 1):
        s = a[i] + b[i + 1 :]  # s[j] pairs i with i + 1 + j
        low = s.min(axis=1, initial=_INF)
        j, m = np.nonzero((s == low[:, None]) & np.isfinite(low)[:, None])
        hits.append((np.full(len(j), i), j + i + 1, m))
    if not hits:
        return []
    i, j, m = (np.concatenate(h) for h in zip(*hits))
    path = join_paths(near.path[i, meet[m]], far.path[j, meet[m]], skip=1)
    return cheapest_pairs(a[i, m] + b[j, m], near.landmarks[i], near.landmarks[j], path)


def _closure_task(edges: Edges, items, *, max_hops: int):
    for sid, terminals, boosts in items:
        costs = boosted(edges, boosts)
        near = relax(costs, terminals, max_hops=(max_hops + 1) // 2, per_landmark=True)
        far = (
            near
            if max_hops % 2 == 0
            else relax(costs, terminals, max_hops=max_hops // 2, per_landmark=True)
        )
        yield sid, _meet(near, far)


def _metric_closure(
    sc: SparkContext, edges: Edges, terminals: dict, boosts: dict, *, max_hops: int
) -> dict[str, list[tuple[float, int, int, tuple[int, ...]]]]:
    """``{sid: [(cost, ra, rb, path)]}``: the closure edge of every terminal
    pair ``ra < rb`` of every summary joined by a path of at most
    ``max_hops`` edges; one Spark job, one task item per summary.

    ``terminals`` is ``{sid: [node]}``, ``boosts`` ``{sid: Edges}``.
    """
    items = [(sid, ts, boosts.get(sid)) for sid, ts in terminals.items()]
    items.sort(key=lambda item: -len(item[1]))  # largest first: fan_out deals them
    return dict(fan_out(sc, edges, items, partial(_closure_task, max_hops=max_hops)))


def _closure_mst(
    terminals: list[int], cands: list[tuple[float, int, int, tuple[int, ...]]]
) -> list[tuple[int, int, tuple[int, ...]]]:
    """MST over the closure restricted to ``terminals``: the PCST merge with
    unlimited prizes, which is Kruskal. Keeps the tree holding
    ``terminals[0]``; terminals it cannot reach are forgone.
    """
    t = set(terminals)
    dsu, accepted = _merge_phase([c for c in cands if c[1] in t and c[2] in t], t, _INF)
    root = dsu.find(terminals[0])
    return [m for m in accepted if dsu.find(m[0]) == root]


def _tree_of_union(union: set, terminals: set[int], costs: Edges) -> set[tuple[int, int]]:
    """KMB steps 4–5: the unfolded union's MST by ``costs`` (an edge held
    twice costs its cheaper copy), then prune non-terminal leaves.
    """
    ends = np.array(list(union), np.int64).reshape(-1, 2)
    row, pos = copies(costs, ends[:, 0], ends[:, 1])
    cost = np.full(len(ends), _INF)
    np.minimum.at(cost, row, costs.cost[pos])
    cands = [(c, a, b, ()) for c, (a, b) in zip(cost.tolist(), ends.tolist())]
    _, accepted = _merge_phase(cands, {n for e in union for n in e}, _INF)
    tree = {(a, b) for a, b, _ in accepted}
    adj: dict[int, set[int]] = defaultdict(set)
    for a, b in tree:
        adj[a].add(b)
        adj[b].add(a)
    leaves = [v for v, nb in adj.items() if len(nb) == 1 and v not in terminals]
    while leaves:
        v = leaves.pop()
        if len(adj[v]) != 1 or v in terminals:
            continue
        (u,) = adj[v]
        tree.discard(_norm(u, v))
        adj[u].discard(v)
        adj[v].clear()
        if len(adj[u]) == 1 and u not in terminals:
            leaves.append(u)
    return tree


def steiner_summaries(
    spark: SparkSession,
    kg: KG,
    requests: list[SummaryRequest],
    *,
    lam: float,
    ks: list[int] | None = None,
    max_hops: int = 4,
    method: str | None = None,
) -> list[Summary]:
    """ST summaries for every request × cut-off in ``ks``.

    ``lam`` is Eq. 1's λ; the boost is computed over the k_max path set (the
    per-k difference only moves cost tie-breaks, see DESIGN.md §4). Raises
    ``ValueError`` when ``lam < 0`` or an edge weight is negative.
    """
    if not requests:
        return []
    method = method or f"st(lam={lam:g})"
    k_top = max(r.k_max() for r in requests)
    ks = ks or [k_top]

    w_cap = w_cap_for(kg, lam)
    edges = collect_edges(base_cost_edges(kg, w_cap))
    boosts = edges_by_sid(boost_table(spark, kg, requests, lam=lam, w_cap=w_cap, k=k_top))
    terminals = {r.sid: r.terminals(k_top) for r in requests}
    closure = _metric_closure(spark.sparkContext, edges, terminals, boosts, max_hops=max_hops)

    out: list[Summary] = []
    for req in requests:
        cands = closure.get(req.sid, [])
        costs = boosted(edges, boosts.get(req.sid))
        for k in ks:
            terminals = req.terminals(k)
            sel_paths = [p for _, _, p in _closure_mst(terminals, cands)]
            union_edges = {e for p in sel_paths for e in _path_edges(p)}
            tree = _tree_of_union(union_edges, set(terminals), costs)
            nodes = {n for e in tree for n in e} | {terminals[0]}
            out.append(
                Summary(
                    sid=req.sid,
                    scenario=req.scenario,
                    method=method,
                    k=k,
                    edges=tuple(sorted(tree)),
                    nodes=frozenset(nodes),
                    paths=tuple(sel_paths),
                    terminals=tuple(terminals),
                )
            )
    return out
