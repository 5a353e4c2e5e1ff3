"""Algorithm 1 — Steiner-tree summary explanations (KMB 2-approximation).

Stage split between Spark and the driver:

1. **Metric closure (Spark)** — batched multi-landmark shortest-path runs
   serve every request: landmarks are all terminals of all requests, and the
   per-request Eq. 1 boost rides along as a small table of alternative edge
   costs, never above the shared ones (see :mod:`repro.graph.sssp`). Only
   terminal→terminal distances are needed, so the search meets in the middle
   (bidirectional search, Pohl 1971): every path of at most ``max_hops`` = H
   edges splits at a node into a ≤⌈H/2⌉ half from one terminal and a
   ≤⌊H/2⌋ half from the other. The kernel relaxes ⌈H/2⌉ rounds (plus a
   ⌊H/2⌋-round run when H is odd), and one join on ``(sid, node)`` pairs
   each smaller terminal's half with each larger terminal's half; the
   cheapest meeting per pair is its closure edge. Costs are symmetric, so
   each closure pair reaches the driver once, from the smaller terminal.
   Paths are carried as array columns, so Algorithm 1's "replace closure
   edge with its shortest path" step is a concatenation of the two halves.
2. **MST + unfold + prune (driver)** — per request and cut-off ``k``: the
   closure MST is PCST's cluster merge with unlimited prizes, i.e. Kruskal
   over the k-restricted closure (:func:`repro.core.summary._merge_phase`);
   then union the selected closure paths, re-extract a spanning tree of the
   union, and repeatedly prune non-terminal leaves (the standard KMB cleanup
   that keeps the 2-approximation guarantee).

Terminals unreachable within ``max_hops`` are dropped from the tree: only the
merged component holding the first terminal is kept (the summary stays
weakly connected, which the problem definition requires).
"""
from collections import defaultdict

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.scenarios import SummaryRequest
from repro.core.summary import (
    _DSU, Summary, _collect_pairs, _merge_phase, _norm, _path_edges, _terminal_frame
)
from repro.core.weights import base_cost_edges, boost_table, w_cap_for
from repro.graph.model import KG
from repro.graph.sssp import multi_landmark_paths

_INF = float("inf")


def _metric_closure(
    edges: DataFrame, sources: DataFrame, *, max_hops: int, boosts: DataFrame | None
) -> DataFrame:
    """``(sid, ra, rb, cost, path)``: every ≤``max_hops`` path between a pair
    ``ra < rb`` of a summary's terminals that the two halves meet on, one
    row per meeting node. :func:`~repro.core.summary._collect_pairs` keeps
    the cheapest per pair, the closure edge.

    A path of h hops from ``ra`` splits at hop ``min(⌈H/2⌉, h)``, so ``ra``'s
    ⌈H/2⌉-hop half joined with ``rb``'s ⌊H/2⌋-hop half at a shared node
    covers it. The join emits Σ c² rows over nodes with c same-summary
    halves, so it takes one orientation only.
    """
    near = multi_landmark_paths(edges, sources, max_hops=(max_hops + 1) // 2, boosts=boosts)
    far = (
        near
        if max_hops % 2 == 0
        else multi_landmark_paths(edges, sources, max_hops=max_hops // 2, boosts=boosts)
    )
    a = near.toDF("sid", "ra", "node", "da", "pa")
    b = far.toDF("sid", "rb", "node", "db", "pb")
    # b's path runs rb → node; reversed and without the meeting node it ends ra's.
    tail = F.slice(F.reverse("pb"), 2, F.size("pb"))
    pairs = a.join(b, ["sid", "node"]).where(F.col("ra") < F.col("rb"))
    cost = (F.col("da") + F.col("db")).alias("cost")
    return pairs.select("sid", "ra", "rb", cost, F.concat("pa", tail).alias("path"))


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


def _tree_of_union(edges: set[tuple[int, int]], terminals: set[int]) -> set[tuple[int, int]]:
    """Spanning tree of the unfolded union, then prune non-terminal leaves."""
    dsu = _DSU()
    tree = {e for e in sorted(edges) if dsu.union(*e)}
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
    edges = base_cost_edges(kg, w_cap)
    boosts = boost_table(spark, kg, requests, lam=lam, w_cap=w_cap, k=k_top)

    sources = _terminal_frame(spark, requests, k_top)
    closure = _collect_pairs(_metric_closure(edges, sources, max_hops=max_hops, boosts=boosts))

    out: list[Summary] = []
    for req in requests:
        cands = closure.get(req.sid, [])
        for k in ks:
            terminals = req.terminals(k)
            sel_paths = [p for _, _, p in _closure_mst(terminals, cands)]
            union_edges = {e for p in sel_paths for e in _path_edges(p)}
            tree = _tree_of_union(union_edges, set(terminals))
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
