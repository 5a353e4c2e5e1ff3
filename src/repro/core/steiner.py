"""Algorithm 1 — Steiner-tree summary explanations (KMB 2-approximation).

Stage split between Spark and the driver:

1. **Metric closure (Spark)** — one batched multi-landmark shortest-path run
   serves every request: landmarks are all terminals of all requests, and the
   per-request Eq. 1 boost rides along as a small replacement-cost table
   (see :mod:`repro.graph.sssp`). Paths are carried as array columns, so
   Algorithm 1's "replace closure edge with its shortest path" step is a
   column lookup. Rows are filtered to terminal→terminal pairs *before*
   collection, so only the O(Σ|T|²) closure reaches the driver.
2. **MST + unfold + prune (driver)** — per request and cut-off ``k``: Prim
   over the k-restricted closure (O(|T|²), |T| ≤ ~10³), union the selected
   closure paths, re-extract a spanning tree of the union, and repeatedly
   prune non-terminal leaves (the standard KMB cleanup that keeps the
   2-approximation guarantee).

Terminals unreachable within ``max_hops`` are dropped from the tree (the
summary stays weakly connected, which the problem definition requires).
"""
from collections import defaultdict

from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.core.scenarios import SummaryRequest
from repro.core.summary import _DSU, Summary, _norm
from repro.core.weights import COST_EPS, base_cost_edges, boost_table, w_cap_for
from repro.graph.model import KG
from repro.graph.sssp import multi_landmark_paths

_INF = float("inf")


def _prim(terminals: list[int], dist: dict[tuple[int, int], float]) -> list[tuple[int, int]]:
    """MST over the metric closure; returns chosen terminal pairs."""
    if len(terminals) < 2:
        return []
    t0 = terminals[0]
    remaining = list(terminals[1:])
    bestd = {t: dist.get(_norm(t0, t), _INF) for t in remaining}
    bestfrom = dict.fromkeys(remaining, t0)
    chosen: list[tuple[int, int]] = []
    while remaining:
        t = min(remaining, key=lambda x: (bestd[x], x))
        if bestd[t] == _INF:
            break  # rest of the terminals are unreachable — forgo them
        remaining.remove(t)
        chosen.append((bestfrom[t], t))
        for s in remaining:
            d = dist.get(_norm(t, s), _INF)
            if d < bestd[s]:
                bestd[s] = d
                bestfrom[s] = t
    return chosen


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
    eps: float = COST_EPS,
    method: str | None = None,
) -> list[Summary]:
    """ST summaries for every request × cut-off in ``ks``.

    ``lam`` is Eq. 1's λ; the boost is computed over the k_max path set (the
    per-k difference only moves cost tie-breaks, see DESIGN.md §4).
    """
    if not requests:
        return []
    method = method or f"st(lam={lam:g})"
    k_top = max(r.k_max() for r in requests)
    ks = ks or [k_top]

    w_cap = w_cap_for(kg, lam)
    edges = base_cost_edges(kg, w_cap, eps=eps)
    boosts = boost_table(spark, kg, requests, lam=lam, w_cap=w_cap, k=k_top, eps=eps)

    term_rows = [(r.sid, int(t)) for r in requests for t in r.terminals(k_top)]
    sources = spark.createDataFrame(term_rows, "sid: string, landmark: long")
    reach = multi_landmark_paths(spark, edges, sources, max_hops=max_hops, boosts=boosts)

    # Keep only terminal→terminal rows: that's the metric closure.
    members = sources.select("sid", F.col("landmark").alias("node")).distinct()
    closure_df = reach.join(members, ["sid", "node"]).where(F.col("landmark") != F.col("node"))
    closure: dict[str, dict[tuple[int, int], tuple[float, tuple[int, ...]]]] = defaultdict(dict)
    for r in closure_df.collect():
        key = _norm(int(r["landmark"]), int(r["node"]))
        cur = closure[r["sid"]].get(key)
        cand = (float(r["dist"]), tuple(int(n) for n in r["path"]))
        if cur is None or cand[0] < cur[0] - 1e-12:
            closure[r["sid"]][key] = cand

    out: list[Summary] = []
    for req in requests:
        pairs = closure.get(req.sid, {})
        dist = {p: d for p, (d, _) in pairs.items()}
        for k in ks:
            terminals = req.terminals(k)
            chosen = _prim(terminals, dist)
            sel_paths = [pairs[_norm(a, b)][1] for a, b in chosen]
            union_edges: set[tuple[int, int]] = set()
            for p in sel_paths:
                union_edges.update(_norm(a, b) for a, b in zip(p, p[1:]))
            tree = _tree_of_union(union_edges, set(terminals))
            nodes = {n for e in tree for n in e} | ({terminals[0]} if terminals else set())
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
