"""Algorithm 2 — Prize-Collecting Steiner Tree summary explanations.

Per the paper's experimental setup, PCST ignores edge weights (unit edge
cost) and uses node prizes 1 for terminals / 0 otherwise. The implementation
is a Goemans–Williamson-style two-phase scheme whose cost profile matches
what the paper reports (|T|-independent scaling, larger-than-ST summaries):

1. **Voronoi partition (one Spark job)** — one task item per request: one
   nearest-terminal BFS from all its terminals (:func:`repro.graph.sssp.relax`
   keyed by node); its cost depends on the graph around the terminals, *not*
   |T|. Boundary edges between Voronoi cells give candidate
   terminal-to-terminal connections (cost = dist to one root + edge + dist to
   other root), and only the cheapest per pair of roots leaves the task.
2. **Cluster merging (driver)** — clusters start with their terminal's prize as
   budget and greedily accept the cheapest merge whose cost fits the merged
   budget — the prize-collecting trade-off ``C(S) = Σw'(e) − Σp(v)``:
   a merge is worth it only while the collected prizes pay for the edges.
   Terminals whose connection is too expensive are forgone (their prize is
   surrendered), exactly the PCST relaxation. The merge
   (:func:`repro.core.summary._merge_phase`) is shared with ST, which runs it
   with unlimited prizes as its closure MST.

The printed Algorithm 2 is a sequential heap loop that, taken literally with
{1, 0} prizes, degenerates to a single terminal; see DESIGN.md §4 for why
this behaviour-faithful adaptation is used instead.

For incremental ``k`` the Voronoi pass runs once with all k_max terminals;
at smaller ``k`` the excluded terminals keep prize 0 and act only as relays.
"""
from collections import Counter
from functools import partial

import numpy as np
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.core.scenarios import SummaryRequest
from repro.core.summary import Summary, _merge_phase, _path_edges
from repro.graph.model import KG
from repro.graph.sssp import Edges, cheapest_pairs, collect_edges, fan_out, join_paths, out_edges, relax
from repro.graph.sssp import voronoi_partition  # noqa: F401 (perfbench/run.py traces it by name)

# Unit edge cost c and terminal prize (0 for non-terminals): two terminals
# merge across at most 2·PRIZE/EDGE_COST = 8 edges (DESIGN.md §4).
EDGE_COST = 0.25
PRIZE = 1.0


def _boundary_task(edges: Edges, items, *, max_hops: int):
    """Per summary, the cheapest root↔root connection through one cell
    edge: each ``src < dst`` row of ``edges`` whose ends lie in different
    cells, as ``(cost, ra, rb, path)`` with ``ra < rb``. The path runs from
    the ``src`` end's root to the ``dst`` end's.
    """
    for sid, terminals in items:
        cells = relax(edges, terminals, max_hops=max_hops, per_landmark=False)
        (dist,), (path,) = cells.dist, cells.path
        reached = np.flatnonzero(np.isfinite(dist))
        row, pos = out_edges(edges, reached)
        u, v = reached[row], edges.dst[pos]
        root = path[:, 0]
        ok = (u < v) & np.isfinite(dist[v]) & (root[u] != root[v])
        u, v, pos = u[ok], v[ok], pos[ok]
        cost = dist[u] + edges.cost[pos] + dist[v]
        ru, rv = root[u], root[v]
        path = join_paths(path[u], path[v], skip=0)
        yield sid, cheapest_pairs(cost, np.minimum(ru, rv), np.maximum(ru, rv), path)


def pcst_summaries(
    spark: SparkSession,
    kg: KG,
    requests: list[SummaryRequest],
    *,
    ks: list[int] | None = None,
    max_hops: int = 4,
    method: str = "pcst",
) -> list[Summary]:
    """PCST summaries for every request × cut-off in ``ks``."""
    if not requests:
        return []
    k_top = max(r.k_max() for r in requests)
    ks = ks or [k_top]

    edges = collect_edges(kg.undirected().select("src", "dst", F.lit(EDGE_COST).alias("cost")))
    items = [(r.sid, r.terminals(k_top)) for r in requests]
    items.sort(key=lambda item: -len(item[1]))  # largest first: fan_out deals them
    task = partial(_boundary_task, max_hops=max_hops)
    by_sid = dict(fan_out(spark.sparkContext, edges, items, task))

    out: list[Summary] = []
    for req in requests:
        cands = by_sid.get(req.sid, [])
        for k in ks:
            terms_k = req.terminals(k)
            dsu, accepted = _merge_phase(cands, set(terms_k), PRIZE)
            # Keep the component holding the most terminals, then the most
            # centers, then the smallest root.
            held = Counter(dsu.find(t) for t in terms_k)
            hubs = Counter(dsu.find(c) for c in req.centers)
            root = max(held, key=lambda r: (held[r], hubs[r], -r))
            sel_paths = [p for ra, rb, p in accepted if dsu.find(ra) == root]
            nodes = {t for t in terms_k if dsu.find(t) == root}
            nodes.update(n for p in sel_paths for n in p)
            out.append(
                Summary(
                    sid=req.sid,
                    scenario=req.scenario,
                    method=method,
                    k=k,
                    edges=tuple(sorted({e for p in sel_paths for e in _path_edges(p)})),
                    nodes=frozenset(nodes),
                    paths=tuple(sel_paths),
                    terminals=tuple(sorted(terms_k)),
                )
            )
    return out
