"""Algorithm 2 — Prize-Collecting Steiner Tree summary explanations.

Per the paper's experimental setup, PCST ignores edge weights (unit edge
cost) and uses node prizes 1 for terminals / 0 otherwise. The implementation
is a Goemans–Williamson-style two-phase scheme whose cost profile matches
what the paper reports (|T|-independent scaling, larger-than-ST summaries):

1. **Voronoi partition (Spark)** — one nearest-terminal BFS over the graph
   (:func:`repro.graph.sssp.voronoi_partition`); its cost depends on
   |V|+|E|, *not* |T|.
2. **Cluster merging (driver)** — boundary edges between Voronoi cells give
   candidate terminal-to-terminal connections (cost = dist to one root +
   edge + dist to other root). Clusters start with their terminal's prize as
   budget and greedily accept the cheapest merge whose cost fits the merged
   budget — the prize-collecting trade-off ``C(S) = Σw'(e) − Σp(v)``:
   a merge is worth it only while the collected prizes pay for the edges.
   Terminals whose connection is too expensive are forgone (their prize is
   surrendered), exactly the PCST relaxation.

The printed Algorithm 2 is a sequential heap loop that, taken literally with
{1, 0} prizes, degenerates to a single terminal; see DESIGN.md §4 for why
this behaviour-faithful adaptation is used instead.

For incremental ``k`` the Voronoi pass runs once with all k_max terminals;
at smaller ``k`` the excluded terminals keep prize 0 and act only as relays.
"""
from collections import defaultdict

from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.core.scenarios import SummaryRequest
from repro.core.summary import _DSU, Summary, _norm
from repro.graph.model import KG
from repro.graph.sssp import voronoi_partition


def _merge_phase(
    cands: list[tuple[float, int, int, tuple[int, ...]]],
    terminals_k: set[int],
    all_terminals: set[int],
    prize: float,
):
    """Greedy prize-budgeted merging; returns (dsu, accepted merge paths)."""
    dsu = _DSU()
    budget = {t: (prize if t in terminals_k else 0.0) for t in all_terminals}
    accepted: list[tuple[int, int, tuple[int, ...]]] = []
    for cost, ra, rb, path in sorted(cands, key=lambda c: (c[0], c[1], c[2])):
        fa, fb = dsu.find(ra), dsu.find(rb)
        if fa == fb:
            continue
        if cost <= budget[fa] + budget[fb]:
            dsu.union(fa, fb)
            budget[fb] = budget[fa] + budget[fb] - cost
            accepted.append((ra, rb, path))
    return dsu, accepted


def pcst_summaries(
    spark: SparkSession,
    kg: KG,
    requests: list[SummaryRequest],
    *,
    ks: list[int] | None = None,
    edge_cost: float = 0.25,
    prize: float = 1.0,
    max_hops: int = 4,
    method: str = "pcst",
) -> list[Summary]:
    """PCST summaries for every request × cut-off in ``ks``."""
    if not requests:
        return []
    k_top = max(r.k_max() for r in requests)
    ks = ks or [k_top]

    term_rows = [(r.sid, int(t)) for r in requests for t in r.terminals(k_top)]
    terminals_df = spark.createDataFrame(term_rows, "sid: string, terminal: long")
    edges = kg.undirected().select("src", "dst", F.lit(float(edge_cost)).alias("cost"))
    cells = voronoi_partition(spark, edges, terminals_df, max_hops=max_hops)

    # Boundary candidates: cheapest root↔root connection over any cell edge.
    a = cells.select(
        F.col("sid"),
        F.col("node").alias("_u"),
        F.col("root").alias("_ru"),
        F.col("dist").alias("_du"),
        F.col("path").alias("_pu"),
    )
    b = cells.select(
        F.col("sid").alias("_sid2"),
        F.col("node").alias("_v"),
        F.col("root").alias("_rv"),
        F.col("dist").alias("_dv"),
        F.col("path").alias("_pv"),
    )
    und = kg.undirected().select("src", "dst").where(F.col("src") < F.col("dst"))
    cand = (
        und.join(a, und.src == a._u)
        .join(b, (und.dst == b._v) & (a.sid == b._sid2))
        .where(F.col("_ru") != F.col("_rv"))
        .select(
            "sid",
            F.least("_ru", "_rv").alias("ra"),
            F.greatest("_ru", "_rv").alias("rb"),
            (F.col("_du") + F.lit(float(edge_cost)) + F.col("_dv")).alias("cost"),
            F.concat("_pu", F.reverse("_pv")).alias("path"),
        )
    )
    cand = (
        cand.groupBy("sid", "ra", "rb")
        .agg(F.min(F.struct("cost", "path")).alias("_m"))
        .select("sid", "ra", "rb", F.col("_m.cost").alias("cost"), F.col("_m.path").alias("path"))
    )
    by_sid: dict[str, list] = defaultdict(list)
    for r in cand.collect():
        by_sid[r["sid"]].append(
            (float(r["cost"]), int(r["ra"]), int(r["rb"]), tuple(int(n) for n in r["path"]))
        )

    out: list[Summary] = []
    for req in requests:
        all_terms = set(req.terminals(k_top))
        cands = by_sid.get(req.sid, [])
        for k in ks:
            terms_k = set(req.terminals(k))
            centers = [c for c in req.centers if c in all_terms] or sorted(terms_k)[:1]
            dsu, accepted = _merge_phase(cands, terms_k, all_terms, prize)
            # Pick the component holding the most prize (preferring centers).
            comp_prize: dict[int, float] = defaultdict(float)
            for t in terms_k:
                comp_prize[dsu.find(t)] += prize
            for c in centers:
                comp_prize[dsu.find(c)] += 1e-9  # center tie-break
            root = (
                max(comp_prize, key=lambda r: (comp_prize[r], -r))
                if comp_prize
                else dsu.find(centers[0])
            )
            sel_paths = [p for ra, rb, p in accepted if dsu.find(ra) == root]
            edge_set: set[tuple[int, int]] = set()
            nodes: set[int] = {t for t in terms_k if dsu.find(t) == root}
            for p in sel_paths:
                nodes.update(p)
                edge_set.update(_norm(x, y) for x, y in zip(p, p[1:]))
            out.append(
                Summary(
                    sid=req.sid,
                    scenario=req.scenario,
                    method=method,
                    k=k,
                    edges=tuple(sorted(edge_set)),
                    nodes=frozenset(nodes),
                    paths=tuple(sel_paths),
                    terminals=tuple(sorted(terms_k)),
                )
            )
    return out
