"""Quality metrics vs naive references, plus DuckDB oracle checks."""
from dataclasses import replace

import pandas as pd
import pytest

from repro.core.scenarios import SummaryRequest
from repro.core.summary import Summary, summary_from_paths
from repro.graph.model import ETYPE_IE, ETYPE_UI, NTYPE_EXT, NTYPE_ITEM, NTYPE_USER
from repro.metrics import reference as ref
from repro.metrics.quality import aggregate_quality, compute_quality, summary_frames
from repro.oracle import assert_equivalent
from tests.conftest import make_kg

NTYPES = {0: NTYPE_USER, 1: NTYPE_ITEM, 2: NTYPE_ITEM, 3: NTYPE_EXT, 4: NTYPE_ITEM}
EDGES = [
    (0, 1, 4.0, ETYPE_UI),
    (0, 2, 5.0, ETYPE_UI),
    (1, 3, 0.0, ETYPE_IE),
    (3, 4, 0.0, ETYPE_IE),
    (2, 3, 0.0, ETYPE_IE),
]


@pytest.fixture(scope="module")
def kg(spark):
    return make_kg(spark, EDGES, NTYPES)


def _summary(method="st", k=1, edges=((0, 1), (1, 3), (3, 4)), paths=((0, 1, 3, 4),), sid="user:0"):
    nodes = frozenset(n for e in edges for n in e)
    return Summary(
        sid=sid,
        scenario="user-centric",
        method=method,
        k=k,
        edges=tuple(edges),
        nodes=nodes,
        paths=tuple(paths),
        terminals=(0, 4),
    )


@pytest.fixture(scope="module")
def scored(spark, kg):
    summaries = [
        _summary(k=1),
        _summary(k=2, edges=((0, 1), (0, 2), (1, 3), (2, 3), (3, 4)), paths=((0, 1, 3, 4), (0, 2, 3, 4))),
        # a baseline-style multiset summary with a repeated edge
        _summary(
            method="bl",
            k=1,
            edges=((0, 1), (1, 3), (0, 1), (1, 3), (3, 4)),
            paths=((0, 1, 3), (0, 1, 3, 4)),
        ),
    ]
    return summaries, compute_quality(spark, kg, summaries)


def test_all_singleton_batch_has_no_edges(spark, kg):
    singles = [replace(_summary(k=k, edges=(), paths=()), nodes=frozenset({0})) for k in (1, 2)]
    pdf = compute_quality(spark, kg, singles)
    assert len(pdf) == 2
    assert (pdf[["n_edges", "comprehensibility", "diversity", "redundancy"]] == 0).all().all()
    assert (pdf["n_nodes"] == 1).all()


def _row(pdf, method, k):
    return pdf[(pdf["method"] == method) & (pdf["k"] == k)].iloc[0]


def test_comprehensibility_matches_reference(scored):
    summaries, pdf = scored
    for s in summaries:
        got = _row(pdf, s.method, s.k)["comprehensibility"]
        assert got == pytest.approx(ref.comprehensibility(s))


def test_n_edges_counts_multiset(scored):
    _, pdf = scored
    assert _row(pdf, "bl", 1)["n_edges"] == 5
    assert _row(pdf, "st", 1)["n_edges"] == 3


def test_actionability_matches_reference(scored, kg):
    summaries, pdf = scored
    ntypes = kg.node_types()
    for s in summaries:
        got = _row(pdf, s.method, s.k)["actionability"]
        assert got == pytest.approx(ref.actionability(s, ntypes))


def test_privacy_matches_reference(scored, kg):
    summaries, pdf = scored
    ntypes = kg.node_types()
    for s in summaries:
        got = _row(pdf, s.method, s.k)["privacy"]
        assert got == pytest.approx(ref.privacy(s, ntypes))


def test_relevance_matches_reference(scored, kg):
    summaries, pdf = scored
    weights = {
        (min(r["src"], r["dst"]), max(r["src"], r["dst"])): r["weight"]
        for r in kg.edges.collect()
    }
    for s in summaries:
        got = _row(pdf, s.method, s.k)["relevance"]
        assert got == pytest.approx(ref.relevance(s, weights))


def test_diversity_matches_naive_pairwise(scored):
    summaries, pdf = scored
    for s in summaries:
        got = _row(pdf, s.method, s.k)["diversity"]
        assert got == pytest.approx(ref.diversity(s)), s.method


def test_redundancy_matches_reference(scored):
    summaries, pdf = scored
    for s in summaries:
        got = _row(pdf, s.method, s.k)["redundancy"]
        assert got == pytest.approx(ref.redundancy(s))


def test_consistency_matches_reference(scored):
    summaries, pdf = scored
    s1 = [s for s in summaries if s.method == "st" and s.k == 1][0]
    s2 = [s for s in summaries if s.method == "st" and s.k == 2][0]
    got = _row(pdf, "st", 1)["consistency"]
    assert got == pytest.approx(ref.consistency(s1, s2))
    # k=2 is the end of the series → no consistency value
    assert pd.isna(_row(pdf, "st", 2)["consistency"])


def test_hallucinated_edges_score_zero_relevance(spark, kg):
    s = _summary(edges=((0, 1), (1, 4)), paths=((0, 1, 4),))  # 1-4 not in KG
    pdf = compute_quality(spark, kg, [s])
    assert pdf.iloc[0]["relevance"] == pytest.approx(4.0)


def test_node_metric_aggregation_against_oracle(kg, scored):
    summaries, pdf = scored
    frames = summary_frames(summaries)
    assert_equivalent(
        pdf[["rid", "actionability"]].rename(columns={"actionability": "a"}),
        """
        SELECT n.rid AS rid,
               SUM(CASE WHEN t.ntype = 'item' THEN 1 ELSE 0 END) * 1.0 / COUNT(*) AS a
        FROM nodes n LEFT JOIN types t ON n.node = t.id
        GROUP BY n.rid
        """,
        nodes=frames["nodes"],
        types=kg.nodes.toPandas(),
    )


def test_edge_count_aggregation_against_oracle(scored):
    summaries, pdf = scored
    frames = summary_frames(summaries)
    assert_equivalent(
        pdf[["rid", "n_edges"]],
        "SELECT rid, COUNT(*) AS n_edges FROM edges GROUP BY rid",
        edges=frames["edges"],
    )


def test_quality_jobs(spark, kg, scored):
    # One weight lookup and one type lookup, each a broadcast of the wanted
    # keys and a collect; the per-summary metrics run no Spark job.
    summaries, _ = scored
    sc = spark.sparkContext
    props = ("spark.jobGroup.id", "spark.job.description", "spark.job.interruptOnCancel")
    before = {k: sc.getLocalProperty(k) for k in props}
    group = "test-quality-jobs"
    try:
        sc.setJobGroup(group, group)
        compute_quality(spark, kg, summaries)
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        jobs = len(sc.statusTracker().getJobIdsForGroup(group))
    finally:
        for k, v in before.items():
            sc.setLocalProperty(k, v)
    assert 0 < jobs <= 6, jobs


def test_aggregate_quality_means(scored):
    _, pdf = scored
    agg = aggregate_quality(pdf)
    st1 = agg[(agg["method"] == "st") & (agg["k"] == 1)].iloc[0]
    assert st1["comprehensibility"] == pytest.approx(1 / 3)


def test_every_metric_matches_reference_on_lite_summaries(spark, ml1m_lite, lite_summaries):
    # ST, PCST and baseline summaries of every k, a series empty → empty →
    # non-empty, and a summary with a node (and so an edge) not in the KG.
    _, kg = ml1m_lite
    ntypes = kg.node_types()
    weights: dict[tuple[int, int], float] = {}
    for r in kg.edges.collect():
        e = (min(r["src"], r["dst"]), max(r["src"], r["dst"]))
        weights[e] = max(weights.get(e, r["weight"]), r["weight"])
    real = next(iter(lite_summaries["st"][0].nodes))
    ghost = max(ntypes) + 1
    ghost_edge = ((real, ghost),)
    extra = [
        _summary(sid="user:empty", method="pgpr", edges=(), paths=()),
        _summary(sid="user:empty", method="pgpr", k=2, edges=(), paths=()),
        _summary(sid="user:empty", method="pgpr", k=3, edges=ghost_edge, paths=ghost_edge),
        _summary(sid="user:ghost", method="pgpr", edges=ghost_edge, paths=ghost_edge),
    ]
    sample = [s for v in lite_summaries.values() for s in v] + extra
    pdf = compute_quality(spark, kg, sample).set_index("rid")
    assert len(pdf) == len(sample)
    by_cell = {(s.sid, s.method, s.k): s for s in sample}
    for s in sample:
        got = pdf.loc[f"{s.sid}|{s.method}|{s.k}"]
        want = {
            "n_edges": len(s.edges),
            "n_nodes": len(s.nodes),
            "comprehensibility": ref.comprehensibility(s),
            "actionability": ref.actionability(s, ntypes),
            "diversity": ref.diversity(s),
            "redundancy": ref.redundancy(s),
            "relevance": ref.relevance(s, weights),
            "privacy": ref.privacy(s, ntypes),
        }
        for col, value in want.items():
            assert got[col] == pytest.approx(value, abs=1e-9), (s.sid, s.method, s.k, col)
        # S_{k+1} missing: no consistency value.
        nxt = by_cell.get((s.sid, s.method, s.k + 1))
        want_c = ref.consistency(s, nxt) if nxt is not None else float("nan")
        assert got["consistency"] == pytest.approx(want_c, abs=1e-9, nan_ok=True), (s.sid, s.k)
    assert (pdf.loc["user:empty|pgpr|1", list(want)] == 0).all()
    assert pd.isna(pdf.loc["user:empty|pgpr|1", "consistency"])  # both empty
    assert pdf.loc["user:empty|pgpr|2", "consistency"] == 0.0  # empty → non-empty
    ghost_row = pdf.loc["user:ghost|pgpr|1"]
    assert ghost_row["relevance"] == 0 and ghost_row["n_nodes"] == 2


def test_summary_from_paths_keeps_a_multiset():
    req = SummaryRequest(
        sid="user:0", scenario="user-centric", centers=(0,), targets=((1, 3),), paths=((1, (0, 1, 3)),)
    )
    multi = summary_from_paths(req, "bl", 1, [(0, 1, 3), (0, 1, 3)])
    assert len(multi.edges) == 4
    assert multi.nodes == frozenset({0, 1, 3})
