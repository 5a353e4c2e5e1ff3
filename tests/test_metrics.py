"""Spark batch metrics vs naive references, plus DuckDB oracle checks."""
from dataclasses import replace

import pandas as pd
import pytest
from pyspark.sql import functions as F

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


def test_node_metric_aggregation_against_oracle(spark, kg, scored):
    summaries, _ = scored
    frames = summary_frames(summaries)
    nodes = spark.createDataFrame(frames["nodes"]).join(
        kg.nodes.select(F.col("id").alias("node"), "ntype"), "node", "left"
    )
    got = nodes.groupBy("rid").agg(
        (F.sum(F.when(F.col("ntype") == NTYPE_ITEM, 1).otherwise(0)) / F.count("*")).alias("a")
    )
    assert_equivalent(
        got,
        """
        SELECT n.rid AS rid,
               SUM(CASE WHEN t.ntype = 'item' THEN 1 ELSE 0 END) * 1.0 / COUNT(*) AS a
        FROM nodes n LEFT JOIN types t ON n.node = t.id
        GROUP BY n.rid
        """,
        nodes=frames["nodes"],
        types=kg.nodes.toPandas(),
    )


def test_edge_count_aggregation_against_oracle(spark, kg, scored):
    summaries, _ = scored
    frames = summary_frames(summaries)
    edges = spark.createDataFrame(frames["edges"])
    got = edges.groupBy("rid").agg(F.count("*").alias("n_edges"))
    assert_equivalent(
        got,
        "SELECT rid, COUNT(*) AS n_edges FROM edges GROUP BY rid",
        edges=frames["edges"],
    )


def test_aggregate_quality_means(scored):
    _, pdf = scored
    agg = aggregate_quality(pdf)
    st1 = agg[(agg["method"] == "st") & (agg["k"] == 1)].iloc[0]
    assert st1["comprehensibility"] == pytest.approx(1 / 3)


def test_diversity_closed_form_on_lite_summaries(spark, ml1m_lite, lite_summaries):
    # Cross-check the degree-formula diversity on real summaries of all kinds.
    _, kg = ml1m_lite
    sample = (
        lite_summaries["st"][:4] + lite_summaries["pcst"][:4] + lite_summaries["baseline"][:4]
    )
    pdf = compute_quality(spark, kg, sample)
    for s in sample:
        got = pdf[
            (pdf["sid"] == s.sid) & (pdf["method"] == s.method) & (pdf["k"] == s.k)
        ].iloc[0]["diversity"]
        assert got == pytest.approx(ref.diversity(s)), (s.method, s.k)


def test_summary_from_paths_dedup_and_multiset():
    req = SummaryRequest(
        sid="user:0", scenario="user-centric", centers=(0,), targets=((1, 3),), paths=((1, (0, 1, 3)),)
    )
    multi = summary_from_paths(req, "bl", 1, [(0, 1, 3), (0, 1, 3)], dedup=False)
    dedup = summary_from_paths(req, "st", 1, [(0, 1, 3), (0, 1, 3)], dedup=True)
    assert len(multi.edges) == 4 and len(dedup.edges) == 2
    assert multi.nodes == dedup.nodes == frozenset({0, 1, 3})
