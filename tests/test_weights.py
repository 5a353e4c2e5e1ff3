"""Eq. 1 boost and the weight→cost transform."""
import pytest
from pyspark.sql import functions as F

from repro.core.scenarios import SummaryRequest
from repro.core.weights import (
    COST_EPS,
    base_cost_edges,
    boost_table,
    path_edge_frequencies,
    w_cap_for,
)
from repro.graph.model import ETYPE_UI
from tests.conftest import make_kg


def _req(paths, sid="user:0"):
    return SummaryRequest(
        sid=sid,
        scenario="user-centric",
        centers=(0,),
        targets=tuple((i + 1, p[-1]) for i, p in enumerate(paths)),
        paths=tuple((i + 1, tuple(p)) for i, p in enumerate(paths)),
    )


def test_cost_bounds(spark):
    kg = make_kg(spark, [(0, 1, 5.0, ETYPE_UI), (1, 2, 0.0, ETYPE_UI)])
    w_cap = w_cap_for(kg, lam=0.0)
    assert w_cap == 5.0
    costs = {
        (r["src"], r["dst"]): r["cost"] for r in base_cost_edges(kg, w_cap).collect()
    }
    assert costs[(0, 1)] == pytest.approx(1.0)  # max weight → min cost
    assert costs[(1, 2)] == pytest.approx(1.0 + COST_EPS)  # zero weight → max cost
    assert all(1.0 <= c <= 1.0 + COST_EPS for c in costs.values())


def test_cost_monotone_decreasing_in_weight(spark):
    kg = make_kg(spark, [(0, 1, 1.0, ETYPE_UI), (0, 2, 3.0, ETYPE_UI), (0, 3, 5.0, ETYPE_UI)])
    w_cap = w_cap_for(kg, lam=0.0)
    costs = {r["dst"]: r["cost"] for r in base_cost_edges(kg, w_cap).where(F.col("src") == 0).collect()}
    assert costs[1] > costs[2] > costs[3]


def test_w_cap_scales_with_lambda(spark):
    kg = make_kg(spark, [(0, 1, 2.0, ETYPE_UI)])
    assert w_cap_for(kg, lam=0.0) == 2.0
    assert w_cap_for(kg, lam=100.0) == pytest.approx(202.0)


def test_path_edge_frequencies_counts_paths_not_hops():
    req = _req([[0, 1, 2], [0, 1, 3]])
    pdf = path_edge_frequencies([req], k=2)
    freq = {
        (r.src, r.dst): (r.freq, r.n_s) for r in pdf.itertuples()
    }
    assert freq[(0, 1)] == (2, 2)  # edge 0-1 appears in both paths
    assert freq[(1, 0)] == (2, 2)  # symmetrized
    assert freq[(1, 2)] == (1, 2)


def test_path_edge_frequencies_respects_k():
    req = _req([[0, 1, 2], [0, 1, 3]])
    pdf = path_edge_frequencies([req], k=1)
    freq = {(r.src, r.dst): (r.freq, r.n_s) for r in pdf.itertuples()}
    assert freq[(0, 1)] == (1, 1)
    assert (1, 3) not in freq


def test_boost_lowers_cost_of_path_edges(spark):
    kg = make_kg(spark, [(0, 1, 2.0, ETYPE_UI), (1, 2, 2.0, ETYPE_UI), (0, 3, 2.0, ETYPE_UI)])
    req = _req([[0, 1, 2]])
    lam = 100.0
    w_cap = w_cap_for(kg, lam=lam)
    boosts = boost_table(spark, kg, [req], lam=lam, w_cap=w_cap, k=1)
    rows = {(r["src"], r["dst"]): r["cost"] for r in boosts.collect()}
    base = {
        (r["src"], r["dst"]): r["cost"] for r in base_cost_edges(kg, w_cap).collect()
    }
    # boosted path edges approach cost 1; non-path edge 0-3 has no boost row
    assert rows[(0, 1)] == pytest.approx(1.0, abs=1e-9)
    assert rows[(0, 1)] < base[(0, 1)]
    assert (0, 3) not in rows
    assert (3, 0) not in rows


def test_boost_ignores_edges_missing_from_kg(spark):
    # Hallucinated path edge (1, 9) is not in the KG → no boost row.
    kg = make_kg(spark, [(0, 1, 2.0, ETYPE_UI)])
    req = _req([[0, 1, 9]])
    boosts = boost_table(spark, kg, [req], lam=1.0, w_cap=w_cap_for(kg, 1.0), k=1)
    pairs = {(r["src"], r["dst"]) for r in boosts.collect()}
    assert pairs == {(0, 1), (1, 0)}


def test_lambda_zero_means_no_effective_boost(spark):
    kg = make_kg(spark, [(0, 1, 2.0, ETYPE_UI), (1, 2, 4.0, ETYPE_UI)])
    req = _req([[0, 1, 2]])
    w_cap = w_cap_for(kg, lam=0.0)
    boosts = boost_table(spark, kg, [req], lam=0.0, w_cap=w_cap, k=1)
    base = {(r["src"], r["dst"]): r["cost"] for r in base_cost_edges(kg, w_cap).collect()}
    for r in boosts.collect():
        assert r["cost"] == pytest.approx(base[(r["src"], r["dst"])])


@pytest.mark.parametrize("lam", [0.0, 0.01, 1.0, 100.0])
def test_boost_never_costs_more_than_base(spark, ml1m_lite, lite_requests, lam):
    # The SSSP kernel keeps the cheaper of a boost row and the shared row it
    # shadows, so a boost must never cost more (and equal it at λ = 0).
    _, kg = ml1m_lite
    w_cap = w_cap_for(kg, lam)
    k = max(r.k_max() for r in lite_requests)
    boosts = boost_table(spark, kg, lite_requests, lam=lam, w_cap=w_cap, k=k).collect()
    base_rows = base_cost_edges(kg, w_cap).collect()
    base = {(r["src"], r["dst"]): r["cost"] for r in base_rows}
    assert len(base) == len(base_rows) and boosts
    for r in boosts:
        if lam == 0.0:
            assert r["cost"] == base[(r["src"], r["dst"])]
        else:
            assert r["cost"] <= base[(r["src"], r["dst"])]


def test_negative_lambda_is_rejected(spark):
    kg = make_kg(spark, [(0, 1, 2.0, ETYPE_UI)])
    with pytest.raises(ValueError, match="lam"):
        w_cap_for(kg, lam=-0.5)


def test_negative_weight_is_rejected(spark):
    kg = make_kg(spark, [(0, 1, 2.0, ETYPE_UI), (1, 2, -1.0, ETYPE_UI)])
    with pytest.raises(ValueError, match="weight"):
        w_cap_for(kg, lam=1.0)


def test_empty_requests_give_no_boost_table(spark):
    kg = make_kg(spark, [(0, 1, 2.0, ETYPE_UI)])
    req = SummaryRequest(
        sid="user:0", scenario="user-centric", centers=(0,), targets=(), paths=()
    )
    assert boost_table(spark, kg, [req], lam=1.0, w_cap=1.0, k=1) is None
