"""Summary object invariants and baseline wrapping."""
import pytest

from repro.core.scenarios import SummaryRequest
from repro.core.summary import Summary, _norm, baseline_summaries, summary_from_paths


def _req(n_targets=3, sid="user:0", scenario="user-centric"):
    return SummaryRequest(
        sid=sid,
        scenario=scenario,
        centers=(0,),
        targets=tuple((k, 100 + k) for k in range(1, n_targets + 1)),
        paths=tuple((k, (0, 10 + k, 100 + k)) for k in range(1, n_targets + 1)),
    )


@pytest.mark.parametrize("a,b", [(1, 2), (2, 1), (5, 5), (0, 9)])
def test_norm_orders_pairs(a, b):
    x, y = _norm(a, b)
    assert x <= y and {x, y} == {a, b}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_baseline_summary_edge_count_is_3k(k):
    req = _req()
    (s,) = [x for x in baseline_summaries([req], "pgpr", ks=[k]) if x.k == k]
    assert s.n_edges() == 2 * k  # paths here are 2 edges each
    assert s.method == "pgpr"
    assert s.scenario == "user-centric"


def test_baseline_summary_is_multiset():
    req = SummaryRequest(
        sid="u", scenario="user-centric", centers=(0,),
        targets=((1, 2), (2, 3)),
        paths=((1, (0, 1, 2)), (2, (0, 1, 3))),  # shared edge (0, 1)
    )
    (s,) = baseline_summaries([req], "x", ks=[2])
    assert s.edges.count((0, 1)) == 2


def test_summary_from_paths_nodes_cover_paths():
    req = _req()
    s = summary_from_paths(req, "m", 3, [(0, 11, 101), (0, 12, 102)])
    assert s.nodes == frozenset({0, 11, 101, 12, 102})
    assert s.n_nodes() == 5
    assert s.n_edges() == 4


def test_summary_terminals_recorded_per_k():
    req = _req()
    s1 = summary_from_paths(req, "m", 1, [])
    s3 = summary_from_paths(req, "m", 3, [])
    assert set(s1.terminals) == {0, 101}
    assert set(s3.terminals) == {0, 101, 102, 103}


@pytest.mark.parametrize("scenario", ["user-centric", "item-centric", "user-group", "item-group"])
def test_summary_carries_scenario(scenario):
    req = _req(scenario=scenario)
    (s,) = baseline_summaries([req], "m", ks=[1])
    assert s.scenario == scenario


def test_summary_is_hashable_frozen():
    req = _req()
    s = summary_from_paths(req, "m", 1, [(0, 11, 101)])
    with pytest.raises(Exception):
        s.k = 5  # frozen dataclass


def test_empty_paths_give_empty_summary():
    req = _req()
    s = summary_from_paths(req, "m", 1, [])
    assert s.n_edges() == 0 and s.n_nodes() == 0
