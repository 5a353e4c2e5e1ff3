"""Algorithm 2 (PCST summaries): connectivity, prize trade-off, scaling shape."""
from itertools import combinations

import networkx as nx
import numpy as np
import pytest

from repro.core.pcst import EDGE_COST, PRIZE, pcst_summaries
from repro.core.scenarios import SummaryRequest
from repro.graph.model import ETYPE_UI
from tests.conftest import make_kg, nx_of, random_kg


def _req(terminals, sid="user:0", scenario="user-centric"):
    return SummaryRequest(
        sid=sid,
        scenario=scenario,
        centers=(terminals[0],),
        targets=tuple((1, t) for t in terminals[1:]),
        paths=(),
    )


def test_summary_is_weakly_connected(spark):
    kg = random_kg(spark, n=12, m=22, seed=0)
    g = nx_of(kg)
    comp = sorted(max(nx.connected_components(g), key=len))
    (s,) = pcst_summaries(spark, kg, [_req(comp[:4])], max_hops=6)
    if s.edges:
        assert nx.is_connected(nx.Graph(list(s.edges)))


def test_nearby_terminals_all_connected(spark):
    # A path of 5 nodes, terminals at both ends and middle: all within prize
    # budget at edge cost 0.25 → one component containing every terminal.
    kg = make_kg(spark, [(i, i + 1, 1.0, ETYPE_UI) for i in range(4)])
    (s,) = pcst_summaries(spark, kg, [_req([0, 2, 4])], max_hops=6)
    assert {0, 2, 4} <= s.nodes
    assert set(s.edges) == {(0, 1), (1, 2), (2, 3), (3, 4)}


def test_expensive_terminal_is_forgone(spark):
    # Terminals 0 and 13 joined by a 13-edge chain: connection cost
    # 13·0.25 = 3.25 > combined prize 2 → prize forgone, summary stays local.
    kg = make_kg(spark, [(i, i + 1, 1.0, ETYPE_UI) for i in range(13)])
    (s,) = pcst_summaries(spark, kg, [_req([0, 13])], max_hops=7)
    assert not ({0, 13} <= s.nodes)


def test_excluded_k_terminals_act_as_relays_only(spark):
    # Star: terminals 1..3 around hub 0. At k=1 only target 1 is prized.
    kg = make_kg(spark, [(0, i, 1.0, ETYPE_UI) for i in (1, 2, 3)])
    req = SummaryRequest(
        sid="user:1",
        scenario="user-centric",
        centers=(1,),
        targets=((1, 2), (2, 3)),
        paths=(),
    )
    out = {s.k: s for s in pcst_summaries(spark, kg, [req], ks=[1, 2], max_hops=4)}
    assert 3 not in out[1].nodes or 3 in out[2].nodes
    assert {1, 2} <= out[1].nodes
    assert {1, 2, 3} <= out[2].nodes


def test_batching_matches_individual_runs(spark):
    kg = random_kg(spark, n=10, m=18, seed=3)
    g = nx_of(kg)
    comp = sorted(max(nx.connected_components(g), key=len))
    r1, r2 = _req(comp[:3], sid="a"), _req(comp[1:4], sid="b")
    both = pcst_summaries(spark, kg, [r1, r2], max_hops=6)
    solo = pcst_summaries(spark, kg, [r1], max_hops=6) + pcst_summaries(
        spark, kg, [r2], max_hops=6
    )
    assert {s.sid: s.edges for s in both} == {s.sid: s.edges for s in solo}


def test_deterministic(spark):
    kg = random_kg(spark, n=12, m=20, seed=5)
    g = nx_of(kg)
    comp = sorted(max(nx.connected_components(g), key=len))
    a = pcst_summaries(spark, kg, [_req(comp[:4])], max_hops=6)
    b = pcst_summaries(spark, kg, [_req(comp[:4])], max_hops=6)
    assert a[0].edges == b[0].edges and a[0].nodes == b[0].nodes


def test_terminals_recorded_on_summary(spark):
    kg = make_kg(spark, [(0, 1, 1.0, ETYPE_UI), (1, 2, 1.0, ETYPE_UI)])
    (s,) = pcst_summaries(spark, kg, [_req([0, 2])], max_hops=4)
    assert set(s.terminals) == {0, 2}


def test_pcst_larger_or_equal_than_steiner_on_lite(lite_summaries):
    # The paper's observed shape: PCST summaries are at least as large as ST.
    st = {(s.sid, s.k): s.n_edges() for s in lite_summaries["st"]}
    pc = {(s.sid, s.k): s.n_edges() for s in lite_summaries["pcst"]}
    bigger = sum(1 for key in st if pc.get(key, 0) >= st[key])
    assert bigger >= 0.6 * len(st)


def test_component_with_most_terminals_then_centers_is_kept(spark):
    # Two components, {0-1-2} and {10-11}, with center 10. At k=1 both hold
    # two terminals and the center's wins, although its root is the larger;
    # at k=2 terminal 2 makes the other component the larger, and it wins.
    kg = make_kg(spark, [(0, 1, 1.0, ETYPE_UI), (1, 2, 1.0, ETYPE_UI), (10, 11, 1.0, ETYPE_UI)])
    req = SummaryRequest(
        sid="user:10",
        scenario="user-centric",
        centers=(10,),
        targets=((1, 11), (1, 0), (1, 1), (2, 2)),
        paths=(),
    )
    out = {s.k: s for s in pcst_summaries(spark, kg, [req], ks=[1, 2], max_hops=4)}
    assert out[1].edges == ((10, 11),)
    assert out[2].edges == ((0, 1), (1, 2))
    assert 10 not in out[2].nodes


def _brute_force_pcst_cost(g: nx.Graph, terminals) -> float:
    """Exact prize-collecting optimum at PCST's unit costs: the cheapest
    connected node set S, paying EDGE_COST per edge of a spanning tree of S
    and PRIZE per terminal left out of S.
    """
    best = PRIZE * len(terminals)  # S empty: every prize forgone
    for r in range(1, g.number_of_nodes() + 1):
        for s in combinations(g.nodes, r):
            if nx.is_connected(g.subgraph(s)):
                forgone = len(set(terminals) - set(s))
                best = min(best, EDGE_COST * (r - 1) + PRIZE * forgone)
    return best


@pytest.mark.parametrize("seed", range(6))
def test_objective_is_at_least_the_brute_force_optimum(spark, seed):
    # 9 nodes: no simple path exceeds 8 edges, so max_hops=8 does not bind.
    kg = random_kg(spark, n=9, m=11, seed=seed)
    g = nx_of(kg)
    rng = np.random.default_rng(seed)
    terminals = [int(t) for t in rng.choice(9, size=4, replace=False)]
    (s,) = pcst_summaries(spark, kg, [_req(terminals)], max_hops=8)
    got = EDGE_COST * len(s.edges) + PRIZE * len(set(terminals) - s.nodes)
    assert got >= _brute_force_pcst_cost(g, terminals) - 1e-9


def test_isolated_terminal_and_single_terminal(spark):
    # Node 9 has no KG edge and the largest id, so the kernel's table is as
    # wide as that landmark, not the edge table: its prize is forgone, and a
    # request with 9 as its only terminal is that node alone.
    kg = make_kg(spark, [(0, 1, 1.0, ETYPE_UI), (1, 2, 1.0, ETYPE_UI)], {9: "item"})
    reqs = [_req([0, 2, 9]), _req([9], sid="user:9")]
    pair, single = pcst_summaries(spark, kg, reqs)
    assert pair.edges == ((0, 1), (1, 2)) and pair.nodes == {0, 1, 2}
    assert single.edges == () and single.nodes == {9}
