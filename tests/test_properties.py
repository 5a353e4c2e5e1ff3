"""Hypothesis property tests for the driver-side algorithm pieces.

No SparkSession involved — these fuzz the pure-Python components: ST's
closure MST (the merge phase with unlimited prizes), the union→tree→prune
cleanup, the PCST merge phase, request semantics, and the reference metric
formulas.
"""
import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pcst import _merge_phase
from repro.core.scenarios import SummaryRequest
from repro.core.steiner import _closure_mst, _tree_of_union
from repro.core.summary import _DSU, Summary, _norm, summary_from_paths
from repro.graph.sssp import edge_arrays
from repro.kg.build import IdSpace
from repro.metrics import reference as ref

settings.register_profile("repro", max_examples=40, deadline=None)
settings.load_profile("repro")


# --- strategies -----------------------------------------------------------

@st.composite
def closure(draw):
    """A random complete metric closure over 3–8 terminals."""
    n = draw(st.integers(3, 8))
    terms = list(range(n))
    dist = {}
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()) or True:  # dense closures; gaps tested apart
                dist[(i, j)] = draw(st.floats(0.1, 10.0, allow_nan=False))
    return terms, dist


@st.composite
def random_paths(draw):
    n_nodes = draw(st.integers(4, 15))
    n_paths = draw(st.integers(1, 5))
    paths = []
    for _ in range(n_paths):
        length = draw(st.integers(2, 5))
        paths.append(tuple(draw(st.integers(0, n_nodes - 1)) for _ in range(length)))
    return paths


# --- MST over the closure -------------------------------------------------

def _cands(dist):
    return [(d, a, b, (a, b)) for (a, b), d in dist.items()]


@given(closure())
def test_closure_mst_matches_networkx_mst_weight(c):
    terms, dist = c
    chosen = [(a, b) for a, b, _ in _closure_mst(terms, _cands(dist))]
    g = nx.Graph()
    for (a, b), d in dist.items():
        g.add_edge(a, b, weight=d)
    expect = nx.minimum_spanning_tree(g, weight="weight")
    got = sum(dist[_norm(a, b)] for a, b in chosen)
    want = sum(d["weight"] for _, _, d in expect.edges(data=True))
    assert abs(got - want) < 1e-9
    assert len(chosen) == len(terms) - 1


@given(closure())
def test_closure_mst_is_spanning_tree(c):
    terms, dist = c
    chosen = [(a, b) for a, b, _ in _closure_mst(terms, _cands(dist))]
    g = nx.Graph(chosen)
    assert nx.is_connected(g)
    assert set(g.nodes) == set(terms)


def test_closure_mst_drops_terminals_unreachable_from_the_first():
    # 2-3 is connected, but not to terminal 0: only 0's tree is kept.
    dist = {(0, 1): 1.0, (2, 3): 0.5}
    assert _closure_mst([0, 1, 2, 3], _cands(dist)) == [(0, 1, (0, 1))]
    assert _closure_mst([2, 0, 1, 3], _cands(dist)) == [(2, 3, (2, 3))]


# --- union → tree → prune --------------------------------------------------

@given(random_paths())
def test_tree_of_union_is_acyclic_and_covers_terminals(paths):
    edges = set()
    for p in paths:
        edges.update(_norm(a, b) for a, b in zip(p, p[1:]) if a != b)
    if not edges:
        return
    nodes = {n for e in edges for n in e}
    g = nx.Graph(edges)
    comp = max(nx.connected_components(g), key=len)
    terminals = set(list(sorted(comp))[:2])
    rows = [(a, b) for e in edges for a, b in (e, e[::-1])]
    tree = _tree_of_union(edges, terminals, edge_arrays(*zip(*rows), [1.0] * len(rows)))
    t = nx.Graph(tree)
    if tree:
        assert nx.is_forest(t)
        # terminals in the main component survive pruning
        for x in terminals:
            if x in comp and len(comp) > 1:
                assert x in t
        # no non-terminal leaves
        for v in t.nodes:
            if t.degree(v) == 1:
                assert v in terminals


def test_dsu_union_find():
    d = _DSU()
    assert d.union(1, 2)
    assert not d.union(2, 1)
    assert d.union(2, 3)
    assert d.find(1) == d.find(3)
    assert d.find(7) == 7


# --- PCST merge phase ------------------------------------------------------

@given(st.integers(2, 8), st.floats(0.05, 3.0, allow_nan=False))
def test_merge_phase_respects_budget(n, cost):
    terms = set(range(n))
    cands = [(cost, i, i + 1, (i, i + 1)) for i in range(n - 1)]
    dsu, accepted = _merge_phase(cands, terms, prize=1.0)
    # total spent cost never exceeds total prize
    assert len(accepted) * cost <= n * 1.0 + 1e-9


@pytest.mark.parametrize(
    "prize, cost, merged", [(1.0, 3.25, False), (1.0, 1.0, True), (2.0, 3.25, True)]
)
def test_merge_phase_accepts_a_merge_its_prizes_pay_for(prize, cost, merged):
    # Two terminals hold 2·prize: at PCST's edge cost 0.25 a 13-edge chain
    # (3.25) needs prize 2, a 4-edge one (1.0) fits prize 1.
    terms = {0, 13}
    dsu, accepted = _merge_phase([(cost, 0, 13, (0, 13))], terms, prize=prize)
    assert (dsu.find(0) == dsu.find(13)) is merged
    assert len(accepted) == int(merged)


def test_merge_phase_zero_budget_rejects_everything():
    terms = {0, 1}
    cands = [(0.5, 0, 1, (0, 1))]
    _, accepted = _merge_phase(cands, set(), prize=1.0)
    assert accepted == []


def test_merge_phase_prefers_cheap_edges():
    terms = {0, 1, 2}
    cands = [(1.9, 0, 1, (0, 1)), (0.1, 1, 2, (1, 2)), (1.95, 0, 2, (0, 2))]
    dsu, accepted = _merge_phase(cands, terms, prize=1.0)
    assert (1, 2, (1, 2)) in accepted


def test_merge_phase_breaks_rounding_ties_by_pair():
    # 1.2 + 2.4 is 3.6 in exact arithmetic but one ulp below the float 3.6;
    # the (ra, rb) tie-break must decide, not the rounding of the sum.
    near = 1.2 + 2.4
    assert near != 3.6 and near < 3.6
    terms = {1, 2, 3}
    cands = [(near, 2, 3, (2, 3)), (3.6, 1, 3, (1, 3)), (3.6, 1, 2, (1, 2))]
    _, accepted = _merge_phase(cands, terms, prize=float("inf"))
    assert [(ra, rb) for ra, rb, _ in accepted] == [(1, 2), (1, 3)]


# --- request semantics -----------------------------------------------------

@given(st.lists(st.tuples(st.integers(1, 10), st.integers(100, 120)), min_size=0, max_size=12))
def test_terminals_monotone_in_k(targets):
    req = SummaryRequest(
        sid="x", scenario="user-centric", centers=(0,), targets=tuple(targets), paths=()
    )
    prev: set = set()
    for k in range(0, 12):
        cur = set(req.terminals(k))
        assert prev <= cur
        assert 0 in cur
        prev = cur
    assert len(req.terminals(99)) == len(set(t for _, t in targets) | {0})


@given(st.integers(1, 50), st.integers(1, 50), st.integers(1, 50), st.integers(0, 148))
def test_idspace_ntype_partitions(nu, ni, ne, node):
    ids = IdSpace(n_users=nu, n_items=ni, n_ext=ne)
    if node < nu + ni + ne:
        t = ids.ntype(node)
        if node < nu:
            assert t == "user" and ids.user(node) == node
        elif node < nu + ni:
            assert t == "item" and ids.item(node - nu) == node
        else:
            assert t == "ext" and ids.ext(node - nu - ni) == node


# --- reference metric formulas --------------------------------------------

def _mk(edges, paths=()):
    return Summary(
        sid="x", scenario="s", method="m", k=1,
        edges=tuple(edges), nodes=frozenset(n for e in edges for n in e),
        paths=tuple(paths), terminals=(),
    )


@given(random_paths())
def test_reference_metrics_ranges(paths):
    req = SummaryRequest(sid="x", scenario="s", centers=(0,), targets=(), paths=())
    s = summary_from_paths(req, "m", 1, [p for p in paths])
    assert 0 <= ref.diversity(s) <= 1
    assert 0 <= ref.redundancy(s) < 1
    c = ref.comprehensibility(s)
    assert c == 0 or 0 < c <= 1


def test_reference_diversity_disjoint_edges_is_one():
    assert ref.diversity(_mk([(0, 1), (2, 3)])) == 1.0


def test_reference_diversity_parallel_edges_is_zero():
    assert ref.diversity(_mk([(0, 1), (0, 1)])) == 0.0


def test_reference_redundancy_of_tree_vs_path_multiset():
    tree = _mk([(0, 1), (1, 2), (1, 3)])
    repeated = _mk([(0, 1), (0, 1), (0, 1)])
    assert ref.redundancy(repeated) > ref.redundancy(tree)


def test_reference_consistency_bounds():
    a, b = _mk([(0, 1)]), _mk([(0, 1), (1, 2)])
    assert 0 < ref.consistency(a, b) < 1
    assert ref.consistency(a, a) == 1.0


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=10))
def test_spark_free_diversity_closed_form_equivalence(pairs):
    # The closed form used in Spark, recomputed in plain python, must equal
    # the naive O(E²) reference for arbitrary edge multisets.
    edges = [tuple(sorted(p)) for p in pairs if p[0] != p[1]]
    if len(edges) < 2:
        return
    s = _mk(edges)
    m = len(edges)
    from collections import Counter

    deg = Counter()
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    p2 = sum(c * (c - 1) // 2 for c in Counter(edges).values())
    sum_cd2 = sum(d * (d - 1) // 2 for d in deg.values())
    p1 = sum_cd2 - 2 * p2
    pairs_total = m * (m - 1) / 2
    closed = 1 - (p1 / 3 + p2) / pairs_total
    assert abs(closed - ref.diversity(s)) < 1e-9
