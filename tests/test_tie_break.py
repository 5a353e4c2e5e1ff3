"""Equal-cost tie-breaks of ST's closure and PCST's boundary candidates.

On unit-cost graphs full of equal-cost paths, each kernel row must be the
``min(cost, path)`` over every walk of at most its hop limit, and each pair
must keep the ``min(cost, path)`` of the candidates those rows make: the rule
Spark's ``min(struct)`` applied. The references enumerate walks in pure
Python over each edge's cost after the summary's boosts; the tasks run in
this process, without Spark.
"""
from itertools import combinations

import numpy as np
import pytest

from repro.core.pcst import EDGE_COST, _boundary_task
from repro.core.steiner import _closure_task
from repro.graph.sssp import boosted, edge_arrays, relax


def _grid(rows, cols):
    at = lambda r, c: r * cols + c
    return [(at(r, c), at(r, c + 1)) for r in range(rows) for c in range(cols - 1)] + [
        (at(r, c), at(r + 1, c)) for r in range(rows - 1) for c in range(cols)
    ]


GRAPHS = {
    "grid": (_grid(3, 4), [0, 5, 11, 3]),
    "k33": ([(a, b) for a in (0, 1, 2) for b in (3, 4, 5)], [0, 1, 3]),
    # Every grid edge twice, as two KG rows in opposite orientations.
    "duplicates": (_grid(3, 3) + [(b, a) for a, b in _grid(3, 3)], [0, 4, 8]),
    # Terminals along one chain, so closure paths are prefixes of each other,
    # with a parallel route of the same length beside it.
    "prefixes": ([(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 2)], [0, 2, 4]),
    # Two diamonds in a row: every pair's halves meet at one node only, so
    # the kernel's own tie-break between two equal-cost halves decides.
    "diamonds": ([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6)], [0, 3, 6]),
    # The grid under one summary's Eq. 1 boosts (below), which leave ties.
    "boosted": (_grid(3, 4), [0, 5, 11, 3]),
}

# Directed boost rows ``{(src, dst): cost}``: 2→6 costs more than its shared
# row and 0→11 is no edge, so neither changes the table.
BOOSTS = {
    "boosted": {
        (0, 1): 0.5, (1, 0): 0.5, (1, 5): 0.75, (5, 1): 0.75, (6, 7): 0.5, (7, 6): 0.5,
        (6, 10): 0.25, (10, 6): 0.25, (2, 6): 2.0, (0, 11): 0.25,
    }
}


KERNEL_CASES = {
    # Node 9 has no edge and the largest id, so the table's width comes from
    # the landmark.
    "isolated": ([(0, 1), (1, 2)], [0, 2, 9]),
    "single": ([(0, 1), (1, 2)], [9]),
    # Node 1's path (0, 6, 1) is larger than node 2's (0, 5, 2), so the two
    # equal-cost paths to 4 reach the sort in the opposite order of the rule.
    "crossed": ([(0, 6), (6, 1), (0, 5), (5, 2), (1, 4), (2, 4)], [0]),
}


def _table(kg_edges, cost, boosts=None):
    """Directed rows, both orientations of every KG edge, at ``cost``; the
    boost rows as a table (or None); adjacency; and each row's cost after
    the boosts.
    """
    rows = [(a, b) for a, b in kg_edges] + [(b, a) for a, b in kg_edges]
    adj: dict[int, list[int]] = {}
    for a, b in rows:
        adj.setdefault(a, []).append(b)
    src, dst = zip(*rows)
    costs = {r: min(cost, (boosts or {}).get(r, cost)) for r in rows}
    extra = edge_arrays(*zip(*boosts), list(boosts.values())) if boosts else None
    return edge_arrays(src, dst, [cost] * len(rows)), extra, adj, costs


def _best_walks(adj, start, hops, costs):
    """``{node: (cost, walk)}``, the min over walks of at most ``hops``
    edges; a walk's cost is summed from ``start``, hop by hop, as the kernel
    sums it.
    """
    best, stack = {}, [(0.0, (start,))]
    while stack:
        c, walk = stack.pop()
        if walk[-1] not in best or (c, walk) < best[walk[-1]]:
            best[walk[-1]] = (c, walk)
        if len(walk) <= hops:
            stack.extend((c + costs[walk[-1], v], walk + (v,)) for v in adj.get(walk[-1], ()))
    return best


def _cheapest(cands):
    out = {}
    for pair, c, path in cands:
        out[pair] = min(out.get(pair, (c, path)), (c, path))
    return out


@pytest.mark.parametrize("max_hops", [2, 3, 4, 5])
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_closure_candidates_match_enumeration(graph, max_hops):
    kg_edges, terminals = GRAPHS[graph]
    edges, boosts, adj, costs = _table(kg_edges, 1.0, BOOSTS.get(graph))
    near = {t: _best_walks(adj, t, (max_hops + 1) // 2, costs) for t in terminals}
    far = {t: _best_walks(adj, t, max_hops // 2, costs) for t in terminals}
    want = _cheapest(
        ((ra, rb), near[ra][m][0] + far[rb][m][0], near[ra][m][1] + far[rb][m][1][::-1][1:])
        for ra, rb in combinations(sorted(terminals), 2)
        for m in set(near[ra]) & set(far[rb])
    )
    ((sid, got),) = _closure_task(edges, [("s", terminals, boosts)], max_hops=max_hops)
    assert {(ra, rb): (c, p) for c, ra, rb, p in got} == want


@pytest.mark.parametrize("max_hops", [1, 2, 3])
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_boundary_candidates_match_enumeration(graph, max_hops):
    kg_edges, terminals = GRAPHS[graph]
    edges, _, adj, costs = _table(kg_edges, EDGE_COST)
    cells = {}
    for t in terminals:
        for node, (c, walk) in _best_walks(adj, t, max_hops, costs).items():
            cells[node] = min(cells.get(node, (c, t, walk)), (c, t, walk))
    want = _cheapest(
        (
            (min(cells[u][1], cells[v][1]), max(cells[u][1], cells[v][1])),
            cells[u][0] + EDGE_COST + cells[v][0],
            cells[u][2] + cells[v][2][::-1],
        )
        for u, v in costs
        if u < v and u in cells and v in cells and cells[u][1] != cells[v][1]
    )
    ((sid, got),) = _boundary_task(edges, [("s", terminals)], max_hops=max_hops)
    assert {(ra, rb): (c, p) for c, ra, rb, p in got} == want


@pytest.mark.parametrize("per_landmark", [True, False])
@pytest.mark.parametrize("max_hops", range(6))
@pytest.mark.parametrize("graph", sorted(GRAPHS) + sorted(KERNEL_CASES))
def test_kernel_entries_match_enumeration(graph, max_hops, per_landmark):
    kg_edges, terminals = {**GRAPHS, **KERNEL_CASES}[graph]
    edges, boosts, adj, costs = _table(kg_edges, 1.0, BOOSTS.get(graph))
    walks = [_best_walks(adj, t, max_hops, costs) for t in sorted(terminals)]
    if not per_landmark:
        walks = [{v: min(w[v] for w in walks if v in w) for v in set().union(*walks)}]
    span = 1 + max(terminals + [n for e in kg_edges for n in e])
    dist = np.full((len(walks), span), np.inf)
    path = np.full((len(walks), span, max_hops + 1), -1)
    for r, best in enumerate(walks):
        for v, (c, walk) in best.items():
            dist[r, v], path[r, v, : len(walk)] = c, walk
    got = relax(boosted(edges, boosts), terminals, max_hops=max_hops, per_landmark=per_landmark)
    assert got.landmarks.tolist() == sorted(terminals)
    np.testing.assert_array_equal(got.dist, dist)
    np.testing.assert_array_equal(got.path, path)
