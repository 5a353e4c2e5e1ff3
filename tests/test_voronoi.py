"""Nearest-terminal BFS vs networkx multi-source Dijkstra."""
import networkx as nx
import pytest

from repro.graph.sssp import relax
from tests.conftest import random_edges, reached, undirected


def _cells(edges, terminals, max_hops):
    """``{node: (dist, root, path)}`` of the node-keyed kernel run."""
    table = relax(edges, terminals, max_hops=max_hops, per_landmark=False)
    return {n: (d, r, p) for (r, n), (d, p) in reached(table).items()}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cell_distances_match_networkx(seed):
    elist = random_edges(n=12, m=22, seed=seed)
    g = nx.Graph()
    g.add_nodes_from(range(12))
    g.add_edges_from((a, b) for a, b, *_ in elist)
    terminals = sorted(g.nodes)[:3]
    got = _cells(undirected(elist), terminals, 12)
    dist, _ = nx.multi_source_dijkstra(g, set(terminals), weight=None)
    assert {n for n in got} == set(dist)
    for n, d in dist.items():
        assert got[n][0] == pytest.approx(float(d))
        # the assigned root must itself be at that distance from the node
        assert nx.shortest_path_length(g, got[n][1], n) == d


def test_roots_are_terminals_and_paths_valid():
    elist = random_edges(n=10, m=16, seed=4)
    edge_set = {(a, b) for a, b, *_ in elist}
    terminals = [0, 5]
    for node, (_, root, p) in _cells(undirected(elist), terminals, 10).items():
        assert root in terminals
        assert p[0] == root and p[-1] == node
        for a, b in zip(p, p[1:]):
            assert (min(a, b), max(a, b)) in edge_set


def test_state_size_is_per_node_not_per_terminal():
    # With many terminals the table still has one row, one entry per
    # reachable node.
    edges = undirected([(i, i + 1, 1.0, "ui") for i in range(9)])
    table = relax(edges, range(0, 10, 2), max_hops=10, per_landmark=False)
    assert table.dist.shape[0] == 1
    assert len(reached(table)) == 10


def test_tie_breaks_to_smaller_root():
    edges = undirected([(0, 1, 1.0, "ui"), (1, 2, 1.0, "ui")])
    dist, root, _ = _cells(edges, [0, 2], 4)[1]
    assert root == 0 and dist == 1.0
