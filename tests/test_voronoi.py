"""Nearest-terminal BFS vs networkx multi-source Dijkstra."""
import networkx as nx
import pytest
from pyspark.sql import functions as F

from repro.graph.sssp import voronoi_partition
from tests.conftest import make_kg, nx_of, random_kg


def _unit_edges(kg):
    return kg.undirected().select("src", "dst", F.lit(1.0).alias("cost"))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cell_distances_match_networkx(spark, seed):
    kg = random_kg(spark, n=12, m=22, seed=seed)
    g = nx_of(kg)
    terminals = sorted(g.nodes)[:3]
    tdf = spark.createDataFrame([(0, t) for t in terminals], "sid: int, landmark: long")
    res = voronoi_partition(_unit_edges(kg), tdf, max_hops=12)
    got = {r["node"]: (r["dist"], r["root"]) for r in res.collect()}
    dist, _ = nx.multi_source_dijkstra(g, set(terminals), weight=None)
    assert {n for n in got} == set(dist)
    for n, d in dist.items():
        assert got[n][0] == pytest.approx(float(d))
        # the assigned root must itself be at that distance from the node
        assert nx.shortest_path_length(g, got[n][1], n) == d


def test_roots_are_terminals_and_paths_valid(spark):
    kg = random_kg(spark, n=10, m=16, seed=4)
    edge_set = {
        (min(r["src"], r["dst"]), max(r["src"], r["dst"])) for r in kg.edges.collect()
    }
    terminals = [0, 5]
    tdf = spark.createDataFrame([(0, t) for t in terminals], "sid: int, landmark: long")
    res = voronoi_partition(_unit_edges(kg), tdf, max_hops=10)
    for r in res.collect():
        assert r["root"] in terminals
        p = list(r["path"])
        assert p[0] == r["root"] and p[-1] == r["node"]
        for a, b in zip(p, p[1:]):
            assert (min(a, b), max(a, b)) in edge_set


def test_state_size_is_per_node_not_per_terminal(spark):
    # With many terminals the result still has one row per reachable node.
    kg = make_kg(spark, [(i, i + 1, 1.0, "ui") for i in range(9)])
    tdf = spark.createDataFrame([(0, t) for t in range(0, 10, 2)], "sid: int, landmark: long")
    res = voronoi_partition(_unit_edges(kg), tdf, max_hops=10)
    assert res.count() == 10


def test_tie_breaks_to_smaller_root(spark):
    kg = make_kg(spark, [(0, 1, 1.0, "ui"), (1, 2, 1.0, "ui")])
    tdf = spark.createDataFrame([(0, 0), (0, 2)], "sid: int, landmark: long")
    res = voronoi_partition(_unit_edges(kg), tdf, max_hops=4)
    mid = [r for r in res.collect() if r["node"] == 1][0]
    assert mid["root"] == 0 and mid["dist"] == 1.0
