"""Graph statistics: exact aggregates vs DuckDB, path stats vs networkx."""
import networkx as nx
import pytest
from pyspark.sql import functions as F

from repro.graph.stats import graph_stats, path_length_stats
from repro.oracle import assert_equivalent
from tests.conftest import make_kg, nx_of, random_kg
from repro.graph.model import ETYPE_IE, ETYPE_UI, KG, NTYPE_EXT, NTYPE_ITEM, NTYPE_USER

EDGES = [
    (0, 2, 4.0, ETYPE_UI),
    (0, 3, 5.0, ETYPE_UI),
    (1, 2, 3.0, ETYPE_UI),
    (2, 4, 0.0, ETYPE_IE),
    (3, 4, 0.0, ETYPE_IE),
    (3, 5, 0.0, ETYPE_IE),
]
NTYPES = {0: NTYPE_USER, 1: NTYPE_USER, 2: NTYPE_ITEM, 3: NTYPE_ITEM, 4: NTYPE_EXT, 5: NTYPE_EXT}


@pytest.fixture(scope="module")
def kg(spark):
    return make_kg(spark, EDGES, NTYPES)


def test_counts_and_splits(kg):
    s = graph_stats(kg)
    assert (s.n_users, s.n_items, s.n_ext) == (2, 2, 2)
    assert (s.n_ui_edges, s.n_ie_edges, s.n_edges) == (3, 3, 6)


def test_average_degrees(kg):
    s = graph_stats(kg)
    assert s.avg_degree_user == pytest.approx(1.5)  # 3 ratings / 2 users
    assert s.avg_degree_item_from_users == pytest.approx(1.5)
    assert s.avg_degree_item_to_ext == pytest.approx(1.5)
    assert s.avg_degree_ext == pytest.approx(1.5)
    assert s.avg_degree == pytest.approx(2 * 6 / 6)


def test_density_is_undirected(kg):
    s = graph_stats(kg)
    assert s.density == pytest.approx(2 * 6 / (6 * 5))


def test_edge_type_counts_against_oracle(spark, kg):
    got = kg.edges.groupBy("etype").agg(F.count("*").alias("n"))
    assert_equivalent(
        got,
        "SELECT etype, COUNT(*) AS n FROM edges GROUP BY etype",
        edges=kg.edges.toPandas(),
    )


def test_path_stats_match_networkx_exactly_on_full_sample(spark, kg):
    # With landmarks >= |V| the sampled BFS is exhaustive from each landmark.
    g = nx_of(kg)
    avg, diam = path_length_stats(kg, n_landmarks=6, max_hops=10, seed=0)
    assert diam == nx.diameter(g)
    # avg over sampled sources is the true all-pairs average here
    expect = nx.average_shortest_path_length(g)
    assert avg == pytest.approx(expect, rel=0.25)


@pytest.mark.parametrize("seed", [0, 2])
def test_diameter_estimate_bounded_by_true_max_eccentricity(spark, seed):
    kg = random_kg(spark, n=14, m=26, seed=seed)
    g = nx_of(kg)
    true_max = max(
        nx.diameter(g.subgraph(c)) for c in nx.connected_components(g) if len(c) > 1
    )
    _, diam = path_length_stats(kg, n_landmarks=14, max_hops=12, seed=1)
    assert 1 <= diam <= true_max


def test_path_stats_do_not_depend_on_node_partitioning(spark):
    kg = random_kg(spark, n=40, m=70, seed=3)
    got = {
        n: path_length_stats(
            KG(nodes=kg.nodes.repartition(n), edges=kg.edges), n_landmarks=5, max_hops=12, seed=4
        )
        for n in (1, 8)
    }
    assert got[1] == got[8]
