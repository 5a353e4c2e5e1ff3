"""KG container: symmetrization, counts, node typing."""
import pytest
from pyspark.sql import functions as F

from repro.graph.model import ETYPE_IE, ETYPE_UI, NTYPE_EXT, NTYPE_ITEM, NTYPE_USER
from tests.conftest import make_kg, random_kg

EDGES = [
    (0, 3, 4.0, ETYPE_UI),
    (0, 4, 5.0, ETYPE_UI),
    (1, 3, 2.0, ETYPE_UI),
    (3, 6, 0.0, ETYPE_IE),
    (4, 6, 0.0, ETYPE_IE),
]
NTYPES = {0: NTYPE_USER, 1: NTYPE_USER, 3: NTYPE_ITEM, 4: NTYPE_ITEM, 6: NTYPE_EXT}


@pytest.fixture(scope="module")
def kg(spark):
    return make_kg(spark, EDGES, NTYPES)


def test_undirected_doubles_edges(kg):
    assert kg.undirected().count() == 2 * len(EDGES)


def test_undirected_contains_both_orientations(kg):
    und = {(r["src"], r["dst"]) for r in kg.undirected().collect()}
    for a, b, _, _ in EDGES:
        assert (a, b) in und and (b, a) in und


def test_undirected_preserves_weight_and_etype(kg):
    rows = kg.undirected().where((F.col("src") == 4) | (F.col("dst") == 4)).collect()
    for r in rows:
        pair = (min(r["src"], r["dst"]), max(r["src"], r["dst"]))
        if pair == (0, 4):
            assert r["weight"] == 5.0 and r["etype"] == ETYPE_UI
        if pair == (4, 6):
            assert r["weight"] == 0.0 and r["etype"] == ETYPE_IE


def test_counts(kg):
    assert kg.num_nodes() == 5
    assert kg.num_edges() == len(EDGES)


def test_node_types_map(kg):
    assert kg.node_types() == NTYPES


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_kg_is_consistent(spark, seed):
    kg = random_kg(spark, n=10, m=15, seed=seed)
    assert kg.num_edges() == 15
    assert kg.undirected().count() == 30
    # weights positive, types well-formed
    assert kg.edges.where(F.col("weight") <= 0).count() == 0
    assert set(kg.nodes.select("ntype").distinct().toPandas()["ntype"]) <= {
        NTYPE_USER,
        NTYPE_ITEM,
        NTYPE_EXT,
    }
