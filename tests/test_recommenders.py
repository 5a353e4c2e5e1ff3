"""Simulated baseline recommenders: schema, faithfulness, policy behaviour."""
import pytest
from pyspark.sql import functions as F

from repro.graph.model import NTYPE_EXT, NTYPE_ITEM, NTYPE_USER
from repro.oracle import assert_equivalent
from repro.recommenders import cafe, pearlm, pgpr, plm, random_walker, recommend_paths


@pytest.fixture(scope="module")
def stack(spark, ml1m_lite):
    ds, kg = ml1m_lite
    users = [0, 1, 2, 3]
    return ds, kg, users


def _pdf(df):
    return df.toPandas()


def test_output_schema(spark, stack, lite_paths):
    pdf = _pdf(lite_paths)
    assert set(pdf.columns) == {"user", "item", "rank", "path", "in_kg", "score"}
    assert (pdf["path"].map(len) == 4).all()


def test_topk_distinct_items_per_user(lite_paths):
    pdf = _pdf(lite_paths)
    for u, grp in pdf.groupby("user"):
        assert grp["item"].is_unique
        assert sorted(grp["rank"]) == list(range(1, len(grp) + 1))
        assert len(grp) <= 5


def test_paths_start_at_user_end_at_item(stack, lite_paths):
    ds, _, _ = stack
    pdf = _pdf(lite_paths)
    for _, r in pdf.iterrows():
        p = list(r["path"])
        assert p[0] == r["user"]
        assert p[-1] == r["item"]
        assert ds.ids.ntype(p[0]) == NTYPE_USER
        assert ds.ids.ntype(p[-1]) == NTYPE_ITEM


def test_pgpr_paths_are_faithful_walks(stack, lite_paths, lite_edge_set):
    pdf = _pdf(lite_paths)
    assert pdf["in_kg"].all()
    for p in pdf["path"]:
        for a, b in zip(p, p[1:]):
            assert (min(a, b), max(a, b)) in lite_edge_set


def test_never_recommends_rated_items(spark, stack, lite_paths):
    ds, kg, _ = stack
    rated = set(map(tuple, ds.ratings[["user", "item"]].values))
    for _, r in _pdf(lite_paths).iterrows():
        assert (r["user"], r["item"] - ds.ids.n_users) not in rated


def test_deterministic_given_seed(spark, stack):
    ds, kg, users = stack
    a = _pdf(pgpr(spark, kg, ds.ids, users[:2], k=3, seed=7)).sort_values(["user", "rank"])
    b = _pdf(pgpr(spark, kg, ds.ids, users[:2], k=3, seed=7)).sort_values(["user", "rank"])
    assert a[["user", "item", "rank"]].reset_index(drop=True).equals(
        b[["user", "item", "rank"]].reset_index(drop=True)
    )


def test_cafe_restricted_to_entity_metapath(spark, stack):
    ds, kg, users = stack
    pdf = _pdf(cafe(spark, kg, ds.ids, users, k=5, seed=3))
    # middle node of a user→item→X→item path must be an external entity
    for p in pdf["path"]:
        assert ds.ids.ntype(p[2]) == NTYPE_EXT


def test_pgpr_uses_both_metapath_families(spark, stack, lite_paths):
    ds, _, _ = stack
    mids = {ds.ids.ntype(p[2]) for p in _pdf(lite_paths)["path"]}
    assert NTYPE_EXT in mids or NTYPE_USER in mids


def test_plm_hallucinates_some_final_hops(spark, stack):
    ds, kg, users = stack
    pdf = _pdf(plm(spark, kg, ds.ids, users, k=10, seed=3))
    assert (~pdf["in_kg"]).any(), "PLM-sim should emit some non-KG paths"


def test_pearlm_is_fully_faithful(spark, stack, lite_edge_set):
    ds, kg, users = stack
    pdf = _pdf(pearlm(spark, kg, ds.ids, users, k=10, seed=3))
    assert pdf["in_kg"].all()
    for p in pdf["path"]:
        for a, b in zip(p, p[1:]):
            assert (min(a, b), max(a, b)) in lite_edge_set


def test_sampled_walkers_diverge_from_greedy(spark, stack):
    ds, kg, users = stack
    greedy = _pdf(pgpr(spark, kg, ds.ids, users, k=5, seed=3))
    sampled = _pdf(pearlm(spark, kg, ds.ids, users, k=5, seed=3))
    g = set(map(tuple, greedy[["user", "item"]].values))
    s = set(map(tuple, sampled[["user", "item"]].values))
    assert g != s


def test_pgpr_prefers_high_weight_first_hops(spark, stack):
    # The first hop of each PGPR path should be one of the user's
    # highest-weight rated items (within the beam).
    ds, kg, users = stack
    pdf = _pdf(pgpr(spark, kg, ds.ids, users, k=5, seed=3))
    ratings = ds.ratings
    for _, r in pdf.iterrows():
        u = r["user"]
        first_item = r["path"][1] - ds.ids.n_users
        ur = ratings[ratings["user"] == u]
        beam = set(ur.sort_values("rating", ascending=False).head(25)["item"])
        assert first_item in beam


def test_random_walker_emits_valid_topk(spark, stack):
    ds, kg, users = stack
    pdf = _pdf(random_walker(spark, kg, ds.ids, users[:2], k=4, seed=1))
    assert not pdf.empty
    assert pdf.groupby("user")["item"].nunique().le(4).all()


def test_unknown_metapath_family_raises(spark, stack):
    ds, kg, users = stack
    with pytest.raises(ValueError, match="xx"):
        recommend_paths(spark, kg, ds.ids, users, families=("ie", "xx"))


def test_rank_agrees_with_score_order_oracle(spark, lite_paths):
    # rank must equal the row_number by (score desc, item asc) — checked in SQL.
    got = lite_paths.select("user", "item", "rank")
    assert_equivalent(
        got,
        """
        SELECT user, item,
               CAST(ROW_NUMBER() OVER (PARTITION BY user ORDER BY score DESC, item ASC) AS INT) AS rank
        FROM paths
        """,
        paths=lite_paths.select("user", "item", "score").toPandas(),
    )
