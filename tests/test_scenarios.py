"""SummaryRequest construction for the four scenarios."""
import pytest

from repro.core import (
    item_centric_requests,
    item_group_requests,
    user_centric_requests,
    user_group_requests,
)


@pytest.fixture(scope="module")
def paths_df(spark):
    # Two users, three items; item 20 is recommended to both users.
    rows = [
        (0, 20, 1, [0, 10, 30, 20], True, 9.0),
        (0, 21, 2, [0, 11, 31, 21], True, 8.0),
        (1, 20, 1, [1, 12, 30, 20], True, 7.0),
        (1, 22, 2, [1, 12, 32, 22], True, 6.0),
    ]
    return spark.createDataFrame(
        rows, "user: long, item: long, rank: int, path: array<long>, in_kg: boolean, score: double"
    )


def test_user_centric_structure(paths_df):
    reqs = {r.sid: r for r in user_centric_requests(paths_df)}
    assert set(reqs) == {"user:0", "user:1"}
    r0 = reqs["user:0"]
    assert r0.scenario == "user-centric"
    assert r0.centers == (0,)
    assert r0.terminals(1) == [0, 20]
    assert r0.terminals(2) == [0, 20, 21]
    assert r0.k_max() == 2
    assert r0.paths_at(1) == [(0, 10, 30, 20)]
    assert len(r0.paths_at(2)) == 2


def test_item_centric_structure(paths_df):
    reqs = {r.sid: r for r in item_centric_requests(paths_df, items=[20, 21])}
    r20 = reqs["item:20"]
    assert r20.centers == (20,)
    # both users got item 20 at rank 1
    assert set(r20.terminals(1)) == {20, 0, 1}
    assert len(r20.paths_at(1)) == 2
    r21 = reqs["item:21"]
    assert r21.terminals(1) == [21]  # user 0 only enters at k=2
    assert set(r21.terminals(2)) == {21, 0}


def test_item_centric_missing_item_gives_bare_center(paths_df):
    (req,) = item_centric_requests(paths_df, items=[99])
    assert req.terminals(5) == [99]
    assert req.paths_at(5) == []


def test_user_group_structure(paths_df):
    (req,) = user_group_requests(paths_df, {"g": [0, 1]})
    assert req.scenario == "user-group"
    assert req.centers == (0, 1)
    # R_D at k=1 is {20} (both users' top-1 coincide)
    assert set(req.terminals(1)) == {0, 1, 20}
    assert set(req.terminals(2)) == {0, 1, 20, 21, 22}
    assert len(req.paths_at(2)) == 4


def test_user_group_dedups_shared_targets_at_min_rank(paths_df):
    (req,) = user_group_requests(paths_df, {"g": [0, 1]})
    ranks = dict((n, k) for k, n in req.targets)
    assert ranks[20] == 1  # not 1-then-1-again, and not 2


def test_item_group_structure(paths_df):
    (req,) = item_group_requests(paths_df, {"f": [20, 22]})
    assert req.scenario == "item-group"
    assert req.centers == (20, 22)
    assert set(req.terminals(1)) == {20, 22, 0, 1}
    assert len(req.paths_at(2)) == 3  # paths to items 20 (×2) and 22


def test_terminals_are_ordered_centers_first(paths_df):
    (req,) = user_group_requests(paths_df, {"g": [1, 0]})
    assert req.terminals(2)[:2] == [0, 1]


def test_empty_paths_df(spark):
    empty = spark.createDataFrame(
        [], "user: long, item: long, rank: int, path: array<long>, in_kg: boolean, score: double"
    )
    assert user_centric_requests(empty) == []


def test_repeated_item_gives_one_request(paths_df):
    reqs = item_centric_requests(paths_df, items=[20, 21, 20])
    assert [r.sid for r in reqs] == ["item:20", "item:21"]


@pytest.mark.parametrize("source", ["paths_df", "lite_paths"])
def test_centric_request_is_singleton_group(request, source):
    """``{u} ∪ R_u`` is ``D ∪ R_D`` at ``D = {u}``, and likewise for items."""
    df = request.getfixturevalue(source)
    users = sorted({r["user"] for r in df.select("user").collect()})
    items = sorted({r["item"] for r in df.select("item").collect()})

    def body(reqs):
        return [(r.centers, r.targets, r.paths) for r in reqs]

    assert body(user_centric_requests(df)) == body(
        user_group_requests(df, {u: [u] for u in users})
    )
    assert body(item_centric_requests(df, items)) == body(
        item_group_requests(df, {i: [i] for i in items})
    )
