"""Batched multi-landmark shortest paths vs networkx Dijkstra."""
import networkx as nx
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core import pcst_summaries, steiner_summaries
from repro.core.scenarios import SummaryRequest
from repro.core.weights import base_cost_edges, boost_table, w_cap_for
from repro.graph.model import ETYPE_IE, ETYPE_UI
from repro.graph.sssp import (
    boosted,
    collect_edges,
    edge_arrays,
    edges_by_sid,
    multi_landmark_paths,
    voronoi_partition,
)
from tests.conftest import hop_limited_bellman_ford, make_kg, nx_of, random_kg


def _cost_edges(kg):
    # Unit-offset cost so Dijkstra has strictly positive weights.
    return kg.undirected().select("src", "dst", (F.lit(1.0) + F.col("weight") / 10.0).alias("cost"))


def _nx_cost(g):
    h = nx.Graph()
    for a, b, d in g.edges(data=True):
        h.add_edge(a, b, weight=1.0 + d["weight"] / 10.0)
    return h


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_distances_match_networkx(spark, seed):
    kg = random_kg(spark, n=12, m=22, seed=seed)
    h = _nx_cost(nx_of(kg))
    landmarks = sorted(h.nodes)[:3]
    sources = spark.createDataFrame([(0, l) for l in landmarks], "sid: int, landmark: long")
    res = multi_landmark_paths(_cost_edges(kg), sources, max_hops=12)
    got = {(r["landmark"], r["node"]): r["dist"] for r in res.collect()}
    for l in landmarks:
        expect = nx.single_source_dijkstra_path_length(h, l)
        for node, d in expect.items():
            assert got[(l, node)] == pytest.approx(d, abs=1e-9), (l, node)
        # no spurious reachability
        assert {n for (ll, n) in got if ll == l} == set(expect)


@pytest.mark.parametrize("seed", [5, 6])
def test_paths_are_valid_walks_with_matching_cost(spark, seed):
    kg = random_kg(spark, n=10, m=18, seed=seed)
    cost = {
        (min(r["src"], r["dst"]), max(r["src"], r["dst"])): 1.0 + r["weight"] / 10.0
        for r in kg.edges.collect()
    }
    sources = spark.createDataFrame([(0, 0)], "sid: int, landmark: long")
    res = multi_landmark_paths(_cost_edges(kg), sources, max_hops=12)
    for r in res.collect():
        p = list(r["path"])
        assert p[0] == 0 and p[-1] == r["node"]
        total = 0.0
        for a, b in zip(p, p[1:]):
            key = (min(a, b), max(a, b))
            assert key in cost, f"edge {key} not in graph"
            total += cost[key]
        assert total == pytest.approx(r["dist"], abs=1e-9)


def test_hop_limit_restricts_reach(spark):
    # Path graph 0-1-2-3-4: with max_hops=2 node 4 is unreachable from 0.
    from tests.conftest import make_kg

    kg = make_kg(spark, [(i, i + 1, 1.0, "ui") for i in range(4)])
    edges = kg.undirected().select("src", "dst", F.lit(1.0).alias("cost"))
    sources = spark.createDataFrame([(0, 0)], "sid: int, landmark: long")
    res = multi_landmark_paths(edges, sources, max_hops=2)
    reached = {r["node"] for r in res.collect()}
    assert reached == {0, 1, 2}


@pytest.mark.parametrize("seed, max_hops", [(0, 2), (0, 3), (1, 2), (1, 3)])
def test_hop_limited_distances_with_boosts(spark, seed, max_hops):
    # Weighted costs, every fourth edge boosted for sid "x" only: the hop
    # limit binds, so a cheaper path with too many edges must not win.
    kg = random_kg(spark, n=14, m=30, seed=seed)
    rows = kg.edges.orderBy("src", "dst").collect()
    base = {}
    for r in rows:
        base[(r["src"], r["dst"])] = base[(r["dst"], r["src"])] = 0.2 + r["weight"]
    boosted = [(r["src"], r["dst"]) for r in rows[::4]]
    boosted += [(b, a) for a, b in boosted]
    cost = {"x": {**base, **{e: 0.05 for e in boosted}}, "y": base}
    edges = kg.undirected().select("src", "dst", (F.lit(0.2) + F.col("weight")).alias("cost"))
    landmarks = (0, 5, 9)
    sources = spark.createDataFrame(
        [(sid, l) for sid in cost for l in landmarks], "sid: string, landmark: long"
    )
    boosts = spark.createDataFrame(
        [("x", a, b, 0.05) for a, b in boosted], "sid: string, src: long, dst: long, cost: double"
    )
    res = multi_landmark_paths(edges, sources, max_hops=max_hops, boosts=boosts)
    got = {(r["sid"], r["landmark"], r["node"]): r["dist"] for r in res.collect()}
    expect, binds = {}, False
    for sid, c in cost.items():
        for l in landmarks:
            ref = hop_limited_bellman_ford(c, l, max_hops)
            full = hop_limited_bellman_ford(c, l, len(base))
            binds |= any(d > full[n] + 1e-9 for n, d in ref.items())
            expect.update({(sid, l, n): d for n, d in ref.items()})
    assert binds
    assert set(got) == set(expect)
    for k, d in expect.items():
        assert got[k] == pytest.approx(d, abs=1e-9), k


def test_multiple_sids_are_independent(spark):
    from tests.conftest import make_kg

    kg = make_kg(spark, [(0, 1, 1.0, "ui"), (1, 2, 1.0, "ui")])
    edges = kg.undirected().select("src", "dst", F.lit(1.0).alias("cost"))
    sources = spark.createDataFrame(
        [("a", 0), ("b", 2)], "sid: string, landmark: long"
    )
    res = multi_landmark_paths(edges, sources, max_hops=4)
    rows = {(r["sid"], r["node"]): r["dist"] for r in res.collect()}
    assert rows[("a", 2)] == 2.0 and rows[("b", 0)] == 2.0
    assert ("a", 0) in rows and ("b", 2) in rows


def test_boost_reroutes_shortest_path(spark):
    # Triangle: 0-1 (cost 2.5 direct) vs 0-2-1 (cost 1+1); boosting 0-1 to
    # 0.5 for sid "x" flips the choice for that sid only. A second, costlier
    # boost row for the same edge must not win over the cheaper one.
    from tests.conftest import make_kg

    kg = make_kg(spark, [(0, 1, 1.0, "ui"), (0, 2, 1.0, "ui"), (2, 1, 1.0, "ui")])
    edges = kg.undirected().select(
        "src",
        "dst",
        F.when((F.col("src") + F.col("dst")) == 1, 2.5).otherwise(1.0).alias("cost"),
    )
    sources = spark.createDataFrame([("x", 0), ("y", 0)], "sid: string, landmark: long")
    boosts = spark.createDataFrame(
        [("x", 0, 1, 0.5), ("x", 0, 1, 0.9), ("x", 1, 0, 0.5)],
        "sid: string, src: long, dst: long, cost: double",
    )
    res = multi_landmark_paths(edges, sources, max_hops=4, boosts=boosts)
    rows = {(r["sid"], r["node"]): (r["dist"], list(r["path"])) for r in res.collect()}
    assert rows[("x", 1)] == (0.5, [0, 1])
    assert rows[("y", 1)] == (2.0, [0, 2, 1])


def test_deterministic_tie_break(spark):
    # Two equal-cost paths 0-1-3 and 0-2-3: min struct picks the lexically
    # smaller path, stable across runs.
    from tests.conftest import make_kg

    kg = make_kg(spark, [(0, 1, 1.0, "ui"), (0, 2, 1.0, "ui"), (1, 3, 1.0, "ui"), (2, 3, 1.0, "ui")])
    edges = kg.undirected().select("src", "dst", F.lit(1.0).alias("cost"))
    sources = spark.createDataFrame([(0, 0)], "sid: int, landmark: long")
    for _ in range(2):
        res = multi_landmark_paths(edges, sources, max_hops=4)
        row = [r for r in res.collect() if r["node"] == 3][0]
        assert list(row["path"]) == [0, 1, 3]


def _rows(df):
    return sorted(tuple(tuple(v) if isinstance(v, list) else v for v in r) for r in df.collect())


def _boosted_inputs(spark, kg):
    edges = _cost_edges(kg)
    sources = spark.createDataFrame(
        [(sid, l) for sid in ("a", "b") for l in (0, 4, 7)], "sid: string, landmark: long"
    )
    pairs = [(r["src"], r["dst"]) for r in kg.edges.orderBy("src", "dst").limit(6).collect()]
    boosts = spark.createDataFrame(
        [("a", s, d, 0.3) for s, d in pairs] + [("a", d, s, 0.3) for s, d in pairs],
        "sid: string, src: long, dst: long, cost: double",
    )
    return edges, sources, boosts


@pytest.mark.parametrize("which", ["multi_landmark_paths", "voronoi_partition"])
def test_rows_do_not_depend_on_shuffle_partitions(spark, which):
    kg = random_kg(spark, n=12, m=22, seed=7)
    edges, sources, boosts = _boosted_inputs(spark, kg)
    if which == "multi_landmark_paths":
        run = lambda: multi_landmark_paths(edges, sources, max_hops=6, boosts=boosts)
    else:
        run = lambda: voronoi_partition(edges, sources, max_hops=6)
    settings = ("spark.sql.shuffle.partitions", "spark.sql.adaptive.enabled")
    before = {k: spark.conf.get(k) for k in settings}
    got = {}
    try:
        for aqe in ("true", "false"):
            for n in ("1", "64"):
                spark.conf.set("spark.sql.adaptive.enabled", aqe)
                spark.conf.set("spark.sql.shuffle.partitions", n)
                got[aqe, n] = _rows(run())
    finally:
        for k, v in before.items():
            spark.conf.set(k, v)
    first = got["true", "1"]
    assert len(first) > 0
    assert all(rows == first for rows in got.values())


@pytest.mark.parametrize("seed", [8, 9])
def test_voronoi_cell_is_nearest_landmark(spark, seed):
    # Keyed by (sid, node), the kernel must keep exactly the minimum
    # (dist, landmark) of the (sid, landmark, node)-keyed run.
    kg = random_kg(spark, n=14, m=24, seed=seed)
    edges = _cost_edges(kg)
    sources = spark.createDataFrame(
        [(0, 1), (0, 6), (0, 11), (1, 3), (1, 9)], "sid: int, landmark: long"
    )
    nearest = {}
    for r in multi_landmark_paths(edges, sources, max_hops=12).collect():
        k = (r["sid"], r["node"])
        nearest[k] = min(nearest.get(k, (float("inf"), -1)), (r["dist"], r["landmark"]))
    cells = voronoi_partition(edges, sources, max_hops=12).collect()
    assert {(r["sid"], r["node"]): (r["dist"], r["root"]) for r in cells} == nearest


def _jobs(spark, group, fn) -> int:
    """Spark jobs ``fn()`` runs, counted under its own job group."""
    sc = spark.sparkContext
    props = ("spark.jobGroup.id", "spark.job.description", "spark.job.interruptOnCancel")
    before = {k: sc.getLocalProperty(k) for k in props}
    try:
        sc.setJobGroup(group, group)
        fn()
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        return len(sc.statusTracker().getJobIdsForGroup(group))
    finally:
        for k, v in before.items():
            sc.setLocalProperty(k, v)


@pytest.mark.parametrize("which", ["multi_landmark_paths", "voronoi_partition"])
def test_round_jobs(spark, which):
    # The rounds run in numpy, not in Spark, so jobs per call do not grow
    # with max_hops.
    kg = random_kg(spark, n=30, m=60, seed=0)
    edges, sources, boosts = _boosted_inputs(spark, kg)
    if which == "multi_landmark_paths":
        run = lambda h: multi_landmark_paths(edges, sources, max_hops=h, boosts=boosts)
    else:
        run = lambda h: voronoi_partition(edges, sources, max_hops=h)
    jobs = [_jobs(spark, f"test-round-jobs-{which}-{h}", lambda: run(h)) for h in range(1, 5)]
    assert len(set(jobs)) == 1, jobs


@pytest.mark.parametrize("method, most", [("st", 6), ("pcst", 3)])
def test_summarize_jobs(spark, ml1m_lite, lite_requests, method, most):
    # One fan-out job per call, plus the collects of its inputs.
    _, kg = ml1m_lite
    if method == "st":
        run = lambda: steiner_summaries(spark, kg, lite_requests, lam=1.0, ks=[1, 5])
    else:
        run = lambda: pcst_summaries(spark, kg, lite_requests, ks=[1, 5])
    jobs = _jobs(spark, f"test-summarize-jobs-{method}", run)
    assert 0 < jobs <= most, jobs


@pytest.mark.parametrize("which", ["multi_landmark_paths", "voronoi_partition"])
def test_no_seeds_give_no_rows(spark, which):
    kg = random_kg(spark, n=6, m=8, seed=0)
    edges = _cost_edges(kg)
    sources = spark.createDataFrame([], "sid: string, landmark: long")
    if which == "multi_landmark_paths":
        res = multi_landmark_paths(edges, sources, max_hops=3)
    else:
        res = voronoi_partition(edges, sources, max_hops=3)
    assert res.collect() == []
    assert res.columns[-2:] == ["dist", "path"]


def test_negative_node_id_is_rejected(spark):
    edges = spark.createDataFrame([(-1, 2, 1.0), (2, -1, 1.0)], "src: long, dst: long, cost: double")
    sources = spark.createDataFrame([(0, 2)], "sid: int, landmark: long")
    with pytest.raises(ValueError, match="node ids"):
        multi_landmark_paths(edges, sources, max_hops=2)


def _rows_of(edges):
    return sorted(zip(edges.src.tolist(), edges.dst.tolist(), edges.cost.tolist()))


def test_boosted_lowers_every_kg_copy_of_an_edge(spark):
    # The KG holds 0-1 twice, as two etypes with weights 2 and 4, so Eq. 1
    # gives one boost row per copy and direction: costs 1.25 and 1.0 at
    # w_cap = 4 · (1 + λ) = 8. Both copies take the cheaper one.
    kg = make_kg(spark, [(0, 1, 2.0, ETYPE_UI), (0, 1, 4.0, ETYPE_IE), (1, 2, 3.0, ETYPE_UI)])
    req = SummaryRequest(
        sid="s", scenario="user-centric", centers=(0,), targets=((1, 2),), paths=((1, (0, 1, 2)),)
    )
    w_cap = w_cap_for(kg, 1.0)
    edges = collect_edges(base_cost_edges(kg, w_cap))
    boosts = edges_by_sid(boost_table(spark, kg, [req], lam=1.0, w_cap=w_cap, k=1))["s"]
    assert sorted(boosts.cost.tolist()) == [1.0, 1.0, 1.125, 1.125, 1.25, 1.25]
    assert _rows_of(boosted(edges, boosts)) == [
        (0, 1, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 0, 1.0), (1, 2, 1.125), (2, 1, 1.125)
    ]


def test_boosted_never_raises_a_cost_nor_adds_an_edge():
    edges = edge_arrays([0, 1, 1, 2], [1, 0, 2, 1], [1.0, 1.0, 1.5, 1.5])
    # 0→1 costs more than its shared row; 0→2 and 5→6 are not in the table.
    boosts = edge_arrays([0, 1, 0, 5], [1, 2, 2, 6], [1.25, 1.25, 0.5, 0.5])
    assert _rows_of(boosted(edges, boosts)) == [
        (0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.25), (2, 1, 1.5)
    ]
    assert boosted(edges, None) is edges


def test_boosted_leaves_the_shared_table_and_other_summaries_alone():
    edges = edge_arrays([0, 1, 1, 2], [1, 0, 2, 1], [1.0, 1.0, 1.5, 1.5])
    a = boosted(edges, edge_arrays([0, 1], [1, 0], [0.5, 0.5]))
    b = boosted(edges, edge_arrays([1, 2], [2, 1], [0.75, 0.75]))
    np.testing.assert_array_equal(edges.cost, [1.0, 1.0, 1.5, 1.5])
    np.testing.assert_array_equal(a.cost, [0.5, 0.5, 1.5, 1.5])
    np.testing.assert_array_equal(b.cost, [1.0, 1.0, 0.75, 0.75])
