"""The relaxation kernel vs networkx Dijkstra and a hop-limited
Bellman–Ford, its fan-out, and the two DataFrame adapters."""
import networkx as nx
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core import pcst_summaries, steiner_summaries
from repro.core.scenarios import SummaryRequest
from repro.core.weights import base_cost_edges, boost_table, w_cap_for
from repro.graph import sssp
from repro.graph.model import ETYPE_IE, ETYPE_UI
from repro.graph.sssp import boosted, collect_edges, edge_arrays, edges_by_sid, fan_out, relax
from tests.conftest import (
    hop_limited_bellman_ford,
    make_kg,
    random_edges,
    random_kg,
    reached,
    undirected,
)


def _cost(w):
    # Unit-offset cost so Dijkstra has strictly positive weights.
    return 1.0 + w / 10.0


def _cost_edges(kg):
    return kg.undirected().select("src", "dst", (F.lit(1.0) + F.col("weight") / 10.0).alias("cost"))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_distances_match_networkx(seed):
    elist = random_edges(n=12, m=22, seed=seed)
    h = nx.Graph()
    h.add_weighted_edges_from((a, b, _cost(w)) for a, b, w, _ in elist)
    landmarks = sorted(h.nodes)[:3]
    table = relax(undirected(elist, _cost), landmarks, max_hops=12, per_landmark=True)
    got = {k: d for k, (d, _) in reached(table).items()}
    for l in landmarks:
        expect = nx.single_source_dijkstra_path_length(h, l)
        for node, d in expect.items():
            assert got[(l, node)] == pytest.approx(d, abs=1e-9), (l, node)
        # no spurious reachability
        assert {n for (ll, n) in got if ll == l} == set(expect)


@pytest.mark.parametrize("seed", [5, 6])
def test_paths_are_valid_walks_with_matching_cost(seed):
    elist = random_edges(n=10, m=18, seed=seed)
    cost = {(a, b): _cost(w) for a, b, w, _ in elist}
    table = relax(undirected(elist, _cost), [0], max_hops=12, per_landmark=True)
    for (_, node), (dist, p) in reached(table).items():
        assert p[0] == 0 and p[-1] == node
        total = 0.0
        for a, b in zip(p, p[1:]):
            key = (min(a, b), max(a, b))
            assert key in cost, f"edge {key} not in graph"
            total += cost[key]
        assert total == pytest.approx(dist, abs=1e-9)


def test_hop_limit_restricts_reach():
    # Path graph 0-1-2-3-4: with max_hops=2 node 4 is unreachable from 0.
    edges = undirected([(i, i + 1, 1.0, "ui") for i in range(4)])
    table = relax(edges, [0], max_hops=2, per_landmark=True)
    assert {n for _, n in reached(table)} == {0, 1, 2}


@pytest.mark.parametrize("seed, max_hops", [(0, 2), (0, 3), (1, 2), (1, 3)])
def test_hop_limited_distances_with_boosts(seed, max_hops):
    # Weighted costs, every fourth edge boosted for summary "x" only: the
    # hop limit binds, so a cheaper path with too many edges must not win.
    elist = random_edges(n=14, m=30, seed=seed)
    base = {}
    for a, b, w, _ in elist:
        base[(a, b)] = base[(b, a)] = 0.2 + w
    pairs = [(a, b) for a, b, *_ in elist[::4]]
    pairs += [(b, a) for a, b in pairs]
    cost = {"x": {**base, **{e: 0.05 for e in pairs}}, "y": base}
    edges = undirected(elist, lambda w: 0.2 + w)
    boosts = {"x": edge_arrays(*zip(*pairs), [0.05] * len(pairs))}
    landmarks = (0, 5, 9)
    got = {}
    for sid in cost:
        costs = boosted(edges, boosts.get(sid))
        table = relax(costs, landmarks, max_hops=max_hops, per_landmark=True)
        got.update({(sid, l, n): d for (l, n), (d, _) in reached(table).items()})
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


def test_multiple_sids_are_independent():
    # A summary's landmarks are rows of one table, and no row reads another.
    edges = undirected([(0, 1, 1.0, "ui"), (1, 2, 1.0, "ui")])
    table = relax(edges, [0, 2], max_hops=4, per_landmark=True)
    rows = {k: d for k, (d, _) in reached(table).items()}
    assert rows[(0, 2)] == 2.0 and rows[(2, 0)] == 2.0
    assert rows[(0, 0)] == 0.0 and rows[(2, 2)] == 0.0


def test_boost_reroutes_shortest_path():
    # Triangle: 0-1 (cost 2.5 direct) vs 0-2-1 (cost 1+1); boosting 0-1 to
    # 0.5 for summary "x" flips the choice for that summary only. A second,
    # costlier boost row for the same edge must not win over the cheaper one.
    edges = edge_arrays([0, 1, 0, 2, 2, 1], [1, 0, 2, 0, 1, 2], [2.5, 2.5, 1.0, 1.0, 1.0, 1.0])
    boosts = edge_arrays([0, 0, 1], [1, 1, 0], [0.5, 0.9, 0.5])
    x = reached(relax(boosted(edges, boosts), [0], max_hops=4, per_landmark=True))
    y = reached(relax(edges, [0], max_hops=4, per_landmark=True))
    assert x[(0, 1)] == (0.5, (0, 1))
    assert y[(0, 1)] == (2.0, (0, 2, 1))


def test_deterministic_tie_break():
    # Two equal-cost paths 0-1-3 and 0-2-3: the lexically smaller path wins,
    # stable across runs.
    diamond = [(0, 1, 1.0, "ui"), (0, 2, 1.0, "ui"), (1, 3, 1.0, "ui"), (2, 3, 1.0, "ui")]
    edges = undirected(diamond)
    for _ in range(2):
        table = relax(edges, [0], max_hops=4, per_landmark=True)
        assert reached(table)[(0, 3)][1] == (0, 1, 3)


def _rows(df):
    return sorted(tuple(tuple(v) if isinstance(v, list) else v for v in r) for r in df.collect())


def _inputs(spark, kg):
    sources = spark.createDataFrame(
        [(sid, l) for sid in ("a", "b") for l in (0, 4, 7)], "sid: string, landmark: long"
    )
    return _cost_edges(kg), sources


@pytest.mark.parametrize("which", ["multi_landmark_paths", "voronoi_partition"])
def test_rows_do_not_depend_on_shuffle_partitions(spark, which):
    kg = random_kg(spark, n=12, m=22, seed=7)
    edges, sources = _inputs(spark, kg)
    run = lambda: getattr(sssp, which)(edges, sources, max_hops=6)
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


@pytest.mark.parametrize("which", ["multi_landmark_paths", "voronoi_partition"])
def test_adapter_rows_are_the_reached_entries_of_relax(spark, which):
    # The adapters' whole behaviour: per summary, one relax run over its
    # (deduplicated) seeds, every reached entry one row.
    per_landmark = which == "multi_landmark_paths"
    root = "landmark" if per_landmark else "root"
    columns = ["sid", root, "node"] if per_landmark else ["sid", "node", root]
    elist = random_edges(n=12, m=22, seed=7)
    edges = _cost_edges(random_kg(spark, n=12, m=22, seed=7))
    seeds = {"a": [0, 4, 7], "b": [2, 9, 9]}
    sources = spark.createDataFrame(
        [(sid, l) for sid, ls in seeds.items() for l in ls], "sid: string, landmark: long"
    )
    df = getattr(sssp, which)(edges, sources, max_hops=6)
    types = {"sid": "string", "dist": "double", "path": "array<bigint>"}
    assert df.dtypes == [(c, types.get(c, "bigint")) for c in columns + ["dist", "path"]]
    expect = set()
    for sid, ls in seeds.items():
        table = relax(undirected(elist, _cost), ls, max_hops=6, per_landmark=per_landmark)
        expect |= {(sid, r, n, d, p) for (r, n), (d, p) in reached(table).items()}
    got = [(r["sid"], r[root], r["node"], r["dist"], tuple(r["path"])) for r in df.collect()]
    assert len(got) == len(expect) and set(got) == expect


@pytest.mark.parametrize("seed", [8, 9])
def test_voronoi_cell_is_nearest_landmark(seed):
    # Keyed by node, the kernel must keep exactly the minimum
    # (dist, landmark) of the (landmark, node)-keyed run.
    edges = undirected(random_edges(n=14, m=24, seed=seed), _cost)
    for landmarks in ([1, 6, 11], [3, 9]):
        nearest = {}
        paths = reached(relax(edges, landmarks, max_hops=12, per_landmark=True))
        for (l, n), (d, _) in paths.items():
            nearest[n] = min(nearest.get(n, (float("inf"), -1)), (d, l))
        cells = reached(relax(edges, landmarks, max_hops=12, per_landmark=False))
        assert {n: (d, r) for (r, n), (d, _) in cells.items()} == nearest


def test_fan_out_deals_items_round_robin(spark):
    # Item i runs in partition i mod P, so the first P items, which ST and
    # PCST make their largest, run in P different tasks.
    from pyspark import TaskContext

    def where(edges, items):
        for item in items:
            yield item, TaskContext.get().partitionId()

    sc = spark.sparkContext
    p = sc.defaultParallelism
    items = list(range(2 * p + 1))
    got = fan_out(sc, edge_arrays([0], [1], [1.0]), items, where)
    assert sorted(i for i, _ in got) == items
    part = dict(got)
    assert len({part[i] for i in range(p)}) == p


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


@pytest.mark.parametrize("which", ["steiner_summaries", "pcst_summaries"])
def test_round_jobs(spark, ml1m_lite, lite_requests, which):
    # The rounds run in numpy inside the fan-out job, not in Spark, so a
    # summarize call's jobs do not grow with max_hops.
    _, kg = ml1m_lite
    if which == "steiner_summaries":
        run = lambda h: steiner_summaries(spark, kg, lite_requests, lam=1.0, ks=[1], max_hops=h)
    else:
        run = lambda h: pcst_summaries(spark, kg, lite_requests, ks=[1], max_hops=h)
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
    sources = spark.createDataFrame([], "sid: string, landmark: long")
    res = getattr(sssp, which)(_cost_edges(kg), sources, max_hops=3)
    assert res.collect() == []
    assert res.columns[-2:] == ["dist", "path"]


def test_negative_node_id_is_rejected():
    with pytest.raises(ValueError, match="node ids"):
        edge_arrays([-1, 2], [2, -1], [1.0, 1.0])
    with pytest.raises(ValueError, match="node ids"):
        relax(edge_arrays([1, 2], [2, 1], [1.0, 1.0]), [-1], max_hops=2, per_landmark=True)


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
