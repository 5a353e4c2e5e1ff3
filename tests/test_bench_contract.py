"""The benchmark harness's view of the program still holds.

``perfbench/`` wraps public functions by module and name for its traced run,
and its output checks build ``Summary`` objects positionally. A refactor that
moves a traced name or changes ``Summary``'s fields breaks the benchmark
without failing any other test, so both are checked here. ``perfbench/`` is
only imported, never changed.
"""
import importlib
import sys
from pathlib import Path

import pytest
from pyspark.sql import functions as F

from repro.core.scenarios import SummaryRequest
from repro.core.summary import Summary
from repro.core.weights import w_cap_for
from repro.graph.model import ETYPE_UI
from tests.conftest import make_kg

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, PERFBENCH)
    try:
        yield {m: importlib.import_module(m) for m in ("checks", "run", "workloads")}
    finally:
        sys.path.remove(PERFBENCH)


def test_trace_targets_resolve(perfbench):
    targets = perfbench["run"].trace_targets(perfbench["workloads"])
    assert targets
    for module, name, layer, _ in targets:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name} ({layer})"


def test_output_checks_self_test(perfbench):
    assert perfbench["checks"].self_test() == []


def test_row_counters_count(perfbench, spark):
    # Each traced function with a row counter, called on a 4-node KG and
    # counted as the traced run counts it: a refactor that changes what one
    # returns (say, numpy arrays for a DataFrame) fails only under --trace.
    kg = make_kg(spark, [(a, a + 1, 1.0, ETYPE_UI) for a in range(3)])
    edges = kg.undirected().select("src", "dst", F.lit(1.0).alias("cost"))
    seeds = spark.createDataFrame([("s", 0), ("s", 3)], "sid: string, landmark: long")
    req = SummaryRequest("s", "user-centric", (0,), ((1, 3),), ((1, (0, 1, 2, 3)),))
    summary = Summary(
        "s", "user-centric", "st", 1, ((0, 1), (1, 2)), frozenset({0, 1, 2}), ((0, 1, 2),), (0, 2)
    )
    calls = {
        "multi_landmark_paths": ((edges, seeds), {"max_hops": 2}),
        "voronoi_partition": ((edges, seeds), {"max_hops": 2}),
        "boost_table": ((spark, kg, [req]), {"lam": 1.0, "w_cap": w_cap_for(kg, 1.0), "k": 1}),
        "compute_quality": ((spark, kg, [summary]), {}),
    }
    counted = set()
    for module, name, layer, count in perfbench["run"].trace_targets(perfbench["workloads"]):
        if count is None:
            continue
        args, kwargs = calls[name]
        counts = count(getattr(module, name)(*args, **kwargs), args, kwargs)
        assert counts and all(type(n) is int and n > 0 for n in counts.values()), (name, counts)
        counted.add(name)
    assert counted == set(calls)
