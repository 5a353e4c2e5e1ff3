"""The benchmark harness's view of the program still holds (no Spark needed).

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
