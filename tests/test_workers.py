"""Spark's Python workers import ``repro`` whatever the caller's PYTHONPATH.

The summarizers run their kernel in Python workers, which import it by
module name. A caller that puts ``src/`` on its own ``sys.path`` only, as
``perfbench/run.py`` does, must still get working workers.
"""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
from repro.core.scenarios import SummaryRequest
from repro.core.steiner import steiner_summaries
from repro.graph.model import KG
from repro.runtime import job_session

spark = job_session("workers")
kg = KG(
    nodes=spark.createDataFrame([(n, "item") for n in range(4)], "id: long, ntype: string"),
    edges=spark.createDataFrame(
        [(n, n + 1, 1.0, "ui") for n in range(3)],
        "src: long, dst: long, weight: double, etype: string",
    ),
)
reqs = [
    SummaryRequest(sid=s, scenario="user-centric", centers=(a,), targets=((1, b),), paths=())
    for s, a, b in (("a", 0, 2), ("b", 1, 3))
]
print([s.edges for s in steiner_summaries(spark, kg, reqs, lam=0.0)])
spark.stop()
"""


def test_steiner_runs_without_pythonpath(tmp_path):
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYSPARK_SUBMIT_ARGS")}
    env.update(SPARK_MASTER="local[2]", SPARK_DRIVER_MEM="1g")
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert out.returncode == 0, out.stderr[-4000:]
    assert out.stdout.strip().splitlines()[-1] == "[((0, 1), (1, 2)), ((1, 2), (2, 3))]"
