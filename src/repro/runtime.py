"""Spark driver environment and SparkSession bootstrap.

Jobs and the tests' session fixture in conftest.py both get their session
from :func:`job_session`, so they share one set of settings (local master,
Arrow on) and job results match test expectations.

The relaxation kernel runs in Python workers (:func:`repro.graph.sssp.fan_out`),
which import ``repro`` by name, so :func:`configure_driver_env` puts the
package root on ``PYTHONPATH`` before the JVM, whose environment the workers
inherit, starts.

Broadcast autotuning stays off (``autoBroadcastJoinThreshold=-1``): Spark
picks no broadcast on its own. The kernel broadcasts its edge table itself,
once per call, as numpy arrays (``SparkContext.broadcast``), and the one
join left on the summarize path, the Eq. 1 path-edge frequencies against the
edge table, carries an explicit ``F.broadcast`` hint on the frequencies.
When the kernel was a Catalyst round loop, letting Spark choose was slower
without the hints: a warm ST call on the benchmark's synth-user inputs (seed
31, 4 cores) took 5.07 s with the default 10 MB threshold against 4.39 s
with ``-1`` (medians of 6).
"""
import os
from pathlib import Path

# Shuffle partitions of every session. Summaries do not depend on the count
# (tests/test_steiner.py checks 1, 4 and 64).
SHUFFLE_PARTITIONS = 64


def _driver_mem() -> str:
    """~75% of the container's memory limit, for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > cgroup v2/v1
    limit > 48g fallback. The source is recorded in ``_SPARK_DRIVER_MEM_SRC``.

    The cgroup read is best-effort: an emulated sysfs (e.g. gVisor) may not
    pass the host limit through. An unbounded value (cgroup-v1's ~9.2e18
    "unlimited" sentinel, or a missing limit) is treated as absent so the
    JVM is never handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            raw = open(p).read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "fallback"
    return "48g"


def configure_driver_env() -> None:
    """Put master and driver memory into ``PYSPARK_SUBMIT_ARGS`` and the
    package root on ``PYTHONPATH``.

    spark.driver.memory is read at JVM launch, not from SparkConf, and the
    Python workers inherit the JVM's environment, so this must run before the
    first SparkContext exists. Values already in the environment win.
    """
    root = str(Path(__file__).resolve().parent.parent)
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if root not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([root, *paths])
    os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "pyspark-shell",
    )


def job_session(app: str):
    configure_driver_env()
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.driver.host", "127.0.0.1")
        .getOrCreate()
    )
