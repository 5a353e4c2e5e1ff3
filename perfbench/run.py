"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload synth-user --seed 1 --seconds 15 --trace 0

Run it from anywhere inside a checkout: it imports the program from the
checkout's ``src/`` and exits with code 2, printing no result, when that is
missing. One run

1. starts one Spark session with ``repro.runtime.job_session`` (local[nproc],
   the program's own shuffle-partition and broadcast settings), with every
   scratch file under ``.perfbench_work/`` in the checkout;
2. generates the explanation paths from ``--seed`` once, then sets the
   workload up ``SETUP_REPS`` times and keeps the last inputs; this untimed
   and timed set-up work also warms the JVM;
3. runs ``round(--seconds / pass estimate)`` timed passes, at least one, so
   that every commit runs the same number, sampling the driver's resident
   set size while they run;
4. reads the KG's edges and checks every output.

With ``--trace 0`` it prints the end-to-end metrics named in BENCHMARK.json.
With ``--trace 1`` every untraced pass is followed by a traced one, and it
prints the per-layer metrics; the spans are written to ``.perfbench_work/``.
The line before the result is a report with the run's settings, every pass
time, every failed check and the end-to-end metrics.
"""
import argparse
import json
import os
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
# setup_s is the median of SETUP_REPS set-ups. The run's one Spark session
# start is left out of it (it is session.start_s): a single cold sample would
# set most of its spread.
SETUP_REPS = 5


def driver_memory() -> str:
    """Half of MemTotal, clamped to 2-8 GiB, as the tier-1 test command sizes it."""
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(max(kib // 2097152, 2), 8)}g"


def configure_spark_env(nproc: int) -> None:
    """Environment for ``job_session``; must run before pyspark is imported."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    mem = driver_memory()
    os.environ.pop("SPARK_SHUFFLE_PARTITIONS", None)  # keep the program's default
    os.environ.update(
        TMPDIR=str(tmp),
        SPARK_LOCAL_DIRS=str(tmp),
        SPARK_MASTER=f"local[{nproc}]",
        SPARK_DRIVER_MEM=mem,
        # For every JVM, the launcher's too: no hsperfdata file in /tmp.
        JAVA_TOOL_OPTIONS=f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData",
        PYSPARK_SUBMIT_ARGS=(
            f"--master local[{nproc}] --driver-memory {mem} "
            f"--conf spark.local.dir={tmp} "
            f"--conf spark.sql.warehouse.dir={WORK / 'warehouse'} "
            "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
            "pyspark-shell"
        ),
    )


def stop_spark(spark) -> None:
    """Stop the session, end the JVM and wait for it and its Python workers."""
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    workers = []
    if proc is not None:
        for task in Path(f"/proc/{proc.pid}/task").glob("*/children"):
            workers += [int(p) for p in task.read_text().split()]
    spark.stop()
    gateway.shutdown()
    if proc is None:
        return
    proc.stdin.close()  # the gateway JVM exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + 30
    while workers and time.monotonic() < deadline:
        workers = [p for p in workers if Path(f"/proc/{p}").exists()]
        time.sleep(0.05)


class Checker:
    """Counts attempted and failed outputs; keeps the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 50:
                self.messages.append(f"{what}: {'; '.join(problems)}")


class PeakRSS:
    """Highest resident set size of this process while a ``with`` block runs.

    Sampled from ``/proc/self/statm``, so what the process held before the
    block (input generation, the harness's own structures) sets no peak, as
    it would with ``ru_maxrss``. The block may be entered several times.
    """

    def __init__(self, interval_s: float = 0.005):
        self.interval_s = interval_s
        self.peak_bytes = 0
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._stop = threading.Event()
        self._thread = None

    def _rss(self) -> int:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * self._page

    def _sample(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.peak_bytes = max(self.peak_bytes, self._rss())

    def __enter__(self):
        self.peak_bytes = max(self.peak_bytes, self._rss())
        self._stop.clear()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak_bytes = max(self.peak_bytes, self._rss())


def check_pass(chk, res, inp, src, kg_index, w, reference=None):
    """Validate one pass's outputs; ``reference`` is the run's first pass."""
    import checks

    for name in res.calls:
        chk.add(f"call {name}", [res.errors[name]] if name in res.errors else [])
    for s in res.st:
        chk.add(f"st {s.sid} k={s.k}", checks.st_problems(s, kg_index))
    for s in res.pcst:
        chk.add(f"pcst {s.sid} k={s.k}", checks.pcst_problems(s, kg_index))
    want = len(inp.requests) * len(inp.ks)
    chk.add("summary count", [] if len(res.st) == len(res.pcst) == want else ["wrong count"])
    if w.sweep:
        q = res.quality
        bad = q is None or len(q) != res.n_scored or q["n_nodes"].isna().any()
        chk.add("quality rows", ["rows missing or unscored"] if bad else [])
        gs = res.graph_stats
        chk.add("graph_stats", ["no result"] if gs is None else checks.graph_stats_problems(gs, src.dataset))
    if reference is not None:
        same = [s.edges for s in res.st + res.pcst] == [
            s.edges for s in reference.st + reference.pcst
        ]
        chk.add("same summaries as the first pass", [] if same else ["outputs differ"])


def coverage(summaries) -> float:
    import checks

    got = [checks.covered(s) for s in summaries]
    total = sum(n for _, n in got)
    return sum(c for c, _ in got) / total if total else 0.0


def trace_targets(workloads_module):
    """What the traced run wraps: (module, name, layer, row counter)."""
    import repro.core.pcst
    import repro.core.steiner
    from repro.metrics.quality import summary_frames

    def state_rows(out, *_):
        return {"state_rows": out.count()}

    def boost_rows(out, *_):
        return {"boost_rows": out.count()} if out is not None else {}

    def input_rows(out, args, kwargs):
        frames = summary_frames(args[2] if len(args) > 2 else kwargs["summaries"])
        return {"input_rows": sum(len(f) for f in frames.values())}

    st, pc, wl = repro.core.steiner, repro.core.pcst, workloads_module
    return [
        (st, "multi_landmark_paths", "sssp", state_rows),
        (pc, "voronoi_partition", "voronoi", state_rows),
        (st, "w_cap_for", "weights", None),
        (st, "base_cost_edges", "weights", None),
        (st, "boost_table", "weights", boost_rows),
        (wl, "steiner_summaries", "steiner", None),
        (wl, "pcst_summaries", "pcst", None),
        (wl, "compute_quality", "quality", input_rows),
        (wl, "graph_stats", "stats", None),
    ]


LAYERS = ("sssp", "voronoi", "weights", "steiner", "pcst", "quality", "stats")
ROW_COUNTS = {
    "sssp": ("state_rows",),
    "voronoi": ("state_rows",),
    "weights": ("boost_rows",),
    "quality": ("input_rows",),
}


def layer_metrics(tracer, pass_span) -> dict:
    """Per-layer numbers of one traced pass (see BENCHMARK.json)."""
    from spans import COLLECT, UNTRACKED

    spans = [s for s in tracer.spans if s.pass_id == pass_span.pass_id]
    out = {}
    for layer in LAYERS:
        mine = [s for s in spans if s.name == layer]
        collects = [c for s in mine for c in tracer.children(s) if c.name == COLLECT]
        last_collect = {
            s.id: max((c.end for c in tracer.children(s) if c.name == COLLECT), default=s.start)
            for s in mine
        }
        out[f"{layer}.s"] = sum(tracer.self_seconds(s, keep=(COLLECT,)) for s in mine)
        out[f"{layer}.jobs"] = sum(s.jobs for s in mine + collects)
        out[f"{layer}.tasks"] = sum(s.tasks for s in mine + collects)
        out[f"{layer}.collect_s"] = sum(c.seconds for c in collects)
        out[f"{layer}.collected_rows"] = sum(c.rows for c in collects)
        out[f"{layer}.driver_s"] = sum(s.end - last_collect[s.id] for s in mine)
        for key in ROW_COUNTS.get(layer, ()):
            out[f"{layer}.{key}"] = sum(s.counts.get(key, 0) for s in mine)
    by_id = {s.id: s for s in spans}

    def in_steiner(s) -> bool:
        while s.parent in by_id:
            s = by_id[s.parent]
            if s.name == "steiner":
                return True
        return False

    # The tracer's own row counts run inside the steiner span; leave them out.
    steiner_s = sum(s.seconds for s in spans if s.name == "steiner") - sum(
        s.seconds for s in spans if s.name == UNTRACKED and in_steiner(s)
    )
    sssp_in_st = sum(
        s.seconds
        for s in spans
        if s.name == "sssp" and s.parent in by_id and by_id[s.parent].name == "steiner"
    )
    out["sssp.share_of_st"] = sssp_in_st / steiner_s if steiner_s else 0.0
    counted = [s for s in spans if s.name != UNTRACKED]
    out["spark.jobs"] = sum(s.jobs for s in counted)
    out["spark.failed_tasks"] = sum(s.failed_tasks for s in spans)
    out["trace.pass_s"] = pass_span.seconds
    out["trace.unattributed_s"] = tracer.self_seconds(pass_span) + sum(
        s.seconds for s in spans if s.name == UNTRACKED
    )
    return out


def bench(spark, w, args, chk: Checker, session_s: float) -> tuple[dict, dict, dict]:
    """Set up and measure one workload; returns (end-to-end, per-layer, report)."""
    import checks
    import spans
    import workloads

    tracer = spans.Tracer(spark) if args.trace else None
    if tracer:
        tracer.install(trace_targets(workloads))

    t0 = time.perf_counter()
    src = workloads.generate(spark, w, args.seed, tiny=args.tiny, tracer=tracer)
    generate_s = time.perf_counter() - t0
    setup_s, kg_build_s, inp = [], [], None
    for _ in range(SETUP_REPS):
        if inp is not None:
            inp.release()
        n0 = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        inp = workloads.setup(spark, w, src, args.seed, tiny=args.tiny, tracer=tracer)
        setup_s.append(time.perf_counter() - t0)
        if tracer:
            kg_build_s.append(sum(s.seconds for s in tracer.spans[n0:] if s.name == "kg"))

    # The pass count depends on --seconds only, so every commit runs as many.
    n_passes = max(1, round(args.seconds / w.pass_estimate_s))
    timed, traced, traced_res, in_order = [], [], [], []
    rss = PeakRSS()
    for _ in range(n_passes):
        with rss:
            res = workloads.run_pass(spark, w, inp)
        timed.append(res)
        in_order.append(res.seconds)
        if tracer:
            tracer.pass_id += 1
            with tracer.span("pass") as root:
                res = workloads.run_pass(spark, w, inp)
            tracer.count_jobs(tracer.pass_id)
            traced.append(layer_metrics(tracer, root))
            traced_res.append(res)
            in_order.append(res.seconds)
    ru_maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The checks' own structures are built only now, after the measured peak.
    if tracer:
        tracer.uninstall()
    kg_index = checks.KGIndex(inp.kg.edges.select("src", "dst", "weight").collect())
    for res in timed + traced_res:
        check_pass(chk, res, inp, src, kg_index, w, reference=None if res is timed[0] else timed[0])
    t0 = time.perf_counter()
    ratios = checks.st_cost_ratios(timed[0].st, inp.requests, kg_index, lam=workloads.LAM)
    mehlhorn_s = time.perf_counter() - t0
    chk.add("st trees compared with networkx mehlhorn", [] if ratios else ["none"])
    for sid, (got, ref) in ratios.items():
        chk.add(f"st {sid} cost vs networkx mehlhorn", [] if got <= 2 * ref else [f"{got} > 2 x {ref}"])

    pass_times = [r.seconds for r in timed]
    metrics = {
        "setup_s": median(setup_s),
        "pass_s": median(pass_times),
        "st_s": median([r.calls["st_s"] for r in timed]),
        "pcst_s": median([r.calls["pcst_s"] for r in timed]),
        "st_coverage": coverage(timed[-1].st),
        "pcst_coverage": coverage(timed[-1].pcst),
        "st_cost_ratio": sum(g for g, _ in ratios.values()) / max(sum(r for _, r in ratios.values()), 1e-12),
        "py_peak_rss_mb": rss.peak_bytes / 2**20,
    }
    layers = {}
    if tracer:
        tracer.write(WORK / f"spans-{w.name}-seed{args.seed}.json")
        layers = {k: median([m[k] for m in traced]) for k in traced[0]}
        layers["kg.build_s"] = median(kg_build_s)
        layers["recommenders.paths_s"] = sum(
            s.seconds for s in tracer.spans if s.name == "recommenders"
        )
        layers["session.start_s"] = session_s
        layers["trace.overhead_s"] = layers["trace.pass_s"] - median(pass_times)

    report = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "requests": len(inp.requests),
        "terminals": sum(len(r.terminals(max(inp.ks))) for r in inp.requests),
        "session_s": session_s,
        "generate_s": generate_s,
        "setup_s": setup_s,
        "mehlhorn_check_s": mehlhorn_s,
        "ru_maxrss_mb": ru_maxrss_mb,
        "pass_s": pass_times,
        "traced_pass_s": [m["trace.pass_s"] for m in traced],
        "calls": [r.calls for r in timed],
        "passes_in_order_s": in_order,
        "st_cost_ratio_max": max((g / r for g, r in ratios.values()), default=0.0),
        "last_over_first_pass": in_order[-1] / in_order[0],
    }
    return metrics, layers, report


def environment(spark, nproc: int) -> dict:
    sc = spark.sparkContext
    jvm = sc._jvm.java.lang.System
    return {
        "nproc": nproc,
        "master": sc.master,
        "pyspark": spark.version,
        "java": jvm.getProperty("java.version"),
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "auto_broadcast_threshold": spark.conf.get("spark.sql.autoBroadcastJoinThreshold"),
        "adaptive": spark.conf.get("spark.sql.adaptive.enabled"),
        "driver_memory": sc.getConf().get("spark.driver.memory"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"perfbench: no program (src/repro) or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [m["name"] for m in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2

    nproc = os.cpu_count() or 1
    configure_spark_env(nproc)
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import workloads
    from repro.runtime import job_session

    chk = Checker()
    for problem in checks.self_test():
        chk.add("check self-test", [problem])

    t0 = time.perf_counter()
    spark = job_session("perfbench")
    session_s = time.perf_counter() - t0
    spark.sparkContext.setLogLevel("ERROR")
    try:
        env = environment(spark, nproc)
        e2e, layers, report = bench(spark, workloads.WORKLOADS[args.workload], args, chk, session_s)
    finally:
        stop_spark(spark)

    report.update(
        environment=env,
        attempted=chk.attempted,
        failed=chk.failed,
        failed_frac=chk.failed / chk.attempted,
        failures=chk.messages,
        end_to_end={m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]},
    )
    (WORK / "runs").mkdir(exist_ok=True)
    run_file = WORK / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    run_file.write_text(json.dumps(report, indent=1))
    print(json.dumps({"report": report}))
    if args.trace:
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = report["end_to_end"]
    result = {
        "correct": chk.failed == 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
