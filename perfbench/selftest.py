"""Self-test of the benchmark harness at tiny scale.

    python3 perfbench/selftest.py

Runs the output checks' own self-test, then every workload of BENCHMARK.json
once on tiny inputs with tracing on, and asserts that

* the run exits with code 0 and its last line is the result object, with
  ``correct`` true and no failed output;
* the result names every per-layer metric, and the report before it every
  end-to-end metric, each with the unit BENCHMARK.json gives it;
* in a directory holding only BENCHMARK.json and the benchmark's files, the
  benchmark exits with another code than 0 and prints no result.

Each workload takes about a minute, most of it Spark start-up.
"""
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", "1", "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_workload(spec: dict, workload: str) -> list[str]:
    p = run(ROOT, workload)
    if p.returncode != 0:
        return [f"{workload}: exit code {p.returncode}\n{p.stderr[-2000:]}"]
    lines = p.stdout.strip().splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{workload}: outputs failed: {report['failures']}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if got != want:
        errors.append(f"{workload}: per-layer metrics {got} != {want}")
    e2e = report["end_to_end"]
    for m in spec["end_to_end"]:
        if m["name"] not in e2e or e2e[m["name"]]["unit"] != m["unit"]:
            errors.append(f"{workload}: end-to-end metric {m['name']} missing")
    return errors


def check_bare_dir(workload: str) -> list[str]:
    """Without the program the benchmark must fail and print no result."""
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as d:
        bare = Path(d)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        p = run(bare, workload)
    if p.returncode == 0 or '"metrics"' in p.stdout:
        return [f"bare directory: exit code {p.returncode}, stdout {p.stdout[-500:]!r}"]
    return []


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import checks

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    errors = checks.self_test()
    names = [w["name"] for w in spec["workloads"]]
    errors += check_bare_dir(names[0])
    for name in names:
        errors += check_workload(spec, name)
    for e in errors:
        print("FAIL", e)
    print("selftest:", "ok" if not errors else f"{len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
