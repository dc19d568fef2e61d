"""Smoke check of the benchmark itself, on demo.cfg (about ten seconds).

    python3 bench/smoke.py

Checks that BENCHMARK.json is well formed, that a run on the `demo`
workload prints every metric of BENCHMARK.json with its unit and sample
count in both trace modes, with correct outputs, and that run.py
refuses to run without the source tree beside it. Exits 1 on any problem.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
ENV_KEYS = ("nproc", "python", "numpy", "blas", "blas_threads", "caches")


def check_spec(spec: dict) -> list:
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys are {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    problems += [f"bad or repeated name {n!r}" for n in names
                 if not NAME.match(n) or names.count(n) > 1]
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"bad workload entry {w['name']}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            problems.append(f"bad unit or direction on {m['name']}")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if not all(0 < b <= 0.25 for b in bounds.values()):
        problems.append("an end-to-end bound is outside (0, 0.25]")
    if bounds.get("setup_s") != max(bounds.values(), default=None):
        problems.append("setup_s must exist and carry the largest bound")
    if not 2 <= len(spec["workloads"]) <= 8 or not 1 <= spec["run_seconds"] <= 60:
        problems.append("workload count or run_seconds out of range")
    return problems


def check_run(spec: dict, trace: int) -> list:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "demo", "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0 or len(lines) < 2:
        return [f"trace {trace}: exit code {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2].removeprefix("detail "))
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"run not clean: {detail['failures']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if list(result["metrics"]) != [m["name"] for m in wanted]:
        problems.append("metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"metric {m['name']} lacks its value or unit")
        if detail["samples"].get(m["name"], 0) < 1:
            problems.append(f"metric {m['name']} lacks its sample count")
    problems += [f"environment lacks {k}" for k in ENV_KEYS if k not in detail["env"]]
    if detail["env"].get("blas_threads") != 1:
        problems.append("BLAS is not pinned to one thread")
    return [f"trace {trace}: {p}" for p in problems]


def check_bare_directory() -> list:
    """Without src/ beside it run.py must fail without a result."""
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "bench/run.py", "--workload", "default-run", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["run.py ran without a source tree"]
    return []


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_spec(spec) + check_run(spec, 0) + check_run(spec, 1) + check_bare_directory()
    for p in problems:
        print(f"smoke: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
