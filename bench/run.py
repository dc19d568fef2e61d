"""verifake benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N      # every workload, one table

Run it from anywhere inside a checkout of the repository; it uses the
`src/` tree next to `bench/`. Each rep of a workload runs in a fresh
interpreter (bench/worker.py) with BLAS pinned to one thread, makes the
workload's CLI calls one after the other, and is followed by output checks:
the workload's own checks (bench/workloads.py) and sha256 digests of every
artifact, which must be identical across the reps of a run. A failed call or
check counts as a failed operation.

With `--trace 0` it repeats untraced reps for about `--seconds` and reports
the end-to-end metrics of BENCHMARK.json as medians over the reps. With
`--trace 1` it alternates untraced and traced reps; a traced rep wraps the
program's functions from outside (bench/tracing.py) and gives the per-layer
metrics, and the difference of the two kinds of rep is `trace.overhead_s`.

Every run prints one line per metric (value, unit, sample count), a `detail`
JSON line with the sample counts, environment, digests and failures, and as
its last line the JSON result `{"correct", "attempted", "failed", "metrics"}`.
Scratch output goes to `.bench_work/` in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
SETUP_ONLY_SAMPLES = 10  # extra interpreter starts per run, after one warm-up
DEADLINE_S = 170.0  # a run must end within 180 s


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


class Runner:
    """Spawns the worker reps of one run and keeps the deadline."""

    def __init__(self, workload, seed, work, deadline):
        self.workload, self.seed, self.work, self.deadline = workload, seed, work, deadline
        self.env = worker_env()
        self.count = 0

    def spawn(self, traced=False, setup_only=False):
        """Run one worker. Returns (setup seconds, result dict or None,
        rep directory, error message or None)."""
        self.count += 1
        rep_dir = self.work / f"rep{self.count}"
        rep_dir.mkdir()
        result_path = self.work / f"rep{self.count}.json"
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), self.workload.name,
               str(self.seed), str(result_path)]
        cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
        with open(rep_dir / "worker.stderr", "w", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=rep_dir, env=self.env, stdout=subprocess.PIPE,
                                    stderr=err, text=True)
            try:
                ready = proc.stdout.readline()
                setup_s = time.perf_counter() - start
                proc.communicate(timeout=max(1.0, self.deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                return None, None, rep_dir, "worker ran past the deadline"
        if ready.strip() != "ready" or proc.returncode != 0:
            tail = (rep_dir / "worker.stderr").read_text(encoding="utf-8")[-800:]
            return None, None, rep_dir, f"worker exit code {proc.returncode}: {tail}"
        if setup_only:
            return setup_s, None, rep_dir, None
        with open(result_path, encoding="utf-8") as fh:
            return setup_s, json.load(fh), rep_dir, None


def digests(rep_dir: Path, ops) -> dict:
    out = {}
    for op in ops:
        base = rep_dir / op.out
        files = sorted(p for p in base.rglob("*") if p.is_file()) if base.is_dir() else []
        out[op.name] = {
            str(p.relative_to(base)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files
        }
    return out


def trace_checks(traced: list, spec: dict) -> list:
    """Counts repeat exactly across traced reps, and self times add up."""
    failures = []
    counts = [m["name"] for m in spec["per_layer"]
              if m["unit"] != "s" and m["name"] in traced[0]["layers"]]
    for r in traced[1:]:
        for key in counts:
            if r["layers"][key] != traced[0]["layers"][key]:
                failures.append(f"count {key} differs between traced reps")
        if r["spans"] != traced[0]["spans"]:
            failures.append("span count differs between traced reps")
    for r in traced:
        if abs(r["self_sum_s"] - r["wall_s"]) > 1e-6 * r["wall_s"] + 1e-6:
            failures.append(f"span self times sum to {r['self_sum_s']}, traced wall is {r['wall_s']}")
    return failures


def cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            sizes[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def environment(worker_env_info: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "caches": cache_sizes(),
        **worker_env_info,
    }


def baseline_digest_status(name: str, seed: int, got) -> str:
    """Compare with digests recorded in bench/baseline.json; informational,
    since a change may alter artifact bytes on purpose and say so."""
    with open(BENCH_DIR / "baseline.json", encoding="utf-8") as fh:
        recorded = json.load(fh)["digests"].get(name, {}).get(str(seed))
    if recorded is None or got is None:
        return "not recorded"
    return "match" if recorded == got else "differ"


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    workload = workloads.get(name)
    ops = workload.ops(seed)
    work = WORK_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workload, seed, work, time.perf_counter() + DEADLINE_S)

    failures = []  # "op: message", one or more per failed op
    state = {"attempted": 0, "failed": 0, "reference": None}
    setups, plain, traced = [], [], []

    def rep(traced_rep):
        state["attempted"] += len(ops)
        setup_s, result, rep_dir, error = runner.spawn(traced=traced_rep)
        if error is not None:
            failures.append(f"worker: {error}")
            state["failed"] += len(ops)
            return False
        bad = [(op["name"], op["error"]) for op in result["ops"] if op["error"]]
        bad += workload.check(rep_dir)
        got = digests(rep_dir, ops)
        if state["reference"] is None:
            state["reference"] = got
        bad += [(op.name, "artifact digests differ from the first rep")
                for op in ops if got[op.name] != state["reference"][op.name]]
        failures.extend(f"{op}: {msg}" for op, msg in bad)
        state["failed"] += len({op for op, _ in bad})
        shutil.rmtree(rep_dir)
        setups.append(setup_s)
        (traced if traced_rep else plain).append(result)
        return True

    def setup_samples(count):
        for _ in range(count):
            setup_s, _, rep_dir, error = runner.spawn(setup_only=True)
            shutil.rmtree(rep_dir)
            if error is not None:
                failures.append(f"worker: {error}")
                return
            setups.append(setup_s)

    # one warm-up start, since the first start in a checkout compiles bytecode
    setup_samples(1)
    setups.clear()
    # half of the set-up samples before the reps and half after, so that
    # they see the same machine as the reps do
    setup_samples(SETUP_ONLY_SAMPLES // 2)
    kinds = (False, True) if trace else (False,)
    start = time.perf_counter()
    while not failures:
        began = time.perf_counter()
        if not all(rep(kind) for kind in kinds):
            break
        now = time.perf_counter()
        if now - start + (now - began) > seconds or now + 2 * (now - began) > runner.deadline:
            break
    if not failures:
        setup_samples(SETUP_ONLY_SAMPLES - SETUP_ONLY_SAMPLES // 2)

    metrics, extra = {}, {}
    if trace and plain and traced:
        failures.extend(f"trace: {msg}" for msg in trace_checks(traced, spec))
        for key in traced[0]["layers"]:
            metrics[key] = statistics.median(r["layers"][key] for r in traced)
        untraced_wall = statistics.median(r["wall_s"] for r in plain)
        metrics.update({
            "config.parse_s": statistics.median(r["parse_s"] for r in traced),
            "cli.import_s": statistics.median(r["import_s"] for r in traced),
            "trace.wall_s": statistics.median(r["wall_s"] for r in traced),
            "trace.self_sum_s": statistics.median(r["self_sum_s"] for r in traced),
            "trace.spans": traced[-1]["spans"],
        })
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
        samples = dict.fromkeys(metrics, len(traced))
        extra["missing_targets"] = traced[0]["missing_targets"]
    elif plain and not trace:
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            metrics[key] = statistics.median(r[key] for r in plain)
        samples = dict.fromkeys(metrics, len(plain))
        metrics["setup_s"] = statistics.median(setups)
        samples["setup_s"] = len(setups)
    else:
        samples = {}

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    failures.extend(f"bench: metric {key} was not measured" for key in missing)
    if failures and not state["failed"]:
        state["failed"] = 1  # a trace or bench check failed, not an op
    first = (plain + traced)[:1]
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": not failures,
        "attempted": max(state["attempted"], 1),
        "failed": min(state["failed"], max(state["attempted"], 1)),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
        "samples": {m["name"]: samples.get(m["name"], 0) for m in wanted},
        "failures": failures[:50],
        "env": environment(first[0]["env"] if first else {}),
        "digests": state["reference"] or {},
        "rep_wall_s": {"untraced": [r["wall_s"] for r in plain],
                       "traced": [r["wall_s"] for r in traced]},
        "baseline_digests": baseline_digest_status(name, seed, state["reference"]),
        **extra,
    }


def print_result(res: dict) -> None:
    for key, metric in res["metrics"].items():
        print(f"{res['workload']:<12} {key:<34} {metric['value']:>16.6f} {metric['unit']:<6} "
              f"n={res['samples'][key]}")
    print(f"{res['workload']:<12} {'fail_rate':<34} {res['failed'] / res['attempted']:>16.6f} "
          f"{'ratio':<6} ({res['failed']} of {res['attempted']} ops)")
    for failure in res["failures"]:
        print(f"{res['workload']:<12} FAILED {failure}")
    detail = {k: v for k, v in res.items() if k not in ("metrics", "correct", "attempted", "failed")}
    print("detail " + json.dumps(detail, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(workloads.WORKLOADS)}, 'demo' or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "verifake" / "cli.py").is_file():
        print(f"error: no verifake source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload == "all":
        names = list(workloads.WORKLOADS)
    elif args.workload == workloads.SMOKE.name or args.workload in workloads.WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}")

    results = [run_workload(name, args.seed, seconds, bool(args.trace), spec) for name in names]
    for res in results:
        print_result(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
