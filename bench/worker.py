"""One rep of one workload, in a fresh interpreter.

Started by run.py with BLAS pinned to one thread. The worker imports
verifake, parses the workload's config, prints `ready` (run.py times
set-up up to that line), runs the workload's CLI calls through
`verifake.cli.main` in its own working directory, and writes a JSON result.

    python3 bench/worker.py WORKLOAD SEED RESULT_JSON [--trace] [--setup-only]
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def blas_info() -> dict:
    """BLAS library, version and the thread count it actually runs with."""
    import ctypes

    import numpy

    info = {"numpy": numpy.__version__, "blas": "unknown", "blas_threads": "unknown"}
    try:  # mode= needs numpy >= 1.26; the declared floor is 1.24
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def main(argv) -> int:
    name, seed, result_path = argv[0], int(argv[1]), Path(argv[2])
    traced, setup_only = "--trace" in argv, "--setup-only" in argv
    workload = workloads.get(name)

    start = time.perf_counter()
    import verifake.cli
    import verifake.config
    import_s = time.perf_counter() - start

    start = time.perf_counter()
    verifake.config.load_config(workload.config)
    parse_s = time.perf_counter() - start
    print("ready", flush=True)
    if setup_only:
        return 0

    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install({m: sys.modules[m] for m in (
            "verifake.cli", "verifake.pipeline", "verifake.trainer", "verifake.losses",
            "verifake.tsne", "verifake.dataset_io", "verifake.metrics",
        )})

    ops = []
    out, err = io.StringIO(), io.StringIO()
    cpu0 = time.process_time()
    root = tracer.open("workload") if tracer else None
    wall0 = time.perf_counter()
    for op in workload.ops(seed):
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = verifake.cli.main(list(op.argv))
            error = None if code == 0 else f"exit code {code}: {err.getvalue()[-500:]}"
        except SystemExit as exc:
            error = f"SystemExit {exc.code}: {err.getvalue()[-500:]}"
        except Exception:  # a crash is a failed op, not a failed bench
            error = traceback.format_exc(limit=3)
        ops.append({"name": op.name, "error": error})
    wall1 = time.perf_counter()
    cpu_s = time.process_time() - cpu0
    if tracer:
        tracer.close(root)
        tracer.uninstall()
        # the root span brackets the same interval, a few calls wider
        wall0, wall1 = tracer.spans[root][1], tracer.spans[root][2]
    result = {
        "wall_s": wall1 - wall0,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "import_s": import_s,
        "parse_s": parse_s,
        "ops": ops,
        "env": blas_info(),
    }
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        result["self_sum_s"] = tracing.self_time_sum(tracer.spans, root)
        result["spans"] = len(tracer.spans)
        result["missing_targets"] = tracer.missing
        with open(result_path.with_suffix(".spans.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
