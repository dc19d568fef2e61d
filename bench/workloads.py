"""Workload definitions for the verifake benchmark.

A workload is a fixed sequence of `verifake` CLI calls, made one after the
other in one process (a closed loop with one client). The workload seed is
the only input the benchmark varies; the program sees it as `--seed`.

Each workload also says how to check its outputs. The checks read the
artifacts with plain file parsing, so the process running run.py never
imports numpy or verifake.
"""

import json
import math
import struct
from dataclasses import dataclass
from typing import Callable
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CONFIG_DIR = BENCH_DIR / "configs"

LOSSES = ("softmax", "arcface", "cosface", "sphereface", "combined", "triplet")

# Output facts fixed by the configs in configs/, independent of the seed.
DEFAULT_EVAL_RECORDS = 10 * 60 + 10 * 80  # 10 eval identities x 60 + 2 swaps x 40
SCALE_RECORDS = 200 * 60 + 200 * 80
SCALE_PROBES = SCALE_RECORDS - 200 * 20  # everything outside the 20-shot galleries
DEFAULT_EPOCHS = 25
TSNE_ITERATIONS = 1000
IDENTITY_EER_MAX = 15.0
EXPRESSION_EER_RANGE = (40.0, 60.0)


@dataclass(frozen=True)
class Op:
    """One CLI call: its name, its argv (without the program name) and the
    output directory it writes, relative to the rep's working directory."""

    name: str
    argv: tuple
    out: str


@dataclass(frozen=True)
class Workload:
    name: str
    config: Path  # parsed once during set-up and passed to every call
    make_ops: Callable  # (config path, seed string) -> [Op]
    check: Callable  # rep directory -> [(op name, message)] for failed checks

    def ops(self, seed: int) -> list:
        return self.make_ops(self.config, str(seed))


def _default_run(cfg, seed):
    return [Op("run", ("run", "--config", str(cfg), "--seed", seed, "--out", "run"), "run")]


def _loss_sweep(cfg, seed):
    return [
        Op(
            f"train-{loss}",
            ("train", "--config", str(cfg), "--loss", loss, "--seed", seed,
             "--out", f"train-{loss}"),
            f"train-{loss}",
        )
        for loss in LOSSES
    ]


def _scale_eval(cfg, seed):
    ops = []
    for fmt in ("emb1", "csv"):
        ops.append(Op(
            f"synth-{fmt}",
            ("synth", "--config", str(cfg), "--format", fmt, "--seed", seed,
             "--out", f"synth-{fmt}"),
            f"synth-{fmt}",
        ))
        ops.append(Op(
            f"eval-{fmt}",
            ("eval", f"synth-{fmt}/synth.{fmt}", "--config", str(cfg),
             "--seed", seed, "--out", f"eval-{fmt}"),
            f"eval-{fmt}",
        ))
    return ops


def _emb1_shape(path: Path):
    """(record count, dim) from an EMB1 header."""
    with open(path, "rb") as fh:
        head = fh.read(12)
    if len(head) != 12 or head[:4] != b"EMB1":
        raise ValueError(f"{path.name} is not an EMB1 file")
    return struct.unpack("<II", head[4:])


def _csv_column(path: Path, column: int) -> list:
    lines = path.read_text(encoding="utf-8").strip().split("\n")[1:]
    return [float(line.split(",")[column]) for line in lines]


def _guard(op, fn, *args):
    """Run one check; a missing or malformed artifact fails the op."""
    try:
        return fn(*args)
    except (OSError, ValueError, KeyError, IndexError, TypeError, struct.error) as exc:
        return [(op, f"{type(exc).__name__}: {exc}")]


def _check_report_contrast(rep_dir: Path) -> list:
    report = json.loads((rep_dir / "run" / "report.json").read_text(encoding="utf-8"))
    failures = []
    for row in report["rows"]:
        eer = row["eer_percent"]
        if row["group"] == "identity-swap" and not eer < IDENTITY_EER_MAX:
            failures.append(("run", f"{row['method']} EER {eer}% not below {IDENTITY_EER_MAX}%"))
        lo, hi = EXPRESSION_EER_RANGE
        if row["group"] == "expression-swap" and not lo <= eer <= hi:
            failures.append(("run", f"{row['method']} EER {eer}% outside [{lo}, {hi}]%"))
    if {row["group"] for row in report["rows"]} != {"identity-swap", "expression-swap"}:
        failures.append(("run", "report lacks an identity-swap or expression-swap row"))
    return failures


def _check_default_run(rep_dir: Path) -> list:
    out = rep_dir / "run"

    def artifacts():
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        missing = [name for name in manifest["artifacts"] if not (out / name).is_file()]
        failures = [("run", f"manifest names missing artifact {name}") for name in missing]
        if _emb1_shape(out / "embeddings.emb1")[0] != DEFAULT_EVAL_RECORDS:
            failures.append(("run", "embeddings.emb1 record count is wrong"))
        kl = _csv_column(out / "kl_trace.csv", 1)
        if len(kl) != TSNE_ITERATIONS or not all(math.isfinite(v) for v in kl):
            failures.append(("run", "kl_trace.csv is not 1000 finite values"))
        return failures

    return _guard("run", artifacts) + _guard("run", _check_report_contrast, rep_dir)


def _check_loss_sweep(rep_dir: Path) -> list:
    def one(loss):
        out = rep_dir / f"train-{loss}"
        failures = []
        if _emb1_shape(out / "embeddings.emb1")[0] != DEFAULT_EVAL_RECORDS:
            failures.append((f"train-{loss}", "embeddings.emb1 record count is wrong"))
        curve = _csv_column(out / "train_curve.csv", 1)
        if len(curve) != DEFAULT_EPOCHS or not all(math.isfinite(v) for v in curve):
            failures.append((f"train-{loss}", "train_curve.csv is not 25 finite losses"))
        return failures

    return [f for loss in LOSSES for f in _guard(f"train-{loss}", one, loss)]


def _check_scale_eval(rep_dir: Path) -> list:
    def synth():
        failures = []
        if _emb1_shape(rep_dir / "synth-emb1" / "synth.emb1")[0] != SCALE_RECORDS:
            failures.append(("synth-emb1", "synth.emb1 record count is wrong"))
        with open(rep_dir / "synth-csv" / "synth.csv", "rb") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != SCALE_RECORDS:
            failures.append(("synth-csv", "synth.csv record count is wrong"))
        return failures

    def round_trip():
        failures = []
        report = json.loads((rep_dir / "eval-emb1" / "report.json").read_text(encoding="utf-8"))
        if report["counts"]["total"] != SCALE_PROBES:
            failures.append(("eval-emb1", f"scored {report['counts']['total']} probes"))
        for name in ("scores.csv", "report.json"):
            a = (rep_dir / "eval-emb1" / name).read_bytes()
            b = (rep_dir / "eval-csv" / name).read_bytes()
            if a != b:
                failures.append(("eval-csv", f"{name} differs between the emb1 and csv round trips"))
        return failures

    return _guard("synth-csv", synth) + _guard("eval-csv", round_trip)


# Each workload makes one layer do most of its work and leaves others idle,
# so an optimisation of that layer shows on one workload and not another.
WORKLOADS = {
    # The headline config. t-SNE (500 points, 1,000 iterations) is ~88% of
    # it and cosface training ~12%; protocol and artifact I/O are under 1%.
    "default-run": Workload(
        "default-run", CONFIG_DIR / "default.cfg", _default_run, _check_default_run
    ),
    # One `train` per loss: the trainer and the six loss paths do ~99% of
    # the work, triplet's 90,000 scalar `triplet_loss` calls included. No
    # t-SNE, and only ~12% of default-run is training.
    "loss-sweep": Workload(
        "loss-sweep", CONFIG_DIR / "default.cfg", _loss_sweep, _check_loss_sweep
    ),
    # Training-free round trip at 200 eval identities: synthetic swaps,
    # EMB1 and CSV writes beside reads, protocol and metrics. The columnar
    # dataset work shows here and is predicted not to move the other two.
    "scale-eval": Workload(
        "scale-eval", CONFIG_DIR / "scale.cfg", _scale_eval, _check_scale_eval
    ),
}

# demo.cfg is not a workload: every stage it runs is also in default-run.
# It serves the smoke check of the benchmark's own output schema.
SMOKE = Workload(
    "demo",
    BENCH_DIR.parent / "demo.cfg",
    _default_run,
    lambda rep_dir: _guard("run", _check_report_contrast, rep_dir),
)


def get(name: str) -> Workload:
    return SMOKE if name == SMOKE.name else WORKLOADS[name]
