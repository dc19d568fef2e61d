"""Command-line entry points.

Subcommands:
    synth    synthesize a training-free embedding dataset (clusters + fakes)
    train    synthesize, train the embedder, emit embeddings + loss curve
    eval     gallery/probe protocol + report for an embeddings file
    tsne     2-D layout + KL trace for an embeddings file
    run      full pipeline (synth -> train -> protocol -> report -> t-SNE)
    report   rebuild a report table from a scores.csv

Exit codes: 0 success, 1 runtime/stage failure, 2 config or usage error.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import PipelineConfig, child_seed, load_config
from .dataset_io import read_dataset, write_dataset
from .errors import ConfigError, VerifakeError
from .losses import LOSS_NAMES
from .metrics import build_report
from .pipeline import (
    StageFailure,
    evaluate_dataset,
    run_pipeline,
    synth_embedding_dataset,
    tsne_stage,
)
from .protocol import scores_from_csv, scores_to_csv
from .tsne import kl_trace_to_csv, layout_to_csv

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2


def _load_pipeline_config(args) -> PipelineConfig:
    if getattr(args, "config", None):
        cfg = load_config(args.config)
    else:
        cfg = PipelineConfig()

    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        overrides["out_dir"] = args.out
    if getattr(args, "loss", None) is not None:
        overrides["loss_name"] = args.loss
        overrides["margin"] = None
    if getattr(args, "gallery_size", None) is not None:
        overrides["gallery_size"] = args.gallery_size
    if getattr(args, "aggregation", None) is not None:
        overrides["aggregation"] = args.aggregation
    if getattr(args, "fmt", None) is not None:
        overrides["file_format"] = args.fmt
    return replace(cfg, **overrides) if overrides else cfg


def cmd_synth(args) -> int:
    cfg = _load_pipeline_config(args)
    dataset = synth_embedding_dataset(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    name = "synth.emb1" if cfg.file_format == "emb1" else "synth.csv"
    write_dataset(out / name, dataset, fmt=cfg.file_format)
    print(f"wrote {out / name} ({len(dataset)} records, dim {dataset.dim})")
    return EXIT_OK


def cmd_train(args) -> int:
    from .pipeline import embed_stage, curve_to_csv, synth_stage, train_stage

    cfg = _load_pipeline_config(args)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train_raw, eval_raw = synth_stage(cfg)
    network, curve = train_stage(cfg, train_raw)
    dataset = embed_stage(cfg, network, eval_raw)
    name = "embeddings.emb1" if cfg.file_format == "emb1" else "embeddings.csv"
    write_dataset(out / name, dataset, fmt=cfg.file_format)
    (out / "train_curve.csv").write_text(curve_to_csv(curve), encoding="utf-8")
    print(
        f"trained {cfg.loss_name} for {cfg.epochs} epochs; "
        f"final epoch loss {curve[-1]:.6f}"
    )
    print(f"wrote {out / name} ({len(dataset)} records)")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_pipeline_config(args)
    dataset = read_dataset(args.embeddings)
    # same gallery seed derivation as cmd_run, so evaluating the
    # embeddings a run wrote reproduces that run's report
    report, scores = evaluate_dataset(
        dataset,
        g=cfg.gallery_size,
        seed=child_seed(cfg.seed, "gallery"),
        aggregation=cfg.aggregation,
        probe_cap=cfg.probe_cap,
    )
    out = _write_report(cfg.out_dir, report)
    (out / "scores.csv").write_text(scores_to_csv(scores), encoding="utf-8")
    print(report.format_table(), end="")
    return EXIT_OK


def _write_report(out_dir, report) -> Path:
    """Write report.json and report.txt under out_dir; returns its Path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    (out / "report.txt").write_text(report.format_table(), encoding="utf-8")
    return out


def cmd_tsne(args) -> int:
    cfg = _load_pipeline_config(args)
    dataset = read_dataset(args.embeddings)
    points, Y, trace = tsne_stage(cfg, dataset)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "tsne.csv").write_text(layout_to_csv(Y, points), encoding="utf-8")
    (out / "kl_trace.csv").write_text(kl_trace_to_csv(trace), encoding="utf-8")
    print(
        f"embedded {len(points)} points; final KL {trace[-1]:.6f} "
        f"(wrote {out / 'tsne.csv'})"
    )
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _load_pipeline_config(args)
    result = run_pipeline(cfg)
    print(result.report.format_table(), end="")
    print(f"artifacts in {result.out_dir}")
    return EXIT_OK


def cmd_report(args) -> int:
    data = Path(args.scores).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"undecodable byte {data[exc.start]:#04x}", line=line) from None
    report = build_report(scores_from_csv(text))
    if args.out is not None:
        _write_report(args.out, report)
    print(report.format_table(), end="")
    return EXIT_OK


def _add_common_flags(sub, config=True):
    if config:
        sub.add_argument("--config", help="pipeline config file")
    sub.add_argument("--seed", type=int, help="override the global seed")
    sub.add_argument("--out", help="output directory")
    sub.add_argument(
        "--loss",
        choices=LOSS_NAMES,
        help="loss preset",
    )
    sub.add_argument("--gallery-size", type=int, dest="gallery_size")
    sub.add_argument("--aggregation", choices=["mean", "max"])
    sub.add_argument("--format", choices=["emb1", "csv"], dest="fmt")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verifake",
        description="Deepfake detection by face verification (synthetic desk-scale pipeline)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="synthesize an embedding dataset")
    _add_common_flags(p_synth)
    p_synth.set_defaults(fn=cmd_synth)

    p_train = sub.add_parser("train", help="train the embedder, emit embeddings")
    _add_common_flags(p_train)
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate an embeddings file")
    p_eval.add_argument("embeddings", help="EMB1 or CSV embedding dataset")
    _add_common_flags(p_eval)
    p_eval.set_defaults(fn=cmd_eval)

    p_tsne = sub.add_parser("tsne", help="t-SNE layout for an embeddings file")
    p_tsne.add_argument("embeddings", help="EMB1 or CSV embedding dataset")
    _add_common_flags(p_tsne)
    p_tsne.set_defaults(fn=cmd_tsne)

    p_run = sub.add_parser("run", help="run the full pipeline")
    _add_common_flags(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_report = sub.add_parser("report", help="rebuild a report from scores.csv")
    p_report.add_argument("scores", help="scores.csv path")
    p_report.add_argument("--out", help="also write report.json/report.txt here")
    p_report.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StageFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except VerifakeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
