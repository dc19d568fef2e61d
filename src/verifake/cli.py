"""Command-line entry points.

Subcommands:
    synth    synthesize a training-free embedding dataset (clusters + fakes)
    train    synthesize, train the embedder, emit embeddings + loss curve
    eval     gallery/probe protocol + report for an embeddings file
    tsne     2-D layout + KL trace for an embeddings file
    run      full pipeline (synth -> train -> protocol -> report -> t-SNE)
    report   rebuild a report table from a scores.csv

Every subcommand that writes files writes manifest.json last.
Exit codes: 0 success, 1 runtime/stage failure, 2 config or usage error.
"""

import argparse
import sys
from dataclasses import replace

from .config import PipelineConfig, load_config
from .dataset_io import FORMATS, read_dataset
from .errors import ConfigError, VerifakeError
from .losses import LOSS_NAMES
from .metrics import build_report
from .pipeline import (
    _run_stage,
    eval_command,
    execute,
    report_command,
    run_pipeline,
    synth_command,
    train_command,
    tsne_command,
)
from .protocol import AGGREGATIONS, read_scores

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2


# common flag (argparse dest) -> the PipelineConfig field it overrides
_FLAG_FIELDS = {
    "seed": "seed", "out": "out_dir", "loss": "loss_name",
    "gallery_size": "gallery_size", "aggregation": "aggregation", "fmt": "file_format",
}


def _load_pipeline_config(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    overrides = {
        name: getattr(args, flag) for flag, name in _FLAG_FIELDS.items()
        if getattr(args, flag) is not None
    }
    if args.loss is not None:
        overrides["margin"] = None  # margin overrides belong to the config's loss
    return replace(cfg, **overrides)


def cmd_synth(args) -> None:
    cfg = _load_pipeline_config(args)
    dataset, path = execute(cfg, synth_command)
    print(f"wrote {path} ({len(dataset)} records, dim {dataset.dim})")


def cmd_train(args) -> None:
    cfg = _load_pipeline_config(args)
    dataset, curve, path = execute(cfg, train_command)
    print(f"trained {cfg.loss_name} for {cfg.epochs} epochs; final epoch loss {curve[-1]:.6f}")
    print(f"wrote {path} ({len(dataset)} records)")


def cmd_eval(args) -> None:
    cfg = _load_pipeline_config(args)
    report, _ = execute(cfg, eval_command, read_dataset(args.embeddings))
    print(report.format_table(), end="")


def cmd_tsne(args) -> None:
    cfg = _load_pipeline_config(args)
    cfg.tsne_config()  # checked even with tsne.enabled = false, before `out` is touched
    points, trace, path = execute(cfg, tsne_command, read_dataset(args.embeddings))
    print(f"embedded {len(points)} points; final KL {trace[-1]:.6f} (wrote {path})")


def cmd_run(args) -> None:
    result = run_pipeline(_load_pipeline_config(args))
    print(result.report.format_table(), end="")
    print(f"artifacts in {result.out_dir}")


def cmd_report(args) -> None:
    scores = read_scores(args.scores)
    if args.out is None:
        report = _run_stage("report", build_report, scores)
    else:
        # report takes no --config: its manifest records the built-in defaults
        report = execute(PipelineConfig(out_dir=args.out), report_command, scores)
    print(report.format_table(), end="")


def _add_common_flags(sub):
    sub.add_argument("--config", help="pipeline config file")
    sub.add_argument("--seed", type=int, help="override the global seed")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--loss", choices=LOSS_NAMES, help="loss preset")
    sub.add_argument("--gallery-size", type=int, dest="gallery_size")
    sub.add_argument("--aggregation", choices=AGGREGATIONS)
    sub.add_argument("--format", choices=FORMATS, dest="fmt")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verifake",
        description="Deepfake detection by face verification (synthetic desk-scale pipeline)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, help_text in (
        ("synth", cmd_synth, "synthesize an embedding dataset"),
        ("train", cmd_train, "train the embedder, emit embeddings"),
        ("eval", cmd_eval, "evaluate an embeddings file"),
        ("tsne", cmd_tsne, "t-SNE layout for an embeddings file"),
        ("run", cmd_run, "run the full pipeline"),
    ):
        p = sub.add_parser(name, help=help_text)
        if fn in (cmd_eval, cmd_tsne):
            p.add_argument("embeddings", help="EMB1 or CSV embedding dataset")
        _add_common_flags(p)
        p.set_defaults(fn=fn)

    p_report = sub.add_parser("report", help="rebuild a report from scores.csv")
    p_report.add_argument("scores", help="scores.csv path")
    p_report.add_argument("--out", help="also write report.json/report.txt here")
    p_report.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (VerifakeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
