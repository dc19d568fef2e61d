"""End-to-end pipeline: synthesize -> train -> embed -> score -> report.

Training and evaluation identities are generated separately and kept
subject-disjoint (evaluation subject ids are offset past the training
ids); the embedder never sees an evaluation identity. Fakes are
simulated in embedding space from the held-out subjects' real
embeddings, then everything flows through the gallery/probe protocol
into the metric report and an optional t-SNE layout.

Every stage draws its randomness from a child seed derived from the
global run seed and the stage name, so a config + seed pair pins every
artifact byte for byte.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import FORMAT_VERSIONS, PipelineConfig, child_seed
from .dataset_io import write_dataset
from .embeddings import (
    EXPRESSION_SWAP_METHODS,
    IDENTITY_SWAP_METHODS,
    METHOD_NAMES,
    EmbeddingDataset,
    Method,
    row_groups,
)
from .errors import ConfigError, VerifakeError
from .metrics import (
    EvalReport,
    build_report,
    histograms_to_csv,
    roc_to_csv,
)
from .protocol import (
    DEFAULT_AGGREGATION,
    DEFAULT_PROBE_CAP,
    ScoreSet,
    assert_subject_disjoint,
    build_gallery,
    run_protocol,
    scores_to_csv,
)
from .synthetic import (
    RawDataset,
    draws_noise,
    expression_swap_rows,
    generate_identities,
    identity_swap_rows,
    swap_noise,
)
from .trainer import extract_embeddings, train_embedder
from .tsne import kl_trace_to_csv, layout_to_csv, run_tsne


@dataclass
class RunResult:
    """Artifacts of one pipeline run, keyed by file name."""

    out_dir: Path
    report: EvalReport
    scores: ScoreSet
    dataset: EmbeddingDataset
    curve: np.ndarray
    artifacts: dict = field(default_factory=dict)


class StageFailure(VerifakeError):
    """A pipeline stage failed; carries the stage name and the cause."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


def _run_stage(stage, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ConfigError:
        raise
    except VerifakeError as exc:
        raise StageFailure(stage, exc) from exc


def synth_stage(cfg: PipelineConfig):
    """Generate disjoint training and evaluation identity clusters.

    Evaluation labels are offset by the training identity count so the
    two id ranges never collide.
    """
    train_raw = generate_identities(cfg.synthetic_spec("train"))
    eval_raw = generate_identities(cfg.synthetic_spec("eval"))
    eval_raw = RawDataset(
        eval_raw.features, eval_raw.labels + cfg.train_identities, eval_raw.means
    )
    assert_subject_disjoint(
        set(train_raw.labels.tolist()), set(eval_raw.labels.tolist())
    )
    return train_raw, eval_raw


def train_stage(cfg: PipelineConfig, train_raw: RawDataset):
    return train_embedder(
        train_raw,
        cfg.loss_name,
        cfg.train_config(),
        embed_dim=cfg.embed_dim,
        hidden_dims=cfg.hidden_dims,
        margin=cfg.margin,
        triplet=cfg.triplet,
    )


_FAKE_BLOCK = 256  # fakes simulated together; temporaries are O(block x dim)


def simulate_fakes(real_subject, real_vectors, swaps, seed: int) -> EmbeddingDataset:
    """The real records (`real_subject` ids and their `real_vectors`)
    followed by the fakes of every configured simulator, in columns
    allocated once.

    For identity swaps the donor is a seeded pick among the OTHER
    subjects; the host record and donor record are seeded picks among
    each subject's real embeddings. Each fake draws from its method's
    stream in a fixed order (host record, donor subject until it differs
    from the host, donor record, noise), so the fakes do not depend on
    how the arithmetic is batched: they are computed in float64 blocks of
    _FAKE_BLOCK rows from the float32 reals, each cast into its own rows.
    """
    groups = list(row_groups(np.asarray(real_subject)))
    subjects = [s for s, _ in groups]
    pools = [pos for _, pos in groups]  # each subject's real rows, in order
    n_subjects = len(subjects)
    n_real, dim = real_vectors.shape
    n = n_real + n_subjects * sum(settings.per_subject for settings in swaps)
    vectors = np.empty((n, dim), dtype=np.float32)
    subject = np.empty(n, dtype=np.uint32)
    host = np.empty(n, dtype=np.uint32)
    fake = np.ones(n, dtype=bool)
    method = np.zeros(n, dtype=np.uint8)
    vectors[:n_real] = real_vectors
    subject[:n_real] = host[:n_real] = real_subject
    fake[:n_real] = False

    start = n_real
    for settings in swaps:
        code = Method(settings.method)
        rng = np.random.default_rng(child_seed(seed, f"swap:{METHOD_NAMES[code]}"))
        identity_swap = code in IDENTITY_SWAP_METHODS
        if identity_swap and n_subjects < 2:
            raise ConfigError("identity swaps need at least 2 subjects")
        if not identity_swap and code not in EXPRESSION_SWAP_METHODS:
            raise ConfigError(f"{code!r} is not a manipulation method")
        noisy = draws_noise(settings.alpha, settings.sigma, identity_swap)
        k = n_subjects * settings.per_subject
        host[start : start + k] = np.repeat(subjects, settings.per_subject)
        method[start : start + k] = code
        for first in range(0, k, _FAKE_BLOCK):
            b = min(_FAKE_BLOCK, k - first)
            host_rows = np.empty(b, dtype=np.int64)
            donor_rows = np.empty(b, dtype=np.int64)
            noise = np.empty((b, dim)) if noisy else None
            for i in range(b):
                h = (first + i) // settings.per_subject  # h and d index `subjects`
                host_rows[i] = pools[h][rng.integers(len(pools[h]))]
                if identity_swap:
                    d = rng.integers(n_subjects)
                    while d == h:
                        d = rng.integers(n_subjects)
                    donor_rows[i] = pools[d][rng.integers(len(pools[d]))]
                if noisy:
                    noise[i] = swap_noise(rng, settings.sigma, dim)

            rows = slice(start + first, start + first + b)
            hosts = vectors[host_rows].astype(np.float64)
            if identity_swap:
                donors = vectors[donor_rows].astype(np.float64)
                vectors[rows] = identity_swap_rows(donors, hosts, settings.alpha, noise)
                subject[rows] = subject[donor_rows]
            else:
                vectors[rows] = expression_swap_rows(hosts, noise)
                subject[rows] = subject[host_rows]
        start += k
    return EmbeddingDataset(vectors, subject, host, fake, method)


def embed_stage(cfg: PipelineConfig, network, eval_raw: RawDataset) -> EmbeddingDataset:
    reals = extract_embeddings(network, eval_raw.features, eval_raw.labels)
    return simulate_fakes(reals.subject, reals.vectors, cfg.swaps, cfg.seed)


def tsne_stage(cfg: PipelineConfig, dataset: EmbeddingDataset):
    """Seeded subsample (if needed) plus the 2-D layout and KL trace."""
    tsne_cfg = cfg.tsne_config()
    rng = np.random.default_rng(child_seed(cfg.seed, "tsne"))
    if len(dataset) > cfg.tsne_max_points:
        chosen = rng.choice(len(dataset), size=cfg.tsne_max_points, replace=False)
        dataset = dataset.take(np.sort(chosen))
    Y, trace = run_tsne(dataset.vectors.astype(np.float64), tsne_cfg)
    return dataset, Y, trace


def curve_to_csv(curve) -> str:
    lines = ["epoch,loss"]
    for epoch, loss in enumerate(np.asarray(curve, dtype=np.float64), start=1):
        lines.append(f"{epoch},{float(loss)!r}")
    return "\n".join(lines) + "\n"


def _write_text(out_dir: Path, name: str, text: str, artifacts: dict) -> Path:
    path = out_dir / name
    path.write_text(text, encoding="utf-8", newline="")
    artifacts[name] = path
    return path


def _write_dataset(out_dir: Path, stem: str, dataset, fmt: str, artifacts: dict) -> Path:
    path = out_dir / f"{stem}.{fmt}"
    write_dataset(path, dataset, fmt=fmt)
    artifacts[path.name] = path
    return path


def write_manifest(cfg: PipelineConfig, out_dir: Path, artifacts: dict) -> Path:
    manifest = {
        "artifacts": sorted(artifacts),
        "config_sha256": cfg.config_hash(),
        "format_versions": FORMAT_VERSIONS,
        "seed": cfg.seed,
        "tool": {"name": "verifake", "version": __version__},
    }
    path = out_dir / "manifest.json"
    path.write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    artifacts["manifest.json"] = path
    return path


def execute(cfg: PipelineConfig, command, *inputs):
    """The runner of `run` and of every subcommand that writes files: returns
    `command(cfg, out, artifacts, *inputs)`, which runs its stages through
    _run_stage and records each file it writes under `out` in `artifacts`.
    manifest.json is written last, so a directory without one holds an
    incomplete run: an older manifest is removed before the first stage."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)
    artifacts: dict = {}
    result = command(cfg, out, artifacts, *inputs)
    write_manifest(cfg, out, artifacts)
    return result


def synth_command(cfg: PipelineConfig, out: Path, artifacts: dict):
    """`verifake synth`: the training-free dataset -> (dataset, its path)."""
    dataset = _run_stage("synth", synth_embedding_dataset, cfg)
    return dataset, _write_dataset(out, "synth", dataset, cfg.file_format, artifacts)


def train_command(cfg: PipelineConfig, out: Path, artifacts: dict):
    """`verifake train`: synth, train and embed -> (dataset, loss curve,
    embeddings path)."""
    train_raw, eval_raw = _run_stage("synth", synth_stage, cfg)
    network, curve = _run_stage("train", train_stage, cfg, train_raw)
    _write_text(out, "train_curve.csv", curve_to_csv(curve), artifacts)
    dataset = _run_stage("embed", embed_stage, cfg, network, eval_raw)
    path = _write_dataset(out, "embeddings", dataset, cfg.file_format, artifacts)
    return dataset, curve, path


def eval_command(cfg: PipelineConfig, out: Path, artifacts: dict, dataset, metadata=None,
                 curves=None):
    """`verifake eval`: protocol and report -> (report, scores). `run`
    shares the gallery seed, so evaluating the embeddings a run wrote
    reproduces that run's report; it passes `curves`, a dict that receives
    each method's ROC curve (see build_report)."""
    report, scores = evaluate_dataset(
        dataset, cfg.gallery_size, child_seed(cfg.seed, "gallery"),
        cfg.aggregation, cfg.probe_cap, metadata, curves,
    )
    path = out / "scores.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        scores_to_csv(scores, fh)
    artifacts[path.name] = path
    _write_text(out, "report.json", report.to_json(), artifacts)
    _write_text(out, "report.txt", report.format_table(), artifacts)
    return report, scores


def tsne_command(cfg: PipelineConfig, out: Path, artifacts: dict, dataset):
    """`verifake tsne` -> (embedded points, KL trace, layout path)."""
    points, Y, trace = _run_stage("tsne", tsne_stage, cfg, dataset)
    path = _write_text(out, "tsne.csv", layout_to_csv(Y, points), artifacts)
    _write_text(out, "kl_trace.csv", kl_trace_to_csv(trace), artifacts)
    return points, trace, path


def report_command(cfg: PipelineConfig, out: Path, artifacts: dict, scores: ScoreSet):
    """`verifake report --out`: the report of a ScoreSet."""
    report = _run_stage("report", build_report, scores)
    _write_text(out, "report.json", report.to_json(), artifacts)
    _write_text(out, "report.txt", report.format_table(), artifacts)
    return report


def _run_command(cfg: PipelineConfig, out: Path, artifacts: dict) -> RunResult:
    """`verifake run`: the train, eval and tsne commands in one directory."""
    dataset, curve, _ = train_command(cfg, out, artifacts)
    curves: dict = {}
    report, scores = eval_command(
        cfg, out, artifacts, dataset, {"loss": cfg.loss_name, "seed": cfg.seed}, curves
    )
    # run-only artifacts; roc.csv has a row per distinct score
    _write_text(out, "roc.csv", roc_to_csv(curves), artifacts)
    _write_text(out, "histograms.csv", histograms_to_csv(report), artifacts)
    if cfg.tsne_enabled:
        tsne_command(cfg, out, artifacts, dataset)
    return RunResult(out, report, scores, dataset, curve, artifacts)


def run_pipeline(cfg: PipelineConfig) -> RunResult:
    """Execute every stage and write all artifacts under cfg.out_dir."""
    # each eval subject has samples_per_identity real records: the gallery
    # enrolls gallery_size of them and the rest are its genuine probes
    if cfg.gallery_size >= cfg.samples_per_identity:
        raise ConfigError(
            f"gallery_size {cfg.gallery_size} leaves no genuine probe among the "
            f"{cfg.samples_per_identity} samples per identity",
            field="protocol.gallery_size",
        )
    return execute(cfg, _run_command)


def evaluate_dataset(
    dataset: EmbeddingDataset,
    g: int,
    seed: int,
    aggregation: str = DEFAULT_AGGREGATION,
    probe_cap: int = DEFAULT_PROBE_CAP,
    metadata: dict | None = None,
    curves: dict | None = None,
):
    """The protocol and report stages on an embedding dataset -> (report,
    scores). The report's metadata is the aggregation, the gallery size and
    the gallery seed, updated by `metadata`; `curves` is build_report's."""
    scores = _run_stage("protocol", lambda: run_protocol(
        *build_gallery(dataset, g=g, seed=seed, probe_cap=probe_cap), dataset, aggregation
    ))
    meta = {"aggregation": aggregation, "gallery_size": g, "seed": seed}
    meta.update(metadata or {})
    return _run_stage("report", build_report, scores, meta, curves), scores


def synth_embedding_dataset(cfg: PipelineConfig) -> EmbeddingDataset:
    """Training-free dataset: the synthetic clusters are used directly
    as embeddings (they already live on the unit sphere) and the
    configured simulators supply the fakes. The float64 samples are cast
    to float32, the dtype of the final columns, and dropped before those
    are allocated."""
    raw = generate_identities(cfg.synthetic_spec("eval"))
    labels, reals = raw.labels, raw.features.astype(np.float32)
    del raw
    return simulate_fakes(labels, reals, cfg.swaps, cfg.seed)
