"""End-to-end pipeline stages and artifact writing."""

import dataclasses
import json

import numpy as np
import pytest

from helpers import record_keys, records_of, reference_simulate_fakes, traced_peak

from verifake import pipeline
from verifake.config import PipelineConfig, SwapSettings, child_seed, parse_config
from verifake.embeddings import (
    EXPRESSION_SWAP_METHODS,
    IDENTITY_SWAP_METHODS,
    EmbeddingDataset,
    Method,
)
from verifake.dataset_io import read_dataset
from verifake.errors import ConfigError, InsufficientEnrollment
from verifake.protocol import scores_to_csv
from verifake.pipeline import (
    StageFailure,
    eval_command,
    evaluate_dataset,
    execute,
    run_pipeline,
    simulate_fakes,
    synth_embedding_dataset,
    synth_stage,
)

PIPE_CFG = """
run.seed = 11
run.loss = cosface

synth.train_identities = 6
synth.eval_identities = 4
synth.samples_per_identity = 14
synth.raw_dim = 16
synth.concentration = 8

train.batch_size = 32
train.epochs = 2
train.embed_dim = 16
train.hidden = 32

protocol.gallery_size = 8
protocol.probe_cap = 50

tsne.perplexity = 8
tsne.iterations = 60
tsne.max_points = 80

swap.FaceSwap.alpha = 0.8
swap.FaceSwap.per_subject = 10
swap.NeuralTextures.sigma = 0.05
swap.NeuralTextures.per_subject = 10
"""

EXPECTED_FILES = [
    "train_curve.csv",
    "embeddings.emb1",
    "scores.csv",
    "report.json",
    "report.txt",
    "roc.csv",
    "histograms.csv",
    "tsne.csv",
    "kl_trace.csv",
    "manifest.json",
]


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    cfg = parse_config(PIPE_CFG)
    out = tmp_path_factory.mktemp("run")
    return cfg, run_pipeline(dataclasses.replace(cfg, out_dir=out))


def test_artifacts_written(run):
    _, result = run
    for name in EXPECTED_FILES:
        assert (result.out_dir / name).is_file(), name
    assert set(result.artifacts) == set(EXPECTED_FILES)


def test_manifest_contents(run):
    cfg, result = run
    manifest = json.loads((result.out_dir / "manifest.json").read_text())
    assert manifest["seed"] == 11
    assert manifest["config_sha256"] == cfg.config_hash()
    assert manifest["tool"]["name"] == "verifake"
    assert manifest["format_versions"]["emb1"] == 1
    listed = set(manifest["artifacts"])
    assert listed == set(EXPECTED_FILES) - {"manifest.json"}
    assert manifest["artifacts"] == sorted(manifest["artifacts"])


def test_report_covers_both_methods(run):
    _, result = run
    methods = {row.method for row in result.report.rows}
    assert methods == {"FaceSwap", "NeuralTextures"}
    groups = {row.group for row in result.report.rows}
    assert groups == {"identity-swap", "expression-swap"}


def test_counts_match_dataset(run):
    cfg, result = run
    reals = cfg.eval_identities * cfg.samples_per_identity
    fakes = cfg.eval_identities * sum(s.per_subject for s in cfg.swaps)
    assert len(result.dataset) == reals + fakes
    genuine = cfg.eval_identities * (cfg.samples_per_identity - cfg.gallery_size)
    assert result.report.counts["genuine"] == genuine
    assert result.report.counts["imposter"] == fakes


def test_curve_csv_shape(run):
    cfg, result = run
    lines = (result.out_dir / "train_curve.csv").read_text().strip().split("\n")
    assert lines[0] == "epoch,loss"
    assert len(lines) == 1 + cfg.epochs


def test_tsne_subsample_respected(run):
    cfg, result = run
    lines = (result.out_dir / "tsne.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + cfg.tsne_max_points
    kl_lines = (result.out_dir / "kl_trace.csv").read_text().strip().split("\n")
    assert len(kl_lines) == 1 + cfg.tsne_iterations


def test_written_embeddings_load_back(run):
    _, result = run
    ds = read_dataset(result.out_dir / "embeddings.emb1")
    assert ds == result.dataset


def test_rerun_is_byte_identical(run, tmp_path):
    cfg, result = run
    again = run_pipeline(dataclasses.replace(cfg, out_dir=tmp_path / "again"))
    for name in ("report.json", "scores.csv", "embeddings.emb1", "tsne.csv"):
        assert (result.out_dir / name).read_bytes() == (
            again.out_dir / name
        ).read_bytes(), name


def test_insufficient_enrollment_is_a_stage_failure(run, tmp_path):
    # `eval` on a file cannot know its enrollment before the protocol runs
    cfg, result = run
    cfg = dataclasses.replace(cfg, gallery_size=20, out_dir=tmp_path / "fail")
    with pytest.raises(StageFailure) as info:
        execute(cfg, eval_command, result.dataset)
    assert info.value.stage == "protocol"
    assert isinstance(info.value.cause, InsufficientEnrollment)
    # eval subjects are offset past the 6 training identities
    assert info.value.cause.subjects == [6, 7, 8, 9]


def test_config_fault_in_a_stage_is_not_a_stage_failure(run):
    # a ConfigError passes through the stage runner unwrapped (exit 2)
    _, result = run
    with pytest.raises(ConfigError, match="gallery size must be >= 1") as info:
        evaluate_dataset(result.dataset, 0, 1)
    assert info.value.field == "gallery_size"


def test_synth_stage_keeps_id_ranges_disjoint():
    cfg = parse_config(PIPE_CFG)
    train_raw, eval_raw = synth_stage(cfg)
    train_ids = set(train_raw.labels.tolist())
    eval_ids = set(eval_raw.labels.tolist())
    assert train_ids == set(range(6))
    assert eval_ids == set(range(6, 10))


def test_evaluate_dataset_matches_pipeline_report(run):
    cfg, result = run
    report, scores = evaluate_dataset(
        result.dataset,
        g=cfg.gallery_size,
        seed=child_seed(cfg.seed, "gallery"),
        aggregation=cfg.aggregation,
        probe_cap=cfg.probe_cap,
    )
    assert scores == result.scores
    assert report.rows == result.report.rows
    assert report.counts == result.report.counts


def test_simulate_fakes_labeling(run):
    cfg, result = run
    fakes = result.dataset.take(result.dataset.fake)
    assert len(fakes) > 0
    for subject, host, method in zip(fakes.subject, fakes.host, fakes.method):
        if method in IDENTITY_SWAP_METHODS:
            assert subject != host
        else:
            assert method in EXPRESSION_SWAP_METHODS
            assert subject == host


def test_simulate_fakes_deterministic(run):
    # the dataset is the reals, then every method's fakes
    cfg, result = run
    reals = result.dataset.take(~result.dataset.fake)
    d1 = simulate_fakes(reals.subject, reals.vectors, cfg.swaps, cfg.seed)
    d2 = simulate_fakes(reals.subject, reals.vectors, cfg.swaps, cfg.seed)
    assert d1 == d2
    assert d1 == result.dataset


SWAP_CASES = {
    "defaults": [
        SwapSettings(Method.FACESWAP, alpha=0.8, sigma=0.05, per_subject=6),
        SwapSettings(Method.NEURALTEXTURES, sigma=0.05, per_subject=6),
    ],
    "every-method": [
        SwapSettings(method, alpha=0.6, sigma=0.3, per_subject=3)
        for method in sorted(IDENTITY_SWAP_METHODS | EXPRESSION_SWAP_METHODS)
    ],
    "noise-free": [
        SwapSettings(Method.FACESWAP, alpha=1.0, sigma=0.0, per_subject=4),
        SwapSettings(Method.DEEPFAKES, alpha=0.0, sigma=0.0, per_subject=4),
        SwapSettings(Method.FACESHIFTER, alpha=0.5, sigma=0.0, per_subject=4),
        SwapSettings(Method.FACE2FACE, sigma=0.0, per_subject=4),
    ],
}


def assert_fakes_match_reference(case):
    # uneven real records per subject, shuffled so pools interleave
    rng = np.random.default_rng(21)
    labels = np.concatenate([np.full(4 + s, 10 + 3 * s) for s in range(5)])
    rng.shuffle(labels)
    vectors = rng.normal(size=(len(labels), 12))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    reals = EmbeddingDataset.reals(labels, vectors)
    dataset = simulate_fakes(labels, vectors, SWAP_CASES[case], seed=77)
    assert dataset.take(slice(len(reals))) == reals
    fakes = dataset.take(slice(len(reals), None))
    expected = reference_simulate_fakes(records_of(reals), SWAP_CASES[case], 77)
    assert len(fakes) == len(expected) > 0
    assert record_keys(records_of(fakes)) == record_keys(expected)


@pytest.mark.parametrize("case", sorted(SWAP_CASES))
def test_simulate_fakes_matches_per_record_reference_bitwise(case):
    assert_fakes_match_reference(case)


@pytest.mark.parametrize("case", sorted(SWAP_CASES))
def test_simulate_fakes_blocks_split_subjects_bitwise(case, monkeypatch):
    # 5-row blocks end inside a subject's run of 3, 4 or 6 fakes
    monkeypatch.setattr(pipeline, "_FAKE_BLOCK", 5)
    assert_fakes_match_reference(case)


def test_training_free_dataset():
    cfg = parse_config(PIPE_CFG)
    ds1 = synth_embedding_dataset(cfg)
    ds2 = synth_embedding_dataset(cfg)
    assert ds1 == ds2
    assert (~ds1.fake).sum() == cfg.eval_identities * cfg.samples_per_identity
    assert ds1.fake.sum() == cfg.eval_identities * sum(s.per_subject for s in cfg.swaps)
    assert ds1.dim == cfg.raw_dim
    norms = np.linalg.norm(ds1.vectors.astype(np.float64), axis=1)
    assert np.abs(norms - 1.0).max() < 1e-5


def test_tsne_disabled_skips_files(tmp_path):
    cfg = parse_config(PIPE_CFG + "tsne.enabled = false\n")
    result = run_pipeline(dataclasses.replace(cfg, out_dir=tmp_path / "no_tsne"))
    assert not (result.out_dir / "tsne.csv").exists()
    assert not (result.out_dir / "kl_trace.csv").exists()
    manifest = json.loads((result.out_dir / "manifest.json").read_text())
    assert "tsne.csv" not in manifest["artifacts"]


def test_synth_working_set_is_bounded():
    # the reals are cast straight into the final columns and the fakes are
    # simulated in row blocks: no whole-dataset temporaries
    cfg = PipelineConfig(eval_identities=60)
    dataset, peak = traced_peak(synth_embedding_dataset, cfg)
    columns = sum(column.nbytes for column in dataset._columns())
    assert peak <= 3.5 * columns, f"peak {peak} bytes is {peak / columns:.2f}x the columns"


@pytest.fixture(scope="module")
def scale_dataset():
    """The `synth` dataset at 200 eval identities, as in the scale config:
    12,000 reals and 16,000 fakes."""
    return synth_embedding_dataset(PipelineConfig(eval_identities=200))


def test_synth_working_set_at_scale_is_bounded(scale_dataset):
    # the float64 samples are dropped before the final columns are allocated
    dataset, peak = traced_peak(synth_embedding_dataset, PipelineConfig(eval_identities=200))
    assert dataset == scale_dataset
    columns = sum(column.nbytes for column in dataset._columns())
    assert peak <= 1.6 * columns, f"peak {peak} bytes is {peak / columns:.2f}x the columns"


def test_evaluate_working_set_is_within_the_columns(scale_dataset):
    # the protocol gathers each host's probes from the dataset by row index:
    # no copy of the probe columns
    (_, scores), peak = traced_peak(evaluate_dataset, scale_dataset, 20, 7)
    assert len(scores) == 24_000
    columns = sum(column.nbytes for column in scale_dataset._columns())
    assert peak <= 1.0 * columns, f"peak {peak} bytes is {peak / columns:.2f}x the columns"


class _NullSink:
    """A text file that keeps nothing: it consumes each line it is given."""

    def write(self, text):
        pass

    def writelines(self, lines):
        for _ in lines:
            pass


def test_scores_csv_working_set_is_bounded(scale_dataset):
    # the score columns become Python values a block of rows at a time
    _, scores = evaluate_dataset(scale_dataset, 20, 7)
    _, peak = traced_peak(scores_to_csv, scores, _NullSink())
    columns = sum(column.nbytes for column in scores._columns())
    assert peak <= 2.0 * columns, f"peak {peak} bytes is {peak / columns:.2f}x the columns"
