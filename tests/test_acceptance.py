"""Acceptance gate: one test per release criterion.

Each test is self-contained, seeded, and asserts its own runtime budget
where the criterion specifies one. Run with -v to get one pass/fail line
per criterion.
"""

import json
import pathlib
import time

import numpy as np
import pytest
from helpers import fd_grad, rel_err, unit_cols, unit_rows

from verifake.cli import EXIT_OK, main
from verifake.config import PipelineConfig, SwapSettings, parse_config
from verifake.dataset_io import read_dataset, write_dataset
from verifake.embeddings import (
    Method,
    between_center_cosine,
    within_identity_cosine,
)
from verifake.errors import InsufficientEnrollment, SubjectOverlap
from verifake.losses import (
    ClassHead,
    MarginConfig,
    TripletConfig,
    margin_loss,
    margin_preset,
    plain_softmax_loss,
    triplet_loss,
)
from verifake.metrics import auc, eer
from verifake.pipeline import run_pipeline, synth_embedding_dataset
from verifake.protocol import assert_subject_disjoint, build_gallery
from verifake.synthetic import SyntheticSpec, generate_identities
from verifake.trainer import TrainConfig, extract_embeddings, train_embedder
from verifake.tsne import (
    calibrate_sigma,
    joint_affinities,
    kl_divergence,
    kl_gradient,
    row_affinities,
    run_tsne,
    TsneConfig,
)

GRAD_TOL = 1e-4
ORACLE_TOL = 1e-9
D, C, N = 16, 5, 8


def _scaled_softmax_oracle(X, labels, W, s):
    """Softmax CE over s * cos logits, gradients projected through the
    row/column renormalization the margin loss applies internally."""
    head = ClassHead(s * W)
    loss, dX, dWs, _ = plain_softmax_loss(X, labels, head)
    dW = s * dWs
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    Wn = W / np.linalg.norm(W, axis=0, keepdims=True)
    dX = dX - (dX * Xn).sum(axis=1, keepdims=True) * Xn
    dW = dW - (dW * Wn).sum(axis=0, keepdims=True) * Wn
    return loss, dX, dW


def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    worst = 0.0

    # combined-margin loss: five presets x 20 seeded instances
    presets = [
        margin_preset("arcface"),
        margin_preset("cosface"),
        margin_preset("sphereface"),
        margin_preset("combined"),
        MarginConfig(1.0, 0.0, 0.0, s=64.0),
    ]
    for pi, cfg in enumerate(presets):
        for k in range(20):
            rng = np.random.default_rng(1000 + 100 * pi + k)
            X = unit_rows(rng, N, D)
            head = ClassHead(unit_cols(rng, D, C))
            labels = rng.integers(0, C, size=N)
            dX, dW = margin_loss(X, labels, head, cfg)[1:]
            fdX = fd_grad(lambda: margin_loss(X, labels, head, cfg)[0], X)
            fdW = fd_grad(lambda: margin_loss(X, labels, head, cfg)[0], head.W)
            worst = max(worst, rel_err(dX, fdX), rel_err(dW, fdW))

    # plain softmax: 100 seeded instances, gradients wrt X, W, and b
    for k in range(100):
        rng = np.random.default_rng(2000 + k)
        X = rng.normal(size=(N, D))
        head = ClassHead(rng.normal(size=(D, C)), rng.normal(size=C))
        labels = rng.integers(0, C, size=N)
        _, dX, dW, db = plain_softmax_loss(X, labels, head)
        fdX = fd_grad(lambda: plain_softmax_loss(X, labels, head)[0], X)
        fdW = fd_grad(lambda: plain_softmax_loss(X, labels, head)[0], head.W)
        fdb = fd_grad(lambda: plain_softmax_loss(X, labels, head)[0], head.b)
        worst = max(worst, rel_err(dX, fdX), rel_err(dW, fdW), rel_err(db, fdb))

    # triplet: 100 seeded instances, skipping draws within 1e-3 of the
    # hinge kink where central differences are meaningless
    tcfg = TripletConfig(margin=0.5)
    checked, seed = 0, 3000
    while checked < 100:
        rng = np.random.default_rng(seed)
        seed += 1
        a, p, n_vec = unit_rows(rng, 3, D)
        slack = (
            float(np.arccos(np.clip(a @ p, -1, 1)))
            - float(np.arccos(np.clip(a @ n_vec, -1, 1)))
            + tcfg.margin
        )
        if abs(slack) < 1e-3:
            continue
        _, (da, dp, dn) = triplet_loss(a, p, n_vec, tcfg)
        fda = fd_grad(lambda: triplet_loss(a, p, n_vec, tcfg)[0], a)
        fdp = fd_grad(lambda: triplet_loss(a, p, n_vec, tcfg)[0], p)
        fdn = fd_grad(lambda: triplet_loss(a, p, n_vec, tcfg)[0], n_vec)
        worst = max(
            worst, rel_err(da, fda), rel_err(dp, fdp), rel_err(dn, fdn)
        )
        checked += 1

    # t-SNE KL layout gradient: 100 seeded 10-point instances
    for k in range(100):
        rng = np.random.default_rng(4000 + k)
        X = rng.normal(size=(10, 4))
        P = joint_affinities(X, 3.0).P
        Y = rng.normal(size=(10, 2))
        analytic = kl_gradient(P, Y)
        numeric = fd_grad(lambda: kl_divergence(P, Y), Y)
        worst = max(worst, rel_err(analytic, numeric))

    elapsed = time.monotonic() - start
    print(f"criterion 1: worst gradient rel err {worst:.3e}, {elapsed:.1f} s")
    assert worst < GRAD_TOL
    assert elapsed < 30.0


def test_criterion_2_auc_concordance_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst_pair = 0.0
    worst_comp = 0.0
    for k in range(200):
        ng = int(rng.integers(1, 51))
        ni = int(rng.integers(1, 51))
        if k % 2 == 0:
            # coarse grid forces duplicated values within and across lists
            g = rng.integers(0, 12, size=ng) / 11.0
            i = rng.integers(0, 12, size=ni) / 11.0
        else:
            g = rng.uniform(-1.0, 1.0, size=ng)
            i = rng.uniform(-1.0, 1.0, size=ni)
        oracle = float(
            ((g[:, None] > i[None, :]) + 0.5 * (g[:, None] == i[None, :])).mean()
        )
        worst_pair = max(worst_pair, abs(auc(g, i) - oracle))
        worst_comp = max(worst_comp, abs(auc(g, i) + auc(i, g) - 1.0))
    elapsed = time.monotonic() - start
    print(
        f"criterion 2: max |auc - concordance| {worst_pair:.2e}, "
        f"max complement residual {worst_comp:.2e}, {elapsed:.1f} s"
    )
    assert worst_pair < ORACLE_TOL
    assert worst_comp < ORACLE_TOL
    assert elapsed < 5.0


def test_criterion_3_eer_hand_checks():
    assert eer([0.9, 0.8], [0.1, 0.2]) == 0.0
    assert eer([0.5], [0.5]) == 0.5
    assert eer([0.9, 0.8, 0.3], [0.7, 0.2, 0.1]) == 1.0 / 3.0


def test_criterion_4_identity_vs_expression_contrast(tmp_path):
    start = time.monotonic()
    cfg = PipelineConfig(
        seed=42,
        out_dir=tmp_path / "contrast",
        swaps=[
            SwapSettings(Method.FACESWAP, alpha=0.8, sigma=0.05, per_subject=80),
            SwapSettings(Method.NEURALTEXTURES, sigma=0.05, per_subject=80),
        ],
        probe_cap=200,
        tsne_enabled=False,
    )
    assert cfg.eval_identities == 10
    assert cfg.embed_dim == 64
    assert cfg.loss_name == "cosface"
    assert cfg.gallery_size == 20

    result = run_pipeline(cfg)
    rows = {row.group: row for row in result.report.rows}
    identity_eer = rows["identity-swap"].eer_percent
    expression_eer = rows["expression-swap"].eer_percent
    # 200 probes per subject: 40 leftover real + 2 x 80 fakes
    assert result.report.counts["total"] == 200 * cfg.eval_identities

    elapsed = time.monotonic() - start
    print(
        f"criterion 4: identity-swap EER {identity_eer}%, "
        f"expression-swap EER {expression_eer}%, {elapsed:.1f} s"
    )
    assert identity_eer < 15.0
    assert 40.0 <= expression_eer <= 60.0
    assert elapsed < 120.0


def test_criterion_5_margin_geometry_ordering():
    start = time.monotonic()
    raw = generate_identities(SyntheticSpec(10, 40, 32, concentration=5.0, seed=0))
    cfg = TrainConfig(batch_size=64, epochs=25, seed=100)

    stats = {}
    for loss in ("softmax", "cosface", "combined"):
        net, _ = train_embedder(raw, loss, cfg, embed_dim=64)
        ds = extract_embeddings(net, raw.features, raw.labels)
        stats[loss] = (within_identity_cosine(ds), between_center_cosine(ds))

    elapsed = time.monotonic() - start
    for loss in ("softmax", "cosface", "combined"):
        w, b = stats[loss]
        print(f"criterion 5: {loss} within {w:.4f} between {b:.4f}")
    print(f"criterion 5: {elapsed:.1f} s")
    for loss in ("cosface", "combined"):
        assert stats[loss][0] > stats["softmax"][0]
        assert stats[loss][1] < stats["softmax"][1]
    assert elapsed < 120.0


def test_criterion_6_identity_margin_equals_scaled_softmax():
    cfg = MarginConfig(1.0, 0.0, 0.0, s=16.0)
    worst = 0.0
    for k in range(50):
        rng = np.random.default_rng(6000 + k)
        X = unit_rows(rng, N, D)
        W = unit_cols(rng, D, C)
        labels = rng.integers(0, C, size=N)
        head = ClassHead(W)

        loss_m, dX_m, dW_m = margin_loss(X, labels, head, cfg)
        loss_o, dX_o, dW_o = _scaled_softmax_oracle(X, labels, W, cfg.s)

        worst = max(
            worst,
            abs(loss_m - loss_o),
            float(np.abs(dX_m - dX_o).max()),
            float(np.abs(dW_m - dW_o).max()),
        )
    print(f"criterion 6: max forward/gradient deviation {worst:.2e}")
    assert worst < ORACLE_TOL


def test_criterion_7_tsne_suite():
    # P-matrix invariants on a seeded input
    X = np.random.default_rng(70).normal(size=(40, 8))
    aff = joint_affinities(X, 10.0)
    assert np.abs(aff.P - aff.P.T).max() < 1e-12
    assert abs(aff.P.sum() - 1.0) < 1e-9
    assert np.all(np.diag(aff.P) == 0.0)

    # calibration within 1e-5 in log2
    row = np.random.default_rng(71).uniform(0.2, 4.0, size=20)
    sigma = calibrate_sigma(row, 5.0)
    p = row_affinities(row, sigma)
    achieved_bits = -float(np.sum(p * np.log2(p)))
    assert abs(achieved_bits - np.log2(5.0)) < 1e-5

    # seeded 60-point 3-cluster instance
    gen = np.random.default_rng(72)
    centers = np.array([[6.0, 0, 0, 0], [0, 6.0, 0, 0], [0, 0, 6.0, 0]])
    points = np.vstack(
        [ctr + gen.normal(0, 0.08, size=(20, 4)) for ctr in centers]
    )
    labels = np.repeat(np.arange(3), 20)
    Y, trace = run_tsne(points, TsneConfig(perplexity=15, iterations=1000, seed=0))
    assert trace[999] < trace[99]
    assert np.all(trace >= 0.0)

    within, between = [], []
    for i in range(len(Y)):
        for j in range(i + 1, len(Y)):
            d = float(np.linalg.norm(Y[i] - Y[j]))
            (within if labels[i] == labels[j] else between).append(d)
    print(
        f"criterion 7: KL[99] {trace[99]:.4f} -> KL[999] {trace[999]:.4f}, "
        f"within {np.mean(within):.1f} < between {np.mean(between):.1f}"
    )
    assert np.mean(within) < np.mean(between)


def test_criterion_8_determinism_and_formats(tmp_path):
    # two cmd_run invocations, byte-identical report JSON
    demo = str(pathlib.Path(__file__).resolve().parents[1] / "demo.cfg")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--config", demo, "--out", str(out1)]) == EXIT_OK
    assert main(["run", "--config", demo, "--out", str(out2)]) == EXIT_OK
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    # EMB1 round-trip is bit-exact
    cfg = PipelineConfig(
        seed=8,
        eval_identities=4,
        samples_per_identity=10,
        tsne_enabled=False,
        swaps=[SwapSettings(Method.FACESWAP, per_subject=5)],
    )
    dataset = synth_embedding_dataset(cfg)
    path = tmp_path / "roundtrip.emb1"
    write_dataset(path, dataset, fmt="emb1")
    loaded = read_dataset(path)
    assert loaded == dataset  # bitwise equality of every record
    assert loaded.dim == dataset.dim

    # subject-disjoint violation fails with the specified error
    with pytest.raises(SubjectOverlap) as overlap:
        assert_subject_disjoint({1, 2}, {2, 3})
    assert overlap.value.ids == [2]

    # insufficient enrollment fails with the specified error
    with pytest.raises(InsufficientEnrollment) as short:
        build_gallery(dataset, g=50)
    assert short.value.subjects == [0, 1, 2, 3]

    report = json.loads((out1 / "report.json").read_text())
    print(
        "criterion 8: deterministic reports, "
        f"{len(dataset)} records round-tripped, "
        f"{len(report['rows'])} method rows"
    )
