"""Margin family, plain softmax, and triplet losses.

Derived oracle values are frozen from independent scalar evaluation
(stdlib math) and finite differences; see the inline notes.
"""

import math

import numpy as np
import pytest

from helpers import (
    fd_grad,
    reference_triplet_batch,
    reference_triplet_loss,
    rel_err,
    unit_cols,
    unit_rows,
)
from verifake.errors import ConfigError, VerifakeError
from verifake.losses import (
    ARCCOS_EPS,
    DEFAULT_SCALE,
    MARGIN_PRESETS,
    ClassHead,
    MarginConfig,
    TripletConfig,
    margin_loss,
    margin_preset,
    plain_softmax_loss,
    target_logit,
    triplet_loss,
    triplet_loss_batch,
)

# oracle: math.cos(math.acos(0.8) + 0.3) - 0.2
PSI_COMBINED_08 = 0.3869570673036811
# oracle: math.log(1 + math.exp(-1))
TWO_LOGIT_CE = 0.31326168751822286


def test_preset_table():
    assert MARGIN_PRESETS["arcface"] == (1.0, 0.5, 0.0)
    assert MARGIN_PRESETS["cosface"] == (1.0, 0.0, 0.35)
    assert MARGIN_PRESETS["sphereface"] == (1.35, 0.0, 0.0)
    assert MARGIN_PRESETS["combined"] == (1.0, 0.3, 0.2)
    cfg = margin_preset("cosface")
    assert cfg.s == DEFAULT_SCALE == 64.0
    with pytest.raises(ConfigError):
        margin_preset("bogus")


def test_margin_config_validation():
    with pytest.raises(ConfigError):
        MarginConfig(m1=0.9)
    with pytest.raises(ConfigError):
        MarginConfig(m2=math.pi)
    with pytest.raises(ConfigError):
        MarginConfig(m2=-0.1)
    with pytest.raises(ConfigError):
        MarginConfig(m3=1.0)
    with pytest.raises(ConfigError):
        MarginConfig(s=-1.0)
    MarginConfig(s=0.0)  # degenerate constant loss is allowed


def test_triplet_config_validation():
    with pytest.raises(ConfigError):
        TripletConfig(0.0)
    with pytest.raises(ConfigError):
        TripletConfig(math.pi)
    assert TripletConfig().margin == 0.5


def test_target_logit_identity_case():
    assert target_logit(0.8, MarginConfig(1, 0, 0)) == pytest.approx(0.8, abs=1e-12)


def test_target_logit_cosine_margin():
    assert target_logit(0.8, MarginConfig(1, 0, 0.2)) == pytest.approx(0.6, abs=1e-12)


def test_target_logit_combined_oracle():
    got = target_logit(0.8, MarginConfig(1, 0.3, 0.2))
    assert got == pytest.approx(PSI_COMBINED_08, abs=1e-12)


def test_target_logit_total_no_nan():
    cfgs = [MarginConfig(*MARGIN_PRESETS[k]) for k in MARGIN_PRESETS]
    grid = np.linspace(-2.0, 2.0, 4001)
    for cfg in cfgs:
        vals = np.array([target_logit(float(a), cfg) for a in grid])
        assert np.all(np.isfinite(vals))


def test_target_logit_monotone_in_cos():
    # psi is non-decreasing in cos(theta), including across the linear
    # fallback region reached by large m1*theta + m2
    cfg = MarginConfig(1.35, 0.4, 0.1)
    grid = np.linspace(-1.0, 1.0, 2001)
    vals = np.array([target_logit(float(a), cfg) for a in grid])
    assert np.all(np.diff(vals) >= -1e-12)


def test_target_logit_monotone_in_margins():
    for m2 in (0.0, 0.1, 0.2, 0.3):
        a = target_logit(0.5, MarginConfig(1, m2, 0))
        b = target_logit(0.5, MarginConfig(1, m2 + 0.05, 0))
        assert b < a
    for m3 in (0.0, 0.1, 0.2):
        a = target_logit(0.5, MarginConfig(1, 0, m3))
        b = target_logit(0.5, MarginConfig(1, 0, m3 + 0.05))
        assert b < a


class _RecordingScale(float):
    """A logit scale that records each array it multiplies from the left:
    margin_loss forms `s * cosines`, then `s * psi` for the target logits."""

    def __new__(cls, value):
        scale = super().__new__(cls, value)
        scale.operands = []
        return scale

    def __mul__(self, other):
        self.operands.append(other)
        return float(self) * other


@pytest.mark.parametrize("name", sorted(MARGIN_PRESETS))
def test_margin_loss_target_logits_are_target_logit(name):
    # the map training runs is the one the target_logit tests above check:
    # target cosines from 1 to -1 reach the arccos clamp at both ends and,
    # for every angular margin, the linear region where u > pi
    theta = np.linspace(0.0, math.pi, 20001)
    X = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    scale = _RecordingScale(DEFAULT_SCALE)
    cfg = MarginConfig(*MARGIN_PRESETS[name], s=scale)
    margin_loss(X, np.zeros(len(X), dtype=np.int64), ClassHead(np.eye(2)), cfg)
    cosines, psi = scale.operands
    target = cosines[:, 0]
    assert np.abs(target).max() >= 1.0 - ARCCOS_EPS
    if (cfg.m1, cfg.m2) != (1.0, 0.0):
        assert np.any(cfg.m1 * np.arccos(target.clip(-1.0, 1.0)) + cfg.m2 > math.pi)
    s = float(scale)
    expected = np.array([s * target_logit(c, cfg) for c in target.tolist()])
    assert (s * psi).tobytes() == expected.tobytes()


def head_and_batch(seed, d=16, c=5, n=8):
    rng = np.random.default_rng(seed)
    X = unit_rows(rng, n, d)
    head = ClassHead(unit_cols(rng, d, c))
    labels = rng.integers(0, c, size=n)
    return X, labels, head


def test_forward_two_logit_oracle():
    # sample sits on its own class center, the other center orthogonal
    X = np.array([[1.0, 0.0]])
    head = ClassHead(np.array([[1.0, 0.0], [0.0, 1.0]]))
    loss = margin_loss(X, [0], head, MarginConfig(1, 0, 0, s=1.0))[0]
    assert loss == pytest.approx(TWO_LOGIT_CE, abs=1e-9)


def test_forward_equidistant_ln_c():
    d, c = 4, 4
    X = np.full((1, d), 0.5)
    head = ClassHead(np.eye(d))
    loss = margin_loss(X, [2], head, MarginConfig(1, 0, 0))[0]
    assert loss == pytest.approx(math.log(c), abs=1e-9)


def test_forward_loss_increases_with_m3():
    X, labels, head = head_and_batch(11)
    losses = [
        margin_loss(X, labels, head, MarginConfig(1, 0, m3))[0]
        for m3 in (0.0, 0.1, 0.2)
    ]
    assert losses[0] < losses[1] < losses[2]


def test_forward_monotone_in_each_margin():
    X, labels, head = head_and_batch(12)
    base = (1.0, 0.2, 0.1)
    l0 = margin_loss(X, labels, head, MarginConfig(*base))[0]
    for bump in ((1.2, 0.2, 0.1), (1.0, 0.3, 0.1), (1.0, 0.2, 0.2)):
        l1 = margin_loss(X, labels, head, MarginConfig(*bump))[0]
        assert l1 >= l0 - 1e-12


def test_scale_zero_constant_loss_zero_grads():
    X, labels, head = head_and_batch(13)
    cfg = MarginConfig(1, 0.3, 0.2, s=0.0)
    loss, dX, dW = margin_loss(X, labels, head, cfg)
    assert loss == pytest.approx(math.log(head.num_classes), abs=1e-12)
    assert np.all(dX == 0.0) and np.all(dW == 0.0)


def test_label_out_of_range():
    X, _, head = head_and_batch(14)
    with pytest.raises(VerifakeError, match=r"labels must lie in \[0, 5\), got range \[0, 5\]"):
        margin_loss(X, [0, 1, 2, 3, 4, 5, 0, 0], head, margin_preset("cosface"))
    with pytest.raises(VerifakeError, match=r"labels must lie in \[0, 5\), got range \[-1, -1\]"):
        margin_loss(X, [-1] * 8, head, margin_preset("cosface"))


def test_non_normalized_inputs_rejected():
    X, labels, head = head_and_batch(15)
    with pytest.raises(VerifakeError, match="input rows must be unit-norm"):
        margin_loss(X * 1.5, labels, head, margin_preset("cosface"))
    bad_head = ClassHead(head.W * 0.5)
    with pytest.raises(VerifakeError, match="class-center columns must be unit-norm"):
        margin_loss(X, labels, bad_head, margin_preset("cosface"))


def test_non_target_column_permutation_invariance():
    rng = np.random.default_rng(16)
    X = unit_rows(rng, 6, 8)
    W = unit_cols(rng, 8, 5)
    labels = np.zeros(6, dtype=int)
    cfg = margin_preset("combined")
    base = margin_loss(X, labels, ClassHead(W), cfg)[0]
    perm = [0, 3, 1, 4, 2]  # target column stays in place
    permuted = margin_loss(X, labels, ClassHead(W[:, perm]), cfg)[0]
    assert permuted == pytest.approx(base, abs=1e-12)


@pytest.mark.parametrize(
    "preset", ["arcface", "cosface", "sphereface", "combined", "identity"]
)
def test_margin_gradients_match_finite_differences(preset):
    cfg = MarginConfig(1, 0, 0) if preset == "identity" else margin_preset(preset)
    for seed in (21, 22, 23):
        X, labels, head = head_and_batch(seed)
        dX, dW = margin_loss(X, labels, head, cfg)[1:]
        fd_X = fd_grad(lambda: margin_loss(X, labels, head, cfg)[0], X)
        fd_W = fd_grad(lambda: margin_loss(X, labels, head, cfg)[0], head.W)
        assert rel_err(dX, fd_X) < 1e-4
        assert rel_err(dW, fd_W) < 1e-4


def scaled_softmax_oracle(X, labels, W, s):
    """Independent scaled-cosine softmax: plain cross-entropy over
    s * (X W) logits for unit inputs, gradients carried through the
    normalization by explicit tangential projection."""
    head = ClassHead(s * W, np.zeros(W.shape[1]))
    loss, dX_flat, dSW, _ = plain_softmax_loss(X, labels, head)
    dX = dX_flat - (dX_flat * X).sum(axis=1, keepdims=True) * X
    dW_flat = s * dSW
    dW = dW_flat - (dW_flat * W).sum(axis=0, keepdims=True) * W
    return loss, dX, dW


def test_identity_margin_equals_scaled_softmax():
    cfg = MarginConfig(1, 0, 0, s=DEFAULT_SCALE)
    for seed in (31, 32, 33, 34):
        X, labels, head = head_and_batch(seed)
        loss, dX, dW = margin_loss(X, labels, head, cfg)
        o_loss, o_dX, o_dW = scaled_softmax_oracle(X, labels, head.W, cfg.s)
        assert loss == pytest.approx(o_loss, abs=1e-9)
        assert np.abs(dX - o_dX).max() < 1e-9
        assert np.abs(dW - o_dW).max() < 1e-9


def test_plain_softmax_equal_logits():
    head = ClassHead(np.zeros((4, 5)))
    X = np.random.default_rng(41).normal(size=(3, 4))
    loss, _, _, _ = plain_softmax_loss(X, [0, 1, 2], head)
    assert loss == pytest.approx(math.log(5), abs=1e-12)


def test_plain_softmax_saturated():
    head = ClassHead(np.zeros((4, 3)), np.array([20.0, 0.0, 0.0]))
    loss, _, _, _ = plain_softmax_loss(np.zeros((1, 4)), [0], head)
    assert loss < 1e-8


def test_plain_softmax_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(3):
        X = rng.normal(size=(8, 16))
        head = ClassHead(rng.normal(size=(16, 5)), rng.normal(size=5))
        labels = rng.integers(0, 5, size=8)
        _, dX, dW, db = plain_softmax_loss(X, labels, head)
        fd_X = fd_grad(lambda: plain_softmax_loss(X, labels, head)[0], X)
        fd_W = fd_grad(lambda: plain_softmax_loss(X, labels, head)[0], head.W)
        fd_b = fd_grad(lambda: plain_softmax_loss(X, labels, head)[0], head.b)
        assert rel_err(dX, fd_X) < 1e-4
        assert rel_err(dW, fd_W) < 1e-4
        assert rel_err(db, fd_b) < 1e-4


def test_plain_softmax_label_error():
    head = ClassHead(np.zeros((4, 3)))
    with pytest.raises(VerifakeError, match=r"labels must lie in \[0, 3\), got range \[3, 3\]"):
        plain_softmax_loss(np.zeros((1, 4)), [3], head)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def test_triplet_inactive_hinge():
    a = unit([1.0, 0.0, 0.0])
    n = unit([0.0, 1.0, 0.0])
    loss, (da, dp, dn) = triplet_loss(a, a.copy(), n, TripletConfig(0.5))
    assert loss == 0.0
    assert np.all(da == 0.0) and np.all(dp == 0.0) and np.all(dn == 0.0)


def test_triplet_hinge_arithmetic():
    # theta(a,p) = 1.0 rad, theta(a,n) = 0.8 rad, margin 0.2 -> loss 0.4
    a = np.array([1.0, 0.0, 0.0])
    p = np.array([math.cos(1.0), math.sin(1.0), 0.0])
    n = np.array([math.cos(0.8), 0.0, math.sin(0.8)])
    loss, _ = triplet_loss(a, p, n, TripletConfig(0.2))
    assert loss == pytest.approx(0.4, abs=1e-9)


def test_triplet_zero_iff_separated():
    a = np.array([1.0, 0.0, 0.0])
    margin = 0.3
    for gap, expect_zero in ((0.4, True), (0.2, False)):
        p = np.array([math.cos(0.5), math.sin(0.5), 0.0])
        n = np.array([math.cos(0.5 + gap), 0.0, math.sin(0.5 + gap)])
        loss, _ = triplet_loss(a, p, n, TripletConfig(margin))
        assert (loss == 0.0) == expect_zero
        assert loss >= 0.0


def test_triplet_gradients_match_finite_differences():
    rng = np.random.default_rng(51)
    cfg = TripletConfig(0.5)
    checked = 0
    while checked < 3:
        a = unit(rng.normal(size=16))
        p = unit(rng.normal(size=16))
        n = unit(rng.normal(size=16))
        loss, (da, dp, dn) = triplet_loss(a, p, n, cfg)
        if loss == 0.0:
            continue
        checked += 1
        fd_a = fd_grad(lambda: triplet_loss(a, p, n, cfg)[0], a)
        fd_p = fd_grad(lambda: triplet_loss(a, p, n, cfg)[0], p)
        fd_n = fd_grad(lambda: triplet_loss(a, p, n, cfg)[0], n)
        assert rel_err(da, fd_a) < 1e-4
        assert rel_err(dp, fd_p) < 1e-4
        assert rel_err(dn, fd_n) < 1e-4


def test_triplet_rejects_non_unit():
    with pytest.raises(VerifakeError, match="triplet rows must be unit-norm"):
        triplet_loss([2.0, 0.0], [1.0, 0.0], [0.0, 1.0], TripletConfig(0.5))


def triplet_edge_batch(rng, d):
    """Seeded random triples plus the edge cases of the hinge: a == p
    (clamp engaged, dcap = 0), negatives 1e-6 and 1e-3 off -a (inside
    and just outside the clamp), and a separated triple (inactive)."""
    a = unit_rows(rng, 1, d)[0]
    near = unit(rng.normal(size=d))
    rows = list(unit_rows(rng, 3 * 12, d))
    rows += [a, a.copy(), unit(a + 0.3 * near)]
    rows += [a, unit(-a + 0.3 * near), unit(-a + 1e-6 * near)]
    rows += [a, unit(-a + 0.3 * near), unit(-a + 1e-3 * near)]
    rows += [a, unit(a + 0.05 * near), unit(-a + 0.3 * near)]
    return np.array(rows)


def assert_bitwise(x, y):
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    assert x.shape == y.shape and x.tobytes() == y.tobytes()


def test_triplet_batch_matches_per_triple_reference_bitwise():
    rng = np.random.default_rng(71)
    for d, margin in ((8, 0.5), (64, 0.5), (16, 2.0)):
        cfg = TripletConfig(margin)
        E = triplet_edge_batch(rng, d)
        loss, dE = triplet_loss_batch(E, cfg)
        ref_loss, ref_dE = reference_triplet_batch(E, cfg)
        assert_bitwise(loss, ref_loss)
        assert_bitwise(dE, ref_dE)
        # the batch mixes live and dead hinges
        live = np.abs(dE).reshape(-1, 3 * d).max(axis=1) > 0.0
        assert live.any() and not live.all()
        # every triple alone: a batch of 1, and the one-triple wrapper
        for b in range(E.shape[0] // 3):
            for got, want in zip(
                triplet_loss_batch(E[3 * b : 3 * b + 3], cfg),
                reference_triplet_batch(E[3 * b : 3 * b + 3], cfg),
            ):
                assert_bitwise(got, want)
            one, grads = triplet_loss(E[3 * b], E[3 * b + 1], E[3 * b + 2], cfg)
            ref_one, ref_grads = reference_triplet_loss(E[3 * b], E[3 * b + 1], E[3 * b + 2], cfg)
            assert_bitwise(one, ref_one)
            for g, r in zip(grads, ref_grads):
                # only the sign of a zero may differ: the batch adds each
                # gradient into zeros, as the training step always did
                assert_bitwise(g, r + 0.0)


def test_triplet_batch_edge_cases_engage_the_clamp():
    rng = np.random.default_rng(72)
    E = triplet_edge_batch(rng, 8)
    cfg = TripletConfig(0.5)
    a, p, n = E[-12:-9]  # a == p, live hinge
    loss, (_, dp, dn) = reference_triplet_loss(a, p, n, cfg)
    assert loss > 0.0 and np.all(dp == 0.0) and np.any(dn != 0.0)
    a, p, n = E[-9:-6]  # negative within the clamp of -a, live hinge
    loss, (_, dp, dn) = reference_triplet_loss(a, p, n, cfg)
    assert loss > 0.0 and np.all(dn == 0.0) and np.any(dp != 0.0)
    a, p, n = E[-6:-3]  # negative just outside the clamp
    loss, (_, _, dn) = reference_triplet_loss(a, p, n, cfg)
    assert -1.0 + ARCCOS_EPS < a @ n < -1.0 + 1e-5
    assert loss > 0.0 and np.any(dn != 0.0)
    a, p, n = E[-3:]
    assert reference_triplet_loss(a, p, n, cfg)[0] == 0.0


def test_triplet_batch_rejects_bad_rows():
    rng = np.random.default_rng(73)
    E = unit_rows(rng, 6, 4)
    E[4] *= 1.5
    with pytest.raises(VerifakeError, match="triplet rows must be unit-norm"):
        triplet_loss_batch(E, TripletConfig(0.5))
    with pytest.raises(VerifakeError, match=r"triplet batch must be \(3B, d\), got shape \(4, 4\)"):
        triplet_loss_batch(unit_rows(rng, 4, 4), TripletConfig(0.5))
    with pytest.raises(VerifakeError, match="triplet vectors must share one dimension"):
        triplet_loss([1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0], TripletConfig(0.5))


def test_class_head_initialized_unit_columns():
    head = ClassHead.initialized(16, 5, np.random.default_rng(61))
    norms = np.linalg.norm(head.W, axis=0)
    assert np.abs(norms - 1.0).max() < 1e-12
    assert np.all(head.b == 0.0)
    assert head.num_classes == 5 and head.W.shape == (16, 5)


def test_class_head_shape_validation():
    with pytest.raises(ConfigError):
        ClassHead(np.zeros(4))
    with pytest.raises(ConfigError):
        ClassHead(np.zeros((4, 3)), np.zeros(2))
