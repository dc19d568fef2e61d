"""Shared numeric helpers for the test suite."""

import math

import numpy as np

from verifake.errors import NormalizationError
from verifake.losses import ARCCOS_EPS, TripletConfig, _unit_rows
from verifake.tsne import joint_affinities, kl_divergence, kl_gradient


def rel_err(analytic, numeric) -> float:
    """Max absolute difference scaled by the largest gradient magnitude.

    Guards against blow-up on near-zero entries while still demanding
    agreement where the gradient actually has mass.
    """
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    scale = max(float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)), 1e-8)
    return float(np.abs(a - b).max(initial=0.0)) / scale


def fd_grad(f, x, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f() with respect to array x.

    f must read x by reference; entries are perturbed in place and
    restored.
    """
    x = np.asarray(x)
    grad = np.zeros(x.shape, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    X = rng.normal(size=(n, d))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def unit_cols(rng: np.random.Generator, d: int, c: int) -> np.ndarray:
    W = rng.normal(size=(d, c))
    return W / np.linalg.norm(W, axis=0, keepdims=True)


def reference_tsne(X, cfg):
    """The two-kernel t-SNE loop, built from the public gradient and KL:
    every iteration builds the Student-t kernel once for the gradient and
    once more for the KL of the updated layout. `run_tsne` must match it
    bit for bit."""
    X = np.asarray(X, dtype=np.float64)
    P = joint_affinities(X, cfg.perplexity).P
    rng = np.random.default_rng(cfg.seed)
    Y = rng.normal(0.0, cfg.init_std, size=(X.shape[0], cfg.output_dim))
    velocity = np.zeros_like(Y)
    kl_trace = np.zeros(cfg.iterations, dtype=np.float64)
    for it in range(cfg.iterations):
        P_eff = P * cfg.early_exaggeration if it < cfg.exaggeration_until else P
        grad = kl_gradient(P_eff, Y)
        momentum = cfg.momentum_start if it < cfg.momentum_switch else cfg.momentum_final
        velocity = momentum * velocity - cfg.learning_rate * grad
        Y = Y + velocity
        kl_trace[it] = kl_divergence(P, Y)
    return Y, kl_trace


def reference_triplet_loss(anchor, positive, negative, cfg: TripletConfig):
    """The one-triple angular triplet loss as it was written before the
    batched form: (loss, (da, dp, dn)) for max(0, theta(a,p) - theta(a,n)
    + margin), gradients through the renormalization."""
    A, na = _unit_rows(np.asarray(anchor, dtype=np.float64)[None, :], "anchor")
    P, npos = _unit_rows(np.asarray(positive, dtype=np.float64)[None, :], "positive")
    Ng, nneg = _unit_rows(np.asarray(negative, dtype=np.float64)[None, :], "negative")
    a, p, ng = A[0], P[0], Ng[0]
    if not (a.shape == p.shape == ng.shape):
        raise NormalizationError("triplet vectors must share one dimension")

    cap_raw = float(a @ p)
    can_raw = float(a @ ng)
    cap = min(1.0 - ARCCOS_EPS, max(-1.0 + ARCCOS_EPS, cap_raw))
    can = min(1.0 - ARCCOS_EPS, max(-1.0 + ARCCOS_EPS, can_raw))
    loss = math.acos(cap) - math.acos(can) + cfg.margin

    zeros = np.zeros_like(a)
    if loss <= 0.0:
        return 0.0, (zeros, zeros.copy(), zeros.copy())

    # dtheta/dcos = -1/sqrt(1-c^2); zero where the clamp was engaged
    dcap = -1.0 / math.sqrt(1.0 - cap * cap) if abs(cap_raw) < 1.0 - ARCCOS_EPS else 0.0
    dcan = 1.0 / math.sqrt(1.0 - can * can) if abs(can_raw) < 1.0 - ARCCOS_EPS else 0.0

    da_hat = dcap * p + dcan * ng
    dp_hat = dcap * a
    dn_hat = dcan * a

    def through_norm(g, unit, norm):
        return (g - float(g @ unit) * unit) / norm

    da = through_norm(da_hat, a, na[0])
    dp = through_norm(dp_hat, p, npos[0])
    dn = through_norm(dn_hat, ng, nneg[0])
    return float(loss), (da, dp, dn)


def reference_triplet_batch(e, cfg: TripletConfig):
    """The per-triple training step over rows a0, p0, n0, a1, ...:
    `reference_triplet_loss` once per triple, losses summed in triple
    order and gradients added into a zero array. `triplet_loss_batch`
    must match it bit for bit."""
    de = np.zeros_like(e)
    loss_sum = 0.0
    for b in range(e.shape[0] // 3):
        la, (da, dp, dn) = reference_triplet_loss(e[3 * b], e[3 * b + 1], e[3 * b + 2], cfg)
        loss_sum += la
        de[3 * b] += da
        de[3 * b + 1] += dp
        de[3 * b + 2] += dn
    return loss_sum, de
