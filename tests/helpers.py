"""Shared numeric helpers for the test suite."""

import numpy as np

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
