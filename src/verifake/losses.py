"""Margin-based embedding losses with hand-derived gradients.

The unified margin family modifies the target-class logit of a cosine
classifier to cos(m1*theta + m2) - m3, scaled by s, and covers ArcFace,
CosFace, SphereFace and the combined margin as presets. Plain softmax
(unnormalized logits with bias) and an angular triplet loss complete the
six training objectives.

Inputs to the margin and triplet losses must be unit-norm; they are
renormalized exactly inside the loss so every gradient is taken through
the normalization map (tangential projection). That makes the analytic
gradients agree with central finite differences applied to the forward.
"""

import math
from dataclasses import dataclass

import numpy as np

from .embeddings import INPUT_NORM_TOL, row_dots
from .errors import ConfigError, VerifakeError, check_finite

ARCCOS_EPS = 1e-7

DEFAULT_SCALE = 64.0

LOSS_NAMES = ("softmax", "arcface", "cosface", "sphereface", "combined", "triplet")


@dataclass(frozen=True)
class MarginConfig:
    """Hyper-parameters of the combined margin family.

    m1: multiplicative angular margin, m2: additive angular margin in
    radians, m3: additive cosine margin, s: logit scale. s = 0 is allowed
    and degenerates the loss to the constant ln(C).
    """

    m1: float = 1.0
    m2: float = 0.0
    m3: float = 0.0
    s: float = DEFAULT_SCALE

    def __post_init__(self):
        check_finite(self, "m1", "m2", "m3", "s")
        if self.m1 < 1.0:
            raise ConfigError(f"m1 must be >= 1, got {self.m1}", field="m1")
        if not 0.0 <= self.m2 < math.pi:
            raise ConfigError(f"m2 must be in [0, pi), got {self.m2}", field="m2")
        if not 0.0 <= self.m3 < 1.0:
            raise ConfigError(f"m3 must be in [0, 1), got {self.m3}", field="m3")
        if self.s < 0.0:
            raise ConfigError(f"s must be >= 0, got {self.s}", field="s")


# (m1, m2, m3) presets; the combined values are the ones used throughout,
# the rest follow the conventions of the works each loss comes from.
MARGIN_PRESETS = {
    "arcface": (1.0, 0.5, 0.0),
    "cosface": (1.0, 0.0, 0.35),
    "sphereface": (1.35, 0.0, 0.0),
    "combined": (1.0, 0.3, 0.2),
}


def margin_preset(name: str) -> MarginConfig:
    """Return the MarginConfig for a named preset (arcface, cosface,
    sphereface, combined)."""
    try:
        m1, m2, m3 = MARGIN_PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown margin preset {name!r}, expected one of {sorted(MARGIN_PRESETS)}"
        ) from None
    return MarginConfig(m1, m2, m3)


@dataclass(frozen=True)
class TripletConfig:
    """Angular triplet loss margin, in radians."""

    margin: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.margin < math.pi:
            raise ConfigError(
                f"triplet margin must be in (0, pi), got {self.margin}", field="margin"
            )


@dataclass
class ClassHead:
    """Class-center weights W (d x C, one column per class) plus bias b.

    The bias is only used by plain softmax; margin losses normalize the
    columns and ignore b.
    """

    W: np.ndarray
    b: np.ndarray = None

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        if self.W.ndim != 2:
            raise ConfigError(f"W must be d x C, got shape {self.W.shape}")
        if self.b is None:
            self.b = np.zeros(self.W.shape[1])
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.b.shape != (self.W.shape[1],):
            raise ConfigError(
                f"b must have shape ({self.W.shape[1]},), got {self.b.shape}"
            )

    @property
    def num_classes(self) -> int:
        return self.W.shape[1]

    @staticmethod
    def initialized(dim: int, num_classes: int, rng: np.random.Generator) -> "ClassHead":
        """Random head with unit-norm columns and zero bias."""
        W = rng.normal(size=(dim, num_classes))
        W /= np.linalg.norm(W, axis=0, keepdims=True)
        return ClassHead(W)


def _margin_map(raw_target, cfg: MarginConfig):
    """The margin map psi = cos(m1*theta + m2) - m3 of the (N,) target
    cosines a, and dpsi/da: (psi, dpsi_da).

    a is clamped to [-1 + 1e-7, 1 - 1e-7] before arccos, and for
    m1*theta + m2 beyond pi psi continues linearly with slope -m1 in
    theta, keeping it monotone and its gradient finite; dpsi/da is 0
    where the clamp was engaged. With m1 = 1 and m2 = 0 the angular map
    is the identity, so psi is a - m3 without the arccos round trip.
    """
    if cfg.m1 == 1.0 and cfg.m2 == 0.0:
        # trivial angular map: stay exact at cosines of +-1 and keep the
        # gradient free of the clamp's dead zone
        return raw_target - cfg.m3, 1.0
    a = np.clip(raw_target, -1.0 + ARCCOS_EPS, 1.0 - ARCCOS_EPS)
    u = cfg.m1 * np.arccos(a) + cfg.m2
    in_range = u <= math.pi
    psi = np.where(in_range, np.cos(u) - cfg.m3, -1.0 - cfg.m3 - (u - math.pi))
    root = np.sqrt(1.0 - a**2)
    dpsi_da = np.where(in_range, cfg.m1 * np.sin(u) / root, cfg.m1 / root)
    dpsi_da = np.where(np.abs(raw_target) < 1.0 - ARCCOS_EPS, dpsi_da, 0.0)
    return psi, dpsi_da


def target_logit(cos_theta: float, cfg: MarginConfig) -> float:
    """Margin-penalized target logit psi = cos(m1*theta + m2) - m3 of one
    cosine: the map margin_loss applies (see _margin_map), bit for bit."""
    psi, _ = _margin_map(np.array([cos_theta], dtype=np.float64), cfg)
    return float(psi[0])


def _unit_vectors(X, axis, what):
    """X as float64 with each vector along `axis` renormalized exactly,
    plus the norms; a VerifakeError unless each is approximately unit."""
    X = np.asarray(X, dtype=np.float64)
    norms = np.linalg.norm(X, axis=axis)
    if np.any(np.abs(norms - 1.0) > INPUT_NORM_TOL):
        worst = float(np.max(np.abs(norms - 1.0)))
        kind = "rows" if axis == 1 else "columns"
        raise VerifakeError(f"{what} {kind} must be unit-norm (max |norm-1| = {worst:.3e})")
    return X / np.expand_dims(norms, axis), norms


def _check_labels(labels, num_classes):
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise VerifakeError(f"labels must be a vector, got shape {labels.shape}")
    if np.any(labels < 0) or np.any(labels >= num_classes):
        raise VerifakeError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    return labels


def _cross_entropy(logits, labels):
    """Mean softmax cross-entropy of (N, C) logits against (N,) class
    indices, and its gradient with respect to the logits: (loss, dlogits)."""
    n = np.arange(labels.shape[0])
    zmax = logits.max(axis=1, keepdims=True)
    expz = np.exp(logits - zmax)
    sumexp = expz.sum(axis=1, keepdims=True)
    ce = (zmax[:, 0] + np.log(sumexp[:, 0])) - logits[n, labels]
    G = expz / sumexp
    G[n, labels] -= 1.0
    G /= labels.shape[0]
    return float(ce.mean()), G


def margin_loss(X, labels, head: ClassHead, cfg: MarginConfig):
    """Mean margin-softmax cross-entropy over a batch, with its gradients.

    X: (N, d) unit-norm embeddings, labels: (N,) class indices. Returns
    (loss, dX, dW). Gradients are taken with respect to the raw inputs,
    i.e. through the internal renormalization: components along each
    vector are projected out and the result is divided by the input's norm.
    """
    if head.num_classes < 2:
        raise ConfigError("margin losses require at least 2 classes")
    labels = _check_labels(labels, head.num_classes)
    Xh, xnorms = _unit_vectors(X, 1, "input")
    Wh, wnorms = _unit_vectors(head.W, 0, "class-center")
    N = labels.shape[0]
    if Xh.shape[0] != N:
        raise VerifakeError("batch size and label count differ")

    cosines = Xh @ Wh  # (N, C)
    n = np.arange(N)
    raw_target = cosines[n, labels]
    psi, dpsi_da = _margin_map(raw_target, cfg)

    logits = cfg.s * cosines
    logits[n, labels] = cfg.s * psi
    loss, G = _cross_entropy(logits, labels)

    # d(logit)/d(cosine): s off target, s * dpsi/da on target
    dC = G * cfg.s
    dC[n, labels] = G[n, labels] * cfg.s * dpsi_da

    dXh = dC @ Wh.T
    dWh = Xh.T @ dC

    # chain through row/column normalization
    dX = (dXh - (dXh * Xh).sum(axis=1, keepdims=True) * Xh) / xnorms[:, None]
    dW = (dWh - (dWh * Wh).sum(axis=0, keepdims=True) * Wh) / wnorms[None, :]
    return loss, dX, dW


def plain_softmax_loss(X, labels, head: ClassHead):
    """Plain softmax cross-entropy over unnormalized logits W^T x + b.

    No normalization, margin, or scale. Returns (loss, dX, dW, db).
    """
    X = np.asarray(X, dtype=np.float64)
    labels = _check_labels(labels, head.num_classes)
    if X.shape[0] != labels.shape[0]:
        raise VerifakeError("batch size and label count differ")

    loss, dZ = _cross_entropy(X @ head.W + head.b, labels)
    dX = dZ @ head.W.T
    dW = X.T @ dZ
    db = dZ.sum(axis=0)
    return loss, dX, dW, db


def triplet_loss_batch(E, cfg: TripletConfig):
    """Summed angular triplet hinge over a batch, with its gradient.

    E: (3B, d) unit-norm rows ordered anchor, positive, negative per
    triple (a0, p0, n0, a1, ...). Returns (loss_sum, dE) where loss_sum
    adds the B hinges max(0, theta(a,p) - theta(a,n) + margin) in triple
    order and dE has E's shape, zero on the rows of inactive triples.
    Gradients are taken through the internal renormalization; each
    triple's values are bit-identical to a batch holding that triple alone.
    """
    E = np.asarray(E, dtype=np.float64)
    if E.ndim != 2 or E.shape[0] == 0 or E.shape[0] % 3:
        raise VerifakeError(f"triplet batch must be (3B, d), got shape {E.shape}")
    En, norms = _unit_vectors(E, 1, "triplet")
    A, P, Ng = En[0::3], En[1::3], En[2::3]

    cap_raw = row_dots(A, P)
    can_raw = row_dots(A, Ng)
    cap = np.clip(cap_raw, -1.0 + ARCCOS_EPS, 1.0 - ARCCOS_EPS)
    can = np.clip(can_raw, -1.0 + ARCCOS_EPS, 1.0 - ARCCOS_EPS)
    # math.acos per triple: np.arccos may take a SIMD path that differs
    # from it in the last bit
    hinge = np.array(
        [math.acos(cp) - math.acos(cn) + cfg.margin for cp, cn in zip(cap.tolist(), can.tolist())]
    )
    t = np.flatnonzero(hinge > 0.0)
    loss_sum = 0.0
    for h in hinge[t].tolist():  # a running sum in triple order, not pairwise
        loss_sum += h

    # dtheta/dcos = -1/sqrt(1-c^2); zero where the clamp was engaged
    cap, can = cap[t], can[t]
    dcap = np.where(np.abs(cap_raw[t]) < 1.0 - ARCCOS_EPS, -1.0 / np.sqrt(1.0 - cap * cap), 0.0)
    dcan = np.where(np.abs(can_raw[t]) < 1.0 - ARCCOS_EPS, 1.0 / np.sqrt(1.0 - can * can), 0.0)
    a, p, ng = A[t], P[t], Ng[t]

    def through_norm(g, unit, rows):
        return (g - row_dots(g, unit)[:, None] * unit) / norms[rows, None]

    dE = np.zeros_like(En)
    dE[3 * t] += through_norm(dcap[:, None] * p + dcan[:, None] * ng, a, 3 * t)
    dE[3 * t + 1] += through_norm(dcap[:, None] * a, p, 3 * t + 1)
    dE[3 * t + 2] += through_norm(dcan[:, None] * a, ng, 3 * t + 2)
    return loss_sum, dE


def triplet_loss(anchor, positive, negative, cfg: TripletConfig):
    """Angular triplet hinge max(0, theta(a,p) - theta(a,n) + margin).

    All three vectors must be unit-norm. Returns (loss, (da, dp, dn));
    gradients are zero when the hinge is inactive and, as for the margin
    loss, are taken through the internal renormalization. One-triple
    case of `triplet_loss_batch`.
    """
    vecs = [np.asarray(v, dtype=np.float64) for v in (anchor, positive, negative)]
    if not (vecs[0].shape == vecs[1].shape == vecs[2].shape):
        raise VerifakeError("triplet vectors must share one dimension")
    loss, dE = triplet_loss_batch(np.stack(vecs), cfg)
    return loss, (dE[0], dE[1], dE[2])
