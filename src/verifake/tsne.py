"""Exact (quadratic-cost) t-SNE for two-component embedding plots.

Input affinities use per-point Gaussian kernels whose bandwidths are
calibrated by binary search so every point sees the same effective
neighbor count (the perplexity). The low-dimensional layout minimizes
KL(P || Q) where Q is a Student-t kernel, by gradient descent with
momentum and an early exaggeration phase, all in this process.

No tree or interpolation approximations: desk-scale inputs (n up to a
few thousand) keep the O(n^2) computation cheap and make the analytic
gradient directly checkable against finite differences.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .embeddings import METHOD_NAMES, row_dots
from .errors import CalibrationWarning, ConfigError, check_finite

MACHINE_EPSILON = np.finfo(np.float64).eps
CALIBRATION_TOL = 1e-5
CALIBRATION_REFINE = 1e-8  # keep bisecting well past the declared tolerance
CALIBRATION_MAX_ITER = 200
DUPLICATE_JITTER = 1e-10
_CALIBRATION_BLOCK = 64  # rows calibrated together; temporaries are O(block x n)
_STRIP_ROWS = 128  # rows per strip of the pairs j >= i that the descent holds

# the optimization schedule of van der Maaten & Hinton (JMLR 2008)
EARLY_EXAGGERATION = 4.0  # P's factor for the first EXAGGERATION_UNTIL iterations
EXAGGERATION_UNTIL = 100
MOMENTUM_START = 0.5  # then MOMENTUM_FINAL from iteration MOMENTUM_SWITCH on
MOMENTUM_FINAL = 0.8
MOMENTUM_SWITCH = 250
INIT_STD = 1e-4  # the layout starts from N(0, INIT_STD^2)


@dataclass(frozen=True)
class TsneConfig:
    """Optimizer settings for run_tsne; the schedule is the module's
    constants. Output dimensionality is fixed at 2."""

    perplexity: float = 30.0
    iterations: int = 1000
    learning_rate: float = 200.0
    seed: int = 0

    def __post_init__(self):
        check_finite(self, "perplexity", "learning_rate")
        if self.perplexity <= 1.0:
            raise ConfigError("perplexity must exceed 1", field="perplexity")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1", field="iterations")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive", field="learning_rate")


@dataclass
class AffinityMatrix:
    """Symmetric joint probabilities P plus the calibrated bandwidths."""

    P: np.ndarray
    sigmas: np.ndarray

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=np.float64)
        self.sigmas = np.asarray(self.sigmas, dtype=np.float64)


def _entropy_bits(S: np.ndarray, beta: np.ndarray):
    """Shannon entropy (bits) and conditional probabilities of the
    Gaussian row kernels exp(-beta_i * s_ij), one beta per row of S.

    The rows of S are squared distances shifted to a minimum of 0, which
    keeps the exponent stable; S must be C-contiguous so each row runs
    through the same exp, sum and dot as a single row would."""
    p = np.multiply(-beta[:, None], S)
    np.exp(p, out=p)
    sum_w = p.sum(axis=1)
    np.divide(p, sum_w[:, None], out=p)
    # H = ln(sum_w) + beta * E[d^2]
    return (np.log(sum_w) + beta * row_dots(S, p)) / np.log(2.0), p


def _calibrated_betas(S: np.ndarray, target_perplexity) -> np.ndarray:
    """Precisions beta = 1/(2 sigma^2) at which each row kernel of S
    (shifted as for `_entropy_bits`) has the target perplexity.

    Every row runs its own binary search, all rows in lockstep: double
    beta until the entropy drops below the goal, then bisect, stopping a
    row once |log2(perplexity) - log2(target)| < CALIBRATION_REFINE. A
    row still open after CALIBRATION_MAX_ITER steps takes its best beta,
    with one CalibrationWarning (in row order) unless that beta is within
    CALIBRATION_TOL.
    """
    goal = np.log2(target_perplexity)
    m = S.shape[0]
    out = np.empty(m)
    live = np.arange(m)
    beta = np.ones(m)
    beta_lo, beta_hi = np.zeros(m), np.full(m, np.inf)
    best_beta, best_err = beta.copy(), np.full(m, np.inf)
    for _ in range(CALIBRATION_MAX_ITER):
        h_bits, _ = _entropy_bits(S, beta)
        err = h_bits - goal
        abs_err = np.abs(err)
        better = abs_err < best_err
        best_err[better], best_beta[better] = abs_err[better], beta[better]
        done = abs_err < CALIBRATION_REFINE
        out[live[done]] = beta[done]
        # entropy too high -> kernel too wide -> raise beta
        high = err > 0
        beta_lo = np.where(high, beta, beta_lo)
        beta_hi = np.where(high, beta_hi, beta)
        beta = np.where(high & (beta_hi == np.inf), beta * 2.0, 0.5 * (beta_lo + beta_hi))
        if done.any():
            open_rows = ~done
            live, S, beta, beta_lo, beta_hi, best_beta, best_err = (
                a[open_rows] for a in (live, S, beta, beta_lo, beta_hi, best_beta, best_err)
            )
            if not live.size:
                return out

    out[live] = best_beta
    for err in best_err[best_err >= CALIBRATION_TOL]:
        warnings.warn(
            f"perplexity {target_perplexity} unreachable after "
            f"{CALIBRATION_MAX_ITER} iterations (residual {err:.3g} in log2); "
            "returning best sigma",
            CalibrationWarning,
        )
    return out


def row_affinities(sq_distances_row, sigma: float) -> np.ndarray:
    """Conditional probabilities of one point's Gaussian kernel at a
    given bandwidth (diagonal entry already excluded from the row)."""
    row = np.asarray(sq_distances_row, dtype=np.float64)
    beta = 0.5 / (sigma * sigma)
    _, p = _entropy_bits((row - row.min())[None, :], np.array([beta]))
    return p[0]


def calibrate_sigma(sq_distances_row, target_perplexity: float) -> float:
    """Bandwidth whose row kernel has the target perplexity.

    Binary search on the precision beta = 1/(2 sigma^2) until
    |log2(achieved perplexity) - log2(target)| < 1e-5, at most 200
    iterations. If the target is unreachable (e.g. all neighbors
    equidistant), the best sigma found is returned under a
    CalibrationWarning. `joint_affinities` runs the same search on all
    rows at once.
    """
    row = np.asarray(sq_distances_row, dtype=np.float64)
    if row.ndim != 1 or row.size < 2 or not np.all(np.isfinite(row)):
        raise ConfigError("distance row needs >= 2 finite entries")
    if target_perplexity >= row.size:
        raise ConfigError(
            f"target perplexity {target_perplexity} must be below "
            f"the row length {row.size}"
        )
    if target_perplexity <= 1.0:
        raise ConfigError("target perplexity must exceed 1")
    beta = _calibrated_betas((row - row.min())[None, :], target_perplexity)[0]
    return float(np.sqrt(0.5 / beta))


def _pairwise_sq_dists(X: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Squared distances sq_i + sq_j - 2 x_i.x_j, clamped at 0, zero diagonal.

    Written into `out` with `scratch` holding the Gram matrix; either is
    allocated when not given (same operations in the same order)."""
    sq = np.sum(X * X, axis=1)
    scratch = np.matmul(X, X.T, out=scratch)
    np.multiply(2.0, scratch, out=scratch)
    d2 = np.empty_like(scratch) if out is None else out
    # sq_j + sq_i in place: addition commutes, so this equals sq_i + sq_j
    d2[...] = sq
    np.add(d2, sq[:, None], out=d2)
    np.subtract(d2, scratch, out=d2)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def _off_diagonal(A: np.ndarray) -> np.ndarray:
    """View of the n(n-1) off-diagonal entries of a C-contiguous n x n
    array, in row-major order, shaped (n-1, n)."""
    n = A.shape[0]
    return A.ravel()[1:].reshape(n - 1, n + 1)[:, :n]


def joint_affinities(X, perplexity: float) -> AffinityMatrix:
    """Symmetrized joint probabilities p_ij = (p_{j|i} + p_{i|j}) / (2n).

    Perplexity is clamped to (n-1)/3 with a warning when the input is
    too small for the requested value. Duplicate points are jittered by
    1e-10 (seeded, deterministic) so calibration stays solvable.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 4:
        raise ConfigError("joint_affinities needs at least 4 points")
    n = X.shape[0]
    if perplexity <= 1.0:
        raise ConfigError("perplexity must exceed 1", field="perplexity")

    # clamp floor keeps the target valid (> 1) for the smallest inputs
    limit = max((n - 1) / 3.0, 1.5)
    if perplexity > limit:
        warnings.warn(
            f"perplexity {perplexity} too large for n={n}; clamped to {limit}",
            UserWarning,
        )
        perplexity = limit

    # two n x n buffers: P holds the Gram matrix until it receives P
    P = np.empty((n, n), dtype=np.float64)
    d2 = _pairwise_sq_dists(X, scratch=P)
    if np.any(_off_diagonal(d2) == 0.0):
        warnings.warn(
            "duplicate points detected; applying 1e-10 jitter", UserWarning
        )
        jitter_rng = np.random.default_rng(0)
        X = X + jitter_rng.normal(0.0, DUPLICATE_JITTER, size=X.shape)
        _pairwise_sq_dists(X, out=d2, scratch=P)
    if not np.all(np.isfinite(d2)):
        raise ConfigError("distance row needs >= 2 finite entries")

    # each block of rows of d2 is replaced in place by its conditional
    # probabilities once calibrated; the diagonal stays 0
    sigmas = np.empty(n, dtype=np.float64)
    for start in range(0, n, _CALIBRATION_BLOCK):
        block = d2[start : start + _CALIBRATION_BLOCK]
        off = np.ones(block.shape, dtype=bool)
        np.fill_diagonal(off[:, start:], False)
        S = block[off].reshape(len(block), n - 1)  # d2[i, j != i]
        np.subtract(S, S.min(axis=1, keepdims=True), out=S)
        sigma = np.sqrt(0.5 / _calibrated_betas(S, perplexity))
        sigmas[start : start + _CALIBRATION_BLOCK] = sigma
        block[off] = _entropy_bits(S, 0.5 / (sigma * sigma))[1].ravel()

    np.add(d2, d2.T, out=P)  # d2 now holds the conditional probabilities
    np.divide(P, 2.0 * n, out=P)
    return AffinityMatrix(P, sigmas)


def _strips(n):
    """An n x n symmetric array held by its pairs j >= i: a list of
    contiguous row strips, one after another in one 1-D buffer of float64.
    Strip k covers rows [a, b) x columns [a, n), with a = k * _STRIP_ROWS
    and b = min(a + _STRIP_ROWS, n); its first b - a columns are the
    diagonal block, which holds both (i, j) and (j, i)."""
    shapes = [(min(_STRIP_ROWS, n - a), n - a) for a in range(0, n, _STRIP_ROWS)]
    flat = np.empty(sum(rows * cols for rows, cols in shapes))
    strips, start = [], 0
    for rows, cols in shapes:
        strips.append(flat[start : start + rows * cols].reshape(rows, cols))
        start += rows * cols
    return strips


def _upper_strips(A) -> list:
    """The strips (see _strips) of the pairs j >= i of the n x n array A,
    with 0 in place of its diagonal, so that its pair sums leave it out."""
    n = A.shape[0]
    strips = _strips(n)
    for s in strips:
        a = n - s.shape[1]
        s[...] = A[a : a + s.shape[0], a:]
        np.fill_diagonal(s, 0.0)
    return strips


def _views(buffer, strips):
    """A contiguous view of the front of the 1-D `buffer` in the shape of
    each strip in turn: one scratch strip, reused."""
    for s in strips:
        yield buffer[: s.size].reshape(s.shape)


def _pair_sum(s):
    """The sum over the pairs i != j that a strip holds, whose diagonal
    entries are 0: its diagonal block, which holds both orders of its
    pairs, once and the rest twice."""
    return 2.0 * s.sum() - s[:, : s.shape[0]].sum(axis=1).sum()


def _student_q(Y: np.ndarray, w=None, scratch=None):
    """Student-t kernel weights w_ij = 1 / ((1 + dx^2) + dy^2) of a 2-D
    layout, from the coordinate differences dx = y_i0 - y_j0 and
    dy = y_i1 - y_j1, and their sum Z -> (w, Z).

    w is written into the strips `w` (see _strips) and is exactly
    symmetric, with w_ii = 0; the 1-D `scratch`, of at least the first
    strip's size, holds dy^2. Either is allocated when not given."""
    n = Y.shape[0]
    w = _strips(n) if w is None else w
    scratch = np.empty(w[0].size) if scratch is None else scratch
    # the differences of a strip as one product (u_i, 1) . (1, -u_j): each is
    # u_i * 1 + 1 * (-u_j), rounded once, so they are the bits of u_i - u_j
    # whatever the BLAS kernel, without a ufunc loop per row of the strip
    ones = np.ones(n)
    left = [np.stack([u, ones], axis=1) for u in Y.T]
    right = [np.stack([ones, -u]) for u in Y.T]
    for s, t in zip(w, _views(scratch, w)):
        a = n - s.shape[1]
        rows = slice(a, a + s.shape[0])
        np.matmul(left[0][rows], right[0][:, a:], out=s)
        np.square(s, out=s)
        np.add(s, 1.0, out=s)
        np.matmul(left[1][rows], right[1][:, a:], out=t)
        np.square(t, out=t)
        np.add(s, t, out=s)
        np.divide(1.0, s, out=s)
        np.fill_diagonal(s, 0.0)
    return w, sum(_pair_sum(s) for s in w)


def _q_from_w(w, Z, out):
    """Q = max(w / Z, eps) strip by strip: yields each strip of Q, written
    into the next buffer of `out`, an iterable of the strips' shapes."""
    for s, q in zip(w, out):
        np.divide(s, Z, out=q)
        np.maximum(q, MACHINE_EPSILON, out=q)
        yield q


def _p_log_p(P) -> float:
    """The sum of p log p over the pairs i != j with p > 0, from the strips
    of P: KL(P || Q) less the sum of p log q."""
    total = 0.0
    for p in P:
        terms = np.where(p > 0.0, p, 1.0)  # a pair with p = 0 adds 0 * log 1
        np.log(terms, out=terms)
        np.multiply(p, terms, out=terms)
        total += _pair_sum(terms)
    return float(total)


def _gradient_from_q(P, w, Z, Y, scratch, exaggeration=1.0):
    """Layout gradient of KL(exaggeration * P || Q) and the sum of p log q
    over the pairs i != j -> (gradient, sum p log q), from the strips of P
    and of the kernel w, whose sum is Z. `scratch` is two 1-D buffers of
    at least the first strip's size: per strip, the first receives Q and
    then the terms p log q, the second the coefficients
    c = (exaggeration * p - q) * w. Every q is at least eps, so a pair with
    p = 0 adds exactly 0 to the sum and needs no mask."""
    n = Y.shape[0]
    # c @ [Y, 1] gives sum_j c_ij y_j and the row sums of c in one product
    Y1 = np.concatenate([Y, np.ones((n, 1))], axis=1)
    acc = np.zeros((n, 3))
    p_log_q = 0.0
    coefficients = _views(scratch[1], w)
    for p, s, q, c in zip(P, w, _q_from_w(w, Z, _views(scratch[0], w)), coefficients):
        m = s.shape[0]
        a, b = n - s.shape[1], n - s.shape[1] + m
        if exaggeration != 1.0:
            np.multiply(p, exaggeration, out=c)
            np.subtract(c, q, out=c)
        else:
            np.subtract(p, q, out=c)
        np.multiply(c, s, out=c)
        # rows [a, b) against every j >= a, then the mirrored pairs (j, i) for j >= b
        acc[a:b] += c @ Y1[a:]
        acc[b:] += c[:, m:].T @ Y1[a:b]
        np.log(q, out=q)
        np.multiply(p, q, out=q)
        p_log_q += _pair_sum(q)
    # sum_j c_ij (y_i - y_j) = rowsum(c) y_i - c @ Y
    return 4.0 * (acc[:, 2:] * Y - acc[:, :2]), p_log_q


def kl_divergence(P, Y) -> float:
    """KL(P || Q(Y)) where Q is the Student-t kernel of the layout.

    Defined for any n >= 2; with n = 2 both distributions are forced to
    (1/2, 1/2) and the divergence is exactly zero. The sum runs over the
    pairs i != j with p_ij > 0; the diagonal of P is not read.
    """
    P = _upper_strips(np.asarray(P, dtype=np.float64))
    plogp = _p_log_p(P)
    Y = np.asarray(Y, dtype=np.float64)
    w, Z = _student_q(Y)
    return float(plogp - _gradient_from_q(P, w, Z, Y, np.empty((2, w[0].size)))[1])


def kl_gradient(P, Y) -> np.ndarray:
    """Analytic layout gradient of KL(P || Q):

        dKL/dy_i = 4 * sum_j (p_ij - q_ij) * (1 + |y_i - y_j|^2)^-1 * (y_i - y_j)
    """
    P = _upper_strips(np.asarray(P, dtype=np.float64))
    Y = np.asarray(Y, dtype=np.float64)
    w, Z = _student_q(Y)
    return _gradient_from_q(P, w, Z, Y, np.empty((2, w[0].size)))[0]


def run_tsne(X, cfg: TsneConfig):
    """Gradient descent on KL(P || Q) for a 2-D layout.

    Returns (Y, kl_trace) where kl_trace[k] is the divergence against
    the true (unexaggerated) P after iteration k+1. Deterministic for a
    fixed config.

    P, Q, the kernel w and the gradient coefficients are symmetric, so
    the descent computes each pair once: P and w are held only for the
    pairs j >= i, as row strips of _STRIP_ROWS rows (see _strips), and
    the sums count each pair off a strip's diagonal block twice. Each
    iteration builds the kernel once and derives Q from it once, a strip
    at a time in two scratch strips. The Q that the gradient of step k+1
    forms is the Q after step k, so that pass also sums the KL after step
    k: the constant sum of p log p less the sum of p log q. One more pass
    after the last step gives the last KL.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 4:
        raise ConfigError("run_tsne needs at least 4 points")
    n = X.shape[0]

    P = _upper_strips(joint_affinities(X, cfg.perplexity).P)
    plogp = _p_log_p(P)
    rng = np.random.default_rng(cfg.seed)
    Y = rng.normal(0.0, INIT_STD, size=(n, 2))
    kl_trace = np.zeros(cfg.iterations)
    scratch = np.empty((2, P[0].size))
    velocity = np.zeros_like(Y)
    w, Z = _student_q(Y, scratch=scratch[0])
    for it in range(cfg.iterations):
        exaggeration = EARLY_EXAGGERATION if it < EXAGGERATION_UNTIL else 1.0
        grad, p_log_q = _gradient_from_q(P, w, Z, Y, scratch, exaggeration)
        if it:
            kl_trace[it - 1] = plogp - p_log_q
        momentum = MOMENTUM_START if it < MOMENTUM_SWITCH else MOMENTUM_FINAL
        velocity = momentum * velocity - cfg.learning_rate * grad
        Y = Y + velocity
        w, Z = _student_q(Y, w, scratch[0])
    kl_trace[-1] = plogp - _gradient_from_q(P, w, Z, Y, scratch)[1]
    return Y, kl_trace


def layout_to_csv(Y, dataset) -> str:
    """Serialize a layout and its source records (an EmbeddingDataset) as
    `x,y,subject,realness,method` CSV (one row per point)."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape[0] != len(dataset):
        raise ConfigError("layout and record count differ")
    lines = ["x,y,subject,realness,method"]
    # realness uses the EMB1 byte convention: 0 real, 1 fake
    for (x, y), subject, fake, method in zip(
        Y.tolist(), dataset.subject.tolist(), dataset.fake.tolist(), dataset.method.tolist()
    ):
        lines.append(f"{x!r},{y!r},{subject},{int(fake)},{METHOD_NAMES[method]}")
    return "\n".join(lines) + "\n"


def kl_trace_to_csv(kl_trace) -> str:
    """Serialize a KL trace as `iteration,kl` CSV (iterations 1-based)."""
    lines = ["iteration,kl"]
    for k, value in enumerate(np.asarray(kl_trace, dtype=np.float64), start=1):
        lines.append(f"{k},{float(value)!r}")
    return "\n".join(lines) + "\n"
