"""Exact (quadratic-cost) t-SNE for two-component embedding plots.

Input affinities use per-point Gaussian kernels whose bandwidths are
calibrated by binary search so every point sees the same effective
neighbor count (the perplexity). The low-dimensional layout minimizes
KL(P || Q) where Q is a Student-t kernel, by gradient descent with
momentum and an early exaggeration phase.

No tree or interpolation approximations: desk-scale inputs (n up to a
few thousand) keep the O(n^2) computation cheap and make the analytic
gradient directly checkable against finite differences.
"""

import contextlib
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationWarning, ConfigError
from .workers import forked, worker_count

MACHINE_EPSILON = np.finfo(np.float64).eps
CALIBRATION_TOL = 1e-5
CALIBRATION_REFINE = 1e-8  # keep bisecting well past the declared tolerance
CALIBRATION_MAX_ITER = 200
DUPLICATE_JITTER = 1e-10
_CALIBRATION_BLOCK = 64  # rows calibrated together; temporaries are O(block x n)
_EXAGGERATION_BLOCK = 64  # rows of exaggeration * P - Q formed together
# layouts from this many points on compute their KL trace in a forked child
_KL_FORK_MIN_POINTS = 100
# what the KL child writes to its file per KL it computes: (iteration, KL)
_KL_RECORD = np.dtype([("iteration", "<i8"), ("kl", "<f8")])

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
    # H = ln(sum_w) + beta * E[d^2]; a stacked matmul of 1 x k by k x 1
    # is one BLAS dot per row, the call np.dot makes on a single row
    expected = np.matmul(S[:, None, :], p[:, :, None])[:, 0, 0]
    return (np.log(sum_w) + beta * expected) / np.log(2.0), p


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


def _student_q(Y: np.ndarray, w=None, Q=None, scratch=None):
    """Student-t kernel weights and normalized Q for a 2-D layout.

    Optional n x n buffers receive w and Q; `scratch` holds Y Y^T while
    the kernel is built and is free again afterwards, so it may be Q."""
    w = _pairwise_sq_dists(Y, out=w, scratch=scratch)
    np.add(1.0, w, out=w)
    np.divide(1.0, w, out=w)
    np.fill_diagonal(w, 0.0)
    return w, _q_from_w(w, Q)


def _q_from_w(w, Q=None) -> np.ndarray:
    """Q = max(w / sum(w), eps) from the kernel weights w, into `Q` if given."""
    Q = np.divide(w, w.sum(), out=Q)
    np.maximum(Q, MACHINE_EPSILON, out=Q)
    return Q


def _kl_from_q(P, Q, out, positive=None) -> float:
    """KL(P || Q) over the off-diagonal entries, summed in row-major order.

    The terms of all n(n-1) off-diagonal entries go to the front of the
    n x n buffer `out`. When P has off-diagonal zeros, `positive` is the
    mask `_off_diagonal(P) > 0` and only the terms it selects are summed."""
    n = P.shape[0]
    flat = out.ravel()[: n * (n - 1)]
    terms = flat.reshape(n - 1, n)
    P_off = _off_diagonal(P)
    # a P = 0 term is 0 * log(0) = nan; `positive` keeps it out of the sum
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(P_off, _off_diagonal(Q), out=terms)
        np.log(terms, out=terms)
        np.multiply(P_off, terms, out=terms)
    return float(np.sum(flat if positive is None else terms[positive]))


def _positive_mask(P):
    """`_off_diagonal(P) > 0`, or None when that holds everywhere (the usual
    case: joint affinities are zero only on the diagonal)."""
    positive = _off_diagonal(P) > 0.0
    return None if positive.all() else positive


def _gradient_from_q(P, w, Q, Y, coeff, exaggeration=1.0) -> np.ndarray:
    """Layout gradient of KL(exaggeration * P || Q); `coeff` is an n x n
    buffer that receives (exaggeration * P - Q) * w, and may be Q."""
    if exaggeration != 1.0:
        # a block of rows at a time: exaggeration * P cannot go to coeff
        # first when coeff holds Q
        for start in range(0, P.shape[0], _EXAGGERATION_BLOCK):
            rows = slice(start, start + _EXAGGERATION_BLOCK)
            np.subtract(np.multiply(P[rows], exaggeration), Q[rows], out=coeff[rows])
    else:
        np.subtract(P, Q, out=coeff)
    np.multiply(coeff, w, out=coeff)
    # sum_j coeff_ij (y_i - y_j) = rowsum(coeff) y_i - coeff @ Y
    return 4.0 * (coeff.sum(axis=1)[:, None] * Y - coeff @ Y)


def kl_divergence(P, Y) -> float:
    """KL(P || Q(Y)) where Q is the Student-t kernel of the layout.

    Defined for any n >= 2; with n = 2 both distributions are forced to
    (1/2, 1/2) and the divergence is exactly zero. The sum runs over the
    pairs i != j with p_ij > 0; the diagonal of P is not read.
    """
    P = np.asarray(P, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    w, Q = _student_q(Y)
    return _kl_from_q(P, Q, w, _positive_mask(P))


def kl_gradient(P, Y) -> np.ndarray:
    """Analytic layout gradient of KL(P || Q):

        dKL/dy_i = 4 * sum_j (p_ij - q_ij) * (1 + |y_i - y_j|^2)^-1 * (y_i - y_j)
    """
    P = np.asarray(P, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    w, Q = _student_q(Y)
    return _gradient_from_q(P, w, Q, Y, np.empty_like(w))


def _descend(P, positive, Y, cfg, w, Q, coeff, kl_trace, child=None):
    """The gradient descent of run_tsne from layout Y, whose kernel is in
    (w, Q) -> the final layout.

    kl_trace[it] receives the KL after iteration it. With `child`, the
    _KlOffers of a forked _kl_child, each new kernel w is offered to the
    child instead, and Q is the scratch `coeff`, which the gradient
    overwrites. Before w is overwritten, this process computes the KL of
    a w the child has not taken, deriving its Q again into the scratch
    and the KL terms into w, or waits until the child has derived Q."""
    velocity = np.zeros_like(Y)
    for it in range(cfg.iterations):
        exaggeration = EARLY_EXAGGERATION if it < EXAGGERATION_UNTIL else 1.0
        grad = _gradient_from_q(P, w, Q, Y, coeff, exaggeration)
        momentum = MOMENTUM_START if it < MOMENTUM_SWITCH else MOMENTUM_FINAL
        velocity = momentum * velocity - cfg.learning_rate * grad
        Y = Y + velocity
        if child and it and child.take_back():
            kl_trace[it - 1] = _kl_from_q(P, _q_from_w(w, coeff), w, positive)
        _student_q(Y, w, Q, coeff)
        if child:
            child.offer(it)
        else:
            kl_trace[it] = _kl_from_q(P, Q, coeff, positive)
    return Y


class _KlOffers:
    """This process's ends of the pipes to a forked _kl_child. Each new w
    is offered as its iteration number on the `ready` pipe, whose read end
    both processes hold in non-blocking mode: whoever reads an offer
    computes that KL, so a child that is slow to run costs no waiting. The
    child says on `released` when it has derived its Q from a w it took."""

    def __init__(self, ready_r, ready_w, released_r):
        self.ready_r, self.ready_w, self.released_r = ready_r, ready_w, released_r

    def offer(self, it) -> None:
        self.ready_w.write(it.to_bytes(8, "little"))

    def take_back(self) -> bool:
        """True if the child had not taken the last offer, which is then
        this process's to compute; else waits until the child has derived
        Q from that w."""
        if self.ready_r.read(8):  # None: the child has it
            return True
        if not self.released_r.read(1):
            raise ChildProcessError("the t-SNE KL worker process ended early")
        return False


def _kl_child(P, w, positive, out, ready, released) -> None:
    """Forked child of run_tsne: for each offer on `ready` that it reads
    before its parent takes it back, derive Q from the shared kernel w,
    say so on `released` and write the iteration and its KL to the file
    `out` as a _KL_RECORD. Returns when `ready` ends."""
    import select

    Q, terms = np.empty_like(w), np.empty_like(w)
    while True:
        select.select([ready], [], [])
        offer = ready.read(8)
        if offer is None:  # the parent took it back first
            continue
        if not offer:
            return
        _q_from_w(w, Q)
        released.write(b"\1")
        kl = _kl_from_q(P, Q, terms, positive)
        out.write(np.array((int.from_bytes(offer, "little"), kl), dtype=_KL_RECORD).tobytes())


def _descend_with_kl_child(P, positive, Y, cfg, w, coeff, kl_trace):
    """_descend with a forked _kl_child computing the KL terms it takes.
    w must be in memory the child shares, and Q is in the scratch `coeff`;
    the KLs the child computed are written into kl_trace once it has
    exited."""
    with contextlib.ExitStack() as stack:
        ready_r, ready_w, released_r, released_w = (
            stack.enter_context(open(fd, mode, buffering=0))
            for fd, mode in zip((*os.pipe(), *os.pipe()), ("rb", "wb") * 2)
        )
        os.set_blocking(ready_r.fileno(), False)

        def child(out):
            ready_w.close()  # so that the child reads EOF once the parent closes its end
            _kl_child(P, w, positive, out, ready_r, released_w)

        def own():
            released_w.close()  # so that a child that died reads as EOF
            with ready_w:  # closed before the child is waited for
                offers = _KlOffers(ready_r, ready_w, released_r)
                return _descend(P, positive, Y, cfg, w, coeff, coeff, kl_trace, offers)

        with forked([child], own) as (Y, (out,)):
            taken = np.frombuffer(out.read(), dtype=_KL_RECORD)
            kl_trace[taken["iteration"]] = taken["kl"]
            return Y


def _shared_zeros(size) -> np.ndarray:
    """`size` float64 zeros in an anonymous shared mapping: a forked child
    reads and writes the same memory as this process."""
    import mmap

    return np.frombuffer(mmap.mmap(-1, 8 * size), dtype=np.float64)


def run_tsne(X, cfg: TsneConfig):
    """Gradient descent on KL(P || Q) for a 2-D layout.

    Returns (Y, kl_trace) where kl_trace[k] is the divergence against
    the true (unexaggerated) P after iteration k+1. Deterministic for a
    fixed config.

    Each iteration builds the Student-t kernel once: the (w, Q) that
    gives the KL after step k is the one the gradient of step k+1 needs.
    All n x n work runs in three buffers allocated up front: w, Q and a
    scratch that holds the Gram matrix, then the KL terms, then the
    gradient coefficients.

    From _KL_FORK_MIN_POINTS points on, with more than one usable CPU, a
    forked child computes the KL terms while this process goes on with
    the next step. w is then an anonymous shared mapping from which the
    child derives its own Q, and this process keeps Q in the scratch,
    so it holds two n x n buffers besides P.
    The results do not depend on where each KL is computed.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 4:
        raise ConfigError("run_tsne needs at least 4 points")
    n = X.shape[0]

    affinity = joint_affinities(X, cfg.perplexity)
    P = affinity.P
    positive = _positive_mask(P)

    rng = np.random.default_rng(cfg.seed)
    Y = rng.normal(0.0, INIT_STD, size=(n, 2))
    kl_trace = np.zeros(cfg.iterations)
    coeff = np.empty((n, n), dtype=np.float64)
    if worker_count(n, _KL_FORK_MIN_POINTS) > 1:
        w = _shared_zeros(n * n).reshape(n, n)
        _student_q(Y, w, coeff, coeff)
        return _descend_with_kl_child(P, positive, Y, cfg, w, coeff, kl_trace), kl_trace
    w, Q = (np.empty((n, n), dtype=np.float64) for _ in range(2))
    _student_q(Y, w, Q, coeff)
    return _descend(P, positive, Y, cfg, w, Q, coeff, kl_trace), kl_trace


def layout_to_csv(Y, dataset) -> str:
    """Serialize a layout and its source records (an EmbeddingDataset) as
    `x,y,subject,realness,method` CSV (one row per point)."""
    from .embeddings import METHOD_NAMES

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
