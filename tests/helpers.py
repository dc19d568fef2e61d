"""Shared numeric helpers for the test suite."""

import math
import struct
import tracemalloc
import warnings
from typing import NamedTuple

import numpy as np

import verifake.tsne as tsne_module
from verifake.config import child_seed
from verifake.dataset_io import _U32_MAX, _record_faults
from verifake.embeddings import (
    IDENTITY_SWAP_METHODS,
    EXPRESSION_SWAP_METHODS,
    METHOD_BY_NAME,
    METHOD_NAMES,
    MIN_DIM,
    EmbeddingDataset,
    Method,
    first_fault,
    l2_normalize,
)
from verifake.errors import (
    CalibrationWarning,
    ConfigError,
    FormatError,
    InsufficientEnrollment,
    VerifakeError,
)
from verifake.losses import ARCCOS_EPS, TripletConfig, _unit_vectors
from verifake.protocol import AGGREGATIONS, ScoreSet
from verifake.tsne import (
    CALIBRATION_MAX_ITER,
    CALIBRATION_REFINE,
    CALIBRATION_TOL,
    DUPLICATE_JITTER,
    MACHINE_EPSILON,
    AffinityMatrix,
    _pairwise_sq_dists,
    joint_affinities,
)


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes tracemalloc saw allocated during the
    call)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


def reference_student_q(Y):
    """The full-matrix Student-t kernel w = 1 / (1 + d^2), from the Gram-form
    squared distances with a zero diagonal, and Q = max(w / sum(w), eps)."""
    w = 1.0 / (1.0 + _pairwise_sq_dists(Y))
    np.fill_diagonal(w, 0.0)
    return w, np.maximum(w / w.sum(), MACHINE_EPSILON)


def reference_kl_gradient(P, Y) -> np.ndarray:
    """The layout gradient of KL(P || Q) over full n x n matrices."""
    P = np.asarray(P, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    w, Q = reference_student_q(Y)
    coeff = (P - Q) * w
    return 4.0 * (coeff.sum(axis=1)[:, None] * Y - coeff @ Y)


def reference_tsne(X, cfg):
    """The two-kernel t-SNE loop over full n x n matrices: every iteration
    builds the Student-t kernel once for the gradient and once more for
    the KL of the updated layout. `run_tsne`, which computes each pair
    once and so sums in another order, must agree with it to rounding."""
    X = np.asarray(X, dtype=np.float64)
    P = joint_affinities(X, cfg.perplexity).P
    rng = np.random.default_rng(cfg.seed)
    t = tsne_module  # the schedule, read when called so that tests can shorten it
    Y = rng.normal(0.0, t.INIT_STD, size=(X.shape[0], 2))
    velocity = np.zeros_like(Y)
    kl_trace = np.zeros(cfg.iterations, dtype=np.float64)
    for it in range(cfg.iterations):
        P_eff = P * t.EARLY_EXAGGERATION if it < t.EXAGGERATION_UNTIL else P
        grad = reference_kl_gradient(P_eff, Y)
        momentum = t.MOMENTUM_START if it < t.MOMENTUM_SWITCH else t.MOMENTUM_FINAL
        velocity = momentum * velocity - cfg.learning_rate * grad
        Y = Y + velocity
        kl_trace[it] = reference_kl_divergence(P, Y)
    return Y, kl_trace


def reference_row_entropy_bits(sq_row: np.ndarray, beta: float):
    shifted = sq_row - sq_row.min()
    w = np.exp(-beta * shifted)
    sum_w = w.sum()
    p = w / sum_w
    # H = ln(sum_w) + beta * E[d^2], then converted from nats to bits
    h_nats = np.log(sum_w) + beta * float(np.dot(sq_row - sq_row.min(), p))
    return h_nats / np.log(2.0), p


def reference_row_affinities(sq_distances_row, sigma: float) -> np.ndarray:
    row = np.asarray(sq_distances_row, dtype=np.float64)
    beta = 0.5 / (sigma * sigma)
    _, p = reference_row_entropy_bits(row, beta)
    return p


def reference_calibrate_sigma(sq_distances_row, target_perplexity: float) -> float:
    """The one-row bisection `joint_affinities` used to run per row."""
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

    goal = np.log2(target_perplexity)
    beta = 1.0
    beta_lo, beta_hi = 0.0, np.inf
    best_beta, best_err = beta, np.inf
    for _ in range(CALIBRATION_MAX_ITER):
        h_bits, _ = reference_row_entropy_bits(row, beta)
        err = h_bits - goal
        if abs(err) < best_err:
            best_err, best_beta = abs(err), beta
        if abs(err) < CALIBRATION_REFINE:
            return float(np.sqrt(0.5 / beta))
        if err > 0:
            # entropy too high -> kernel too wide -> raise beta
            beta_lo = beta
            beta = beta * 2.0 if beta_hi == np.inf else 0.5 * (beta_lo + beta_hi)
        else:
            beta_hi = beta
            beta = 0.5 * (beta_lo + beta_hi)

    if best_err < CALIBRATION_TOL:
        return float(np.sqrt(0.5 / best_beta))
    warnings.warn(
        f"perplexity {target_perplexity} unreachable after "
        f"{CALIBRATION_MAX_ITER} iterations (residual {best_err:.3g} in log2); "
        "returning best sigma",
        CalibrationWarning,
    )
    return float(np.sqrt(0.5 / best_beta))


def reference_joint_affinities(X, perplexity: float) -> AffinityMatrix:
    """The per-row calibration loop `joint_affinities` must match bit for
    bit, warnings included."""
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

    d2 = _pairwise_sq_dists(X)
    off_diag = d2 + np.diag(np.full(n, np.inf))
    if np.any(off_diag == 0.0):
        warnings.warn(
            "duplicate points detected; applying 1e-10 jitter", UserWarning
        )
        jitter_rng = np.random.default_rng(0)
        X = X + jitter_rng.normal(0.0, DUPLICATE_JITTER, size=X.shape)
        d2 = _pairwise_sq_dists(X)

    cond = np.zeros((n, n), dtype=np.float64)
    sigmas = np.zeros(n, dtype=np.float64)
    idx = np.arange(n)
    for i in range(n):
        row = d2[i, idx != i]
        sigma = reference_calibrate_sigma(row, perplexity)
        sigmas[i] = sigma
        cond[i, idx != i] = reference_row_affinities(row, sigma)

    P = (cond + cond.T) / (2.0 * n)
    return AffinityMatrix(P, sigmas)


def reference_kl_divergence(P, Y) -> float:
    """KL(P || Q(Y)) with the KL terms gathered by np.compress."""
    P = np.asarray(P, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    _, Q = reference_student_q(Y)
    mask = P > 0.0
    P_pos = P[mask]
    terms = np.empty_like(P_pos)
    np.compress(mask.ravel(), Q.ravel(), out=terms)
    np.divide(P_pos, terms, out=terms)
    np.log(terms, out=terms)
    np.multiply(P_pos, terms, out=terms)
    return float(np.sum(terms))


def reference_triplet_loss(anchor, positive, negative, cfg: TripletConfig):
    """The one-triple angular triplet loss as it was written before the
    batched form: (loss, (da, dp, dn)) for max(0, theta(a,p) - theta(a,n)
    + margin), gradients through the renormalization."""
    A, na = _unit_vectors(np.asarray(anchor, dtype=np.float64)[None, :], 1, "anchor")
    P, npos = _unit_vectors(np.asarray(positive, dtype=np.float64)[None, :], 1, "positive")
    Ng, nneg = _unit_vectors(np.asarray(negative, dtype=np.float64)[None, :], 1, "negative")
    a, p, ng = A[0], P[0], Ng[0]
    if not (a.shape == p.shape == ng.shape):
        raise VerifakeError("triplet vectors must share one dimension")

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


# ------------------------------------------------------------------
# Per-record oracles for the columnar dataset. Each is the record-list
# code as it was before the dataset became columns, run over `Record`
# tuples; the columnar code must match them byte for byte.


class Record(NamedTuple):
    """One embedding record, laid out as the old per-record type."""

    subject_id: int
    host_subject_id: int
    fake: bool
    method: Method
    vector: np.ndarray  # float32


def concat(first, *others) -> EmbeddingDataset:
    """The records of `first` followed by those of each of `others`."""
    for other in others:
        if other.dim != first.dim:
            raise VerifakeError(f"dims {first.dim} and {other.dim} differ")
    return EmbeddingDataset(*(
        np.concatenate(columns)
        for columns in zip(first._columns(), *(o._columns() for o in others))
    ))


def records_of(dataset) -> list:
    """The dataset's rows as Records, in order."""
    return [
        Record(int(s), int(h), bool(f), Method(int(m)), v)
        for s, h, f, m, v in zip(
            dataset.subject, dataset.host, dataset.fake, dataset.method, dataset.vectors
        )
    ]


def record_keys(records) -> list:
    """Records as comparable tuples, vectors as their float32 bytes."""
    return [(*rec[:4], np.asarray(rec.vector, np.float32).tobytes()) for rec in records]


def reference_write_emb1(path, dim, records) -> None:
    with open(path, "wb") as fh:
        fh.write(b"EMB1")
        fh.write(struct.pack("<II", len(records), dim))
        for rec in records:
            fh.write(
                struct.pack(
                    "<IIBBH",
                    rec.subject_id,
                    rec.host_subject_id,
                    1 if rec.fake else 0,
                    int(rec.method),
                    0,
                )
            )
            fh.write(rec.vector.astype("<f4", copy=False).tobytes())


def reference_write_csv(path, dim, records) -> None:
    d = dim
    header = "subject,host,realness,method," + ",".join(f"v{i}" for i in range(d))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for rec in records:
            values = ",".join(repr(float(x)) for x in rec.vector)
            fh.write(
                f"{rec.subject_id},{rec.host_subject_id},"
                f"{'fake' if rec.fake else 'real'},"
                f"{METHOD_NAMES[rec.method]},{values}\n"
            )


def reference_read_csv(path) -> EmbeddingDataset:
    """The whole-text CSV reader: `fh.read().splitlines()`, then one
    preallocated array per column."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FormatError("empty file", line=1)

    cols = lines[0].split(",")
    if cols[:4] != ["subject", "host", "realness", "method"]:
        raise FormatError(f"bad header {lines[0]!r}", line=1)
    dim = len(cols) - 4
    if dim < MIN_DIM:
        raise FormatError(f"dim {dim} below minimum {MIN_DIM}", line=1)
    if cols[4:] != [f"v{i}" for i in range(dim)]:
        raise FormatError("value columns must be v0..v{d-1}", line=1)

    n = len(lines) - 1
    vectors = np.empty((n, dim))
    ids = np.empty((n, 2), dtype=np.uint32)
    fake = np.empty(n, dtype=bool)
    method = np.empty(n, dtype=np.uint8)
    linenos = []

    def checked_columns():
        # the rows read so far; the earliest label or vector fault raises
        k = len(linenos)
        with np.errstate(over="ignore"):  # out-of-range values become inf: a fault
            columns = (vectors[:k].astype(np.float32), ids[:k, 0], ids[:k, 1], fake[:k], method[:k])
        faults = _record_faults(*columns)
        hit = first_fault([mask for mask, _ in faults])
        if hit is not None:
            i, j = hit
            raise FormatError(faults[j][1](i), line=linenos[i])
        return columns

    try:
        for lineno, line in enumerate(lines[1:], start=2):
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 4 + dim:
                raise FormatError(
                    f"expected {4 + dim} fields, got {len(fields)}", line=lineno
                )
            try:
                subject, host = int(fields[0]), int(fields[1])
            except ValueError:
                raise FormatError("non-integer subject/host id", line=lineno) from None
            if not (0 <= subject <= _U32_MAX and 0 <= host <= _U32_MAX):
                raise FormatError("subject/host id outside the u32 range", line=lineno)
            if fields[2] not in ("real", "fake"):
                raise FormatError(f"invalid realness {fields[2]!r}", line=lineno)
            if fields[3] not in METHOD_BY_NAME:
                raise FormatError(f"unknown method {fields[3]!r}", line=lineno)
            k = len(linenos)
            try:
                vectors[k] = list(map(float, fields[4:]))
            except ValueError:
                raise FormatError("non-numeric vector component", line=lineno) from None
            ids[k] = subject, host
            fake[k] = fields[2] == "fake"
            method[k] = METHOD_BY_NAME[fields[3]]
            linenos.append(lineno)
    except FormatError:
        checked_columns()  # a fault on an earlier line is reported first
        raise
    del lines  # free the text before the checks allocate
    return EmbeddingDataset(*checked_columns())


def _reference_noise(gen, sigma, dim):
    return gen.normal(0.0, sigma / np.sqrt(dim), size=dim)


def reference_identity_swap(donor_sample, donor_id, host_sample, host_id, settings, method, rng):
    assert donor_id != host_id, "identity swap needs distinct donor and host"
    if Method(method) not in IDENTITY_SWAP_METHODS:
        raise ConfigError(f"{method!r} is not an identity-swap method")
    donor = np.asarray(donor_sample, dtype=np.float64)
    host = np.asarray(host_sample, dtype=np.float64)

    if settings.sigma == 0.0 and settings.alpha in (0.0, 1.0):
        blended = donor if settings.alpha == 1.0 else host
    else:
        noise = _reference_noise(rng, settings.sigma, donor.shape[0])
        blended = l2_normalize(
            settings.alpha * donor + (1.0 - settings.alpha) * host + noise
        )
    return Record(donor_id, host_id, True, method, blended.astype(np.float32))


def reference_expression_swap(host_sample, host_id, sigma, method, rng):
    if sigma < 0:
        raise ConfigError("sigma must be >= 0", field="sigma")
    if Method(method) not in EXPRESSION_SWAP_METHODS:
        raise ConfigError(f"{method!r} is not an expression-swap method")
    host = np.asarray(host_sample, dtype=np.float64)

    if sigma == 0.0:
        vector = host
    else:
        vector = l2_normalize(host + _reference_noise(rng, sigma, host.shape[0]))
    return Record(host_id, host_id, True, method, vector.astype(np.float32))


def reference_simulate_fakes(records, swaps, seed: int) -> list:
    """`pipeline.simulate_fakes` as it was over a record list."""
    by_subject: dict = {}
    for rec in [rec for rec in records if not rec.fake]:
        by_subject.setdefault(rec.subject_id, []).append(rec)
    subjects = sorted(by_subject)

    fakes = []
    for settings in swaps:
        method = Method(settings.method)
        rng = np.random.default_rng(
            child_seed(seed, f"swap:{METHOD_NAMES[method]}")
        )
        identity_swap = method in IDENTITY_SWAP_METHODS
        if identity_swap and len(subjects) < 2:
            raise ConfigError("identity swaps need at least 2 subjects")
        for host in subjects:
            host_pool = by_subject[host]
            for _ in range(settings.per_subject):
                host_rec = host_pool[rng.integers(len(host_pool))]
                if identity_swap:
                    donor = subjects[rng.integers(len(subjects))]
                    while donor == host:
                        donor = subjects[rng.integers(len(subjects))]
                    donor_pool = by_subject[donor]
                    donor_rec = donor_pool[rng.integers(len(donor_pool))]
                    fakes.append(
                        reference_identity_swap(
                            donor_rec.vector.astype(np.float64),
                            donor,
                            host_rec.vector.astype(np.float64),
                            host,
                            settings,
                            method=method,
                            rng=rng,
                        )
                    )
                else:
                    fakes.append(
                        reference_expression_swap(
                            host_rec.vector.astype(np.float64),
                            host,
                            settings.sigma,
                            method=method,
                            rng=rng,
                        )
                    )
    return fakes


def reference_build_gallery(records, g, seed, probe_cap):
    """`protocol.build_gallery` as it was over a record list: (gallery
    dict, probe Records)."""
    real_by_subject: dict = {}
    for i, rec in enumerate(records):
        if not rec.fake:
            real_by_subject.setdefault(rec.subject_id, []).append(i)

    short = sorted(s for s, idx in real_by_subject.items() if len(idx) < g)
    if short:
        raise InsufficientEnrollment(short, g)

    rng = np.random.default_rng(seed)
    enrolled: set = set()
    entries = {}
    for subject in sorted(real_by_subject):
        indices = real_by_subject[subject]
        chosen = rng.choice(len(indices), size=g, replace=False)
        chosen_ids = [indices[int(c)] for c in chosen]
        enrolled.update(chosen_ids)
        entries[subject] = np.stack(
            [records[i].vector.astype(np.float64) for i in sorted(chosen_ids)]
        )

    probe_indices = [i for i in range(len(records)) if i not in enrolled]

    by_host: dict = {}
    for i in probe_indices:
        by_host.setdefault(records[i].host_subject_id, []).append(i)
    keep: set = set()
    for host in sorted(by_host):
        idx = by_host[host]
        if len(idx) > probe_cap:
            chosen = rng.choice(len(idx), size=probe_cap, replace=False)
            keep.update(idx[int(c)] for c in chosen)
        else:
            keep.update(idx)

    probes = [records[i] for i in probe_indices if i in keep]
    return entries, probes


def reference_match_probe(probe, subject_gallery, aggregation="mean") -> float:
    if aggregation not in AGGREGATIONS:
        raise ConfigError(f"aggregation must be one of {AGGREGATIONS}")
    templates = np.asarray(subject_gallery, dtype=np.float64)
    assert templates.size != 0, "cannot match against an empty gallery"
    assert templates.ndim == 2, f"gallery must be a (g, dim) matrix, got {templates.shape}"

    vec = np.asarray(probe, dtype=np.float64)
    cosines = templates @ vec
    value = cosines.mean() if aggregation == "mean" else cosines.max()
    return float(min(1.0, max(-1.0, value)))


class ScoreRow(NamedTuple):
    """One probe score, laid out as the old per-record score type."""

    score: float
    kind: str  # "genuine" or "imposter"
    method: Method
    subject: int


def score_rows(scores: ScoreSet) -> list:
    """The ScoreSet's rows as ScoreRows, in order."""
    return [
        ScoreRow(score, "genuine" if genuine else "imposter", Method(method), subject)
        for score, genuine, method, subject in zip(
            scores.score.tolist(), scores.genuine.tolist(),
            scores.method.tolist(), scores.subject.tolist(),
        )
    ]


def score_set(rows) -> ScoreSet:
    """The ScoreSet holding ScoreRows `rows`, in order."""
    return ScoreSet(
        [r.score for r in rows],
        [r.kind == "genuine" for r in rows],
        [r.method for r in rows],
        [r.subject for r in rows],
    )


def reference_run_protocol(gallery, probes, aggregation="mean") -> list:
    """`protocol.run_protocol` as it was: one `match_probe` per probe
    Record, giving one ScoreRow per probe."""
    records = []
    for rec in probes:
        host = rec.host_subject_id
        if host not in gallery:
            raise VerifakeError(f"probe host subject {host} is not enrolled")
        score = reference_match_probe(
            rec.vector.astype(np.float64), gallery[host], aggregation
        )
        if rec.fake:
            records.append(ScoreRow(score, "imposter", rec.method, host))
        else:
            records.append(ScoreRow(score, "genuine", Method.NONE, host))
    return records
