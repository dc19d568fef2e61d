"""Perplexity calibration, joint affinities, and the t-SNE optimizer."""

import os
import warnings

import numpy as np
import pytest
from helpers import (
    fd_grad,
    reference_calibrate_sigma,
    reference_joint_affinities,
    reference_kl_divergence,
    reference_kl_gradient,
    reference_row_affinities,
    reference_row_entropy_bits,
    reference_tsne,
    rel_err,
    traced_peak,
)

import verifake.tsne as tsne_module
from verifake.embeddings import EmbeddingDataset, Method
from verifake.errors import CalibrationWarning, ConfigError
from verifake.tsne import (
    AffinityMatrix,
    TsneConfig,
    calibrate_sigma,
    joint_affinities,
    kl_divergence,
    kl_gradient,
    kl_trace_to_csv,
    layout_to_csv,
    row_affinities,
    run_tsne,
)


def three_clusters(seed=5, per=8, spread=0.05):
    g = np.random.default_rng(seed)
    centers = np.array([[4.0, 0, 0], [0, 4.0, 0], [0, 0, 4.0]])
    pts, labs = [], []
    for c, ctr in enumerate(centers):
        pts.append(ctr + g.normal(0, spread, size=(per, 3)))
        labs += [c] * per
    return np.vstack(pts), np.array(labs)


def separated_clusters():
    """Two tight clusters 100 apart: the Gaussian affinities between them
    underflow, so P has exact zeros off the diagonal."""
    g = np.random.default_rng(21)
    return np.vstack([g.normal(0, 0.05, size=(10, 3)), 100.0 + g.normal(0, 0.05, size=(10, 3))])


def clustered(seed, n, k, d=8, spread=0.3):
    g = np.random.default_rng(seed)
    centers = g.normal(0.0, 3.0, size=(k, d))
    return centers[g.integers(0, k, n)] + g.normal(0.0, spread, size=(n, d))


def duplicated_points():
    X = np.random.default_rng(3).normal(size=(30, 4))
    X[17] = X[2]
    return X


def duplicated_across_blocks():
    """200 rows, four calibration blocks; rows 10 and 150 coincide."""
    X = np.random.default_rng(4).normal(size=(200, 4))
    X[150] = X[10]
    return X


def hub_past_first_block():
    """193 rows, four calibration blocks: a hub with 12 equidistant nearest
    neighbors at row 130 cannot reach perplexity 5, every other row can."""
    others = 20.0 + np.random.default_rng(9).normal(size=(180, 12))
    hub = np.vstack([np.zeros(12), np.eye(12)])
    return np.vstack([others[:130], hub, others[130:]])


def hub_points():
    """Two hubs with 12 and 9 equidistant nearest neighbors: their rows
    cannot reach perplexity 3 (each with its own residual), every other
    row can."""
    big = np.vstack([np.zeros(12), np.eye(12)])
    small = np.vstack([np.zeros(12), np.eye(12)[:9]]) + 10.0
    return np.vstack([big, small])


def simplex_points():
    return np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])


# ------------------------------------------------------------ calibration


def test_equidistant_pair_is_uniform_for_any_sigma():
    row = np.array([1.0, 1.0])
    # entropy is pinned at 1 bit, so the target is unreachable and the
    # search hands back its best sigma under a warning
    with pytest.warns(CalibrationWarning):
        sigma = calibrate_sigma(row, 1.9)
    assert row_affinities(row, sigma) == pytest.approx((0.5, 0.5), abs=1e-12)
    assert row_affinities(row, 0.3) == pytest.approx((0.5, 0.5), abs=1e-12)
    assert row_affinities(row, 3.0) == pytest.approx((0.5, 0.5), abs=1e-12)


def test_calibration_hits_target_perplexity():
    row = np.random.default_rng(42).uniform(0.2, 4.0, size=20)
    sigma = calibrate_sigma(row, 5.0)
    p = row_affinities(row, sigma)
    achieved = 2.0 ** (-np.sum(p * np.log2(p)))
    assert abs(achieved - 5.0) < 1e-5


def test_calibration_target_bounds():
    row = np.random.default_rng(0).uniform(0.5, 2.0, size=10)
    with pytest.raises(ConfigError):
        calibrate_sigma(row, 10.0)  # target == row length
    with pytest.raises(ConfigError):
        calibrate_sigma(row, 11.0)
    with pytest.raises(ConfigError):
        calibrate_sigma(row, 1.0)


def test_calibration_rejects_bad_rows():
    with pytest.raises(ConfigError):
        calibrate_sigma(np.array([1.0]), 1.5)
    with pytest.raises(ConfigError):
        calibrate_sigma(np.array([1.0, np.inf, 2.0]), 2.0)


# ------------------------------------------------------------- affinities


def test_joint_affinities_invariants():
    X = np.random.default_rng(1).normal(size=(12, 5))
    aff = joint_affinities(X, 3.0)
    assert isinstance(aff, AffinityMatrix)
    P = aff.P
    assert np.abs(P - P.T).max() < 1e-12
    assert abs(P.sum() - 1.0) < 1e-9
    assert np.all(np.diag(P) == 0.0)
    assert np.all(P >= 0.0)
    assert aff.sigmas.shape == (12,)
    assert np.all(aff.sigmas > 0)


def test_simplex_gives_uniform_affinities():
    # all pairwise distances equal, so symmetry forces p_ij = 1/12
    with pytest.warns(UserWarning):
        aff = joint_affinities(simplex_points(), 2.0)
    off = aff.P[~np.eye(4, dtype=bool)]
    assert np.abs(off - 1.0 / 12.0).max() < 1e-12
    assert np.all(np.diag(aff.P) == 0.0)


def test_small_n_perplexity_clamped_with_warning():
    X = np.random.default_rng(2).normal(size=(7, 3))
    with pytest.warns(UserWarning, match="clamped"):
        aff = joint_affinities(X, 30.0)
    assert abs(aff.P.sum() - 1.0) < 1e-9


def test_duplicate_points_jittered():
    X = np.random.default_rng(3).normal(size=(6, 3))
    X[4] = X[1]
    with pytest.warns(UserWarning, match="jitter"):
        aff = joint_affinities(X, 1.6)
    assert np.all(np.isfinite(aff.P))
    assert abs(aff.P.sum() - 1.0) < 1e-9


def test_affinities_need_four_points():
    with pytest.raises(ConfigError):
        joint_affinities(np.zeros((3, 2)), 1.5)


def test_affinities_reject_non_finite_points():
    X = np.random.default_rng(8).normal(size=(9, 3))
    X[5, 1] = np.nan
    with pytest.raises(ConfigError, match="finite"):
        joint_affinities(X, 2.0)


AFFINITY_CASES = {
    # more rows than one calibration block
    "clusters_300": (lambda: clustered(1, 300, 6), 30.0),
    "clusters_37": (lambda: clustered(2, 37, 3), 5.0),
    "clamped": (lambda: np.random.default_rng(2).normal(size=(7, 3)), 30.0),
    "duplicates": (duplicated_points, 4.0),
    "duplicates_across_blocks": (duplicated_across_blocks, 10.0),
    "unreachable_row_past_first_block": (hub_past_first_block, 5.0),
    "exact_zero_P": (separated_clusters, 3),
    "unreachable_rows": (hub_points, 3.0),
    "all_rows_unreachable": (simplex_points, 2.0),
}


def _recorded(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("case", list(AFFINITY_CASES))
def test_joint_affinities_match_per_row_reference_bitwise(case):
    make_input, perplexity = AFFINITY_CASES[case]
    X = make_input()
    aff, caught = _recorded(joint_affinities, X, perplexity)
    ref, ref_caught = _recorded(reference_joint_affinities, X, perplexity)
    assert aff.P.tobytes() == ref.P.tobytes()
    assert aff.sigmas.tobytes() == ref.sigmas.tobytes()
    assert caught == ref_caught


def test_reference_cases_exercise_their_edge():
    _, caught = _recorded(joint_affinities, hub_points(), 3.0)
    assert [c for c, _ in caught] == [CalibrationWarning, CalibrationWarning]
    assert caught[0][1] != caught[1][1]
    _, caught = _recorded(joint_affinities, simplex_points(), 2.0)
    assert [c for c, _ in caught] == [UserWarning] + [CalibrationWarning] * 4
    _, caught = _recorded(joint_affinities, duplicated_points(), 4.0)
    assert "jitter" in caught[0][1]
    block = tsne_module._CALIBRATION_BLOCK
    assert len(duplicated_across_blocks()) >= 3 * block and 10 // block != 150 // block
    _, caught = _recorded(joint_affinities, duplicated_across_blocks(), 10.0)
    assert [c for c, _ in caught] == [UserWarning] and "jitter" in caught[0][1]
    assert len(hub_past_first_block()) >= 3 * block and 130 >= block
    _, caught = _recorded(joint_affinities, hub_past_first_block(), 5.0)
    assert [c for c, _ in caught] == [CalibrationWarning]
    P = joint_affinities(separated_clusters(), 3).P
    assert np.any(P[~np.eye(len(P), dtype=bool)] == 0.0)


@pytest.mark.parametrize("n", [500, 1000])
def test_joint_affinities_hold_p_and_one_n_by_n_buffer(n):
    # P, which holds the Gram matrix first, the distances d2, which each
    # block of rows turns into its conditional probabilities, and O(block x n)
    # calibration temporaries
    X = clustered(8, n, 10, d=32)
    assert traced_peak(joint_affinities, X, 30.0)[1] <= 2.75 * 8 * n * n


def test_joint_affinities_make_no_per_row_calls(monkeypatch):
    def per_row(*args, **kwargs):
        raise AssertionError("per-row call")

    X = clustered(4, 60, 3)
    expected = joint_affinities(X, 10.0)
    monkeypatch.setattr(tsne_module, "calibrate_sigma", per_row)
    monkeypatch.setattr(tsne_module, "row_affinities", per_row)
    aff = joint_affinities(X, 10.0)
    assert aff.P.tobytes() == expected.P.tobytes()
    run_tsne(X, TsneConfig(perplexity=10, iterations=3))


def test_one_row_calls_match_the_batched_rows():
    X = clustered(5, 150, 4)
    aff = joint_affinities(X, 20.0)
    d2 = tsne_module._pairwise_sq_dists(X)
    for i in range(len(X)):
        row = np.delete(d2[i], i)
        sigma = calibrate_sigma(row, 20.0)
        assert sigma == aff.sigmas[i]
        assert sigma == reference_calibrate_sigma(row, 20.0)
        assert row_affinities(row, sigma).tobytes() == reference_row_affinities(row, sigma).tobytes()


def test_entropy_kernel_matches_one_row_reference_bitwise():
    # the bisection only compares the entropy, so pin it directly: every
    # row of a block gets the exp, sum and dot it would get alone
    X = clustered(6, 90, 4)
    d2 = tsne_module._pairwise_sq_dists(X)
    rows = np.array([np.delete(d2[i], i) for i in range(len(X))])
    betas = np.random.default_rng(6).uniform(0.01, 20.0, size=len(X))
    h_bits, p = tsne_module._entropy_bits(rows - rows.min(axis=1, keepdims=True), betas)
    for i in range(len(X)):
        ref_h, ref_p = reference_row_entropy_bits(rows[i], float(betas[i]))
        assert h_bits[i] == ref_h
        assert p[i].tobytes() == ref_p.tobytes()


def test_one_row_calibration_warns_like_the_reference():
    row = np.array([1.0, 1.0])
    sigma, caught = _recorded(calibrate_sigma, row, 1.9)
    ref_sigma, ref_caught = _recorded(reference_calibrate_sigma, row, 1.9)
    assert sigma == ref_sigma
    assert caught == ref_caught and len(caught) == 1


# --------------------------------------------------------------- KL / opt


def test_two_point_kl_is_zero():
    # both P and Q collapse to (1/2, 1/2) regardless of the layout
    P = np.array([[0.0, 0.5], [0.5, 0.0]])
    for seed in (0, 1, 2):
        Y = np.random.default_rng(seed).normal(size=(2, 2))
        assert kl_divergence(P, Y) == 0.0


@pytest.mark.parametrize("case", ["clusters_37", "exact_zero_P", "duplicates"])
def test_kl_divergence_matches_compress_reference_bitwise(case):
    # the strips sum each pair once, in another order than the full-matrix
    # references, so the two agree to rounding rather than bit for bit
    make_input, perplexity = AFFINITY_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        P = joint_affinities(make_input(), perplexity).P
    for seed in range(3):
        Y = np.random.default_rng(seed).normal(size=(len(P), 2))
        ref = reference_kl_divergence(P, Y)
        kl = kl_divergence(P, Y)
        assert abs(kl - ref) <= 1e-12 * abs(ref)
        assert rel_err(kl_gradient(P, Y), reference_kl_gradient(P, Y)) <= 1e-12
        # the diagonal of P is not read
        assert kl_divergence(P + np.eye(len(P)), Y) == kl


@pytest.mark.parametrize("n", [5, 128, 129, 300])
def test_kernel_strips_hold_each_pair_from_its_coordinate_differences(n):
    # strip k holds rows [a, b) x columns [a, n); every weight is the
    # formula on its pair's coordinate differences, bit for bit, so the
    # mirrored pairs that the strips leave out are equal to them
    Y = np.random.default_rng(n).normal(size=(n, 2))
    w, Z = tsne_module._student_q(Y)
    rows = tsne_module._STRIP_ROWS
    assert [s.shape for s in w] == [(min(rows, n - a), n - a) for a in range(0, n, rows)]
    Yl = Y.tolist()
    for s in w:
        a = n - s.shape[1]
        for r, row in enumerate(s.tolist()):
            i = a + r
            for j, value in enumerate(row, start=a):
                dx, dy = Yl[i][0] - Yl[j][0], Yl[i][1] - Yl[j][1]
                assert value == (0.0 if i == j else 1.0 / (1.0 + dx * dx + dy * dy))
    full = tsne_module._pairwise_sq_dists(Y)
    np.divide(1.0, 1.0 + full, out=full)
    np.fill_diagonal(full, 0.0)
    assert abs(Z - full.sum()) <= 1e-12 * Z


def test_kl_nonnegative():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(9, 4))
    P = joint_affinities(X, 2.5).P
    for seed in range(5):
        Y = np.random.default_rng(seed).normal(size=(9, 2))
        assert kl_divergence(P, Y) >= 0.0


def test_kl_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(10, 4))
    P = joint_affinities(X, 2.5).P
    Y = rng.normal(size=(10, 2))
    analytic = kl_gradient(P, Y)
    numeric = fd_grad(lambda: kl_divergence(P, Y), Y)
    assert rel_err(analytic, numeric) < 1e-4


def test_gradient_rotation_equivariance():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(8, 3))
    P = joint_affinities(X, 2.0).P
    Y = rng.normal(size=(8, 2))
    theta = 0.7
    R = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    g_base = kl_gradient(P, Y)
    g_rot = kl_gradient(P, Y @ R.T)
    assert np.allclose(g_rot, g_base @ R.T, atol=1e-12)
    assert np.linalg.norm(g_rot) == pytest.approx(np.linalg.norm(g_base), abs=1e-12)


def test_run_tsne_deterministic():
    X, _ = three_clusters(per=5)
    cfg = TsneConfig(perplexity=3, iterations=50, seed=7)
    Y1, t1 = run_tsne(X, cfg)
    Y2, t2 = run_tsne(X, cfg)
    assert np.array_equal(Y1, Y2)
    assert np.array_equal(t1, t2)


def test_run_tsne_trace_decreases_and_separates_clusters():
    X, labs = three_clusters()
    Y, trace = run_tsne(X, TsneConfig(perplexity=5, iterations=500, seed=0))
    assert Y.shape == (24, 2)
    assert trace.shape == (500,)
    assert np.all(trace >= 0.0)
    assert trace[-1] < trace[99]

    within, between = [], []
    for i in range(len(Y)):
        for j in range(i + 1, len(Y)):
            d = float(np.linalg.norm(Y[i] - Y[j]))
            (within if labs[i] == labs[j] else between).append(d)
    assert np.mean(within) < np.mean(between)


def shorten_schedule(monkeypatch, exaggerated, switch):
    """The t-SNE schedule with exaggeration for the first `exaggerated`
    iterations and the momentum switch at iteration `switch`, so that a
    short run crosses both."""
    monkeypatch.setattr(tsne_module, "EXAGGERATION_UNTIL", exaggerated)
    monkeypatch.setattr(tsne_module, "MOMENTUM_SWITCH", switch)


@pytest.mark.parametrize("iterations", [3, 7, 15])
@pytest.mark.parametrize(
    "make_input",
    [lambda: three_clusters(per=6)[0], separated_clusters],
    ids=["three_clusters", "separated_clusters"],
)
def test_run_tsne_matches_two_kernel_reference_bitwise(monkeypatch, make_input, iterations):
    # 3 stays inside exaggeration, 7 crosses it, 15 also crosses the momentum
    # switch; the full-matrix reference sums in another order, so layouts
    # and traces agree to rounding, which the descent carries forward
    X = make_input()
    shorten_schedule(monkeypatch, exaggerated=5, switch=10)
    cfg = TsneConfig(perplexity=3, iterations=iterations, seed=2)
    Y, trace = run_tsne(X, cfg)
    Y_ref, trace_ref = reference_tsne(X, cfg)
    assert rel_err(Y, Y_ref) <= 1e-10
    assert rel_err(trace, trace_ref) <= 1e-10


def test_separated_clusters_have_exact_zero_affinities():
    X = separated_clusters()
    P = joint_affinities(X, 3).P
    off_diag = ~np.eye(len(X), dtype=bool)
    assert np.any(P[off_diag] == 0.0)
    assert np.any(P[off_diag] > 0.0)


def count_calls(monkeypatch, name):
    """A list that receives one entry per call of the tsne function `name`."""
    calls, original = [], getattr(tsne_module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(tsne_module, name, counting)
    return calls


def test_run_tsne_builds_one_kernel_per_iteration(monkeypatch):
    calls = count_calls(monkeypatch, "_student_q")
    X, _ = three_clusters(per=5)
    run_tsne(X, TsneConfig(perplexity=3, iterations=12, seed=1))
    assert len(calls) == 12 + 1


def test_each_kernel_gives_one_q(monkeypatch):
    # the Q that the next gradient forms also gives the KL, and one more
    # pass after the last step gives the last KL
    calls = count_calls(monkeypatch, "_q_from_w")
    X, _ = three_clusters(per=5)
    run_tsne(X, TsneConfig(perplexity=3, iterations=12, seed=1))
    assert len(calls) == 12 + 1


def test_in_process_tsne_working_set_is_four_n_by_n_arrays():
    # P > 0 off the diagonal, as on real embeddings: the affinities' two
    # n x n arrays set the peak; the loop holds the strips of P and w, each
    # about half of an n x n array, and two scratch strips
    X = clustered(7, 300, 5, spread=1.0)
    n = len(X)
    P = joint_affinities(X, 10.0).P
    assert np.all(P[~np.eye(n, dtype=bool)] > 0.0)
    Y = np.random.default_rng(7).normal(size=(n, 2))
    n_by_n = 8 * n * n
    assert traced_peak(run_tsne, X, TsneConfig(perplexity=10, iterations=5))[1] <= 4.5 * n_by_n
    # the strips of P and of w, and the two scratch strips of the gradient's pass
    assert traced_peak(kl_divergence, P, Y)[1] <= 2.5 * n_by_n


def test_descent_holds_two_traced_n_by_n_arrays(monkeypatch):
    # with P computed beforehand, tracemalloc sees what the descent
    # allocates: the strips of P and of w (each 0.65 of an n x n array at
    # n = 400) and two scratch strips of _STRIP_ROWS rows (0.64)
    X = clustered(7, 400, 5, spread=1.0)
    n = len(X)
    affinity = joint_affinities(X, 10.0)
    assert np.all(affinity.P[~np.eye(n, dtype=bool)] > 0.0)
    monkeypatch.setattr(tsne_module, "joint_affinities", lambda X, perplexity: affinity)
    monkeypatch.setattr(tsne_module, "EXAGGERATION_UNTIL", 3)
    cfg = TsneConfig(perplexity=10, iterations=6)
    assert traced_peak(run_tsne, X, cfg)[1] <= 2.1 * 8 * n * n


def test_run_tsne_forks_no_child_with_two_cpus(monkeypatch):
    # the whole descent, KL trace included, runs in this process at any size
    def no_fork():
        raise AssertionError("run_tsne forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    X = clustered(7, 120, 5, spread=1.0)
    Y, trace = run_tsne(X, TsneConfig(perplexity=10, iterations=5))
    assert Y.shape == (120, 2) and np.all(np.isfinite(trace))


def test_kl_of_zero_affinities_gathers_nothing():
    # the KL is sum p log p, computed once per P, less sum p log q, to which
    # a pair with p = 0 adds exactly 0: no mask and no per-call copy of the
    # kept terms, however many pairs have p = 0
    X = clustered(7, 300, 5)
    n = len(X)
    P = joint_affinities(X, 10.0).P
    assert 0.5 < np.mean(P[~np.eye(n, dtype=bool)] > 0.0) < 0.9
    Y = np.random.default_rng(7).normal(size=(n, 2))
    strips = tsne_module._upper_strips(P)
    w, Z = tsne_module._student_q(Y)
    scratch = np.empty((2, w[0].size))
    (_, p_log_q), peak = traced_peak(tsne_module._gradient_from_q, strips, w, Z, Y, scratch)
    kl = tsne_module._p_log_p(strips) - p_log_q
    # numpy's 64 KiB reduction buffer and the n x 3 sums, against 0.78 x 8n^2
    # for a copy of the kept terms
    assert peak <= 0.2 * 8 * n * n
    ref = reference_kl_divergence(P, Y)
    assert abs(kl - ref) <= 1e-12 * ref


def test_zero_affinities_are_dropped_without_warnings():
    X = separated_clusters()
    P = joint_affinities(X, 3).P
    Y = np.random.default_rng(0).normal(size=(len(X), 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        kl = kl_divergence(P, Y)
        _, trace = run_tsne(X, TsneConfig(perplexity=3, iterations=5))
    assert np.isfinite(kl)
    assert np.all(np.isfinite(trace))


def test_run_tsne_needs_four_points():
    with pytest.raises(ConfigError):
        run_tsne(np.zeros((2, 3)), TsneConfig(perplexity=1.5, iterations=5))


def test_config_validation():
    with pytest.raises(ConfigError):
        TsneConfig(perplexity=1.0)
    with pytest.raises(ConfigError):
        TsneConfig(iterations=0)
    with pytest.raises(ConfigError):
        TsneConfig(learning_rate=0.0)


# -------------------------------------------------------------------- csv


def test_layout_csv_format():
    Y = np.array([[0.5, -1.25], [2.0, 3.0]])
    points = EmbeddingDataset(
        [[1.0, 0.0], [0.0, 1.0]], [3, 1], [3, 4], [False, True], [Method.NONE, Method.FACESWAP]
    )
    text = layout_to_csv(Y, points)
    lines = text.strip().split("\n")
    assert lines[0] == "x,y,subject,realness,method"
    assert lines[1] == "0.5,-1.25,3,0,none"
    assert lines[2] == "2.0,3.0,1,1,FaceSwap"


def test_layout_csv_count_mismatch():
    with pytest.raises(ConfigError):
        layout_to_csv(np.zeros((2, 2)), EmbeddingDataset.reals([0], [[1.0, 0.0]]))


def test_kl_trace_csv_one_based():
    text = kl_trace_to_csv(np.array([0.5, 0.25]))
    assert text == "iteration,kl\n1,0.5\n2,0.25\n"
