"""Synthetic identity clusters and the embedding-space fake simulators."""

import numpy as np
import pytest

from verifake.embeddings import Method, l2_normalize
from verifake.errors import ConfigError, SimulationError
from verifake.synthetic import (
    SwapSpec,
    SyntheticSpec,
    draws_noise,
    expression_swap_rows,
    generate_identities,
    identity_swap_rows,
    simulate_expression_swap,
    simulate_identity_swap,
    swap_noise,
)


def test_spec_validation():
    with pytest.raises(ConfigError):
        SyntheticSpec(1, 10, 32)
    with pytest.raises(ConfigError):
        SyntheticSpec(5, 0, 32)
    with pytest.raises(ConfigError):
        SyntheticSpec(5, 10, 1)
    with pytest.raises(ConfigError):
        SyntheticSpec(5, 10, 32, concentration=0.0)


def test_swap_spec_validation():
    with pytest.raises(ConfigError):
        SwapSpec(alpha=1.5)
    with pytest.raises(ConfigError):
        SwapSpec(noise_sigma=-0.1)


def test_generate_counts_and_labels():
    raw = generate_identities(SyntheticSpec(5, 10, 32, seed=0))
    assert len(raw) == 50
    assert raw.features.shape == (50, 32)
    counts = np.bincount(raw.labels)
    assert counts.tolist() == [10] * 5
    assert raw.num_identities == 5 and raw.raw_dim == 32


def test_generate_unit_norm_rows():
    raw = generate_identities(SyntheticSpec(4, 6, 16, seed=1))
    assert np.abs(np.linalg.norm(raw.features, axis=1) - 1.0).max() < 1e-12
    assert np.abs(np.linalg.norm(raw.means, axis=1) - 1.0).max() < 1e-12


def test_generate_deterministic():
    spec = SyntheticSpec(3, 7, 12, concentration=4.0, seed=99)
    a = generate_identities(spec)
    b = generate_identities(spec)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.means, b.means)


def test_high_concentration_separates_clusters():
    # derived check: at concentration 50 every within-identity cosine
    # exceeds every between-identity cosine on seed 42
    raw = generate_identities(SyntheticSpec(5, 10, 32, concentration=50.0, seed=42))
    C = raw.features @ raw.features.T
    same = raw.labels[:, None] == raw.labels[None, :]
    iu = np.triu_indices(len(raw), k=1)
    within = C[iu][same[iu]]
    between = C[iu][~same[iu]]
    assert within.min() > between.max()


def test_identity_swap_degenerate_blends_exact():
    rng = np.random.default_rng(5)
    donor = l2_normalize(rng.normal(size=16))
    host = l2_normalize(rng.normal(size=16))
    pure_donor = simulate_identity_swap(donor, 0, host, 1, SwapSpec(1.0, 0.0), rng=rng)
    pure_host = simulate_identity_swap(donor, 0, host, 1, SwapSpec(0.0, 0.0), rng=rng)
    assert pure_donor.tobytes() == donor.tobytes()
    assert pure_host.tobytes() == host.tobytes()
    assert pure_donor is not donor  # a copy, not the caller's array


def test_identity_swap_labeling():
    rng = np.random.default_rng(6)
    donor = l2_normalize(rng.normal(size=8))
    host = l2_normalize(rng.normal(size=8))
    # the labels (donor 4 as subject, host 9) are the caller's; the
    # simulator returns the fake's unit vector
    fake = simulate_identity_swap(
        donor, 4, host, 9, SwapSpec(0.8, 0.05), rng=np.random.default_rng(1)
    )
    assert fake.shape == (8,) and fake.dtype == np.float64
    assert abs(np.linalg.norm(fake) - 1.0) < 1e-12


def test_identity_swap_same_identity_rejected():
    v = np.zeros(4)
    v[0] = 1.0
    with pytest.raises(SimulationError):
        simulate_identity_swap(v, 3, v, 3, SwapSpec(), rng=np.random.default_rng(0))


def test_identity_swap_method_must_be_identity_group():
    rng = np.random.default_rng(7)
    donor = l2_normalize(rng.normal(size=8))
    host = l2_normalize(rng.normal(size=8))
    with pytest.raises(ConfigError):
        simulate_identity_swap(donor, 0, host, 1, SwapSpec(), Method.FACE2FACE, rng=rng)
    fake = simulate_identity_swap(donor, 0, host, 1, SwapSpec(), Method.DEEPFAKES, rng=np.random.default_rng(0))
    assert fake.shape == (8,)


def test_identity_swap_lands_nearer_donor_center():
    # derived: alpha 0.8 pulls the fake toward the donor on seed 7
    raw = generate_identities(SyntheticSpec(2, 5, 64, concentration=20.0, seed=7))
    donor_sample = raw.features_of(0)[0]
    host_sample = raw.features_of(1)[0]
    fake = simulate_identity_swap(
        donor_sample, 0, host_sample, 1, SwapSpec(0.8, 0.05), rng=np.random.default_rng(7)
    )
    assert float(fake @ raw.means[0]) > float(fake @ raw.means[1])


def test_expression_swap_sigma_zero_exact():
    rng = np.random.default_rng(8)
    host = l2_normalize(rng.normal(size=8))
    fake = simulate_expression_swap(host, 0.0, rng=rng)
    assert fake.tobytes() == host.tobytes()
    assert fake is not host


def test_expression_swap_stays_near_host():
    # derived: sigma 0.05 at d=64 keeps cosine above 0.99 on seed 7
    host = l2_normalize(np.random.default_rng(3).normal(size=64))
    fake = simulate_expression_swap(host, 0.05, rng=np.random.default_rng(7))
    assert float(fake @ host) > 0.99


def test_expression_swap_mean_direction():
    # derived: the average of 1000 fakes recovers the host direction
    host = l2_normalize(np.random.default_rng(3).normal(size=64))
    rng = np.random.default_rng(7)
    total = np.zeros(64)
    for _ in range(1000):
        total += simulate_expression_swap(host, 0.05, rng=rng)
    assert float(l2_normalize(total) @ host) > 0.999


def test_expression_swap_method_must_be_expression_group():
    host = l2_normalize(np.random.default_rng(9).normal(size=8))
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        simulate_expression_swap(host, 0.05, Method.FACESWAP, rng=rng)
    with pytest.raises(ConfigError, match="noise_sigma"):
        simulate_expression_swap(host, -0.05, rng=rng)
    fake = simulate_expression_swap(host, 0.05, Method.FACE2FACE, rng=rng)
    assert fake.shape == (8,)


def test_simulators_deterministic_for_seed():
    rng = np.random.default_rng(10)
    donor = l2_normalize(rng.normal(size=8))
    host = l2_normalize(rng.normal(size=8))
    spec = SwapSpec(0.8, 0.05)
    a = simulate_identity_swap(donor, 0, host, 1, spec, rng=np.random.default_rng(3))
    b = simulate_identity_swap(donor, 0, host, 1, spec, rng=np.random.default_rng(3))
    assert a.tobytes() == b.tobytes()
    c = simulate_expression_swap(host, 0.05, rng=np.random.default_rng(3))
    d = simulate_expression_swap(host, 0.05, rng=np.random.default_rng(3))
    assert c.tobytes() == d.tobytes()


def test_row_kernels_match_one_fake_at_a_time_bitwise():
    # the batched rows equal the one-vector formula with l2_normalize, in
    # float64, row by row; the one-fake simulators are those rows
    rng = np.random.default_rng(12)
    donors = rng.normal(size=(200, 32))
    hosts = rng.normal(size=(200, 32))
    donors /= np.linalg.norm(donors, axis=1, keepdims=True)
    hosts /= np.linalg.norm(hosts, axis=1, keepdims=True)
    spec = SwapSpec(0.7, 0.3)
    noise = np.stack([swap_noise(np.random.default_rng(k), 0.3, 32) for k in range(200)])
    blended = identity_swap_rows(donors, hosts, spec, noise)
    perturbed = expression_swap_rows(hosts, spec, noise)
    for k in range(200):
        expect = l2_normalize(0.7 * donors[k] + (1.0 - 0.7) * hosts[k] + noise[k])
        assert blended[k].tobytes() == expect.tobytes()
        assert perturbed[k].tobytes() == l2_normalize(hosts[k] + noise[k]).tobytes()
    for k in range(3):
        one = simulate_identity_swap(donors[k], 0, hosts[k], 1, spec, rng=np.random.default_rng(k))
        assert one.tobytes() == blended[k].tobytes()
        one = simulate_expression_swap(hosts[k], 0.3, rng=np.random.default_rng(k))
        assert one.tobytes() == perturbed[k].tobytes()


def test_noise_draw_rule():
    assert draws_noise(SwapSpec(0.8, 0.05), identity_swap=True)
    assert draws_noise(SwapSpec(0.5, 0.0), identity_swap=True)  # zero-scale draws
    assert not draws_noise(SwapSpec(1.0, 0.0), identity_swap=True)
    assert not draws_noise(SwapSpec(0.0, 0.0), identity_swap=True)
    assert draws_noise(SwapSpec(noise_sigma=0.05), identity_swap=False)
    assert not draws_noise(SwapSpec(noise_sigma=0.0), identity_swap=False)
