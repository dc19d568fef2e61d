"""Synthetic identity clusters and the embedding-space fake simulators."""

import numpy as np
import pytest

from helpers import traced_peak

from verifake import synthetic
from verifake.config import PipelineConfig, SwapSettings
from verifake.embeddings import Method, l2_normalize
from verifake.errors import ConfigError
from verifake.synthetic import (
    SyntheticSpec,
    draws_noise,
    expression_swap_rows,
    generate_identities,
    identity_swap_rows,
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
    with pytest.raises(ConfigError, match="field 'swap.Deepfakes.alpha'"):
        SwapSettings(Method.DEEPFAKES, alpha=1.5)
    with pytest.raises(ConfigError, match="field 'swap.Face2Face.sigma'"):
        SwapSettings(Method.FACE2FACE, sigma=-0.1)


def test_generate_counts_and_labels():
    raw = generate_identities(SyntheticSpec(5, 10, 32, seed=0))
    assert len(raw) == 50
    assert raw.features.shape == (50, 32)
    counts = np.bincount(raw.labels)
    assert counts.tolist() == [10] * 5
    assert raw.means.shape == (5, 32)


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


def whole_array_features(spec):
    """generate_identities' features normalized with one np.linalg.norm
    over the whole (k, s, d) sample array."""
    rng = np.random.default_rng(spec.seed)
    k, s, d = spec.num_identities, spec.samples_per_identity, spec.raw_dim
    means = rng.normal(size=(k, d))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    samples = rng.normal(size=(k, s, d)) / spec.concentration + means[:, None, :]
    return (samples / np.linalg.norm(samples, axis=2, keepdims=True)).reshape(k * s, d)


@pytest.mark.parametrize("rows", ["1", "7", "s", "3s", "ks"])
def test_generate_bits_do_not_depend_on_norm_block(monkeypatch, rows):
    spec = SyntheticSpec(9, 5, 12, concentration=3.0, seed=21)
    k, s = spec.num_identities, spec.samples_per_identity
    block = {"1": 1, "7": 7, "s": s, "3s": 3 * s, "ks": k * s}[rows]
    monkeypatch.setattr(synthetic, "_NORM_BLOCK", block)
    raw = generate_identities(spec)
    assert raw.features.tobytes() == whole_array_features(spec).tobytes()


def test_generate_working_set_is_bounded():
    # at 200 identities, as in the scale config: the samples are normalized
    # in row blocks, so norm's temporaries are no second full-size array
    raw, peak = traced_peak(
        generate_identities, PipelineConfig(eval_identities=200).synthetic_spec("eval")
    )
    features = raw.features.nbytes
    assert peak <= 1.2 * features, f"peak {peak} bytes is {peak / features:.2f}x the features"


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


def noise_rows(rng, sigma, k, dim):
    """k `swap_noise` rows drawn from `rng` in order, as simulate_fakes
    draws them."""
    return np.stack([swap_noise(rng, sigma, dim) for _ in range(k)])


def test_identity_swap_degenerate_blends_exact():
    rng = np.random.default_rng(5)
    donor = l2_normalize(rng.normal(size=16))[None]
    host = l2_normalize(rng.normal(size=16))[None]
    pure_donor = identity_swap_rows(donor, host, 1.0, None)
    pure_host = identity_swap_rows(donor, host, 0.0, None)
    assert pure_donor.tobytes() == donor.tobytes()
    assert pure_host.tobytes() == host.tobytes()


def test_identity_swap_labeling():
    rng = np.random.default_rng(6)
    donor = l2_normalize(rng.normal(size=8))[None]
    host = l2_normalize(rng.normal(size=8))[None]
    # the labels (donor as subject, host) are the caller's; the kernel
    # returns one unit float64 row per fake
    noise = noise_rows(np.random.default_rng(1), 0.05, 1, 8)
    fake = identity_swap_rows(donor, host, 0.8, noise)
    assert fake.shape == (1, 8) and fake.dtype == np.float64
    assert abs(np.linalg.norm(fake[0]) - 1.0) < 1e-12


def test_identity_swap_lands_nearer_donor_center():
    # derived: alpha 0.8 pulls the fake toward the donor on seed 7
    raw = generate_identities(SyntheticSpec(2, 5, 64, concentration=20.0, seed=7))
    donor = raw.features[raw.labels == 0][:1]
    host = raw.features[raw.labels == 1][:1]
    noise = noise_rows(np.random.default_rng(7), 0.05, 1, 64)
    fake = identity_swap_rows(donor, host, 0.8, noise)[0]
    assert float(fake @ raw.means[0]) > float(fake @ raw.means[1])


def test_expression_swap_sigma_zero_exact():
    rng = np.random.default_rng(8)
    host = l2_normalize(rng.normal(size=8))[None]
    fake = expression_swap_rows(host, None)
    assert fake.tobytes() == host.tobytes()


def test_expression_swap_stays_near_host():
    # derived: sigma 0.05 at d=64 keeps cosine above 0.99 on seed 7
    host = l2_normalize(np.random.default_rng(3).normal(size=64))
    noise = noise_rows(np.random.default_rng(7), 0.05, 1, 64)
    fake = expression_swap_rows(host[None], noise)[0]
    assert float(fake @ host) > 0.99


def test_expression_swap_mean_direction():
    # derived: the average of 1000 fakes recovers the host direction
    host = l2_normalize(np.random.default_rng(3).normal(size=64))
    noise = noise_rows(np.random.default_rng(7), 0.05, 1000, 64)
    fakes = expression_swap_rows(np.tile(host, (1000, 1)), noise)
    assert float(l2_normalize(fakes.sum(axis=0)) @ host) > 0.999


def test_simulators_deterministic_for_seed():
    rng = np.random.default_rng(10)
    donor = l2_normalize(rng.normal(size=8))[None]
    host = l2_normalize(rng.normal(size=8))[None]
    def noise():
        return noise_rows(np.random.default_rng(3), 0.05, 1, 8)

    a = identity_swap_rows(donor, host, 0.8, noise())
    assert a.tobytes() == identity_swap_rows(donor, host, 0.8, noise()).tobytes()
    c = expression_swap_rows(host, noise())
    assert c.tobytes() == expression_swap_rows(host, noise()).tobytes()


def test_row_kernels_match_one_fake_at_a_time_bitwise():
    # the batched rows equal the one-vector formula with l2_normalize, in
    # float64, row by row
    rng = np.random.default_rng(12)
    donors = rng.normal(size=(200, 32))
    hosts = rng.normal(size=(200, 32))
    donors /= np.linalg.norm(donors, axis=1, keepdims=True)
    hosts /= np.linalg.norm(hosts, axis=1, keepdims=True)
    noise = np.stack([swap_noise(np.random.default_rng(k), 0.3, 32) for k in range(200)])
    blended = identity_swap_rows(donors, hosts, 0.7, noise)
    perturbed = expression_swap_rows(hosts, noise)
    for k in range(200):
        expect = l2_normalize(0.7 * donors[k] + (1.0 - 0.7) * hosts[k] + noise[k])
        assert blended[k].tobytes() == expect.tobytes()
        assert perturbed[k].tobytes() == l2_normalize(hosts[k] + noise[k]).tobytes()


def test_noise_draw_rule():
    assert draws_noise(0.8, 0.05, identity_swap=True)
    assert draws_noise(0.5, 0.0, identity_swap=True)  # zero-scale draws
    assert not draws_noise(1.0, 0.0, identity_swap=True)
    assert not draws_noise(0.0, 0.0, identity_swap=True)
    assert draws_noise(0.8, 0.05, identity_swap=False)
    assert not draws_noise(0.8, 0.0, identity_swap=False)
