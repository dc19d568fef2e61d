"""Synthetic identity clusters and embedding-space deepfake simulators.

Identities are unit mean directions drawn uniformly on the sphere; the
samples of an identity are its mean plus isotropic Gaussian noise scaled
by 1/concentration, renormalized. Fakes are built directly in embedding
space: an identity swap blends a donor embedding into a host embedding,
an expression swap perturbs a host embedding in place.
"""

import math
from dataclasses import dataclass

import numpy as np

from .embeddings import l2_normalize
from .errors import ConfigError, check_finite


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic identity generator."""

    num_identities: int
    samples_per_identity: int
    raw_dim: int
    concentration: float = 8.0
    seed: int = 0

    def __post_init__(self):
        check_finite(self, "concentration")
        if self.num_identities < 2:
            raise ConfigError("need at least 2 identities", field="num_identities")
        if self.samples_per_identity < 1:
            raise ConfigError(
                "need at least 1 sample per identity", field="samples_per_identity"
            )
        if self.raw_dim < 2:
            raise ConfigError("raw_dim must be >= 2", field="raw_dim")
        if self.concentration <= 0:
            raise ConfigError("concentration must be positive", field="concentration")


@dataclass
class RawDataset:
    """Labeled raw feature vectors plus the true identity means.

    features: (n, raw_dim) unit rows; labels: (n,) identity indices;
    means: (num_identities, raw_dim) unit rows.
    """

    features: np.ndarray
    labels: np.ndarray
    means: np.ndarray

    def __len__(self):
        return self.features.shape[0]


_NORM_BLOCK = 512  # sample rows normalized together


def generate_identities(spec: SyntheticSpec) -> RawDataset:
    """Sample the synthetic identity clusters described by `spec`.

    Draw order is fixed (means first, then all sample noise in one
    block) so outputs are bit-identical for a fixed seed.
    """
    rng = np.random.default_rng(spec.seed)
    k, s, d = spec.num_identities, spec.samples_per_identity, spec.raw_dim

    means = rng.normal(size=(k, d))
    means /= np.linalg.norm(means, axis=1, keepdims=True)

    # in place: each out-of-place step would allocate another k x s x d array
    samples = rng.normal(size=(k, s, d))
    samples /= spec.concentration
    samples += means[:, None, :]
    features = samples.reshape(k * s, d)
    # np.linalg.norm makes two temporaries the size of its input; each row's
    # norm is the same reduction in any block of rows
    for start in range(0, k * s, _NORM_BLOCK):
        block = features[start : start + _NORM_BLOCK]
        block /= np.linalg.norm(block, axis=1, keepdims=True)

    labels = np.repeat(np.arange(k, dtype=np.int64), s)
    return RawDataset(features, labels, means)


def swap_noise(gen: np.random.Generator, sigma: float, dim: int) -> np.ndarray:
    """One fake's noise: isotropic Gaussian whose expected total magnitude
    is sigma (the per-component std is sigma/sqrt(d)), so the perturbation
    strength does not grow with the embedding dimension."""
    return gen.normal(0.0, sigma / math.sqrt(dim), size=dim)


def draws_noise(alpha: float, sigma: float, identity_swap: bool) -> bool:
    """Whether each fake of a swap with blend weight `alpha` and noise
    level `sigma` draws noise. Noise-free expression swaps and degenerate
    identity blends (no noise, alpha 0 or 1) reproduce a source sample bit
    for bit and draw nothing."""
    if sigma != 0.0:
        return True
    return identity_swap and alpha not in (0.0, 1.0)


def identity_swap_rows(donor, host, alpha: float, noise) -> np.ndarray:
    """Identity-swap fakes for aligned (k, d) float64 donor and host rows:

        fake = normalize(alpha * donor + (1 - alpha) * host + noise)

    `noise` has one `swap_noise` row per fake. With `noise` None (a swap
    that draws none, see draws_noise) alpha is 0 or 1 and the host or the
    donor rows are returned.
    """
    if noise is None:
        return donor if alpha == 1.0 else host
    return l2_normalize(alpha * donor + (1.0 - alpha) * host + noise)


def expression_swap_rows(host, noise) -> np.ndarray:
    """Expression-swap fakes for (k, d) float64 host rows:

        fake = normalize(host + noise)

    With `noise` None (a swap that draws none) the host rows are returned.
    """
    if noise is None:
        return host
    return l2_normalize(host + noise)
