"""Embedder network and the SGD training loop."""

import warnings

import numpy as np
import pytest

import verifake.trainer as trainer_mod
from helpers import reference_triplet_batch
from verifake.errors import ConfigError, VerifakeError
from verifake.synthetic import SyntheticSpec, generate_identities
from verifake.trainer import (
    EmbedderNetwork,
    TrainConfig,
    extract_embeddings,
    train_embedder,
)


def small_dataset(seed=0, ids=5, samples=12, dim=16):
    return generate_identities(
        SyntheticSpec(ids, samples, dim, concentration=6.0, seed=seed)
    )


def quick_cfg(**kw):
    base = dict(batch_size=16, epochs=4, lr=0.1, momentum=0.9, weight_decay=5e-4, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(lr=-0.1)
    with pytest.raises(ConfigError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(weight_decay=-1e-4)
    with pytest.raises(ConfigError):
        TrainConfig(lr_marks=(10, 5))
    with pytest.raises(ConfigError):
        TrainConfig(lr_marks=(10,))
    TrainConfig(lr=0.0)  # frozen optimizer is allowed


def test_network_init_shapes():
    net = EmbedderNetwork.initialized((16, 128, 128, 64), np.random.default_rng(0))
    assert [W.shape for W in net.weights] == [(16, 128), (128, 128), (128, 64)]
    assert net.raw_dim == 16
    for b in net.biases:
        assert np.all(b == 0.0)


def test_embed_output_unit_norm():
    net = EmbedderNetwork.initialized((8, 32, 4), np.random.default_rng(1))
    X = np.random.default_rng(2).normal(size=(20, 8))
    E = net.embed(X)
    assert np.abs(np.linalg.norm(E, axis=1) - 1.0).max() <= 1e-6


def test_embed_batch_independence():
    # embedding a row alone equals embedding it inside any batch, bitwise
    net = EmbedderNetwork.initialized((8, 16, 4), np.random.default_rng(3))
    X = np.random.default_rng(4).normal(size=(7, 8))
    batch = net.embed(X)
    for i in range(7):
        assert np.array_equal(batch[i], net.embed_one(X[i]))


def test_embed_deterministic():
    net = EmbedderNetwork.initialized((8, 16, 4), np.random.default_rng(5))
    x = np.random.default_rng(6).normal(size=8)
    assert np.array_equal(net.embed_one(x), net.embed_one(x))


def test_embed_dimension_checked():
    net = EmbedderNetwork.initialized((8, 16, 4), np.random.default_rng(7))
    with pytest.raises(VerifakeError, match=r"expected raw vector of dim 8, got shape \(9,\)"):
        net.embed_one(np.zeros(9))


def test_training_reduces_loss():
    raw = small_dataset()
    _, curve = train_embedder(raw, "cosface", quick_cfg(epochs=6), embed_dim=16)
    assert curve.shape == (6,)
    assert curve[-1] < curve[0]


def test_lr_zero_is_a_no_op():
    raw = small_dataset(seed=1)
    net, curve = train_embedder(raw, "cosface", quick_cfg(lr=0.0), embed_dim=8)
    fresh = EmbedderNetwork.initialized(
        (raw.features.shape[1], 128, 128, 8), np.random.default_rng(0)
    )
    for trained, init in zip(net.weights, fresh.weights):
        assert np.array_equal(trained, init)
    # per-sample losses are identical; only the epoch-mean summation order
    # follows the shuffle, so flatness holds to fp accumulation error
    assert np.ptp(curve) < 1e-9


def test_training_deterministic():
    raw = small_dataset(seed=2)
    _, c1 = train_embedder(raw, "arcface", quick_cfg(), embed_dim=8)
    _, c2 = train_embedder(raw, "arcface", quick_cfg(), embed_dim=8)
    assert np.array_equal(c1, c2)


def test_margin_training_needs_two_identities():
    raw = small_dataset(ids=2)
    solo = type(raw)(
        raw.features[raw.labels == 0], raw.labels[raw.labels == 0], raw.means[:1]
    )
    with pytest.raises(ConfigError):
        train_embedder(solo, "cosface", quick_cfg(), embed_dim=8)


def test_unknown_loss_rejected():
    with pytest.raises(ConfigError):
        train_embedder(small_dataset(), "hinge", quick_cfg())


def test_all_losses_train():
    raw = small_dataset(seed=3, ids=4, samples=10)
    for loss in ("softmax", "arcface", "cosface", "sphereface", "combined", "triplet"):
        net, curve = train_embedder(raw, loss, quick_cfg(epochs=2), embed_dim=8)
        assert np.all(np.isfinite(curve))
        assert net.weights[-1].shape[1] == 8


def test_margin_head_stays_unit_norm_under_momentum():
    # the trainer owns the head between steps and must keep its columns
    # on the sphere or the loss would reject them mid-run
    raw = small_dataset(seed=4)
    _, curve = train_embedder(
        raw, "cosface", quick_cfg(epochs=8, momentum=0.9), embed_dim=8
    )
    assert np.all(np.isfinite(curve))


def test_lr_marks_respected():
    raw = small_dataset(seed=5)
    # marks beyond the run keep lr constant; identical to default-less run
    _, c1 = train_embedder(raw, "cosface", quick_cfg(lr_marks=(10 ** 6, 10 ** 6 + 1)))
    _, c2 = train_embedder(raw, "cosface", quick_cfg(lr_marks=(10 ** 6, 10 ** 6 + 1)))
    assert np.array_equal(c1, c2)


def test_extract_embeddings_roundtrip():
    raw = small_dataset(seed=6, ids=3, samples=5)
    net, _ = train_embedder(raw, "cosface", quick_cfg(epochs=1), embed_dim=8)
    ds = extract_embeddings(net, raw.features, raw.labels)
    assert len(ds) == len(raw)
    assert ds.dim == 8
    assert not ds.fake.any()
    assert ds.subject.tolist() == raw.labels.tolist()
    # rows embedded one at a time, stored float32
    assert ds.vectors.tobytes() == np.stack(
        [net.embed_one(row) for row in raw.features]
    ).astype(np.float32).tobytes()
    # unit norm within float32 storage tolerance
    M = ds.vectors.astype(np.float64)
    assert np.abs(np.linalg.norm(M, axis=1) - 1.0).max() < 1e-6


def test_extract_embeddings_dim_checked():
    raw = small_dataset(seed=7)
    net, _ = train_embedder(raw, "cosface", quick_cfg(epochs=1), embed_dim=8)
    with pytest.raises(VerifakeError, match="network expects raw dim 16, got 15"):
        extract_embeddings(net, raw.features[:, :-1], raw.labels)


def test_triplet_needs_pairable_identities():
    raw = small_dataset(seed=8, ids=3, samples=1)
    with pytest.raises(ConfigError):
        train_embedder(raw, "triplet", quick_cfg(), embed_dim=8)


def network_bytes(net):
    return b"".join(a.tobytes() for a in net.weights + net.biases)


def test_triplet_training_matches_per_triple_reference(monkeypatch):
    raw = small_dataset(seed=9, ids=5, samples=12)
    cfg = quick_cfg(epochs=6, batch_size=8)
    net, curve = train_embedder(raw, "triplet", cfg, embed_dim=8)
    monkeypatch.setattr(trainer_mod, "triplet_loss_batch", reference_triplet_batch)
    ref_net, ref_curve = train_embedder(raw, "triplet", cfg, embed_dim=8)
    assert curve.tobytes() == ref_curve.tobytes()
    assert network_bytes(net) == network_bytes(ref_net)


def test_margin_pieces_built_once_per_batch(monkeypatch):
    calls = []
    original = trainer_mod.margin_loss

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(trainer_mod, "margin_loss", counted)
    raw = small_dataset(seed=10, ids=4, samples=10)  # 40 rows: 3 batches of 16
    for loss in ("arcface", "cosface", "sphereface", "combined"):
        calls.clear()
        train_embedder(raw, loss, quick_cfg(epochs=2), embed_dim=8)
        assert len(calls) == 2 * 3, loss


def test_non_finite_output_fails_with_loss_and_epoch():
    raw = small_dataset(seed=11)
    for loss in ("softmax", "cosface", "triplet"):
        with pytest.raises(VerifakeError, match=rf"{loss} training, epoch 1: .*non-finite"):
            with np.errstate(over="ignore", invalid="ignore"):
                train_embedder(raw, loss, quick_cfg(lr=1e200), embed_dim=8)


def test_divergence_raises_without_overflow_warnings():
    # the output norm overflows before anything else does (mid-epoch 2, so
    # before the epoch-loss gate could stop softmax); taking it must not
    # warn, so the divergence error is all a user sees
    raw = small_dataset(seed=11)
    for loss in ("softmax", "cosface", "triplet"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(VerifakeError, match=rf"{loss} training, epoch \d: .*non-finite"):
                train_embedder(raw, loss, quick_cfg(lr=1e25), embed_dim=8)


def test_non_finite_epoch_loss_fails_with_loss_epoch_and_value(monkeypatch):
    calls = []
    original = trainer_mod.plain_softmax_loss

    def nan_from_epoch_two(*args):
        loss, *grads = original(*args)
        calls.append(1)
        return (float("nan") if len(calls) > 4 else loss, *grads)

    monkeypatch.setattr(trainer_mod, "plain_softmax_loss", nan_from_epoch_two)
    raw = small_dataset(seed=12)  # 60 rows: 4 batches of 16 per epoch
    with pytest.raises(VerifakeError, match=r"softmax training diverged: epoch 2 loss is nan"):
        train_embedder(raw, "softmax", quick_cfg(), embed_dim=8)


def test_epoch_loss_past_the_divergence_factor_fails(monkeypatch):
    calls = []
    original = trainer_mod.plain_softmax_loss

    def growing_from_epoch_three(*args):
        loss, *grads = original(*args)
        calls.append(1)
        return (loss * 1e3 if len(calls) > 8 else loss, *grads)

    monkeypatch.setattr(trainer_mod, "plain_softmax_loss", growing_from_epoch_three)
    raw = small_dataset(seed=12)  # 60 rows: 4 batches of 16 per epoch
    with pytest.raises(VerifakeError, match=r"softmax training diverged: epoch 3 loss .* exceeds 10 x epoch 1's loss"):
        train_embedder(raw, "softmax", quick_cfg(), embed_dim=8)
