"""Desk-scale embedder training.

A small feed-forward network (raw_dim -> 128 -> 128 -> d, tanh) with a
final L2 normalization stands in for the large convolutional backbone;
only the loss geometry is under test. Optimization is plain SGD with
momentum and weight decay, with the learning rate divided by 10 at two
iteration marks (by default 60% and 85% of the run).

Margin and triplet losses consume the normalized output and their
gradients are carried back through the normalization stage; the plain
softmax baseline consumes the raw final-layer output, with no feature
normalization anywhere in its loss path.
"""

from dataclasses import dataclass

import numpy as np

from .embeddings import ZERO_NORM, EmbeddingDataset
from .errors import ConfigError, VerifakeError, check_finite
from .losses import (
    LOSS_NAMES,
    ClassHead,
    MarginConfig,
    TripletConfig,
    margin_loss,
    margin_preset,
    plain_softmax_loss,
    triplet_loss_batch,
)

DEFAULT_HIDDEN = (128, 128)
DEFAULT_EMBED_DIM = 64
LR_MARK_FRACTIONS = (0.6, 0.85)
# an epoch loss above this multiple of the first epoch's means training diverged
DIVERGENCE_FACTOR = 10.0


@dataclass(frozen=True)
class TrainConfig:
    """SGD recipe. lr_marks are absolute iteration indices at which the
    learning rate is divided by 10; None resolves to 60% and 85% of the
    total iteration count at train time."""

    batch_size: int = 64
    epochs: int = 25
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lr_marks: tuple | None = None
    seed: int = 0

    def __post_init__(self):
        check_finite(self, "lr", "momentum", "weight_decay")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1", field="batch_size")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1", field="epochs")
        if self.lr < 0:
            raise ConfigError("lr must be >= 0", field="lr")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)", field="momentum")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0", field="weight_decay")
        if self.lr_marks is not None:
            marks = tuple(self.lr_marks)
            if len(marks) != 2 or not marks[0] < marks[1]:
                raise ConfigError(
                    "lr_marks must be two increasing iteration indices",
                    field="lr_marks",
                )
            object.__setattr__(self, "lr_marks", marks)


class EmbedderNetwork:
    """Feed-forward embedder with tanh hidden layers and unit-norm output."""

    def __init__(self, weights: list, biases: list):
        if len(weights) != len(biases) or not weights:
            raise ConfigError("need matching weight/bias lists")
        self.weights = [np.asarray(W, dtype=np.float64) for W in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        for W, b in zip(self.weights, self.biases):
            if W.ndim != 2 or b.shape != (W.shape[1],):
                raise VerifakeError("layer shapes are inconsistent")

    @property
    def raw_dim(self) -> int:
        return self.weights[0].shape[0]

    @staticmethod
    def initialized(layer_dims, rng: np.random.Generator) -> "EmbedderNetwork":
        """Gaussian init scaled by 1/sqrt(fan_in), zero biases."""
        dims = tuple(int(d) for d in layer_dims)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ConfigError(f"bad layer dims {dims}")
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            weights.append(rng.normal(0.0, 1.0 / np.sqrt(fan_in), (fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return EmbedderNetwork(weights, biases)

    def _forward_batch(self, X: np.ndarray):
        """Training-path forward. Returns (unit embeddings, cache)."""
        acts = [X]
        h = X
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.tanh(h @ W + b)
            acts.append(h)
        z = h @ self.weights[-1] + self.biases[-1]
        with np.errstate(over="ignore"):  # an overflowing norm is reported below
            znorm = np.linalg.norm(z, axis=1)
        if not np.all(np.isfinite(znorm)):
            # an infinite norm of finite z would give zero rows below
            raise VerifakeError("embedder produced a non-finite vector (training diverged)")
        if np.any(znorm <= ZERO_NORM):
            raise VerifakeError("embedder produced a zero vector")
        e = z / znorm[:, None]
        return e, {"acts": acts, "z": z, "znorm": znorm, "e": e}

    def _backward_batch(self, cache, dout: np.ndarray, normalized: bool):
        """Gradients for all layers given d(loss)/d(output).

        `normalized` selects whether dout is w.r.t. the unit output e
        (margin/triplet path) or the raw final output z (softmax path).
        """
        if normalized:
            e, znorm = cache["e"], cache["znorm"]
            dz = (dout - (dout * e).sum(axis=1, keepdims=True) * e) / znorm[:, None]
        else:
            dz = dout

        grads_W = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        acts = cache["acts"]
        grads_W[-1] = acts[-1].T @ dz
        grads_b[-1] = dz.sum(axis=0)
        dh = dz @ self.weights[-1].T
        for k in range(len(self.weights) - 2, -1, -1):
            dpre = dh * (1.0 - acts[k + 1] ** 2)
            grads_W[k] = acts[k].T @ dpre
            grads_b[k] = dpre.sum(axis=0)
            if k > 0:  # the gradient w.r.t. the raw input is never used
                dh = dpre @ self.weights[k].T
        return grads_W, grads_b

    def embed_one(self, x) -> np.ndarray:
        """Embed a single raw vector (unit-norm float64 output)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.raw_dim,):
            raise VerifakeError(
                f"expected raw vector of dim {self.raw_dim}, got shape {x.shape}"
            )
        h = x
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.tanh(np.dot(h, W) + b)
        z = np.dot(h, self.weights[-1]) + self.biases[-1]
        norm = np.linalg.norm(z)
        if norm <= ZERO_NORM:
            raise VerifakeError("embedder produced a zero vector")
        return z / norm

    def embed(self, X) -> np.ndarray:
        """Embed rows one at a time so results are independent of batch
        composition bit for bit."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise VerifakeError(f"expected (n, raw_dim) input, got {X.shape}")
        return np.stack([self.embed_one(row) for row in X])


def _triplet_indices(labels: np.ndarray, by_label: dict, rng: np.random.Generator):
    """Positive and negative companions for each anchor index."""
    n = labels.shape[0]
    anchors = rng.permutation(n)
    pos = np.empty(n, dtype=np.int64)
    neg = np.empty(n, dtype=np.int64)
    for j, a in enumerate(anchors):
        same = by_label[labels[a]]
        p = a
        while p == a:
            p = same[rng.integers(len(same))]
        while True:
            q = rng.integers(n)
            if labels[q] != labels[a]:
                break
        pos[j], neg[j] = p, q
    return anchors, pos, neg


def train_embedder(
    dataset,
    loss_name: str,
    cfg: TrainConfig,
    embed_dim: int = DEFAULT_EMBED_DIM,
    hidden_dims=DEFAULT_HIDDEN,
    margin: MarginConfig | None = None,
    triplet: TripletConfig | None = None,
):
    """Train an embedder on a RawDataset under the named loss.

    Returns (network, loss_curve) where loss_curve[k] is the
    sample-weighted mean batch loss of epoch k. Deterministic for a
    fixed config: parameter init, shuffling, and triplet sampling all
    derive from cfg.seed. Diverged training raises a VerifakeError
    naming the loss and the epoch: when the network output stops being
    finite, or an epoch's loss is not finite or exceeds
    DIVERGENCE_FACTOR times the first epoch's.
    """
    if loss_name not in LOSS_NAMES:
        raise ConfigError(f"unknown loss {loss_name!r}; expected one of {LOSS_NAMES}")
    features = np.asarray(dataset.features, dtype=np.float64)
    labels = np.asarray(dataset.labels, dtype=np.int64)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise VerifakeError("features and labels are inconsistent")
    n = features.shape[0]
    if n == 0:
        raise ConfigError("cannot train on an empty dataset")
    num_classes = int(labels.max()) + 1
    if loss_name != "softmax" and num_classes < 2:
        raise ConfigError(f"{loss_name} training needs at least 2 identities")

    rng = np.random.default_rng(cfg.seed)
    network = EmbedderNetwork.initialized(
        (features.shape[1], *hidden_dims, embed_dim), rng
    )

    params = list(network.weights) + list(network.biases)
    decay = [True] * len(network.weights) + [False] * len(network.biases)
    head = None
    margin_cfg = None
    triplet_cfg = None
    if loss_name == "triplet":
        triplet_cfg = triplet if triplet is not None else TripletConfig()
        counts = np.bincount(labels, minlength=num_classes)
        if np.any(counts < 2):
            raise ConfigError("triplet training needs >= 2 samples per identity")
        by_label = {c: np.flatnonzero(labels == c) for c in range(num_classes)}
    else:
        head = ClassHead.initialized(embed_dim, num_classes, rng)
        params.append(head.W)
        if loss_name == "softmax":
            decay.append(True)
            params.append(head.b)
            decay.append(False)
        else:
            # margin losses keep W on the sphere (renormalized after every
            # step), which makes weight decay on it a no-op radial pull
            decay.append(False)
            margin_cfg = margin if margin is not None else margin_preset(loss_name)

    velocity = [np.zeros_like(p) for p in params]
    batches_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    total_iters = cfg.epochs * batches_per_epoch
    marks = cfg.lr_marks or (
        int(LR_MARK_FRACTIONS[0] * total_iters),
        int(LR_MARK_FRACTIONS[1] * total_iters),
    )

    curve = np.zeros(cfg.epochs, dtype=np.float64)
    iteration = 0
    for epoch in range(cfg.epochs):
        if loss_name == "triplet":
            anchors, pos, neg = _triplet_indices(labels, by_label, rng)
            order = np.stack([anchors, pos, neg], axis=1)
        else:
            order = rng.permutation(n)

        weighted_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            lr = cfg.lr / (10.0 ** sum(iteration >= m for m in marks))
            batch = order[start : start + cfg.batch_size]
            nb = len(batch)

            try:
                e, cache = network._forward_batch(features[batch.reshape(-1)])
            except VerifakeError as exc:
                raise VerifakeError(f"{loss_name} training, epoch {epoch + 1}: {exc}") from exc
            if loss_name == "triplet":
                loss_sum, de = triplet_loss_batch(e, triplet_cfg)
                loss = loss_sum / nb
                gW, gb = network._backward_batch(cache, de / nb, normalized=True)
                grads = gW + gb
            elif loss_name == "softmax":
                loss, dz, dW, db = plain_softmax_loss(cache["z"], labels[batch], head)
                gW, gb = network._backward_batch(cache, dz, normalized=False)
                grads = gW + gb + [dW, db]
            else:
                loss, de, dW = margin_loss(e, labels[batch], head, margin_cfg)
                gW, gb = network._backward_batch(cache, de, normalized=True)
                grads = gW + gb + [dW]

            # SGD with momentum; weight decay applies to weight matrices only
            for p, v, g, decayed in zip(params, velocity, grads, decay):
                total = g + cfg.weight_decay * p if decayed else g
                v *= cfg.momentum
                v += total
                p -= lr * v
            if margin_cfg is not None:
                head.W /= np.linalg.norm(head.W, axis=0, keepdims=True)
            weighted_loss += loss * nb
            iteration += 1
        curve[epoch] = weighted_loss / n
        if not np.isfinite(curve[epoch]):
            raise VerifakeError(
                f"{loss_name} training diverged: epoch {epoch + 1} loss is {curve[epoch]}"
            )
        if curve[epoch] > DIVERGENCE_FACTOR * curve[0]:
            raise VerifakeError(
                f"{loss_name} training diverged: epoch {epoch + 1} loss {curve[epoch]:.6g} "
                f"exceeds {DIVERGENCE_FACTOR:g} x epoch 1's loss {curve[0]:.6g}"
            )

    return network, curve


def extract_embeddings(network: EmbedderNetwork, features, labels) -> EmbeddingDataset:
    """Embed labeled raw vectors into a dataset of real records.

    Extraction is per sample, so the result is independent of how the
    input rows are batched.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise VerifakeError("features and labels are inconsistent")
    if features.shape[1] != network.raw_dim:
        raise VerifakeError(
            f"network expects raw dim {network.raw_dim}, got {features.shape[1]}"
        )
    return EmbeddingDataset.reals(labels, network.embed(features))
