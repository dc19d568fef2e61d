"""
Looking at an embedding space with exact t-SNE
==============================================

Trains a small margin-loss embedder, plants identity-swap fakes in the
resulting space, then flattens everything to 2-D with the exact (no tree
approximation) t-SNE in verifake.tsne. Perplexities are matched per point
by binary search, early exaggeration runs for the first 100 iterations,
and the KL trace should drop steeply once exaggeration lifts.

Without a plotting stack the script reports the geometry numerically:
mean layout distance within a subject vs across subjects, and where the
fakes landed relative to their claimed subject. The full layout goes to
tsne_demo.csv (x, y, subject, realness, method) for any external plotter.
"""

import warnings

import numpy as np

from verifake.config import PipelineConfig, SwapSettings
from verifake.embeddings import Method
from verifake.pipeline import embed_stage, synth_stage, train_stage
from verifake.tsne import TsneConfig, layout_to_csv, run_tsne

cfg = PipelineConfig(
    seed=3,
    train_identities=30,
    eval_identities=6,
    samples_per_identity=30,
    epochs=6,
    swaps=[SwapSettings(Method.FACESWAP, alpha=0.85, sigma=0.04, per_subject=10)],
    tsne_enabled=False,
)

train_raw, eval_raw = synth_stage(cfg)
net, _ = train_stage(cfg, train_raw)
# the real embeddings followed by their simulated fakes, as columns
dataset = embed_stage(cfg, net, eval_raw)

X = dataset.vectors.astype(np.float64)

# points that coincide at float resolution would be jittered apart with a
# warning; print any warning t-SNE gives
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    Y, trace = run_tsne(X, TsneConfig(perplexity=12.0, iterations=600, seed=0))
for w in caught:
    print(f"warning: {w.message}")

print(f"{len(dataset)} points ({dataset.fake.sum()} fakes), KL trace:")
for it in (0, 99, 100, 299, 599):
    print(f"  iteration {it + 1:>4}: KL = {trace[it]:.4f}")

subjects = dataset.subject
real = ~dataset.fake
same = subjects[:, None] == subjects[None, :]
dist = np.linalg.norm(Y[:, None, :] - Y[None, :, :], axis=2)
off = ~np.eye(len(dataset), dtype=bool)

rr = real[:, None] & real[None, :]
print()
print(f"mean layout distance, same subject  (real-real): "
      f"{dist[same & off & rr].mean():8.2f}")
print(f"mean layout distance, cross subject (real-real): "
      f"{dist[~same & rr].mean():8.2f}")

# an identity swap is enrolled under its host (the claimed identity) but
# its embedding has been pulled toward the donor subject, so in the layout
# it should hug the donor cluster and sit far from the claimed one
hosts = dataset.host
fake_idx = np.flatnonzero(~real)
to_claimed = np.array([
    dist[i, (subjects == hosts[i]) & real].mean() for i in fake_idx
])
to_donor = np.array([
    dist[i, (subjects == subjects[i]) & real].mean() for i in fake_idx
])
print(f"fake -> claimed identity's real cluster:         "
      f"{to_claimed.mean():8.2f}")
print(f"fake -> donor identity's real cluster:           "
      f"{to_donor.mean():8.2f}")

with open("tsne_demo.csv", "w", encoding="utf-8") as fh:
    fh.write(layout_to_csv(Y, dataset))
print()
print("wrote tsne_demo.csv")
