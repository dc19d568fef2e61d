"""
End-to-end deepfake screening in one run
========================================

Synthesizes identities, trains a margin-loss embedder, fabricates two kinds
of embedding-space manipulations, then runs the verification protocol:
probes are matched against per-subject galleries and scored by cosine.

The punchline is the contrast between the two manipulation families.
Identity swaps move an embedding toward another person, so verification
catches them. Expression swaps perturb everything except identity, so a
verification system is structurally blind to them and the EER sits near
chance. Run this script, then look at the table.
"""

import argparse
import tempfile

from verifake.config import PipelineConfig, SwapSettings
from verifake.embeddings import Method
from verifake.pipeline import run_pipeline


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out", default=None, help="artifact dir (default: temp)")
    args = ap.parse_args()

    out_dir = args.out or tempfile.mkdtemp(prefix="verifake_demo_")
    cfg = PipelineConfig(
        seed=args.seed,
        out_dir=out_dir,
        swaps=[
            SwapSettings(Method.FACESWAP, alpha=0.8, sigma=0.05, per_subject=80),
            SwapSettings(Method.FACE2FACE, sigma=0.05, per_subject=40),
            SwapSettings(Method.NEURALTEXTURES, sigma=0.05, per_subject=40),
        ],
        probe_cap=200,
        tsne_enabled=False,
    )

    result = run_pipeline(cfg)

    print(result.report.format_table(), end="")
    print()
    counts = result.report.counts
    print(
        f"{counts['genuine']} genuine and {counts['imposter']} manipulated "
        f"probes scored; artifacts in {out_dir}"
    )
    print("expected pattern: FaceSwap EER well below 15%, the expression")
    print("methods hovering around 50% because identity never changed.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
