"""Artifact bytes pinned by sha256.

Runs `demo.cfg` and then every subcommand that writes files, and compares
the sha256 of each file written against the digests of the initial import
(commit 4314888). The subcommands' own `manifest.json` files came later,
when every subcommand began to end with one, and so did the `train-*`
files of the six losses, recorded before the margin loss's forward and
backward passes became one call. The four t-SNE files (`tsne.csv` and
`kl_trace.csv` of `run` and `tsne`) were pinned again when the descent began
to compute each pair once, which sums in another order. `demo.cfg`'s CSV
is below the codec's split threshold, so the full run codes it in this
process; the files that the forked CSV codec writes are checked once more
with it cut into 3 parts. Reruns are byte-identical for one
numpy version, SIMD tier and BLAS core; numpy's vector loops and a BLAS
kernel with another FMA order may change the bytes on another host, so a
mismatch names all three.
"""

import ctypes
import hashlib
from pathlib import Path

import numpy as np

from verifake import dataset_io
from verifake.cli import EXIT_OK, main
from verifake.losses import LOSS_NAMES

DEMO = Path(__file__).resolve().parents[1] / "demo.cfg"

COMMANDS = [
    ["run", "--config", str(DEMO), "--out", "run"],
    ["eval", "run/embeddings.emb1", "--config", str(DEMO), "--out", "eval-emb1"],
    ["synth", "--config", str(DEMO), "--format", "emb1", "--out", "synth-emb1"],
    ["synth", "--config", str(DEMO), "--format", "csv", "--out", "synth-csv"],
    ["eval", "synth-csv/synth.csv", "--config", str(DEMO), "--out", "eval-csv"],
    ["tsne", "run/embeddings.emb1", "--config", str(DEMO), "--out", "tsne"],
    ["report", "run/scores.csv", "--out", "report"],
    *(
        ["train", "--config", str(DEMO), "--loss", loss, "--out", f"train-{loss}"]
        for loss in LOSS_NAMES
    ),
]
SYNTH_CSV, EVAL_CSV = COMMANDS[3:5]
# the pinned files that forked code writes: the CSV codec's
FORKED = ("synth-csv/", "eval-csv/")

DIGESTS = {
    "eval-csv/manifest.json": "a7a4b50ba9f84ef5e17b82653672eae81550372baf86dea72ef44e7308e38034",
    "eval-csv/report.json": "cf46b791574daf4e48830a2bcd5cba78d35fc652b6f5e001197fba2ddf03a908",
    "eval-csv/report.txt": "e0e653c838e1a574ebe7067958f6cd8779c03e6268d91f9b6962faa0db3a7b5f",
    "eval-csv/scores.csv": "db352fa39e97477890989312c83f353ab495762dbff5cf2aa21e3c2d5be76d98",
    "eval-emb1/manifest.json": "a7a4b50ba9f84ef5e17b82653672eae81550372baf86dea72ef44e7308e38034",
    "eval-emb1/report.json": "06ed500be8f106d950f621cc437141204170c7f7cb7ad0160000cd060b94e742",
    "eval-emb1/report.txt": "eb7663777a19ca8febe646e50cc8c38c16697c139295f1d03573382fe08a6404",
    "eval-emb1/scores.csv": "0cf9f2f4a85066a47ed5b48787a946cbb4d781ee3bd0ca4dd6da7bdcef022fae",
    "report/manifest.json": "346084b1c57a37cfc09eac9628b2a87853f87d87398944433ed10049934d074f",
    "report/report.json": "129f66141215c45efb8f41122e37936a707b993040670735101b5628654121b6",
    "report/report.txt": "0c1ff3ad4c16805caf263c16a0cd6cd616f38f5bdbdb235e6db5f3db8d36d8f4",
    "run/embeddings.emb1": "15c7ab8274e1b8ba6e5da14df528b9333eab9e8fcca8a1308153ebac1af142a1",
    "run/histograms.csv": "6bf98fa3aae38d4cc03bfdf5eb83eeba7acafee2d652df144550b675daa37cb3",
    "run/kl_trace.csv": "a92af813dd348866f4b165bf9f4c277c1a3bd8dcbd423169132f4e9492f34bad",
    "run/manifest.json": "75a0a9e32cfd4c0095df33fe21a162c6267645ec53cc2aa70b3af7a7c430cc39",
    "run/report.json": "3dfda45a4856b2462448613f115e481c56949ffab4ea1a9595271937768d346d",
    "run/report.txt": "cf6b53eb9fd5b626ffce71502254ba3ebc6a20de157bb0477ffc6705d5839594",
    "run/roc.csv": "ac81cc6a1f0663bdd3fde0c8022d9ae2c67dcf1b87d86e4763e9a0841f635461",
    "run/scores.csv": "0cf9f2f4a85066a47ed5b48787a946cbb4d781ee3bd0ca4dd6da7bdcef022fae",
    "run/train_curve.csv": "ecb77fa3b0b7092e98a3debbe7fbdf60766bed717cc25e7bd37f3f6ce1df3dac",
    "run/tsne.csv": "b4dc93ec083d79538ecb3d20e231efd961aea863305a932cb394ccb7e28955e0",
    "synth-csv/manifest.json": "c2c76b7a3b1a422e9530ca09b43534d0b3063772721aab41fad3cd63a09d4312",
    "synth-csv/synth.csv": "2e0487f3fd861e54c1f063d5f1600aa0cb8fef3ae274e0fda1c4325ebb4fbbae",
    "synth-emb1/manifest.json": "75127cdeced431c99b4e5157bd28035ffb2717d5ba1ddc7216cd06383cb50521",
    "synth-emb1/synth.emb1": "e8a4132cad3603d8f25416e89d1db7eb815e1445b2003cdd6ac9ade5832d8cec",
    "tsne/kl_trace.csv": "a92af813dd348866f4b165bf9f4c277c1a3bd8dcbd423169132f4e9492f34bad",
    "tsne/manifest.json": "ba3e237e6dbe4e5f678a4a08442f69d0672920d10cb9f3bcfcc1fa3d888eb980",
    "tsne/tsne.csv": "b4dc93ec083d79538ecb3d20e231efd961aea863305a932cb394ccb7e28955e0",
    "train-arcface/embeddings.emb1": "e23156708c6c723101cdf562f45be45d53acc46fe8d0a2afb4b0ba8a98d61b00",
    "train-arcface/manifest.json": "3c77f7531e4113446ccfc8582cc816704d9b0301af8015ef8be53fc2e43763e2",
    "train-arcface/train_curve.csv": "f90db5b58886050ba5b252f05a16a38e4808d4333f1aa8a0b46750df6082de52",
    "train-combined/embeddings.emb1": "166a43983be4a1ef4c31e8c095d29dc30f133ff5492a4c9e440f1c93176d9c21",
    "train-combined/manifest.json": "3c77f7531e4113446ccfc8582cc816704d9b0301af8015ef8be53fc2e43763e2",
    "train-combined/train_curve.csv": "20da58365746424784897094455d9e5484b8b800509dafcf67db789a0d338ff9",
    "train-cosface/embeddings.emb1": "15c7ab8274e1b8ba6e5da14df528b9333eab9e8fcca8a1308153ebac1af142a1",
    "train-cosface/manifest.json": "3c77f7531e4113446ccfc8582cc816704d9b0301af8015ef8be53fc2e43763e2",
    "train-cosface/train_curve.csv": "ecb77fa3b0b7092e98a3debbe7fbdf60766bed717cc25e7bd37f3f6ce1df3dac",
    "train-softmax/embeddings.emb1": "44eab26aa2c546af82348470f5dd6d25b43ff8624efae4d544cdb81e9d223275",
    "train-softmax/manifest.json": "3c77f7531e4113446ccfc8582cc816704d9b0301af8015ef8be53fc2e43763e2",
    "train-softmax/train_curve.csv": "073c81666b9a91c8b7876228a261f0c17d46570e8a4d97d55739f209180d358d",
    "train-sphereface/embeddings.emb1": "d648aea195ccbe9c5573360e69901f00f4c3e613bd5ef0322aa694389b786fa9",
    "train-sphereface/manifest.json": "3c77f7531e4113446ccfc8582cc816704d9b0301af8015ef8be53fc2e43763e2",
    "train-sphereface/train_curve.csv": "dcdc894a23f219a08370ceb66d19367a207869cf8da3e1d453d3427179dd0ddf",
    "train-triplet/embeddings.emb1": "87df9aaf8b0f44d725bebccfe9ab907b5525b6d85eb6427c40afb7e35c1a5610",
    "train-triplet/manifest.json": "3c77f7531e4113446ccfc8582cc816704d9b0301af8015ef8be53fc2e43763e2",
    "train-triplet/train_curve.csv": "3dce583e105f0528093c8add4998175a53e38c993675b8b6f0e1108e683c2870",
}


def blas_core() -> str:
    """The BLAS build numpy links and, for OpenBLAS, the core kernel it
    picked at run time."""
    try:  # mode= needs numpy >= 1.26
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        build = "unknown BLAS"
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return f"{build}, core {fn().decode()}"
    return build


def simd_tier() -> str:
    """The highest SIMD target numpy dispatches to on this CPU, or its
    baseline when it dispatches to none."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    usable = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    return (usable or umath.__cpu_baseline__ or ["no SIMD"])[-1]


def check_digests(root, commands, prefixes=("",)):
    """Run `commands` in `root`, then compare the files written whose names
    start with one of `prefixes` against the pinned ones: the same names
    and the same bytes."""
    for argv in commands:
        assert main(argv) == EXIT_OK, argv
    written = {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in root.rglob("*")
        if path.is_file() and path.relative_to(root).as_posix().startswith(prefixes)
    }
    pinned = sorted(name for name in DIGESTS if name.startswith(prefixes))
    assert sorted(written) == pinned
    changed = [name for name in pinned if written[name] != DIGESTS[name]]
    assert not changed, (
        f"artifact bytes changed: {', '.join(changed)} "
        f"(numpy {np.__version__}, SIMD {simd_tier()}, {blas_core()})"
    )


def test_artifact_bytes_match_pinned_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    check_digests(tmp_path, COMMANDS)
    capsys.readouterr()


def test_csv_codec_in_3_parts_matches_pinned_digests(tmp_path, monkeypatch, capsys):
    # demo.cfg's CSV is below _SPLIT_MIN_VALUES, so on its own it is one part
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(dataset_io, "worker_count", lambda size, minimum: 3)
    check_digests(tmp_path, [SYNTH_CSV, EVAL_CSV], FORKED)
    capsys.readouterr()
