"""Seeded mutation fuzzing of the three input files (EMB1, CSV and
scores.csv) and of the config file.

Each input case flips, truncates, deletes, duplicates or inserts one token
of a small valid file and runs `eval` (on an embedding file) or `report`
(on a scores file) in this process. Every case must end in a documented
exit code with no traceback, and every failure must say where: a line, a
byte offset or a stage. Each config case replaces, deletes, duplicates or
inserts one token of `demo.cfg` and parses it, which builds every stage's
settings; a rejection must name its key or line, and no accepted config
may hold a non-finite float.
"""

import dataclasses
import math
import random
import re
import struct
from pathlib import Path

import pytest

from verifake.cli import main
from verifake.config import parse_config
from verifake.errors import ConfigError

CASES_PER_FORMAT = 100
SEED = 20261019

SMALL_CFG = """
run.seed = 3
synth.eval_identities = 3
synth.samples_per_identity = 10
synth.raw_dim = 8
protocol.gallery_size = 4
protocol.probe_cap = 20
swap.FaceSwap.per_subject = 3
swap.NeuralTextures.per_subject = 3
"""

# what every failure must name
WHERE = re.compile(r"\bline\b|\boffset\b|\bstage\b")
# text tokens that sit near a parser's edge cases
TEXT_TOKENS = [
    "", "0", "-1", "1e999", "nan", "inf", "-0.0", "4294967296", "0x10", "1,5",
    "real", "fake", "genuine", "imposter", "none", "FaceSwap", "NeuralTextures",
    "\r", "\n", ",", " ", "\xe9", "v0",
]
# EMB1 words: zero, all ones, float32 NaN, +inf and 1.0, a u32 past any count
BINARY_WORDS = [
    b"\0\0\0\0", b"\xff\xff\xff\xff", struct.pack("<f", float("nan")),
    struct.pack("<f", float("inf")), struct.pack("<f", 1.0), struct.pack("<I", 1 << 20),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The small config's path and, by format, the bytes of one small
    synthesized dataset as EMB1 and CSV and of its scores.csv, each of
    which `eval` or `report` accepts."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = root / "small.cfg"
    cfg.write_text(SMALL_CFG)
    files = {}
    for fmt in ("emb1", "csv"):
        out = root / f"synth-{fmt}"
        assert main(["synth", "--config", str(cfg), "--format", fmt, "--out", str(out)]) == 0
        files[fmt] = (out / f"synth.{fmt}").read_bytes()
    out = root / "eval"
    assert main(["eval", str(root / "synth-emb1" / "synth.emb1"), "--config", str(cfg), "--out", str(out)]) == 0
    files["scores"] = (out / "scores.csv").read_bytes()
    return cfg, files


def _text_tokens(data: bytes) -> list:
    # fields and the separators between them, so that joining restores the file
    return [t for t in re.split(rb"([,\n])", data) if t]


def _binary_tokens(data: bytes) -> list:
    # EMB1 is made of 4-byte words: header fields, label words, float32s
    return [data[i : i + 4] for i in range(0, len(data), 4)]


def mutate(data: bytes, binary: bool, rng: random.Random):
    """One mutation of `data` -> (its name, the mutated bytes)."""
    tokens = _binary_tokens(data) if binary else _text_tokens(data)
    kind = rng.choice(["flip", "truncate", "delete", "duplicate", "insert"])
    i = rng.randrange(len(tokens))
    if kind == "flip":
        token = bytearray(tokens[i])
        j = rng.randrange(len(token))
        token[j] ^= 1 << rng.randrange(8)
        tokens[i] = bytes(token)
    elif kind == "truncate":
        cut = rng.randrange(len(data))
        return f"truncate at byte {cut}", data[:cut]
    elif kind == "delete":
        del tokens[i]
    elif kind == "duplicate":
        tokens.insert(i, tokens[i])
    else:
        new = rng.choice(BINARY_WORDS) if binary else rng.choice(TEXT_TOKENS).encode("latin-1")
        tokens.insert(i, new)
    return f"{kind} token {i}", b"".join(tokens)


@pytest.mark.parametrize("fmt", ["emb1", "csv", "scores"])
def test_mutated_input_fails_cleanly_and_says_where(inputs, tmp_path, capsys, fmt):
    cfg, files = inputs
    binary = fmt == "emb1"
    rng = random.Random(f"{SEED}-{fmt}")
    path = tmp_path / f"input.{fmt}"
    faults, codes = [], set()
    for case in range(CASES_PER_FORMAT):
        name, mutated = mutate(files[fmt], binary, rng)
        path.write_bytes(mutated)
        if fmt == "scores":
            argv = ["report", str(path), "--out", str(tmp_path / "out")]
        else:
            argv = ["eval", str(path), "--config", str(cfg), "--out", str(tmp_path / "out")]
        try:
            code = main(argv)
        except Exception as exc:  # what a user would see as a traceback
            faults.append(f"case {case} ({name}): {type(exc).__name__}: {exc}")
            continue
        err = capsys.readouterr().err
        codes.add(code)
        if code not in (0, 1, 2) or "Traceback" in err:
            faults.append(f"case {case} ({name}): exit {code}: {err!r}")
        elif code and not WHERE.search(err):
            faults.append(f"case {case} ({name}): exit {code} names no line, offset or stage: {err!r}")
    assert not faults, "\n".join(faults)
    assert codes - {0}, "no mutation was rejected"


DEMO_CFG = Path(__file__).resolve().parents[1] / "demo.cfg"
CONFIG_CASES = 300
# half of them non-finite, each spelled as float() reads it
CONFIG_TOKENS = [
    "nan", "-nan", "NaN", "inf", "-inf", "+inf", "Infinity", "1e999", "-1e999",
    "0", "-1", "0.5", "1e-300", "", "=", "#", "true", "csv", "x",
]


def mutate_config(text: str, rng: random.Random):
    """One mutation of config `text` -> (its name, the mutated text): a
    replaced value, or a deleted, duplicated or inserted word."""
    tokens = re.split(r"(\s+)", text)
    kind = rng.choice(["replace", "delete", "duplicate", "insert"])
    if kind == "replace":
        i = rng.choice([k + 2 for k, t in enumerate(tokens) if t == "="])
        tokens[i] = rng.choice(CONFIG_TOKENS)
        return f"value token {i} -> {tokens[i]!r}", "".join(tokens)
    i = rng.choice([k for k, t in enumerate(tokens) if t and not t.isspace()])
    if kind == "delete":
        tokens[i] = ""
    elif kind == "duplicate":
        tokens.insert(i, tokens[i] + " ")
    else:
        tokens.insert(i, rng.choice(CONFIG_TOKENS) + " ")
    return f"{kind} token {i}", "".join(tokens)


def _float_settings(cfg):
    """(name, value) of every float setting of a parsed config."""
    for part in (cfg, cfg.margin, cfg.triplet, *cfg.swaps):
        if part is not None:
            for f in dataclasses.fields(part):
                value = getattr(part, f.name)
                if isinstance(value, float):
                    yield f"{type(part).__name__}.{f.name}", value


def test_mutated_config_fails_cleanly_and_names_its_key():
    text = DEMO_CFG.read_text()
    rng = random.Random(f"{SEED}-config")
    faults, non_finite = [], 0
    for case in range(CONFIG_CASES):
        name, mutated = mutate_config(text, rng)
        try:
            cfg = parse_config(mutated)
            cfg.tsne_config()  # as `verifake tsne` checks it with tsne.enabled = false
        except ConfigError as exc:
            non_finite += "not a finite number" in exc.reason
            if exc.field is None and exc.line is None:
                faults.append(f"case {case} ({name}): names no key or line: {exc}")
            continue
        except Exception as exc:  # what a user would see as a traceback
            faults.append(f"case {case} ({name}): {type(exc).__name__}: {exc}")
            continue
        bad = [f"{key} = {value}" for key, value in _float_settings(cfg) if not math.isfinite(value)]
        if bad:
            faults.append(f"case {case} ({name}): accepted {', '.join(bad)}")
    assert not faults, "\n".join(faults)
    assert non_finite, "no mutation put a non-finite value into a float key"
