"""Config parsing, defaults, and the seed-splitting scheme."""

import dataclasses
import hashlib
import re
from pathlib import Path

import pytest

from verifake import config
from verifake.config import (
    FORMAT_VERSIONS,
    PipelineConfig,
    SwapSettings,
    child_seed,
    load_config,
    parse_config,
)
from verifake.embeddings import Method
from verifake.errors import ConfigError
from verifake.losses import MarginConfig, margin_preset
from verifake.synthetic import SyntheticSpec
from verifake.trainer import TrainConfig
from verifake.tsne import TsneConfig

SAMPLE = """
# demo pipeline
run.seed = 7
run.loss = arcface
run.out = scratch

synth.train_identities = 12
synth.eval_identities = 4
synth.samples_per_identity = 30
synth.concentration = 9.5

train.epochs = 5
train.hidden = 64, 64
train.lr_marks = 100, 200

protocol.gallery_size = 8
protocol.aggregation = max

tsne.enabled = false

swap.FaceSwap.alpha = 0.9
swap.FaceSwap.per_subject = 25
swap.NeuralTextures.sigma = 0.02
"""


def test_defaults_are_valid():
    cfg = PipelineConfig()
    assert cfg.seed == 42
    assert cfg.loss_name == "cosface"
    assert cfg.gallery_size == 20
    assert cfg.probe_cap == 1000
    assert [s.method for s in cfg.swaps] == [Method.FACESWAP, Method.NEURALTEXTURES]
    assert cfg.margin is None  # train_embedder falls back to the loss preset


def test_parse_full_sample():
    cfg = parse_config(SAMPLE)
    assert cfg.seed == 7
    assert cfg.loss_name == "arcface"
    assert cfg.out_dir == "scratch"
    assert cfg.train_identities == 12
    assert cfg.eval_identities == 4
    assert cfg.samples_per_identity == 30
    assert cfg.concentration == 9.5
    assert cfg.epochs == 5
    assert cfg.hidden_dims == (64, 64)
    assert cfg.lr_marks == (100, 200)
    assert cfg.gallery_size == 8
    assert cfg.aggregation == "max"
    assert cfg.tsne_enabled is False
    assert cfg.raw_text == SAMPLE


def test_swap_sections_merge_with_defaults():
    cfg = parse_config(SAMPLE)
    by_method = {s.method: s for s in cfg.swaps}
    fs = by_method[Method.FACESWAP]
    assert (fs.alpha, fs.per_subject, fs.sigma) == (0.9, 25, 0.05)
    nt = by_method[Method.NEURALTEXTURES]
    assert (nt.sigma, nt.alpha, nt.per_subject) == (0.02, 0.8, 40)
    # ordered by method code
    assert [s.method for s in cfg.swaps] == sorted(s.method for s in cfg.swaps)


def test_empty_text_gives_defaults():
    cfg = parse_config("")
    assert cfg.seed == PipelineConfig().seed
    assert cfg.config_hash() == hashlib.sha256(b"").hexdigest()


def test_comments_and_blanks_ignored():
    cfg = parse_config("# only a comment\n\nrun.seed = 3   # trailing\n")
    assert cfg.seed == 3


def test_cr_and_crlf_line_breaks_parse_as_lf():
    # lines end at "\r" and "\r\n" too, counted as the CSV readers count them
    text = "run.seed = 3\n# comment\ntrain.epochs = 4\nrun.seed = 5\n"
    for brk in ("\r", "\r\n"):
        twin = text.replace("\n", brk)
        with pytest.raises(ConfigError, match="duplicate assignment of run.seed.*line 4"):
            parse_config(twin)
        a = parse_config(twin.replace("run.seed = 5", ""))
        b = parse_config(text.replace("run.seed = 5", ""))
        assert dataclasses.replace(a, raw_text="") == dataclasses.replace(b, raw_text="")
        assert (a.seed, a.epochs) == (3, 4)


def test_duplicate_key_rejected_with_line():
    text = "run.seed = 1\nrun.seed = 2\n"
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(text)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="run.colour"):
        parse_config("run.colour = blue\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("train.optimizer = adam\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("run.seed = 1\nnot a config line\n")


def test_bad_value_mentions_field():
    with pytest.raises(ConfigError, match="run.seed"):
        parse_config("run.seed = soon\n")
    with pytest.raises(ConfigError, match="tsne.enabled"):
        parse_config("tsne.enabled = maybe\n")
    with pytest.raises(ConfigError, match="train.lr_marks"):
        parse_config("train.lr_marks = 5\n")
    # the generator's own field names appear in no config file
    for part in ("train", "eval"):
        with pytest.raises(ConfigError, match=f"field 'synth.{part}_identities'"):
            parse_config(f"synth.{part}_identities = 1\n")


def test_unknown_loss_rejected():
    with pytest.raises(ConfigError):
        parse_config("run.loss = contrastive\n")


def test_unknown_swap_method_rejected():
    with pytest.raises(ConfigError, match="Morph"):
        parse_config("swap.Morph.alpha = 0.5\n")
    with pytest.raises(ConfigError):
        parse_config("swap.none.alpha = 0.5\n")
    with pytest.raises(ConfigError, match="swap.FaceSwap.strength"):
        parse_config("swap.FaceSwap.strength = 0.5\n")


def test_margin_overrides_extend_preset():
    cfg = parse_config("run.loss = arcface\nloss.m2 = 0.4\nloss.scale = 32\n")
    margin = cfg.margin
    base = margin_preset("arcface")
    assert margin.m2 == 0.4
    assert margin.s == 32.0
    assert (margin.m1, margin.m3) == (base.m1, base.m3)


def test_margin_overrides_need_margin_loss():
    with pytest.raises(ConfigError):
        parse_config("run.loss = softmax\nloss.m3 = 0.2\n")


def test_triplet_margin_key():
    cfg = parse_config("run.loss = triplet\nloss.triplet_margin = 0.3\n")
    assert cfg.triplet.margin == 0.3
    assert cfg.margin is None


def test_aggregation_validated():
    with pytest.raises(ConfigError):
        parse_config("protocol.aggregation = median\n")


def test_format_validated():
    assert parse_config("run.format = csv\n").file_format == "csv"
    with pytest.raises(ConfigError):
        parse_config("run.format = parquet\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.cfg")


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text(SAMPLE)
    assert load_config(path).seed == 7


def test_child_seed_matches_documented_scheme():
    digest = hashlib.sha256(b"42:train").digest()
    assert child_seed(42, "train") == int.from_bytes(digest[-8:], "big")


def test_child_seed_separates_stages():
    seeds = {child_seed(42, st) for st in ("train", "gallery", "tsne", "synth:train")}
    assert len(seeds) == 4
    assert child_seed(42, "train") != child_seed(43, "train")
    assert child_seed(42, "train") == child_seed(42, "train")


def test_format_versions_frozen():
    assert FORMAT_VERSIONS == {
        "emb1": 1,
        "scores_csv": 1,
        "report_json": 1,
        "manifest": 1,
    }


def test_swap_settings_defaults():
    s = SwapSettings(Method.FACESWAP)
    assert (s.alpha, s.sigma, s.per_subject) == (0.8, 0.05, 40)


def test_swap_settings_reject_method_none():
    # built in code, it would pass PipelineConfig, and `run` would train
    # before its embed stage failed without naming a field
    with pytest.raises(ConfigError, match="'none' is not a manipulation method") as info:
        SwapSettings(Method.NONE)
    assert info.value.field == "swap.none"


@pytest.mark.parametrize(
    "key, value",
    [("max_points", "3"), ("perplexity", "1"), ("iterations", "0"), ("learning_rate", "-1")],
)
def test_tsne_settings_checked_at_parse_under_their_key(key, value):
    with pytest.raises(ConfigError) as err:
        parse_config(f"tsne.{key} = {value}\n")
    assert err.value.field == f"tsne.{key}"
    assert f"field 'tsne.{key}'" in str(err.value)
    # a disabled t-SNE stage is not checked at parse; its settings are
    # still checked under their key when the stage is built
    cfg = parse_config(f"tsne.{key} = {value}\ntsne.enabled = false\n")
    with pytest.raises(ConfigError) as err:
        cfg.tsne_config()
    assert err.value.field == f"tsne.{key}"


def test_train_config_built_from_the_run_settings():
    cfg = parse_config("run.seed = 9\ntrain.epochs = 3\ntrain.lr_marks = 4, 8\n")
    assert cfg.train_config() == TrainConfig(epochs=3, lr_marks=(4, 8), seed=child_seed(9, "train"))


def test_tsne_config_built_from_the_run_settings():
    cfg = parse_config("run.seed = 9\ntsne.perplexity = 12\ntsne.iterations = 7\n")
    assert cfg.tsne_config() == TsneConfig(
        perplexity=12.0, iterations=7, learning_rate=200.0, seed=child_seed(9, "tsne")
    )


NAN, INF = float("nan"), float("inf")
SPEC = {"num_identities": 4, "samples_per_identity": 5, "raw_dim": 8}
# (class, arguments, the field its ConfigError names); the bad value is last
NON_FINITE = [
    (TsneConfig, {"learning_rate": NAN}, "learning_rate"),
    (TsneConfig, {"learning_rate": INF}, "learning_rate"),
    (TsneConfig, {"perplexity": NAN}, "perplexity"),
    (TrainConfig, {"lr": NAN}, "lr"),
    (TrainConfig, {"lr": INF}, "lr"),
    (TrainConfig, {"momentum": NAN}, "momentum"),
    (TrainConfig, {"weight_decay": NAN}, "weight_decay"),
    (SyntheticSpec, {**SPEC, "concentration": NAN}, "concentration"),
    (SyntheticSpec, {**SPEC, "concentration": INF}, "concentration"),
    (SwapSettings, {"method": Method.FACESWAP, "sigma": NAN}, "swap.FaceSwap.sigma"),
    (SwapSettings, {"method": Method.FACESWAP, "sigma": INF}, "swap.FaceSwap.sigma"),
    (SwapSettings, {"method": Method.DEEPFAKES, "alpha": NAN}, "swap.Deepfakes.alpha"),
    (MarginConfig, {"m1": NAN}, "m1"),
    (MarginConfig, {"m1": INF}, "m1"),
    (MarginConfig, {"m2": NAN}, "m2"),
    (MarginConfig, {"m3": -INF}, "m3"),
    (MarginConfig, {"s": NAN}, "s"),
    (MarginConfig, {"s": INF}, "s"),
]


@pytest.mark.parametrize(
    "cls, kwargs, field",
    NON_FINITE,
    ids=[f"{cls.__name__}-{field}={list(kw.values())[-1]}" for cls, kw, field in NON_FINITE],
)
def test_settings_built_in_code_reject_non_finite_values(cls, kwargs, field):
    # a range check such as `x <= 0` lets NaN through, and inf through one
    # bound: `run_tsne` with learning_rate nan returned an all-nan layout
    with pytest.raises(ConfigError, match="must be finite") as info:
        cls(**kwargs)
    assert info.value.field == field


README = Path(__file__).resolve().parents[1] / "README.md"
# `key (default)` or a bare key; swap.<Method>.* stands for every method
_README_ENTRY = re.compile(r"([a-z]+(?:\.<Method>)?\.[a-z0-9_]+)(?: \(([^)]*)\))?")


def readme_defaults() -> dict:
    """The keys of README's "Config format" block, each mapped to the
    default it states, or None where it states none."""
    section = README.read_text(encoding="utf-8").split("## Config format", 1)[1]
    block = section.split("```", 2)[1]
    return {
        key.replace("<Method>", "FaceSwap"): default
        for key, default in _README_ENTRY.findall(block)
    }


def test_readme_config_keys_are_the_parsed_keys():
    accepted = {f"{section}.{key}" for section, key in config._SCHEMA}
    accepted |= {f"loss.{key}" for key in config._MARGIN_KEYS} | {"loss.triplet_margin"}
    accepted |= {f"swap.FaceSwap.{key}" for key in config._SWAP_KEYS}
    documented = readme_defaults()
    assert set(documented) == accepted
    assert [key for key, default in documented.items() if not default] == [
        "loss.m1", "loss.m2", "loss.m3", "loss.scale"
    ]


def test_readme_config_defaults_are_the_built_in_defaults():
    default = PipelineConfig()
    assert default.lr_marks is None  # README states it in words
    for key, value in readme_defaults().items():
        if not value or key == "train.lr_marks":
            continue
        parsed = parse_config(f"{key} = {value}\n")
        if key.startswith("swap."):
            assert parsed.swaps == default.swaps[:1], key
        else:
            assert dataclasses.replace(parsed, raw_text="") == default, key
