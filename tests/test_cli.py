"""CLI subcommands, exit codes, and artifact behavior."""

import argparse
import dataclasses
import gc
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from verifake import dataset_io, metrics, pipeline
from verifake.cli import EXIT_CONFIG, EXIT_FAILURE, EXIT_OK, build_parser, main
from verifake.config import load_config
from verifake.dataset_io import read_dataset
from verifake.errors import VerifakeError
from verifake.losses import LOSS_NAMES
from verifake.protocol import AGGREGATIONS

CLI_CFG = """
run.seed = 5
run.loss = cosface

synth.train_identities = 6
synth.eval_identities = 4
synth.samples_per_identity = 14
synth.raw_dim = 16
synth.concentration = 8

train.batch_size = 32
train.epochs = 2
train.embed_dim = 16
train.hidden = 32

protocol.gallery_size = 8
protocol.probe_cap = 50

tsne.perplexity = 8
tsne.iterations = 40
tsne.max_points = 60

swap.FaceSwap.per_subject = 8
swap.NeuralTextures.per_subject = 8
"""


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.cfg"
    path.write_text(CLI_CFG)
    return path


@pytest.fixture(scope="module")
def run_dir(cfg_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_run")
    code = main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert code == EXIT_OK
    return out


def test_run_smoke(run_dir, capsys):
    assert (run_dir / "report.json").is_file()
    report = json.loads((run_dir / "report.json").read_text())
    assert len(report["rows"]) >= 2


def test_run_prints_table_and_location(cfg_path, tmp_path, capsys):
    out = tmp_path / "printed"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    shown = capsys.readouterr().out
    assert "FaceSwap" in shown
    assert "NeuralTextures" in shown
    assert f"artifacts in {out}" in shown


def test_missing_config_exits_2(capsys):
    code = main(["run", "--config", "does_not_exist.cfg"])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_bad_config_line_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("run.seed = 1\nrun.bogus_key = 2\n")
    code = main(["run", "--config", str(bad)])
    assert code == EXIT_CONFIG
    assert "run.bogus_key" in capsys.readouterr().err


def test_undecodable_config_byte_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"run.seed = 1\nrun.out = \xff\n")
    assert main(["synth", "--config", str(bad)]) == EXIT_CONFIG
    assert "undecodable byte 0xff: line 2" in capsys.readouterr().err


def test_run_determinism_byte_identical(cfg_path, run_dir, tmp_path):
    out2 = tmp_path / "second"
    assert main(["run", "--config", str(cfg_path), "--out", str(out2)]) == EXIT_OK
    assert (out2 / "report.json").read_bytes() == (run_dir / "report.json").read_bytes()


def test_seed_override_changes_report(cfg_path, run_dir, tmp_path):
    out2 = tmp_path / "reseeded"
    code = main(
        ["run", "--config", str(cfg_path), "--out", str(out2), "--seed", "99"]
    )
    assert code == EXIT_OK
    assert (out2 / "report.json").read_bytes() != (
        run_dir / "report.json"
    ).read_bytes()


def test_eval_matches_run_report(cfg_path, run_dir, tmp_path, capsys):
    out = tmp_path / "eval_out"
    code = main(
        [
            "eval",
            str(run_dir / "embeddings.emb1"),
            "--config",
            str(cfg_path),
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    run_report = json.loads((run_dir / "report.json").read_text())
    eval_report = json.loads((out / "report.json").read_text())
    assert eval_report["rows"] == run_report["rows"]
    assert eval_report["counts"] == run_report["counts"]
    assert (out / "scores.csv").read_bytes() == (run_dir / "scores.csv").read_bytes()


def test_eval_does_not_import_numpy_ma(run_dir, tmp_path):
    # np.unique imports numpy.ma on its first call, which an eval pays for
    # in every fresh interpreter; the CLI reaches its distinct values another way
    demo = Path(__file__).resolve().parents[1] / "demo.cfg"
    argv = ["eval", str(run_dir / "embeddings.emb1"), "--config", str(demo), "--out", str(tmp_path)]
    script = (
        "import sys\n"
        "from verifake.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.stdout.split("\n")[-2] == f"{EXIT_OK} False", result.stderr


def test_eval_report_holds_no_roc_curves(cfg_path, run_dir, tmp_path, monkeypatch):
    # `eval` writes no roc.csv, so each curve is dropped once its AUC and
    # EER are read; `run` keeps them for roc.csv (pinned in the digest test)
    made = []
    original = metrics.roc_curve

    def recorded(genuine, imposter):
        curve = original(genuine, imposter)
        made.append(weakref.ref(curve))
        return curve

    monkeypatch.setattr(metrics, "roc_curve", recorded)
    cfg = dataclasses.replace(load_config(cfg_path), out_dir=str(tmp_path))
    report, _ = pipeline.execute(cfg, pipeline.eval_command, read_dataset(run_dir / "embeddings.emb1"))
    gc.collect()
    assert len(made) == len(report.rows) == 2
    assert all(ref() is None for ref in made)


def test_eval_does_not_mutate_input(cfg_path, run_dir, tmp_path):
    emb = run_dir / "embeddings.emb1"
    before = emb.read_bytes()
    main(["eval", str(emb), "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert emb.read_bytes() == before


def test_eval_insufficient_enrollment_names_subjects(run_dir, tmp_path, capsys):
    code = main(
        [
            "eval",
            str(run_dir / "embeddings.emb1"),
            "--gallery-size",
            "100",
            "--out",
            str(tmp_path / "y"),
        ]
    )
    assert code == EXIT_FAILURE
    err = capsys.readouterr().err
    # the four held-out subjects (ids 6..9) all fall short of g=100
    assert "6" in err and "9" in err


def test_eval_missing_file_exits_1(capsys):
    code = main(["eval", "no_such_file.emb1"])
    assert code == EXIT_FAILURE


def test_eval_csv_error_names_its_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(
        "subject,host,realness,method,v0,v1\n0,0,real,none,1.0,0.0\n1,1,real,none,x,1.0\n"
    )
    assert main(["eval", str(path), "--out", str(tmp_path / "out")]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert "non-numeric vector component (at line 3)" in err
    assert "offset" not in err


def test_synth_writes_dataset(cfg_path, tmp_path):
    out = tmp_path / "synth_out"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    assert (out / "synth.emb1").is_file()


def test_synth_csv_format(cfg_path, tmp_path):
    out = tmp_path / "synth_csv"
    code = main(
        ["synth", "--config", str(cfg_path), "--out", str(out), "--format", "csv"]
    )
    assert code == EXIT_OK
    text = (out / "synth.csv").read_text()
    assert text.startswith("subject,host,realness,method,")


def test_train_writes_embeddings_and_curve(cfg_path, tmp_path, capsys):
    out = tmp_path / "train_out"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    assert (out / "embeddings.emb1").is_file()
    curve = (out / "train_curve.csv").read_text().strip().split("\n")
    assert curve[0] == "epoch,loss"
    assert len(curve) == 3  # header + 2 epochs
    assert "trained cosface" in capsys.readouterr().out


def test_loss_flag_drops_the_config_margin_overrides(tmp_path, capsys):
    # loss.* keys belong to the config's loss, so --loss takes its own preset
    flagged = tmp_path / "cosface.cfg"
    flagged.write_text(CLI_CFG + "loss.m3 = 0.2\n")
    configured = tmp_path / "sphereface.cfg"
    configured.write_text(CLI_CFG.replace("run.loss = cosface", "run.loss = sphereface"))
    argv = ["train", "--config", str(flagged), "--loss", "sphereface", "--out", str(tmp_path / "a")]
    assert main(argv) == EXIT_OK
    assert main(["train", "--config", str(configured), "--out", str(tmp_path / "b")]) == EXIT_OK
    assert "trained sphereface" in capsys.readouterr().out
    curve = "train_curve.csv"
    assert (tmp_path / "a" / curve).read_bytes() == (tmp_path / "b" / curve).read_bytes()


def test_diverged_training_exits_1(tmp_path, capsys):
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(CLI_CFG.replace("run.loss = cosface", "run.loss = softmax") + "train.lr = 1e200\n")
    out = tmp_path / "diverge_out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert "stage 'train' failed: softmax training, epoch 1" in err
        assert "non-finite" in err
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_FAILURE
    assert "stage 'train' failed: softmax training, epoch 1" in capsys.readouterr().err
    assert not (out / "train_curve.csv").exists()
    assert not (out / "manifest.json").exists()


def test_finite_loss_blow_up_exits_1(tmp_path, capsys):
    # softmax at lr 1e6 stays finite, but epoch 2's loss is ~3e33 x epoch 1's
    cfg = tmp_path / "blow_up.cfg"
    cfg.write_text(CLI_CFG + "train.lr = 1e6\n")
    for command in ("train", "run"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--loss", "softmax", "--out", str(out)]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert re.search(
            r"stage 'train' failed: softmax training diverged: "
            r"epoch 2 loss \S+ exceeds 10 x epoch 1's loss \S+", err
        )
        assert not (out / "manifest.json").exists()


def test_tsne_command(cfg_path, run_dir, tmp_path, capsys):
    out = tmp_path / "tsne_out"
    code = main(
        [
            "tsne",
            str(run_dir / "embeddings.emb1"),
            "--config",
            str(cfg_path),
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    layout = (out / "tsne.csv").read_text().strip().split("\n")
    assert layout[0] == "x,y,subject,realness,method"
    assert len(layout) == 1 + 60  # capped at tsne.max_points
    assert (out / "kl_trace.csv").is_file()


BAD_TSNE = [("max_points", "3"), ("perplexity", "1"), ("iterations", "0"), ("learning_rate", "0")]


def _with_setting(key, value):
    kept = [line for line in CLI_CFG.split("\n") if not line.startswith(f"{key} ")]
    return "\n".join(kept) + f"{key} = {value}\n"


def _with_tsne_setting(key, value, enabled="true"):
    return _with_setting(f"tsne.{key}", value) + f"tsne.enabled = {enabled}\n"


@pytest.mark.parametrize("key, value", BAD_TSNE)
def test_bad_tsne_setting_exits_2_before_any_stage(tmp_path, capsys, key, value):
    cfg = tmp_path / "bad_tsne.cfg"
    cfg.write_text(_with_tsne_setting(key, value))
    out = tmp_path / "bad_tsne_out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert f"field 'tsne.{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [*BAD_TSNE, ("perplexity", "0.5")])
def test_tsne_command_checks_its_settings_before_touching_out(run_dir, tmp_path, capsys, key, value):
    # tsne.enabled = false only spares `run`; `verifake tsne` needs them
    cfg = tmp_path / "bad_tsne.cfg"
    cfg.write_text(_with_tsne_setting(key, value, enabled="false"))
    out = tmp_path / "tsne_out"
    out.mkdir()
    (out / "manifest.json").write_text("{}\n")
    argv = ["tsne", str(run_dir / "embeddings.emb1"), "--config", str(cfg), "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert f"field 'tsne.{key}'" in capsys.readouterr().err
    assert (out / "manifest.json").read_text() == "{}\n"


def test_tsne_on_fewer_than_4_records_fails_its_stage(run_dir, cfg_path, tmp_path, capsys):
    # the config is fine; the dataset is too small, so the stage fails
    small = tmp_path / "small.emb1"
    dataset_io.write_emb1(small, read_dataset(run_dir / "embeddings.emb1").take(np.arange(3)))
    out = tmp_path / "tsne_out"
    argv = ["tsne", str(small), "--config", str(cfg_path), "--out", str(out)]
    assert main(argv) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert "stage 'tsne' failed" in err
    assert "has 3" in err
    assert "config error" not in err
    assert not (out / "manifest.json").exists()


BAD_STAGE_SETTINGS = [
    ("train.momentum", "1.0"),
    ("train.embed_dim", "0"),
    ("train.embed_dim", "1"),
    ("train.hidden", "128, 0"),
    ("protocol.gallery_size", "0"),
    ("protocol.gallery_size", "15"),  # above synth.samples_per_identity
    ("protocol.gallery_size", "14"),  # every real record enrolled: no genuine probe
    ("protocol.probe_cap", "0"),
    ("swap.Deepfakes.alpha", "1.5"),
    ("swap.Face2Face.sigma", "-0.1"),
    ("swap.Deepfakes.per_subject", "-1"),
    ("swap.Deepfakes.per_subject", "0"),
]
# NaN passes range checks such as `x <= 0`, so each of these would reach a
# stage: an all-nan t-SNE layout, a diverged training run, a nan score
NON_FINITE_SETTINGS = [
    ("tsne.learning_rate", "nan"),
    ("tsne.learning_rate", "inf"),
    ("tsne.perplexity", "nan"),
    ("synth.concentration", "nan"),
    ("train.lr", "nan"),
    ("train.weight_decay", "nan"),
    ("loss.scale", "nan"),
    ("loss.m1", "nan"),
    ("swap.FaceSwap.sigma", "nan"),
]


@pytest.mark.parametrize("key, value", BAD_STAGE_SETTINGS + NON_FINITE_SETTINGS)
def test_bad_stage_setting_exits_2_before_any_stage(tmp_path, capsys, key, value):
    cfg = tmp_path / "bad_stage.cfg"
    cfg.write_text(_with_setting(key, value))
    out = tmp_path / "bad_stage_out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert f"field '{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "settings, key",
    [
        ({"loss.m2": "5.0"}, "loss.m2"),
        ({"run.loss": "nosuch", "loss.m3": "0.1"}, "run.loss"),
        ({"loss.triplet_margin": "4.0"}, "loss.triplet_margin"),
    ],
    ids=["bad_margin", "unknown_loss_with_margin", "bad_triplet_margin"],
)
def test_margin_setting_errors_name_their_key(tmp_path, capsys, settings, key):
    text = CLI_CFG
    for name, value in settings.items():
        text = "\n".join(line for line in text.split("\n") if not line.startswith(f"{name} "))
        text += f"\n{name} = {value}\n"
    cfg = tmp_path / "bad_margin.cfg"
    cfg.write_text(text)
    out = tmp_path / "bad_margin_out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert f"field '{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "run"])
@pytest.mark.parametrize("loss_flag", [False, True], ids=["config", "flag"])
def test_triplet_with_one_sample_per_identity_exits_2_before_any_stage(
    tmp_path, capsys, command, loss_flag
):
    # one sample per identity leaves no triplet a positive
    text = _with_setting("synth.samples_per_identity", "1")
    argv = [command, "--config", str(tmp_path / "triplet.cfg"), "--out", str(tmp_path / "out")]
    if loss_flag:
        argv += ["--loss", "triplet"]
    else:
        text = text.replace("run.loss = cosface", "run.loss = triplet")
    (tmp_path / "triplet.cfg").write_text(text)
    assert main(argv) == EXIT_CONFIG
    assert "field 'synth.samples_per_identity'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gallery_size_limit_is_for_run_only(tmp_path):
    # `run` rejects this gallery (BAD_STAGE_SETTINGS); synth never evaluates
    cfg = tmp_path / "big_gallery.cfg"
    cfg.write_text(_with_setting("protocol.gallery_size", "15"))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK


@pytest.mark.parametrize("command", ["synth", "train", "run"])
def test_identity_swap_with_one_eval_identity_exits_2(tmp_path, capsys, command):
    cfg = tmp_path / "one_identity.cfg"
    cfg.write_text(_with_setting("synth.eval_identities", "1"))  # FaceSwap is configured
    out = tmp_path / "one_identity_out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert "field 'synth.eval_identities'" in capsys.readouterr().err
    assert not out.exists()


def test_failed_subcommand_leaves_no_manifest(run_dir, tmp_path, capsys):
    out = tmp_path / "failed_eval"
    argv = ["eval", str(run_dir / "embeddings.emb1"), "--gallery-size", "100", "--out", str(out)]
    assert main(argv) == EXIT_FAILURE
    assert "stage 'protocol' failed" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_failed_rerun_removes_the_old_manifest(cfg_path, tmp_path, monkeypatch, capsys):
    out = tmp_path / "rerun"
    argv = ["train", "--config", str(cfg_path), "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert (out / "manifest.json").is_file()

    def failing_embed(*args):
        raise VerifakeError("embedder fault")

    monkeypatch.setattr(pipeline, "embed_stage", failing_embed)
    assert main(argv) == EXIT_FAILURE
    assert "stage 'embed' failed" in capsys.readouterr().err
    # train_curve.csv was rewritten before the failure, and no manifest vouches for it
    assert (out / "train_curve.csv").is_file()
    assert not (out / "manifest.json").exists()


def test_disabled_tsne_skips_its_checks(tmp_path):
    cfg = tmp_path / "no_tsne.cfg"
    cfg.write_text(_with_tsne_setting("max_points", "3", enabled="false"))
    out = tmp_path / "no_tsne_out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert (out / "report.json").is_file()
    assert not (out / "tsne.csv").exists()


def test_report_command_roundtrip(run_dir, tmp_path, monkeypatch, capsys):
    out = tmp_path / "rep_out"
    code = main(["report", str(run_dir / "scores.csv"), "--out", str(out)])
    assert code == EXIT_OK
    shown = capsys.readouterr().out
    assert "FaceSwap" in shown
    rebuilt = json.loads((out / "report.json").read_text())
    original = json.loads((run_dir / "report.json").read_text())
    assert rebuilt["rows"] == original["rows"]
    # without --out it prints the same table and writes nothing
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    before = sorted(tmp_path.rglob("*"))
    assert main(["report", str(run_dir / "scores.csv")]) == EXIT_OK
    assert capsys.readouterr().out == shown == (out / "report.txt").read_text()
    assert sorted(tmp_path.rglob("*")) == before


def test_report_bad_csv_exits_2(tmp_path, capsys):
    bad = tmp_path / "scores.csv"
    bad.write_text("score,kind,method,subject\n0.5,maybe,none,0\n")
    assert main(["report", str(bad)]) == EXIT_CONFIG
    # an imposter row without a manipulation method, and an undecodable
    # byte, are config errors that name their line
    rows = "score,kind,method,subject\n0.9,genuine,none,1\n0.1,imposter,FaceSwap,1\n"
    capsys.readouterr()
    bad.write_text(rows + "0.2,imposter,none,1\n")
    assert main(["report", str(bad)]) == EXIT_CONFIG
    assert "line 4" in capsys.readouterr().err
    bad.write_bytes(rows.encode() + b"0.2\xff,imposter,FaceSwap,1\n")
    assert main(["report", str(bad)]) == EXIT_CONFIG
    assert "line 4" in capsys.readouterr().err


def test_python_m_verifake_exits_as_main_returns(tmp_path):
    # `python -m verifake` is the console script: a bad scores.csv exits 2
    bad = tmp_path / "scores.csv"
    bad.write_text("score,kind,method,subject\n0.5,maybe,none,0\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run(
        [sys.executable, "-m", "verifake", "report", str(bad)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == EXIT_CONFIG, result.stderr
    assert "line 2" in result.stderr


def test_report_without_genuine_scores_fails_its_stage(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text("score,kind,method,subject\n0.1,imposter,FaceSwap,1\n")
    out = tmp_path / "rep_out"
    for argv in (["report", str(scores)], ["report", str(scores), "--out", str(out)]):
        assert main(argv) == EXIT_FAILURE
        assert "stage 'report' failed" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def _flag_choices(dest):
    """subcommand -> the choices of its flag stored under `dest`."""
    commands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices
    return {
        name: action.choices
        for name, sub in commands.items() for action in sub._actions if action.dest == dest
    }


def test_format_and_aggregation_choices_are_declared_once():
    for dest, names in (("fmt", dataset_io.FORMATS), ("aggregation", AGGREGATIONS)):
        choices = _flag_choices(dest)
        assert choices
        for name, flag_choices in choices.items():
            assert flag_choices is names, name


def test_loss_choices_are_the_loss_names():
    for name, choices in _flag_choices("loss").items():
        assert choices is LOSS_NAMES, name


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["run", "--loss", "perceptron"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_demo_config_smoke(tmp_path, capsys):
    demo = Path(__file__).resolve().parents[1] / "demo.cfg"
    out = tmp_path / "demo_out"
    assert main(["run", "--config", str(demo), "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert len(report["rows"]) >= 2
