import datetime
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hydroformer
from hydroformer import cli
from hydroformer import data as D
from hydroformer.errors import ConfigError, DataError
from hydroformer.model import ModelConfig, TransformerModel, load_checkpoint, save_checkpoint
from hydroformer.training import TrainConfig


TINY_CONFIG = """
# desk-size run for fast tests
model.d_model = 8
model.n_heads = 1
model.d_ffn = 16
model.lookback = 4
model.horizon = 2
data.path = data.csv
train.max_epochs = 1
train.learning_rate = 0.001
seed = 3
"""


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """One tiny datagen+train shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.csv"
    cfgfile = root / "run.cfg"
    out = root / "run"
    cfgfile.write_text(TINY_CONFIG.replace("data.csv", str(data)), encoding="utf-8")
    assert cli.main(["datagen", "--seed", "2", "--length", "450",
                     "--out", str(data)]) == 0
    assert cli.main(["train", "--config", str(cfgfile), "--out", str(out)]) == 0
    return {"data": data, "config": cfgfile, "out": out,
            "checkpoint": out / "checkpoint.bin"}


class TestConfigParsing:
    def test_values_and_comments(self):
        values = cli.parse_config_text("model.d_model = 16  # comment\nseed=5\n\n")
        assert values == {"model.d_model": 16, "seed": 5}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            cli.parse_config_text("model.dropout = 0.1")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            cli.parse_config_text("seed = 1\nseed = 2")

    def test_bad_value_cites_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            cli.parse_config_text("seed = 1\nmodel.d_model = eight")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            cli.parse_config_text("just some words")

    def test_build_run_config_sections(self):
        cfg = cli.build_run_config(cli.parse_config_text(
            "model.d_model = 16\nmodel.n_heads = 2\ntrain.batch_size = 8\n"
            "model.lookback = 9\nseed = 11"))
        assert cfg.model.d_model == 16
        assert cfg.model.lookback == 9
        assert cfg.train.batch_size == 8
        assert cfg.train.seed == 11

    @pytest.mark.parametrize("line", ["data.lookback = 9", "data.horizon = 3"])
    def test_data_section_model_aliases_rejected(self, line):
        with pytest.raises(ConfigError, match="unknown key"):
            cli.parse_config_text(line)

    @pytest.mark.parametrize("text", ["seed = -1", "train.learning_rate = nan",
                                      "train.learning_rate = inf", "train.min_delta = nan"])
    def test_unusable_values_rejected(self, text):
        with pytest.raises(ConfigError):
            cli.build_run_config(cli.parse_config_text(text))

    def test_negative_seed_override_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            cli.build_run_config({}, seed_override=-1)

    def test_resolved_round_trips(self):
        cfg = cli.build_run_config(cli.parse_config_text("model.d_model = 16\nmodel.n_heads = 2"))
        text = cli.resolved_config_text(cfg)
        assert cli.build_run_config(cli.parse_config_text(text)) == cfg
        assert [line.split(" = ")[0] for line in text.splitlines()] == sorted(cli._KEY_PARSERS)

    def test_keys_are_the_config_fields(self):
        keys = {f"model.{f.name}" for f in fields(ModelConfig)}
        keys |= {f"train.{f.name}" for f in fields(TrainConfig)}
        keys -= {"model.n_features", "train.seed"}
        assert set(cli._KEY_PARSERS) == keys | {"data.path", "seed"}


class TestDatagen:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["datagen", "--seed", "4", "--length", "420", "--out", str(a)]) == 0
        assert cli.main(["datagen", "--seed", "4", "--length", "420", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_short_length_exit_code(self, tmp_path, capsys):
        rc = cli.main(["datagen", "--seed", "0", "--length", "100",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == cli.EXIT_CONFIG
        assert "error" in capsys.readouterr().err


class TestTrainEvaluate:
    def test_train_artifacts(self, trained_run, capsys):
        out = trained_run["out"]
        assert (out / "resolved_config.txt").exists()
        assert (out / "loss_curve.csv").read_text().startswith("epoch,train_loss,val_loss")
        assert trained_run["checkpoint"].exists()

    def test_evaluate_writes_metrics_and_predictions(self, trained_run, tmp_path, capsys):
        out = tmp_path / "eval"
        rc = cli.main(["evaluate", "--checkpoint", str(trained_run["checkpoint"]),
                       "--data", str(trained_run["data"]), "--leads", "1,2",
                       "--r2-mode", "standard", "--out", str(out)])
        assert rc == 0
        metrics = (out / "metrics.txt").read_text()
        assert metrics.startswith("lead\t")
        preds = (out / "predictions_lead1.csv").read_text().splitlines()
        assert preds[0] == "date,actual,predicted"
        assert len(preds) > 1
        assert (out / "predictions_lead2.csv").exists()

    def test_evaluate_lead_beyond_horizon_is_config_error(self, trained_run, tmp_path, capsys):
        rc = cli.main(["evaluate", "--checkpoint", str(trained_run["checkpoint"]),
                       "--data", str(trained_run["data"]), "--leads", "5",
                       "--out", str(tmp_path / "e2")])
        assert rc == cli.EXIT_CONFIG
        assert not (tmp_path / "e2").exists()

    def test_missing_data_file_is_data_error(self, trained_run, tmp_path, capsys):
        rc = cli.main(["evaluate", "--checkpoint", str(trained_run["checkpoint"]),
                       "--data", str(tmp_path / "nope.csv"),
                       "--out", str(tmp_path / "e3")])
        assert rc == cli.EXIT_DATA

    def test_predict_prints_each_lead(self, trained_run, capsys):
        rc = cli.main(["predict", "--checkpoint", str(trained_run["checkpoint"]),
                       "--data", str(trained_run["data"])])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split(":")[0] for line in lines] == ["lead 1", "lead 2"]
        for line in lines:
            assert math.isfinite(float(line.split(":")[1]))

    def test_corrupt_checkpoint_is_data_error(self, trained_run, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"garbage\n" + b"\x00" * 32)
        rc = cli.main(["predict", "--checkpoint", str(bad),
                       "--data", str(trained_run["data"])])
        assert rc == cli.EXIT_DATA


_NAN = np.float64(np.nan).tobytes()
_NEG_INF = np.float64(-np.inf).tobytes()


@pytest.mark.parametrize("corrupt, edit_body", [
    (lambda h: h["config"].update(dropout=0.1), bytes),
    (lambda h: h["config"].pop("d_ffn"), bytes),
    (lambda h: h["config"].update(attention_mode="banded"), bytes),
    (lambda h: h["config"].update(d_model="eight"), bytes),
    (lambda h: h["config"].update(lookback=True), bytes),
    (lambda h: h.pop("config"), bytes),
    (lambda h: h.pop("params"), bytes),
    (lambda h: h.pop("normalizer"), bytes),
    (lambda h: None, lambda b: b + b"\x00"),
    (lambda h: h["normalizer"]["mean"].pop(), bytes),
    (lambda h: h.update(format_version=1), bytes),
    (lambda h: None, lambda b: _NAN + b[8:]),
    (lambda h: None, lambda b: b[:-8] + _NEG_INF),
    (lambda h: h["normalizer"]["std"].__setitem__(D.TARGET_INDEX, math.inf), bytes),
    (lambda h: h["normalizer"]["mean"].__setitem__(0, math.nan), bytes),
    (lambda h: h["normalizer"]["std"].__setitem__(0, -1.0), bytes),
    (lambda h: h["normalizer"]["std"].__setitem__(0, 0.0), bytes),
], ids=["unknown_config_key", "missing_config_key", "bad_config_value",
        "bad_config_type", "bool_config_value", "missing_config", "missing_params",
        "missing_normalizer", "trailing_bytes", "normalizer_length", "v1_header",
        "nan_first_param", "inf_last_param", "inf_normalizer_std", "nan_normalizer_mean",
        "negative_normalizer_std", "zero_normalizer_std"])
def test_malformed_checkpoint_is_data_error(trained_run, tmp_path, capsys, corrupt, edit_body):
    header_line, _, body = trained_run["checkpoint"].read_bytes().partition(b"\n")
    header = json.loads(header_line)
    corrupt(header)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(json.dumps(header).encode() + b"\n" + edit_body(body))
    rc = cli.main(["predict", "--checkpoint", str(bad), "--data", str(trained_run["data"])])
    assert rc == cli.EXIT_DATA
    assert "checkpoint" in capsys.readouterr().err


def test_numeric_error_names_the_layer(trained_run, tmp_path, capsys):
    model, norm = load_checkpoint(trained_run["checkpoint"])
    wq = model.params["dec.1.cross_attn.wq"]
    wq.data[...] = 1e308
    huge = tmp_path / "huge.bin"
    save_checkpoint(model, norm, huge)
    with np.errstate(over="ignore", invalid="ignore"):
        rc = cli.main(["predict", "--checkpoint", str(huge), "--data",
                       str(trained_run["data"])])
    assert rc == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric error: dec.1.cross_attn: ")
    assert "produced non-finite values" in err


@pytest.mark.parametrize("command, extra", [
    ("predict", []),
    ("evaluate", ["--out", "OUT"]),
    ("explain", ["--global", "--sample", "1", "--permutations", "2", "--out", "OUT"]),
], ids=["predict", "evaluate", "explain"])
def test_checkpoint_with_other_feature_count_is_data_error(trained_run, tmp_path, capsys,
                                                          command, extra):
    cfg = ModelConfig(d_model=8, n_heads=1, d_ffn=16, lookback=4, horizon=2, n_features=5)
    ckpt = tmp_path / "five.bin"
    save_checkpoint(TransformerModel(cfg, seed=0),
                    D.Normalizer(mean=np.zeros(5), std=np.ones(5)), ckpt)
    argv = [command, "--checkpoint", str(ckpt), "--data", str(trained_run["data"])]
    argv += [str(tmp_path / "out") if a == "OUT" else a for a in extra]
    assert cli.main(argv) == cli.EXIT_DATA
    assert "5 features" in capsys.readouterr().err


def test_train_replays_its_resolved_config(trained_run, tmp_path, capsys):
    out = trained_run["out"]
    replay = tmp_path / "replay"
    assert cli.main(["train", "--config", str(out / "resolved_config.txt"),
                     "--out", str(replay)]) == 0
    assert ((replay / "resolved_config.txt").read_bytes()
            == (out / "resolved_config.txt").read_bytes())
    digests = [hashlib.sha256((d / "checkpoint.bin").read_bytes()).hexdigest()
               for d in (out, replay)]
    assert digests[0] == digests[1]


def test_other_data_file_is_normalized_by_the_checkpoint(trained_run, tmp_path, capsys):
    other = tmp_path / "other.csv"
    assert cli.main(["datagen", "--seed", "5", "--length", "450", "--out", str(other)]) == 0
    series = D.load_table(other)
    ckpt = str(trained_run["checkpoint"])

    assert cli.main(["evaluate", "--checkpoint", ckpt, "--data", str(other),
                     "--leads", "1,2", "--out", str(tmp_path / "e")]) == 0
    for lead in (1, 2):
        rows = (tmp_path / "e" / f"predictions_lead{lead}.csv").read_text().splitlines()[1:]
        assert rows
        for row in rows:
            date, actual, _ = row.split(",")
            idx = series.dates.index(datetime.date.fromisoformat(date)) + lead
            assert abs(float(actual) - series.values[idx, D.TARGET_INDEX]) <= 1e-9

    assert cli.main(["explain", "--checkpoint", ckpt, "--data", str(other), "--global",
                     "--sample", "3", "--permutations", "2",
                     "--out", str(tmp_path / "x")]) == 0
    bees = (tmp_path / "x" / "beeswarm.txt").read_text().splitlines()[1:]
    raw = np.full((3, len(D.FEATURE_COLUMNS)), np.nan)
    for line in bees:
        feature, instance, value, _ = line.split("\t")
        raw[int(instance), D.FEATURE_COLUMNS.index(feature)] = float(value)
    for row in raw:  # each instance's anchor row is a row of the file
        assert (np.abs(series.values - row) <= 1e-9).all(axis=1).any()

    # Normalizer.fit refuses a constant column; the checkpoint's does not
    series.values[:, D.FEATURE_COLUMNS.index("win")] = 2.5
    flat = tmp_path / "flat_win.csv"
    D.write_table(series, flat)
    assert cli.main(["evaluate", "--checkpoint", ckpt, "--data", str(flat),
                     "--leads", "1", "--out", str(tmp_path / "f")]) == 0


def _desk_csv_lines(trained_run):
    return trained_run["data"].read_text(encoding="utf-8").splitlines(keepends=True)


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:5] + [lines[5].replace(",", ",\udcff", 1)] + lines[6:],
     "not UTF-8"),
    (lambda lines: lines[:5] + ['"' + "9" * 131073 + '"' + lines[5][lines[5].index(","):]]
     + lines[6:], "field larger"),
    (lambda lines: lines + ["2099-01-01,inf" + ",1.0" * 18 + "\n"], "bad value 'inf' in tm"),
    (lambda lines: lines + ["2099-01-01,1.0,-inf" + ",1.0" * 17 + "\n"], "'-inf' in pre"),
    (lambda lines: lines + ["2099-01-01" + ",1.0" * 18 + ",nan\n"], "'nan' in tc_pre"),
    (lambda lines: lines + ["2099-01-01" + ",1.0" * 7 + ",1e999" + ",1.0" * 11 + "\n"],
     "'1e999' in ch_wl"),
], ids=["not_utf8", "field_over_limit", "inf", "neg_inf", "nan", "overflow"])
def test_unreadable_csv_is_data_error(trained_run, tmp_path, capsys, edit, message):
    bad = tmp_path / "bad.csv"
    # surrogateescape writes "\udcff" as the lone byte 0xff
    bad.write_bytes("".join(edit(_desk_csv_lines(trained_run))).encode("utf-8",
                                                                        "surrogateescape"))
    rc = cli.main(["predict", "--checkpoint", str(trained_run["checkpoint"]),
                   "--data", str(bad)])
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert str(bad) in err and message in err


@settings(max_examples=100, deadline=None)
@given(edits=st.data())
def test_predict_on_damaged_csv_exits_cleanly(trained_run, edits):
    """Byte flips, cuts and inserted bytes in a valid CSV end in exit 0, 3
    or 4, never an exception."""
    blob = bytearray("".join(_desk_csv_lines(trained_run)).encode("utf-8"))
    for _ in range(edits.draw(st.integers(1, 3))):
        pos = edits.draw(st.integers(0, len(blob)))
        kind = edits.draw(st.sampled_from(["flip", "cut", "insert"]))
        if kind == "flip" and pos < len(blob):
            blob[pos] ^= 1 << edits.draw(st.integers(0, 7))
        elif kind == "cut":
            del blob[pos:]
        else:
            blob[pos:pos] = edits.draw(st.binary(min_size=1, max_size=8))
    path = trained_run["data"].with_name("damaged.csv")
    path.write_bytes(bytes(blob))
    rc = cli.main(["predict", "--checkpoint", str(trained_run["checkpoint"]),
                   "--data", str(path)])
    assert rc in (cli.EXIT_OK, cli.EXIT_DATA, cli.EXIT_NUMERIC)


class TestExplainCommand:
    def test_global_importance_outputs(self, trained_run, tmp_path, capsys):
        out = tmp_path / "shap"
        rc = cli.main(["explain", "--checkpoint", str(trained_run["checkpoint"]),
                       "--data", str(trained_run["data"]), "--global",
                       "--sample", "2", "--permutations", "3",
                       "--out", str(out)])
        assert rc == 0
        gi = (out / "global_importance.txt").read_text()
        assert gi.startswith("feature\t")
        assert "group:meteorological" in gi
        bees = (out / "beeswarm.txt").read_text().splitlines()
        assert len(bees) == 1 + 2 * 19
        assert (out / "estimator.txt").read_text() == \
            "estimator = sampled\npermutations = 3\nlead = 1\nseed = 0\n"

    def test_instance_force_report(self, trained_run, tmp_path, capsys):
        series = D.load_table(trained_run["data"])
        ds = D.make_windows(series, 4, 2)
        anchor = ds.split("test").anchors[0].isoformat()
        out = tmp_path / "force"
        rc = cli.main(["explain", "--checkpoint", str(trained_run["checkpoint"]),
                       "--data", str(trained_run["data"]),
                       "--instance", anchor, "--permutations", "3",
                       "--out", str(out)])
        assert rc == 0
        text = (out / "force_report.txt").read_text()
        assert text.startswith("base_value\t")
        assert len(text.splitlines()) == 4 + 19

    def test_exact_estimator_file_lists_no_permutations(self, trained_run, tmp_path, capsys,
                                                         monkeypatch):
        def exact_stub(vf, allow_large=False):
            assert allow_large
            return cli.explain_mod.sampled_shapley(vf, m=2)

        monkeypatch.setattr(cli.explain_mod, "exact_shapley", exact_stub)
        out = tmp_path / "exact"
        rc = cli.main(["explain", "--checkpoint", str(trained_run["checkpoint"]),
                       "--data", str(trained_run["data"]), "--global", "--sample", "1",
                       "--estimator", "exact", "--allow-large-exact", "--out", str(out)])
        assert rc == 0
        assert (out / "estimator.txt").read_text() == "estimator = exact\nlead = 1\nseed = 0\n"

    def test_exact_cap_option_removed(self, trained_run, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["explain", "--checkpoint", str(trained_run["checkpoint"]),
                      "--data", str(trained_run["data"]), "--global",
                      "--estimator", "exact", "--exact-cap", "20",
                      "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_exact_over_cap_refused_before_out(self, trained_run, tmp_path, capsys,
                                                monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("an estimator ran")

        monkeypatch.setattr(cli.explain_mod, "_values", no_work)
        rc = cli.main(["explain", "--checkpoint", str(trained_run["checkpoint"]),
                       "--data", str(trained_run["data"]), "--global", "--sample", "1",
                       "--estimator", "exact", "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_CONFIG
        assert "exceeds cap" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_lead_beyond_horizon_is_config_error(self, trained_run, tmp_path, capsys):
        rc = cli.main(["explain", "--checkpoint", str(trained_run["checkpoint"]),
                       "--data", str(trained_run["data"]), "--global", "--sample", "1",
                       "--lead", "3", "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        assert "lead 3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_instance_date_is_data_error(self, trained_run, tmp_path, capsys):
        rc = cli.main(["explain", "--checkpoint", str(trained_run["checkpoint"]),
                       "--data", str(trained_run["data"]),
                       "--instance", "1999-01-01", "--permutations", "3",
                       "--out", str(tmp_path / "f2")])
        assert rc == cli.EXIT_DATA


class TestBenchCommand:
    def test_single_point(self, tmp_path, capsys):
        out = tmp_path / "bench"
        rc = cli.main(["bench", "--lengths", "16", "--ks", "4,L",
                       "--repeats", "1", "--out", str(out)])
        assert rc == 0
        text = (out / "bench.txt").read_text()
        assert text.splitlines()[0] == "length\tk\tmode\tmedian_s\tmin_s\tequal_to_dense"

    def test_quarter_length_k_is_ceiling(self, tmp_path, capsys):
        out = tmp_path / "bench"
        rc = cli.main(["bench", "--lengths", "30", "--ks", "L/4", "--d-k", "8",
                       "--repeats", "1", "--out", str(out)])
        assert rc == 0
        rows = [ln.split("\t") for ln in (out / "bench.txt").read_text().splitlines()[1:]]
        assert [r[1] for r in rows if r[2] == "sparse"] == ["8"]


_CONFIG_VALUES = st.one_of(
    st.text(max_size=12), st.integers().map(str), st.floats().map(repr),
    st.sampled_from(["none", "auto", "true", "false", "sparse", "dense", "linear",
                     "nonlinear", "tanh", "relu", "paper", "standard", "1,2", "1,,2", "0",
                     "-1", "nan", "-inf", "1e999", "0x10", "1_000", ""]))
_CONFIG_LINES = st.one_of(
    st.text(max_size=30),
    st.builds("{} = {}".format, st.sampled_from(sorted(cli._KEY_PARSERS)), _CONFIG_VALUES))


@settings(max_examples=400, deadline=None)
@given(text=st.lists(_CONFIG_LINES, max_size=8).map("\n".join))
def test_config_text_fuzz(text):
    """Arbitrary config text either builds a config that training can use
    or raises ConfigError or DataError."""
    try:
        cfg = cli.build_run_config(cli.parse_config_text(text))
    except (ConfigError, DataError):
        return
    assert cfg.train.seed >= 0
    assert math.isfinite(cfg.train.learning_rate) and math.isfinite(cfg.train.min_delta)
    assert cli.build_run_config(cli.parse_config_text(cli.resolved_config_text(cfg))) == cfg


@pytest.mark.parametrize("argv, option", [
    (["evaluate", "--leads", "1,x", "--out", "OUT"], "--leads"),
    (["explain", "--global", "--sample", "0", "--out", "OUT"], "--sample"),
    (["explain", "--global", "--sample", "-3", "--out", "OUT"], "--sample"),
    (["explain", "--instance", "2020-13-01", "--out", "OUT"], "--instance"),
    (["explain", "--global", "--lead", "0", "--out", "OUT"], "--lead"),
    (["explain", "--global", "--permutations", "1", "--out", "OUT"], "--permutations"),
    (["bench", "--lengths", "0"], "--lengths"),
    (["bench", "--ks", "L/0"], "--ks"),
    (["bench", "--repeats", "0"], "--repeats"),
    (["bench", "--ks", "0"], "--ks"),
    (["bench", "--d-k", "0"], "--d-k"),
    (["datagen", "--seed", "-1", "--out", "OUT"], "--seed"),
    (["train", "--config", "CONFIG", "--seed", "-1", "--out", "OUT"], "--seed"),
    (["explain", "--global", "--seed", "-1", "--out", "OUT"], "--seed"),
], ids=["leads", "sample_zero", "sample_negative", "instance_date", "explain_lead",
        "explain_permutations", "bench_lengths",
        "bench_ks", "bench_repeats", "bench_k_zero", "bench_d_k", "datagen_seed",
        "train_seed", "explain_seed"])
def test_bad_option_value_exits_2_with_message(trained_run, tmp_path, capsys, argv, option):
    argv = [str(trained_run["config"]) if a == "CONFIG" else a for a in argv]
    if argv[0] in ("evaluate", "explain"):
        argv = argv[:1] + ["--checkpoint", str(trained_run["checkpoint"]),
                           "--data", str(trained_run["data"])] + argv[1:]
    argv = [str(tmp_path / "out") if a == "OUT" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"argument {option}" in err and "expected" in err
    assert not (tmp_path / "out").exists()


def test_evaluate_split_of_one_window_is_data_error(trained_run, tmp_path, capsys):
    # 60 rows at lookback 4, horizon 2: the validation segment is 6 rows, 1 window
    lines = trained_run["data"].read_text().splitlines(keepends=True)
    short = tmp_path / "short.csv"
    short.write_text("".join(lines[:61]), encoding="utf-8")
    rc = cli.main(["evaluate", "--checkpoint", str(trained_run["checkpoint"]),
                   "--data", str(short), "--split", "val", "--leads", "1",
                   "--out", str(tmp_path / "e")])
    assert rc == cli.EXIT_DATA
    assert "val split has 1 window" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_train_without_data_path_is_config_error(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(TINY_CONFIG.replace("data.path = data.csv\n", ""), encoding="utf-8")
    rc = cli.main(["train", "--config", str(cfgfile), "--out", str(tmp_path / "run")])
    assert rc == cli.EXIT_CONFIG
    _assert_one_line_error(capsys, "config error: data.path is not set")
    assert not (tmp_path / "run").exists()


def test_train_on_unreadable_data_makes_no_run_directory(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(TINY_CONFIG.replace("data.csv", str(missing)), encoding="utf-8")
    rc = cli.main(["train", "--config", str(cfgfile), "--out", str(tmp_path / "run")])
    assert rc == cli.EXIT_DATA
    _assert_one_line_error(capsys, "data error: cannot open", str(missing))
    assert not (tmp_path / "run").exists()


def _assert_one_line_error(capsys, *parts):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    for part in parts:
        assert part in err


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("command, extra", [
    ("predict", []),
    ("evaluate", ["--out", "OUT"]),
    ("explain", ["--global", "--sample", "1", "--permutations", "2", "--out", "OUT"]),
])
def test_unopenable_checkpoint_is_data_error(trained_run, tmp_path, capsys, command, extra,
                                             kind):
    ckpt = tmp_path / "ckpt"
    if kind == "directory":
        ckpt.mkdir()
    argv = [command, "--checkpoint", str(ckpt), "--data", str(trained_run["data"])]
    argv += [str(tmp_path / "out") if a == "OUT" else a for a in extra]
    assert cli.main(argv) == cli.EXIT_DATA
    _assert_one_line_error(capsys, "data error: cannot open checkpoint", str(ckpt))


def test_constant_target_in_standard_r2_is_data_error(trained_run, tmp_path, capsys):
    lines = _desk_csv_lines(trained_run)
    col = 1 + D.TARGET_INDEX
    flat = tmp_path / "flat.csv"
    with flat.open("w", encoding="utf-8") as f:
        f.write(lines[0])
        for n, line in enumerate(lines[1:]):
            cells = line.rstrip("\n").split(",")
            if n >= len(lines) // 2:
                cells[col] = "1.5"
            f.write(",".join(cells) + "\n")
    rc = cli.main(["evaluate", "--checkpoint", str(trained_run["checkpoint"]),
                   "--data", str(flat), "--r2-mode", "standard", "--leads", "1",
                   "--out", str(tmp_path / "e")])
    assert rc == cli.EXIT_DATA
    _assert_one_line_error(capsys, "data error: standard-mode r2: constant observations")


@pytest.mark.parametrize("argv, message", [
    (["train", "--config", "{config}", "--out", "{file}"], "cannot make directory {file}"),
    (["evaluate", "--checkpoint", "{ckpt}", "--data", "{data}", "--leads", "1",
      "--out", "{file}"], "cannot make directory {file}"),
    (["explain", "--checkpoint", "{ckpt}", "--data", "{data}", "--global", "--sample", "1",
      "--permutations", "2", "--out", "{file}"], "cannot make directory {file}"),
    (["bench", "--lengths", "8", "--ks", "L", "--d-k", "4", "--repeats", "1",
      "--out", "{file}"], "cannot make directory {file}"),
    (["datagen", "--length", "400", "--out", "{file}/x.csv"], "cannot make directory {file}"),
    (["train", "--config", "{config}", "--out", "{file}/run"], "cannot make directory {file}"),
    (["datagen", "--length", "400", "--out", "{dir}"], "cannot write {dir}"),
], ids=["train", "evaluate", "explain", "bench", "datagen_parent", "train_parent",
        "datagen_directory"])
def test_out_that_cannot_be_made_exits_2(trained_run, tmp_path, capsys, monkeypatch, argv,
                                         message):
    def never(*args, **kwargs):
        raise AssertionError("the work ran before --out was checked")

    monkeypatch.setattr(cli, "evaluate_split", never)
    monkeypatch.setattr(cli.explain_mod, "sampled_shapley", never)
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n", encoding="utf-8")
    adir = tmp_path / "adir"
    adir.mkdir()
    paths = {"config": trained_run["config"], "ckpt": trained_run["checkpoint"],
             "data": trained_run["data"], "file": afile, "dir": adir}
    argv = [a.format(**paths) for a in argv]
    assert cli.main(argv) == cli.EXIT_CONFIG
    _assert_one_line_error(capsys, "config error: --out: " + message.format(**paths))
    assert afile.read_text(encoding="utf-8") == "not a directory\n"
    assert list(adir.iterdir()) == []


def test_python_m_runs_the_cli(tmp_path):
    env = dict(os.environ)
    src = str(Path(hydroformer.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])

    def run(*args):
        return subprocess.run([sys.executable, "-m", "hydroformer", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    ok = run("datagen", "--seed", "1", "--length", "400", "--out", str(tmp_path / "d.csv"))
    assert ok.returncode == 0 and "wrote 400 rows" in ok.stdout
    short = run("datagen", "--length", "100", "--out", str(tmp_path / "x.csv"))
    assert short.returncode == cli.EXIT_CONFIG and "config error" in short.stderr
