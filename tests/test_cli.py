import json

import numpy as np
import pytest

from hydroformer import cli
from hydroformer import data as D
from hydroformer.errors import ConfigError
from hydroformer.model import ModelConfig, TransformerModel, save_checkpoint


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
eval.leads = 1,2
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
            "model.lookback = 9\neval.r2_mode = standard\nseed = 11"))
        assert cfg.model.d_model == 16
        assert cfg.model.lookback == 9
        assert cfg.train.batch_size == 8
        assert cfg.train.seed == 11
        assert cfg.r2_mode == "standard"

    @pytest.mark.parametrize("line", ["data.lookback = 9", "data.horizon = 3"])
    def test_data_section_model_aliases_rejected(self, line):
        with pytest.raises(ConfigError, match="unknown key"):
            cli.parse_config_text(line)

    def test_bad_r2_mode(self):
        with pytest.raises(ConfigError):
            cli.build_run_config({"eval.r2_mode": "adjusted"})

    def test_resolved_round_trips(self):
        cfg = cli.build_run_config(cli.parse_config_text("model.d_model = 16\nmodel.n_heads = 2"))
        text = cli.resolved_config_text(cfg)
        again = cli.build_run_config(cli.parse_config_text(
            "\n".join(line for line in text.splitlines()
                      if line.startswith(("model.", "seed"))
                      and not line.startswith("model.n_features"))))
        assert again.model == cfg.model


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
        assert lines[0].startswith("lead 1:")
        assert lines[1].startswith("lead 2:")

    def test_corrupt_checkpoint_is_data_error(self, trained_run, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"garbage\n" + b"\x00" * 32)
        rc = cli.main(["predict", "--checkpoint", str(bad),
                       "--data", str(trained_run["data"])])
        assert rc == cli.EXIT_DATA


@pytest.mark.parametrize("corrupt, trailing", [
    (lambda h: h["config"].update(dropout=0.1), b""),
    (lambda h: h["config"].pop("d_ffn"), b""),
    (lambda h: h["config"].update(attention_mode="banded"), b""),
    (lambda h: h["config"].update(d_model="eight"), b""),
    (lambda h: h.pop("config"), b""),
    (lambda h: h.pop("params"), b""),
    (lambda h: h.pop("normalizer"), b""),
    (lambda h: None, b"\x00"),
    (lambda h: h["normalizer"]["mean"].pop(), b""),
    (lambda h: h.update(format_version=1), b""),
], ids=["unknown_config_key", "missing_config_key", "bad_config_value",
        "bad_config_type", "missing_config", "missing_params", "missing_normalizer",
        "trailing_bytes", "normalizer_length", "v1_header"])
def test_malformed_checkpoint_is_data_error(trained_run, tmp_path, capsys, corrupt, trailing):
    header_line, _, body = trained_run["checkpoint"].read_bytes().partition(b"\n")
    header = json.loads(header_line)
    corrupt(header)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(json.dumps(header).encode() + b"\n" + body + trailing)
    rc = cli.main(["predict", "--checkpoint", str(bad), "--data", str(trained_run["data"])])
    assert rc == cli.EXIT_DATA
    assert "checkpoint" in capsys.readouterr().err


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
        assert "estimator = sampled" in (out / "estimator.txt").read_text()

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

    def test_exact_cap_option_removed(self, trained_run, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["explain", "--checkpoint", str(trained_run["checkpoint"]),
                      "--data", str(trained_run["data"]), "--global",
                      "--estimator", "exact", "--exact-cap", "20",
                      "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

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
