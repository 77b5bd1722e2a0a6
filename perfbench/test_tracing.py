"""The benchmark's own tests: span self time, the traced run on small
models, and the refusal to run without the sources."""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hydroformer import model

from perfbench import harness, tracing, workloads

TINY = model.ModelConfig.desk_scale(d_model=8, n_heads=2, d_ffn=16, **workloads.SHAPE)


class TinyTrain(workloads.Train):
    config = TINY
    days = 400
    epochs = 1


class TinyForecast(workloads.Forecast):
    config = TINY
    trace_units = 1 + 2


class TinyExplain(workloads.Explain):
    config = TINY
    m = 2
    trace_units = 2


def _attributes():
    """Identity of every attribute of the hydroformer modules and classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "hydroformer" or name.startswith("hydroformer."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = id(value)
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = id(cvalue)
    return out


def test_self_time_subtracts_children(monkeypatch):
    ticks = iter([0.0, 1.0, 3.0, 4.0, 8.0, 10.0])
    monkeypatch.setattr(tracing, "_clock", lambda: next(ticks))
    t = tracing.Tracer()
    outer = t._open("outer")
    t._close(t._open("child"))
    t._close(t._open("child"))
    t._close(outer)
    agg = t.aggregate()
    assert agg["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0, "ops": 0}
    assert agg["child"]["total_s"] == 6.0 and agg["child"]["self_s"] == 6.0


@pytest.mark.parametrize("cls", [TinyTrain, TinyForecast, TinyExplain])
def test_traced_run_restores_names_and_matches_untraced(cls, tmp_path):
    before = _attributes()
    checks = workloads.Checks()
    metrics, units = harness.traced_run(cls(), tmp_path, 3, tmp_path / "spans.npz", checks)
    assert _attributes() == before
    assert checks.failures == []
    assert units == cls.trace_units and metrics["trace.overhead"] > 0
    with np.load(tmp_path / "spans.npz") as spans:
        assert set(spans["run"]) == set(range(cls.trace_units + 1))
    if cls is TinyTrain:
        assert metrics["tensor.backward_calls"] > 0
    else:
        assert metrics["tensor.backward_calls"] == 0
        assert metrics["model.decoder_rows_per_window"] == (28 if cls is TinyForecast else 1)


def test_run_refuses_without_sources(tmp_path):
    root = Path(__file__).resolve().parent.parent
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
