"""Reference outputs for fixed inputs, independent of the workload seed.

`PYTHONPATH=src python3 -m perfbench.reference`, from the repository root,
recomputes them and rewrites reference.json; each benchmark run recomputes
them and compares with the file.

- forecast: `predict(window, 7)` of the paper-scale model (seed 0) on test
  windows 0 and 1 of `synth_generate(0, 400)`, in normalized units.
- explain: `sampled_shapley(m=10, seed=0)` at lead 1 of the desk-scale
  model (seed 0) on test window 0 of `synth_generate(0, 600)`, in metres.
"""

import json
from pathlib import Path

import numpy as np

from hydroformer import data, explain, model

from perfbench.workloads import DESK_CONFIG, PAPER_CONFIG, Explain, Forecast

REF_SEED = 0
PATH = Path(__file__).with_name("reference.json")

# Differences in BLAS summation order move these outputs by about 1e-13;
# any change in the arithmetic the model performs moves them far more.
TOLERANCE = 1e-9


def _setup(days, config):
    dataset = data.make_windows(data.synth_generate(REF_SEED, days), config.lookback,
                                config.horizon)
    return dataset.split("test"), dataset.normalizer, model.TransformerModel(
        config, seed=REF_SEED)


def compute(workload):
    if workload == "forecast":
        test, _, mdl = _setup(Forecast.days, PAPER_CONFIG)
        return [mdl.predict(test.windows[i], PAPER_CONFIG.horizon).ravel().tolist()
                for i in (0, 1)]
    if workload == "explain":
        test, norm, mdl = _setup(Explain.days, DESK_CONFIG)
        vf = explain.model_value_function(mdl, norm, test.windows[0], lead=Explain.lead)
        e = explain.sampled_shapley(vf, m=Explain.m, seed=REF_SEED)
        return [e.phi0, e.fx] + e.phis.tolist()
    return None


def check(workload, checks):
    """Recompute the workload's reference outputs and compare with the file."""
    got = compute(workload)
    if got is None:
        return
    want = json.loads(PATH.read_text())[workload]
    err = float(np.max(np.abs(np.array(got) - np.array(want))))
    checks.add(f"{workload}.reference", err <= TOLERANCE,
               f"max |output - reference| = {err!r} > {TOLERANCE}")


if __name__ == "__main__":
    PATH.write_text(json.dumps({w: compute(w) for w in ("forecast", "explain")},
                               indent=1) + "\n")
