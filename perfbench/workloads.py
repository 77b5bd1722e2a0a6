"""The benchmark's three workloads: set-up, measured work and output checks.

Every workload is a closed loop with one caller in one process: the next
call starts when the previous one has returned. Each one calls the public
entry points the CLI uses, through module attributes, so the traced run sees
every call. Inputs come only from the seed.

A workload has `setup(workdir, seed)`, `unit(i)` (one unit of work, returning
its outputs), `check(i, out, checks)` and `measure(seconds, checks)`, which
returns (end-to-end metrics, metrics under the workload's own names, units
run). The traced run replays `trace_units` units.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from hydroformer import data, explain, model, training

# the Tier-1 learning_run shape and the paper-scale forecaster (ModelConfig
# defaults), both sparse with the tanh-sandwich head, L=30, H=7
SHAPE = dict(attention_mode="sparse", output_head="nonlinear", lookback=30, horizon=7)
DESK_CONFIG = model.ModelConfig.desk_scale(**SHAPE)
PAPER_CONFIG = model.ModelConfig(**SHAPE)

LOCAL_ACCURACY_TOL = 1e-8
RESTORED_LOSS_TOL = 1e-12

_clock = time.perf_counter


def prepare(workdir, seed, days, config):
    """Set-up shared by every workload: generate a series, write and reload
    it as CSV, fill gaps, window it, then build a model and round-trip it
    through a checkpoint. Returns (dataset, model)."""
    series = data.synth_generate(seed, days)
    csv_path = workdir / "series.csv"
    data.write_table(series, csv_path)
    filled, _ = data.fill_missing(data.load_table(csv_path))
    dataset = data.make_windows(filled, config.lookback, config.horizon)
    ckpt_path = workdir / "model.ckpt"
    model.save_checkpoint(model.TransformerModel(config, seed=seed), dataset.normalizer,
                          ckpt_path)
    restored, _ = model.load_checkpoint(ckpt_path)
    return dataset, restored


def percentile_ms(seconds, q):
    return float(np.percentile(seconds, q)) * 1e3


class Checks:
    """Output checks: each one counts as attempted, and as failed if not ok."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")


@contextmanager
def step_clock(returns):
    """Append the time of every Adam.step return to `returns`."""
    original = training.Adam.__dict__["step"]

    def step(self, lr):
        original(self, lr)
        returns.append(_clock())

    training.Adam.step = step
    try:
        yield
    finally:
        training.Adam.step = original


def val_loss(mdl, split):
    """Mean teacher-forced validation MSE, computed here rather than by fit."""
    total = 0.0
    for w, tgt in zip(split.windows, split.targets):
        out = mdl.forward(w, training.teacher_forced_input(w, tgt, data.TARGET_INDEX))
        total += float(np.mean((out.data.ravel() - tgt) ** 2))
    return total / len(split.windows)


class Train:
    """`fit` on the desk-scale model, from the same initial weights each
    time. The epoch count stays below the patience, so the work is fixed."""
    name = "train"
    config = DESK_CONFIG
    days = 600          # 384 training windows: 12 full batches of 32
    epochs = 2
    min_steps = 100
    trace_units = 1

    def setup(self, workdir, seed):
        self.dataset, self.model = prepare(workdir, seed, self.days, self.config)
        self.initial = self.model.state_arrays()
        self.cfg = training.TrainConfig(max_epochs=self.epochs, seed=seed)
        if self.epochs >= self.cfg.early_stop_patience:
            raise ValueError("early stopping could cut the fixed work short")
        n = len(self.dataset.split("train").windows)
        self.steps_per_epoch = math.ceil(n / self.cfg.batch_size)
        self.samples_per_unit = n * self.epochs

    def unit(self, i):
        self.model.load_state_arrays({k: v.copy() for k, v in self.initial.items()})
        curve = training.fit(self.model, self.dataset, self.cfg)
        return curve.epochs, self.model.state_arrays()

    def check(self, i, out, checks):
        """Returns the best validation loss of the curve."""
        epochs, state = out
        losses = np.array(epochs, dtype=np.float64)
        checks.add("train.fixed_epochs", len(epochs) == self.epochs, f"{len(epochs)} epochs")
        checks.add("train.losses_finite", bool(np.isfinite(losses).all()), str(epochs))
        self.model.load_state_arrays(state)
        restored = val_loss(self.model, self.dataset.split("val"))
        best = float(losses[:, 1].min())
        checks.add("train.restored_is_best", abs(restored - best) <= RESTORED_LOSS_TOL,
                   f"restored {restored!r} vs curve minimum {best!r}")
        return best

    def measure(self, seconds, checks):
        steps, unit_s, best = [], [], []
        t_end = _clock() + seconds
        while _clock() < t_end or len(steps) < self.min_steps:
            returns = []
            with step_clock(returns):
                t0 = _clock()
                out = self.unit(len(unit_s))
                unit_s.append(_clock() - t0)
            # drop the first step of each epoch: its interval holds the
            # previous epoch's validation pass
            steps += [returns[j] - returns[j - 1] for j in range(1, len(returns))
                      if j % self.steps_per_epoch]
            best.append(self.check(len(unit_s) - 1, out, checks))
        samples_per_s = self.samples_per_unit * len(unit_s) / sum(unit_s)
        p50, p90 = percentile_ms(steps, 50), percentile_ms(steps, 90)
        return ({"throughput_per_s": samples_per_s, "latency_ms_p50": p50,
                 "latency_ms_p90": p90},
                {"train.samples_per_s": samples_per_s, "train.step_ms_p50": p50,
                 "train.step_ms_p90": p90, "train.steps": len(steps),
                 "train.final_val_loss": float(np.median(best))},
                len(unit_s))


class Forecast:
    """The paper-scale model: `evaluate_split` over the test windows (unit
    0), then single-window `predict(window, 7)` calls in a seeded order."""
    name = "forecast"
    config = PAPER_CONFIG
    days = 400          # 44 test windows
    leads = (1, 7)
    min_calls = 100
    trace_units = 1 + 20

    def setup(self, workdir, seed):
        self.dataset, self.model = prepare(workdir, seed, self.days, self.config)
        self.test = self.dataset.split("test")
        self.order = np.random.default_rng(seed).permutation(len(self.test.windows))

    def unit(self, i):
        if i == 0:
            _, series = training.evaluate_split(self.model, self.dataset, "test", self.leads)
            return np.array([[row[2] for row in series[lead]] for lead in self.leads])
        window = self.test.windows[self.order[(i - 1) % len(self.order)]]
        return self.model.predict(window, self.model.config.horizon)

    def check(self, i, out, checks):
        checks.add("forecast.finite", bool(np.isfinite(out).all()), f"unit {i}")

    def _evaluate(self, checks):
        t0 = _clock()
        out = self.unit(0)
        elapsed = _clock() - t0
        self.check(0, out, checks)
        return elapsed

    def measure(self, seconds, checks):
        """`evaluate_split` at the start and at the end, predicts between."""
        t_end = _clock() + seconds
        eval_s = self._evaluate(checks)
        calls = []
        while _clock() < t_end or len(calls) < self.min_calls:
            t0 = _clock()
            out = self.unit(len(calls) + 1)
            calls.append(_clock() - t0)
            self.check(len(calls), out, checks)
        eval_s += self._evaluate(checks)
        windows_per_s = 2 * len(self.test.windows) / eval_s
        p50, p90 = percentile_ms(calls, 50), percentile_ms(calls, 90)
        return ({"throughput_per_s": windows_per_s, "latency_ms_p50": p50,
                 "latency_ms_p90": p90},
                {"forecast.windows_per_s": windows_per_s, "forecast.latency_ms_p50": p50,
                 "forecast.latency_ms_p90": p90, "forecast.calls": len(calls)},
                2 + len(calls))


class Explain:
    """`sampled_shapley(m=10)` at lead 1 on the desk-scale model, one test
    instance per unit in a seeded order; unit i uses permutation seed i."""
    name = "explain"
    config = DESK_CONFIG
    days = 600          # 84 test windows
    m = 10
    lead = 1
    trace_units = 6

    def setup(self, workdir, seed):
        self.dataset, self.model = prepare(workdir, seed, self.days, self.config)
        self.test = self.dataset.split("test")
        self.order = np.random.default_rng(seed).permutation(len(self.test.windows))
        self.eval_s = None      # measure() sets a list here to time each model evaluation

    def unit(self, i):
        window = self.test.windows[self.order[i % len(self.order)]]
        vf = explain.model_value_function(self.model, self.dataset.normalizer, window,
                                          lead=self.lead)
        if self.eval_s is not None:
            vf.predict = _timed(vf.predict, self.eval_s)
        e = explain.sampled_shapley(vf, m=self.m, seed=i)
        return e.phi0, e.fx, e.phis, e.std_errors

    def check(self, i, out, checks):
        """Returns the mean per-feature standard error."""
        phi0, fx, phis, se = out
        gap = abs(phi0 + phis.sum() - fx)
        checks.add("explain.local_accuracy", gap <= LOCAL_ACCURACY_TOL,
                   f"unit {i}: |phi0 + sum(phi) - f(x)| = {gap!r}")
        return float(se.mean())

    def measure(self, seconds, checks):
        self.eval_s = evals = []
        instance_s, se = [], []
        t_end = _clock() + seconds
        try:
            while _clock() < t_end:
                t0 = _clock()
                out = self.unit(len(instance_s))
                instance_s.append(_clock() - t0)
                se.append(self.check(len(instance_s) - 1, out, checks))
        finally:
            self.eval_s = None
        instances_per_s = len(instance_s) / sum(instance_s)
        p50, p90 = percentile_ms(evals, 50), percentile_ms(evals, 90)
        return ({"throughput_per_s": instances_per_s, "latency_ms_p50": p50,
                 "latency_ms_p90": p90},
                {"explain.instances_per_s": instances_per_s,
                 "explain.instance_ms_p50": percentile_ms(instance_s, 50),
                 "explain.instances": len(instance_s),
                 "explain.eval_ms_p50": p50, "explain.eval_ms_p90": p90,
                 "explain.evals": len(evals), "explain.mean_se": float(np.mean(se))},
                len(instance_s))


def _timed(fn, sink):
    def timed(*args):
        t0 = _clock()
        out = fn(*args)
        sink.append(_clock() - t0)
        return out
    return timed


WORKLOADS = {w.name: w for w in (Train, Forecast, Explain)}
