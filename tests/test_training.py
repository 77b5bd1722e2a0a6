import re

import numpy as np
import pytest

from hydroformer import training
from hydroformer import data as D
from hydroformer.errors import ConfigError, DataError, NumericError
from hydroformer.model import ModelConfig, TransformerModel
from hydroformer.tensor import Tensor, backward, mse, no_grad
from hydroformer.training import (FORWARD_BUDGET_BYTES, TAPE_BUDGET_BYTES, Adam,
                                  LossCurve, TrainConfig, _batch, _split_loss,
                                  _sub_batches, evaluate_split, fit, forward_batch_size,
                                  sub_batch_size, tape_bytes_per_sample,
                                  teacher_forced_input)

from _memory import traced
from _oracles import ref_adam_step, ref_rollout

N_FEATURES = len(D.FEATURE_COLUMNS)   # the CSV schema fixes the input width


def small_dataset(seed=1, length=500, lookback=6, horizon=2):
    series = D.synth_generate(seed=seed, length=length)
    return D.make_windows(series, lookback, horizon)


def small_model(seed=0, **kw):
    base = dict(d_model=8, n_heads=1, d_ffn=16, lookback=6, horizon=2)
    base.update(kw)
    return TransformerModel(ModelConfig(**base), seed=seed)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        opt = Adam({"p": p}, p.data)
        opt.step(lr=0.1)
        assert np.array_equal(p.data, [1.0, -2.0])

    def test_first_step_bias_correction(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam({"p": p}, p.data)
        p.grad[0] = 1.0
        opt.step(lr=1e-3)
        # at t=1 both moment estimates bias-correct to g, so the step is -lr
        assert p.data[0] == pytest.approx(-1e-3, rel=1e-6)

    def test_constant_gradient_step_approaches_lr(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam({"p": p}, p.data)
        lr = 0.01
        prev = p.data.copy()
        for _ in range(500):
            opt.grad.fill(1.0)
            prev = p.data.copy()
            opt.step(lr=lr)
        assert abs(prev[0] - p.data[0]) == pytest.approx(lr, rel=1e-3)

    def test_non_finite_gradient_rejected(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam({"p": p}, p.data)
        p.grad[0] = np.nan
        with pytest.raises(NumericError, match="p"):
            opt.step(lr=0.1)

    def test_non_finite_update_is_never_written(self, monkeypatch):
        monkeypatch.setattr(Adam, "BLOCK", 7)
        model = small_model()
        opt = Adam(model.params, model.flat)
        model.params["dec.1.ffn.w1"].grad[2, 3] = 2.0      # 2 * 1e308 overflows
        with pytest.raises(NumericError, match=r"^non-finite update for parameter dec.1.ffn.w1$"):
            opt.step(lr=1e308)
        assert np.isfinite(model.flat).all()

    def test_quadratic_bowl_decreases(self):
        theta = Tensor(np.array([3.0]), requires_grad=True)
        opt = Adam({"theta": theta}, theta.data)
        from hydroformer.tensor import mse
        loss0 = float(theta.data[0] ** 2)
        for _ in range(10):
            opt.grad.fill(0.0)
            backward(mse(theta, Tensor(np.zeros(1))))
            opt.step(lr=1e-3)
        assert float(theta.data[0] ** 2) < loss0


    def test_matches_per_tensor_oracle_on_sub_batched_gradients(self, monkeypatch):
        """Five fit steps of a desk model, each batch of 49 samples in five
        sub-batches of at most 10: after every step the parameters and both
        moments equal the per-tensor loop's, bit for bit."""
        cfg = ModelConfig.desk_scale(attention_mode="sparse", output_head="nonlinear",
                                     lookback=30, horizon=7)
        model = TransformerModel(cfg, seed=4)
        monkeypatch.setattr(training, "TAPE_BUDGET_BYTES",
                            10 * training.tape_bytes_per_sample(cfg))
        ds = D.make_windows(D.synth_generate(seed=4, length=400), 30, 7)
        batch_size = -(-len(ds.split("train").windows) // 5)
        assert batch_size > 4 * training.sub_batch_size(cfg)
        ref = model.state_arrays()
        ref_m = {n: np.zeros_like(a) for n, a in ref.items()}
        ref_v = {n: np.zeros_like(a) for n, a in ref.items()}
        steps = []
        original = Adam.step

        def step(opt, lr):
            grads = {n: p.grad for n, p in opt.params.items()}
            ref_adam_step(ref, grads, ref_m, ref_v, opt.step_count + 1, lr)
            original(opt, lr)
            steps.append(opt.step_count)
            for n, p in opt.params.items():
                assert np.array_equal(p.data, ref[n]), n
            assert np.array_equal(opt.m, np.concatenate([a.ravel() for a in ref_m.values()]))
            assert np.array_equal(opt.v, np.concatenate([a.ravel() for a in ref_v.values()]))

        monkeypatch.setattr(Adam, "step", step)
        fit(model, ds, TrainConfig(batch_size=batch_size, learning_rate=1e-3, max_epochs=1,
                                   seed=4))
        assert steps == [1, 2, 3, 4, 5]

    def test_update_in_blocks_matches_per_tensor_oracle(self):
        """A block size that splits tensors and leaves a partial last block:
        after three steps the parameters and both moments equal the
        per-tensor loop's, bit for bit."""
        model = small_model(seed=5)
        opt = Adam(model.params, model.flat)
        opt.BLOCK = 97
        assert model.flat.size > 3 * opt.BLOCK and model.flat.size % opt.BLOCK
        ref = model.state_arrays()
        ref_m = {n: np.zeros_like(a) for n, a in ref.items()}
        ref_v = {n: np.zeros_like(a) for n, a in ref.items()}
        rng = np.random.default_rng(5)
        for t in (1, 2, 3):
            opt.grad[:] = rng.standard_normal(opt.grad.size)
            ref_adam_step(ref, {n: p.grad for n, p in model.params.items()},
                          ref_m, ref_v, t, 1e-3)
            opt.step(1e-3)
        for n, p in model.params.items():
            assert np.array_equal(p.data, ref[n]), n
        assert np.array_equal(opt.m, np.concatenate([a.ravel() for a in ref_m.values()]))
        assert np.array_equal(opt.v, np.concatenate([a.ravel() for a in ref_v.values()]))

    def test_nan_gradient_names_the_parameter_and_changes_nothing(self):
        model = small_model(seed=9)
        opt = Adam(model.params, model.flat)
        opt.grad.fill(1.0)
        model.params["dec.1.ffn.w1"].grad[2, 3] = np.nan
        before = model.flat.copy()
        with pytest.raises(NumericError, match=r"^non-finite gradient for parameter "
                                               r"dec\.1\.ffn\.w1$"):
            opt.step(lr=0.1)
        assert np.array_equal(model.flat, before)
        assert opt.step_count == 0 and not opt.m.any() and not opt.v.any()
        state = model.state_arrays()
        with pytest.raises(NumericError, match=r"parameter dec\.1\.ffn\.w1$"):
            ref_adam_step(state, {n: p.grad for n, p in model.params.items()},
                          {n: np.zeros_like(a) for n, a in state.items()},
                          {n: np.zeros_like(a) for n, a in state.items()}, 1, 0.1)

    def test_gradient_views_tile_grad_in_order_through_a_fit(self, monkeypatch):
        def assert_tiles(opt):
            assert all(np.shares_memory(p.grad, opt.grad) for p in model.params.values())
            opt.grad[:] = np.arange(opt.grad.size)
            assert np.array_equal(
                np.concatenate([p.grad.ravel() for p in model.params.values()]), opt.grad)

        model = small_model(seed=2)
        assert_tiles(Adam(model.params, model.flat))
        optimizers = []
        original = Adam.step

        def step(opt, lr):  # fit unbinds the views on exit, so check at each step
            optimizers.append(opt)
            grad = opt.grad.copy()
            assert_tiles(opt)
            opt.grad[:] = grad
            original(opt, lr)

        monkeypatch.setattr(Adam, "step", step)
        fit(model, small_dataset(), TrainConfig(max_epochs=1))
        assert optimizers and all(opt is optimizers[0] for opt in optimizers)

    def test_step_peak_under_five_and_a_half_parameter_copies(self):
        """Build, then three steps of a model whose parameters outweigh its
        tape: the parameters, Adam's m, v and gradient, and the leaf
        gradients backward holds until its sweep ends, with no gathered copy
        of the gradients. The update's temporaries are one block each."""
        cfg = ModelConfig(d_model=128, n_heads=4, d_ffn=512, lookback=8, horizon=2)
        rng = np.random.default_rng(3)
        w = rng.standard_normal((cfg.lookback, N_FEATURES))
        dec, tgt = rng.standard_normal((2, cfg.horizon, 1))

        def build_and_train():
            model = TransformerModel(cfg, seed=3)
            opt = Adam(model.params, model.flat)
            for _ in range(3):
                opt.grad.fill(0.0)
                backward(mse(model.forward(w, dec), Tensor(tgt)))
                opt.step(1e-3)
            return model.flat.nbytes

        nbytes = build_and_train()      # untraced: first-use imports and caches
        _, _, peak = traced(build_and_train)
        assert peak < 5.5 * nbytes, peak / nbytes


def scripted_fit(monkeypatch, val_losses, patience, max_epochs=20):
    """fit on small_dataset() with each epoch's validation loss taken in turn
    from val_losses; returns the curve, the model and the model.flat each
    epoch's validation pass saw."""
    seen = []
    script = iter(val_losses)

    def scripted(model, samples):
        seen.append(model.flat.copy())
        return next(script)

    monkeypatch.setattr(training, "_split_loss", scripted)
    model = small_model(seed=7)
    curve = fit(model, small_dataset(), TrainConfig(
        max_epochs=max_epochs, early_stop_patience=patience, learning_rate=1e-3, seed=7))
    return curve, model, seen


class TestEarlyStopping:
    """fit's stop rule, on scripted validation losses."""

    def test_spec_trace_patience_one(self, monkeypatch):
        # val loss strictly increasing from the second epoch
        curve, _, _ = scripted_fit(monkeypatch, [0.5, 0.6, 0.7, 0.8, 0.9], patience=1)
        assert len(curve.epochs) == 3 and curve.best_epoch == 0

    def test_improvement_resets_patience(self, monkeypatch):
        losses = [1.0, 1.1, 0.9, 1.2, 1.3, 1.4, 1.5, 1.6]
        curve, _, _ = scripted_fit(monkeypatch, losses, patience=2)
        assert len(curve.epochs) == 6 and curve.best_epoch == 2

    def test_equal_loss_is_not_an_improvement(self, monkeypatch):
        # epoch 1 equals the best: a bad epoch; epoch 2 is strictly lower
        losses = [1.0, 1.0, 0.999, 1.5, 1.6, 1.7, 1.8]
        curve, _, _ = scripted_fit(monkeypatch, losses, patience=1)
        assert len(curve.epochs) == 5 and curve.best_epoch == 2
        # an equal loss does not move the best epoch, so it stops the run
        curve, _, _ = scripted_fit(monkeypatch, [1.0, 1.0, 1.5, 1.6, 1.7], patience=1)
        assert len(curve.epochs) == 3 and curve.best_epoch == 0

    def test_run_that_never_stops_has_max_epochs(self, monkeypatch):
        # never more than one bad epoch in a row
        curve, _, _ = scripted_fit(monkeypatch, [1.0, 1.1, 0.9, 1.0, 0.8], patience=1,
                                   max_epochs=5)
        assert len(curve.epochs) == 5 and curve.best_epoch == 4

    def test_restores_the_weights_the_best_epoch_scored(self, monkeypatch):
        curve, model, seen = scripted_fit(monkeypatch, [1.0, 0.8, 0.9, 0.95, 1.2],
                                          patience=2)
        assert len(curve.epochs) == len(seen) == 5 and curve.best_epoch == 1
        assert not np.array_equal(seen[1], seen[-1])
        assert np.array_equal(model.flat, seen[1])


class TestTeacherForcing:
    def test_shift_with_start_token(self):
        window = np.zeros((4, 19))
        window[-1, D.TARGET_INDEX] = 7.0
        targets = np.array([1.0, 2.0, 3.0])
        dec = teacher_forced_input(window, targets, D.TARGET_INDEX)
        assert dec.ravel().tolist() == [7.0, 1.0, 2.0]

    def test_batch_stacks_per_window_inputs(self):
        rng = np.random.default_rng(0)
        windows, targets = rng.standard_normal((3, 4, 19)), rng.standard_normal((3, 2))
        dec = teacher_forced_input(windows, targets, D.TARGET_INDEX)
        assert dec.shape == (3, 2, 1)
        for i in range(3):
            assert np.array_equal(dec[i], teacher_forced_input(windows[i], targets[i],
                                                               D.TARGET_INDEX))


DESK = ModelConfig.desk_scale(attention_mode="sparse", output_head="nonlinear",
                              lookback=30, horizon=7)
PAPER = ModelConfig(attention_mode="sparse", output_head="nonlinear", lookback=30, horizon=7)


class TestSubBatches:
    def test_sizes(self):
        assert sub_batch_size(DESK) == 16
        # a paper-scale sample alone exceeds the budget: one sample per graph
        assert sub_batch_size(ModelConfig(lookback=30, horizon=7)) == 1
        assert [len(c) for c in _sub_batches(np.arange(32), 10)] == [8, 8, 8, 8]
        assert [len(c) for c in _sub_batches(np.arange(5), 10)] == [5]

    def test_desk_scale_sub_batch_peak_under_budget(self):
        model = TransformerModel(DESK, seed=0)
        rng = np.random.default_rng(0)
        b = sub_batch_size(DESK)
        windows = rng.standard_normal((b, DESK.lookback, N_FEATURES))
        targets = rng.standard_normal((b, DESK.horizon))
        dec = teacher_forced_input(windows, targets, D.TARGET_INDEX)
        _, _, peak = traced(lambda: backward(mse(model.forward(windows, dec),
                                                 Tensor(targets[..., None]))))
        assert peak < TAPE_BUDGET_BYTES

    @pytest.mark.parametrize("cfg, b", [(DESK, 16), (PAPER, 1)], ids=["desk", "paper"])
    def test_estimate_covers_the_live_tape_within_15_percent(self, cfg, b):
        """A graph of b samples, inputs made as fit makes them, holds at most
        tape_bytes_per_sample per sample after forward, and more than
        1/1.15 of it."""
        model = TransformerModel(cfg, seed=0)
        samples = D.make_windows(D.synth_generate(seed=0, length=400), cfg.lookback,
                                 cfg.horizon).split("train")

        def graph():
            w, dec_in, tgt = _batch(samples, np.arange(b))
            return mse(model.forward(w, dec_in), Tensor(tgt))

        _, live, _ = traced(graph)
        assert live / b <= tape_bytes_per_sample(cfg) <= 1.15 * live / b


class TestFit:
    def test_lr_zero_keeps_params_and_loss(self):
        ds = small_dataset()
        model = small_model(seed=2)
        before = model.state_arrays()
        cfg = TrainConfig(learning_rate=0.0, max_epochs=3, seed=3)
        curve = fit(model, ds, cfg)
        after = model.state_arrays()
        for name in before:
            assert np.array_equal(before[name], after[name])
        # shuffle reorders the per-sample sum, so allow rounding-level wiggle
        train_losses = [tr for tr, _ in curve.epochs]
        assert max(train_losses) - min(train_losses) < 1e-12

    def test_seeded_runs_identical(self):
        ds = small_dataset()
        cfg = TrainConfig(max_epochs=3, learning_rate=1e-3, seed=4)
        c1 = fit(small_model(seed=5), ds, cfg)
        c2 = fit(small_model(seed=5), ds, cfg)
        assert c1.epochs == c2.epochs

    def test_restores_best_val_weights(self):
        ds = small_dataset()
        model = small_model(seed=6)
        cfg = TrainConfig(max_epochs=6, learning_rate=3e-3, seed=6,
                          early_stop_patience=2)
        curve = fit(model, ds, cfg)
        val_losses = [va for _, va in curve.epochs]
        assert curve.best_epoch == int(np.argmin(val_losses))
        val_now = _split_loss(model, ds.split("val"))
        assert val_now == pytest.approx(min(val_losses), abs=1e-12)

    def test_batch_gradient_is_mean_of_per_sample_gradients(self, monkeypatch):
        """Sub-batches of unequal size (3, 3, 2) weight to the batch mean."""
        ds = small_dataset()
        model = small_model(seed=8)
        monkeypatch.setattr(training, "TAPE_BUDGET_BYTES",
                            3 * training.tape_bytes_per_sample(model.config))
        grads = []
        monkeypatch.setattr(Adam, "step", lambda opt, lr: grads.append(
            {n: p.grad.copy() for n, p in opt.params.items()}))
        cfg = TrainConfig(batch_size=8, max_epochs=1, seed=8)
        fit(model, ds, cfg)
        train = ds.split("train")
        # the first batch is the head of the epoch's seeded permutation
        batch = np.random.default_rng(cfg.seed).permutation(len(train.windows))[:8]
        want = {n: np.zeros_like(g) for n, g in grads[0].items()}
        for i in batch:
            for p in model.params.values():
                p.grad = None
            w, tgt = train.windows[i], train.targets[i]
            out = model.forward(w, teacher_forced_input(w, tgt, D.TARGET_INDEX))
            backward(mse(out, Tensor(tgt[:, None])))
            for n, p in model.params.items():
                want[n] += p.grad / 8
        for n, g in grads[0].items():
            assert np.max(np.abs(g - want[n])) <= 1e-12, n

    def test_non_finite_window_names_epoch_and_samples(self):
        ds = small_dataset()
        planted = 7
        ds.split("train").windows[planted, 2, 0] = np.nan
        with pytest.raises(NumericError, match=r"epoch 0, samples \[") as info:
            fit(small_model(), ds, TrainConfig(max_epochs=1, seed=1))
        samples = re.search(r"samples \[([0-9, ]+)\]", str(info.value)).group(1)
        assert planted in [int(i) for i in samples.split(",")]
        assert re.search(r"\]: enc_embed: linear produced non-finite", str(info.value))

    @pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
    def test_leaves_no_grad_bound_to_its_optimizer(self, raises):
        """After fit, every .grad is None, so a backward on the trained model
        equals one on a fresh model at the same weights."""
        ds = small_dataset()
        if raises:
            ds.split("train").windows[7, 2, 0] = np.nan
        model = small_model(seed=9)
        cfg = TrainConfig(max_epochs=1, learning_rate=1e-3, seed=9)
        if raises:
            with pytest.raises(NumericError):
                fit(model, ds, cfg)
        else:
            fit(model, ds, cfg)
        assert all(p.grad is None for p in model.params.values())
        fresh = small_model(seed=0)
        fresh.flat[:] = model.flat
        train = small_dataset().split("train")
        w, tgt = train.windows[0], train.targets[0]
        for m in (model, fresh):
            out = m.forward(w, teacher_forced_input(w, tgt, D.TARGET_INDEX))
            backward(mse(out, Tensor(tgt[:, None])))
        for n, p in model.params.items():
            assert np.array_equal(p.grad, fresh.params[n].grad), n

    def test_horizon_mismatch_rejected(self):
        ds = small_dataset(horizon=2)
        model = small_model(horizon=3)
        with pytest.raises(ConfigError):
            fit(model, ds, TrainConfig(max_epochs=1))

    def test_loss_curve_text(self):
        curve = LossCurve(epochs=[(0.5, 0.6), (0.4, 0.5)], best_epoch=1)
        text = curve.to_text()
        assert text.splitlines()[0] == "epoch,train_loss,val_loss"
        assert len(text.splitlines()) == 3


class _OracleModel:
    """Stub that always predicts the true future targets, of one window or
    a stack of them."""

    def __init__(self, dataset, split, horizon):
        self.config = ModelConfig(d_model=8, n_heads=1, d_ffn=16, horizon=horizon)
        self._samples = dataset.split(split)

    def predict(self, window, horizon):
        if window.ndim == 3:
            return np.stack([self.predict(w, horizon) for w in window])
        for w, tgt in zip(self._samples.windows, self._samples.targets):
            if np.array_equal(w, window):
                return tgt[:horizon, None]
        raise AssertionError("window not found")


class _PersistenceModel:
    """Stub that repeats the last observed target value of each window."""

    def __init__(self, horizon):
        self.config = ModelConfig(d_model=8, n_heads=1, d_ffn=16, horizon=horizon)

    def predict(self, window, horizon):
        return np.repeat(window[..., -1:, D.TARGET_INDEX, None], horizon, axis=-2)


class TestEvaluateSplit:
    def test_perfect_oracle(self):
        ds = small_dataset(horizon=3)
        oracle = _OracleModel(ds, "test", horizon=3)
        report, series = evaluate_split(oracle, ds, "test", [1, 2, 3],
                                        r2_mode="standard")
        for m in report.rows():
            assert m.r2 == pytest.approx(1.0, abs=1e-12)
            assert m.mae == pytest.approx(0.0, abs=1e-10)
            assert m.rmse == pytest.approx(0.0, abs=1e-10)
            assert m.mbe == pytest.approx(0.0, abs=1e-10)
        assert set(series) == {1, 2, 3}

    def test_persistence_on_linear_trend_gives_trend_mbe(self):
        # target is a pure linear trend; persistence lags by exactly one step
        length, slope = 450, 0.01
        series = D.synth_generate(seed=7, length=length)
        series.values[:, D.TARGET_INDEX] = 5.0 + slope * np.arange(length)
        ds = D.make_windows(series, lookback=6, horizon=1)
        report, _ = evaluate_split(_PersistenceModel(1), ds, "test", [1],
                                   r2_mode="standard")
        assert report.leads[1].mbe == pytest.approx(slope, abs=1e-9)

    def test_report_contains_exactly_requested_leads(self):
        ds = small_dataset(horizon=3)
        oracle = _OracleModel(ds, "val", horizon=3)
        report, _ = evaluate_split(oracle, ds, "val", [2], r2_mode="standard")
        assert list(report.leads) == [2]

    def test_lead_over_horizon_rejected(self):
        ds = small_dataset(horizon=2)
        with pytest.raises(ConfigError):
            evaluate_split(_PersistenceModel(2), ds, "test", [3])

    def test_split_of_one_window_rejected_before_any_rollout(self):
        ds = small_dataset(horizon=2)
        val = ds.split("val")
        val.windows, val.targets, val.anchors = val.windows[:1], val.targets[:1], val.anchors[:1]

        class NoRollout(_PersistenceModel):
            def predict(self, window, horizon):
                raise AssertionError("rolled out a split too small for metrics")

        with pytest.raises(DataError, match=r"val split has 1 window"):
            evaluate_split(NoRollout(2), ds, "val", [1])

    def test_matches_per_window_rollouts_across_uneven_chunks(self, monkeypatch):
        """Budget patched to 5 windows a chunk: the 92 test windows run as 19
        chunks of 4 or 5, and every prediction matches its own rollout."""
        ds = small_dataset(horizon=3)
        model = small_model(seed=9, horizon=3, attention_mode="sparse",
                            output_head="nonlinear")
        # this model is charged 6720 B a window
        monkeypatch.setattr(training, "FORWARD_BUDGET_BYTES", 5 * 6720 + 100)
        assert forward_batch_size(model.config) == 5
        chunks = []
        predict = model.predict
        monkeypatch.setattr(model, "predict", lambda w, h: chunks.append(len(w)) or predict(w, h))
        report, series = evaluate_split(model, ds, "test", [1, 3], r2_mode="standard")
        test = ds.split("test")
        assert sum(chunks) == len(test.windows) == 92
        assert len(chunks) == 19 and set(chunks) == {4, 5}
        want = np.stack([ref_rollout(model, w, 3)[:, 0] for w in test.windows])
        for lead in (1, 3):
            got = np.array([p for _, _, p in series[lead]])
            expect = ds.normalizer.invert_target(want[:, lead - 1])
            assert np.max(np.abs(got - expect)) <= 1e-12
            assert [a for a, _, _ in series[lead]] == test.anchors
        loop = evaluate_split(_RolloutLoop(model), ds, "test", [1, 3], r2_mode="standard")[0]
        for lead in (1, 3):
            for name in ("r2", "mae", "rmse", "mbe"):
                assert abs(getattr(report.leads[lead], name)
                           - getattr(loop.leads[lead], name)) <= 1e-12


class _RolloutLoop:
    """A model whose predict runs the per-window rollout oracle, one window
    at a time."""

    def __init__(self, model):
        self.config, self._model = model.config, model

    def predict(self, window, horizon):
        return np.stack([ref_rollout(self._model, w, horizon) for w in window])


class TestForwardBatchSize:
    def test_sizes(self):
        # the paper size rolls a 44-window test split out as one chunk
        assert forward_batch_size(ModelConfig(lookback=30, horizon=7)) == 54
        assert forward_batch_size(DESK) == 935
        # attention-bound: 4 heads' 20 x 20 scores outweigh the 4-wide FFN
        assert forward_batch_size(ModelConfig(d_model=4, n_heads=4, d_ffn=4,
                                              lookback=20)) == 4017

    @staticmethod
    def _chunk_rollout_peak(cfg):
        model = TransformerModel(cfg, seed=0)
        windows = np.random.default_rng(0).standard_normal(
            (forward_batch_size(cfg), cfg.lookback, N_FEATURES))
        return traced(lambda: model.predict(windows, cfg.horizon))[2]

    def test_paper_scale_chunk_rollout_peak_under_budget(self):
        assert self._chunk_rollout_peak(PAPER) < FORWARD_BUDGET_BYTES

    def test_desk_scale_chunk_rollout_peak_under_budget(self):
        assert self._chunk_rollout_peak(DESK) < FORWARD_BUDGET_BYTES

    def test_decoder_bound_chunks_stay_under_budget(self):
        """A horizon longer than the lookback, and a short lookback whose
        decoder K/V outweigh the encoder: the teacher-forced forward of a
        full chunk peaks under the budget too."""
        for cfg in (ModelConfig.desk_scale(lookback=10, horizon=30),
                    ModelConfig.desk_scale(lookback=2, horizon=2)):
            model = TransformerModel(cfg, seed=0)
            rng = np.random.default_rng(0)
            n = forward_batch_size(cfg)
            windows = rng.standard_normal((n, cfg.lookback, N_FEATURES))
            dec_in = rng.standard_normal((n, cfg.horizon, 1))

            def forward():
                with no_grad():
                    return model.forward(windows, dec_in).data

            assert traced(forward)[2] < FORWARD_BUDGET_BYTES, cfg

    def test_split_loss_chunks_by_forward_batch_size(self, monkeypatch):
        """Not by the tape budget: the loss pass records no tape."""
        ds = small_dataset()
        model = small_model(seed=10)
        val = ds.split("val")
        monkeypatch.setattr(training, "TAPE_BUDGET_BYTES", 1)
        # this model is charged 6464 B a window
        monkeypatch.setattr(training, "FORWARD_BUDGET_BYTES", 5 * 6464)
        calls = []
        forward = model.forward
        monkeypatch.setattr(model, "forward", lambda w, d: calls.append(len(w)) or forward(w, d))
        loss = _split_loss(model, val)
        assert len(calls) == -(-len(val.windows) // 5) and max(calls) == 5
        want = np.mean([np.mean((forward(w, teacher_forced_input(w, t, D.TARGET_INDEX)).data
                                 [:, 0] - t) ** 2) for w, t in zip(val.windows, val.targets)])
        assert abs(loss - want) <= 1e-12
