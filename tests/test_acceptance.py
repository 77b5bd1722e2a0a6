"""Acceptance gate: one test per shipped guarantee, each printing a single
PASS/FAIL verdict line (run with -s to see them as they happen)."""

import time

import numpy as np
import pytest

from hydroformer import cli
from hydroformer import data as D
from hydroformer import explain as X
from hydroformer.attention import (causal_mask, dense_attention, sparse_attention,
                                   topk_mask)
from hydroformer.metrics import DegenerateDenominatorError, mae, mbe, r2, rmse
from hydroformer.model import ModelConfig, TransformerModel, checkpoint_digest
from hydroformer.tensor import (Tensor, activation, backward, layer_norm,
                                masked_softmax, matmul, mse)
from hydroformer.training import TrainConfig, evaluate_split, fit, _split_loss

from gradcheck import grad_check


def _verdict(num, name, ok):
    print(f"\ncriterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def tiny_model(seed=0, **kw):
    base = dict(d_model=8, n_heads=1, d_ffn=16, lookback=6, horizon=2)
    base.update(kw)
    return TransformerModel(ModelConfig(**base), seed=seed)


# ---------------------------------------------------------------------------
# shared end-to-end training run (criteria 7, 8, 9)

@pytest.fixture(scope="module")
def learning_run():
    series = D.synth_generate(seed=1, length=2000)
    dataset = D.make_windows(series, lookback=30, horizon=7)
    cfg = ModelConfig.desk_scale(attention_mode="sparse", output_head="nonlinear",
                                 lookback=30, horizon=7)
    model = TransformerModel(cfg, seed=1)
    t0 = time.perf_counter()
    curve = fit(model, dataset, TrainConfig(seed=1))
    train_s = time.perf_counter() - t0
    report, _ = evaluate_split(model, dataset, "test", [1, 7], r2_mode="standard")
    elapsed = time.perf_counter() - t0
    return {"model": model, "dataset": dataset, "curve": curve,
            "report": report, "train_s": train_s, "elapsed_s": elapsed}


# ---------------------------------------------------------------------------

def test_criterion_01_gradient_integrity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)

    # representative differentiable operations, full-coordinate checks
    op_reports = []
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 3))
    op_reports.append(grad_check(
        lambda ts: mse(matmul(ts[0], ts[1]), Tensor(np.zeros((3, 3)))), [a, b]))
    mask = rng.random((4, 5)) > 0.3
    mask[:, 0] = True
    s = rng.standard_normal((4, 5))
    op_reports.append(grad_check(
        lambda ts: mse(masked_softmax(ts[0], mask), Tensor(np.zeros((4, 5)))), [s]))
    g, bt = np.ones(6), np.zeros(6)
    x = rng.standard_normal((3, 6))
    op_reports.append(grad_check(
        lambda ts: mse(layer_norm(ts[0], ts[1], ts[2]), Tensor(np.zeros((3, 6)))),
        [x, g, bt]))
    for act in ("tanh", "relu", "sigmoid"):
        op_reports.append(grad_check(
            lambda ts, act=act: mse(activation(ts[0], act), Tensor(np.zeros((3, 4)))),
            [rng.standard_normal((3, 4)) + 0.05]))
    op_reports.append(grad_check(
        lambda ts: mse(sparse_attention(ts[0], ts[1], ts[2], 2),
                       Tensor(np.zeros((4, 3)))),
        [rng.standard_normal((4, 3)) * 2 for _ in range(3)]))
    ops_worst = max(r.max_rel_error for r in op_reports)

    # end-to-end tiny model: loss gradient wrt every parameter tensor,
    # central finite differences on sampled coordinates of each
    model = tiny_model(seed=1)
    window = rng.standard_normal((6, 19))
    dec_in = rng.standard_normal((2, 1))
    tgt = rng.standard_normal(2)

    def loss_value():
        out = model.forward(window, dec_in)
        return float(np.mean((out.data.ravel() - tgt) ** 2))

    for p in model.params.values():
        p.grad = None
    backward(mse(model.forward(window, dec_in), Tensor(tgt[:, None])))
    eps = 1e-5
    e2e_worst = 0.0
    for name, p in model.params.items():
        flat = p.data.reshape(-1)
        gflat = p.grad.reshape(-1)
        for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            fp = loss_value()
            flat[idx] = orig - eps
            fm = loss_value()
            flat[idx] = orig
            fd = (fp - fm) / (2.0 * eps)
            an = float(gflat[idx])
            e2e_worst = max(e2e_worst, abs(an - fd) / max(abs(an), abs(fd), 1e-6))

    runtime = time.perf_counter() - t0
    _verdict(1, "gradient integrity",
             ops_worst < 1e-4 and e2e_worst < 1e-3 and runtime < 60.0)


def test_criterion_02_sparse_dense_equivalence():
    worst_attn = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        q, k, v = (rng.standard_normal((6, 4)) for _ in range(3))
        dense = dense_attention(Tensor(q), Tensor(k), Tensor(v)).data
        for ks in (6, 9):
            sparse = sparse_attention(Tensor(q), Tensor(k), Tensor(v), ks).data
            worst_attn = max(worst_attn, float(np.max(np.abs(dense - sparse))))

    worst_e2e = 0.0
    dense_m = tiny_model(seed=2)
    sparse_m = tiny_model(seed=0, attention_mode="sparse", k_sparse=6)
    sparse_m.load_state_arrays(dense_m.state_arrays())
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        w = rng.standard_normal((6, 19))
        dec = rng.standard_normal((2, 1))
        diff = np.max(np.abs(dense_m.forward(w, dec).data
                             - sparse_m.forward(w, dec).data))
        worst_e2e = max(worst_e2e, float(diff))

    _verdict(2, "sparse/dense equivalence",
             worst_attn <= 1e-12 and worst_e2e <= 1e-12)


def test_criterion_03_mask_laws():
    ok = True
    rng = np.random.default_rng(3)
    for _ in range(50):
        rows, cols = int(rng.integers(2, 8)), int(rng.integers(2, 10))
        k = int(rng.integers(1, cols + 1))
        scores = rng.standard_normal((rows, cols))
        keep = topk_mask(scores, k)
        for i in range(rows):
            kept, masked = scores[i][keep[i]], scores[i][~keep[i]]
            if masked.size and kept.min() < masked.max():
                ok = False
            if np.unique(scores[i]).size == cols and keep[i].sum() != min(k, cols):
                ok = False
        w = masked_softmax(Tensor(scores), keep).data
        if not np.all(w[~keep] == 0.0):
            ok = False
        if np.max(np.abs(w.sum(axis=1) - 1.0)) > 1e-12:
            ok = False
    # ties at the threshold are all retained
    tied = np.array([[1.0, 1.0, 0.5], [0.2, 0.9, 0.9]])
    keep = topk_mask(tied, 1)
    if keep[0].tolist() != [True, True, False]:
        ok = False
    if keep[1].tolist() != [False, True, True]:
        ok = False
    _verdict(3, "mask laws", ok)


def test_criterion_04_causality():
    ok = True
    for mode, ks in (("dense", None), ("sparse", 2)):
        model = tiny_model(seed=4, horizon=4, attention_mode=mode, k_sparse=ks)
        rng = np.random.default_rng(4)
        window = rng.standard_normal((6, 19))
        dec = rng.standard_normal((4, 1))
        base = model.forward(window, dec).data
        for t in range(3):
            bumped = dec.copy()
            bumped[t + 1:, 0] += rng.standard_normal(3 - t)
            out = model.forward(window, bumped).data
            if not np.array_equal(base[: t + 1], out[: t + 1]):
                ok = False
    _verdict(4, "decoder causality", ok)


def test_criterion_05_metric_oracles():
    ok = True
    y, yhat = [1.0, 2.0, 3.0], [1.0, 2.0, 4.0]
    ok &= r2(y, yhat, "standard") == 0.5
    ok &= abs(r2(y, yhat, "paper") - 0.8) < 1e-15
    ok &= mae(y, yhat) == pytest.approx(1.0 / 3.0, abs=1e-15)
    ok &= rmse(y, yhat) == pytest.approx(np.sqrt(1.0 / 3.0), abs=1e-15)
    ok &= mbe(y, yhat) == pytest.approx(-1.0 / 3.0, abs=1e-15)
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n = int(rng.integers(2, 30))
        a, b = rng.uniform(-10, 10, n), rng.uniform(-10, 10, n)
        if not (rmse(a, b) >= mae(a, b) >= 0.0 and rmse(a, b) >= abs(mbe(a, b))):
            ok = False
    try:
        r2([1.0, 2.0, 3.0], [2.0, 2.0, 2.0], "paper")  # yhat constant == mean(y)
        ok = False
    except DegenerateDenominatorError:
        pass
    _verdict(5, "metric oracles", ok)


def test_criterion_06_shapley_axioms():
    t0 = time.perf_counter()
    ok = True
    rng = np.random.default_rng(6)

    # closed form on linear models, n <= 5
    for n in (2, 3, 4, 5):
        w, x, mu = (rng.standard_normal(n) for _ in range(3))
        vf = X.ValueFunction(predict=lambda row, w=w: float(row.ravel() @ w),
                             instance=x[None, :], baseline=mu)
        if not np.allclose(X.exact_shapley(vf).phis, w * (x - mu), atol=1e-10):
            ok = False

    # null player, symmetry, linearity, local accuracy
    inst = np.array([[1.3, 1.3, 0.4, -0.8]])
    base = np.zeros(4)
    f = lambda r: float(r[0, 0] + r[0, 1] + r[0, 0] * r[0, 1] + np.sin(r[0, 3]))
    g = lambda r: float(np.prod(r.ravel()[:3]))
    mk = lambda fn: X.ValueFunction(predict=fn, instance=inst, baseline=base)
    ef, eg = X.exact_shapley(mk(f)), X.exact_shapley(mk(g))
    eh = X.exact_shapley(mk(lambda r: f(r) + 2.0 * g(r)))
    ok &= abs(ef.phis[2]) <= 1e-10                                    # null player
    ok &= abs(ef.phis[0] - ef.phis[1]) <= 1e-10                       # symmetry
    ok &= bool(np.allclose(eh.phis, ef.phis + 2.0 * eg.phis, atol=1e-10))
    ok &= abs(ef.phi0 + ef.phis.sum() - ef.fx) <= 1e-10               # local accuracy

    # sampled estimator vs exact, 3-SE coverage over 20 seeds
    n = 8
    x8 = np.random.default_rng(60).standard_normal(n)
    vf8 = X.ValueFunction(
        predict=lambda row: float(np.tanh(row.ravel()).sum()
                                  + 0.5 * row[0, 1] * row[0, 2]
                                  + 0.3 * np.sin(row[0, 4] * row[0, 7])),
        instance=x8[None, :], baseline=np.zeros(n))
    truth = X.exact_shapley(vf8).phis
    hits = total = 0
    for seed in range(20):
        e = X.sampled_shapley(vf8, m=2000, seed=seed)
        inside = np.abs(e.phis - truth) <= 3.0 * np.maximum(e.std_errors, 1e-12)
        hits += int(inside.sum())
        total += n
    runtime = time.perf_counter() - t0
    _verdict(6, "shapley axioms",
             ok and hits / total >= 0.95 and runtime < 300.0)


def test_criterion_07_end_to_end_learning(learning_run):
    report = learning_run["report"]
    r2_1 = report.leads[1].r2
    r2_7 = report.leads[7].r2
    print(f"\n  lead-1 R2 {r2_1:.4f}, lead-7 R2 {r2_7:.4f}, "
          f"{learning_run['elapsed_s']:.0f}s")
    _verdict(7, "end-to-end learning",
             r2_1 >= 0.90 and r2_7 >= 0.60 and learning_run["elapsed_s"] < 600.0)


def test_criterion_08_loss_curve_shape(learning_run):
    curve = learning_run["curve"]
    val = [va for _, va in curve.epochs]
    restored = _split_loss(learning_run["model"],
                           learning_run["dataset"].split("val"), D.TARGET_INDEX)
    _verdict(8, "loss-curve shape",
             val[-1] < val[0]
             and curve.best_epoch == int(np.argmin(val))
             and abs(restored - min(val)) <= 1e-12)


def test_criterion_09_shap_signal_recovery(learning_run):
    model = learning_run["model"]
    dataset = learning_run["dataset"]
    test = dataset.split("test")
    rng = np.random.default_rng(9)
    picks = sorted(rng.choice(len(test.windows), size=64, replace=False).tolist())
    explanations = []
    for i in picks:
        vf = X.model_value_function(model, dataset.normalizer, test.windows[i], lead=1)
        explanations.append(X.sampled_shapley(vf, m=10, seed=i))
    gi = X.global_importance(explanations)
    top_feature = gi.ranked()[0][0]
    shares_ok = abs(sum(gi.group_shares.values()) - 100.0) <= 1e-9
    local_ok = all(abs(e.phi0 + e.phis.sum() - e.fx) <= 1e-8
                   for e in explanations[:8])
    print(f"\n  top feature {top_feature}, "
          f"group shares {dict((g, round(s, 1)) for g, s in gi.group_shares.items())}")
    _verdict(9, "shap signal recovery",
             top_feature == "ch_wl" and shares_ok and local_ok)


def test_criterion_10_determinism_and_provenance(tmp_path):
    data = tmp_path / "data.csv"
    assert cli.main(["datagen", "--seed", "5", "--length", "450",
                     "--out", str(data)]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"data.path = {data}\nmodel.d_model = 8\nmodel.n_heads = 1\n"
        "model.d_ffn = 16\nmodel.lookback = 4\nmodel.horizon = 2\n"
        "train.max_epochs = 2\ntrain.learning_rate = 0.001\nseed = 5\n",
        encoding="utf-8")
    outs = [tmp_path / "runA", tmp_path / "runB"]
    for out in outs:
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    curves = [(out / "loss_curve.csv").read_bytes() for out in outs]
    digests = [checkpoint_digest(out / "checkpoint.bin") for out in outs]
    provenance = all((out / "resolved_config.txt").exists() for out in outs)
    _verdict(10, "determinism & provenance",
             curves[0] == curves[1] and digests[0] == digests[1] and provenance)


def test_criterion_11_benchmark_honesty(tmp_path, capsys):
    out = tmp_path / "bench"
    rc = cli.main(["bench", "--lengths", "64,128,256", "--ks", "8,L/4,L",
                   "--repeats", "3", "--out", str(out)])
    capsys.readouterr()
    text = (out / "bench.txt").read_text()
    lines = text.splitlines()
    ok = rc == 0 and lines[0].startswith("length\t")
    kl_rows = [ln for ln in lines[1:]
               if ln.split("\t")[0] == ln.split("\t")[1]]  # k == L rows
    ok &= len(kl_rows) >= 3 and all(ln.endswith("pass") for ln in kl_rows)
    for length in ("64", "128", "256"):
        ok &= any(ln.startswith(length + "\t") for ln in lines[1:])
    _verdict(11, "benchmark honesty", ok)
