import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydroformer import attention as attention_mod
from hydroformer import data as D
from hydroformer import model as model_mod
from hydroformer import tensor as tensor_mod
from hydroformer.attention import dense_attention, multi_head
from hydroformer.errors import ConfigError, DataError, NumericError, ShapeError
from hydroformer.model import (ModelConfig, PositionalEncoding, TransformerModel,
                               checkpoint_digest, load_checkpoint, save_checkpoint)
from hydroformer.tensor import Tensor, add, backward, layer_norm, matmul, mse
from hydroformer.training import TrainConfig, fit

from _memory import traced
from _oracles import ref_layer_norm, ref_rollout


def tiny_config(**kw):
    base = dict(d_model=8, n_heads=1, d_ffn=16, lookback=6, horizon=2)
    base.update(kw)
    return ModelConfig(**base)


def rand_window(rng, cfg):
    return rng.standard_normal((cfg.lookback, cfg.n_features))


class TestModelConfig:
    def test_published_defaults(self):
        cfg = ModelConfig()
        assert (cfg.d_model, cfg.n_heads, cfg.n_encoder_layers,
                cfg.n_decoder_layers, cfg.d_ffn) == (512, 8, 1, 2, 2048)
        assert cfg.n_features == 19

    def test_desk_scale(self):
        cfg = ModelConfig.desk_scale()
        assert (cfg.d_model, cfg.n_heads, cfg.d_ffn) == (32, 2, 64)

    def test_invalid(self):
        with pytest.raises(ConfigError):
            ModelConfig(d_model=10, n_heads=3)
        with pytest.raises(ConfigError):
            ModelConfig(horizon=0)
        with pytest.raises(ConfigError):
            ModelConfig(attention_mode="fancy")


class TestPositionalEncoding:
    def test_bounded(self):
        pe = PositionalEncoding(max_len=50, d_model=16)
        assert np.all(pe.table >= -1.0) and np.all(pe.table <= 1.0)

    def test_position_zero(self):
        pe = PositionalEncoding(max_len=4, d_model=6)
        assert np.array_equal(pe.table[0], [0, 1, 0, 1, 0, 1])

    def test_deterministic(self):
        a = PositionalEncoding(10, 8).table
        b = PositionalEncoding(10, 8).table
        assert np.array_equal(a, b)

    def test_slice_guard(self):
        pe = PositionalEncoding(4, 8)
        with pytest.raises(ShapeError):
            pe.slice(5)


class TestEmbed:
    def test_zero_weight_gives_positional_table(self):
        model = TransformerModel(tiny_config(), seed=0)
        model.params["enc_embed.w"].data[...] = 0.0
        window = np.ones((6, 19))
        out = model.embed_encoder(window)
        assert np.array_equal(out.data, model.pe.slice(6))

    def test_shapes(self):
        cfg = tiny_config()
        model = TransformerModel(cfg, seed=0)
        rng = np.random.default_rng(0)
        assert model.embed_encoder(rand_window(rng, cfg)).data.shape == (6, 8)
        assert model.embed_decoder(np.zeros((2, 1))).data.shape == (2, 8)


class TestEncoder:
    def test_output_shape(self):
        cfg = tiny_config()
        model = TransformerModel(cfg, seed=1)
        rng = np.random.default_rng(1)
        out = model.encoder_forward(model.embed_encoder(rand_window(rng, cfg)))
        assert out.data.shape == (6, 8)

    def test_zero_weights_reduce_to_stacked_layer_norms(self):
        cfg = tiny_config()
        model = TransformerModel(cfg, seed=2)
        for name, t in model.params.items():
            if name.startswith("enc.0.") and "ln" not in name:
                t.data[...] = 0.0
        x = np.random.default_rng(2).standard_normal((6, 8))
        out = model.encoder_forward(Tensor(x))
        # attention output is V W_O = 0, so the layer is LN(LN(x))
        expect = ref_layer_norm(ref_layer_norm(x, 1.0, 0.0), 1.0, 0.0)
        assert np.allclose(out.data, expect, atol=1e-12)

    def test_matches_hand_assembled_layer(self):
        cfg = tiny_config()
        model = TransformerModel(cfg, seed=3)
        rng = np.random.default_rng(3)
        x_emb = model.embed_encoder(rand_window(rng, cfg))
        out = model.encoder_forward(x_emb)

        p = model.params
        weights = tuple(p[f"enc.0.attn.{w}"] for w in ("wq", "wk", "wv", "wo"))
        attn = multi_head(x_emb, x_emb, x_emb, weights, 1)
        h = layer_norm(add(x_emb, attn), p["enc.0.ln1.gamma"], p["enc.0.ln1.beta"])
        ffn = model._mlp("enc.0.ffn", h, "relu")
        expect = layer_norm(add(h, ffn), p["enc.0.ln2.gamma"], p["enc.0.ln2.beta"])
        assert np.max(np.abs(out.data - expect.data)) <= 1e-12


class TestDecoder:
    def test_h1_trivial_causality(self):
        cfg = tiny_config()
        model = TransformerModel(cfg, seed=4)
        rng = np.random.default_rng(4)
        memory = model.encoder_forward(model.embed_encoder(rand_window(rng, cfg)))
        out = model.decoder_forward(model.embed_decoder(np.array([[0.3]])),
                                    model.cross_kv(memory))
        assert out.data.shape == (1, 8)

    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    def test_future_perturbation_leaves_earlier_rows(self, mode):
        cfg = tiny_config(horizon=4, attention_mode=mode,
                          k_sparse=2 if mode == "sparse" else None)
        model = TransformerModel(cfg, seed=5)
        rng = np.random.default_rng(5)
        window = rand_window(rng, cfg)
        dec = rng.standard_normal((4, 1))
        base = model.forward(window, dec).data
        bumped = dec.copy()
        bumped[3, 0] += 1.7
        out = model.forward(window, bumped).data
        assert np.array_equal(base[:3], out[:3])
        # step t may (and generally does) change
        assert base[3, 0] != out[3, 0]

    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    def test_matches_hand_assembled_layers(self, mode, batch):
        """Teacher-forced decoder_forward equals its layers assembled by hand
        from multi_head (memory projected inside it), layer_norm and _mlp."""
        cfg = tiny_config(horizon=5, n_heads=2, attention_mode=mode)
        model = TransformerModel(cfg, seed=23)
        rng = np.random.default_rng(23)
        windows = rng.standard_normal(batch + (cfg.lookback, cfg.n_features))
        memory = model.encoder_forward(model.embed_encoder(windows))
        emb = model.embed_decoder(rng.standard_normal(batch + (5, 1)))
        out = model.decoder_forward(emb, model.cross_kv(memory))

        p = model.params
        y = Tensor(emb.data.swapaxes(0, 1) if batch else emb.data)
        for i in range(cfg.n_decoder_layers):
            def block(name):
                return tuple(p[f"dec.{i}.{name}.{w}"] for w in ("wq", "wk", "wv", "wo"))

            def ln(name, x):
                return layer_norm(x, p[f"dec.{i}.{name}.gamma"], p[f"dec.{i}.{name}.beta"])

            attn = multi_head(y, y, y, block("self_attn"), 2, cfg.effective_k(5), causal=True)
            y = ln("ln1", add(y, attn))
            cross = multi_head(y, memory, memory, block("cross_attn"), 2,
                               cfg.effective_k(cfg.lookback))
            y = ln("ln2", add(y, cross))
            y = ln("ln3", add(y, model._mlp(f"dec.{i}.ffn", y, "relu")))
        assert np.max(np.abs(out.data - y.data)) <= 1e-12

    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("mode,k", [("dense", None), ("sparse", 2), ("sparse", None)])
    def test_cached_rows_match_teacher_forced_states(self, mode, k, batch):
        """With an empty rollout cache, the whole prefix gives the
        teacher-forced last row; while k holds (dense, or a fixed k_sparse),
        prefixes one row longer per call give every teacher-forced row in
        turn. With k None, k changes with the prefix, so only the first
        call matches."""
        cfg = tiny_config(horizon=5, n_heads=2, n_decoder_layers=3, attention_mode=mode,
                          k_sparse=k)
        model = TransformerModel(cfg, seed=24)
        rng = np.random.default_rng(24)
        windows = rng.standard_normal(batch + (cfg.lookback, cfg.n_features))
        dec = rng.standard_normal(batch + (5, 1))
        with tensor_mod.no_grad():
            memory_kv = model.cross_kv(model.encoder_forward(model.embed_encoder(windows)))
            full = model.decoder_forward(model.embed_decoder(dec), memory_kv).data
            cache = [None] * 3
            last = model.decoder_forward(model.embed_decoder(dec), memory_kv, cache).data
            assert last.shape == batch + (1, cfg.d_model)
            assert np.max(np.abs(last - full[..., -1:, :])) <= 1e-12
            assert [kv[0].shape for kv in cache] == [batch + (5, cfg.d_model)] * 3
            if k is None and mode == "sparse":
                return
            cache = [None] * 3
            for t in range(5):
                prefix = model.embed_decoder(dec[..., :t + 1, :])
                state = model.decoder_forward(prefix, memory_kv, cache).data
                assert np.max(np.abs(state - full[..., t:t + 1, :])) <= 1e-12

    def test_cache_refused_while_recording(self):
        """The cache is joined off the tape, so gradients through it would
        be lost: a cached call outside no_grad raises and changes no entry."""
        cfg = tiny_config()
        model = TransformerModel(cfg, seed=25)
        memory = model.encoder_forward(model.embed_encoder(
            rand_window(np.random.default_rng(25), cfg)))
        cache = [None] * cfg.n_decoder_layers
        with pytest.raises(RuntimeError, match="no_grad"):
            model.decoder_forward(model.embed_decoder(np.array([[0.3]])),
                                  model.cross_kv(memory), cache)
        assert cache == [None] * cfg.n_decoder_layers

    def test_batched_rows_reach_the_decoder_time_major(self):
        cfg = tiny_config(horizon=3)
        model = TransformerModel(cfg, seed=9)
        rng = np.random.default_rng(9)
        windows = rng.standard_normal((4, cfg.lookback, cfg.n_features))
        dec = rng.standard_normal((4, 3, 1))
        emb = model.embed_decoder(dec)
        assert emb.data.shape == (3, 4, 8)
        memory = model.encoder_forward(model.embed_encoder(windows))
        out = model.decoder_forward(emb, model.cross_kv(memory)).data
        assert out.shape == (4, 3, 8)
        for i in range(4):
            one = model.decoder_forward(
                model.embed_decoder(dec[i]),
                model.cross_kv(model.encoder_forward(model.embed_encoder(windows[i])))).data
            assert np.max(np.abs(out[i] - one)) <= 1e-12


class TestOutputHead:
    def test_nonlinear_collapse_to_bias(self):
        cfg = tiny_config(output_head="nonlinear")
        model = TransformerModel(cfg, seed=6)
        model.params["head.w2"].data[...] = 0.0
        model.params["head.b2"].data[...] = 4.5
        d = Tensor(np.random.default_rng(6).standard_normal((3, 8)))
        assert np.allclose(model.output_head(d).data, 4.5, atol=1e-15)

    def test_nonlinear_hidden_strictly_bounded(self):
        cfg = tiny_config(output_head="nonlinear")
        model = TransformerModel(cfg, seed=7)
        from hydroformer.tensor import activation, add_bias, matmul
        d = Tensor(np.random.default_rng(7).standard_normal((5, 8)) * 3)
        hidden = activation(add_bias(matmul(d, model.params["head.w1"]),
                                     model.params["head.b1"]), "tanh")
        assert np.max(np.abs(hidden.data)) < 1.0

    def test_linear_head_zero_input_gives_bias(self):
        cfg = tiny_config()
        model = TransformerModel(cfg, seed=8)
        model.params["head.b"].data[...] = 2.25
        out = model.output_head(Tensor(np.zeros((3, 8))))
        assert np.allclose(out.data, 2.25, atol=1e-15)

    def test_unknown_activation_rejected_at_forward(self):
        with pytest.raises(ConfigError, match="head_activation"):
            tiny_config(output_head="nonlinear", head_activation="swish")


class TestForward:
    def test_deterministic_and_shape(self):
        cfg = tiny_config()
        rng = np.random.default_rng(10)
        window = rand_window(rng, cfg)
        dec = rng.standard_normal((2, 1))
        a = TransformerModel(cfg, seed=11).forward(window, dec).data
        b = TransformerModel(cfg, seed=11).forward(window, dec).data
        assert a.shape == (2, 1)
        assert np.array_equal(a, b)

    def test_sparse_k_lookback_equals_dense_end_to_end(self):
        dense_cfg = tiny_config()
        sparse_cfg = tiny_config(attention_mode="sparse", k_sparse=dense_cfg.lookback)
        dense = TransformerModel(dense_cfg, seed=12)
        sparse = TransformerModel(sparse_cfg, seed=0)
        sparse.load_state_arrays(dense.state_arrays())
        rng = np.random.default_rng(12)
        window = rand_window(rng, dense_cfg)
        dec = rng.standard_normal((2, 1))
        a = dense.forward(window, dec).data
        b = sparse.forward(window, dec).data
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_overflowing_residual_sum_names_its_layer_norm(self):
        cfg = tiny_config()
        model = TransformerModel(cfg, seed=13)
        p = model.params
        # ln1's output and the FFN's output are each about 1e308 and finite;
        # their residual sum is not
        p["enc.0.ln1.beta"].data[...] = 1e308
        p["enc.0.ffn.w1"].data[...] = 0.0
        p["enc.0.ffn.b2"].data[...] = 1e308
        rng = np.random.default_rng(13)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericError, match=r"^enc\.0\.ln2: layer_norm produced non-finite"):
            model.forward(rand_window(rng, cfg), rng.standard_normal((2, 1)))

    def test_overflowing_attention_scores_name_their_layer(self):
        cfg = tiny_config(attention_mode="sparse")
        model = TransformerModel(cfg, seed=15)
        # q and k stay finite; their products overflow
        model.params["enc.0.attn.wq"].data[...] = 1e200
        model.params["enc.0.attn.wk"].data[...] = 1e200
        rng = np.random.default_rng(15)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericError, match=r"^enc\.0\.attn: attention scores produced non-finite"):
            model.predict(rand_window(rng, cfg), 1)

    def test_overflowing_ffn_hidden_layer_names_its_layer(self):
        cfg = tiny_config(n_decoder_layers=2)
        model = TransformerModel(cfg, seed=16)
        p = model.params
        # the FFN's input is 1e10 in every entry, so every product with w1
        # overflows
        p["dec.1.ln2.gamma"].data[...] = 0.0
        p["dec.1.ln2.beta"].data[...] = 1e10
        p["dec.1.ffn.w1"].data[...] = 1e300
        rng = np.random.default_rng(16)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericError, match=r"^dec\.1\.ffn: mlp hidden layer produced non-finite"):
            model.forward(rand_window(rng, cfg), rng.standard_normal((2, 1)))

    @pytest.mark.parametrize("param,call,message", [
        ("enc_embed.w", "forward", "enc_embed: linear"),
        ("dec_embed.w", "forward", "dec_embed: linear"),
        ("enc.0.attn.wq", "forward", "enc.0.attn: matmul"),
        ("enc.0.ffn.w1", "forward", "enc.0.ffn: mlp hidden layer"),
        # wk is read only where cross_kv projects the memory
        ("dec.0.cross_attn.wk", "forward", "dec.0.cross_attn: matmul"),
        ("dec.1.ln3.gamma", "forward", "dec.1.ln3: layer_norm"),
        ("head.w", "forward", "head: linear"),
        ("head.w1", "forward", "head: mlp hidden layer"),
        ("dec.0.self_attn.wq", "forward", "dec.0.self_attn: matmul"),
        # a rollout reads wk only to project rows into its cache
        ("dec.0.self_attn.wk", "predict", "dec.0.self_attn: matmul"),
    ])
    def test_non_finite_value_names_its_layer(self, param, call, message):
        """A NaN parameter makes the first op that reads it non-finite; the
        error names the layer in front of the op's own message."""
        head = "nonlinear" if param == "head.w1" else "linear"
        cfg = tiny_config(n_decoder_layers=2, output_head=head)
        model = TransformerModel(cfg, seed=27)
        model.params[param].data[...] = np.nan
        rng = np.random.default_rng(27)
        window = rand_window(rng, cfg)
        with pytest.raises(NumericError) as info:
            if call == "forward":
                model.forward(window, rng.standard_normal((2, 1)))
            else:
                model.predict(window, 2)
        assert str(info.value) == f"{message} produced non-finite values"

    def test_tape_op_counts(self, monkeypatch):
        """Tape ops of the desk-scale sparse model with the tanh-sandwich
        head: a lead-1 predict (one Shapley value-function call), an H=7
        predict (k = ceil(t/4) changes at step 5) and one teacher-forced
        training graph of 8 samples. Splitting a fused op (linear, the
        residual layer norm, scaled head scores, the attention core, the
        MLP) raises them."""
        cfg = ModelConfig.desk_scale(attention_mode="sparse", output_head="nonlinear",
                                     lookback=30, horizon=7)
        model = TransformerModel(cfg, seed=14)
        calls = []
        make = tensor_mod._make
        monkeypatch.setattr(tensor_mod, "_make", lambda *a: calls.append(a[3]) or make(*a))
        rng = np.random.default_rng(14)
        windows = rng.standard_normal((8, cfg.lookback, cfg.n_features))
        model.predict(windows[0], 1)
        assert len(calls) == 39, calls
        calls.clear()
        model.predict(windows[0], 7)
        assert len(calls) == 195, calls
        calls.clear()
        out = model.forward(windows, rng.standard_normal((8, cfg.horizon, 1)))
        mse(out, Tensor(rng.standard_normal((8, cfg.horizon, 1))))
        assert len(calls) == 42, calls


def _step(model, window, dec, target):
    """Output of one forward and every parameter gradient of mse * n_samples,
    i.e. of the per-sample losses summed."""
    for p in model.params.values():
        p.grad = None
    out = model.forward(window, dec)
    backward(mse(out, Tensor(target)) * float(1 if window.ndim == 2 else len(window)))
    return out.data, {n: p.grad for n, p in model.params.items()}


@settings(max_examples=40, deadline=None)
@given(batch=st.integers(1, 5), n_heads=st.sampled_from([1, 2, 4]),
       mode=st.sampled_from(["dense", "sparse"]), lookback=st.integers(2, 6),
       horizon=st.integers(1, 3), k=st.integers(1, 8),
       head=st.sampled_from(["linear", "nonlinear"]), seed=st.integers(0, 2**16))
def test_batched_step_matches_summed_per_sample_graphs(batch, n_heads, mode, lookback,
                                                       horizon, k, head, seed):
    """Outputs and every parameter gradient of one B-sample graph match the
    per-sample 2-D graphs (gradients summed) to <= 1e-12; decoder
    self-attention is causal, so every mode covers the causal path."""
    cfg = ModelConfig(d_model=8, n_heads=n_heads, d_ffn=16, lookback=lookback,
                      horizon=horizon, attention_mode=mode,
                      k_sparse=k if mode == "sparse" else None, output_head=head)
    model = TransformerModel(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    windows = rng.standard_normal((batch, lookback, cfg.n_features))
    decs = rng.standard_normal((batch, horizon, 1))
    targets = rng.standard_normal((batch, horizon, 1))
    out, grads = _step(model, windows, decs, targets)
    summed = {n: np.zeros_like(g) for n, g in grads.items()}
    for i in range(batch):
        out_i, grads_i = _step(model, windows[i], decs[i], targets[i])
        assert np.max(np.abs(out[i] - out_i)) <= 1e-12
        for n, g in grads_i.items():
            summed[n] += g
    for n, g in grads.items():
        assert np.max(np.abs(g - summed[n])) <= 1e-12, n


class TestPredict:
    def test_h1_single_step(self):
        cfg = tiny_config()
        model = TransformerModel(cfg, seed=13)
        rng = np.random.default_rng(13)
        window = rand_window(rng, cfg)
        start = window[-1, D.TARGET_INDEX]
        expect = model.forward(window, np.array([[start]])).data[0, 0]
        assert model.predict(window, 1)[0, 0] == expect

    def test_rollout_prefix_property(self):
        cfg = tiny_config(horizon=3)
        model = TransformerModel(cfg, seed=14)
        window = rand_window(np.random.default_rng(14), cfg)
        p3 = model.predict(window, 3)
        p2 = model.predict(window, 2)
        assert np.array_equal(p3[:2], p2)

    def test_bad_horizon(self):
        model = TransformerModel(tiny_config(), seed=15)
        with pytest.raises(ValueError):
            model.predict(np.zeros((6, 19)), 0)

    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    def test_horizon_past_positional_table(self, mode):
        """The table has max(lookback, horizon) = 6 rows. Step 7 computes its
        newest row alone (sparse k = ceil(t/4) last changed at step 5), and
        that row still needs table row 6."""
        cfg = tiny_config(attention_mode=mode)
        model = TransformerModel(cfg, seed=15)
        window = rand_window(np.random.default_rng(15), cfg)
        assert model.predict(window, 6).shape == (6, 1)
        with pytest.raises(ShapeError, match="positional table"):
            model.predict(window, 7)

    @pytest.mark.parametrize("mode,k,rows", [("sparse", None, [11, 7]), ("dense", None, [7, 7]),
                                             ("sparse", 3, [7, 7])])
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_decoder_rows_per_window(self, monkeypatch, mode, k, rows, batch):
        """Rows each decoder layer computes in an H=7 rollout, as seen by
        its FFN: the lower layer recomputes the prefix only when k changes
        (k None is ceil(t/4): 1+1+1+1+5+1+1 = 11 rows), the last layer one
        row per step."""
        cfg = ModelConfig.desk_scale(lookback=30, horizon=7, attention_mode=mode, k_sparse=k)
        model = TransformerModel(cfg, seed=26)
        seen = {}
        mlp = TransformerModel._mlp

        def counting(self, prefix, x, activation):
            seen[prefix] = seen.get(prefix, 0) + x.data.shape[-2]
            return mlp(self, prefix, x, activation)

        monkeypatch.setattr(TransformerModel, "_mlp", counting)
        model.predict(np.random.default_rng(26).standard_normal(
            batch + (cfg.lookback, cfg.n_features)), 7)
        assert [seen["dec.0.ffn"], seen["dec.1.ffn"]] == rows

    def test_one_window_or_a_stack(self):
        cfg = tiny_config(horizon=3)
        model = TransformerModel(cfg, seed=16)
        windows = np.random.default_rng(16).standard_normal((4, cfg.lookback, cfg.n_features))
        assert model.predict(windows[0], 3).shape == (3, 1)
        assert model.predict(windows, 3).shape == (4, 3, 1)
        assert model.predict(windows[:1], 2).shape == (1, 2, 1)


@settings(max_examples=60, deadline=None)
@given(batch=st.integers(1, 5), n_heads=st.sampled_from([1, 2, 4]),
       mode=st.sampled_from(["dense", "sparse"]), k=st.one_of(st.none(), st.integers(1, 8)),
       head=st.sampled_from(["linear", "nonlinear"]), horizon=st.integers(1, 9),
       n_decoder_layers=st.integers(1, 3), steps=st.data(), seed=st.integers(0, 2**16))
def test_batched_predict_matches_per_window_rollout(batch, n_heads, mode, k, head, horizon,
                                                    n_decoder_layers, steps, seed):
    """A stacked rollout and a single window's rollout match the per-window
    rollout oracle, which recomputes every row and projection at every step,
    to <= 1e-12 (the newest-row GEMMs and the cached K/V, projected a few
    rows at a time, round differently from the oracle's full-prefix GEMMs).
    k None in sparse mode is ceil(prefix / 4), which changes at steps 5 and
    9, where the rollout drops its cache; with one decoder layer the
    newest-row layer is also the first."""
    cfg = ModelConfig(d_model=8, n_heads=n_heads, d_ffn=16, lookback=6, horizon=horizon,
                      n_decoder_layers=n_decoder_layers, attention_mode=mode,
                      k_sparse=k if mode == "sparse" else None, output_head=head)
    model = TransformerModel(cfg, seed=seed)
    windows = np.random.default_rng(seed).standard_normal((batch, 6, cfg.n_features))
    h = steps.draw(st.integers(1, horizon))
    stacked = model.predict(windows, h)
    assert stacked.shape == (batch, h, 1)
    for i in range(batch):
        want = ref_rollout(model, windows[i], h)
        assert np.max(np.abs(stacked[i] - want)) <= 1e-12
        assert np.max(np.abs(model.predict(windows[i], h) - want)) <= 1e-12


@pytest.mark.parametrize("n_decoder_layers", [1, 2, 3])
@pytest.mark.parametrize("horizon", [1, 2, 5])
def test_predict_projects_memory_once_per_rollout(monkeypatch, horizon, n_decoder_layers):
    """matmul reads the encoder memory 2 x n_decoder_layers times per
    predict (cross-attention K and V), whatever the horizon."""
    cfg = tiny_config(horizon=horizon, n_decoder_layers=n_decoder_layers,
                      attention_mode="sparse")
    model = TransformerModel(cfg, seed=22)
    memories, reads = [], []
    encoder_forward = TransformerModel.encoder_forward

    def keep_memory(self, x_emb):
        memories.append(encoder_forward(self, x_emb))
        return memories[-1]

    def counting(a, b):
        reads.extend(m for m in memories if a is m)
        return matmul(a, b)

    monkeypatch.setattr(TransformerModel, "encoder_forward", keep_memory)
    monkeypatch.setattr(model_mod, "matmul", counting)
    monkeypatch.setattr(attention_mod, "matmul", counting)
    windows = np.random.default_rng(22).standard_normal((3, cfg.lookback, cfg.n_features))
    for x in (windows, windows[0]):
        reads.clear()
        model.predict(x, horizon)
        assert len(reads) == 2 * n_decoder_layers


class TestParameters:
    @staticmethod
    def _expected_count(cfg):
        d, f = cfg.d_model, cfg.d_ffn
        mha = 4 * d * d
        ln = 2 * d
        ffn = 2 * d * f + f + d
        enc = cfg.n_encoder_layers * (mha + ffn + 2 * ln)
        dec = cfg.n_decoder_layers * (2 * mha + ffn + 3 * ln)
        head = (d + 1) if cfg.output_head == "linear" else (d * d + d + d + 1)
        return cfg.n_features * d + d + enc + dec + head

    @pytest.mark.parametrize("cfg", [
        tiny_config(),
        ModelConfig.desk_scale(n_encoder_layers=2, output_head="nonlinear",
                               lookback=10, horizon=3),
    ])
    def test_count_formula(self, cfg):
        model = TransformerModel(cfg, seed=16)
        assert model.flat.size == self._expected_count(cfg)

    def test_head_toggle_changes_only_head_shapes(self):
        lin = TransformerModel(tiny_config(output_head="linear"), seed=17)
        non = TransformerModel(tiny_config(output_head="nonlinear"), seed=17)
        lin_shapes = {n: t.data.shape for n, t in lin.params.items() if not n.startswith("head.")}
        non_shapes = {n: t.data.shape for n, t in non.params.items() if not n.startswith("head.")}
        assert lin_shapes == non_shapes

    def test_fused_blocks_follow_per_head_draw_order(self):
        cfg = ModelConfig.desk_scale(n_heads=4)
        model = TransformerModel(cfg, seed=21)
        d, d_head = cfg.d_model, cfg.d_model // cfg.n_heads
        rng = np.random.default_rng(21)

        def glorot(fan_in, fan_out):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-limit, limit, size=(fan_in, fan_out))

        glorot(cfg.n_features, d)   # enc_embed.w
        glorot(1, d)                # dec_embed.w
        for h in range(cfg.n_heads):
            for w in ("wq", "wk", "wv"):
                block = model.params[f"enc.0.attn.{w}"].data[:, h * d_head:(h + 1) * d_head]
                assert np.array_equal(block, glorot(d, d_head))
        assert np.array_equal(model.params["enc.0.attn.wo"].data, glorot(d, d))

    def test_load_state_shape_guard(self):
        model = TransformerModel(tiny_config(), seed=18)
        state = model.state_arrays()
        state["head.w"] = np.zeros((3, 3))
        with pytest.raises(DataError):
            model.load_state_arrays(state)


def assert_views_tile_flat(model):
    """Every parameter is a C-contiguous view of model.flat, and the views
    tile the vector in manifest (sorted-name) order."""
    assert list(model.params) == sorted(model.params)
    base = model.flat.__array_interface__["data"][0]
    offset = 0
    for name, t in model.params.items():
        assert np.shares_memory(t.data, model.flat), name
        assert t.data.flags.c_contiguous, name
        assert t.data.__array_interface__["data"][0] == base + 8 * offset, name
        offset += t.data.size
    assert offset == model.flat.size


DESK = ModelConfig.desk_scale(attention_mode="sparse", output_head="nonlinear",
                              lookback=30, horizon=7)


class TestParameterVector:
    @pytest.mark.parametrize("seed", [0, None])
    def test_construction(self, seed):
        assert_views_tile_flat(TransformerModel(DESK, seed=seed))

    def test_seed_none_is_all_zero(self):
        assert not TransformerModel(tiny_config(), seed=None).flat.any()

    def test_load_checkpoint(self, tmp_path):
        path = tmp_path / "c.bin"
        save_checkpoint(TransformerModel(DESK, seed=1), None, path)
        assert_views_tile_flat(load_checkpoint(path)[0])

    def test_load_state_arrays(self):
        model = TransformerModel(tiny_config(), seed=2)
        state = TransformerModel(tiny_config(), seed=3).state_arrays()
        model.load_state_arrays(state)
        assert_views_tile_flat(model)
        assert np.array_equal(model.flat, np.concatenate([a.ravel() for a in state.values()]))

    def test_fit(self):
        cfg = tiny_config()
        model = TransformerModel(cfg, seed=4)
        before = model.flat.copy()
        fit(model, D.make_windows(D.synth_generate(seed=4, length=400), cfg.lookback,
                                  cfg.horizon),
            TrainConfig(max_epochs=2, learning_rate=1e-2, seed=4))
        assert_views_tile_flat(model)
        assert not np.array_equal(model.flat, before)

    def test_build_save_load_peak_under_one_and_a_half_parameter_copies(self, tmp_path):
        """Neither save nor load may hold a second full copy of the
        parameters: the traced peak of build, save and load in turn stays
        under 1.5x the parameter bytes."""
        path = tmp_path / "c.bin"

        def build_save_load():
            save_checkpoint(TransformerModel(DESK, seed=5), None, path)
            return load_checkpoint(path)[0].flat.nbytes

        nbytes = build_save_load()      # untraced: first-use imports and caches
        _, _, peak = traced(build_save_load)
        assert peak < 1.5 * nbytes, (peak, nbytes)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = tiny_config(output_head="nonlinear", attention_mode="sparse", k_sparse=3)
        model = TransformerModel(cfg, seed=19)
        series = D.synth_generate(seed=19, length=400)
        norm = D.Normalizer.fit(series.values[:300])
        path = tmp_path / "ckpt.bin"
        save_checkpoint(model, norm, path)
        loaded, norm2 = load_checkpoint(path)
        assert loaded.config == cfg
        for name in model.params:
            assert np.array_equal(loaded.params[name].data, model.params[name].data)
        assert np.array_equal(norm2.mean, norm.mean)

    def test_load_draws_no_initial_weights(self, tmp_path, monkeypatch):
        model = TransformerModel(tiny_config(n_heads=2), seed=21)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(model, None, path)

        def no_draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random weights")

        monkeypatch.setattr(model_mod.np.random, "default_rng", no_draw)
        loaded, _ = load_checkpoint(path)
        for name in model.params:
            assert np.array_equal(loaded.params[name].data, model.params[name].data)

    def test_pinned_bytes(self, tmp_path):
        """The seeded draw order and the byte layout, pinned: a tiny sparse
        model with the tanh-sandwich head, two heads and a fixed
        normalizer."""
        cfg = tiny_config(n_heads=2, output_head="nonlinear", attention_mode="sparse",
                          k_sparse=3)
        norm = D.Normalizer(mean=np.arange(19.0), std=np.linspace(0.5, 2.0, 19))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(TransformerModel(cfg, seed=19), norm, path)
        assert checkpoint_digest(path) == ("7924fd42ff3e25f5ab38a096dcc5ee90"
                                           "00184980cbfd745b3923f15c8e7fa882")

    def test_digest_stable_across_saves(self, tmp_path):
        model = TransformerModel(tiny_config(), seed=20)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(model, None, p1)
        save_checkpoint(model, None, p2)
        assert checkpoint_digest(p1) == checkpoint_digest(p2)

    def test_malformed_file_rejected(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"\x00\x01 not a checkpoint\n" + b"\x00" * 64)
        with pytest.raises(DataError):
            load_checkpoint(p)


@pytest.fixture(scope="module")
def desk_checkpoint(tmp_path_factory):
    """Bytes of a valid desk-scale checkpoint, the length of its header line
    and a scratch path the fuzz tests overwrite."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = ModelConfig.desk_scale(attention_mode="sparse", output_head="nonlinear",
                                 lookback=30, horizon=7)
    series = D.synth_generate(seed=3, length=400)
    path = root / "ckpt.bin"
    save_checkpoint(TransformerModel(cfg, seed=3), D.Normalizer.fit(series.values), path)
    blob = path.read_bytes()
    return blob, blob.index(b"\n") + 1, root / "fuzzed.bin"


def _load_bytes(blob, path):
    path.write_bytes(blob)
    return load_checkpoint(path)


class TestCheckpointFuzz:
    """Damaged copies of a valid checkpoint raise DataError or ConfigError,
    never anything else."""

    @settings(max_examples=150, deadline=None)
    @given(cut=st.data())
    def test_truncated(self, desk_checkpoint, cut):
        blob, _, path = desk_checkpoint
        n = cut.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(DataError):
            _load_bytes(blob[:n], path)

    @settings(max_examples=150, deadline=None)
    @given(tail=st.binary(min_size=1, max_size=64))
    def test_extended(self, desk_checkpoint, tail):
        blob, _, path = desk_checkpoint
        with pytest.raises(DataError):
            _load_bytes(blob + tail, path)

    @settings(max_examples=400, deadline=None)
    @given(flips=st.data())
    def test_bit_flipped(self, desk_checkpoint, flips):
        blob, header_len, path = desk_checkpoint
        where = st.one_of(st.integers(0, header_len - 1), st.integers(0, len(blob) - 1))
        damaged = bytearray(blob)
        for pos, bit in flips.draw(st.lists(st.tuples(where, st.integers(0, 7)),
                                            min_size=1, max_size=3)):
            damaged[pos] ^= 1 << bit
        try:
            _load_bytes(bytes(damaged), path)
        except (DataError, ConfigError):
            pass
