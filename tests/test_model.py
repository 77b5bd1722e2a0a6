import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydroformer import data as D
from hydroformer import model as model_mod
from hydroformer.attention import dense_attention, multi_head
from hydroformer.errors import ConfigError, DataError, ShapeError
from hydroformer.model import (ModelConfig, PositionalEncoding, TransformerModel,
                               checkpoint_digest, load_checkpoint, save_checkpoint)
from hydroformer.tensor import Tensor, add, backward, layer_norm, mse

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
        model.params["enc_embed.w"].data = np.zeros_like(model.params["enc_embed.w"].data)
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
                t.data = np.zeros_like(t.data)
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
        ffn = model._ffn("enc.0.ffn", h)
        expect = layer_norm(add(h, ffn), p["enc.0.ln2.gamma"], p["enc.0.ln2.beta"])
        assert np.max(np.abs(out.data - expect.data)) <= 1e-12


class TestDecoder:
    def test_h1_trivial_causality(self):
        cfg = tiny_config()
        model = TransformerModel(cfg, seed=4)
        rng = np.random.default_rng(4)
        memory = model.encoder_forward(model.embed_encoder(rand_window(rng, cfg)))
        out = model.decoder_forward(model.embed_decoder(np.array([[0.3]])), memory)
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

    def test_batched_rows_reach_the_decoder_time_major(self):
        cfg = tiny_config(horizon=3)
        model = TransformerModel(cfg, seed=9)
        rng = np.random.default_rng(9)
        windows = rng.standard_normal((4, cfg.lookback, cfg.n_features))
        dec = rng.standard_normal((4, 3, 1))
        emb = model.embed_decoder(dec)
        assert emb.data.shape == (3, 4, 8)
        memory = model.encoder_forward(model.embed_encoder(windows))
        out = model.decoder_forward(emb, memory).data
        assert out.shape == (4, 3, 8)
        for i in range(4):
            one = model.decoder_forward(
                model.embed_decoder(dec[i]),
                model.encoder_forward(model.embed_encoder(windows[i]))).data
            assert np.max(np.abs(out[i] - one)) <= 1e-12


class TestOutputHead:
    def test_nonlinear_collapse_to_bias(self):
        cfg = tiny_config(output_head="nonlinear")
        model = TransformerModel(cfg, seed=6)
        model.params["head.w2"].data = np.zeros_like(model.params["head.w2"].data)
        model.params["head.b2"].data = np.array([4.5])
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
        model.params["head.b"].data = np.array([2.25])
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


def _step(model, window, dec, target):
    """Output of one forward and every parameter gradient of mse * n_samples,
    i.e. of the per-sample losses summed."""
    model.zero_grads()
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
       head=st.sampled_from(["linear", "nonlinear"]), horizon=st.integers(1, 5),
       steps=st.data(), seed=st.integers(0, 2**16))
def test_batched_predict_matches_per_window_rollout(batch, n_heads, mode, k, head, horizon,
                                                    steps, seed):
    """A stacked rollout matches the per-window rollout oracle for every
    window to <= 1e-12, and a single window's rollout equals it bit for bit.
    k None in sparse mode is ceil(prefix / 4), which grows with the prefix."""
    cfg = ModelConfig(d_model=8, n_heads=n_heads, d_ffn=16, lookback=6, horizon=horizon,
                      attention_mode=mode, k_sparse=k if mode == "sparse" else None,
                      output_head=head)
    model = TransformerModel(cfg, seed=seed)
    windows = np.random.default_rng(seed).standard_normal((batch, 6, cfg.n_features))
    h = steps.draw(st.integers(1, horizon))
    stacked = model.predict(windows, h)
    assert stacked.shape == (batch, h, 1)
    for i in range(batch):
        want = ref_rollout(model, windows[i], h)
        assert np.max(np.abs(stacked[i] - want)) <= 1e-12
        assert np.array_equal(model.predict(windows[i], h), want)


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
        assert model.parameter_count() == self._expected_count(cfg)

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
