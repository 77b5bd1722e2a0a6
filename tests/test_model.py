import numpy as np
import pytest

from hydroformer import data as D
from hydroformer.attention import AttentionConfig, dense_attention, multi_head
from hydroformer.errors import ConfigError, DataError, ShapeError
from hydroformer.model import (ModelConfig, PositionalEncoding, TransformerModel,
                               checkpoint_digest, load_checkpoint, save_checkpoint)
from hydroformer.tensor import Tensor, add, layer_norm

from _oracles import ref_layer_norm


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
        attn = multi_head(x_emb, x_emb, x_emb, AttentionConfig(8, 1),
                          model._mha_params("enc.0.attn"))
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
