"""Encoder-decoder forecasting model: sparse or dense multi-head attention,
sinusoidal positional encoding, and a linear or tanh-sandwich output head."""

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .attention import default_k, multi_head
from .data import TARGET_INDEX, Normalizer
from .errors import ConfigError, DataError, ShapeError
from .tensor import (ACTIVATIONS, Tensor, activation, add, add_bias, layer_norm, matmul,
                     no_grad, swap_leading)

CHECKPOINT_MAGIC = "hydroformer-checkpoint"
CHECKPOINT_VERSION = 2


@dataclass
class ModelConfig:
    """Architecture hyperparameters. Defaults follow the published
    configuration; desk_scale() gives a small variant for fast runs."""
    d_model: int = 512
    n_heads: int = 8
    n_encoder_layers: int = 1
    n_decoder_layers: int = 2
    d_ffn: int = 2048
    attention_mode: str = "dense"          # "dense" | "sparse"
    k_sparse: int | None = None            # None -> ceil(L/4) at runtime
    output_head: str = "linear"            # "linear" | "nonlinear"
    head_activation: str = "tanh"
    n_features: int = 19
    lookback: int = 30
    horizon: int = 1

    def __post_init__(self):
        for name in ("d_model", "n_heads", "n_encoder_layers", "n_decoder_layers",
                     "d_ffn", "n_features", "lookback", "horizon"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.attention_mode not in ("dense", "sparse"):
            raise ConfigError(f"attention_mode must be dense or sparse, got {self.attention_mode!r}")
        if self.output_head not in ("linear", "nonlinear"):
            raise ConfigError(f"output_head must be linear or nonlinear, got {self.output_head!r}")
        if self.head_activation not in ACTIVATIONS:
            raise ConfigError(f"head_activation must be one of {ACTIVATIONS}, "
                              f"got {self.head_activation!r}")
        if self.k_sparse is not None and self.k_sparse < 1:
            raise ConfigError("k_sparse must be >= 1")

    @classmethod
    def desk_scale(cls, **overrides):
        base = dict(d_model=32, n_heads=2, d_ffn=64)
        base.update(overrides)
        return cls(**base)

    def effective_k(self, length: int) -> int | None:
        if self.attention_mode == "dense":
            return None
        return self.k_sparse if self.k_sparse is not None else default_k(length)


@dataclass
class PositionalEncoding:
    """Fixed sinusoid table: even columns sin(pos / 10000^(2i/d)), odd cos."""
    max_len: int
    d_model: int
    table: np.ndarray = field(init=False)

    def __post_init__(self):
        pos = np.arange(self.max_len)[:, None].astype(np.float64)
        i = np.arange(0, self.d_model, 2).astype(np.float64)
        angle = pos / np.power(10000.0, i / self.d_model)
        table = np.zeros((self.max_len, self.d_model))
        table[:, 0::2] = np.sin(angle)
        table[:, 1::2] = np.cos(angle[:, : table[:, 1::2].shape[1]])
        self.table = table

    def slice(self, length: int) -> np.ndarray:
        if length > self.max_len:
            raise ShapeError(f"sequence length {length} exceeds positional table {self.max_len}")
        return self.table[:length]


def _glorot(rng, fan_in, fan_out):
    if rng is None:
        return np.zeros((fan_in, fan_out))
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class TransformerModel:
    """Parameter container plus the forward / autoregressive-predict paths.

    Parameters live in an ordered name->Tensor map; shapes are a pure
    function of the config. Seed None leaves every parameter zero with no
    RNG draw, for callers that overwrite them all (load_checkpoint).

    The forward pieces take one sample (L x n_features window, H x 1 decoder
    input) or a batch of them stacked on a leading axis.
    """

    def __init__(self, config: ModelConfig, seed: int | None = 0):
        self.config = config
        self.params: dict[str, Tensor] = {}
        self.pe = PositionalEncoding(max(config.lookback, config.horizon), config.d_model)
        self._init_params(None if seed is None else np.random.default_rng(seed))

    # -- construction -------------------------------------------------------

    def _add(self, name, arr):
        self.params[name] = Tensor(arr, requires_grad=True)

    def _add_mha(self, prefix, rng):
        """Fused d x d Q/K/V with head h as column block h, drawn head by head,
        q/k/v interleaved, each block Glorot with fan_out d_head."""
        d, n_heads = self.config.d_model, self.config.n_heads
        d_head = d // n_heads
        fused = [np.zeros((d, d)) for _ in range(3)]
        for h in range(n_heads if rng is not None else 0):   # no draw: all zero
            for w in fused:
                w[:, h * d_head:(h + 1) * d_head] = _glorot(rng, d, d_head)
        for name, w in zip(("wq", "wk", "wv"), fused):
            self._add(f"{prefix}.{name}", w)
        self._add(f"{prefix}.wo", _glorot(rng, d, d))

    def _add_ln(self, prefix):
        d = self.config.d_model
        self._add(f"{prefix}.gamma", np.ones(d))
        self._add(f"{prefix}.beta", np.zeros(d))

    def _add_ffn(self, prefix, rng):
        c = self.config
        self._add(f"{prefix}.w1", _glorot(rng, c.d_model, c.d_ffn))
        self._add(f"{prefix}.b1", np.zeros(c.d_ffn))
        self._add(f"{prefix}.w2", _glorot(rng, c.d_ffn, c.d_model))
        self._add(f"{prefix}.b2", np.zeros(c.d_model))

    def _init_params(self, rng):
        c = self.config
        self._add("enc_embed.w", _glorot(rng, c.n_features, c.d_model))
        self._add("dec_embed.w", _glorot(rng, 1, c.d_model))
        for i in range(c.n_encoder_layers):
            self._add_mha(f"enc.{i}.attn", rng)
            self._add_ln(f"enc.{i}.ln1")
            self._add_ffn(f"enc.{i}.ffn", rng)
            self._add_ln(f"enc.{i}.ln2")
        for i in range(c.n_decoder_layers):
            self._add_mha(f"dec.{i}.self_attn", rng)
            self._add_ln(f"dec.{i}.ln1")
            self._add_mha(f"dec.{i}.cross_attn", rng)
            self._add_ln(f"dec.{i}.ln2")
            self._add_ffn(f"dec.{i}.ffn", rng)
            self._add_ln(f"dec.{i}.ln3")
        if c.output_head == "linear":
            self._add("head.w", _glorot(rng, c.d_model, 1))
            self._add("head.b", np.zeros(1))
        else:
            self._add("head.w1", _glorot(rng, c.d_model, c.d_model))
            self._add("head.b1", np.zeros(c.d_model))
            self._add("head.w2", _glorot(rng, c.d_model, 1))
            self._add("head.b2", np.zeros(1))

    def parameter_count(self) -> int:
        return sum(t.data.size for t in self.params.values())

    def zero_grads(self):
        for t in self.params.values():
            t.zero_grad()

    # -- forward pieces -----------------------------------------------------

    def _ln(self, prefix, x):
        return layer_norm(x, self.params[f"{prefix}.gamma"], self.params[f"{prefix}.beta"])

    def _ffn(self, prefix, x):
        p = self.params
        h = activation(add_bias(matmul(x, p[f"{prefix}.w1"]), p[f"{prefix}.b1"]), "relu")
        return add_bias(matmul(h, p[f"{prefix}.w2"]), p[f"{prefix}.b2"])

    def _mha(self, prefix, q_in, kv_in, causal=False):
        """Self-attention passes one Tensor as q_in and kv_in: perfbench's
        tracer tells self from cross attention by that identity."""
        weights = tuple(self.params[f"{prefix}.{w}"] for w in ("wq", "wk", "wv", "wo"))
        return multi_head(q_in, kv_in, kv_in, weights, self.config.n_heads,
                          self.config.effective_k(kv_in.data.shape[-2]), causal)

    def _embed(self, x: Tensor, name: str) -> Tensor:
        """x @ W plus the positional table, which broadcasts over a batch."""
        emb = matmul(x, self.params[name])
        return add_bias(emb, Tensor(self.pe.slice(x.data.shape[-2])))

    def embed_encoder(self, window) -> Tensor:
        x = window if isinstance(window, Tensor) else Tensor(window)
        if x.data.ndim not in (2, 3) or x.data.shape[-1] != self.config.n_features:
            raise ShapeError(f"window shape {x.data.shape}: need L x n_features "
                             f"(n_features {self.config.n_features}), optionally batched")
        return self._embed(x, "enc_embed.w")

    def embed_decoder(self, decoder_in) -> Tensor:
        """H x 1 or B x H x 1 target values to embedded rows, handed to
        decoder_forward time-major: H x d, or H x B x d for a batch (a view).
        The leading axis is then one window's decoder rows, which is what
        perfbench's tracer counts as decoder rows per encoded window."""
        y = decoder_in if isinstance(decoder_in, Tensor) else Tensor(decoder_in)
        if y.data.ndim not in (2, 3) or y.data.shape[-1] != 1:
            raise ShapeError(f"decoder input must be Hx1 or BxHx1, got {y.data.shape}")
        emb = self._embed(y, "dec_embed.w")
        return swap_leading(emb) if emb.data.ndim == 3 else emb

    def encoder_forward(self, x_emb: Tensor) -> Tensor:
        x = x_emb
        for i in range(self.config.n_encoder_layers):
            h = self._ln(f"enc.{i}.ln1", add(x, self._mha(f"enc.{i}.attn", x, x)))
            x = self._ln(f"enc.{i}.ln2", add(h, self._ffn(f"enc.{i}.ffn", h)))
        return x

    def decoder_forward(self, y_emb: Tensor, memory: Tensor) -> Tensor:
        """y_emb time-major as embed_decoder returns it; returns H x d or
        B x H x d decoder states."""
        y = swap_leading(y_emb) if y_emb.data.ndim == 3 else y_emb
        for i in range(self.config.n_decoder_layers):
            y = self._ln(f"dec.{i}.ln1",
                         add(y, self._mha(f"dec.{i}.self_attn", y, y, causal=True)))
            y = self._ln(f"dec.{i}.ln2", add(y, self._mha(f"dec.{i}.cross_attn", y, memory)))
            y = self._ln(f"dec.{i}.ln3", add(y, self._ffn(f"dec.{i}.ffn", y)))
        return y

    def output_head(self, d: Tensor) -> Tensor:
        p = self.params
        if self.config.output_head == "linear":
            return add_bias(matmul(d, p["head.w"]), p["head.b"])
        hidden = activation(add_bias(matmul(d, p["head.w1"]), p["head.b1"]),
                            self.config.head_activation)
        return add_bias(matmul(hidden, p["head.w2"]), p["head.b2"])

    def forward(self, window, decoder_in) -> Tensor:
        """Teacher-forced forward: window is lookback x n_features, decoder_in
        is H x 1 target-channel values; returns H x 1 predictions. With a
        leading batch axis on both inputs, returns B x H x 1."""
        memory = self.encoder_forward(self.embed_encoder(window))
        dec = self.decoder_forward(self.embed_decoder(decoder_in), memory)
        return self.output_head(dec)

    def predict(self, window, horizon: int) -> np.ndarray:
        """Greedy autoregressive rollout in normalized space. The start token
        is the last observed target value in the window; each prediction is
        fed back as the next decoder input. One L x F window returns a
        (horizon, 1) array; a B x L x F stack runs as one batch through the
        same ops and returns B x horizon x 1. Records no tape."""
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        window = np.asarray(window, dtype=np.float64)
        with no_grad():
            memory = self.encoder_forward(self.embed_encoder(window))
            dec = window[..., -1:, TARGET_INDEX, None]        # (..., 1, 1) start token
            for t in range(horizon):
                out = self.output_head(self.decoder_forward(self.embed_decoder(dec), memory))
                dec = np.concatenate((dec, out.data[..., t:t + 1, :]), axis=-2)
        return dec[..., 1:, :]

    # -- state --------------------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params.items()}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        if set(state) != set(self.params):
            missing = set(self.params) ^ set(state)
            raise DataError(f"parameter name mismatch: {sorted(missing)}")
        for name, arr in state.items():
            if arr.shape != self.params[name].data.shape:
                raise DataError(f"parameter {name}: shape {arr.shape} != "
                                f"{self.params[name].data.shape}")
            self.params[name].data = np.asarray(arr, dtype=np.float64)


# ---------------------------------------------------------------------------
# checkpoint format: one JSON header line (config, normalizer, parameter
# manifest, version), then the raw little-endian float64 parameter buffers in
# manifest order. Fully deterministic bytes for a given model state.

def _manifest(model: TransformerModel) -> list:
    return [{"name": n, "shape": list(model.params[n].data.shape)}
            for n in sorted(model.params)]


def save_checkpoint(model: TransformerModel, normalizer, path) -> None:
    header = {
        "magic": CHECKPOINT_MAGIC,
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "normalizer": None if normalizer is None else normalizer.to_dict(),
        "params": _manifest(model),
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        f.write(b"\n")
        for entry in header["params"]:
            f.write(np.ascontiguousarray(model.params[entry["name"]].data,
                                         dtype="<f8").tobytes())


def _config_from_header(config) -> ModelConfig:
    types = {f.name: f.type for f in fields(ModelConfig)}
    if not isinstance(config, dict):
        raise DataError("checkpoint config is not a mapping")
    unknown, missing = sorted(set(config) - set(types)), sorted(set(types) - set(config))
    if unknown or missing:
        raise DataError(f"checkpoint config: unknown keys {unknown}, missing keys {missing}")
    bad = sorted(n for n, v in config.items() if not isinstance(v, types[n]))
    if bad:
        raise DataError(f"checkpoint config: bad value types for {bad}")
    try:
        return ModelConfig(**config)
    except ConfigError as e:
        raise DataError(f"checkpoint config: {e}") from e


def _normalizer_from_header(entry, n_features: int) -> Normalizer:
    try:
        norm = Normalizer.from_dict(entry)
    except (TypeError, KeyError, ValueError) as e:
        raise DataError(f"checkpoint normalizer is malformed: {e}") from e
    if norm.mean.shape != (n_features,) or norm.std.shape != (n_features,):
        raise DataError(f"checkpoint normalizer: mean/std shapes {norm.mean.shape}, "
                        f"{norm.std.shape} do not match n_features {n_features}")
    return norm


def load_checkpoint(path):
    """Returns (model, normalizer); normalizer may be None. A malformed file
    raises DataError."""
    with open(path, "rb") as f:
        header_line = f.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise DataError(f"not a checkpoint file: {path}") from e
        if not isinstance(header, dict) or header.get("magic") != CHECKPOINT_MAGIC:
            raise DataError(f"not a checkpoint file: {path}")
        if header.get("format_version") != CHECKPOINT_VERSION:
            raise DataError(f"unsupported checkpoint version {header.get('format_version')}")
        missing = [k for k in ("config", "normalizer", "params") if k not in header]
        if missing:
            raise DataError(f"checkpoint header lacks {missing}")
        model = TransformerModel(_config_from_header(header["config"]), seed=None)
        if header["params"] != _manifest(model):
            raise DataError("checkpoint parameter manifest does not match its config")
        state = {}
        for entry in header["params"]:
            shape = tuple(entry["shape"])
            n_bytes = int(np.prod(shape)) * 8
            buf = f.read(n_bytes)
            if len(buf) != n_bytes:
                raise DataError("checkpoint truncated")
            state[entry["name"]] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
        if f.read(1):
            raise DataError("checkpoint has bytes after the last parameter buffer")
        model.load_state_arrays(state)
    norm = None
    if header["normalizer"] is not None:
        norm = _normalizer_from_header(header["normalizer"], model.config.n_features)
    return model, norm


def checkpoint_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
