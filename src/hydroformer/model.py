"""Encoder-decoder forecasting model: sparse or dense multi-head attention,
sinusoidal positional encoding, and a linear or tanh-sandwich output head."""

import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass, fields, asdict

import numpy as np

from .attention import default_k, multi_head
from .data import FEATURE_COLUMNS, TARGET_INDEX, Normalizer
from .errors import ConfigError, DataError, NumericError, ShapeError
from .tensor import (Tensor, all_finite, grad_enabled, layer_norm, linear, matmul, mlp,
                     no_grad, swap_leading)

CHECKPOINT_MAGIC = "hydroformer-checkpoint"
CHECKPOINT_VERSION = 3
# the longest header line a load reads: a paper-scale header is 3.6 KB, and
# each further layer adds about 0.7 KB
HEADER_MAX_BYTES = 1 << 20


@dataclass
class ModelConfig:
    """Architecture hyperparameters. Defaults follow the published
    configuration; desk_scale() gives a small variant for fast runs. The
    nonlinear head is the tanh sandwich, and the input width is the CSV
    schema's, len(FEATURE_COLUMNS)."""
    d_model: int = 512
    n_heads: int = 8
    n_encoder_layers: int = 1
    n_decoder_layers: int = 2
    d_ffn: int = 2048
    attention_mode: str = "dense"          # "dense" | "sparse"
    k_sparse: int | None = None            # sparse only; None -> ceil(L/4) at runtime
    output_head: str = "linear"            # "linear" | "nonlinear"
    lookback: int = 30
    horizon: int = 1

    def __post_init__(self):
        for name in ("d_model", "n_heads", "n_encoder_layers", "n_decoder_layers",
                     "d_ffn", "lookback", "horizon"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.attention_mode not in ("dense", "sparse"):
            raise ConfigError(f"attention_mode must be dense or sparse, got {self.attention_mode!r}")
        if self.output_head not in ("linear", "nonlinear"):
            raise ConfigError(f"output_head must be linear or nonlinear, got {self.output_head!r}")
        if self.k_sparse is not None and self.k_sparse < 1:
            raise ConfigError("k_sparse must be >= 1")
        if self.k_sparse is not None and self.attention_mode == "dense":
            raise ConfigError("k_sparse applies only to attention_mode = sparse")

    @classmethod
    def desk_scale(cls, **overrides):
        base = dict(d_model=32, n_heads=2, d_ffn=64)
        base.update(overrides)
        return cls(**base)

    def effective_k(self, length: int) -> int | None:
        if self.attention_mode == "dense":
            return None
        return self.k_sparse if self.k_sparse is not None else default_k(length)


_POSITIONS = {}     # d_model -> read-only sinusoid table


def positions(length: int, d_model: int) -> np.ndarray:
    """The first `length` rows of the fixed sinusoid table, even columns
    sin(pos / 10000^(2i/d)), odd cos: a read-only view of one table per
    width, rebuilt at `length` rows when a call needs more than it holds.
    Each row depends on its position only, so these rows equal the prefix
    of any longer table bit for bit."""
    table = _POSITIONS.get(d_model)
    if table is None or table.shape[0] < length:
        pos = np.arange(length)[:, None].astype(np.float64)
        i = np.arange(0, d_model, 2).astype(np.float64)
        angle = pos / np.power(10000.0, i / d_model)
        table = np.zeros((length, d_model))
        table[:, 0::2] = np.sin(angle)
        table[:, 1::2] = np.cos(angle[:, : d_model // 2])
        table.flags.writeable = False
        _POSITIONS[d_model] = table
    return table[:length]


def _layout(c: ModelConfig):
    """Every parameter's shape, and the Glorot draws in their published order
    as (name, column block) pairs; fused Q/K/V are drawn head by head, q/k/v
    interleaved, one d_head column block each. Layer norms draw nothing."""
    d, f, dh = c.d_model, c.d_ffn, c.d_model // c.n_heads
    shapes, draws = {}, []

    def weight(name, fan_in, fan_out):
        shapes[name] = (fan_in, fan_out)
        draws.append((name, slice(None)))

    def mha(prefix):
        shapes.update({f"{prefix}.{w}": (d, d) for w in ("wq", "wk", "wv")})
        draws.extend((f"{prefix}.{w}", slice(h * dh, (h + 1) * dh))
                     for h in range(c.n_heads) for w in ("wq", "wk", "wv"))
        weight(f"{prefix}.wo", d, d)

    def ffn(prefix):
        weight(f"{prefix}.w1", d, f)
        weight(f"{prefix}.w2", f, d)
        shapes.update({f"{prefix}.b1": (f,), f"{prefix}.b2": (d,)})

    weight("enc_embed.w", len(FEATURE_COLUMNS), d)
    weight("dec_embed.w", 1, d)
    norms = [f"enc.{i}.ln{j}" for i in range(c.n_encoder_layers) for j in (1, 2)]
    norms += [f"dec.{i}.ln{j}" for i in range(c.n_decoder_layers) for j in (1, 2, 3)]
    shapes.update({f"{ln}.{p}": (d,) for ln in norms for p in ("gamma", "beta")})
    for i in range(c.n_encoder_layers):
        mha(f"enc.{i}.attn")
        ffn(f"enc.{i}.ffn")
    for i in range(c.n_decoder_layers):
        mha(f"dec.{i}.self_attn")
        mha(f"dec.{i}.cross_attn")
        ffn(f"dec.{i}.ffn")
    if c.output_head == "linear":
        weight("head.w", d, 1)
        shapes["head.b"] = (1,)
    else:
        weight("head.w1", d, d)
        weight("head.w2", d, 1)
        shapes.update({"head.b1": (d,), "head.b2": (1,)})
    return shapes, draws


def _named(method):
    """Wraps a forward piece whose first argument is its layer prefix: a
    NumericError from it is raised again with the prefix in front, e.g.
    "dec.1.cross_attn: matmul produced non-finite values". It adds one call
    frame per piece; the try block costs nothing while no exception is
    raised."""
    @functools.wraps(method)
    def piece(self, prefix, *args):
        try:
            return method(self, prefix, *args)
        except NumericError as e:
            raise NumericError(f"{prefix}: {e}") from e
    return piece


class TransformerModel:
    """Parameter container plus the forward / autoregressive-predict paths.

    A model is its config and one float64 vector, `flat`, of which every
    parameter is a view in checkpoint manifest (sorted-name) order, as is
    the name->Tensor map `params`; so parameters change only in place.
    Shapes are a pure function of the config, and none depends on lookback
    or horizon. Seed None leaves the vector zero with no RNG draw, for
    callers that overwrite it (load_checkpoint).

    The forward pieces take one sample (L x 19 window, H x 1 decoder
    input) or a batch of them stacked on a leading axis.
    """

    def __init__(self, config: ModelConfig, seed: int | None = 0):
        self.config = config
        shapes, draws = _layout(config)
        names = sorted(shapes)
        sizes = [math.prod(shapes[n]) for n in names]
        self.flat = np.zeros(sum(sizes))
        self.params = {n: Tensor(v.reshape(shapes[n]), requires_grad=True)
                       for n, v in zip(names, np.split(self.flat, np.cumsum(sizes)[:-1]))}
        if seed is None:
            return
        # Glorot U(-limit, limit) as Generator.uniform computes it, low +
        # (high - low) * u, drawn in place: into the parameter's view when it
        # is contiguous, else (a per-head column block) into one buffer
        rng = np.random.default_rng(seed)
        head_block = np.empty((config.d_model, config.d_model // config.n_heads))
        for name, cols in draws:
            block = self.params[name].data[:, cols]
            limit = math.sqrt(6.0 / sum(block.shape))
            out = block if block.flags.c_contiguous else head_block
            rng.random(out=out)
            out *= 2.0 * limit
            out += -limit
            if out is not block:
                block[...] = out
        for name, t in self.params.items():
            if name.endswith(".gamma"):
                t.data[...] = 1.0

    # -- forward pieces -----------------------------------------------------

    @_named
    def _linear(self, prefix, x, bias):
        return linear(x, self.params[f"{prefix}.w"], bias)

    @_named
    def _mlp(self, prefix, x, activation):
        p = self.params
        return mlp(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"], p[f"{prefix}.w2"],
                   p[f"{prefix}.b2"], activation)

    @_named
    def _ln(self, prefix, x, residual):
        """Layer norm of x + residual; an overflowing residual sum is named
        after this layer norm."""
        return layer_norm(x, self.params[f"{prefix}.gamma"], self.params[f"{prefix}.beta"],
                          residual)

    @_named
    def _kv(self, prefix, x):
        """x projected to this attention layer's K and V."""
        return matmul(x, self.params[f"{prefix}.wk"]), matmul(x, self.params[f"{prefix}.wv"])

    @_named
    def _mha(self, prefix, q_in, kv, causal=False):
        """kv is this layer's (K, V) pair as _kv makes it: from q_in's own
        rows in self-attention, from cross_kv's memory in cross-attention,
        or joined with a rollout cache's earlier rows."""
        k, v = kv
        weights = (self.params[f"{prefix}.wq"], self.params[f"{prefix}.wo"])
        return multi_head(q_in, k, v, weights, self.config.n_heads,
                          self.config.effective_k(k.data.shape[-2]), causal)

    def embed_encoder(self, window) -> Tensor:
        """Window rows (an array) @ W plus their positional rows, which
        broadcast over a batch."""
        x = Tensor(window)
        if x.data.ndim not in (2, 3) or x.data.shape[-1] != len(FEATURE_COLUMNS):
            raise ShapeError(f"window shape {x.data.shape}: need L x "
                             f"{len(FEATURE_COLUMNS)} features, optionally batched")
        pe = positions(x.data.shape[-2], self.config.d_model)
        return self._linear("enc_embed", x, Tensor(pe))

    def embed_decoder(self, decoder_in) -> Tensor:
        """H x 1 or B x H x 1 target values (an array) to embedded rows, handed to
        decoder_forward time-major: H x d, or H x B x d for a batch (a view).
        The leading axis is then one window's decoder rows, which is what
        perfbench's tracer counts as decoder rows per encoded window."""
        y = Tensor(decoder_in)
        if y.data.ndim not in (2, 3) or y.data.shape[-1] != 1:
            raise ShapeError(f"decoder input must be Hx1 or BxHx1, got {y.data.shape}")
        pe = positions(y.data.shape[-2], self.config.d_model)
        emb = self._linear("dec_embed", y, Tensor(pe))
        return swap_leading(emb) if emb.data.ndim == 3 else emb

    def encoder_forward(self, x_emb: Tensor) -> Tensor:
        x = x_emb
        for i in range(self.config.n_encoder_layers):
            prefix = f"enc.{i}.attn"
            h = self._ln(f"enc.{i}.ln1", x, self._mha(prefix, x, self._kv(prefix, x)))
            x = self._ln(f"enc.{i}.ln2", h, self._mlp(f"enc.{i}.ffn", h, "relu"))
        return x

    def cross_kv(self, memory: Tensor) -> list:
        """The encoder memory projected to cross-attention K and V, one
        (K, V) pair per decoder layer, for decoder_forward. A rollout makes
        them once and every step reuses them."""
        return [self._kv(f"dec.{i}.cross_attn", memory)
                for i in range(self.config.n_decoder_layers)]

    def decoder_forward(self, y_emb: Tensor, memory_kv, cache=None) -> Tensor:
        """y_emb time-major as embed_decoder returns it, memory_kv as
        cross_kv returns it.

        cache None is teacher forcing: every row runs through every layer
        under the causal mask; returns H x d or B x H x d decoder states.

        A rollout passes cache, a list with one entry per layer: None, or
        the (K, V) self-attention arrays of the first c rows, already
        decoded. y_emb still holds the whole prefix, so every row keeps its
        positional row, but only the rows after the first c run: all of
        them with an empty cache, one otherwise (more fail the causal mask's
        shape check). Each layer appends their K/V to its entry, and their
        queries attend to every cached key. The last layer runs the newest
        row only, whose state (1 x d or B x 1 x d) is returned. The cache is
        joined off the tape, so it needs no_grad."""
        if cache is not None and grad_enabled():
            raise RuntimeError("decoder_forward: a rollout cache records no gradients; "
                               "call it under no_grad")
        y = swap_leading(y_emb) if y_emb.data.ndim == 3 else y_emb
        if cache is not None and cache[0] is not None:
            y = Tensor(y.data[..., cache[0][0].shape[-2]:, :])     # the rows not yet decoded
        n = self.config.n_decoder_layers
        for i in range(n):
            prefix = f"dec.{i}.self_attn"
            kv = self._kv(prefix, y)
            if cache is not None:
                if cache[i] is not None:
                    kv = tuple(Tensor(np.concatenate((a, t.data), axis=-2))
                               for a, t in zip(cache[i], kv))
                cache[i] = tuple(t.data for t in kv)
                if i == n - 1 and y.data.shape[-2] > 1:
                    y = Tensor(y.data[..., -1:, :])                 # the newest row
            causal = y.data.shape[-2] > 1   # one query row attends every key
            y = self._ln(f"dec.{i}.ln1", y, self._mha(prefix, y, kv, causal))
            y = self._ln(f"dec.{i}.ln2", y, self._mha(f"dec.{i}.cross_attn", y, memory_kv[i]))
            y = self._ln(f"dec.{i}.ln3", y, self._mlp(f"dec.{i}.ffn", y, "relu"))
        return y

    def output_head(self, d: Tensor) -> Tensor:
        if self.config.output_head == "linear":
            return self._linear("head", d, self.params["head.b"])
        return self._mlp("head", d, "tanh")

    def forward(self, window, decoder_in) -> Tensor:
        """Teacher-forced forward: window is lookback x 19, decoder_in
        is H x 1 target-channel values; returns H x 1 predictions. With a
        leading batch axis on both inputs, returns B x H x 1."""
        memory = self.encoder_forward(self.embed_encoder(window))
        dec = self.decoder_forward(self.embed_decoder(decoder_in), self.cross_kv(memory))
        return self.output_head(dec)

    def predict(self, window, horizon: int) -> np.ndarray:
        """Greedy autoregressive rollout in normalized space. The start token
        is the last observed target value in the window; each prediction is
        fed back as the next decoder input. One L x F window returns a
        (horizon, 1) array; a B x L x F stack runs as one batch through the
        same ops and returns B x horizon x 1. Records no tape.

        The memory's cross-attention K/V are made once per rollout. Step t
        decodes incrementally: every decoder layer keeps the self-attention
        K/V of the rows before it, so only the newest row runs. In sparse
        mode a row's top-k depends on k = effective_k(t); when k changes
        (k = ceil(t/4) changes at t = 5, 9, ...), the earlier rows' states
        change, so the step drops the cache and decodes all t rows again.
        The head runs on the newest row only. numpy's floating-point warnings
        are off: the ops' finite guard reports every non-finite value."""
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        window = np.asarray(window, dtype=np.float64)
        with no_grad(), np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            memory_kv = self.cross_kv(self.encoder_forward(self.embed_encoder(window)))
            dec = window[..., -1:, TARGET_INDEX, None]        # (..., 1, 1) start token
            k = None
            for t in range(1, horizon + 1):
                k_prev, k = k, self.config.effective_k(t)
                if t == 1 or k != k_prev:
                    cache = [None] * self.config.n_decoder_layers
                state = self.decoder_forward(self.embed_decoder(dec), memory_kv, cache)
                dec = np.concatenate((dec, self.output_head(state).data), axis=-2)
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
            self.params[name].data[...] = arr


# ---------------------------------------------------------------------------
# checkpoint format: one JSON header line (config, normalizer, parameter
# manifest, version), then the model's parameter vector `flat`: every
# parameter in manifest order, raw little-endian float64. Fully
# deterministic bytes for a given model state.

def _manifest(config: ModelConfig) -> list:
    shapes, _ = _layout(config)
    return [{"name": n, "shape": list(shapes[n])} for n in sorted(shapes)]


def save_checkpoint(model: TransformerModel, normalizer: Normalizer, path) -> None:
    """Writes the model and the normalizer its inputs need: train passes the
    one fitted on its train split, and load_checkpoint refuses a file
    without a usable one."""
    header = {
        "magic": CHECKPOINT_MAGIC,
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "normalizer": normalizer.to_dict(),
        "params": _manifest(model.config),
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        f.write(b"\n")
        f.write(model.flat)


def _config_from_header(config) -> ModelConfig:
    types = {f.name: f.type for f in fields(ModelConfig)}
    if not isinstance(config, dict):
        raise DataError("checkpoint config is not a mapping")
    unknown, missing = sorted(set(config) - set(types)), sorted(set(types) - set(config))
    if unknown or missing:
        raise DataError(f"checkpoint config: unknown keys {unknown}, missing keys {missing}")
    bad = sorted(n for n, v in config.items() if type(v) is bool or not isinstance(v, types[n]))
    if bad:
        raise DataError(f"checkpoint config: bad value types for {bad}")
    try:
        return ModelConfig(**config)
    except ConfigError as e:
        raise DataError(f"checkpoint config: {e}") from e


def load_checkpoint(path):
    """Returns (model, normalizer). A malformed file, one whose normalizer
    Normalizer.from_dict refuses (a null one too) or whose parameters hold
    NaN or inf raises DataError. The header's config and normalizer are
    checked, and the config against its manifest and the body's size, before
    the model is built, so a bad header allocates nothing; the build
    allocates the parameter vector only."""
    try:
        f = open(path, "rb")
    except OSError as e:
        raise DataError(f"cannot open checkpoint {path}: {e}") from e
    with f:
        header_line = f.readline(HEADER_MAX_BYTES + 1)
        if len(header_line) > HEADER_MAX_BYTES:
            raise DataError(f"not a checkpoint file: {path} (no header line "
                            f"within {HEADER_MAX_BYTES} bytes)")
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise DataError(f"not a checkpoint file: {path}") from e
        if not isinstance(header, dict) or header.get("magic") != CHECKPOINT_MAGIC:
            raise DataError(f"not a checkpoint file: {path}")
        if header.get("format_version") != CHECKPOINT_VERSION:
            raise DataError(f"unsupported checkpoint format version "
                            f"{header.get('format_version')!r}; this build reads "
                            f"version {CHECKPOINT_VERSION}")
        missing = [k for k in ("config", "normalizer", "params") if k not in header]
        if missing:
            raise DataError(f"checkpoint header lacks {missing}")
        config = _config_from_header(header["config"])
        try:
            norm = Normalizer.from_dict(header["normalizer"])
        except DataError as e:
            raise DataError(f"checkpoint {e}") from e
        body = os.fstat(f.fileno()).st_size - len(header_line)
        # every layer holds parameters: this refuses a huge layer count before
        # _layout, whose time grows with it
        if config.n_encoder_layers + config.n_decoder_layers > body // 8:
            raise DataError("checkpoint body is too short for its config's layers")
        manifest = _manifest(config)
        if header["params"] != manifest:
            raise DataError("checkpoint parameter manifest does not match its config")
        need = 8 * sum(math.prod(p["shape"]) for p in manifest)
        if body != need:
            raise DataError(f"checkpoint body holds {body} bytes, its manifest {need}")
        model = TransformerModel(config, seed=None)
        if f.readinto(model.flat) != model.flat.nbytes:
            raise DataError("checkpoint truncated")
        if f.read(1):
            raise DataError("checkpoint has bytes after the last parameter buffer")
        if not all_finite(model.flat):
            name = next(n for n, t in model.params.items() if not all_finite(t.data))
            raise DataError(f"checkpoint parameter {name} holds non-finite values")
    return model, norm


def checkpoint_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
