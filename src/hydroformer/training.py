"""Mini-batch Adam training with teacher forcing, early stopping on
validation loss, and per-epoch loss-curve logging. Each epoch visits the
training windows in a fresh seeded permutation.

Samples go through the model as stacked sub-batches (B x L x F windows), one
graph each; a mini-batch's gradients accumulate across its sub-batches. The
sub-batch size keeps one graph's tape under TAPE_BUDGET_BYTES, with at least
one sample per graph: a desk-scale batch of 32 runs as 2 graphs of 16. The
budget does not bound a paper-scale step: one sample's tape is about 3.6 MB,
so it runs alone. Adam updates model.flat (90.2 MiB at paper scale) in
blocks of Adam.BLOCK elements, so its temporaries stay at two blocks
whatever the model's size. Passes that record no tape
(the validation loss, evaluation rollouts) run in chunks of
forward_batch_size windows, sized from FORWARD_BUDGET_BYTES."""

from dataclasses import dataclass, field

import numpy as np

from .data import FEATURE_COLUMNS, TARGET_INDEX, WindowedDataset
from .errors import ConfigError, DataError, NumericError
from .metrics import MetricReport
from .model import ModelConfig, TransformerModel
from .tensor import Tensor, all_finite, backward, mse, no_grad, scale

# Bytes one sub-batch's graph may keep alive for backward.
TAPE_BUDGET_BYTES = 4 << 20
# Bytes one no-grad forward chunk may hold at its peak.
FORWARD_BUDGET_BYTES = 128 << 20


@dataclass
class TrainConfig:
    batch_size: int = 32
    learning_rate: float = 1e-4
    max_epochs: int = 50
    early_stop_patience: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or self.max_epochs < 1 or self.early_stop_patience < 1:
            raise ConfigError("batch_size, max_epochs, and patience must be positive")
        if not 0 <= self.learning_rate < np.inf:
            raise ConfigError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


class Adam:
    """Standard bias-corrected Adam over a parameter vector `flat`, tiled in
    order by the views of the name->Tensor map `params` (a model's `flat`
    and `params`); each parameter's .grad views Adam's `grad` the same way."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
    # elements per slice of the elementwise update, which bounds its two
    # temporaries to this many elements each, whatever the model's size
    BLOCK = 1 << 16

    def __init__(self, params: dict, flat: np.ndarray):
        self.params, self.flat = params, flat
        self.step_count = 0
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)
        self.grad = np.zeros_like(flat)
        sizes = [p.data.size for p in params.values()]
        for p, g in zip(params.values(), np.split(self.grad, np.cumsum(sizes)[:-1])):
            p.grad = g.reshape(p.data.shape)

    def step(self, lr: float) -> None:
        g = self.grad
        if not all_finite(g):
            name = next(n for n, p in self.params.items() if not all_finite(p.grad))
            raise NumericError(f"non-finite gradient for parameter {name}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.BETA1 ** t
        bc2 = 1.0 - self.BETA2 ** t
        for i in range(0, g.size, self.BLOCK):
            b = slice(i, i + self.BLOCK)
            gb, m, v = g[b], self.m[b], self.v[b]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * gb
            v *= self.BETA2
            v += (1.0 - self.BETA2) * gb * gb
            step = m / bc1              # two temporaries, updated in place
            step *= lr
            denom = v / bc2
            np.sqrt(denom, out=denom)
            denom += self.EPS
            step /= denom
            self.flat[b] -= step


@dataclass
class LossCurve:
    epochs: list = field(default_factory=list)   # (train_loss, val_loss)
    best_epoch: int = -1

    def to_text(self) -> str:
        lines = ["epoch,train_loss,val_loss"]
        for i, (tr, va) in enumerate(self.epochs):
            lines.append(f"{i},{tr!r},{va!r}")
        return "\n".join(lines) + "\n"


def teacher_forced_input(window: np.ndarray, targets: np.ndarray,
                         target_index: int) -> np.ndarray:
    """Decoder input for training: start token (last observed target in the
    window) followed by the ground-truth targets shifted right. H x 1 for one
    window (L x F) and H targets; B x H x 1 for a batch of them."""
    return np.concatenate((window[..., -1:, target_index], targets[..., :-1]),
                          axis=-1)[..., None]


def tape_bytes_per_sample(config: ModelConfig) -> int:
    """Bytes one training sample adds to its graph's peak: the arrays the
    graph keeps until backward, plus what backward holds beside them.

    The graph keeps the sample's window, decoder input and targets, every op
    output, attention_core's softmax weights, layer_norm's x-hat and 1/std,
    mlp's pre-activation and mse's difference; the other arrays backward
    uses are views of these. Backward peaks in the first attention it
    sweeps, the last decoder layer's cross attention, which holds the K and
    V gradients of the memory and four arrays of its scores' size. The
    per-graph arrays (masks, parameter gradients) are not counted."""
    c = config
    L, H, d, f, nh = c.lookback, c.horizon, c.d_model, c.d_ffn, c.n_heads

    def attn(q, k):
        # q rows: projection, head mix, wo, layer norm and its x-hat, 1/std;
        # k rows: K and V projections; the softmax weights of every head
        return 5 * q * d + q + 2 * k * d + nh * q * k

    def ffn(rows):
        # mlp pre-activation and output; layer norm and its x-hat, 1/std
        return rows * f + 3 * rows * d + rows

    head = H * (d + 1) if c.output_head == "nonlinear" else H
    values = (L * len(FEATURE_COLUMNS) + 2 * H          # window, decoder input, targets
              + L * d + H * d                           # embeddings
              + c.n_encoder_layers * (attn(L, L) + ffn(L))
              + c.n_decoder_layers * (attn(H, H) + attn(H, L) + ffn(H))
              + head + H)                               # head, mse difference
    backward_transient = 2 * L * d + 4 * nh * H * L
    return 8 * (values + backward_transient)


def sub_batch_size(config: ModelConfig) -> int:
    """Most samples per graph whose estimated tape fits TAPE_BUDGET_BYTES,
    at least one."""
    return max(1, TAPE_BUDGET_BYTES // tape_bytes_per_sample(config))


def forward_batch_size(config: ModelConfig) -> int:
    """Most windows per no-grad forward or rollout chunk, at least one.

    Per window, with R = max(lookback L, horizon H) rows: an attention
    layer holds six R x d arrays (input, Q, K, V, the head mix and its
    merged copy) beside its scores and weights (n_heads x R x R each); an
    FFN holds three R x d arrays beside its hidden pre-activation and
    activation (R x d_ffn each); while the decoder runs, each decoder layer
    keeps the memory's cross-attention K and V (L x d each) and a rollout's
    self-attention K/V cache (H x d each). Each window is charged the
    attention's arrays, the FFN's hidden pair and every decoder layer's
    K/V, which is more than any one of these peaks holds."""
    c = config
    rows = max(c.lookback, c.horizon)
    floats = (rows * (6 * c.d_model + 2 * c.n_heads * rows + 2 * c.d_ffn)
              + 2 * c.n_decoder_layers * (c.lookback + c.horizon) * c.d_model)
    return max(1, FORWARD_BUDGET_BYTES // (8 * floats))


def _sub_batches(indices, size):
    """The fewest near-equal chunks of at most `size` indices."""
    return np.array_split(indices, -(-len(indices) // size))


def _batch(samples, idx):
    """Stacked windows, teacher-forced decoder inputs and B x H x 1 targets."""
    w, tgt = samples.windows[idx], samples.targets[idx]
    return w, teacher_forced_input(w, tgt, TARGET_INDEX), tgt[..., None]


def _split_loss(model, samples) -> float:
    """Mean teacher-forced MSE over a split's windows, in chunks of
    forward_batch_size windows; records no tape."""
    total = 0.0
    with no_grad():
        for idx in _sub_batches(np.arange(len(samples.windows)),
                                forward_batch_size(model.config)):
            w, dec_in, tgt = _batch(samples, idx)
            out = model.forward(w, dec_in).data
            total += float(((out - tgt) ** 2).mean(axis=(1, 2)).sum())
    return total / len(samples.windows)


def fit(model: TransformerModel, dataset: WindowedDataset,
        cfg: TrainConfig) -> LossCurve:
    """Train in place; returns the loss curve. Every epoch draws a fresh
    permutation of the training windows from a generator seeded with
    cfg.seed and runs it in mini-batches of cfg.batch_size.

    The curve is the run's one record. An epoch becomes curve.best_epoch
    when it is the first or its validation loss is strictly below the best
    epoch's (an equal loss is a bad epoch). Training stops after
    cfg.max_epochs epochs, or once more than cfg.early_stop_patience epochs
    have passed since the best one (patience 1 stops on the second bad
    epoch), and restores the best epoch's weights. Every parameter's .grad
    is None on return, as it is if training raises."""
    train = dataset.split("train")
    val = dataset.split("val")
    if len(train.windows) == 0 or len(val.windows) == 0:
        raise ConfigError("fit requires non-empty train and val splits")
    if train.targets.shape[1] != model.config.horizon:
        raise ConfigError(f"dataset horizon {train.targets.shape[1]} != model horizon "
                          f"{model.config.horizon}")

    rng = np.random.default_rng(cfg.seed)
    curve = LossCurve()
    best_state = model.flat.copy()

    n = len(train.windows)
    sub = sub_batch_size(model.config)
    optimizer = Adam(model.params, model.flat)
    try:
        for epoch in range(cfg.max_epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, cfg.batch_size):
                batch = order[start: start + cfg.batch_size]
                optimizer.grad.fill(0.0)
                for idx in _sub_batches(batch, sub):
                    try:
                        w, dec_in, tgt = _batch(train, idx)
                        # mean over the sub-batch, weighted to a mean over the batch
                        loss = mse(model.forward(w, dec_in), Tensor(tgt))
                        backward(scale(loss, len(idx) / len(batch)))
                    except NumericError as e:
                        raise NumericError(f"epoch {epoch}, samples {idx.tolist()}: {e}") from e
                    epoch_loss += float(loss.data) * len(idx)
                optimizer.step(cfg.learning_rate)
            train_loss = epoch_loss / n
            val_loss = _split_loss(model, val)
            if not np.isfinite(train_loss) or not np.isfinite(val_loss):
                raise NumericError(f"non-finite loss at epoch {epoch}: "
                                   f"train={train_loss}, val={val_loss}")
            if curve.best_epoch < 0 or val_loss < curve.epochs[curve.best_epoch][1]:
                curve.best_epoch = epoch
                np.copyto(best_state, model.flat)
            curve.epochs.append((train_loss, val_loss))
            if epoch - curve.best_epoch > cfg.early_stop_patience:
                break
        model.flat[:] = best_state
    finally:
        # the .grad views would keep Adam's gradient vector alive and let a
        # later backward add onto the last batch's gradient
        for p in model.params.values():
            p.grad = None
    return curve


def check_leads(leads, horizon: int) -> list:
    """The distinct leads, sorted; ConfigError unless all lie in [1, horizon]."""
    leads = sorted(set(int(x) for x in leads))
    if any(lead < 1 or lead > horizon for lead in leads):
        raise ConfigError(f"leads {leads} must lie in [1, horizon={horizon}]")
    return leads


def check_split(dataset: WindowedDataset, split: str):
    """The split's samples; DataError if it has fewer than the 2 windows
    metrics need."""
    samples = dataset.split(split)
    if len(samples.windows) < 2:
        raise DataError(f"{split} split has {len(samples.windows)} window(s); "
                        f"metrics need at least 2")
    return samples


def evaluate_split(model, dataset: WindowedDataset, split: str, leads,
                   r2_mode: str = "paper"):
    """Autoregressive evaluation at each requested lead time on denormalized
    values. The split's windows are rolled out as stacked batches, the fewest
    near-equal chunks of at most forward_batch_size windows. Returns
    (MetricReport, per-lead prediction series) where each series is a list of
    (anchor_date, actual, predicted) rows. A split of fewer than 2 windows
    raises DataError."""
    leads = check_leads(leads, model.config.horizon)
    samples = check_split(dataset, split)
    n = len(samples.windows)
    norm = dataset.normalizer
    preds = np.concatenate([model.predict(samples.windows[idx], max(leads))[..., 0]
                            for idx in _sub_batches(np.arange(n),
                                                    forward_batch_size(model.config))])
    report = MetricReport()
    series = {}
    for lead in leads:
        yhat = norm.invert_target(preds[:, lead - 1])
        y = norm.invert_target(samples.targets[:, lead - 1])
        report.add(lead, y, yhat, r2_mode=r2_mode)
        series[lead] = list(zip(samples.anchors, y.tolist(), yhat.tolist()))
    return report, series
