"""Mini-batch Adam training with teacher forcing, early stopping on
validation loss, and per-epoch loss-curve logging.

Samples go through the model as stacked sub-batches (B x L x F windows), one
graph each; a mini-batch's gradients accumulate across its sub-batches. The
sub-batch size keeps one graph's tape under TAPE_BUDGET_BYTES, with at least
one sample per graph: a desk-scale batch of 32 runs as 2 graphs of 16. The
budget does not bound a paper-scale step: one sample's tape is about 3.6 MB,
so it runs alone, and the step peaks in Adam's update, at three temporaries
the size of model.flat (90.2 MiB). Passes that record no tape
(the validation loss, evaluation rollouts) run in chunks of
forward_batch_size windows, sized from FORWARD_BUDGET_BYTES."""

from dataclasses import dataclass, field

import numpy as np

from .data import TARGET_INDEX, WindowedDataset
from .errors import ConfigError, DataError, NumericError
from .metrics import MetricReport
from .model import ModelConfig, TransformerModel
from .tensor import backward, mse, no_grad, Tensor

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
    min_delta: float = 0.0
    seed: int = 0
    shuffle_train: bool = True

    def __post_init__(self):
        if self.batch_size < 1 or self.max_epochs < 1 or self.early_stop_patience < 1:
            raise ConfigError("batch_size, max_epochs, and patience must be positive")
        if not 0 <= self.learning_rate < np.inf:
            raise ConfigError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not 0 <= self.min_delta < np.inf:
            raise ConfigError(f"min_delta must be finite and >= 0, got {self.min_delta}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


class Adam:
    """Standard bias-corrected Adam over a parameter vector `flat`, tiled in
    order by the views of the name->Tensor map `params` (a model's `flat`
    and `params`); each parameter's .grad views Adam's `grad` the same way."""

    def __init__(self, params: dict, flat: np.ndarray, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params, self.flat = params, flat
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)
        self.grad = np.zeros_like(flat)
        sizes = [p.data.size for p in params.values()]
        for p, g in zip(params.values(), np.split(self.grad, np.cumsum(sizes)[:-1])):
            p.grad = g.reshape(p.data.shape)

    def step(self, lr: float) -> None:
        g = self.grad
        if not np.isfinite(g).all():
            name = next(n for n, p in self.params.items() if not np.isfinite(p.grad).all())
            raise NumericError(f"non-finite gradient for parameter {name}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * g
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * g * g
        self.flat -= lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + self.eps)


@dataclass
class LossCurve:
    epochs: list = field(default_factory=list)   # (train_loss, val_loss)
    best_epoch: int = -1

    def to_text(self) -> str:
        lines = ["epoch,train_loss,val_loss"]
        for i, (tr, va) in enumerate(self.epochs):
            lines.append(f"{i},{tr!r},{va!r}")
        return "\n".join(lines) + "\n"


class EarlyStopper:
    """Stop once the count of consecutive epochs without an improvement of
    more than min_delta exceeds the patience budget (patience=1 tolerates one
    bad epoch and stops on the second)."""

    def __init__(self, patience: int, min_delta: float = 0.0):
        self.patience = patience
        self.min_delta = min_delta
        self.best = np.inf
        self.best_epoch = -1
        self.bad_epochs = 0

    def update(self, epoch: int, val_loss: float) -> bool:
        """Record one epoch; returns True when training should stop."""
        if val_loss < self.best - self.min_delta:
            self.best = val_loss
            self.best_epoch = epoch
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
        return self.bad_epochs > self.patience


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
    values = (L * c.n_features + 2 * H                  # window, decoder input, targets
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
    """Most windows per no-grad forward or rollout chunk, at least one: each
    window is charged four L x w float64 arrays, w the widest per-row array
    (FFN hidden, model width or one row of all heads' scores)."""
    L = config.lookback
    width = max(config.d_ffn, config.d_model, config.n_heads * L)
    return max(1, FORWARD_BUDGET_BYTES // (32 * L * width))


def _sub_batches(indices, size):
    """The fewest near-equal chunks of at most `size` indices."""
    return np.array_split(indices, -(-len(indices) // size))


def _batch(samples, idx, target_index):
    """Stacked windows, teacher-forced decoder inputs and B x H x 1 targets."""
    w, tgt = samples.windows[idx], samples.targets[idx]
    return w, teacher_forced_input(w, tgt, target_index), tgt[..., None]


def _split_loss(model, samples, target_index) -> float:
    """Mean teacher-forced MSE over a split's windows, in chunks of
    forward_batch_size windows; records no tape."""
    total = 0.0
    with no_grad():
        for idx in _sub_batches(np.arange(len(samples.windows)),
                                forward_batch_size(model.config)):
            w, dec_in, tgt = _batch(samples, idx, target_index)
            out = model.forward(w, dec_in).data
            total += float(((out - tgt) ** 2).mean(axis=(1, 2)).sum())
    return total / len(samples.windows)


def fit(model: TransformerModel, dataset: WindowedDataset,
        cfg: TrainConfig) -> LossCurve:
    """Train in place; returns the loss curve. Weights from the epoch with
    the best validation loss are restored on exit."""
    train = dataset.split("train")
    val = dataset.split("val")
    if len(train.windows) == 0 or len(val.windows) == 0:
        raise ConfigError("fit requires non-empty train and val splits")
    if dataset.horizon != model.config.horizon:
        raise ConfigError(f"dataset horizon {dataset.horizon} != model horizon "
                          f"{model.config.horizon}")

    rng = np.random.default_rng(cfg.seed)
    optimizer = Adam(model.params, model.flat)
    stopper = EarlyStopper(cfg.early_stop_patience, cfg.min_delta)
    curve = LossCurve()
    best_state = model.flat.copy()

    n = len(train.windows)
    sub = sub_batch_size(model.config)
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(n) if cfg.shuffle_train else np.arange(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start: start + cfg.batch_size]
            optimizer.grad.fill(0.0)
            for idx in _sub_batches(batch, sub):
                try:
                    w, dec_in, tgt = _batch(train, idx, TARGET_INDEX)
                    # mean over the sub-batch, weighted to a mean over the batch
                    loss = mse(model.forward(w, dec_in), Tensor(tgt))
                    backward(loss * (len(idx) / len(batch)))
                except NumericError as e:
                    raise NumericError(f"epoch {epoch}, samples {idx.tolist()}: {e}") from e
                epoch_loss += float(loss.data) * len(idx)
            optimizer.step(cfg.learning_rate)
        train_loss = epoch_loss / n
        val_loss = _split_loss(model, val, TARGET_INDEX)
        if not np.isfinite(train_loss) or not np.isfinite(val_loss):
            raise NumericError(f"non-finite loss at epoch {epoch}: "
                               f"train={train_loss}, val={val_loss}")
        curve.epochs.append((train_loss, val_loss))
        stop = stopper.update(epoch, val_loss)
        if stopper.best_epoch == epoch:
            best_state = model.flat.copy()
        if stop:
            break
    curve.best_epoch = stopper.best_epoch
    model.flat[:] = best_state
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
