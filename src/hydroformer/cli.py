"""Command-line front door: datagen | train | evaluate | predict | explain | bench.

Config files are flat key = value text: one model.<field> or train.<field> key
per ModelConfig or TrainConfig field, plus data.path and seed; unknown keys are
rejected. Every run directory receives resolved_config.txt, which holds every
key and can be passed back to train --config to repeat the run.
"""

import argparse
import datetime
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import data as data_mod
from . import explain as explain_mod
from .errors import ConfigError, DataError, NumericError
from .metrics import DegenerateDenominatorError
from .model import (ModelConfig, TransformerModel, checkpoint_digest,
                    load_checkpoint, save_checkpoint)
from .training import TrainConfig, check_leads, evaluate_split, fit

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig.desk_scale)
    train: TrainConfig = field(default_factory=TrainConfig)
    data_path: str = ""


_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False}


def _parse_bool(text):
    try:
        return _BOOL_VALUES[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"expected a boolean, got {text!r}") from None


def _parse_optional_int(text):
    return None if text.strip().lower() in ("none", "auto") else int(text)


_FIELD_PARSERS = {int: int, float: float, str: str, bool: _parse_bool,
                  int | None: _parse_optional_int}

# One key per ModelConfig and TrainConfig field, except model.n_features, which
# the CSV schema fixes, and train.seed, which the top-level seed key sets.
_KEY_PARSERS = {f"{section}.{f.name}": _FIELD_PARSERS[f.type]
                for section, cls in (("model", ModelConfig), ("train", TrainConfig))
                for f in fields(cls)
                if f"{section}.{f.name}" not in ("model.n_features", "train.seed")}
_KEY_PARSERS.update({"data.path": str, "seed": int})


def parse_config_text(text: str) -> dict:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _KEY_PARSERS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _KEY_PARSERS[key](val.strip())
        except (ValueError, ConfigError) as e:
            raise ConfigError(f"config line {lineno}: bad value for {key}: {e}") from e
    return values


def build_run_config(values: dict, seed_override=None) -> RunConfig:
    kwargs = {"model": {}, "train": {}}
    for key, val in values.items():
        section, _, name = key.partition(".")
        if section in kwargs:
            kwargs[section][name] = val
    seed = values.get("seed", TrainConfig.seed) if seed_override is None else seed_override
    return RunConfig(model=ModelConfig.desk_scale(**kwargs["model"]),
                     train=TrainConfig(seed=seed, **kwargs["train"]),
                     data_path=values.get("data.path", ""))


def load_run_config(path, seed_override=None) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return build_run_config(parse_config_text(text), seed_override)


def resolved_config_text(cfg: RunConfig) -> str:
    """Every config key with its value, sorted; the text parses back to cfg."""
    values = {"data.path": cfg.data_path, "seed": cfg.train.seed}
    values.update((f"model.{k}", v) for k, v in asdict(cfg.model).items())
    values.update((f"train.{k}", v) for k, v in asdict(cfg.train).items())
    return "".join(f"{key} = {values[key]}\n" for key in sorted(_KEY_PARSERS))


def _read_series(path):
    """The data file at path, gaps filled."""
    return data_mod.fill_missing(data_mod.load_table(path))[0]


def _outdir(path) -> Path:
    """The --out directory path, made if missing; ConfigError if it cannot be."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"--out: cannot make directory {path}: {e}") from e
    return path


# ---------------------------------------------------------------------------
# subcommands

def cmd_datagen(args) -> int:
    series = data_mod.synth_generate(seed=args.seed, length=args.length)
    out = Path(args.out)
    _outdir(out.parent)
    try:
        data_mod.write_table(series, out)
    except OSError as e:
        raise ConfigError(f"--out: cannot write {out}: {e}") from e
    print(f"wrote {args.length} rows to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, seed_override=args.seed)
    out = _outdir(args.out)
    (out / "resolved_config.txt").write_text(resolved_config_text(cfg), encoding="utf-8")
    dataset = data_mod.make_windows(_read_series(cfg.data_path), cfg.model.lookback,
                                    cfg.model.horizon)
    model = TransformerModel(cfg.model, seed=cfg.train.seed)
    curve = fit(model, dataset, cfg.train)
    (out / "loss_curve.csv").write_text(curve.to_text(), encoding="utf-8")
    ckpt = out / "checkpoint.bin"
    save_checkpoint(model, dataset.normalizer, ckpt)
    print(f"trained {len(curve.epochs)} epochs (best epoch {curve.best_epoch})")
    print(f"checkpoint {ckpt} sha256 {checkpoint_digest(ckpt)}")
    return EXIT_OK


def _load_for_data(path, action):
    """A checkpoint whose model and normalizer fit the CSV schema."""
    model, normalizer = load_checkpoint(path)
    if normalizer is None:
        raise DataError(f"checkpoint carries no normalizer; cannot {action}")
    if model.config.n_features != len(data_mod.FEATURE_COLUMNS):
        raise DataError(f"checkpoint model takes {model.config.n_features} features, "
                        f"the data files have {len(data_mod.FEATURE_COLUMNS)}; "
                        f"cannot {action}")
    return model, normalizer


def cmd_evaluate(args) -> int:
    model, normalizer = _load_for_data(args.checkpoint, "evaluate")
    dataset = data_mod.make_windows(_read_series(args.data), model.config.lookback,
                                    model.config.horizon, normalizer=normalizer)
    check_leads(args.leads, model.config.horizon)
    out = _outdir(args.out)
    report, series_by_lead = evaluate_split(model, dataset, args.split, args.leads,
                                            r2_mode=args.r2_mode)
    (out / "metrics.txt").write_text(report.to_text(), encoding="utf-8")
    for lead, rows in series_by_lead.items():
        lines = ["date,actual,predicted"]
        lines += [f"{d.isoformat()},{a!r},{p!r}" for d, a, p in rows]
        (out / f"predictions_lead{lead}.csv").write_text("\n".join(lines) + "\n",
                                                         encoding="utf-8")
    print(report.to_text(), end="")
    return EXIT_OK


def cmd_predict(args) -> int:
    model, normalizer = _load_for_data(args.checkpoint, "predict")
    series = _read_series(args.data)
    lookback = model.config.lookback
    if series.values.shape[0] < lookback:
        raise DataError(f"need at least {lookback} rows, got {series.values.shape[0]}")
    window = normalizer.apply(series.values[-lookback:])
    preds = normalizer.invert_target(model.predict(window, model.config.horizon).ravel())
    for step, val in enumerate(preds, start=1):
        print(f"lead {step}: {float(val)!r}")
    return EXIT_OK


def _explain_instances(args, dataset):
    test = dataset.split("test")
    if args.instance is not None:
        matches = [i for i, d in enumerate(test.anchors) if d == args.instance]
        if not matches:
            raise DataError(f"no test-split sample anchored at {args.instance}")
        return matches
    n = len(test.windows)
    if n == 0:
        raise DataError("test split is empty")
    rng = np.random.default_rng(args.seed)
    size = min(args.sample, n)
    return sorted(rng.choice(n, size=size, replace=False).tolist())


def cmd_explain(args) -> int:
    model, normalizer = _load_for_data(args.checkpoint, "explain")
    dataset = data_mod.make_windows(_read_series(args.data), model.config.lookback,
                                    model.config.horizon, normalizer=normalizer)
    test = dataset.split("test")
    indices = _explain_instances(args, dataset)

    vfs = [explain_mod.model_value_function(model, normalizer, test.windows[i], lead=args.lead)
           for i in indices]
    if args.estimator == "exact":
        explain_mod.check_exact_cap(model.config.n_features, args.allow_large_exact)
    out = _outdir(args.out)
    explanations = []
    raw_rows = []
    for i, vf in zip(indices, vfs):
        if args.estimator == "exact":
            e = explain_mod.exact_shapley(vf, allow_large=args.allow_large_exact)
        else:
            e = explain_mod.sampled_shapley(vf, m=args.permutations, seed=args.seed + i)
        explanations.append(e)
        raw_rows.append(normalizer.invert(test.windows[i])[-1])

    if args.instance is not None:
        text = explain_mod.force_report_to_text(explanations[0])
        (out / "force_report.txt").write_text(text, encoding="utf-8")
        print(text, end="")
    else:
        gi = explain_mod.global_importance(explanations)
        (out / "global_importance.txt").write_text(gi.to_text(), encoding="utf-8")
        rows = explain_mod.beeswarm_export(explanations, np.array(raw_rows))
        (out / "beeswarm.txt").write_text(explain_mod.beeswarm_to_text(rows),
                                          encoding="utf-8")
        print(gi.to_text(), end="")
    (out / "estimator.txt").write_text(
        f"estimator = {args.estimator}\npermutations = {args.permutations}\n"
        f"lead = {args.lead}\nseed = {args.seed}\n", encoding="utf-8")
    return EXIT_OK


def cmd_bench(args) -> int:
    rows = bench_mod.bench_attention(args.lengths, args.ks, d_k=args.d_k,
                                     repeats=args.repeats, seed=args.seed)
    text = bench_mod.rows_to_text(rows)
    if args.out:
        out = _outdir(args.out)
        (out / "bench.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# option types: a bad value exits 2 through argparse with a message

def _int_at_least(low):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1)
_seed = _int_at_least(0)


def _positive_ints(text):
    return [_positive_int(x) for x in text.split(",")]


def _bench_ks(text):
    """Comma list of k values: positive integers, L or L/4."""
    return [x.strip() if x.strip() in ("L", "L/4") else _positive_int(x)
            for x in text.split(",")]


def _iso_date(text):
    try:
        return datetime.date.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a date YYYY-MM-DD, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hydroformer",
                                     description="Sparse-attention Transformer "
                                                 "water-level forecasting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datagen", help="generate a synthetic input file")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--length", type=int, default=2000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=_seed, default=None, help="override config seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a data file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--leads", type=_positive_ints, default="1,3,5,7")
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--r2-mode", dest="r2_mode", default="paper",
                   choices=["paper", "standard"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="predict from the last window of a data file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("explain", help="Shapley attribution for predictions")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--instance", type=_iso_date,
                       help="anchor date (YYYY-MM-DD) for a force report")
    group.add_argument("--global", dest="global_mode", action="store_true",
                       help="global importance over a test sample")
    p.add_argument("--sample", type=_positive_int, default=64)
    p.add_argument("--lead", type=_positive_int, default=1)
    p.add_argument("--estimator", default="sampled", choices=["exact", "sampled"])
    p.add_argument("--permutations", type=_int_at_least(2), default=20)
    p.add_argument("--allow-large-exact", dest="allow_large_exact",
                   action="store_true")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("bench", help="time dense vs sparse attention")
    p.add_argument("--lengths", type=_positive_ints, default="64,128,256")
    p.add_argument("--ks", type=_bench_ks, default="8,L/4,L")
    p.add_argument("--d-k", dest="d_k", type=_positive_int, default=64)
    p.add_argument("--repeats", type=_positive_int, default=5)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, DegenerateDenominatorError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
