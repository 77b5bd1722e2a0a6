"""Tabular series ingestion, gap filling, chronological splitting, windowing,
normalization, and the synthetic stand-in generator used for verification."""

import csv
import datetime
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

METEO_COLUMNS = ("tm", "pre", "tmax", "tmin", "ssd", "win", "rhu")
HYDRO_COLUMNS = ("ch_wl", "ch_pre", "qk_pre", "zm_pre", "ty_pre", "xg_pre", "zh_pre",
                 "zq_pre", "lj_pre", "jn_pre", "nh_pre", "tc_pre")
FEATURE_COLUMNS = METEO_COLUMNS + HYDRO_COLUMNS
TARGET_COLUMN = "ch_wl"
TARGET_INDEX = FEATURE_COLUMNS.index(TARGET_COLUMN)
GATE_RAIN_COLUMNS = tuple(c for c in HYDRO_COLUMNS if c.endswith("_pre"))

SYNTH_MIN_LENGTH = 400
SYNTH_START_DATE = datetime.date(2000, 1, 1)


@dataclass
class RawSeries:
    dates: list                 # datetime.date, strictly increasing, daily
    values: np.ndarray          # T x 19, NaN marks missing

    def __post_init__(self):
        if len(self.dates) != self.values.shape[0]:
            raise DataError("dates / value rows length mismatch")


def _csv_rows(path, f):
    """The csv rows of an open text file; bytes that are not UTF-8 and fields
    csv cannot read raise DataError."""
    reader = csv.reader(f)
    try:
        yield from reader
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text: {e}") from e
    except csv.Error as e:
        raise DataError(f"{path}:{reader.line_num}: {e}") from e


def _cell_values(path, lineno, cells) -> list:
    """One row's cells parsed one by one: an empty or whitespace-only cell
    is NaN, any other cell must be a finite number."""
    vals = []
    for name, cell in zip(FEATURE_COLUMNS, cells):
        if cell.strip() == "":
            vals.append(math.nan)
            continue
        try:
            val = float(cell)
        except ValueError:
            val = math.nan
        if not math.isfinite(val):
            raise DataError(f"{path}:{lineno}: bad value {cell!r} in {name}")
        vals.append(val)
    return vals


def load_table(path) -> RawSeries:
    """Parse the delimited input format: header `date,<19 feature names>`,
    daily ISO dates, empty field = missing, every other field a finite number."""
    expected = ["date"] + list(FEATURE_COLUMNS)
    try:
        f = open(path, newline="", encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot open {path}: {e}") from e
    with f:
        reader = _csv_rows(path, f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if header != expected:
            missing = [c for c in expected if c not in header]
            unknown = [c for c in header if c not in expected]
            raise DataError(f"{path}: bad header; missing columns {missing}, "
                            f"unknown columns {unknown}")
        dates, rows = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected):
                raise DataError(f"{path}:{lineno}: expected {len(expected)} fields, got {len(row)}")
            try:
                d = datetime.date.fromisoformat(row[0])
            except ValueError as e:
                raise DataError(f"{path}:{lineno}: unparsable date {row[0]!r}") from e
            # one float() per cell; a finite sum rules out nan and inf cells,
            # so only a row with an empty cell, a bad cell or a sum that
            # overflows goes cell by cell
            try:
                vals = list(map(float, row[1:]))
            except ValueError:
                vals = None
            if vals is None or not math.isfinite(sum(vals)):
                vals = _cell_values(path, lineno, row[1:])
            if dates and d != dates[-1] + datetime.timedelta(days=1):
                raise DataError(f"{path}:{lineno}: date {d} is not the day after {dates[-1]}; "
                                f"write a missing day as a row of empty fields")
            dates.append(d)
            rows.append(vals)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return RawSeries(dates=dates, values=np.array(rows, dtype=np.float64))


def fill_missing(series: RawSeries):
    """Linear interpolation in time for interior gaps, nearest-value hold at
    the edges. Returns (filled series, per-column fill counts). Idempotent."""
    values = series.values.copy()
    counts = {}
    t = np.arange(values.shape[0], dtype=np.float64)
    for j, name in enumerate(FEATURE_COLUMNS):
        col = values[:, j]
        missing = np.isnan(col)
        counts[name] = int(missing.sum())
        if not missing.any():
            continue
        obs = ~missing
        if obs.sum() < 2:
            raise DataError(f"column {name}: fewer than 2 observed values")
        col[missing] = np.interp(t[missing], t[obs], col[obs])
    return RawSeries(dates=series.dates, values=values), counts


def chronological_split(n_rows: int, min_segment: int = 1):
    """Contiguous 70/10/20 train -> validation -> test boundaries. Returns
    (train_end, val_end); test runs to the end of the record."""
    train_end = int(round(n_rows * 0.70))
    val_end = train_end + int(round(n_rows * 0.10))
    segments = (train_end, val_end - train_end, n_rows - val_end)
    if min(segments) < min_segment:
        raise DataError(f"split segments {segments} too short for minimum {min_segment}")
    return train_end, val_end


@dataclass
class Normalizer:
    """Per-feature z-score using population standard deviation, fitted on the
    training split only."""
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, train_rows: np.ndarray) -> "Normalizer":
        mean = train_rows.mean(axis=0)
        std = train_rows.std(axis=0)  # population (divide by N)
        zero = np.flatnonzero(std == 0.0)
        if zero.size:
            names = [FEATURE_COLUMNS[i] for i in zero]
            raise DataError(f"constant feature(s) cannot be normalized: {names}")
        return cls(mean=mean, std=std)

    def apply(self, matrix: np.ndarray) -> np.ndarray:
        return (matrix - self.mean) / self.std

    def invert(self, matrix: np.ndarray) -> np.ndarray:
        return matrix * self.std + self.mean

    def invert_target(self, values: np.ndarray) -> np.ndarray:
        return values * self.std[TARGET_INDEX] + self.mean[TARGET_INDEX]

    def to_dict(self):
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d) -> "Normalizer":
        """The normalizer that to_dict wrote, bit for bit. DataError unless d
        is a mapping whose `mean` and `std` are lists of one float per
        feature, every mean finite and every std finite and > 0. Each
        message names the failed check and reads after the name of what
        carried the entry ("checkpoint ...")."""
        if d is None:
            raise DataError("carries no normalizer (the entry is null)")
        if not isinstance(d, dict) or not {"mean", "std"} <= d.keys():
            raise DataError("normalizer is not a mapping with mean and std")
        n = len(FEATURE_COLUMNS)
        for key in ("mean", "std"):
            if not (isinstance(d[key], list) and len(d[key]) == n
                    and all(type(v) is float for v in d[key])):
                raise DataError(f"normalizer {key} is not a list of {n} floats, one per feature")
        norm = cls(mean=np.array(d["mean"]), std=np.array(d["std"]))
        bad = np.flatnonzero(~(np.isfinite(norm.mean) & np.isfinite(norm.std) & (norm.std > 0)))
        if bad.size:
            raise DataError(f"normalizer: feature(s) {bad.tolist()} need a finite mean "
                            f"and a finite std > 0")
        return norm


@dataclass
class SplitSamples:
    windows: np.ndarray      # n x lookback x 19, normalized
    targets: np.ndarray      # n x horizon, normalized target channel
    anchors: list            # anchor dates (last window row)


@dataclass
class WindowedDataset:
    normalizer: Normalizer
    splits: dict = field(default_factory=dict)   # name -> SplitSamples

    def split(self, name: str) -> SplitSamples:
        return self.splits[name]


def make_windows(series: RawSeries, lookback: int, horizon: int,
                 normalizer=None) -> WindowedDataset:
    """Windowed supervised samples with a leakage guard: a sample belongs to
    a split only if every row it touches (window and future targets) lies
    inside that split's row range. Rows are normalized by `normalizer`, such
    as a checkpoint's, applied as it is; when it is None, one is fitted on the
    train split, which then must not hold a constant column."""
    if lookback < 1 or horizon < 1:
        raise ConfigError("lookback and horizon must be >= 1")
    if np.isnan(series.values).any():
        raise DataError("make_windows requires gap-free data; run fill_missing first")
    n_rows = series.values.shape[0]
    train_end, val_end = chronological_split(n_rows, min_segment=lookback + horizon)
    if normalizer is None:
        normalizer = Normalizer.fit(series.values[:train_end])
    normed = normalizer.apply(series.values)
    ranges = {"train": (0, train_end), "val": (train_end, val_end),
              "test": (val_end, n_rows)}
    window_offsets = np.arange(1 - lookback, 1)
    target_offsets = np.arange(1, horizon + 1)
    splits = {}
    for name, (lo, hi) in ranges.items():
        # anchor t: window rows [t-lookback+1 .. t], targets rows [t+1 .. t+horizon]
        t = np.arange(lo + lookback - 1, hi - horizon)[:, None]
        splits[name] = SplitSamples(windows=normed[t + window_offsets],
                                    targets=normed[t + target_offsets, TARGET_INDEX],
                                    anchors=[series.dates[i] for i in t.ravel().tolist()])
    return WindowedDataset(normalizer=normalizer, splits=splits)


def synth_generate(seed: int, length: int, rain_scale: float = 1.0) -> RawSeries:
    """Deterministic synthetic stand-in series.

    The water level integrates seasonally modulated gate rainfall through an
    exponentially decaying memory, couples negatively to temperature, and
    carries AR(1) noise, so rainfall and temperature genuinely influence the
    target. rain_scale exists for sensitivity tests (0 silences all rain).
    """
    if length < SYNTH_MIN_LENGTH:
        raise ConfigError(f"synthetic length must be >= {SYNTH_MIN_LENGTH}, got {length}")
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)
    season = 2.0 * np.pi * t / 365.25

    tm = 16.0 + 10.0 * np.sin(season - 0.6) + rng.normal(0, 1.5, length)
    spread = np.abs(rng.normal(4.0, 1.0, length))
    tmax = tm + spread
    tmin = tm - spread
    rhu = np.clip(70.0 + 10.0 * np.sin(season + 0.8) + rng.normal(0, 6, length), 20, 100)
    ssd = np.clip(6.0 + 3.0 * np.sin(season - 0.6) + rng.normal(0, 1.5, length), 0, 14)
    win = np.abs(2.5 + rng.normal(0, 0.8, length))

    # shared regional storm factor makes gate rainfalls cross-correlated
    wet_season = 1.0 + 0.8 * np.sin(season + 0.3)
    storm = rng.gamma(0.35, 6.0, length) * (rng.random(length) < 0.45)
    gates = []
    for _ in range(len(GATE_RAIN_COLUMNS)):
        local = rng.gamma(0.3, 3.0, length) * (rng.random(length) < 0.35)
        gates.append(rain_scale * wet_season * (0.7 * storm + local))
    gates = np.stack(gates, axis=1)
    pre = gates.mean(axis=1) + rain_scale * rng.gamma(0.3, 1.5, length)

    # exponential rainfall memory feeding the lake, then AR(1) noise; both
    # recursions run on Python floats, which round as float64 does
    rain = gates.sum(axis=1).tolist()
    mem = [0.0] * length
    for i in range(1, length):
        mem[i] = 0.93 * mem[i - 1] + 0.07 * rain[i]
    mem = np.array(mem)

    eps = rng.normal(0, 0.012, length).tolist()
    ar = [0.0] * length
    for i in range(1, length):
        ar[i] = 0.85 * ar[i - 1] + eps[i]
    ar = np.array(ar)

    wl = 8.0 + 0.45 * np.sin(season + 0.1) + 0.035 * mem - 0.012 * (tm - 16.0) + ar

    values = np.empty((length, len(FEATURE_COLUMNS)))
    values[:, FEATURE_COLUMNS.index("tm")] = tm
    values[:, FEATURE_COLUMNS.index("pre")] = pre
    values[:, FEATURE_COLUMNS.index("tmax")] = tmax
    values[:, FEATURE_COLUMNS.index("tmin")] = tmin
    values[:, FEATURE_COLUMNS.index("ssd")] = ssd
    values[:, FEATURE_COLUMNS.index("win")] = win
    values[:, FEATURE_COLUMNS.index("rhu")] = rhu
    values[:, TARGET_INDEX] = wl
    for j, name in enumerate(GATE_RAIN_COLUMNS):
        values[:, FEATURE_COLUMNS.index(name)] = gates[:, j]

    dates = [SYNTH_START_DATE + datetime.timedelta(days=int(i)) for i in range(length)]
    return RawSeries(dates=dates, values=values)


def write_table(series: RawSeries, path) -> None:
    """Write the canonical delimited format (inverse of load_table): a float
    as its repr, NaN as an empty cell, CRLF line ends. No field ever needs
    quoting, so the bytes are csv.writer's; the text is written in one call."""
    lines = [",".join(("date",) + FEATURE_COLUMNS)]
    values = np.asarray(series.values, dtype=np.float64).tolist()
    for d, row in zip(series.dates, values):
        lines.append(d.isoformat() + "," + ",".join(["" if v != v else repr(v) for v in row]))
    lines.append("")
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("\r\n".join(lines))
