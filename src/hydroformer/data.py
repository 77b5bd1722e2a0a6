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
            vals = []
            for name, cell in zip(FEATURE_COLUMNS, row[1:]):
                if cell.strip() == "":
                    vals.append(np.nan)
                    continue
                try:
                    val = float(cell)
                except ValueError:
                    val = math.nan
                if not math.isfinite(val):
                    raise DataError(f"{path}:{lineno}: bad value {cell!r} in {name}")
                vals.append(val)
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


def chronological_split(n_rows: int, fractions=(0.70, 0.10, 0.20),
                        min_segment: int = 1):
    """Contiguous train -> validation -> test boundaries. Returns
    (train_end, val_end); test runs to the end of the record."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"split fractions must sum to 1, got {fractions}")
    train_end = int(round(n_rows * fractions[0]))
    val_end = train_end + int(round(n_rows * fractions[1]))
    segments = (train_end, val_end - train_end, n_rows - val_end)
    # zero-fraction segments are allowed to be empty (single-split use)
    if any(s < min_segment for s, f in zip(segments, fractions) if f > 0):
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
    def from_dict(cls, d):
        return cls(mean=np.array(d["mean"], dtype=np.float64),
                   std=np.array(d["std"], dtype=np.float64))


@dataclass
class SplitSamples:
    windows: np.ndarray      # n x lookback x 19, normalized
    targets: np.ndarray      # n x horizon, normalized target channel
    anchors: list            # anchor dates (last window row)


@dataclass
class WindowedDataset:
    lookback: int
    horizon: int
    normalizer: Normalizer
    splits: dict = field(default_factory=dict)   # name -> SplitSamples

    def split(self, name: str) -> SplitSamples:
        return self.splits[name]


def make_windows(series: RawSeries, lookback: int, horizon: int,
                 fractions=(0.70, 0.10, 0.20), normalizer=None) -> WindowedDataset:
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
    train_end, val_end = chronological_split(n_rows, fractions,
                                             min_segment=lookback + horizon)
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
    return WindowedDataset(lookback=lookback, horizon=horizon,
                           normalizer=normalizer, splits=splits)


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

    # exponential rainfall memory feeding the lake
    total_rain = gates.sum(axis=1)
    mem = np.zeros(length)
    for i in range(1, length):
        mem[i] = 0.93 * mem[i - 1] + 0.07 * total_rain[i]

    ar = np.zeros(length)
    eps = rng.normal(0, 0.012, length)
    for i in range(1, length):
        ar[i] = 0.85 * ar[i - 1] + eps[i]

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
    """Write the canonical delimited format (inverse of load_table)."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["date"] + list(FEATURE_COLUMNS))
        for d, row in zip(series.dates, series.values):
            cells = ["" if np.isnan(v) else repr(float(v)) for v in row]
            writer.writerow([d.isoformat()] + cells)
