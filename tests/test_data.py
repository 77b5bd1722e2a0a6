import datetime

import numpy as np
import pytest

from hydroformer import data as D
from hydroformer.errors import ConfigError, DataError


def _write_csv(path, rows, header=None):
    header = header or ["date"] + list(D.FEATURE_COLUMNS)
    lines = [",".join(header)]
    lines += [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _row(date, fill=1.0):
    return [date] + [fill + i * 0.1 for i in range(19)]


class TestLoadTable:
    def test_well_formed(self, tmp_path):
        p = tmp_path / "ok.csv"
        _write_csv(p, [_row("2000-01-01"), _row("2000-01-02"), _row("2000-01-03")])
        s = D.load_table(p)
        assert s.values.shape == (3, 19)
        assert s.dates[0] == datetime.date(2000, 1, 1)

    def test_missing_column_named(self, tmp_path):
        p = tmp_path / "bad.csv"
        header = ["date"] + [c for c in D.FEATURE_COLUMNS if c != "rhu"]
        _write_csv(p, [], header=header)
        with pytest.raises(DataError, match="rhu"):
            D.load_table(p)

    def test_duplicate_date_cites_row(self, tmp_path):
        p = tmp_path / "dup.csv"
        _write_csv(p, [_row("2000-01-01"), _row("2000-01-01")])
        with pytest.raises(DataError, match=":3"):
            D.load_table(p)

    def test_skipped_day_cites_row_and_says_how_to_write_it(self, tmp_path):
        p = tmp_path / "gap.csv"
        _write_csv(p, [_row("2000-01-01"), _row("2000-01-02"), _row("2000-01-04")])
        with pytest.raises(DataError, match=r":4: date 2000-01-04 is not the day after "
                                            r"2000-01-02; .*row of empty fields"):
            D.load_table(p)

    def test_unparsable_date(self, tmp_path):
        p = tmp_path / "date.csv"
        _write_csv(p, [_row("01/02/2000")])
        with pytest.raises(DataError, match="unparsable date"):
            D.load_table(p)

    def test_empty_cell_becomes_missing(self, tmp_path):
        p = tmp_path / "gap.csv"
        row = _row("2000-01-01")
        row[2] = ""
        _write_csv(p, [row, _row("2000-01-02")])
        s = D.load_table(p)
        assert np.isnan(s.values[0, 1])

    def test_roundtrip_with_write_table(self, tmp_path):
        series = D.synth_generate(seed=3, length=400)
        p = tmp_path / "rt.csv"
        D.write_table(series, p)
        back = D.load_table(p)
        assert np.array_equal(back.values, series.values)
        assert back.dates == series.dates


class TestFillMissing:
    def _series(self, col_values):
        n = len(col_values)
        values = np.ones((n, 19))
        values[:, 0] = col_values
        dates = [datetime.date(2000, 1, 1) + datetime.timedelta(days=i) for i in range(n)]
        return D.RawSeries(dates=dates, values=values)

    def test_linear_midpoint(self):
        filled, counts = D.fill_missing(self._series([1.0, np.nan, 3.0]))
        assert filled.values[1, 0] == 2.0
        assert counts["tm"] == 1

    def test_no_gaps_identity(self):
        s = self._series([1.0, 2.0, 3.0])
        filled, counts = D.fill_missing(s)
        assert np.array_equal(filled.values, s.values)
        assert sum(counts.values()) == 0

    def test_leading_hold(self):
        filled, _ = D.fill_missing(self._series([np.nan, 5.0, 5.0]))
        assert filled.values[0, 0] == 5.0

    def test_idempotent(self):
        filled, _ = D.fill_missing(self._series([np.nan, 1.0, np.nan, 4.0, np.nan]))
        again, counts = D.fill_missing(filled)
        assert np.array_equal(filled.values, again.values)
        assert sum(counts.values()) == 0

    def test_all_missing_column_rejected(self):
        with pytest.raises(DataError, match="fewer than 2"):
            D.fill_missing(self._series([np.nan, np.nan, np.nan]))


class TestSplit:
    def test_boundaries(self):
        assert D.chronological_split(100) == (70, 80)

    def test_bad_fractions(self):
        with pytest.raises(ConfigError):
            D.chronological_split(100, (0.5, 0.2, 0.2))

    def test_too_short(self):
        with pytest.raises(DataError):
            D.chronological_split(10, min_segment=31)


class TestNormalizer:
    def test_constant_feature_named(self):
        rows = np.random.default_rng(0).standard_normal((10, 19))
        rows[:, D.FEATURE_COLUMNS.index("win")] = 2.5
        with pytest.raises(DataError, match="win"):
            D.Normalizer.fit(rows)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((50, 19)) * 3 + 1
        norm = D.Normalizer.fit(rows)
        other = rng.standard_normal((10, 19))
        assert np.allclose(norm.invert(norm.apply(other)), other, atol=1e-12)

    def test_population_std(self):
        rows = np.tile(np.array([[1.0], [2.0], [3.0]]), (1, 19))
        norm = D.Normalizer.fit(rows)
        assert norm.mean[0] == 2.0
        assert norm.std[0] == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-15)

    def test_refit_on_more_rows_changes_stats(self):
        series = D.synth_generate(seed=5, length=500)
        n1 = D.Normalizer.fit(series.values[:350])
        n2 = D.Normalizer.fit(series.values[:400])
        assert not np.allclose(n1.mean, n2.mean)

    def test_dict_round_trip(self):
        rows = np.random.default_rng(2).standard_normal((20, 19))
        norm = D.Normalizer.fit(rows)
        back = D.Normalizer.from_dict(norm.to_dict())
        assert np.array_equal(back.mean, norm.mean)
        assert np.array_equal(back.std, norm.std)


class TestMakeWindows:
    def test_single_split_count(self):
        series = D.synth_generate(seed=6, length=400)
        series5 = D.RawSeries(dates=series.dates[:5], values=series.values[:5])
        ds = D.make_windows(series5, lookback=2, horizon=1, fractions=(1.0, 0.0, 0.0))
        assert len(ds.split("train").windows) == 3
        assert len(ds.split("val").windows) == 0

    def test_window_count_formula(self):
        series = D.synth_generate(seed=7, length=500)
        ds = D.make_windows(series, lookback=10, horizon=3)
        # a segment of n rows holds n - lookback - horizon + 1 windows
        assert len(ds.split("train").windows) == 350 - 10 - 3 + 1
        assert len(ds.split("val").windows) == 50 - 10 - 3 + 1
        assert len(ds.split("test").windows) == 100 - 10 - 3 + 1

    def test_no_leakage_across_boundaries(self):
        series = D.synth_generate(seed=8, length=500)
        lookback, horizon = 10, 3
        ds = D.make_windows(series, lookback, horizon)
        train_end, val_end = D.chronological_split(500)
        # every val sample touches only rows in [train_end, val_end)
        for anchor in ds.split("val").anchors:
            idx = series.dates.index(anchor)
            assert idx - lookback + 1 >= train_end
            assert idx + horizon <= val_end - 1 + 1
        for anchor in ds.split("test").anchors:
            idx = series.dates.index(anchor)
            assert idx - lookback + 1 >= val_end

    @staticmethod
    def _assert_windows_match_source_rows(series, ds, lookback, horizon):
        for name in ("train", "val", "test"):
            s = ds.split(name)
            assert len(s.windows) == len(s.targets) == len(s.anchors) > 0
            for window, target, anchor in zip(s.windows, s.targets, s.anchors):
                idx = series.dates.index(anchor)
                rows = ds.normalizer.apply(series.values[idx - lookback + 1: idx + horizon + 1])
                assert np.array_equal(window, rows[:lookback])
                assert np.array_equal(target, rows[lookback:, D.TARGET_INDEX])

    def test_windows_match_source_rows(self):
        series = D.synth_generate(seed=9, length=450)
        ds = D.make_windows(series, lookback=4, horizon=2)
        self._assert_windows_match_source_rows(series, ds, 4, 2)

        # a given normalizer is applied as it is, even where Normalizer.fit
        # refuses the series: win is constant over the train segment
        win = D.FEATURE_COLUMNS.index("win")
        train_end, _ = D.chronological_split(450)
        series.values[:train_end, win] = 2.5
        with pytest.raises(DataError, match="constant"):
            D.make_windows(series, lookback=4, horizon=2)
        given = D.Normalizer(mean=ds.normalizer.mean + 0.5, std=ds.normalizer.std * 3.0)
        ds = D.make_windows(series, lookback=4, horizon=2, normalizer=given)
        assert ds.normalizer is given
        self._assert_windows_match_source_rows(series, ds, 4, 2)

    def test_nan_rejected(self):
        series = D.synth_generate(seed=10, length=400)
        series.values[5, 2] = np.nan
        with pytest.raises(DataError, match="gap-free"):
            D.make_windows(series, 5, 1)

    def test_bad_args(self):
        series = D.synth_generate(seed=11, length=400)
        with pytest.raises(ConfigError):
            D.make_windows(series, 0, 1)


class TestSynthGenerate:
    def test_deterministic(self):
        a = D.synth_generate(seed=1, length=420)
        b = D.synth_generate(seed=1, length=420)
        assert np.array_equal(a.values, b.values)
        assert a.dates == b.dates

    def test_different_seeds_differ(self):
        a = D.synth_generate(seed=1, length=420)
        b = D.synth_generate(seed=2, length=420)
        assert not np.array_equal(a.values, b.values)

    def test_zeroed_rainfall_reduces_target_variance(self):
        wet = D.synth_generate(seed=12, length=1200)
        dry = D.synth_generate(seed=12, length=1200, rain_scale=0.0)
        var_wet = wet.values[:, D.TARGET_INDEX].var()
        var_dry = dry.values[:, D.TARGET_INDEX].var()
        assert var_dry < var_wet

    def test_schema_contract(self):
        s = D.synth_generate(seed=13, length=400)
        assert s.values.shape[1] == 19
        deltas = {(b - a).days for a, b in zip(s.dates, s.dates[1:])}
        assert deltas == {1}
        assert not np.isnan(s.values).any()

    def test_minimum_length_guard(self):
        with pytest.raises(ConfigError):
            D.synth_generate(seed=0, length=100)
