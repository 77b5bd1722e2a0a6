import datetime
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydroformer import data as D
from hydroformer.errors import ConfigError, DataError

from _oracles import ref_cell_values, ref_write_table


def _write_csv(path, rows, header=None):
    header = header or ["date"] + list(D.FEATURE_COLUMNS)
    lines = [",".join(header)]
    lines += [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _row(date, fill=1.0):
    return [date] + [fill + i * 0.1 for i in range(19)]


def _normalizer_entry(key, i, value):
    """A usable normalizer's dict, as to_dict writes it, with one cell set."""
    entry = {"mean": [0.0] * 19, "std": [1.0] * 19}
    entry[key][i] = value
    return entry


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


    def test_mixed_row_loads_as_the_per_cell_loop(self, tmp_path):
        """Empty and whitespace-only cells are missing; float() reads
        " 2.5 " and "1_000"; a row whose finite values overflow a sum loads
        as it is."""
        cells = ["", "   ", " 2.5 ", "1_000", "-0.0", "5e-324"] + ["1.5"] * 13
        big = ["1e308"] * 19
        p = tmp_path / "mixed.csv"
        _write_csv(p, [["2000-01-01"] + cells, ["2000-01-02"] + big])
        values = D.load_table(p).values
        for got, row in zip(values, (cells, big)):
            want, bad = ref_cell_values(row)
            assert bad is None
            assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("cell", ["abc", "nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("column", [1, 7, 18])
    @pytest.mark.parametrize("empty_before", [False, True])
    def test_bad_cell_after_a_valid_one_names_line_and_column(self, tmp_path, cell, column,
                                                               empty_before):
        row = _row("2000-01-02")
        row[1 + column] = cell
        if empty_before:
            row[column] = ""
        p = tmp_path / "bad.csv"
        _write_csv(p, [_row("2000-01-01"), row, _row("2000-01-03")])
        _, (bad_cell, name) = ref_cell_values([str(c) for c in row[1:]])
        with pytest.raises(DataError) as e:
            D.load_table(p)
        assert str(e.value) == f"{p}:3: bad value {bad_cell!r} in {name}"


# values the writer must spell as repr does and the reader must parse back
# bit for bit: signed zero, subnormals, repr's switch to exponent notation
# (1e16, 1e-5) and the ends of the exponent range
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e16, 1e-5,
                1e300, -1e300, 1e-300, -1e-300, math.nan]
_CELLS = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(allow_infinity=False))
_ROWS = st.one_of(st.lists(_CELLS, min_size=19, max_size=19),
                  st.just([math.nan] * 19))


class TestWriteTable:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(_ROWS, min_size=1, max_size=6),
           start=st.dates(min_value=datetime.date(1900, 1, 1),
                          max_value=datetime.date(2100, 1, 1)))
    def test_bytes_of_the_per_cell_writer_and_read_back_bit_for_bit(self, tmp_path_factory,
                                                                     rows, start):
        root = tmp_path_factory.mktemp("table")
        series = D.RawSeries(dates=[start + datetime.timedelta(days=i)
                                    for i in range(len(rows))],
                             values=np.array(rows, dtype=np.float64))
        D.write_table(series, root / "new.csv")
        ref_write_table(series, root / "ref.csv")
        assert (root / "new.csv").read_bytes() == (root / "ref.csv").read_bytes()
        back = D.load_table(root / "new.csv")
        assert back.dates == series.dates
        gaps = np.isnan(series.values)
        assert np.array_equal(np.isnan(back.values), gaps)
        assert back.values[~gaps].tobytes() == series.values[~gaps].tobytes()


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

    def test_dict_round_trip_is_bit_for_bit(self):
        """Through JSON, as a checkpoint header carries it."""
        rng = np.random.default_rng(3)
        norm = D.Normalizer(mean=rng.standard_normal(19) * 1e3,
                            std=rng.uniform(1e-9, 1e9, 19))
        back = D.Normalizer.from_dict(json.loads(json.dumps(norm.to_dict())))
        assert back.mean.tobytes() == norm.mean.tobytes()
        assert back.std.tobytes() == norm.std.tobytes()

    @pytest.mark.parametrize("entry, message", [
        (None, "carries no normalizer"),
        ({"mean": [0.0] * 19}, "not a mapping with mean and std"),
        ({"mean": [0.0] * 18, "std": [1.0] * 18}, "mean is not a list of 19 floats"),
        (_normalizer_entry("mean", 2, math.nan), r"feature\(s\) \[2\]"),
        (_normalizer_entry("std", 3, math.inf), r"feature\(s\) \[3\]"),
        (_normalizer_entry("std", 4, 0.0), r"feature\(s\) \[4\]"),
        (_normalizer_entry("std", 5, -1.0), r"feature\(s\) \[5\]"),
    ], ids=["none", "missing_key", "18_entries", "nan_mean", "inf_std", "zero_std",
            "negative_std"])
    def test_from_dict_refuses_an_unusable_normalizer(self, entry, message):
        with pytest.raises(DataError, match=message):
            D.Normalizer.from_dict(entry)


class TestMakeWindows:
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

    @settings(max_examples=60, deadline=None)
    @given(lookback=st.integers(1, 12), horizon=st.integers(1, 8),
           extra=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
    def test_windows_equal_their_source_rows_for_random_shapes(self, lookback, horizon,
                                                               extra, seed):
        """Random shapes; the shortest length gives the validation segment,
        10% of the rows, one row more than a window and its targets."""
        length = 10 * (lookback + horizon + 1) + extra
        rng = np.random.default_rng(seed)
        series = D.RawSeries(
            dates=[D.SYNTH_START_DATE + datetime.timedelta(days=i) for i in range(length)],
            values=rng.standard_normal((length, len(D.FEATURE_COLUMNS))))
        ds = D.make_windows(series, lookback, horizon)
        self._assert_windows_match_source_rows(series, ds, lookback, horizon)
        for name in ("train", "val", "test"):
            s = ds.split(name)
            assert s.windows.shape[1:] == (lookback, len(D.FEATURE_COLUMNS))
            assert s.targets.shape[1:] == (horizon,)

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
