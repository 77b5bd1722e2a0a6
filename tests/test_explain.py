import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydroformer import explain as X
from hydroformer.data import FEATURE_COLUMNS, HYDRO_COLUMNS, METEO_COLUMNS
from hydroformer.errors import ConfigError

from _oracles import ref_exact_shapley, ref_sampled_shapley


def linear_vf(w, x, mu, bias=0.0):
    """Value function for f(x) = w.x + bias with baseline mu."""
    w = np.asarray(w, dtype=np.float64)
    return X.ValueFunction(predict=lambda row: float(row.ravel() @ w + bias),
                           instance=np.asarray(x)[None, :],
                           baseline=np.asarray(mu, dtype=np.float64))


class TestExact:
    def test_linear_model_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            w = rng.standard_normal(n)
            x = rng.standard_normal(n)
            mu = rng.standard_normal(n)
            e = X.exact_shapley(linear_vf(w, x, mu, bias=1.5))
            assert np.allclose(e.phis, w * (x - mu), atol=1e-10)
            assert e.phi0 == pytest.approx(float(w @ mu) + 1.5, abs=1e-12)

    def test_local_accuracy(self):
        rng = np.random.default_rng(1)
        n = 6
        x = rng.standard_normal(n)
        mu = np.zeros(n)
        # a deliberately non-additive model
        vf = X.ValueFunction(
            predict=lambda row: float(np.prod(row.ravel()[:3]) + np.sum(row.ravel()[3:]) ** 2),
            instance=x[None, :], baseline=mu)
        e = X.exact_shapley(vf)
        assert e.phi0 + e.phis.sum() == pytest.approx(e.fx, abs=1e-10)

    def test_null_player_gets_zero(self):
        # feature 2 never enters the model
        vf = X.ValueFunction(predict=lambda row: float(row[0, 0] * row[0, 1]),
                             instance=np.array([[2.0, 3.0, 7.0]]),
                             baseline=np.zeros(3))
        e = X.exact_shapley(vf)
        assert e.phis[2] == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        # features 0 and 1 are interchangeable with equal values
        vf = X.ValueFunction(predict=lambda row: float(row[0, 0] + row[0, 1]
                                                       + row[0, 0] * row[0, 1]),
                             instance=np.array([[1.3, 1.3, 0.4]]),
                             baseline=np.zeros(3))
        e = X.exact_shapley(vf)
        assert e.phis[0] == pytest.approx(e.phis[1], abs=1e-12)

    def test_linearity_of_games(self):
        rng = np.random.default_rng(2)
        n = 4
        x, mu = rng.standard_normal(n), rng.standard_normal(n)
        f = lambda row: float(np.sum(row.ravel() ** 2))
        g = lambda row: float(np.prod(row.ravel()))
        mk = lambda fn: X.ValueFunction(predict=fn, instance=x[None, :], baseline=mu)
        ef = X.exact_shapley(mk(f))
        eg = X.exact_shapley(mk(g))
        eh = X.exact_shapley(mk(lambda row: f(row) + 2.0 * g(row)))
        assert np.allclose(eh.phis, ef.phis + 2.0 * eg.phis, atol=1e-10)

    def test_cap_guard_and_override(self):
        n = 13
        vf = X.ValueFunction(predict=lambda row: float(row.sum()),
                             instance=np.ones((1, n)), baseline=np.zeros(n))
        with pytest.raises(ConfigError, match="cap"):
            X.exact_shapley(vf)
        e = X.exact_shapley(vf, allow_large=True)
        assert np.allclose(e.phis, 1.0, atol=1e-10)


class TestSampled:
    def test_seeded_determinism(self):
        rng = np.random.default_rng(3)
        n = 8
        x, mu, w = rng.standard_normal(n), np.zeros(n), rng.standard_normal(n)
        vf = linear_vf(w, x, mu)
        a = X.sampled_shapley(vf, m=50, seed=7)
        b = X.sampled_shapley(vf, m=50, seed=7)
        assert np.array_equal(a.phis, b.phis)
        assert np.array_equal(a.std_errors, b.std_errors)

    def test_local_accuracy_exact_even_when_sampled(self):
        rng = np.random.default_rng(4)
        n = 8
        x = rng.standard_normal(n)
        vf = X.ValueFunction(predict=lambda row: float(np.sum(row.ravel() ** 3)
                                                       + row[0, 0] * row[0, 5]),
                             instance=x[None, :], baseline=np.zeros(n))
        e = X.sampled_shapley(vf, m=25, seed=0)
        assert e.phi0 + e.phis.sum() == pytest.approx(e.fx, abs=1e-10)

    def test_within_three_se_of_exact(self):
        rng = np.random.default_rng(5)
        n = 8
        x = rng.standard_normal(n)
        vf = X.ValueFunction(
            predict=lambda row: float(np.tanh(row.ravel()).sum()
                                      + 0.5 * row[0, 1] * row[0, 2]),
            instance=x[None, :], baseline=np.zeros(n))
        truth = X.exact_shapley(vf).phis
        e = X.sampled_shapley(vf, m=2000, seed=1)
        inside = np.abs(e.phis - truth) <= 3.0 * np.maximum(e.std_errors, 1e-12)
        assert inside.mean() >= 0.95

    def test_more_permutations_reduce_error(self):
        rng = np.random.default_rng(6)
        n = 8
        x = rng.standard_normal(n)
        # pairwise interactions make the permutation marginals genuinely noisy
        vf = X.ValueFunction(
            predict=lambda row: float(np.exp(0.2 * row.ravel()).prod()),
            instance=x[None, :], baseline=np.zeros(n))
        truth = X.exact_shapley(vf).phis
        errs = {m: np.median([np.max(np.abs(X.sampled_shapley(vf, m=m, seed=s).phis - truth))
                              for s in range(5)])
                for m in (500, 8000)}
        assert errs[8000] < errs[500]

    def test_m_guard(self):
        vf = linear_vf([1.0], [1.0], [0.0])
        with pytest.raises(ConfigError):
            X.sampled_shapley(vf, m=1)

    def test_linear_model_sampled_is_exact(self):
        # for additive models every permutation yields the same marginals
        rng = np.random.default_rng(7)
        n = 6
        w, x, mu = rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(n)
        e = X.sampled_shapley(linear_vf(w, x, mu), m=5, seed=2)
        assert np.allclose(e.phis, w * (x - mu), atol=1e-10)
        assert np.max(e.std_errors) < 1e-12


def test_feature_count_limit():
    limit = X.MAX_FEATURES
    X.ValueFunction(predict=lambda row: 0.0, instance=np.ones((1, limit)),
                    baseline=np.zeros(limit))
    with pytest.raises(ValueError, match=f"limit of {limit}"):
        X.ValueFunction(predict=lambda row: 0.0, instance=np.ones((1, limit + 1)),
                        baseline=np.zeros(limit + 1))


def recording_vf(n, lookback, seed):
    """A non-additive value function that logs every input it is given."""
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal((lookback, n))
    seen = []

    def predict(hybrid):
        seen.append(hybrid.copy())
        z = np.sum(coef * hybrid)
        return float(np.tanh(z) + hybrid[0, 0] * hybrid[-1, -1] + 0.1 * z ** 2)

    vf = X.ValueFunction(predict=predict, instance=rng.standard_normal((lookback, n)),
                         baseline=rng.standard_normal(n))
    return vf, seen


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), m=st.integers(2, 30), lookback=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_shapley_matches_per_coalition_oracle(n, m, lookback, seed):
    vf, seen = recording_vf(n, lookback, seed)
    ref_vf, ref_seen = recording_vf(n, lookback, seed)
    got = X.sampled_shapley(vf, m=m, seed=seed)
    ref = ref_sampled_shapley(ref_vf, m=m, seed=seed)
    assert got.phi0 == ref.phi0 and got.fx == ref.fx
    assert np.array_equal(got.phis, ref.phis)
    assert np.array_equal(got.std_errors, ref.std_errors)
    assert got.n_evaluations == ref.n_evaluations == len(seen) == len(ref_seen)
    assert all(np.array_equal(a, b) for a, b in zip(seen, ref_seen))

    got = X.exact_shapley(vf)
    ref = ref_exact_shapley(ref_vf)
    assert got.phi0 == ref.phi0 and got.fx == ref.fx
    assert np.allclose(got.phis, ref.phis, rtol=0.0, atol=1e-12)
    assert got.n_evaluations == ref.n_evaluations == 1 << n


def test_evaluation_counts():
    """One model evaluation per distinct coalition: 2^n for exact, the
    distinct prefixes of the drawn orders for sampled."""
    vf, seen = recording_vf(3, 2, seed=0)
    assert X.exact_shapley(vf).n_evaluations == len(seen) == 8
    seen.clear()
    # 30 orders of 3 features start and end with each feature: all 8 coalitions
    assert X.sampled_shapley(vf, m=30, seed=0).n_evaluations == len(seen) == 8
    vf, seen = recording_vf(1, 2, seed=0)
    # every order of one feature visits the empty and the full coalition only
    assert X.sampled_shapley(vf, m=5, seed=0).n_evaluations == len(seen) == 2


def test_non_model_value_function_has_generic_names():
    n = 19
    vf = X.ValueFunction(predict=lambda row: float(row.sum()),
                         instance=np.ones((1, n)), baseline=np.zeros(n))
    e = X.sampled_shapley(vf, m=2)
    assert e.feature_names == tuple(f"f{i}" for i in range(n))
    assert "group:" not in X.global_importance_to_text([e])
    with pytest.raises(ValueError):
        X.ValueFunction(predict=vf.predict, instance=np.ones((1, 2)),
                        baseline=np.zeros(2), feature_names=("a",))


class TestModelValueFunction:
    def _tiny(self):
        from hydroformer import data as D
        from hydroformer.model import ModelConfig, TransformerModel
        series = D.synth_generate(seed=8, length=420)
        ds = D.make_windows(series, lookback=4, horizon=2)
        model = TransformerModel(ModelConfig(d_model=8, n_heads=1, d_ffn=16,
                                             lookback=4, horizon=2), seed=8)
        return model, ds

    def test_fx_matches_model_prediction(self):
        model, ds = self._tiny()
        w = ds.split("test").windows[0]
        vf = X.model_value_function(model, ds.normalizer, w, lead=2)
        fx = X._values(vf, np.array([(1 << 19) - 1]))[0][0]
        expect = float(ds.normalizer.invert_target(
            np.array(model.predict(w, 2)[1, 0])))
        assert fx == pytest.approx(expect, abs=1e-12)

    def test_baseline_is_zero_vector(self):
        model, ds = self._tiny()
        vf = X.model_value_function(model, ds.normalizer, ds.split("val").windows[0])
        assert np.array_equal(vf.baseline, np.zeros(19))

    def test_names_are_csv_columns(self):
        model, ds = self._tiny()
        vf = X.model_value_function(model, ds.normalizer, ds.split("val").windows[0])
        assert X.sampled_shapley(vf, m=2).feature_names == FEATURE_COLUMNS

    def test_lead_guard(self):
        model, ds = self._tiny()
        with pytest.raises(ConfigError):
            X.model_value_function(model, ds.normalizer,
                                   ds.split("val").windows[0], lead=3)


def read_global_importance(text):
    """(feature, mean_abs_phi, percent) rows in file order, and the group
    rows as {group: percent}."""
    lines = text.splitlines()
    assert lines[0] == "feature\tmean_abs_phi\tpercent"
    rows = [ln.split("\t") for ln in lines[1:]]
    features = [(f, float(imp), float(pct)) for f, imp, pct in rows if not f.startswith("group:")]
    groups = {f.removeprefix("group:"): float(pct) for f, imp, pct in rows
              if f.startswith("group:") and imp == ""}
    assert len(features) + len(groups) == len(rows)
    return features, groups


class TestAggregation:
    def _fake_explanations(self, n_inst=6, seed=9):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(n_inst):
            phis = rng.standard_normal(19)
            out.append(X.Explanation(phi0=0.0, phis=phis, fx=float(phis.sum()),
                                     estimator="sampled", std_errors=np.abs(phis) / 10,
                                     n_evaluations=40))
        return out

    def _importance(self):
        return read_global_importance(X.global_importance_to_text(self._fake_explanations()))

    def test_percentages_sum_to_hundred(self):
        features, _ = self._importance()
        assert len(features) == 19
        assert sum(pct for _, _, pct in features) == pytest.approx(100.0, abs=1e-9)

    def test_group_partition(self):
        features, groups = self._importance()
        assert list(groups) == ["meteorological", "hydrological"]
        assert sum(groups.values()) == pytest.approx(100.0, abs=1e-9)
        for group, members in (("meteorological", METEO_COLUMNS),
                               ("hydrological", HYDRO_COLUMNS)):
            share = sum(pct for f, _, pct in features if f in members)
            assert groups[group] == pytest.approx(share, abs=1e-9)

    def test_ranked_descending(self):
        features, _ = self._importance()
        imps = [imp for _, imp, _ in features]
        assert imps == sorted(imps, reverse=True)
        mean_abs = np.abs(np.stack([e.phis for e in self._fake_explanations()])).mean(axis=0)
        assert all(imp == mean_abs[FEATURE_COLUMNS.index(f)] for f, imp, _ in features)

    def test_group_sizes_follow_schema(self):
        assert len(X.FEATURE_GROUPS["meteorological"]) == 7
        assert len(X.FEATURE_GROUPS["hydrological"]) == 12

    def test_beeswarm_cardinality_and_order(self):
        exps = self._fake_explanations(n_inst=4)
        raw = np.random.default_rng(10).standard_normal((4, 19))
        lines = X.beeswarm_to_text(exps, raw).splitlines()
        assert lines[0] == "feature\tinstance\traw_value\tphi\tse"
        rows = [ln.split("\t") for ln in lines[1:]]
        assert len(rows) == 4 * 19
        mean_abs = np.abs(np.stack([e.phis for e in exps])).mean(axis=0)
        first_feature = rows[0][0]
        assert first_feature == FEATURE_COLUMNS[int(np.argmax(mean_abs))]
        for feature, instance, value, phi, se in rows:
            i, j = int(instance), FEATURE_COLUMNS.index(feature)
            assert float(value) == raw[i, j]
            assert float(phi) == exps[i].phis[j]
            assert float(se) == exps[i].std_errors[j]

    def test_beeswarm_length_mismatch(self):
        with pytest.raises(ValueError):
            X.beeswarm_to_text(self._fake_explanations(3), np.zeros((2, 19)))

    def test_force_report_walk(self):
        e = X.Explanation(phi0=1.0, phis=np.array([0.5, -2.0, 0.25]), fx=-0.25,
                          estimator="exact", std_errors=np.zeros(3), n_evaluations=8,
                          feature_names=("a", "b", "c"))
        lines = X.force_report_to_text(e).splitlines()
        assert lines[3] == "feature\tphi\tse\tcumulative\tsign"
        rows = [ln.split("\t") for ln in lines[4:]]
        assert [r[0] for r in rows] == ["b", "a", "c"]
        assert float(rows[-1][3]) == pytest.approx(e.fx, abs=1e-12)
        assert [r[4] for r in rows] == ["-", "+", "+"]

    def test_force_report_text(self):
        e = X.Explanation(phi0=0.0, phis=np.array([1.0, -2.0]), fx=-1.0,
                          estimator="sampled", std_errors=np.array([0.1, 0.2]),
                          n_evaluations=4,
                          feature_names=("a", "b"))
        text = X.force_report_to_text(e)
        assert text.startswith("base_value\t")
        assert "sampled" in text
        assert text.splitlines()[4:] == ["b\t-2.0\t0.2\t-2.0\t-", "a\t1.0\t0.1\t-1.0\t+"]

    def test_exact_values_carry_zero_standard_errors(self):
        e = X.exact_shapley(linear_vf([1.0, -2.0, 3.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]))
        assert np.array_equal(e.std_errors, np.zeros(3))
