"""Model-agnostic Shapley-value attribution: exact coalition enumeration,
permutation Monte Carlo sampling, and the global importance, beeswarm and
per-instance force reports written straight from the explanations.

A coalition is evaluated by baseline imputation: features outside the
coalition take their reference value across the whole lookback window.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import FEATURE_COLUMNS, HYDRO_COLUMNS, METEO_COLUMNS
from .errors import ConfigError

EXACT_CAP = 12
MAX_FEATURES = 62     # coalitions are int64 bitmasks


@dataclass
class ValueFunction:
    """Wraps a frozen scalar predictor together with the explained instance
    and the per-feature baseline (training means, typically)."""
    predict: object               # callable: full feature matrix -> float
    instance: np.ndarray          # lookback x n_features (or 1 x n for flat models)
    baseline: np.ndarray          # n_features reference values
    feature_names: tuple | None = None   # None -> f0 ... f{n-1}

    def __post_init__(self):
        self.instance = np.atleast_2d(np.asarray(self.instance, dtype=np.float64))
        self.baseline = np.asarray(self.baseline, dtype=np.float64)
        if self.baseline.shape != (self.instance.shape[1],):
            raise ValueError(f"baseline shape {self.baseline.shape} != "
                             f"({self.instance.shape[1]},) features")
        if self.n_features > MAX_FEATURES:
            raise ValueError(f"{self.n_features} features exceed the limit of "
                             f"{MAX_FEATURES} (coalitions are int64 bitmasks)")
        if self.feature_names is None:
            self.feature_names = tuple(f"f{i}" for i in range(self.n_features))
        if len(self.feature_names) != self.n_features:
            raise ValueError(f"{len(self.feature_names)} feature names for "
                             f"{self.n_features} features")

    @property
    def n_features(self) -> int:
        return self.instance.shape[1]


def _masked_value(vf, bitmask):
    keep = ((bitmask >> np.arange(vf.n_features)) & 1).astype(bool)
    return float(vf.predict(np.where(keep, vf.instance, vf.baseline)))


def _values(vf, bitmasks):
    """Values of an int array of coalition bitmasks, in the array's shape,
    and the number of model evaluations: each distinct coalition is
    evaluated once, in first-visit order."""
    bitmasks = np.asarray(bitmasks)
    distinct, first, inverse = np.unique(bitmasks.ravel(), return_index=True,
                                         return_inverse=True)
    values = np.empty(len(distinct))
    for k in np.argsort(first):
        values[k] = _masked_value(vf, int(distinct[k]))
    return values[inverse].reshape(bitmasks.shape), len(distinct)


@dataclass
class Explanation:
    phi0: float                       # value of the empty coalition
    phis: np.ndarray                  # one contribution per feature
    fx: float                         # model output at the instance
    estimator: str                    # "exact" or "sampled"
    std_errors: np.ndarray            # per feature; zeros for exact values
    n_evaluations: int                # distinct coalitions the model evaluated
    feature_names: tuple = FEATURE_COLUMNS


def check_exact_cap(n: int, allow_large: bool) -> None:
    """ConfigError if n features exceed EXACT_CAP without allow_large."""
    if n > EXACT_CAP and not allow_large:
        raise ConfigError(f"exact enumeration over {n} features exceeds cap {EXACT_CAP}; "
                          f"pass allow_large=True (or use sampled_shapley)")


def exact_shapley(vf: ValueFunction, allow_large: bool = False) -> Explanation:
    """Exact Shapley values by full coalition enumeration (2^n model
    evaluations, one per coalition). Guarded by a feature-count cap: n=19
    costs ~5e5 evaluations and is opt-in via allow_large."""
    n = vf.n_features
    check_exact_cap(n, allow_large)
    masks = np.arange(1 << n)
    values, n_evaluations = _values(vf, masks)
    sizes = sum(((masks >> i) & 1 for i in range(n)), np.zeros_like(masks))
    weights = np.array([math.factorial(s) * math.factorial(n - s - 1) / math.factorial(n)
                        for s in range(n)])
    phis = np.empty(n)
    for i in range(n):
        without_i = masks[(masks >> i) & 1 == 0]
        phis[i] = np.sum(weights[sizes[without_i]]
                         * (values[without_i | (1 << i)] - values[without_i]))
    return Explanation(phi0=float(values[0]), phis=phis, fx=float(values[-1]),
                       estimator="exact", std_errors=np.zeros(n),
                       n_evaluations=n_evaluations, feature_names=vf.feature_names)


def sampled_shapley(vf: ValueFunction, m: int, seed: int = 0) -> Explanation:
    """Permutation Monte Carlo estimator: walk m seeded random feature
    orderings, crediting each feature its marginal contribution when added to
    the prefix. Unbiased; per-feature standard errors reported. The marginals
    of one permutation telescope, so local accuracy holds exactly."""
    if m < 2:
        raise ConfigError(f"sampled_shapley needs m >= 2 permutations, got {m}")
    n = vf.n_features
    rng = np.random.default_rng(seed)
    orders = np.stack([rng.permutation(n) for _ in range(m)])
    prefixes = np.bitwise_or.accumulate(1 << orders, axis=1)
    values, n_evaluations = _values(vf, np.pad(prefixes, ((0, 0), (1, 0))))
    marginals = np.zeros((m, n))
    np.put_along_axis(marginals, orders, np.diff(values, axis=1), axis=1)
    phis = marginals.mean(axis=0)
    se = marginals.std(axis=0, ddof=1) / math.sqrt(m)
    return Explanation(phi0=float(values[0, 0]), phis=phis, fx=float(values[0, -1]),
                       estimator="sampled", std_errors=se,
                       n_evaluations=n_evaluations, feature_names=vf.feature_names)


def model_value_function(model, normalizer, window_normalized: np.ndarray,
                         lead: int = 1) -> ValueFunction:
    """Value function for a trained forecaster: the explained scalar is the
    denormalized prediction at the given lead time. Works in normalized
    space, where the training-mean baseline is exactly zero."""
    if lead < 1 or lead > model.config.horizon:
        raise ConfigError(f"lead {lead} outside [1, horizon={model.config.horizon}]")

    def predict(hybrid_window):
        pred = model.predict(hybrid_window, lead)[lead - 1, 0]
        return float(normalizer.invert_target(np.array(pred)))

    return ValueFunction(predict=predict,
                         instance=np.asarray(window_normalized, dtype=np.float64),
                         baseline=np.zeros(window_normalized.shape[1]),
                         feature_names=FEATURE_COLUMNS)


FEATURE_GROUPS = {"meteorological": METEO_COLUMNS, "hydrological": HYDRO_COLUMNS}


def _by_mean_abs_phi(phis: np.ndarray):
    """Mean |phi| per feature of an instances x features matrix, and the
    features in descending order of it."""
    mean_abs = np.abs(phis).mean(axis=0)
    return mean_abs, np.argsort(-mean_abs)


def global_importance_to_text(explanations: list) -> str:
    """Mean |phi| per feature over the explained instances and its share of
    100, in descending order, then the Table-1 group roll-ups (sums of their
    members' shares) when the features are the schema's."""
    names = explanations[0].feature_names
    mean_abs, order = _by_mean_abs_phi(np.stack([e.phis for e in explanations]))
    total = mean_abs.sum()
    pct = mean_abs / total * 100.0 if total > 0 else np.zeros_like(mean_abs)
    lines = ["feature\tmean_abs_phi\tpercent"]
    lines += [f"{names[j]}\t{float(mean_abs[j])!r}\t{float(pct[j])!r}" for j in order]
    if set(names) == set(FEATURE_COLUMNS):
        for group, members in FEATURE_GROUPS.items():
            share = float(sum(pct[names.index(name)] for name in members))
            lines.append(f"group:{group}\t\t{share!r}")
    return "\n".join(lines) + "\n"


def beeswarm_to_text(explanations: list, raw_rows) -> str:
    """One row (feature, instance id, raw feature value, phi, se) per feature
    and instance, feature blocks ordered by descending mean |phi|; enough to
    render a beeswarm plot. raw_rows holds one row of raw values per
    explanation."""
    raw_rows = np.atleast_2d(np.asarray(raw_rows, dtype=np.float64))
    if len(explanations) != raw_rows.shape[0]:
        raise ValueError(f"{len(explanations)} explanations vs {raw_rows.shape[0]} value rows")
    names = explanations[0].feature_names
    phis = np.stack([e.phis for e in explanations])
    ses = np.stack([e.std_errors for e in explanations])
    lines = ["feature\tinstance\traw_value\tphi\tse"]
    for j in _by_mean_abs_phi(phis)[1]:
        for i in range(len(explanations)):
            lines.append(f"{names[j]}\t{i}\t{float(raw_rows[i, j])!r}"
                         f"\t{float(phis[i, j])!r}\t{float(ses[i, j])!r}")
    return "\n".join(lines) + "\n"


def force_report_to_text(explanation: Explanation) -> str:
    """Ordered walk from the base value to the prediction: features sorted by
    |phi| descending, each with its standard error, the running total and
    its sign."""
    e = explanation
    lines = [f"base_value\t{e.phi0!r}", f"prediction\t{e.fx!r}",
             f"estimator\t{e.estimator}", "feature\tphi\tse\tcumulative\tsign"]
    cum = e.phi0
    for j in np.argsort(-np.abs(e.phis)):
        phi = float(e.phis[j])
        cum += phi
        lines.append(f"{e.feature_names[j]}\t{phi!r}\t{float(e.std_errors[j])!r}"
                     f"\t{cum!r}\t{'+' if phi >= 0 else '-'}")
    return "\n".join(lines) + "\n"
