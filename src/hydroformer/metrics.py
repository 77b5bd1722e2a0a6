"""Evaluation statistics: R² (two denominators), MAE, RMSE, MBE.

The published R² formula puts the *predicted* values' deviations in the
denominator, which is nonstandard; both that form ("paper") and the
conventional coefficient of determination ("standard") are available, and
every report names the mode it used.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

R2_MODES = ("paper", "standard")


class DegenerateDenominatorError(DataError):
    """The chosen R² denominator is zero for this input."""


def _validate(y, yhat, min_len):
    y = np.asarray(y, dtype=np.float64).ravel()
    yhat = np.asarray(yhat, dtype=np.float64).ravel()
    if y.shape != yhat.shape:
        raise ValueError(f"length mismatch: {y.shape} vs {yhat.shape}")
    if y.size < min_len:
        raise ValueError(f"need at least {min_len} values, got {y.size}")
    return y, yhat


def r2(y, yhat, mode: str = "paper") -> float:
    if mode not in R2_MODES:
        raise ValueError(f"unknown r2 mode {mode!r}; expected one of {R2_MODES}")
    y, yhat = _validate(y, yhat, 2)
    ybar = y.mean()
    num = np.sum((yhat - y) ** 2)
    if mode == "paper":
        den = np.sum((yhat - ybar) ** 2)
        if den == 0.0:
            raise DegenerateDenominatorError(
                "paper-mode r2: constant predictions equal to the observed mean")
    else:
        den = np.sum((y - ybar) ** 2)
        if den == 0.0:
            raise DegenerateDenominatorError("standard-mode r2: constant observations")
    return float(1.0 - num / den)


def mae(y, yhat) -> float:
    y, yhat = _validate(y, yhat, 1)
    return float(np.mean(np.abs(y - yhat)))


def rmse(y, yhat) -> float:
    y, yhat = _validate(y, yhat, 1)
    return float(np.sqrt(np.mean((y - yhat) ** 2)))


def mbe(y, yhat) -> float:
    """Mean bias error, mean(y - yhat): positive means the model runs below
    the actuals (underestimation)."""
    y, yhat = _validate(y, yhat, 1)
    return float(np.mean(y - yhat))


@dataclass
class LeadMetrics:
    lead: int
    r2: float
    mae: float
    rmse: float
    mbe: float
    n: int
    r2_mode: str


@dataclass
class MetricReport:
    leads: dict = field(default_factory=dict)   # lead -> LeadMetrics

    def add(self, lead, y, yhat, r2_mode="paper"):
        y = np.asarray(y).ravel()
        self.leads[lead] = LeadMetrics(
            lead=lead, r2=r2(y, yhat, r2_mode), mae=mae(y, yhat),
            rmse=rmse(y, yhat), mbe=mbe(y, yhat), n=y.size, r2_mode=r2_mode)

    def rows(self):
        return [self.leads[k] for k in sorted(self.leads)]

    def to_text(self) -> str:
        lines = ["lead\tr2\tr2_mode\tmae\trmse\tmbe\tn"]
        for m in self.rows():
            lines.append(f"{m.lead}\t{m.r2:.6f}\t{m.r2_mode}\t{m.mae:.6f}"
                         f"\t{m.rmse:.6f}\t{m.mbe:.6f}\t{m.n}")
        return "\n".join(lines) + "\n"
