"""RSS error combination and asymmetric dB error bars.

Reflection uncertainty combines the ECal table value with the switch-port
variability; switch repeatability is informational and excluded by
default. Bars are symmetric in linear units and become
asymmetric when converted with RL(dB) = -20 log10(|S11| -/+ sigma).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .traces import _freeze


class UncertaintyError(ValueError):
    pass


@dataclass(frozen=True)
class UncertaintyTable:
    """ECal uncertainty versus reflection level: (s11_db, sigma_linear) rows."""

    s11_db: np.ndarray
    sigma_linear: np.ndarray

    def __post_init__(self):
        x = _freeze(self.s11_db, float)
        y = _freeze(self.sigma_linear, float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise UncertaintyError("table needs matching 1-d columns with >= 2 rows")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise UncertaintyError("table entries must be finite")
        d = np.diff(x)
        if not (np.all(d > 0) or np.all(d < 0)):
            raise UncertaintyError("s11_db column must be strictly monotonic")
        if np.any(y <= 0):
            raise UncertaintyError("sigma_linear entries must be > 0")
        object.__setattr__(self, "s11_db", x)
        object.__setattr__(self, "sigma_linear", y)


def interp_ecal_sigma(table: UncertaintyTable, s11_db: float) -> float:
    """Piecewise-linear interpolation of the ECal sigma at a dB level."""
    x, y = table.s11_db, table.sigma_linear
    if x[0] > x[-1]:
        x, y = x[::-1], y[::-1]
    if not (x[0] <= s11_db <= x[-1]):
        raise UncertaintyError(
            f"query level {s11_db} dB outside table domain [{x[0]}, {x[-1]}] dB"
        )
    return float(np.interp(s11_db, x, y))


@dataclass(frozen=True)
class ErrorBudget:
    """Linear-unit standard errors entering the reflection RSS."""

    sigma_ecal: float
    sigma_switch_var: float
    sigma_switch_rep: float = 0.0

    def __post_init__(self):
        for name in ("sigma_ecal", "sigma_switch_var", "sigma_switch_rep"):
            if not getattr(self, name) >= 0:  # false for NaN
                raise UncertaintyError(f"{name} must be >= 0, got {getattr(self, name)}")


def combine_rss(budget: ErrorBudget, include_rep: bool = False) -> float:
    """Root-sum-of-squares of the ECal and switch-variability terms.

    ``include_rep`` adds the switch-repeatability term, which changes the
    total by at most a couple of percent and is informational.
    """
    terms = (budget.sigma_ecal, budget.sigma_switch_var, budget.sigma_switch_rep)
    return math.hypot(*terms[: 3 if include_rep else 2])


@dataclass(frozen=True)
class ReturnLossResult:
    """Return loss with asymmetric dB bars (equal in linear units)."""

    rl_db: float
    upper_db: float  # extent toward better match, from s11 - sigma
    lower_db: float  # extent toward worse match, from s11 + sigma
    s11_linear: float
    sigma_rss: float

    @property
    def lower_bound_only(self) -> bool:
        """True when sigma >= s11, so the bar toward better match is unbounded."""
        return self.upper_db == math.inf


def to_return_loss(s11_linear: float, sigma_rss: float) -> ReturnLossResult:
    """Convert a linear reflection magnitude and RSS sigma to dB with bars.

    When sigma >= s11 the upper bound is unbounded and only the lower bound
    is reported (upper_db = inf).
    """
    if not 0 < s11_linear < math.inf:
        raise UncertaintyError(f"s11_linear must be finite and > 0, got {s11_linear}")
    if not (sigma_rss >= 0 and s11_linear + sigma_rss < math.inf):  # the worse bound's dB needs a finite sum
        raise UncertaintyError(f"sigma_rss must be >= 0 with s11_linear + sigma_rss finite, got {sigma_rss}")
    rl = -20.0 * math.log10(s11_linear)
    lower = -20.0 * math.log10(s11_linear + sigma_rss)
    if sigma_rss >= s11_linear:
        return ReturnLossResult(rl, math.inf, rl - lower, s11_linear, sigma_rss)
    upper = -20.0 * math.log10(s11_linear - sigma_rss)
    return ReturnLossResult(rl, upper - rl, rl - lower, s11_linear, sigma_rss)


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def format_return_loss(result: ReturnLossResult) -> str:
    """Integer-dB display of a return-loss result, e.g. ``35 +3/-2``.

    The displayed center is anchored to the rounded best-case endpoint
    (s11 - sigma) minus the rounded upper bar, which keeps center and upper
    bound display-consistent. Lower-bound-only rows are flagged ``*``.
    """
    low = _round_half_away(result.lower_db)
    if result.lower_bound_only:
        center = _round_half_away(result.rl_db)
        return f"{center} +inf/-{low}*"
    up = _round_half_away(result.upper_db)
    center = _round_half_away(result.rl_db + result.upper_db) - up
    return f"{center} +{up}/-{low}"
