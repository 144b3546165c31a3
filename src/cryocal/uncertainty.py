"""RSS error combination and asymmetric dB error bars.

Reflection uncertainty combines the ECal table value with the switch-port
variability; switch repeatability and load terms are informational and
excluded by default. Bars are symmetric in linear units and become
asymmetric when converted with RL(dB) = -20 log10(|S11| -/+ sigma).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .traces import ComplexTrace, _freeze, require_same_grid


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
    sigma_load: float = 0.0
    s21_prefactor: float = 0.0  # |S21,a|^2 multiplying the load term

    def __post_init__(self):
        for name in ("sigma_ecal", "sigma_switch_var", "sigma_switch_rep", "sigma_load"):
            if getattr(self, name) < 0:
                raise UncertaintyError(f"{name} must be >= 0")


def combine_rss(budget: ErrorBudget, include_rep: bool = False, include_load: bool = False) -> float:
    """Root-sum-of-squares of the selected error terms.

    Default keeps only the ECal and switch-variability terms; repeatability
    and load contributions change the total by at most a couple of percent
    and are informational.
    """
    total = budget.sigma_ecal**2 + budget.sigma_switch_var**2
    if include_rep:
        total += budget.sigma_switch_rep**2
    if include_load:
        total += (budget.s21_prefactor * budget.sigma_load) ** 2
    return math.sqrt(total)


@dataclass(frozen=True)
class ReturnLossResult:
    """Return loss with asymmetric dB bars (equal in linear units)."""

    rl_db: float
    upper_db: float  # extent toward better match, from s11 - sigma
    lower_db: float  # extent toward worse match, from s11 + sigma
    s11_linear: float
    sigma_rss: float
    lower_bound_only: bool = False


def to_return_loss(s11_linear: float, sigma_rss: float) -> ReturnLossResult:
    """Convert a linear reflection magnitude and RSS sigma to dB with bars.

    When sigma >= s11 the upper bound is unbounded and only the lower bound
    is reported (upper_db = inf).
    """
    if s11_linear <= 0:
        raise UncertaintyError(f"s11_linear must be > 0, got {s11_linear}")
    if sigma_rss < 0:
        raise UncertaintyError("sigma_rss must be >= 0")
    rl = -20.0 * math.log10(s11_linear)
    lower = -20.0 * math.log10(s11_linear + sigma_rss)
    if sigma_rss >= s11_linear:
        return ReturnLossResult(rl, math.inf, rl - lower, s11_linear, sigma_rss, True)
    upper = -20.0 * math.log10(s11_linear - sigma_rss)
    return ReturnLossResult(rl, upper - rl, rl - lower, s11_linear, sigma_rss, False)


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


def switch_stats(traces: list[ComplexTrace]) -> tuple[np.ndarray, np.ndarray]:
    """Per-frequency variability and repeatability of |S11| across traces.

    sigma_var is the population standard deviation across the traces.
    sigma_rep is the mean absolute change relative to the first trace,
    meaningful when the inputs are repeated actuations of one port.
    """
    if len(traces) < 2:
        raise UncertaintyError("need at least two traces")
    ref = traces[0]
    for tr in traces:
        require_same_grid(ref.grid, tr, "switch trace")
    mags = np.stack([np.abs(tr.values) for tr in traces])
    sigma_var = np.std(mags, axis=0, ddof=0)
    sigma_rep = np.mean(np.abs(mags[1:] - mags[0]), axis=0)
    return sigma_var, sigma_rep


def s21_uncertainty(s21: float, sigma_ecal: float, sigma_s21_switch: float) -> tuple[float, float]:
    """dB bar extents (upper, lower) on an insertion-loss value.

    Multiplicative model |S21,m| = |S21,a| (1 +/- rel) with
    rel = sqrt(sigma_ecal^2 + (2 sigma_s21_switch)^2); the switch term is
    doubled because the transmission comes from a two-port extraction of a
    one-port measurement.
    """
    if s21 <= 0:
        raise UncertaintyError(f"s21 must be > 0, got {s21}")
    rel = math.sqrt(sigma_ecal**2 + (2.0 * sigma_s21_switch) ** 2)
    if rel >= 1.0:
        return math.inf, 20.0 * math.log10(1.0 + rel)
    return -20.0 * math.log10(1.0 - rel), 20.0 * math.log10(1.0 + rel)
