"""Data-based SOL one-port calibration.

Standard three-term error model (directivity e00, source match e11,
reflection tracking e01e10) with the bilinear measurement equation

    m = e00 + (e00*e11 - de) * G / (1 - e11*G),      de = e00*e11 - e01e10.

Because each standard gives one linear equation

    e00 + G*m*e11 - G*de = m

in (e00, de, e11), three distinct standards determine the model exactly at
every frequency: a per-frequency 3x3 complex solve with no smoothing.
The "data-based" aspect is that the standard definitions are measured
traces, not polynomial models; the solver treats them identically.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .traces import ComplexTrace, FrequencyGrid, _freeze, require_same_grid

# Minimum pairwise separation of the defined standards; below this the
# per-frequency system is singular.
MIN_STANDARD_SEPARATION = 1e-6
# Frequencies whose 3x3 systems are built, checked and solved at a time; each
# matrix is solved alone either way, so the block size changes no bit.
_BLOCK = 1024


class CalibrationError(ValueError):
    """Singular or ill-posed calibration at a specific frequency."""


@dataclass(frozen=True)
class StandardsSet:
    """Defined (pre-characterized) and measured (in-situ) S, O, L traces."""

    defined_short: ComplexTrace
    defined_open: ComplexTrace
    defined_load: ComplexTrace
    measured_short: ComplexTrace
    measured_open: ComplexTrace
    measured_load: ComplexTrace

    def __post_init__(self):
        ref = self.defined_short
        for name in (
            "defined_short",
            "defined_open",
            "defined_load",
            "measured_short",
            "measured_open",
            "measured_load",
        ):
            require_same_grid(ref.grid, getattr(self, name), f"standard {name}")
        pairs = [
            (self.defined_short, self.defined_open),
            (self.defined_short, self.defined_load),
            (self.defined_open, self.defined_load),
        ]
        freqs = ref.grid.frequencies
        for a, b in pairs:
            sep = np.abs(a.values - b.values)
            bad = np.flatnonzero(sep <= MIN_STANDARD_SEPARATION)
            if bad.size:
                raise CalibrationError(
                    f"standard definitions coincide at {freqs[bad[0]]:.6g} Hz "
                    f"(separation {sep[bad[0]]:.3g})"
                )

    @property
    def grid(self) -> FrequencyGrid:
        return self.defined_short.grid


@dataclass(frozen=True)
class ErrorModelOnePort:
    """Per-frequency three-term error coefficients."""

    grid: FrequencyGrid
    e00: np.ndarray
    e11: np.ndarray
    delta_e: np.ndarray

    def __post_init__(self):
        for name in ("e00", "e11", "delta_e"):
            v = _freeze(getattr(self, name), complex)
            if v.shape != (self.grid.count,):
                raise CalibrationError(f"{name} length != grid count")
            if not np.all(np.isfinite(v)):
                raise CalibrationError(f"{name} contains non-finite values")
            object.__setattr__(self, name, v)
        tracking = self.e00 * self.e11 - self.delta_e
        if np.any(np.abs(tracking) == 0.0):
            raise CalibrationError("reflection tracking term e01e10 vanishes")


def solve_error_model(standards: StandardsSet) -> ErrorModelOnePort:
    """Solve (e00, delta_e, e11) exactly from the three standards, ``_BLOCK`` frequencies at a time."""
    grid = standards.grid
    defined = (standards.defined_short.values, standards.defined_open.values, standards.defined_load.values)
    measured = (standards.measured_short.values, standards.measured_open.values, standards.measured_load.values)
    sol = np.empty((grid.count, 3), dtype=complex)
    for start in range(0, grid.count, _BLOCK):
        block = slice(start, start + _BLOCK)
        gammas = np.stack([v[block] for v in defined])  # (3, block)
        ms = np.stack([v[block] for v in measured])
        a = np.empty((gammas.shape[1], 3, 3), dtype=complex)
        a[:, :, 0] = 1.0
        a[:, :, 1] = -gammas.T
        a[:, :, 2] = (gammas * ms).T

        dets = np.linalg.det(a)
        # scale-aware singularity test; the rows are O(1) in reflection space
        bad = np.flatnonzero(np.abs(dets) < 1e-12)
        if bad.size:
            f = grid.frequencies[start + bad[0]]
            raise CalibrationError(f"singular standards system at {f:.6g} Hz")
        sol[block] = np.linalg.solve(a, ms.T[:, :, None])[:, :, 0]
    return ErrorModelOnePort(grid, e00=sol[:, 0], delta_e=sol[:, 1], e11=sol[:, 2])


def forward_model(model: ErrorModelOnePort, true_gamma: ComplexTrace) -> ComplexTrace:
    """Synthesize the raw measurement of a known reflection through the error box."""
    require_same_grid(model.grid, true_gamma, "true gamma")
    g = true_gamma.values
    denom = 1.0 - model.e11 * g
    bad = np.flatnonzero(np.abs(denom) <= 1e-15)
    if bad.size:
        f = model.grid.frequencies[bad[0]]
        raise CalibrationError(f"forward model singular (1 - e11*G ~ 0) at {f:.6g} Hz")
    m = model.e00 + (model.e00 * model.e11 - model.delta_e) * g / denom
    return true_gamma.with_values(m)


def apply_correction(model: ErrorModelOnePort, raw_dut: ComplexTrace) -> ComplexTrace:
    """Correct a raw DUT reflection measurement: G = (m - e00) / (m*e11 - de)."""
    require_same_grid(model.grid, raw_dut, "raw DUT")
    m = raw_dut.values
    denom = m * model.e11 - model.delta_e
    bad = np.flatnonzero(np.abs(denom) < 1e-15)
    if bad.size:
        f = model.grid.frequencies[bad[0]]
        raise CalibrationError(f"correction singular at {f:.6g} Hz")
    return raw_dut.with_values((m - model.e00) / denom)
