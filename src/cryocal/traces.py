"""Frequency grids and S-parameter trace containers.

Every downstream stage (calibration, gating, uncertainty) operates on the
same uniform-grid discipline defined here: grids never get silently
interpolated, and traces are immutable after construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Relative tolerance used both for uniformity detection and for the
# start = n * step alignment check.
GRID_REL_TOL = 1e-9


class GridError(ValueError):
    """Raised when a grid invariant is violated or two grids mismatch."""


def _freeze(a, dtype=None) -> np.ndarray:
    out = np.array(a, dtype=dtype)  # a copy: the caller's array stays writeable
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform frequency grid: points are start_hz + k * step_hz, k in [0, count)."""

    start_hz: float
    step_hz: float
    count: int

    def __post_init__(self):
        if not (self.step_hz > 0):
            raise GridError(f"step_hz must be > 0, got {self.step_hz}")
        if not (self.start_hz > 0):
            raise GridError(f"start_hz must be > 0, got {self.start_hz}")
        if self.count < 2:
            raise GridError(f"count must be >= 2, got {self.count}")

    @property
    def frequencies(self) -> np.ndarray:
        return self.start_hz + self.step_hz * np.arange(self.count)

    @property
    def aligned(self) -> bool:
        """True iff start_hz is an integer multiple of step_hz.

        Required by the time-domain module so that every measured point
        falls on a bin of the dc-extended spectrum.
        """
        ratio = self.start_hz / self.step_hz
        return abs(ratio - round(ratio)) <= GRID_REL_TOL * max(1.0, ratio)

    @classmethod
    def from_frequencies(cls, freq_hz) -> tuple["FrequencyGrid", bool]:
        """Fit a uniform grid to a strictly increasing frequency list.

        Returns (grid, uniform) where uniform is False when the points
        deviate from the fitted grid by more than GRID_REL_TOL relative
        to the top frequency.
        """
        f = np.asarray(freq_hz, dtype=float)
        if f.ndim != 1 or f.size < 2:
            raise GridError("need at least two frequency points")
        if not np.all(np.isfinite(f)):
            raise GridError("frequencies must be finite")
        if np.any(np.diff(f) <= 0):
            raise GridError("frequencies must be strictly increasing")
        step = (f[-1] - f[0]) / (f.size - 1)
        fitted = f[0] + step * np.arange(f.size)
        uniform = bool(np.max(np.abs(f - fitted)) <= GRID_REL_TOL * f[-1])
        return cls(start_hz=float(f[0]), step_hz=float(step), count=int(f.size)), uniform


def require_same_grid(a: FrequencyGrid, trace: ComplexTrace, what: str = "trace"):
    """Raise GridError unless the trace is uniform and its grid identical to ``a``.

    Values are paired by index, so grids must match (same start, step, count)
    and a non-uniform trace, whose fitted grid hides its actual frequencies, is
    rejected; there is deliberately no interpolation path in the package.
    """
    if not trace.uniform:
        raise GridError(f"{what}: non-uniform frequency grid; values are paired by index")
    b = trace.grid
    rel = 1e-12
    same = (
        a.count == b.count
        and abs(a.start_hz - b.start_hz) <= rel * max(a.start_hz, b.start_hz)
        and abs(a.step_hz - b.step_hz) <= rel * max(a.step_hz, b.step_hz)
    )
    if not same:
        raise GridError(
            f"grid mismatch in {what}: expected "
            f"({a.start_hz}, {a.step_hz}, {a.count}), got "
            f"({b.start_hz}, {b.step_hz}, {b.count})"
        )


@dataclass(frozen=True)
class ComplexTrace:
    """One complex S-parameter value per grid point.

    When ``uniform`` is False the trace came from a non-uniform file; the
    actual frequencies are then kept in ``freq_hz_raw`` and the grid runs
    uniformly through the first and last points. Such traces are accepted by
    I/O but rejected by the time-domain module and by ``require_same_grid``.
    """

    grid: FrequencyGrid
    values: np.ndarray
    uniform: bool = True
    freq_hz_raw: np.ndarray | None = None
    z0_ohm: float = 50.0

    def __post_init__(self):
        v = _freeze(self.values, complex)
        if v.ndim != 1 or v.size != self.grid.count:
            raise GridError(
                f"values length {v.size} does not match grid count {self.grid.count}"
            )
        if not np.all(np.isfinite(v)):
            raise GridError("trace contains non-finite values")
        object.__setattr__(self, "values", v)
        if self.freq_hz_raw is not None:
            object.__setattr__(self, "freq_hz_raw", _freeze(self.freq_hz_raw, float))

    @property
    def frequencies(self) -> np.ndarray:
        if not self.uniform and self.freq_hz_raw is not None:
            return self.freq_hz_raw
        return self.grid.frequencies

    def with_values(self, values) -> "ComplexTrace":
        return ComplexTrace(self.grid, values, self.uniform, self.freq_hz_raw, self.z0_ohm)

