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
    """A read-only array of ``a``'s values. An ndarray that owns its data, is
    already read-only and has the requested dtype is returned as it is: only
    a producer that builds an array for one frozen result marks it so. Any
    other input, a writeable array or any view among them, is copied, so the
    caller's array stays writeable and later writes to it cannot reach the result."""
    if type(a) is np.ndarray and a.flags.owndata and not a.flags.writeable and (dtype is None or a.dtype == dtype):
        return a
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _check_sample_count(count: float, error: type[Exception], what: str) -> None:
    """Raise ``error`` naming ``count`` when numpy would refuse an array of that many
    float64 samples (more bytes than the largest intp); NaN and inf raise too."""
    if not count <= np.iinfo(np.intp).max // 8:
        raise error(f"{what} needs {count:.6g} samples, more than numpy can allocate")


def _bad_byte_line(exc: UnicodeDecodeError) -> int:
    """Line, from 1 and split as by ``str.splitlines``, of the byte ``exc`` could not decode."""
    return len((exc.object[: exc.start].decode(exc.encoding) + "x").splitlines())  # "x" ends no line


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform frequency grid: points are start_hz + k * step_hz, k in [0, count)."""

    start_hz: float
    step_hz: float
    count: int

    def __post_init__(self):
        for name in ("start_hz", "step_hz"):
            if not 0 < getattr(self, name) < np.inf:  # false for NaN
                raise GridError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not (isinstance(self.count, (int, np.integer)) and self.count >= 2):
            raise GridError(f"count must be an integer >= 2, got {self.count!r}")

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

    ``freq_hz_raw`` is the one marker of a non-uniform trace: when set, it
    holds the actual frequencies from a non-uniform file, one per value, and
    the grid runs uniformly through the first and last points. Such traces
    are accepted by I/O but rejected by the time-domain module and by
    ``require_same_grid``.
    """

    grid: FrequencyGrid
    values: np.ndarray
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
            f = _freeze(self.freq_hz_raw, float)
            if f.shape != v.shape:
                raise GridError(f"freq_hz_raw length {f.size} does not match values length {v.size}")
            object.__setattr__(self, "freq_hz_raw", f)

    @property
    def uniform(self) -> bool:
        return self.freq_hz_raw is None

    @property
    def frequencies(self) -> np.ndarray:
        return self.grid.frequencies if self.freq_hz_raw is None else self.freq_hz_raw

    def with_values(self, values) -> "ComplexTrace":
        return ComplexTrace(self.grid, values, self.freq_hz_raw, self.z0_ohm)
