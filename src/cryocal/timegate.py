"""Frequency <-> time transforms and band-pass time gating.

The one-sided measured spectrum is extended Hermitian-symmetrically to dc
and negative frequencies so the time response is real. Missing bins below
the first measured point (including dc) are filled with the lowest measured
value. Gating multiplies the time response by a unit-peak Kaiser window and
transforms back; an isolated reflector at the gate center is therefore
passed with unit gain. Below the 1/span cutoff the gate has no resolution,
and presets may splice the original ungated data back in.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .traces import ComplexTrace, _freeze

MIN_POINTS = 16


class GateError(ValueError):
    """Gate placement or input-grid problems."""


@dataclass(frozen=True)
class GateSpec:
    """Band-pass time gate description."""

    center_s: float
    span_s: float
    kaiser_beta: float = 6.0
    splice_below_cutoff: bool = False

    def __post_init__(self):
        if not abs(self.center_s) < np.inf:  # false for NaN
            raise GateError(f"center_s must be finite, got {self.center_s}")
        if not 0 < self.span_s < np.inf:  # false for NaN
            raise GateError(f"span_s must be finite and > 0, got {self.span_s}")
        with np.errstate(over="ignore", invalid="ignore"):  # I0 overflows from beta ~ 713 on
            if not (self.kaiser_beta >= 0 and np.i0(self.kaiser_beta) < np.inf):  # false for NaN
                raise GateError(f"kaiser_beta must be >= 0 with a finite I0(kaiser_beta), got {self.kaiser_beta}")

    @property
    def cutoff_hz(self) -> float:
        """Frequency below which the gate cannot resolve the selection."""
        return 1.0 / self.span_s


# Named presets used by the CLI: wide reference-plane gate for attenuators
# (with low-frequency splice), connector gate, and the shifted gate that
# isolates the reflection from a shorting cap at the far end of a cable.
GATE_PRESETS = {
    "atten": GateSpec(0.0, 5e-9, splice_below_cutoff=True),
    "connector": GateSpec(0.0, 3e-9),
    "through-short": GateSpec(2.15e-9, 3.8e-9),
}


@dataclass(frozen=True)
class TimeTrace:
    """Uniformly sampled time response starting at t = 0."""

    dt_s: float
    values: np.ndarray

    def __post_init__(self):
        if not 0 < self.dt_s < np.inf:  # false for NaN
            raise GateError(f"dt_s must be finite and > 0, got {self.dt_s}")
        v = _freeze(self.values)
        if v.ndim != 1 or v.size < 2:
            raise GateError("time trace needs at least two samples")
        object.__setattr__(self, "values", v)

    @property
    def times(self) -> np.ndarray:
        return self.dt_s * np.arange(self.values.size)


def _check_transformable(trace: ComplexTrace):
    if not trace.uniform:
        raise GateError("time-domain transform requires a uniform grid")
    if not trace.grid.aligned:
        raise GateError(
            "time-domain transform requires start_hz to be an integer "
            "multiple of step_hz"
        )
    if trace.grid.count < MIN_POINTS:
        raise GateError(f"need at least {MIN_POINTS} frequency points")


def _full_spectrum(trace: ComplexTrace) -> np.ndarray:
    """One-sided spectrum on bins 0..n_end of step_hz, dc bins filled."""
    grid = trace.grid
    n0 = int(round(grid.start_hz / grid.step_hz))
    n_end = n0 + grid.count - 1
    spec = np.empty(n_end + 1, dtype=complex)
    spec[:n0] = trace.values[0]  # nearest-neighbour extrapolation to dc
    spec[n0:] = trace.values
    return spec


def to_time_domain(trace: ComplexTrace) -> TimeTrace:
    """Inverse transform of the Hermitian-extended spectrum.

    The result is real (up to numerical noise), spans 1/step_hz, and is
    sampled at dt = 1/(2 f_max). Time wraps circularly: negative delays
    appear at the end of the record.
    """
    _check_transformable(trace)
    spec = _full_spectrum(trace)
    n_full = 2 * (spec.size - 1)
    with np.errstate(over="ignore", invalid="ignore"):  # a huge spectrum is reported by the finite-value checks
        h = np.fft.irfft(spec, n=n_full)
    dt = 1.0 / (n_full * trace.grid.step_hz)
    return TimeTrace(dt_s=dt, values=h)


def _kaiser_continuous(t: np.ndarray, center: float, span: float, beta: float) -> np.ndarray:
    """Unit-peak Kaiser taper evaluated at arbitrary times, zero outside."""
    u = 2.0 * (t - center) / span
    w = np.zeros_like(t)
    inside = np.abs(u) <= 1.0
    w[inside] = np.i0(beta * np.sqrt(1.0 - u[inside] ** 2)) / np.i0(beta)
    return w


def apply_gate(trace: ComplexTrace, gate: GateSpec) -> ComplexTrace:
    """Band-pass gate: window the time response, transform back.

    The window has unit peak so an isolated in-gate reflector keeps its
    mid-band amplitude. With ``splice_below_cutoff`` the original ungated
    data replaces all points strictly below 1/span. A window that covers no
    time sample, as every gate outside the measurable span does, is a GateError.
    """
    h = to_time_domain(trace)
    n_full = h.values.size

    # circular time axis: second half of the record is negative delay
    k = np.arange(n_full)
    t = np.where(k < n_full // 2, k, k - n_full) * h.dt_s

    w = _kaiser_continuous(t, gate.center_s, gate.span_s, gate.kaiser_beta)
    if not np.any(w > 0):
        lo = gate.center_s - gate.span_s / 2.0
        hi = gate.center_s + gate.span_s / 2.0
        raise GateError(
            f"gate [{lo:.3e}, {hi:.3e}] s covers no time sample of the measurable span "
            f"[{t[n_full // 2]:.3e}, {t[n_full // 2 - 1]:.3e}] s"
        )

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is reported by the trace's check
        gated = np.fft.rfft(h.values * w, n=n_full)[-trace.grid.count :]  # bins 0..n_end: the measured ones last

    if gate.splice_below_cutoff:
        freqs = trace.grid.frequencies
        below = freqs < gate.cutoff_hz
        gated = np.where(below, trace.values, gated)
    return trace.with_values(gated)


def extract_insertion_loss(gated_short_reflection: ComplexTrace) -> np.ndarray:
    """One-way |S21| from the gated reflection of a shorted line.

    The gated reflection magnitude is the round trip |S21||S12|; assuming a
    reciprocal line, |S21| = sqrt(|S11,gated|).
    """
    mag = np.abs(gated_short_reflection.values)
    bad = np.flatnonzero(mag > 1.0 + 1e-6)
    if bad.size:
        f = gated_short_reflection.grid.frequencies[bad[0]]
        raise GateError(
            f"unphysical gated reflection |S11| = {mag[bad[0]]:.6g} > 1 at {f:.6g} Hz"
        )
    return np.sqrt(mag)


def insertion_loss_db(s21_linear: np.ndarray) -> np.ndarray:
    """Insertion loss in dB, -20 log10 |S21|; a zero |S21| gives inf, silently."""
    with np.errstate(divide="ignore"):
        return -20.0 * np.log10(s21_linear)
