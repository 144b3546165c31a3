"""Two-reflector (Fabry-Perot) impulse responses and pulse distortion.

A drive-line section bounded by two partial reflectors turns one incident
pulse into a ladder of delayed ghost copies. Two equivalent constructions
are provided: an explicit tap ladder (delays L(2k+1)/v_p, geometric
amplitudes) and the inverse transform of the section's complex transmission
function. Waveform distortion is the convolution of the drive with either
response.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .timegate import TimeTrace
from .traces import _freeze

C_VACUUM = 299792458.0
DEFAULT_VP = 0.7 * C_VACUUM


class DistortionError(ValueError):
    pass


@dataclass(frozen=True)
class MismatchModel:
    """Two unmatched elements separated by a transmission line."""

    rl1_db: float
    rl2_db: float
    length_m: float
    v_p: float = DEFAULT_VP
    sign1: int = 1
    sign2: int = 1
    max_reflections: int = 5

    def __post_init__(self):
        if self.rl1_db <= 0 or self.rl2_db <= 0:
            raise DistortionError("return losses must be > 0 dB")
        if self.length_m <= 0:
            raise DistortionError("length_m must be > 0")
        if not (0 < self.v_p <= C_VACUUM):
            raise DistortionError("v_p must be in (0, c]")
        if self.sign1 not in (1, -1) or self.sign2 not in (1, -1):
            raise DistortionError("signs must be +1 or -1")
        if self.max_reflections < 0:
            raise DistortionError("max_reflections must be >= 0")

    @property
    def alpha(self) -> float:
        return self.sign1 * 10.0 ** (-self.rl1_db / 20.0)

    @property
    def beta(self) -> float:
        return self.sign2 * 10.0 ** (-self.rl2_db / 20.0)

    @property
    def transit_s(self) -> float:
        """One-way transit time L / v_p (the direct-path delay)."""
        return self.length_m / self.v_p


@dataclass(frozen=True)
class ImpulseResponse:
    """Finite tap list (delay, amplitude) of the two-reflector section."""

    taps: tuple[tuple[float, float], ...]
    normalized: bool

    def __post_init__(self):
        delays = [d for d, _ in self.taps]
        if any(b <= a for a, b in zip(delays, delays[1:])):
            raise DistortionError("tap delays must be strictly increasing")
        if self.normalized and self.taps and abs(self.taps[0][1] - 1.0) > 1e-12:
            raise DistortionError("normalized response must have unit first tap")


def impulse_response_taps(model: MismatchModel, normalized: bool = True) -> ImpulseResponse:
    """Tap ladder: delays L(2k+1)/v_p, amplitudes a^k (1-a)(b^k - b^(k+1)).

    With ``normalized`` the ladder is scaled so the direct tap is 1 and the
    ratios reduce to (a*b)^k; the static through-attenuation is then
    absorbed into experimental amplitude calibration and only the
    ghost-induced ripple remains.
    """
    a, b = model.alpha, model.beta
    tau0 = model.transit_s
    spacing = 2.0 * model.length_m / model.v_p
    amps = [(a**k) * (1.0 - a) * (b**k - b ** (k + 1)) for k in range(model.max_reflections + 1)]
    if normalized:
        a0 = amps[0]
        if a0 == 0.0:
            raise DistortionError("direct tap vanishes; cannot normalize")
        amps = [x / a0 for x in amps]
    taps = tuple((tau0 + k * spacing, amps[k]) for k in range(len(amps)))
    return ImpulseResponse(taps=taps, normalized=normalized)


def impulse_response_fourier(
    model: MismatchModel,
    f_max_hz: float,
    window_s: float,
    normalized: bool = True,
) -> TimeTrace:
    """Sampled response from the Fabry-Perot transmission function.

    S21(w) = d^2 exp(-i w L/v_p) / (1 - r^2 exp(-2 i w L/v_p)) with
    r^2 = alpha*beta, sampled up to f_max and inverse-transformed. The
    record spans ``window_s``; taps falling beyond it alias, so the window
    must cover the reflections that still carry amplitude. dt = 1/(2 f_max).
    """
    if f_max_hz <= 0 or window_s <= 0:
        raise DistortionError("f_max_hz and window_s must be > 0")
    tau0 = model.transit_s
    spacing = 2.0 * model.length_m / model.v_p
    if window_s < tau0 + 2.0 * spacing:
        raise DistortionError("window too short to localize the tap ladder")
    n_half = int(round(window_s * f_max_hz))
    if n_half == 0:
        raise DistortionError(
            f"window_s = {window_s:.3e} s holds no sample at f_max_hz = {f_max_hz:.3e} Hz"
        )
    n_full = 2 * n_half
    df = 2.0 * f_max_hz / n_full
    f = df * np.arange(n_half + 1)
    r2 = model.alpha * model.beta
    if normalized:
        d2 = 1.0
    else:
        d2 = (1.0 - model.alpha) * (1.0 - model.beta)
    w = 2.0 * math.pi * f
    s21 = d2 * np.exp(-1j * w * tau0) / (1.0 - r2 * np.exp(-2j * w * tau0))
    h = np.fft.irfft(s21, n=n_full)
    return TimeTrace(dt_s=1.0 / (2.0 * f_max_hz), t0_s=0.0, values=h)


def _analytic_signal(x: np.ndarray) -> np.ndarray:
    """x + i H[x], H the one-sided-spectrum Hilbert transform at the input's
    own length n (Marple, IEEE Trans. Signal Process. 47(9), 1999).

    H is the length-n circular convolution with the closed-form odd kernel
    h[d] = -tan(pi d/2n)/n (even d), cot(pi d/2n)/n (odd d) for odd n and
    2 cot(pi d/n)/n (odd d), 0 (even d) for even n. It is computed as one
    linear convolution at a fast FFT length >= 2n - 1 and folded back onto n
    samples (Bluestein, IEEE Trans. Audio Electroacoust. 18, 451, 1970), so
    the transform is the length-n one, not that of a padded signal.
    """
    n = x.size
    m = (n - 1) // 2  # h[n - d] = -h[d]: only d <= m is evaluated, at angles below pi/2
    h = np.zeros(n)
    if n % 2:
        t = np.tan(np.pi / (2 * n) * np.arange(1, m + 1))
        h[1 : m + 1 : 2] = 1.0 / (n * t[::2])
        h[2 : m + 1 : 2] = -t[1::2] / n
    else:
        h[1 : m + 1 : 2] = 2.0 / (n * np.tan(np.pi / n * np.arange(1, m + 1, 2)))
    h[n - m :] = -h[m:0:-1]
    y = _convolve(x, h)
    y[: n - 1] += y[n : 2 * n - 1]
    z = np.empty(n, dtype=complex)
    z.real, z.imag = x, y[:n]
    return z


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Linear convolution of two real sequences: one real FFT product at a fast length."""
    n = a.size + b.size - 1
    size = _fast_len(n)
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:n]


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length numpy's FFT handles quickly."""
    odd = (3**b * 5**c for b in range(n.bit_length()) for c in range(n.bit_length()))
    return min(p << (-(-n // p) - 1).bit_length() for p in odd)  # least p * 2^a >= n


@dataclass(frozen=True)
class PulseWaveform:
    """Sampled real drive waveform with its carrier bookkeeping."""

    dt_s: float
    samples: np.ndarray
    carrier_hz: float

    def __post_init__(self):
        if self.dt_s <= 0:
            raise DistortionError("dt_s must be > 0")
        if self.carrier_hz > 0 and self.dt_s > 1.0 / (20.0 * self.carrier_hz):
            raise DistortionError(
                f"dt_s = {self.dt_s:.3e} s does not resolve the "
                f"{self.carrier_hz:.3e} Hz carrier"
            )
        v = np.asarray(self.samples, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise DistortionError("waveform needs at least two samples")
        if not np.all(np.isfinite(v)):
            raise DistortionError("waveform contains non-finite samples")
        object.__setattr__(self, "samples", _freeze(v))  # copy after the checks: the mask and copy never coexist

    @property
    def duration_s(self) -> float:
        return (self.samples.size - 1) * self.dt_s

    @property
    def times(self) -> np.ndarray:
        return self.dt_s * np.arange(self.samples.size)

    @cached_property
    def _analytic(self) -> np.ndarray:
        """Analytic signal of the samples, built once per waveform and shared
        by every :func:`distort` of it (a tap ladder and its direct tap)."""
        z = _analytic_signal(self.samples)
        z.setflags(write=False)
        return z


def distort(pulse: PulseWaveform, h: ImpulseResponse) -> PulseWaveform:
    """Superpose delayed, scaled copies of the pulse per the tap ladder.

    Tap delays are rounded to the nearest sample; the sub-sample residue is
    applied as an exact carrier-phase rotation of that copy (via the
    analytic signal), which keeps carrier phase accurate at delays the
    sample grid cannot represent. The output is extended to cover the last
    tap.
    """
    x = pulse.samples
    shifts = []
    max_shift = 0
    for delay, amp in h.taps:
        m = int(round(delay / pulse.dt_s))
        eps = delay - m * pulse.dt_s
        shifts.append((m, eps, amp))
        max_shift = max(max_shift, m)

    n_out = x.size + max_shift
    y = np.zeros(n_out)
    for m, eps, amp in shifts:
        if abs(eps) > 1e-18:
            rot = np.exp(-2j * math.pi * pulse.carrier_hz * eps)
            y[m : m + x.size] += amp * np.real(pulse._analytic * rot)
        else:
            y[m : m + x.size] += amp * x
    return PulseWaveform(pulse.dt_s, y, pulse.carrier_hz)


def distort_with_response(pulse: PulseWaveform, h: TimeTrace) -> PulseWaveform:
    """Discrete convolution of the pulse with a sampled impulse response.

    Requires matching sample intervals. Because the sampled response is the
    band-limited image of the tap ladder, plain sample-by-sample
    convolution reproduces fractional tap delays automatically.
    """
    if abs(h.dt_s - pulse.dt_s) > 1e-15 * pulse.dt_s:
        raise DistortionError(
            f"sample interval mismatch: pulse {pulse.dt_s:.3e} s vs response {h.dt_s:.3e} s"
        )
    y = _convolve(pulse.samples, np.real(h.values))
    return PulseWaveform(pulse.dt_s, y, pulse.carrier_hz)
