"""Two-reflector (Fabry-Perot) impulse responses and pulse distortion.

A drive-line section bounded by two partial reflectors turns one incident
pulse into a ladder of delayed ghost copies. Two equivalent constructions
are provided: an explicit tap ladder (delays L(2k+1)/v_p, geometric
amplitudes), which :func:`distort` applies as a tap view summed where it is
read, and the sampled inverse transform of the section's complex transmission
function, which ``qubitsim.run_allxy`` convolves with each gate shape.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .traces import _check_sample_count, _freeze

C_VACUUM = 299792458.0


class DistortionError(ValueError):
    pass


@dataclass(frozen=True)
class MismatchModel:
    """Two unmatched elements separated by a transmission line."""

    rl1_db: float
    rl2_db: float
    length_m: float
    v_p: float = 0.7 * C_VACUUM
    max_reflections: int = 5

    def __post_init__(self):
        for name, magnitude in (("rl1_db", "alpha"), ("rl2_db", "beta")):
            if not getattr(self, name) > 0:  # false for NaN; first, as 10^(-rl/20) overflows far below 0
                raise DistortionError(f"{name} must be > 0 dB, got {getattr(self, name)}")
            if getattr(self, magnitude) == 1.0:  # a return loss below about 1e-16 dB: total reflection, no pulse passes
                raise DistortionError(f"{name} = {getattr(self, name)} dB rounds the reflection magnitude to 1.0")
        if not 0 < self.length_m < math.inf:
            raise DistortionError(f"length_m must be finite and > 0, got {self.length_m}")
        if not (0 < self.v_p <= C_VACUUM):
            raise DistortionError(f"v_p must be in (0, c], got {self.v_p}")
        if not self.max_reflections >= 0:
            raise DistortionError("max_reflections must be >= 0")
        _check_sample_count(self.max_reflections + 1, DistortionError, "max_reflections")  # the taps' count

    @property
    def alpha(self) -> float:
        return 10.0 ** (-self.rl1_db / 20.0)

    @property
    def beta(self) -> float:
        return 10.0 ** (-self.rl2_db / 20.0)

    @property
    def transit_s(self) -> float:
        """One-way transit time L / v_p (the direct-path delay)."""
        return self.length_m / self.v_p

    @property
    def spacing_s(self) -> float:
        """Round-trip time 2 L / v_p between successive ghosts."""
        return 2.0 * self.length_m / self.v_p


@dataclass(frozen=True)
class ImpulseResponse:
    """Finite tap list (delay, amplitude) of the two-reflector section."""

    taps: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not all(-math.inf < v < math.inf for tap in self.taps for v in tap):
            raise DistortionError("tap delays and amplitudes must be finite")
        delays = [d for d, _ in self.taps]
        if any(b <= a for a, b in zip(delays, delays[1:])):
            raise DistortionError("tap delays must be strictly increasing")
        if delays and not delays[0] >= 0:
            raise DistortionError(f"tap delays must be >= 0 (a causal response), got {delays[0]}")


def impulse_response_taps(model: MismatchModel) -> ImpulseResponse:
    """Tap ladder: delays L(2k+1)/v_p, amplitudes (alpha*beta)^k, the series in
    r^2 = alpha*beta of :func:`impulse_response_fourier`'s S21.

    The direct tap is 1, not the through-attenuation (1-alpha)(1-beta): that is
    absorbed into experimental amplitude calibration, so only the
    ghost-induced ripple remains.
    """
    r2 = model.alpha * model.beta
    return ImpulseResponse(tuple((model.transit_s + k * model.spacing_s, r2**k) for k in range(model.max_reflections + 1)))


def impulse_response_fourier(model: MismatchModel, f_max_hz: float, window_s: float) -> np.ndarray:
    """Sampled response from the Fabry-Perot transmission function, read-only.

    S21(w) = exp(-i w L/v_p) / (1 - r^2 exp(-2 i w L/v_p)) with
    r^2 = alpha*beta, its direct path of unit gain as in
    :func:`impulse_response_taps`, sampled up to f_max and inverse-transformed.
    The samples start at t = 0, are spaced by dt = 1/(2 f_max) and span
    ``window_s``; taps falling beyond it alias, so the window must cover the
    reflections that still carry amplitude.
    """
    if not (0 < f_max_hz < math.inf and 0 < window_s < math.inf):
        raise DistortionError(f"f_max_hz and window_s must be finite and > 0, got {f_max_hz} and {window_s}")
    tau0 = model.transit_s
    if window_s < tau0 + 2.0 * model.spacing_s:
        raise DistortionError("window too short to localize the tap ladder")
    _check_sample_count(2.0 * window_s * f_max_hz, DistortionError, "the response window")
    n_half = int(round(window_s * f_max_hz))
    if n_half == 0:
        raise DistortionError(
            f"window_s = {window_s:.3e} s holds no sample at f_max_hz = {f_max_hz:.3e} Hz"
        )
    n_full = 2 * n_half
    df = 2.0 * f_max_hz / n_full
    f = df * np.arange(n_half + 1)
    r2 = model.alpha * model.beta
    w = 2.0 * math.pi * f
    delay = np.exp(-1j * w * tau0)
    s21 = delay / (1.0 - r2 * (delay * delay))
    h = np.fft.irfft(s21, n=n_full)
    h.setflags(write=False)
    return h


def _hilbert_transform(x: np.ndarray) -> np.ndarray:
    """H[x], the one-sided-spectrum Hilbert transform at the input's own
    length n (Marple, IEEE Trans. Signal Process. 47(9), 1999), as a new
    n-sample array; x + i H[x] is the analytic signal.

    H is the length-n circular convolution with a closed-form odd kernel
    (:func:`_hilbert_spectrum`), computed as one linear convolution with the
    centred kernel at a fast FFT length M >= 2n - 1 (Bluestein, IEEE Trans.
    Audio Electroacoust. 18, 451, 1970), so the transform is the length-n
    one, not that of a padded signal. Each call builds the kernel's spectrum
    and runs two more real FFTs; a fidelity run needs two calls per gate
    shape, so nothing here is cached.
    """
    n = x.size
    size = _fast_len(2 * n - 1)
    kernel = _hilbert_spectrum(n, size)  # first, so building it overlaps no buffer of x
    with np.errstate(over="ignore", invalid="ignore"):  # a huge x gives a non-finite H[x], which its reader rejects
        spec = np.fft.rfft(x, size)
        spec *= kernel
        spec *= 1j  # the odd kernel's spectrum is purely imaginary
        hx = np.fft.irfft(spec, size)
    del spec  # at most two M-point buffers live at once
    return hx[:n].copy()  # a copy, so the M-point buffer is freed


def _hilbert_spectrum(n: int, size: int) -> np.ndarray:
    """Imaginary part of the length-``size`` real FFT of the centred Hilbert
    kernel of length n; its real part vanishes because the kernel is odd.

    The circular kernel is h[d] = -tan(pi d/2n)/n (even d), cot(pi d/2n)/n
    (odd d) for odd n and 2 cot(pi d/n)/n (odd d), 0 (even d) for even n, with
    h[n - d] = -h[d]. Centred on d = -(n-1) .. n-1 and wrapped onto ``size``
    >= 2n - 1 samples, its linear convolution with x gives the circular one
    in the first n output samples, with no fold.
    """
    m = (n - 1) // 2  # only d <= m is evaluated, at angles below pi/2
    g = np.zeros(size)
    if n % 2:
        t = np.tan(np.pi / (2 * n) * np.arange(1, m + 1))
        g[1 : m + 1 : 2] = 1.0 / (n * t[::2])
        g[2 : m + 1 : 2] = -t[1::2] / n
    else:
        g[1 : m + 1 : 2] = 2.0 / (n * np.tan(np.pi / n * np.arange(1, m + 1, 2)))
    g[n - m : n] = -g[m:0:-1]
    g[size - n + 1 :] = -g[n - 1 : 0 : -1]
    full = np.fft.rfft(g)
    del g  # at most two M-point buffers live at once
    return full.imag.copy()


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
        if not 0 < self.dt_s < math.inf:  # false for NaN
            raise DistortionError(f"dt_s must be finite and > 0, got {self.dt_s}")
        if not self.carrier_hz >= 0:
            raise DistortionError(f"carrier_hz must be >= 0, got {self.carrier_hz}")
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
        object.__setattr__(self, "samples", _freeze(v))  # after the checks: a copy and the mask never coexist

    @property
    def length(self) -> int:
        return self.samples.size

    @property
    def times(self) -> np.ndarray:
        return self.dt_s * np.arange(self.length)

    def read(self, j0: int, j1: int, out: np.ndarray | None = None) -> np.ndarray:
        """Samples j0 .. j1 - 1, a view; ``out``, where a :class:`TappedWaveform` sums them, is not used."""
        return self.samples[j0:j1]

    @cached_property
    def _quadrature(self) -> np.ndarray:
        """H[x] of the samples, read-only, built once per waveform and shared by every
        :func:`distort` of it and every read of its tap views. Where H[x] is known
        another way, it may be stored in this cached property's slot before the
        first :func:`distort`."""
        hx = _hilbert_transform(self.samples)
        hx.setflags(write=False)
        return hx


@dataclass(frozen=True)
class TappedWaveform:
    """A lane of ``length`` samples at ``dt_s``, summed where it is read: sample k is the sum of
    c x[k - m] + s y[k - m] over the ``taps`` (m, c, s) in order, the same bits in any window."""

    dt_s: float
    x: np.ndarray
    y: np.ndarray
    taps: tuple[tuple[int, float, float], ...]  # sample shift m and the weights c of x, s of y
    length: int
    times = PulseWaveform.times

    @cached_property
    def samples(self) -> np.ndarray:
        return self.read(0, self.length, np.empty(self.length))

    def read(self, j0: int, j1: int, out: np.ndarray) -> np.ndarray:
        """Samples j0 .. j1 - 1 summed into ``out[:j1 - j0]``, a read-only view; raises if one is not finite."""
        lane = out[: j1 - j0]
        lane.fill(0.0)
        x, y = self.x, self.y
        for m, c, s in self.taps:
            a, b = max(j0, m), min(j1, m + x.size)
            if a < b:
                seg = lane[a - j0 : b - j0]
                seg += c * x[a - m : b - m]
                seg += s * y[a - m : b - m]
        if not np.all(np.isfinite(lane)):
            raise DistortionError("waveform contains non-finite samples")
        lane.setflags(write=False)
        return lane


def distort(pulse: PulseWaveform, h: ImpulseResponse) -> TappedWaveform:
    """Superpose delayed, scaled copies of the pulse per the tap ladder.

    Each tap delay is rounded to the nearest sample m; the residue
    eps = delay - m dt is applied as a carrier-phase rotation of that copy,
    Re((x + i H[x]) exp(-i theta)) with theta = 2 pi f eps, which keeps the
    carrier phase exact at delays the sample grid cannot represent (an
    on-grid tap has theta = 0). The output covers the last tap; H[x] is built
    here, the sum of x and H[x] only where the :class:`TappedWaveform` is read.
    """
    last = max((delay for delay, _ in h.taps), default=0.0)
    _check_sample_count(pulse.length + last / pulse.dt_s, DistortionError, "the distorted waveform")
    taps = []
    for delay, amp in h.taps:
        m = int(round(delay / pulse.dt_s))
        theta = 2.0 * math.pi * pulse.carrier_hz * (delay - m * pulse.dt_s)
        taps.append((m, amp * math.cos(theta), amp * math.sin(theta)))
    length = pulse.length + max((m for m, _, _ in taps), default=0)
    return TappedWaveform(pulse.dt_s, pulse.samples, pulse._quadrature, tuple(taps), length)

