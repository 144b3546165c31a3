"""Closed two-level system driven by (distorted) resonant pulses.

The lab-frame Hamiltonian H(t)/hbar = w_q |e><e| + sigma_x * x(t) keeps the
full cosine drive (no rotating-wave approximation). The integrator works in
the interaction picture of the bare qubit term, which is an exact change of
variables: the drive keeps its counter-rotating component, but the stiff
free rotation at w_q is removed from the numerics so fixed-step RK4 at 1 ps
conserves the norm far below the 1e-9 contract. Final states are reported
in the lab frame.

The Schrodinger equation is linear, so one RK4 step is a fixed 2x2 transfer
matrix of the drive samples at its start, midpoint and end. :func:`evolve`
reads the drive chunk by chunk, a distorted lane summed from its taps into one
reused buffer, builds each chunk's step matrices with array arithmetic and
multiplies them pairwise (later @ earlier) in log2(n) vectorized levels; no
lane is built whole and no Python code runs per step. A scalar RK4 loop is
kept in the tests as the reference.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .distortion import MismatchModel, PulseWaveform, TappedWaveform, _fast_len, _hilbert_transform
from .distortion import distort, impulse_response_fourier, impulse_response_taps
from .traces import _check_sample_count, _freeze


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class QubitParams:
    """Qubit transition frequency and fixed integrator step."""

    omega_q: float = 2.0 * math.pi * 5e9
    dt_s: float = 1e-12

    def __post_init__(self):
        if not 0 < self.omega_q < math.inf:  # false for NaN
            raise SimulationError(f"omega_q must be > 0 and finite, got {self.omega_q}")
        if not 0 < self.dt_s < math.inf:
            raise SimulationError(f"dt_s must be > 0 and finite, got {self.dt_s}")
        if self.dt_s * self.omega_q / (2.0 * math.pi) > 1.0 / 20.0:
            raise SimulationError("dt_s too coarse: need >= 20 steps per carrier period")

    @property
    def f_q(self) -> float:
        return self.omega_q / (2.0 * math.pi)


_GATE_TABLE = {
    "I": (0.0, 0.0),
    "X": (math.pi, 0.0),
    "Y": (math.pi, math.pi / 2.0),
    "X90": (math.pi / 2.0, 0.0),
    "Y90": (math.pi / 2.0, math.pi / 2.0),
}

ALLXY_GATES = tuple(_GATE_TABLE)
DEFAULT_PAIRS = tuple((a, b) for a in ALLXY_GATES for b in ALLXY_GATES)
XY_PAIR = (("X", "Y"),)


@dataclass(frozen=True)
class GateOp:
    """Single-qubit rotation request: identity, pi or pi/2 about x or y."""

    kind: str

    def __post_init__(self):
        if self.kind not in _GATE_TABLE:
            raise SimulationError(f"unknown gate kind {self.kind!r}")

    @property
    def angle_rad(self) -> float:
        return _GATE_TABLE[self.kind][0]

    @property
    def phase_rad(self) -> float:
        return _GATE_TABLE[self.kind][1]


@dataclass(frozen=True)
class QubitState:
    """Normalized amplitudes (ground, excited)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = _freeze(self.amplitudes, complex)
        if v.shape != (2,):
            raise SimulationError("state must be a complex 2-vector")
        norm = float(np.linalg.norm(v))
        if not abs(norm - 1.0) <= 1e-9:  # false for NaN
            raise SimulationError(f"state norm {norm} deviates from 1 beyond 1e-9")
        object.__setattr__(self, "amplitudes", v)


GROUND = QubitState(np.array([1.0 + 0.0j, 0.0j]))


def _fidelity_request(duration_s: float, params: QubitParams, pairs=XY_PAIR, method: str = "taps") -> list[list[GateOp]]:
    """The gate sequences of ``pairs``, each gate a ``duration_s`` pulse distorted by ``method``.

    The one judge of a fidelity request, the longest drive's sample count included,
    run before anything is calibrated; each rejection starts with its field.
    """
    if not pairs or not all(pair and not isinstance(pair, str) and set(pair) <= _GATE_TABLE.keys() for pair in pairs):
        raise SimulationError(
            f"pairs must be non-empty, each a non-empty sequence of gate names {list(ALLXY_GATES)}, got {pairs!r}"
        )
    if method not in ("taps", "fourier"):
        raise SimulationError(f"method must be 'taps' or 'fourier', got {method!r}")
    if not duration_s > 10.0 * params.dt_s:  # false for NaN
        raise SimulationError(f"duration_s must exceed 10 integrator steps of {params.dt_s:g} s, got {duration_s:g}")
    longest = max(len(pair) for pair in pairs)  # gates of the longest drive, sampled at dt/2
    _check_sample_count(2.0 * duration_s / params.dt_s * longest, SimulationError,
                        f"duration_s = {duration_s:g} s: a {longest}-gate drive at {params.dt_s:g} s steps")
    return [[GateOp(k) for k in pair] for pair in pairs]


def _truncated_gaussian_envelope(t: np.ndarray, duration: float) -> np.ndarray:
    """Unit-peak Gaussian, sigma = duration/4, baseline-subtracted to zero at the
    edges; every step after ``t - duration/2`` works in place on that one array."""
    sigma = duration / 4.0
    g0 = math.exp(-((duration / 2.0) ** 2) / (2.0 * sigma**2))
    env = t - duration / 2.0
    env *= env
    env /= -(2.0 * sigma**2)
    np.exp(env, out=env)
    env -= g0
    env /= 1.0 - g0
    return np.maximum(env, 0.0, out=env)


def _sequence_samples(gates: list[GateOp], duration_s: float, amplitudes: dict[str, float], params: QubitParams) -> PulseWaveform:
    """Back-to-back gate pulses sampled at dt/2 with a coherent lab-frame carrier:
    :func:`_placed_sum` over the gates' :func:`_placed` copies of the unit gate pulse."""
    _fidelity_request(duration_s, params, [[gate.kind for gate in gates]])  # judges the duration
    x = _placed_sum(_placed(gates, duration_s, amplitudes, params), len(gates), duration_s, params)
    return PulseWaveform(params.dt_s / 2.0, x, params.f_q)


def _gate_samples(duration_s: float, params: QubitParams) -> int:
    """Samples per gate at dt/2: round(duration/dt) integrator steps of two samples each."""
    return int(round(duration_s / params.dt_s)) * 2


def _placed(gates: list[GateOp], duration_s: float, amplitudes: dict[str, float], params: QubitParams) -> list:
    """(p, a) of each gate that is not I: gate i is Re(a u) from sample p = i n_gate on,
    a = amp exp(i (w_q ds p + phi)), u the unit gate pulse of :func:`_placed_sum`."""
    n_gate, w, ds = _gate_samples(duration_s, params), params.omega_q, params.dt_s / 2.0
    return [(p, amplitudes[g.kind] * cmath.exp(1j * (w * (ds * p) + g.phase_rad)))
            for p, g in zip(range(0, n_gate * len(gates), n_gate), gates) if g.kind != "I"]


def _placed_sum(placed, n_gates: int, duration_s: float, params: QubitParams) -> np.ndarray:
    """Sum of Re(a u) shifted by p over (p, a) in ``placed``, in an ``n_gates``-gate frame, read-only.
    u[b] = env[b] exp(i w_q ds b), b = 0 .. n_gate, is the unit gate pulse, one symmetric Gaussian
    envelope spanning exactly round(duration/dt) steps. From carrier-table block start b on, Re(a u)
    is env Re(a exp(i w_q ds b) table), so no sample takes the cosine of a large argument."""
    n_gate, w, ds = _gate_samples(duration_s, params), params.omega_q, params.dt_s / 2.0
    x = np.zeros(n_gate * n_gates + 1)
    env = _truncated_gaussian_envelope(ds * np.arange(n_gate + 1), ds * n_gate)
    table = _carrier_table(w, ds)  # the table evolve uses for these samples
    for b in range(0, n_gate + 1, table.size):
        c, e, turn = table[: n_gate + 1 - b], env[b : b + table.size], cmath.exp(1j * w * (ds * b))
        for p, a in placed:
            z = a * turn
            x[p + b : p + b + c.size] += e * (z.real * c.real - z.imag * c.imag)
    x.setflags(write=False)  # so a waveform adopts it without a copy
    return x


@lru_cache(maxsize=2)
def _quadrature_basis(n_gates: int, duration_s: float, params: QubitParams) -> np.ndarray:
    """H[u] of the unit gate pulse u[b] = env[b] exp(i w_q ds b), b = 0 .. n_gate, in the
    length-n frame of an ``n_gates``-gate sequence, read-only; element d is frame sample
    c + d, c = n_gate/2 the pulse's midpoint, for d = 0 .. (n-1)/2.

    Each gate is Re(a u) with a complex a, shifted by a multiple of n_gate, and the
    circular H is real-linear and commutes with circular shifts, so a drive's H[x] is a
    sum of shifted copies of Re(a H[u]) (:func:`_basis_quadrature`). Re u and Im u = Re(-i u)
    (:func:`_placed_sum` at a = 1 and -i) are each transformed once. The envelope is symmetric, so
    u(n_gate - b) = t conj(u(b)), t = exp(i w_q ds n_gate), and H is odd under that
    reflection: H[u](c - d) = -t conj(H[u](c + d)), so half the frame holds H[u].
    """
    parts = []
    for a in (1.0, -1j):
        hu = _hilbert_transform(_placed_sum([(0, a)], n_gates, duration_s, params))
        c, keep = (hu.size - 1) // n_gates // 2, (hu.size + 1) // 2
        parts.append(hu[c : c + keep].copy())  # frame samples c .. c + keep - 1
        del hu
    basis = np.empty(keep, complex)
    basis.real, basis.imag = parts
    basis.setflags(write=False)
    return basis


def _basis_quadrature(basis: np.ndarray, n: int, n_gate: int, placed, turn: complex) -> np.ndarray:
    """H[x] of the n-sample drive x = sum of Re(a u) with u starting at frame sample p, for each
    (p, a) in ``placed``, from :func:`_quadrature_basis`'s ``basis`` and ``turn`` = t, read-only."""
    hx = np.zeros(n)
    back = n - basis.size  # samples before each midpoint, read from the reflection
    mirror = basis[back:0:-1]
    for p, a in placed:
        p += n_gate // 2  # the pulse's midpoint c, where the basis starts
        _add_circular(hx, p, a.real * basis.real - a.imag * basis.imag)
        r = -a * turn  # Re(a H[u](c - d)) = Re(-a t conj(H[u](c + d)))
        _add_circular(hx, p - back, r.real * mirror.real + r.imag * mirror.imag)
    hx.setflags(write=False)  # built only for the drive's quadrature
    return hx


def _add_circular(out: np.ndarray, start: int, values: np.ndarray) -> None:
    """out[(start + k) mod n] += values[k], for values no longer than out."""
    start %= out.size
    k = min(values.size, out.size - start)
    out[start : start + k] += values[:k]
    out[: values.size - k] += values[k:]


@lru_cache(maxsize=2)
def _gate_spectra(duration_s: float, params: QubitParams, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Real FFTs at ``size`` of the one-gate frames Re u and Im u (:func:`_placed_sum`), read-only."""
    spectra = tuple(np.fft.rfft(_placed_sum([(0, a)], 1, duration_s, params), size) for a in (1.0, -1j))
    for spec in spectra:
        spec.setflags(write=False)
    return spectra


def _shape_convolution(
    duration_s: float, params: QubitParams, n_gate: int, placed, n: int, h: np.ndarray
) -> TappedWaveform:
    """x * h for the n-sample drive x = sum of Re(a u) starting at p, for each (p, a) in ``placed``.

    h is real and Re(a u) = Re(a) Re(u) + Re(i a) Im(u), so the drive's convolution is a
    sum of shifted, scaled copies of two one-gate convolutions, Re u * h and Im u * h, each
    one FFT product with :func:`_gate_spectra` at a fast length that holds its
    n_gate + h.size samples without wrapping: a tap view with one tap (p, Re a, Re(i a)) per gate.
    """
    m = n_gate + h.size  # samples of one gate's convolution
    size = _fast_len(m)
    spec_h = np.fft.rfft(h, size)
    re, im = (np.fft.irfft(spec * spec_h, size)[:m] for spec in _gate_spectra(duration_s, params, size))
    taps = tuple((p, a.real, (1j * a).real) for p, a in placed)
    return TappedWaveform(params.dt_s / 2.0, re, im, taps, n + h.size - 1)


def synth_gate_pulse(gate: GateOp, duration_s: float, params: QubitParams, amplitude: float | None = None) -> PulseWaveform:
    """Single calibrated gate pulse starting at t = 0.

    x(t) = A(t) cos(w_q t + phi) with a truncated, baseline-subtracted
    Gaussian envelope. If ``amplitude`` is omitted the scale is the one
    :func:`run_allxy` drives the gate with, from :func:`calibrated_amplitudes`.
    """
    amps = calibrated_amplitudes([gate.kind], duration_s, params) if amplitude is None else {gate.kind: amplitude}
    return _sequence_samples([gate], duration_s, amps, params)


_CHUNK = 1 << 14  # steps reduced per tree; bounds the working set to O(_CHUNK)


@lru_cache(maxsize=2)
def _carrier_table(omega_q: float, ds: float) -> np.ndarray:
    """exp(i w_q ds j) for j = 0 .. 2 * _CHUNK, read-only: the carrier of one
    chunk of steps of two samples each, shared by every chunk and every call."""
    table = np.exp(1j * omega_q * (ds * np.arange(2 * _CHUNK + 1)))
    table.setflags(write=False)
    return table


def _compose(a2, b2, a1, b1):
    """(alpha, beta) of M2 @ M1, each M = [[alpha, -conj(beta)], [beta, conj(alpha)]].

    That form is closed under multiplication, so the pair (alpha, beta)
    carries the whole 2x2 matrix. Works elementwise on arrays of any length,
    one included, and builds three new arrays: the two results and one
    temporary that serves both cross terms.
    """
    a = a2 * a1
    t = np.conj(b2)
    t *= b1
    a -= t
    b = b2 * a1
    np.conj(a2, out=t)
    t *= b1
    b += t
    return a, b


def _rk4_step_matrices(x0, xm, x1, h, cm, e1):
    """(alpha, beta) of the RK4 step matrix of every step, from its real drive
    samples x0, xm, x1 (start, midpoint, end), the carrier cm = exp(i w t) at
    its midpoint and the carrier's turn e1 = exp(-i w h/2) from a sample to the next.

    With u = x exp(i w t) and A(u) = -i [[0, conj(u)], [u, 0]], one RK4 step
    maps the state by M = I + h/6 (K1 + 2 K2 + 2 K3 + K4), where K1 = A0,
    K2 = Am (I + h/2 K1), K3 = Am (I + h/2 K2) and K4 = A1 (I + h K3).
    Products of two zero-diagonal matrices are diagonal and Am Am = -|um|^2 I,
    so M expands in closed form and has the (alpha, beta) structure of :func:`_compose`:

        alpha = 1 - h^2/6 (|um|^2 + conj(um) u0 + conj(u1) um - h^2/4 |um|^2 conj(u1) u0)
        beta = -i h/6 ((1 - h^2/2 |um|^2) (u0 + u1) + 4 um)

    The carrier turns by e1 within a step, so conj(um) u0 = xm x0 e1,
    conj(u1) um = x1 xm e1, conj(u1) u0 = x0 x1 e1^2, |um|^2 = xm^2 and
    u0 + u1 = cm (x0 e1 + x1 conj(e1)). Both parts of alpha and of beta / cm
    are therefore real arithmetic on the samples, and cm enters in one complex product.
    """
    c = h * h / 6.0
    e2 = e1 * e1
    d = xm * xm
    xs = x0 + x1
    p = xm * xs  # conj(um) u0 + conj(u1) um = e1 p
    q = d * x0 * x1  # |um|^2 conj(u1) u0 = e2 q
    alpha = np.empty(d.size, complex)
    alpha.real = 1.0 - c * d - (c * e1.real) * p + (0.25 * h * h * c * e2.real) * q
    alpha.imag = (0.25 * h * h * c * e2.imag) * q - (c * e1.imag) * p
    s = 1.0 - (0.5 * h * h) * d
    beta = np.empty(d.size, complex)  # -i h/6 (s (x0 e1 + x1 conj(e1)) + 4 xm), then times cm
    beta.real = (h / 6.0 * e1.imag) * s * (x0 - x1)
    beta.imag = (-h / 6.0 * e1.real) * s * xs - (4.0 * h / 6.0) * xm
    beta *= cm
    return alpha, beta


def _ordered_product(alpha, beta):
    """(alpha, beta) of M[n-1] @ ... @ M[0], as one-element arrays, by pairwise
    reduction in log2(n) levels."""
    while alpha.size > 1:
        k = alpha.size // 2
        a, b = _compose(alpha[1 : 2 * k : 2], beta[1 : 2 * k : 2], alpha[0 : 2 * k : 2], beta[0 : 2 * k : 2])
        if alpha.size % 2:  # the last step has no partner: fold it into the last pair
            a[-1:], b[-1:] = _compose(alpha[-1:], beta[-1:], a[-1:], b[-1:])
        alpha, beta = a, b
    return alpha, beta


def _propagator(waveform: PulseWaveform | TappedWaveform, params: QubitParams) -> tuple[complex, complex]:
    """(alpha, beta) of the interaction-picture propagator of the whole waveform,
    in the form of :func:`_compose`, before any renormalization.

    The equation is linear, so each RK4 step is a fixed 2x2 matrix of its
    start, midpoint and end samples and of the carrier at its midpoint
    (:func:`_rk4_step_matrices`). All step matrices of a chunk of 2**14
    steps are built at once from the samples the waveform's ``read`` returns
    (a tap view sums them into one reused buffer) and the cached carrier
    table, which starts at phase 0, and multiplied pairwise (later @
    earlier) down to one matrix. The chunk's true carrier starts at
    P = exp(i w t0); with D = diag(1, P) each true step matrix is D M D^-1,
    so only the chunk product's beta is multiplied by P. The chunk products
    are folded in time order, each chunk read once. The matrix scales every
    state's norm by sqrt(|alpha|^2 + |beta|^2), so that minus 1 is the raw
    RK4 norm drift.
    """
    if abs(params.dt_s / waveform.dt_s - 2.0) > 1e-9:
        raise SimulationError(
            f"waveform dt {waveform.dt_s:.3e} s is not half the integrator step {params.dt_s:.3e} s"
        )
    read = partial(waveform.read, out=np.empty(2 * _CHUNK + 1))
    n_steps = (waveform.length - 1) // 2
    w, h, ds = params.omega_q, params.dt_s, waveform.dt_s
    carrier = _carrier_table(w, ds)
    e1 = carrier[1].conjugate()
    alpha, beta = np.ones(1, complex), np.zeros(1, complex)
    for s0 in range(0, n_steps, _CHUNK):
        j0, j1 = 2 * s0, 2 * min(s0 + _CHUNK, n_steps)
        x = read(j0, j1 + 1)
        a, b = _ordered_product(*_rk4_step_matrices(x[:-1:2], x[1::2], x[2::2], h, carrier[1 : j1 - j0 : 2], e1))
        b *= cmath.exp(1j * w * (ds * j0))  # the chunk's start phase P
        alpha, beta = _compose(a, b, alpha, beta)
    return alpha[0], beta[0]


def evolve(
    state: QubitState, waveform: PulseWaveform | TappedWaveform, params: QubitParams, *, _mirror: float | None = None
) -> QubitState:
    """Fixed-step RK4 propagation of the Schrodinger equation.

    The waveform must be sampled at half the integrator step, the grid
    :func:`synth_gate_pulse` and both distortion methods produce: each step
    reads its start, midpoint and end samples. The horizon is (length - 1) // 2
    steps, so an even-length waveform's last sample is not read. The propagator
    of all steps (:func:`_propagator`) is applied to the input state once.
    Raises if the norm drifts by more than 1e-6 and renormalizes a drift above 1e-12.

    With ``_mirror`` = s, a ground ``state`` and the first half of a mirrored
    calibration probe, it returns the whole probe's state, composed from the
    half's raw one (:func:`calibrate_amplitude`); the norm rules judge the whole.
    """
    alpha, beta = _propagator(waveform, params)
    g0, e0 = state.amplitudes
    g = complex(alpha * g0 - np.conj(beta) * e0)
    e = complex(beta * g0 + np.conj(alpha) * e0)
    # back to the lab frame at the final time
    t_end = (waveform.length - 1) // 2 * params.dt_s
    e_lab = e * cmath.exp(-1j * params.omega_q * t_end)
    if _mirror is not None:
        g, e = g * g + _mirror * e_lab * e_lab, g.conjugate() * e_lab - _mirror * g * e_lab.conjugate()
        return QubitState(np.array([g, e]) / _norm_divisor(g, e))
    return QubitState(np.array([g, e_lab]) / _norm_divisor(g, e))


def _norm_divisor(g: complex, e: complex) -> float:
    """What a propagated state (g, e) is divided by: its norm where that drifts from 1
    by more than 1e-12, else 1. A drift above 1e-6 raises: the step is too large."""
    norm = math.sqrt(abs(g) ** 2 + abs(e) ** 2)
    if not abs(norm - 1.0) <= 1e-6:  # false for NaN
        raise SimulationError(f"norm drift {abs(norm - 1.0):.3e} exceeds 1e-6; step too large")
    return norm if abs(norm - 1.0) > 1e-12 else 1.0


@lru_cache(maxsize=2)
def _calibration_probe(axis: str, duration_s: float, params: QubitParams) -> tuple[PulseWaveform, float, float | None]:
    """The unit probe :func:`calibrate_amplitude` scales for a gate about ``axis`` ("X" or
    "Y"), its envelope's rotating-wave area and its mirror sign ``s``; read-only.

    The probe is one gate at amplitude 1, x[j] = env[j] cos(w_q ds j + phi) for j = 0 .. 2N,
    so a pi and a pi/2 gate about one axis share it. Where x[2N - j] = s x[j] within
    rounding, s = +-1, and N is even, only samples 0 .. N are kept, the first N/2 steps.
    The envelope is symmetric, so s is None only where the carrier does not fit 2 f_q T
    periods or N is odd, and such a probe keeps all its samples.
    """
    unit = _sequence_samples([GateOp(axis)], duration_s, {axis: 1.0}, params)
    x = unit.samples
    area = float(np.trapezoid(_truncated_gaussian_envelope(unit.times, unit.dt_s * (x.size - 1)), dx=unit.dt_s))
    n = x.size // 2
    s = math.copysign(1.0, float(x @ x[::-1]))
    if n % 2 or np.max(np.abs(x[::-1] - s * x)) > 1e-11 * np.max(np.abs(x)):
        return unit, area, None
    half = x[: n + 1].copy()
    half.setflags(write=False)  # built only for the probe waveform, which adopts it
    return replace(unit, samples=half), area, s


def calibrate_amplitude(gate: GateOp, duration_s: float, params: QubitParams) -> float:
    """Envelope scale that realizes the gate's target rotation from |0>.

    Newton iteration on the ideal (undistorted) simulation from the
    rotating-wave estimate, run in every call. The drive is linear in the
    scale, so one cached unit probe (:func:`_calibration_probe`) is scaled for
    every probe. The residual is P_e - sin^2(theta/2) for pi/2 and the ground
    amplitude g for pi, where Gauss-Newton minimizes |g|^2 = 1 - P_e. The slope
    comes from probes at a +- h with a fixed h: a shrinking secant step loses
    it in the propagator's rounding noise.

    A probe with a mirror sign s is evolved over its first half only. The second
    half's steps read the first's samples reversed and scaled by s, so each keeps
    its mirror's alpha and has -s conj(beta / cm) (:func:`_rk4_step_matrices`), and
    from the half's raw lab-frame state (g, e) the whole probe's is (g^2 + s e^2,
    conj(g) e - s g conj(e)), e up to a phase exp(i w_q T/2) that no residual reads.
    :func:`evolve` composes it and applies its norm rules to the whole, so the
    whole's drift, about twice the half's, decides. Any other probe is evolved whole.
    """
    if gate.kind == "I":
        raise SimulationError("identity gate needs no amplitude calibration")
    probe, unit_area, s = _calibration_probe(gate.kind[0], duration_s, params)  # "X" or "Y": the gate's phase
    theta = gate.angle_rad
    est = theta / unit_area  # rotating-wave estimate: envelope area equals the rotation angle
    is_pi = theta > math.pi - 1e-12
    target = math.sin(theta / 2.0) ** 2

    def residual(a):
        samples = a * probe.samples
        samples.setflags(write=False)  # built only for the probe waveform, which adopts it
        g, e = evolve(GROUND, replace(probe, samples=samples), params, _mirror=s).amplitudes
        return g if is_pi else abs(e) ** 2 - target

    lo, hi = (0.5 * est, 1.5 * est) if is_pi else (0.2 * est, 1.6 * est)
    a, h = est, 1e-5 * est
    for _ in range(20):
        r_hi, r_lo = residual(a + h), residual(a - h)
        jac, mean = (r_hi - r_lo) / (2.0 * h), 0.5 * (r_hi + r_lo)
        step = (jac.conjugate() * mean).real / abs(jac) ** 2
        a -= step
        if not lo < a < hi:
            raise SimulationError("calibration left the bracket around the target rotation")
        if abs(step) <= 1e-12 * est:
            return float(a)
    raise SimulationError("calibration did not converge in 20 Newton steps")


def calibrated_amplitudes(kinds, duration_s: float, params: QubitParams) -> dict[str, float]:
    """Amplitude per gate kind; X/Y (and X90/Y90) share one calibration."""
    amps: dict[str, float] = {}
    by_angle: dict[float, float] = {}
    for kind in kinds:
        if kind == "I":
            amps[kind] = 0.0
            continue
        angle = GateOp(kind).angle_rad
        if angle not in by_angle:
            probe = GateOp("X" if angle == math.pi else "X90")
            by_angle[angle] = calibrate_amplitude(probe, duration_s, params)
        amps[kind] = by_angle[angle]
    return amps


@dataclass(frozen=True)
class FidelitySweepResult:
    """Fidelity deviation per gate pair along a swept axis."""

    axis: np.ndarray
    pairs: tuple[tuple[str, ...], ...]
    deviation: np.ndarray  # shape (len(axis), len(pairs))

    def __post_init__(self):
        a = _freeze(self.axis, float)
        d = _freeze(self.deviation, float)
        if d.shape != (a.size, len(self.pairs)):
            raise SimulationError("deviation shape does not match axis/pairs")
        if not np.all((d >= -1e-12) & (d <= 1.0 + 1e-12)):  # false for NaN
            raise SimulationError("fidelity deviation outside [0, 1]")
        object.__setattr__(self, "axis", a)
        object.__setattr__(self, "deviation", d)


def run_allxy(
    model: MismatchModel | None,
    duration_s: float,
    params: QubitParams,
    pairs=XY_PAIR,
    method: str = "taps",
) -> list[float]:
    """Fidelity deviation 1-F per gate pair between distorted and reference runs.

    The reference waveform is the same sequence passed through the direct
    path only (the k = 0 tap), so both runs share the line delay and the
    deviation isolates ghost-pulse interference. ``method`` selects the tap
    ladder ("taps") or the Fourier transmission response ("fourier").
    Without a ``model`` both runs share one drive, so every 1-F is 0 and
    nothing is simulated.
    """
    rows = _deviations([] if model is None else [model], duration_s, params, pairs, method)
    return [0.0] * len(pairs) if model is None else rows[0].tolist()


def _deviations(models, duration_s, params, pairs, method) -> np.ndarray:
    """:func:`run_allxy`'s 1-F of each (model, pair), shape (len(models), len(pairs)). Each pair's
    drive is synthesized once from its :func:`_placed` list, so a Fourier lane is a tap view of
    the gate's two convolutions, and its H[x], stored in the drive's quadrature cache for every
    model's tap view, sums the cached basis: no FFT spans a whole drive, a warm call runs no Hilbert
    transform and every lane evolved is a tap view. The order bounds the peak: the first pair's basis
    before calibration, each basis before its drive, and H[x] after the pair's first Fourier lane."""
    sequences = _fidelity_request(duration_s, params, pairs, method)
    out = np.zeros((len(models), len(sequences)))
    if not models:
        return out
    _quadrature_basis(len(sequences[0]), duration_s, params)
    amplitudes = calibrated_amplitudes({k for pair in pairs for k in pair}, duration_s, params)
    ladders = [impulse_response_taps(m) for m in models]
    responses = None
    if method == "fourier":  # the waveform is sampled at dt/2, so f_max = 1/dt
        windows = [m.transit_s + (m.max_reflections + 3) * m.spacing_s for m in models]
        responses = [impulse_response_fourier(m, 1.0 / params.dt_s, w) for m, w in zip(models, windows)]
    w, ds = params.omega_q, params.dt_s / 2.0
    n_gate = _gate_samples(duration_s, params)
    turn = cmath.exp(1j * w * (ds * n_gate))
    for j, gates in enumerate(sequences):
        basis = _quadrature_basis(len(gates), duration_s, params)
        placed = _placed(gates, duration_s, amplitudes, params)
        wf = PulseWaveform(ds, _placed_sum(placed, len(gates), duration_s, params), params.f_q)
        for i, ladder in enumerate(ladders):
            if responses:
                lane = _shape_convolution(duration_s, params, n_gate, placed, wf.length, responses[i])
            if i == 0:
                vars(wf)["_quadrature"] = _basis_quadrature(basis, wf.length, n_gate, placed, turn)
            view = distort(wf, ladder)
            dist_wf = lane if responses else view
            # the direct tap alone to one step past its last sample, then turned freely to the distorted lane's end
            ref_wf = replace(view, taps=view.taps[:1], length=view.taps[0][0] + wf.length + 2)
            g_r, e_r = evolve(GROUND, ref_wf, params).amplitudes
            g_d, e_d = evolve(GROUND, dist_wf, params).amplitudes
            steps = (dist_wf.length - 1) // 2 - (ref_wf.length - 1) // 2
            e_r = e_r * cmath.exp(-1j * w * (steps * params.dt_s))
            # for unit 2-vectors 1 - |<ref|dist>|^2 = |g_r e_d - e_r g_d|^2, with no cancellation against 1
            out[i, j] = abs(g_r * e_d - e_r * g_d) ** 2
    return out


def _run_sweep(template, values, fields, duration_s, params, pairs, method) -> FidelitySweepResult:
    """1-F per pair with every one of the template's ``fields`` set to each axis value in turn."""
    axis = np.asarray(values, dtype=float)
    if not axis.size:
        raise SimulationError("sweep axis is empty")
    models = [replace(template, **dict.fromkeys(fields, float(v))) for v in axis]
    deviation = _deviations(models, duration_s, params, pairs, method)
    return FidelitySweepResult(axis, tuple(tuple(p) for p in pairs), deviation)


def sweep_length(
    model_template: MismatchModel,
    lengths_m,
    duration_s: float,
    params: QubitParams,
    pairs=XY_PAIR,
    method: str = "taps",
    workers: int = 1,
) -> FidelitySweepResult:
    """1-F versus separation length at the template's fixed return loss.

    ``workers`` is accepted for compatibility and changes nothing: every
    sweep point runs in this process.
    """
    return _run_sweep(model_template, lengths_m, ("length_m",), duration_s, params, pairs, method)


def sweep_return_loss(
    model_template: MismatchModel,
    rls_db,
    duration_s: float,
    params: QubitParams,
    pairs=XY_PAIR,
    method: str = "taps",
    workers: int = 1,
) -> FidelitySweepResult:
    """1-F versus return loss (both elements set equal) at fixed length.

    ``workers`` is accepted for compatibility and changes nothing: every
    sweep point runs in this process.
    """
    return _run_sweep(model_template, rls_db, ("rl1_db", "rl2_db"), duration_s, params, pairs, method)

