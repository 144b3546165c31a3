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
builds the matrices of all steps with array arithmetic and takes their
time-ordered product by pairwise reduction (later @ earlier) in log2(n)
vectorized levels, chunk by chunk so memory stays bounded; no Python code
runs per step. A scalar RK4 loop is kept in the tests as the reference.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .distortion import ImpulseResponse, MismatchModel, PulseWaveform, distort
from .distortion import distort_with_response, impulse_response_fourier, impulse_response_taps
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


def fidelity(a: QubitState, b: QubitState) -> float:
    """Squared overlap |<a|b>|^2; invariant under global phase."""
    ov = np.vdot(a.amplitudes, b.amplitudes)
    return float(min(1.0, abs(ov) ** 2))


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


def _sequence_samples(
    gates: list[GateOp],
    duration_s: float,
    amplitudes: dict[str, float],
    params: QubitParams,
) -> PulseWaveform:
    """Back-to-back gate pulses sampled at dt/2 with a coherent lab-frame carrier.

    Every gate shares one envelope. Its carrier cos(w_q t + phi) is built in
    blocks of the carrier table's length: from block start t_b on it is
    Re(exp(i (w_q t_b + phi)) * table), so no sample takes the cosine of a
    large argument.
    """
    if duration_s <= 10.0 * params.dt_s:
        raise SimulationError("duration must exceed 10 integrator steps")
    ds = params.dt_s / 2.0
    steps = duration_s / params.dt_s  # per gate
    _check_sample_count(2.0 * steps * len(gates), SimulationError, "the drive")
    n_gate = int(round(steps)) * 2  # samples per gate
    x = np.zeros(n_gate * len(gates) + 1)
    env = _truncated_gaussian_envelope(ds * np.arange(n_gate + 1), duration_s)
    table = _carrier_table(params.omega_q, ds)  # the table evolve uses for these samples
    for i, gate in enumerate(gates):
        if gate.kind == "I":
            continue
        amp = amplitudes[gate.kind]
        for b in range(0, n_gate + 1, table.size):
            c = table[: min(table.size, n_gate + 1 - b)]
            j0 = i * n_gate + b
            psi = params.omega_q * (ds * j0) + gate.phase_rad
            x[j0 : j0 + c.size] += (amp * env[b : b + c.size]) * (math.cos(psi) * c.real - math.sin(psi) * c.imag)
    x.setflags(write=False)  # built only for the waveform, which adopts it
    return PulseWaveform(ds, x, params.f_q)


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


def _propagator(waveform: PulseWaveform, params: QubitParams) -> tuple[complex, complex]:
    """(alpha, beta) of the interaction-picture propagator of the whole waveform,
    in the form of :func:`_compose`, before any renormalization.

    The equation is linear, so each RK4 step is a fixed 2x2 matrix of its
    start, midpoint and end samples and of the carrier at its midpoint
    (:func:`_rk4_step_matrices`). All step matrices of a chunk of 2**14
    steps are built at once from the real samples and the cached carrier
    table, which starts at phase 0, and multiplied pairwise (later @
    earlier) down to one matrix. The chunk's true carrier starts at
    P = exp(i w t0); with D = diag(1, P) each true step matrix is D M D^-1,
    so only the chunk product's beta is multiplied by P. The chunk products
    are folded in time order. Steps that start after the last nonzero
    sample see no drive and are exact identities, so they are skipped.
    The matrix scales every state's norm by sqrt(|alpha|^2 + |beta|^2), so
    that minus 1 is the raw RK4 norm drift.
    """
    if abs(params.dt_s / waveform.dt_s - 2.0) > 1e-9:
        raise SimulationError(
            f"waveform dt {waveform.dt_s:.3e} s is not half the integrator step {params.dt_s:.3e} s"
        )
    x = waveform.samples
    n_steps = (x.size - 1) // 2
    last = x.size - 1 - int(np.argmax(x[::-1] != 0))  # the last nonzero sample, if any
    n_driven = min(n_steps, last // 2 + 1) if x[last] else 0
    w = params.omega_q
    h = params.dt_s

    ds = waveform.dt_s
    carrier = _carrier_table(w, ds)
    e1 = carrier[1].conjugate()
    alpha, beta = np.ones(1, complex), np.zeros(1, complex)
    for s0 in range(0, n_driven, _CHUNK):
        j0, j1 = 2 * s0, 2 * min(s0 + _CHUNK, n_driven)
        x0, xm, x1 = x[j0 : j1 - 1 : 2], x[j0 + 1 : j1 : 2], x[j0 + 2 : j1 + 1 : 2]
        a, b = _ordered_product(*_rk4_step_matrices(x0, xm, x1, h, carrier[1 : j1 - j0 : 2], e1))
        b *= cmath.exp(1j * w * (ds * j0))  # the chunk's start phase P
        alpha, beta = _compose(a, b, alpha, beta)
    return alpha[0], beta[0]


def evolve(state: QubitState, waveform: PulseWaveform, params: QubitParams) -> QubitState:
    """Fixed-step RK4 propagation of the Schrodinger equation.

    The waveform must be sampled at half the integrator step, the grid
    :func:`synth_gate_pulse` and both distortion methods produce: each step
    reads its start, midpoint and end samples. The propagator of all steps
    (:func:`_propagator`) is applied to the input state once. Raises if the
    norm drifts by more than 1e-6 and renormalizes a drift above 1e-12.
    """
    alpha, beta = _propagator(waveform, params)
    g0, e0 = state.amplitudes
    g = complex(alpha * g0 - np.conj(beta) * e0)
    e = complex(beta * g0 + np.conj(alpha) * e0)
    norm = math.sqrt(abs(g) ** 2 + abs(e) ** 2)
    if not abs(norm - 1.0) <= 1e-6:  # false for NaN
        raise SimulationError(f"norm drift {abs(norm - 1.0):.3e} exceeds 1e-6; step too large")
    # back to the lab frame at the final time
    t_end = (waveform.samples.size - 1) // 2 * params.dt_s
    e_lab = e * cmath.exp(-1j * params.omega_q * t_end)
    return QubitState(np.array([g, e_lab]) / norm) if abs(norm - 1.0) > 1e-12 else QubitState(np.array([g, e_lab]))


def calibrate_amplitude(gate: GateOp, duration_s: float, params: QubitParams) -> float:
    """Envelope scale that realizes the gate's target rotation from |0>.

    Newton iteration on the ideal (undistorted) simulation from the
    rotating-wave estimate; the drive is linear in the scale, so one unit
    pulse is scaled for every probe. The residual is P_e - sin^2(theta/2)
    for pi/2 and the ground amplitude g for pi, where Gauss-Newton minimizes
    |g|^2 = 1 - P_e. The slope comes from probes at a +- h with a fixed h:
    a shrinking secant step loses it in the propagator's rounding noise.
    """
    if gate.kind == "I":
        raise SimulationError("identity gate needs no amplitude calibration")
    unit = _sequence_samples([gate], duration_s, {gate.kind: 1.0}, params)
    theta = gate.angle_rad
    # rotating-wave estimate: envelope area equals the rotation angle
    unit_area = float(np.trapezoid(_truncated_gaussian_envelope(unit.times, duration_s), dx=unit.dt_s))
    est = theta / unit_area
    is_pi = theta > math.pi - 1e-12
    target = math.sin(theta / 2.0) ** 2

    def residual(a):
        probe = a * unit.samples
        probe.setflags(write=False)  # built only for the probe waveform, which adopts it
        g, e = evolve(GROUND, replace(unit, samples=probe), params).amplitudes
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
    pairs: tuple[tuple[str, str], ...]
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


DEFAULT_PAIRS = tuple((a, b) for a in ALLXY_GATES for b in ALLXY_GATES)
XY_PAIR = (("X", "Y"),)


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
    drive is synthesized once, so every model shares its analytic signal."""
    if not pairs:
        raise SimulationError("pairs must be non-empty")
    if method not in ("taps", "fourier"):
        raise SimulationError(f"unknown distortion method {method!r}")
    for pair in pairs:
        if not pair:
            raise SimulationError(f"gate pair {pair!r} has no gate")
    sequences = [[GateOp(k) for k in pair] for pair in pairs]
    out = np.zeros((len(models), len(sequences)))
    if not models:
        return out
    amplitudes = calibrated_amplitudes({k for pair in pairs for k in pair}, duration_s, params)
    ladders = [impulse_response_taps(m) for m in models]
    responses = None
    if method == "fourier":  # the waveform is sampled at dt/2, so f_max = 1/dt
        windows = [m.transit_s + (m.max_reflections + 3) * m.spacing_s for m in models]
        responses = [impulse_response_fourier(m, 1.0 / params.dt_s, w) for m, w in zip(models, windows)]
    for j, gates in enumerate(sequences):
        wf = _sequence_samples(gates, duration_s, amplitudes, params)
        for i, taps in enumerate(ladders):
            # the reference lane first: its distort runs the pair's one Hilbert transform, whose
            # spectrum and FFT scratch then overlap no distorted lane
            ref = distort(wf, ImpulseResponse(taps=taps.taps[:1])).samples
            dist_wf = distort_with_response(wf, responses[i]) if responses else distort(wf, taps)
            if i == len(ladders) - 1:
                del wf  # with its analytic signal, before the padded copy below
            # evolve over a common horizon so lab-frame phases cancel in the overlap; the distorted
            # lane reaches past the direct tap (to the last tap or the window), so it is never shorter
            padded = np.pad(ref, (0, dist_wf.samples.size - ref.size))
            padded.setflags(write=False)  # built only for the reference waveform, which adopts it
            ref_wf = replace(dist_wf, samples=padded)
            f = fidelity(evolve(GROUND, ref_wf, params), evolve(GROUND, dist_wf, params))
            out[i, j] = max(0.0, 1.0 - f)
    return out


def _run_sweep(template, values, fields, what, duration_s, params, pairs, method) -> FidelitySweepResult:
    """1-F per pair with every one of the template's ``fields`` set to each positive axis value in turn."""
    axis = np.asarray(values, dtype=float)
    if not np.all(axis > 0):  # false for NaN
        raise SimulationError(f"{what} must be positive")
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
    return _run_sweep(model_template, lengths_m, ("length_m",), "lengths", duration_s, params, pairs, method)


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
    fields = ("rl1_db", "rl2_db")
    return _run_sweep(model_template, rls_db, fields, "return losses", duration_s, params, pairs, method)

