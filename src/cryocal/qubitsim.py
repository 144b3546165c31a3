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
from .traces import _freeze


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class QubitParams:
    """Qubit transition frequency and fixed integrator step."""

    omega_q: float = 2.0 * math.pi * 5e9
    dt_s: float = 1e-12

    def __post_init__(self):
        if self.omega_q <= 0:
            raise SimulationError("omega_q must be > 0")
        if not self.dt_s > 0:
            raise SimulationError("dt_s must be > 0")
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

ALLXY_GATES = ("I", "X", "Y", "X90", "Y90")


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
    """Unit-peak Gaussian, sigma = duration/4, baseline-subtracted to zero at the edges."""
    sigma = duration / 4.0
    g = np.exp(-((t - duration / 2.0) ** 2) / (2.0 * sigma**2))
    g0 = math.exp(-((duration / 2.0) ** 2) / (2.0 * sigma**2))
    env = (g - g0) / (1.0 - g0)
    return np.clip(env, 0.0, None)


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
    n_gate = int(round(duration_s / params.dt_s)) * 2  # samples per gate
    x = np.zeros(n_gate * len(gates) + 1)
    env = _truncated_gaussian_envelope(ds * np.arange(n_gate + 1), duration_s)
    table = _carrier_table(params.omega_q, ds, 2)  # two samples per step: the table evolve uses for these
    for i, gate in enumerate(gates):
        if gate.kind == "I":
            continue
        amp = amplitudes[gate.kind]
        for b in range(0, n_gate + 1, table.size):
            c = table[: min(table.size, n_gate + 1 - b)]
            j0 = i * n_gate + b
            psi = params.omega_q * (ds * j0) + gate.phase_rad
            x[j0 : j0 + c.size] += (amp * env[b : b + c.size]) * (math.cos(psi) * c.real - math.sin(psi) * c.imag)
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
def _carrier_table(omega_q: float, ds: float, m: int) -> np.ndarray:
    """exp(i w_q ds j) for j = 0 .. _CHUNK * m, read-only: the carrier of one
    chunk of steps of m samples each, shared by every chunk and every call."""
    table = np.exp(1j * omega_q * (ds * np.arange(_CHUNK * m + 1)))
    table.setflags(write=False)
    return table


def _compose(a2, b2, a1, b1):
    """(alpha, beta) of M2 @ M1, each M = [[alpha, -conj(beta)], [beta, conj(alpha)]].

    That form is closed under multiplication, so the pair (alpha, beta)
    carries the whole 2x2 matrix. Works elementwise on arrays and on scalars.
    """
    return a2 * a1 - np.conj(b2) * b1, b2 * a1 + np.conj(a2) * b1


def _rk4_step_matrices(u0, um, u1, h):
    """(alpha, beta) of the RK4 step matrix of every step, from its drive samples.

    With A(u) = -i [[0, conj(u)], [u, 0]], one RK4 step maps the state by
    M = I + h/6 (K1 + 2 K2 + 2 K3 + K4), where K1 = A0, K2 = Am (I + h/2 K1),
    K3 = Am (I + h/2 K2) and K4 = A1 (I + h K3). Products of two zero-diagonal
    matrices are diagonal and Am Am = -|um|^2 I, so M expands in closed form
    and has the (alpha, beta) structure of :func:`_compose`.
    """
    d = -(um.real**2 + um.imag**2)
    alpha = 1.0 + (h * h / 6.0) * (d - np.conj(um) * u0 - np.conj(u1) * um - (0.25 * h * h) * d * np.conj(u1) * u0)
    beta = (-1j * h / 6.0) * ((1.0 + 0.5 * h * h * d) * (u0 + u1) + 4.0 * um)
    return alpha, beta


def _ordered_product(alpha, beta):
    """(alpha, beta) of M[n-1] @ ... @ M[0] by pairwise reduction in log2(n) levels."""
    while alpha.size > 1:
        k = alpha.size // 2
        a, b = _compose(alpha[1 : 2 * k : 2], beta[1 : 2 * k : 2], alpha[0 : 2 * k : 2], beta[0 : 2 * k : 2])
        if alpha.size % 2:  # the last step has no partner: fold it into the last pair
            a[-1], b[-1] = _compose(alpha[-1], beta[-1], a[-1], b[-1])
        alpha, beta = a, b
    return alpha[0], beta[0]


def evolve(state: QubitState, waveform: PulseWaveform, params: QubitParams) -> QubitState:
    """Fixed-step RK4 propagation of the Schrodinger equation.

    The waveform sample interval must equal the integrator step or an even
    subdivision of it (synthesized pulses use dt/2, which supplies exact
    RK4 midpoint samples); at equal intervals the midpoint drive is the
    neighbour average. The equation is linear, so each RK4 step is a fixed
    2x2 matrix of its three drive samples. All step matrices of a chunk of
    2**14 steps are built at once and multiplied pairwise (later @ earlier)
    down to one matrix; the chunk products are folded in time order and
    applied to the input state once. Steps that start after the last
    nonzero sample see no drive and are exact identities, so they are
    skipped. Raises if the norm drifts by more than 1e-6.
    """
    ratio = params.dt_s / waveform.dt_s
    m = int(round(ratio))
    if abs(ratio - m) > 1e-9 or m < 1:
        raise SimulationError(
            f"waveform dt {waveform.dt_s:.3e} s is not an integer subdivision of "
            f"integrator step {params.dt_s:.3e} s"
        )
    if m > 1 and m % 2:
        raise SimulationError(f"odd subdivision {m} of the integrator step has no RK4 midpoint sample")
    x = waveform.samples
    n_steps = (x.size - 1) // m
    last = x.size - 1 - int(np.argmax(x[::-1] != 0))  # the last nonzero sample, if any
    n_driven = min(n_steps, last // m + 1) if x[last] else 0
    w = params.omega_q
    h = params.dt_s

    # drive in the interaction picture: u_j = x_j * exp(i w t_j); the carrier
    # over one chunk is shared by all chunks, each rotated by its start phase
    ds = waveform.dt_s
    carrier = _carrier_table(w, ds, m)
    alpha, beta = 1.0 + 0.0j, 0.0j
    for s0 in range(0, n_driven, _CHUNK):
        j0, j1 = s0 * m, min(s0 + _CHUNK, n_driven) * m
        u = x[j0 : j1 + 1] * (cmath.exp(1j * w * (ds * j0)) * carrier[: j1 - j0 + 1])
        u0, u1 = u[:-1:m], u[m::m]
        um = 0.5 * (u0 + u1) if m == 1 else u[m // 2 :: m]
        chunk = _ordered_product(*_rk4_step_matrices(u0, um, u1, h))
        alpha, beta = _compose(*chunk, alpha, beta)

    g0, e0 = state.amplitudes
    g = complex(alpha * g0 - np.conj(beta) * e0)
    e = complex(beta * g0 + np.conj(alpha) * e0)
    norm = math.sqrt(abs(g) ** 2 + abs(e) ** 2)
    if not abs(norm - 1.0) <= 1e-6:  # false for NaN
        raise SimulationError(f"norm drift {abs(norm - 1.0):.3e} exceeds 1e-6; step too large")
    # back to the lab frame at the final time
    t_end = n_steps * h
    e_lab = e * cmath.exp(-1j * w * t_end)
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
        g, e = evolve(GROUND, replace(unit, samples=a * unit.samples), params).amplitudes
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
    amplitudes: dict[str, float] | None = None,
) -> list[float]:
    """Fidelity deviation 1-F per gate pair between distorted and reference runs.

    The reference waveform is the same sequence passed through the direct
    path only (the k = 0 tap), so both runs share the line delay and the
    deviation isolates ghost-pulse interference. ``method`` selects the tap
    ladder ("taps") or the Fourier transmission response ("fourier").
    Without a ``model`` both runs share one drive, so every 1-F is 0 and
    nothing is simulated.
    """
    if not pairs:
        raise SimulationError("pairs must be non-empty")
    if method not in ("taps", "fourier"):
        raise SimulationError(f"unknown distortion method {method!r}")
    sequences = [[GateOp(k) for k in pair] for pair in pairs]
    if model is None:
        return [0.0] * len(sequences)
    kinds = {k for pair in pairs for k in pair}
    if amplitudes is None:
        amplitudes = calibrated_amplitudes(kinds, duration_s, params)
    missing = sorted(kinds - {"I"} - amplitudes.keys())
    if missing:
        raise SimulationError(f"amplitudes has no entry for gate {', '.join(missing)}")

    taps = impulse_response_taps(model)
    response = None
    if method == "fourier":
        window = model.transit_s + (model.max_reflections + 3) * model.spacing_s
        f_max = 1.0 / (params.dt_s)  # waveform sampled at dt/2
        response = impulse_response_fourier(model, f_max, window)

    direct = ImpulseResponse(taps=taps.taps[:1])
    out = []
    for gates in sequences:
        wf = _sequence_samples(gates, duration_s, amplitudes, params)
        dist_wf = distort_with_response(wf, response) if method == "fourier" else distort(wf, taps)
        ref_wf = distort(wf, direct)
        del wf  # with its analytic signal, before the padded copies below
        # evolve over a common horizon so lab-frame phases cancel in the overlap
        n = max(ref_wf.samples.size, dist_wf.samples.size)
        ref_wf = _pad(ref_wf, n)
        dist_wf = _pad(dist_wf, n)
        f = fidelity(evolve(GROUND, ref_wf, params), evolve(GROUND, dist_wf, params))
        out.append(max(0.0, 1.0 - f))
    return out


def _pad(wf: PulseWaveform, n: int) -> PulseWaveform:
    if wf.samples.size >= n:
        return wf
    padded = np.zeros(n)
    padded[: wf.samples.size] = wf.samples
    return PulseWaveform(wf.dt_s, padded, wf.carrier_hz)


def _run_sweep(models, axis, duration_s, params, pairs, method) -> FidelitySweepResult:
    if not models:
        raise SimulationError("sweep axis is empty")
    run_allxy(None, duration_s, params, pairs, method)  # checks pairs and method; simulates nothing
    kinds = {k for pair in pairs for k in pair}
    amplitudes = calibrated_amplitudes(kinds, duration_s, params)
    rows = [run_allxy(m, duration_s, params, pairs, method, amplitudes) for m in models]
    return FidelitySweepResult(
        axis=axis,
        pairs=tuple(tuple(p) for p in pairs),
        deviation=np.array(rows),
    )


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
    lengths = np.asarray(lengths_m, dtype=float)
    if np.any(lengths <= 0):
        raise SimulationError("lengths must be positive")
    models = [replace(model_template, length_m=float(L)) for L in lengths]
    return _run_sweep(models, lengths, duration_s, params, pairs, method)


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
    rls = np.asarray(rls_db, dtype=float)
    if np.any(rls <= 0):
        raise SimulationError("return losses must be positive")
    models = [replace(model_template, rl1_db=float(rl), rl2_db=float(rl)) for rl in rls]
    return _run_sweep(models, rls, duration_s, params, pairs, method)

