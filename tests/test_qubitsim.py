import cmath
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dataclasses import replace

from cryocal import (
    DEFAULT_PAIRS,
    XY_PAIR,
    GateOp,
    MismatchModel,
    PulseWaveform,
    QubitParams,
    QubitState,
    SimulationError,
    calibrate_amplitude,
    evolve,
    fidelity,
    run_allxy,
    sweep_length,
    sweep_return_loss,
    synth_gate_pulse,
)
from cryocal import distortion, qubitsim
from cryocal.distortion import distort, distort_with_response, impulse_response_fourier, impulse_response_taps
from cryocal.qubitsim import GROUND

PARAMS = QubitParams()
EXCITED = QubitState(np.array([0.0 + 0.0j, 1.0 + 0.0j]))


def pop_e(state):
    return abs(state.amplitudes[1]) ** 2


def _rk4_oracle(state, waveform, params):
    """Reference propagator: one scalar RK4 step per Python loop iteration."""
    x = waveform.samples  # sampled at dt/2: start, midpoint and end of each step
    n_steps = (x.size - 1) // 2
    w = params.omega_q
    ds = waveform.dt_s

    # drive in the interaction picture: u_j = x_j * exp(i w t_j)
    t = ds * np.arange(n_steps * 2 + 1)
    u = (x[: t.size] * np.exp(1j * w * t)).tolist()

    g, e = complex(state.amplitudes[0]), complex(state.amplitudes[1])
    h = params.dt_s
    half = 0.5 * h
    sixth = h / 6.0
    for n in range(n_steps):
        u0, um, u1 = u[2 * n], u[2 * n + 1], u[2 * n + 2]

        c0 = u0.conjugate()
        cm = um.conjugate()
        c1 = u1.conjugate()

        k1g = -1j * (c0 * e)
        k1e = -1j * (u0 * g)
        g2 = g + half * k1g
        e2 = e + half * k1e
        k2g = -1j * (cm * e2)
        k2e = -1j * (um * g2)
        g3 = g + half * k2g
        e3 = e + half * k2e
        k3g = -1j * (cm * e3)
        k3e = -1j * (um * g3)
        g4 = g + h * k3g
        e4 = e + h * k3e
        k4g = -1j * (c1 * e4)
        k4e = -1j * (u1 * g4)

        g = g + sixth * (k1g + 2.0 * k2g + 2.0 * k3g + k4g)
        e = e + sixth * (k1e + 2.0 * k2e + 2.0 * k3e + k4e)

    norm = math.sqrt(abs(g) ** 2 + abs(e) ** 2)
    if abs(norm - 1.0) > 1e-6:
        raise SimulationError(f"norm drift {abs(norm - 1.0):.3e} exceeds 1e-6; step too large")
    e_lab = e * cmath.exp(-1j * w * n_steps * h)
    return QubitState(np.array([g, e_lab]) / norm) if abs(norm - 1.0) > 1e-12 else QubitState(np.array([g, e_lab]))


def _rk4_step_matrices_complex(u0, um, u1, h):
    """(alpha, beta) of each RK4 step from the complex interaction-picture drive
    u = x exp(i w t): the closed form that the real-sample build must reproduce."""
    d = -(um.real**2 + um.imag**2)
    alpha = 1.0 + (h * h / 6.0) * (d - np.conj(um) * u0 - np.conj(u1) * um - (0.25 * h * h) * d * np.conj(u1) * u0)
    beta = (-1j * h / 6.0) * ((1.0 + 0.5 * h * h * d) * (u0 + u1) + 4.0 * um)
    return alpha, beta


# ------------------------------------------------------------ gates, states


def test_gate_table():
    assert GateOp("X").angle_rad == math.pi and GateOp("X").phase_rad == 0.0
    assert GateOp("Y").phase_rad == math.pi / 2
    assert GateOp("X90").angle_rad == math.pi / 2
    assert GateOp("I").angle_rad == 0.0
    with pytest.raises(SimulationError):
        GateOp("Z")
    with pytest.raises(SimulationError):
        qubitsim.calibrated_amplitudes(["Z"], 5e-9, PARAMS)


@pytest.mark.parametrize("dt_s", [0.0, -1e-12, math.nan, math.inf])
def test_nonpositive_step_rejected(dt_s):
    with pytest.raises(SimulationError, match="dt_s must be > 0"):
        QubitParams(dt_s=dt_s)


@pytest.mark.parametrize("omega_q", [0.0, math.nan, math.inf])
def test_nonpositive_qubit_frequency_rejected(omega_q):
    with pytest.raises(SimulationError, match="omega_q must be > 0"):
        QubitParams(omega_q=omega_q)


def test_state_norm_guard():
    with pytest.raises(SimulationError):
        QubitState(np.array([1.0, 1.0]))


def test_nan_state_rejected():
    # abs(nan - 1) > tol is false: a NaN norm must fail the check, not pass it
    with pytest.raises(SimulationError, match="norm nan"):
        QubitState(np.array([math.nan, 0.0]))


def test_fidelity_properties():
    plus = QubitState(np.array([1.0, 1.0]) / math.sqrt(2))
    assert fidelity(GROUND, GROUND) == 1.0
    assert fidelity(GROUND, EXCITED) == 0.0
    assert fidelity(GROUND, plus) == pytest.approx(0.5)
    rotated = QubitState(cmath.exp(0.7j) * GROUND.amplitudes)
    assert fidelity(rotated, GROUND) == 1.0


# ----------------------------------------------------------------- evolve


def test_ground_stationary_under_zero_drive():
    wf = PulseWaveform(PARAMS.dt_s / 2, np.zeros(2001), PARAMS.f_q)
    out = evolve(GROUND, wf, PARAMS)
    assert fidelity(out, GROUND) == pytest.approx(1.0, abs=1e-12)


def test_free_evolution_phase():
    n = 2001
    wf = PulseWaveform(PARAMS.dt_s / 2, np.zeros(n), PARAMS.f_q)
    total_t = (n - 1) * PARAMS.dt_s / 2
    out = evolve(EXCITED, wf, PARAMS)
    expected = cmath.exp(-1j * PARAMS.omega_q * total_t)
    assert out.amplitudes[1] == pytest.approx(expected, abs=1e-9)


def test_overflowing_drive_raises_instead_of_returning_nan():
    # a finite 1e200 drive overflows the step matrices to NaN; a [nan, nan]
    # state let through would read as fidelity 1.0 against GROUND
    wf = PulseWaveform(PARAMS.dt_s / 2.0, np.full(201, 1e200), PARAMS.f_q)
    with np.errstate(all="ignore"), pytest.raises(SimulationError, match="norm drift nan"):
        evolve(GROUND, wf, PARAMS)


def raw_norm_drift(wf, params):
    """sqrt(|alpha|^2 + |beta|^2) - 1 of the propagator, which evolve renormalizes away above 1e-12."""
    alpha, beta = qubitsim._propagator(wf, params)
    return abs(math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2) - 1.0)


def test_norm_conservation_60ns():
    wf = synth_gate_pulse(GateOp("X"), 60e-9, PARAMS)
    assert raw_norm_drift(wf, PARAMS) < 1e-9


def test_raw_norm_drift_that_evolve_renormalizes_is_reported():
    # a 5 ns X pulse at a 2 ps step drifts by about 3e-10: above the 1e-12 that
    # evolve renormalizes away, below the 1e-9 bound, so only the raw drift shows it
    params = replace(PARAMS, dt_s=2e-12)
    wf = synth_gate_pulse(GateOp("X"), 5e-9, params, amplitude=calibrate_amplitude(GateOp("X"), 5e-9, params))
    assert 1e-11 < raw_norm_drift(wf, params) < 1e-9
    assert abs(np.linalg.norm(evolve(GROUND, wf, params).amplitudes) - 1.0) < 1e-12


def _beating_drive(n_steps):
    # resonant carrier under a 7 ns beat; one spare trailing sample, which
    # evolve ignores because it starts no full step
    t = PARAMS.dt_s / 2 * np.arange(n_steps * 2 + 2)
    x = 1e9 * np.cos(PARAMS.omega_q * t + 0.3) * np.cos(2 * math.pi * t / 7e-9)
    return PulseWaveform(PARAMS.dt_s / 2, x, PARAMS.f_q)


def _xy_60ns_through_taps():
    gates = [GateOp("X"), GateOp("Y")]
    wf = qubitsim._sequence_samples(gates, 60e-9, {"X": 1e8, "Y": 1e8}, PARAMS)
    return distort(wf, impulse_response_taps(MismatchModel(15.0, 15.0, 0.276)))


def _xy_60ns_through_fourier():
    gates = [GateOp("X"), GateOp("Y")]
    wf = qubitsim._sequence_samples(gates, 60e-9, {"X": 1e8, "Y": 1e8}, PARAMS)
    m = MismatchModel(15.0, 15.0, 0.276)
    window = m.transit_s + (m.max_reflections + 3) * m.spacing_s  # the window run_allxy uses
    return distort_with_response(wf, impulse_response_fourier(m, 1.0 / PARAMS.dt_s, window))


@pytest.fixture(scope="module")
def x_pulse():
    return synth_gate_pulse(GateOp("X"), 5e-9, PARAMS)


def assert_matches_oracle(state, wf):
    got = evolve(state, wf, PARAMS).amplitudes
    want = _rk4_oracle(state, wf, PARAMS).amplitudes
    assert np.max(np.abs(got - want)) <= 1e-12


def test_evolve_matches_rk4_oracle_x_pulse(x_pulse):
    assert_matches_oracle(GROUND, x_pulse)


def test_evolve_matches_rk4_oracle_free_evolution():
    assert_matches_oracle(EXCITED, PulseWaveform(PARAMS.dt_s / 2, np.zeros(2001), PARAMS.f_q))


def test_evolve_matches_rk4_oracle_xy_60ns_through_taps():
    assert_matches_oracle(GROUND, _xy_60ns_through_taps())


def test_evolve_matches_rk4_oracle_xy_60ns_through_fourier():
    assert_matches_oracle(GROUND, _xy_60ns_through_fourier())


@pytest.mark.parametrize(
    "n_steps", [0, 1, qubitsim._CHUNK - 1, qubitsim._CHUNK, qubitsim._CHUNK + 1]
)
def test_evolve_matches_rk4_oracle_at_chunk_edges(n_steps):
    # odd lengths leave an unpaired step at some tree levels; chunk + 1 folds two chunks
    assert_matches_oracle(QubitState(np.array([1.0, 1.0j]) / math.sqrt(2)), _beating_drive(n_steps))


def _drive_ending_at(last, n_steps):
    """The beating drive with every sample after index ``last`` set to zero."""
    wf = _beating_drive(n_steps)
    x = wf.samples.copy()
    x[last + 1 :] = 0.0
    return PulseWaveform(wf.dt_s, x, wf.carrier_hz)


@pytest.mark.parametrize(
    "last, n_steps",
    [(2 * 700, 1000), (2 * qubitsim._CHUNK, qubitsim._CHUNK + 300), (-1, 1000)],
    ids=["at-a-step-start", "at-a-chunk-edge", "all-zero"],
)
def test_evolve_skips_the_zero_tail_exactly(last, n_steps):
    # every step after the last nonzero sample is the identity; the step
    # that starts at it is not, even when it is alone in its chunk
    wf = _drive_ending_at(last, n_steps)
    assert last < 0 or wf.samples[last] != 0.0
    assert_matches_oracle(QubitState(np.array([1.0, 1.0j]) / math.sqrt(2)), wf)


def _drive_window(kind, n_steps):
    """2 n + 1 real drive samples and the sample index j0 they start at: a seeded
    random drive, or the part of a 60 ns X pulse that starts at its second chunk."""
    if kind == "random":
        j0 = 2 * qubitsim._CHUNK * 3
        return 1e9 * np.random.default_rng(n_steps).standard_normal(2 * n_steps + 1), j0
    x = qubitsim._sequence_samples([GateOp("X")], 60e-9, {"X": 3e8}, PARAMS).samples
    j0 = 2 * qubitsim._CHUNK
    return x[j0 : j0 + 2 * n_steps + 1], j0


@pytest.mark.parametrize("kind", ["random", "sequence"])
@pytest.mark.parametrize("n_steps", [1, 2, 3, qubitsim._CHUNK - 1, qubitsim._CHUNK])
def test_step_matrices_from_real_samples_match_the_complex_closed_form(kind, n_steps):
    x, j0 = _drive_window(kind, n_steps)
    h, w, ds = PARAMS.dt_s, PARAMS.omega_q, PARAMS.dt_s / 2
    table = qubitsim._carrier_table(w, ds)
    phase = cmath.exp(1j * w * (ds * j0))
    u = x * (phase * table[: x.size])  # the complex drive, one table entry per sample
    want_a, want_b = _rk4_step_matrices_complex(u[:-1:2], u[1::2], u[2::2], h)
    got_a, got_b = qubitsim._rk4_step_matrices(x[:-1:2], x[1::2], x[2::2], h, phase * table[1 : x.size : 2], table[1].conjugate())
    # Each table entry carries the rounding of its argument w ds j, up to half
    # a spacing at the largest (514 rad at a full chunk, about 6e-14), and each
    # product of two drive samples differs in phase by at most twice that, plus
    # a few roundings of the arithmetic. The bound scales the largest term.
    eps = np.finfo(float).eps
    delta = np.spacing(w * ds * (x.size - 1)) / 2
    tol = 4.0 * (2.0 * delta + 4.0 * eps)
    a0, am, a1 = np.abs(x[:-1:2]), np.abs(x[1::2]), np.abs(x[2::2])
    alpha_terms = h * h / 6.0 * np.max(am * (am + a0 + a1) + 0.25 * h * h * am * am * a0 * a1)
    beta_terms = h / 6.0 * np.max(a0 + 4.0 * am + a1)
    assert np.max(np.abs(got_a - want_a)) <= tol * alpha_terms + 2.0 * eps
    assert np.max(np.abs(got_b - want_b)) <= tol * beta_terms


@pytest.mark.parametrize("m", [1, 3, 4, 5])
def test_drive_off_the_half_step_grid_rejected(m):
    # each RK4 step reads its start, midpoint and end: samples at dt/2 only
    wf = PulseWaveform(PARAMS.dt_s / m, np.zeros(10 * m + 1), PARAMS.f_q)
    with pytest.raises(SimulationError, match="not half the integrator step"):
        evolve(GROUND, wf, PARAMS)


# -------------------------------------------------------------- synthesis


def _direct_sequence(gates, duration_s, amplitudes):
    """amp * env(t - t0) * cos(w_q t + phi) per gate, each cosine at its full argument."""
    n_gate = int(round(duration_s / PARAMS.dt_s)) * 2
    t = PARAMS.dt_s / 2 * np.arange(n_gate * len(gates) + 1)
    x = np.zeros(t.size)
    for i, gate in enumerate(gates):
        if gate.kind != "I":
            seg = slice(i * n_gate, (i + 1) * n_gate + 1)
            env = qubitsim._truncated_gaussian_envelope(t[seg] - i * duration_s, duration_s)
            x[seg] += amplitudes[gate.kind] * env * np.cos(PARAMS.omega_q * t[seg] + gate.phase_rad)
    return x


def assert_matches_direct_sequence(gates, duration_s, amplitudes):
    got = qubitsim._sequence_samples(gates, duration_s, amplitudes, PARAMS).samples
    want = _direct_sequence(gates, duration_s, amplitudes)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(amplitudes.values())
    return got


@pytest.mark.parametrize("duration_s", [5e-9, 60e-9])
@pytest.mark.parametrize("kind", qubitsim.ALLXY_GATES)
def test_sequence_samples_match_the_direct_carrier(kind, duration_s):
    got = assert_matches_direct_sequence([GateOp(kind)], duration_s, {kind: 3e8})
    assert np.any(got) == (kind != "I")


def test_sequence_samples_match_the_direct_carrier_over_many_table_blocks():
    # each 60 ns gate spans several carrier-table blocks
    table = qubitsim._carrier_table(PARAMS.omega_q, PARAMS.dt_s / 2)
    assert 120_001 > 3 * table.size
    assert_matches_direct_sequence([GateOp("X"), GateOp("Y")], 60e-9, {"X": 3e8, "Y": 2e8})


def _envelope_formula(t, duration):
    """The truncated Gaussian as one expression, a new array per operation:
    the reference that the in-place build must equal bit for bit."""
    sigma = duration / 4.0
    g = np.exp(-((t - duration / 2.0) ** 2) / (2.0 * sigma**2))
    g0 = math.exp(-((duration / 2.0) ** 2) / (2.0 * sigma**2))
    return np.clip((g - g0) / (1.0 - g0), 0.0, None)


@pytest.mark.parametrize("ds", [0.5e-12, 0.25e-12])
@pytest.mark.parametrize("duration_s", [5e-9, 7.3e-9, 60e-9])
def test_envelope_built_in_place_equals_the_formula_bit_for_bit(duration_s, ds):
    t = ds * np.arange(int(round(duration_s / ds)) + 1)
    times = t.copy()
    got = qubitsim._truncated_gaussian_envelope(t, duration_s)
    assert np.array_equal(got, _envelope_formula(t, duration_s)) and np.array_equal(t, times)


# ------------------------------------------------------------- calibration


def test_half_pi_calibration_contract():
    wf = synth_gate_pulse(GateOp("X90"), 5e-9, PARAMS)
    out = evolve(GROUND, wf, PARAMS)
    assert pop_e(out) == pytest.approx(0.5, abs=1e-8)


@pytest.mark.parametrize("kind", ["X", "X90"])
def test_calibration_matches_oracle_driven_calibration(kind, monkeypatch):
    fast = calibrate_amplitude(GateOp(kind), 5e-9, PARAMS)
    monkeypatch.setattr(qubitsim, "evolve", _rk4_oracle)
    slow = calibrate_amplitude(GateOp(kind), 5e-9, PARAMS)
    assert fast == pytest.approx(slow, rel=1e-7)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "amplitude-only tuning cannot null the axis tilt produced by the "
        "counter-rotating drive term; for a 5 ns pi pulse the excited-state "
        "population saturates about 6.5e-5 short of 1, far above the 1e-8 target"
    ),
)
def test_pi_calibration_contract():
    wf = synth_gate_pulse(GateOp("X"), 5e-9, PARAMS)
    out = evolve(GROUND, wf, PARAMS)
    assert 1.0 - pop_e(out) < 1e-8


def test_pi_calibration_best_effort():
    # The achievable floor: population within 1e-4 of full inversion.
    wf = synth_gate_pulse(GateOp("X"), 5e-9, PARAMS)
    out = evolve(GROUND, wf, PARAMS)
    assert 1.0 - pop_e(out) < 1e-4


@pytest.mark.parametrize("duration_s", [5e-9, 60e-9])
def test_pi_amplitude_is_stationary_point_of_ground_population(duration_s):
    # |g|^2 = 1 - P_e is flat at its minimum, so a central-difference Newton
    # step from the calibrated amplitude must vanish at any small probe width
    a = calibrate_amplitude(GateOp("X"), duration_s, PARAMS)
    unit = synth_gate_pulse(GateOp("X"), duration_s, PARAMS, amplitude=1.0)

    def ground(amp):
        return evolve(GROUND, replace(unit, samples=amp * unit.samples), PARAMS).amplitudes[0]

    for rel in (1e-5, 1e-6):
        h = rel * a
        g_hi, g_lo = ground(a + h), ground(a - h)
        slope = (g_hi - g_lo) / (2 * h)
        step = (np.conj(slope) * (g_hi + g_lo) / 2).real / abs(slope) ** 2
        assert abs(step) <= 1e-12 * a


def test_60ns_pi_calibration_takes_at_most_six_evolves(monkeypatch):
    calls = []
    monkeypatch.setattr(qubitsim, "evolve", lambda *a: calls.append(1) or evolve(*a))
    calibrate_amplitude(GateOp("X"), 60e-9, PARAMS)
    assert len(calls) <= 6


def test_calibration_rejects_zero_duration():
    # the duration guard fires before the rotating-wave estimate divides by
    # the envelope area, which is zero for a zero duration
    with pytest.raises(SimulationError, match="10 integrator steps"):
        calibrate_amplitude(GateOp("X"), 0.0, PARAMS)


def test_declared_numpy_floor_has_trapezoid():
    # calibrate_amplitude calls np.trapezoid, which numpy added in 2.0
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', text)
    assert floor and (int(floor[1]), int(floor[2])) >= (2, 0)


def test_amplitude_area_scaling():
    a5 = calibrate_amplitude(GateOp("X"), 5e-9, PARAMS)
    a10 = calibrate_amplitude(GateOp("X"), 10e-9, PARAMS)
    assert a10 == pytest.approx(a5 / 2, rel=0.2)


def test_identity_gate_zero_waveform():
    wf = synth_gate_pulse(GateOp("I"), 5e-9, PARAMS)
    assert not np.any(wf.samples)


@pytest.mark.parametrize("duration_s", [5e-9, 60e-9])
@pytest.mark.parametrize("kind", qubitsim.ALLXY_GATES)
def test_synth_gate_pulse_drives_the_amplitude_of_run_allxy(kind, duration_s):
    # Y takes X's calibration and Y90 X90's, as in every fidelity run
    amps = qubitsim.calibrated_amplitudes([kind], duration_s, PARAMS)
    want = qubitsim._sequence_samples([GateOp(kind)], duration_s, amps, PARAMS).samples
    np.testing.assert_array_equal(synth_gate_pulse(GateOp(kind), duration_s, PARAMS).samples, want)


def test_envelope_peak_centered():
    wf = synth_gate_pulse(GateOp("X"), 5e-9, PARAMS, amplitude=1.0)
    env_peak_t = wf.times[np.argmax(np.abs(wf.samples))]
    assert env_peak_t == pytest.approx(2.5e-9, abs=0.1e-9)
    assert abs(wf.samples[0]) < 1e-6 and abs(wf.samples[-1]) < 1e-6


# ---------------------------------------------------------------- run_allxy


def test_zero_distortion_identity():
    devs = run_allxy(None, 5e-9, PARAMS, pairs=DEFAULT_PAIRS)
    assert len(devs) == 25
    assert all(d < 1e-12 for d in devs)


def test_zero_distortion_simulates_nothing(monkeypatch):
    def no_evolve(*args):
        raise AssertionError("evolve called without a distortion model")

    monkeypatch.setattr(qubitsim, "evolve", no_evolve)
    assert run_allxy(None, 5e-9, PARAMS, pairs=DEFAULT_PAIRS) == [0.0] * 25


def test_taps_path_builds_one_analytic_signal_per_pair(monkeypatch):
    # a sweep synthesizes each pair once, so its points share one analytic signal
    calls = []
    hilbert = distortion._hilbert_transform
    monkeypatch.setattr(distortion, "_hilbert_transform", lambda x: calls.append(x.size) or hilbert(x))
    m, pairs = MismatchModel(15.0, 15.0, 0.276), (("X", "Y"), ("Y", "X"))
    runs = [
        lambda: run_allxy(m, 5e-9, PARAMS, pairs=pairs),
        lambda: sweep_return_loss(m, np.array([14.0, 15.0, 16.0]), 5e-9, PARAMS, pairs=pairs),
        lambda: sweep_length(m, np.array([0.27, 0.276, 0.28]), 5e-9, PARAMS, pairs=pairs),
    ]
    for run in runs:
        calls.clear()
        run()
        assert len(calls) == len(pairs)


@pytest.mark.parametrize("method", ["taps", "fourier"])
def test_run_allxy_waveforms_adopt_the_arrays_built_for_them(method, monkeypatch):
    # gate synthesis, calibration probes, distort and the padded reference
    # build each array only for its waveform; only the Fourier convolution
    # hands over a view of its FFT buffer, which must be copied
    adopted = []
    freeze = distortion._freeze

    def spy(a, dtype=None):
        out = freeze(a, dtype)
        adopted.append(out is a)
        return out

    monkeypatch.setattr(distortion, "_freeze", spy)
    pairs = (("X", "Y"), ("Y90", "X"))
    run_allxy(MismatchModel(15.0, 15.0, 0.276), 5e-9, PARAMS, pairs=pairs, method=method)
    assert adopted.count(False) == (len(pairs) if method == "fourier" else 0) and adopted.count(True) > 10


def test_60ns_run_allxy_peak_memory_with_its_cached_tables():
    # measured warm: the cached Hilbert kernel spectrum and carrier table are
    # counted once, by size, on top of the traced peak of both methods
    model = MismatchModel(15.0, 15.0, 0.276)
    for method in ("taps", "fourier"):
        run_allxy(model, 60e-9, PARAMS, method=method)
    tracemalloc.start()
    try:
        for method in ("taps", "fourier"):
            run_allxy(model, 60e-9, PARAMS, method=method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = 240_001  # samples of a 60 ns XY pair
    tables = distortion._hilbert_spectrum(n, distortion._fast_len(2 * n - 1)).nbytes
    tables += qubitsim._carrier_table(PARAMS.omega_q, PARAMS.dt_s / 2).nbytes
    assert peak + tables <= 15e6, (peak, tables)


@pytest.mark.parametrize("method", ["taps", "fourier"])
def test_60ns_hilbert_transform_overlaps_no_distorted_lane(method, monkeypatch):
    # the reference lane is built first, so when the pair's one Hilbert
    # transform starts, only the drive and (Fourier) the sampled response are
    # alive; the distorted lane alone would add 2.3 MB
    model = MismatchModel(15.0, 15.0, 0.276)
    run_allxy(model, 60e-9, PARAMS, method=method)  # warm: the cached tables are not traced
    at_entry = []
    hilbert = distortion._hilbert_transform

    def spy(x):
        at_entry.append((tracemalloc.get_traced_memory()[0], x.nbytes))
        return hilbert(x)

    monkeypatch.setattr(distortion, "_hilbert_transform", spy)
    tracemalloc.start()
    try:
        run_allxy(model, 60e-9, PARAMS, method=method)
    finally:
        tracemalloc.stop()
    [(current, drive)] = at_entry
    response = 0
    if method == "fourier":
        window = model.transit_s + (model.max_reflections + 3) * model.spacing_s  # the window run_allxy uses
        response = impulse_response_fourier(model, 1.0 / PARAMS.dt_s, window).values.nbytes
    assert current <= drive + response + 0.25e6, (current, drive, response)


def test_infinite_return_loss_limit():
    dev = run_allxy(MismatchModel(200.0, 200.0, 0.276), 5e-9, PARAMS)[0]
    assert dev < 1e-10


def test_headline_regression_value():
    dev = run_allxy(MismatchModel(15.0, 15.0, 0.276), 5e-9, PARAMS)[0]
    assert 1e-4 < dev < 1e-3
    assert dev == pytest.approx(3.3064e-4, rel=1e-2)


def test_rl_swap_invariance():
    a = run_allxy(MismatchModel(12.0, 18.0, 0.276), 5e-9, PARAMS)[0]
    b = run_allxy(MismatchModel(18.0, 12.0, 0.276), 5e-9, PARAMS)[0]
    assert abs(a - b) < 1e-10


def test_step_halving_convergence():
    m = MismatchModel(15.0, 15.0, 0.276)
    d1 = run_allxy(m, 5e-9, PARAMS)[0]
    d2 = run_allxy(m, 5e-9, replace(PARAMS, dt_s=0.5e-12))[0]
    assert abs(d1 - d2) / d1 < 0.01


def test_taps_vs_fourier_methods_agree():
    m = MismatchModel(15.0, 15.0, 0.276)
    a = run_allxy(m, 5e-9, PARAMS, method="taps")[0]
    b = run_allxy(m, 5e-9, PARAMS, method="fourier")[0]
    assert b == pytest.approx(a, rel=0.05)


# ------------------------------------------------------------------ sweeps


def test_sweep_shapes_and_axis():
    m = MismatchModel(15.0, 15.0, 0.276)
    rls = np.array([14.0, 16.0, 18.0])
    res = sweep_return_loss(m, rls, 5e-9, PARAMS)
    assert res.deviation.shape == (3, 1)
    np.testing.assert_array_equal(res.axis, rls)
    assert res.pairs == XY_PAIR


def test_sweep_monotone_in_rl():
    m = MismatchModel(15.0, 15.0, 0.276)
    rls = np.array([8.0, 12.0, 16.0, 20.0, 24.0])
    res = sweep_return_loss(m, rls, 5e-9, PARAMS)
    dev = res.deviation[:, 0]
    assert np.all(np.diff(dev) < 0)


def test_sweep_workers_deterministic():
    m = MismatchModel(15.0, 15.0, 0.276)
    lengths = np.array([0.26, 0.27, 0.28, 0.29])
    serial = sweep_length(m, lengths, 5e-9, PARAMS, workers=1)
    parallel = sweep_length(m, lengths, 5e-9, PARAMS, workers=2)
    np.testing.assert_array_equal(serial.deviation, parallel.deviation)


def test_sweep_validation():
    m = MismatchModel(15.0, 15.0, 0.276)
    with pytest.raises(SimulationError):
        sweep_length(m, np.array([-0.1, 0.2]), 5e-9, PARAMS)
    with pytest.raises(SimulationError):
        sweep_return_loss(m, np.array([0.0, 10.0]), 5e-9, PARAMS)
    with pytest.raises(SimulationError, match="lengths must be positive"):
        sweep_length(m, np.array([0.2, math.nan]), 5e-9, PARAMS)
    with pytest.raises(SimulationError, match="return losses must be positive"):
        sweep_return_loss(m, np.array([math.nan, 10.0]), 5e-9, PARAMS)


@pytest.mark.parametrize("sweep", [sweep_length, sweep_return_loss])
def test_sweep_rejects_an_empty_axis_before_calibrating(sweep, monkeypatch):
    monkeypatch.setattr(qubitsim, "calibrated_amplitudes", lambda *a: pytest.fail("calibrated an empty sweep"))
    with pytest.raises(SimulationError, match="axis is empty"):
        sweep(MismatchModel(15.0, 15.0, 0.276), np.array([]), 5e-9, PARAMS)


@pytest.mark.parametrize("sweep", [sweep_length, sweep_return_loss])
def test_sweep_rejects_an_unknown_method_before_calibrating(sweep, monkeypatch):
    monkeypatch.setattr(qubitsim, "calibrated_amplitudes", lambda *a: pytest.fail("calibrated before checking the method"))
    with pytest.raises(SimulationError, match="unknown distortion method 'bogus'"):
        sweep(MismatchModel(15.0, 15.0, 0.276), np.array([15.0]), 5e-9, PARAMS, method="bogus")


@pytest.mark.parametrize(
    "run",
    [
        lambda m, pairs: run_allxy(None, 5e-9, PARAMS, pairs=pairs),
        lambda m, pairs: run_allxy(m, 5e-9, PARAMS, pairs=pairs),
        lambda m, pairs: sweep_return_loss(m, np.array([15.0]), 5e-9, PARAMS, pairs=pairs),
        lambda m, pairs: sweep_length(m, np.array([0.276]), 5e-9, PARAMS, pairs=pairs),
    ],
    ids=["run_allxy-no-model", "run_allxy", "sweep_return_loss", "sweep_length"],
)
def test_empty_gate_pair_is_named_before_calibrating(run, monkeypatch):
    monkeypatch.setattr(qubitsim, "calibrated_amplitudes", lambda *a: pytest.fail("calibrated before checking the pairs"))
    with pytest.raises(SimulationError, match=r"gate pair \(\) has no gate"):
        run(MismatchModel(15.0, 15.0, 0.276), [("X", "Y"), ()])


@pytest.mark.parametrize("method", ["taps", "fourier"])
@pytest.mark.parametrize("sweep, axis, field", [
    (sweep_return_loss, [12.0, 15.0, 18.0], ("rl1_db", "rl2_db")),
    (sweep_length, [0.27, 0.276, 0.28], ("length_m",)),
])
def test_sweep_row_is_the_single_point_call(sweep, axis, field, method):
    template, pairs = MismatchModel(15.0, 15.0, 0.276), (("X", "Y"), ("Y90", "X"))
    result = sweep(template, np.array(axis), 5e-9, PARAMS, pairs=pairs, method=method)
    for row, value in zip(result.deviation, axis):
        model = replace(template, **{name: value for name in field})
        assert np.array_equal(row, run_allxy(model, 5e-9, PARAMS, pairs=pairs, method=method))


def test_sweep_result_rejects_a_nan_deviation():
    with pytest.raises(SimulationError, match="outside"):
        qubitsim.FidelitySweepResult(np.array([15.0, 16.0]), XY_PAIR, np.array([[1e-3], [math.nan]]))


# ------------------------------------------------------ frozen results


def test_frozen_results_leave_the_callers_arrays_writeable():
    from cryocal import ErrorModelOnePort, FrequencyGrid, UncertaintyTable

    terms = [np.full(3, v) for v in (0.1 + 0j, 0.2 + 0j, -0.79 + 0j)]
    model = ErrorModelOnePort(FrequencyGrid(1e9, 1e9, 3), *terms)
    columns = [np.array([0.0, 50.0]), np.array([0.002, 0.004])]
    table = UncertaintyTable(*columns)
    rls = np.array([30.0, 40.0])
    result = sweep_return_loss(MismatchModel(15.0, 15.0, 0.276), rls, 5e-9, PARAMS)
    assert all(a.flags.writeable for a in [*terms, *columns, rls])
    frozen = [model.e00, model.e11, model.delta_e, table.s11_db, table.sigma_linear, result.axis, result.deviation]
    assert not any(a.flags.writeable for a in frozen)
