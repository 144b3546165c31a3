"""Acceptance gate: one numbered criterion per test, one printed verdict line each.

Verdict lines are emitted with output capture suspended so they appear in
the run log for passing and failing criteria alike. Each test computes its
oracle values first, prints ``CRITERION n: PASS|FAIL ...``, then asserts.
"""
import math
import time

import numpy as np
import pytest
from dataclasses import replace

import cryocal as cc
from cryocal import qubitsim

from conftest import aligned_grid, constant_error_model, reflector_trace, shorted_line_trace

WIDE = aligned_grid(start_hz=1e7, step_hz=2.5e6, count=10597)
PARAMS = cc.QubitParams()
HEADLINE = cc.MismatchModel(15.0, 15.0, 0.276)


@pytest.fixture
def verdict(capsys):
    def _verdict(n: int, ok: bool, detail: str):
        line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _verdict


def midband(grid):
    f = grid.frequencies
    return (f > 2e9) & (f < 20e9)


def crossing_rl(axis, dev, threshold):
    ld = np.log10(dev)
    lt = math.log10(threshold)
    for i in range(len(axis) - 1):
        if (ld[i] - lt) * (ld[i + 1] - lt) <= 0 and dev[i] > dev[i + 1]:
            frac = (ld[i] - lt) / (ld[i] - ld[i + 1])
            return float(axis[i] + frac * (axis[i + 1] - axis[i]))
    return math.nan


def test_criterion_1_sol_round_trip(verdict):
    # 1000 randomized error boxes x randomized DUTs; < 1e-10 recovery, < 10 s.
    n = 1000
    grid = aligned_grid(count=n)
    rng = np.random.default_rng(42)
    t0 = time.time()
    e00 = 0.2 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    e11 = 0.2 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    e01e10 = 1.0 + 0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    box = cc.ErrorModelOnePort(grid=grid, e00=e00, e11=e11, delta_e=e00 * e11 - e01e10)
    gamma_true = rng.uniform(0, 1, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    defs = {
        "short": cc.ComplexTrace(grid=grid, values=np.full(n, -1.0 + 0j)),
        "open": cc.ComplexTrace(grid=grid, values=np.full(n, 1.0 + 0j)),
        "load": cc.ComplexTrace(grid=grid, values=np.full(n, 0.001 + 0j)),
    }
    standards = cc.StandardsSet(
        defined_short=defs["short"],
        defined_open=defs["open"],
        defined_load=defs["load"],
        measured_short=cc.forward_model(box, defs["short"]),
        measured_open=cc.forward_model(box, defs["open"]),
        measured_load=cc.forward_model(box, defs["load"]),
    )
    solved = cc.solve_error_model(standards)
    dut = cc.ComplexTrace(grid=grid, values=gamma_true)
    corrected = cc.apply_correction(solved, cc.forward_model(box, dut))
    err = float(np.max(np.abs(corrected.values - gamma_true)))
    elapsed = time.time() - t0
    ok = err < 1e-10 and elapsed < 10.0
    verdict(1, ok, f"SOL round-trip max error {err:.2e} (< 1e-10), {elapsed:.2f} s (< 10 s)")


def test_criterion_2_gating_amplitude_fidelity(verdict):
    trace = reflector_trace(WIDE, [(0.05, 0.0), (0.9, 2.15e-9)])
    mid = midband(WIDE)

    gate1 = cc.GateSpec(0.0, 3e-9)
    err1 = float(np.max(np.abs(np.abs(cc.apply_gate(trace, gate1).values[mid]) - 0.05) / 0.05))
    gate2 = cc.GATE_PRESETS["through-short"]
    err2 = float(np.max(np.abs(np.abs(cc.apply_gate(trace, gate2).values[mid]) - 0.9) / 0.9))

    splice_gate = cc.GateSpec(0.0, 5e-9, splice_below_cutoff=True)
    spliced = cc.apply_gate(trace, splice_gate)
    low = WIDE.frequencies < splice_gate.cutoff_hz
    splice_exact = bool(np.array_equal(spliced.values[low], trace.values[low]))

    ok = err1 < 0.01 and err2 < 0.01 and splice_exact
    verdict(
        2,
        ok,
        f"gated mid-band errors {err1:.2%}, {err2:.2%} (< 1%), "
        f"low-frequency splice exact: {splice_exact}",
    )


def test_criterion_3_insertion_loss_extraction(verdict):
    losses = (0.02, 0.99, 1.38, 4.72)
    mid = midband(WIDE)
    worst = 0.0
    for loss_db in losses:
        trace = shorted_line_trace(WIDE, loss_db)
        gated = cc.apply_gate(trace, cc.GATE_PRESETS["through-short"])
        recovered = cc.insertion_loss_db(cc.extract_insertion_loss(gated))
        worst = max(worst, float(np.max(np.abs(recovered[mid] - loss_db))))
    ok = worst < 0.05
    verdict(3, ok, f"losses {losses} dB recovered, worst mid-band error {worst:.4f} dB (< 0.05)")


def test_criterion_4_error_bar_reproduction(verdict):
    rows = [((0.019, 0.006), "35 +3/-2"), ((0.022, 0.006), "33 +3/-2")]
    rendered = [cc.format_return_loss(cc.to_return_loss(s, g)) for (s, g), _ in rows]
    expected = [disp for _, disp in rows]
    ok = rendered == expected
    verdict(4, ok, f"display rows {rendered} == {expected}")


def test_criterion_5_fidelity_thresholds(verdict):
    """Return losses at which 1-F at 5 ns crosses 1e-3 and 1e-4 (paper: 9.7 / 14.7 dB).

    Fails at 12.87 / 17.41 dB. The cause is a convention PAPER.md does not
    settle, not a fault found in the simulation. The crossings are read at
    one length, 0.276 m, but 1-F at fixed return loss swings with L: at
    15 dB it runs from 6.7e-7 to 9.8e-3 across one v_p / (4 f_q) = 10.49 mm
    period (criterion 7). Half a period is 1.9 % of 276 mm, so a 2 % change
    in v_p moves the value at 0.276 m anywhere in that band. The paper's
    lines imply about 0.9e-4 at 15 dB; this model gives 3.3e-4 there
    (pinned by test_headline_regression_value), and both lie inside the
    band. The abstract leaves open the three inputs that pick the point in
    the band: the section's v_p; whether the "276-mm path length" is one
    way or the round trip; and what "gate fidelity" means (state fidelity
    of an X-Y pair from |0>, as here, or an averaged or process fidelity).
    Changing the model to fit would also move the headline regression value.
    """
    rls = np.linspace(6.0, 20.5, 30)
    t0 = time.time()
    result = cc.sweep_return_loss(HEADLINE, rls, 5e-9, PARAMS, workers=1)
    elapsed = time.time() - t0
    dev = result.deviation[:, 0]
    rl_1e3 = crossing_rl(rls, dev, 1e-3)
    rl_1e4 = crossing_rl(rls, dev, 1e-4)
    ok = (
        abs(rl_1e3 - 9.7) <= 1.5
        and abs(rl_1e4 - 14.7) <= 1.5
        and elapsed < 300.0
    )
    verdict(
        5,
        ok,
        f"1e-3 crossing {rl_1e3:.2f} dB (9.7 +/- 1.5), "
        f"1e-4 crossing {rl_1e4:.2f} dB (14.7 +/- 1.5), "
        f"30-point sweep {elapsed:.1f} s (< 300 s)",
    )


def test_criterion_6_pulse_length_contrast(verdict):
    """(1-F) at 5 ns over (1-F) at 60 ns lies in [30, 300] at the headline model.

    Fails at 0.32. The cause is a calibration convention that neither the
    docstrings nor PAPER.md settle. On 24 lengths spanning one 10.49 mm
    period from 0.276 m the ratio runs from 0.005 to 188, because both
    deviations pass near zero at different lengths; its median is 1.85 and
    the ratio of the period-mean deviations is 1.92. A 60 ns pulse sees
    the line as its narrow-band gain H(f_q), which the direct-tap
    reference lacks, so its error tracks (|H(f_q)| - 1)^2 and swings with
    L as strongly as the 5 ns error does.

    The band brackets (60/5)^2 = 144, the contrast expected when the
    amplitude calibration absorbs that gain, i.e. when the pulses are
    calibrated through the distorted line and only the ghost's distortion
    of the envelope is left. Dividing the distorted drive's amplitude by
    |H(f_q)| gives a ratio of 47-52 over the same period. The program
    instead calibrates on the ideal line (calibrate_amplitude) and
    compares against a direct-tap reference (run_allxy).
    impulse_response_taps says only that "the static through-attenuation
    is absorbed into experimental amplitude calibration"; whether the
    Fabry-Perot factor at f_q is part of that is not stated there or in
    PAPER.md.
    """
    d5 = cc.run_allxy(HEADLINE, 5e-9, PARAMS)[0]
    d60 = cc.run_allxy(HEADLINE, 60e-9, PARAMS)[0]
    ratio = d5 / d60
    ok = 30.0 <= ratio <= 300.0
    verdict(6, ok, f"(1-F)_5ns / (1-F)_60ns = {d5:.3e}/{d60:.3e} = {ratio:.2f} (in [30, 300])")


def fitted_period(x, y, periods):
    """Period whose fit of a constant, a linear trend and one sinusoid to y(x)
    leaves the smallest least-squares residual."""
    x = x - x.mean()
    best_rss, best_period = math.inf, math.nan
    for period in periods:
        w = 2.0 * math.pi / period
        basis = np.column_stack([np.ones_like(x), x, np.cos(w * x), np.sin(w * x)])
        coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
        resid = y - basis @ coef
        rss = float(resid @ resid)
        if rss < best_rss:
            best_rss, best_period = rss, float(period)
    return best_period


def test_criterion_7_length_periodicity(verdict):
    """1-F versus separation length repeats every v_p / (4 f_q).

    The first ghost reaches the qubit 2L/v_p after the direct pulse, scaled
    by r^2 = alpha*beta and turned by the carrier phase
    theta = 2 pi f_q * 2L/v_p = 4 pi f_q L / v_p; call it eps = r^2 e^{-i theta}.
    The final state is smooth in (Re eps, Im eps) and equals the reference
    at eps = 0, where the state fidelity F has its maximum 1. So 1-F has no
    linear term: to leading order it is a quadratic form in (Re eps, Im eps),
    r^4 (q11 cos^2 theta + q22 sin^2 theta - 2 q12 cos theta sin theta)
    = a + b cos(2 theta + phi), plus O(r^6). That repeats when 2 theta
    advances by 2 pi, i.e. when L advances by v_p / (4 f_q) = 10.49 mm at
    v_p = 0.7 c, f_q = 5 GHz. The carrier period v_p / (2 f_q) = 20.99 mm
    enters only at O(r^6), through the cubic terms in eps and the cross
    term with the second ghost (r^4 e^{-2 i theta}); a joint fit of both
    periods to this sweep gives it about 2 r^2 of the leading amplitude
    (2.6e-4 against 4.69e-3 at 15 dB). The ghost delay moves the envelope
    overlap slowly over the 48 mm span; the fit's linear trend takes that
    up.

    The period is the best least-squares fit over 5-45 mm, a range that
    also holds v_p / (2 f_q), so the ghost's own carrier period would win
    the fit if 1-F followed it. An FFT peak cannot serve: over 96 x 0.5 mm
    its bins sit at 48/k mm (..., 12, 9.6, ...) and resolve neither period.
    """
    expected_mm = HEADLINE.v_p / (4 * PARAMS.f_q) * 1e3
    n, step_m = 96, 0.0005
    lengths = 0.24 + step_m * np.arange(n)
    result = cc.sweep_length(HEADLINE, lengths, 5e-9, PARAMS, workers=4)
    dev = result.deviation[:, 0]
    periods_m = np.arange(5.0, 45.0, 0.01) * 1e-3
    period_mm = fitted_period(lengths, dev, periods_m) * 1e3
    ok = abs(period_mm - expected_mm) <= 0.10 * expected_mm
    verdict(
        7,
        ok,
        f"fitted period {period_mm:.2f} mm vs v_p/(4 f_q) = {expected_mm:.2f} mm +/- 10%",
    )


def test_criterion_8_model_equivalence(verdict):
    worst = 0.0
    for rl in (12.0, 15.0, 20.0):
        model = cc.MismatchModel(rl, rl, 0.276)
        taps = cc.run_allxy(model, 60e-9, PARAMS, method="taps")[0]
        fourier = cc.run_allxy(model, 60e-9, PARAMS, method="fourier")[0]
        worst = max(worst, abs(taps - fourier) / taps)
    ok = worst < 0.20
    verdict(8, ok, f"tap vs Fourier deviation, worst relative difference {worst:.3f} (< 0.20)")


def test_criterion_9_physics_invariants(verdict):
    wf = cc.synth_gate_pulse(cc.GateOp("X"), 60e-9, PARAMS)
    alpha, beta = qubitsim._propagator(wf, PARAMS)  # before evolve renormalizes a drift above 1e-12
    norm_drift = abs(math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2) - 1.0)

    zero_dist = max(cc.run_allxy(None, 5e-9, PARAMS, pairs=cc.DEFAULT_PAIRS))
    rl_inf = cc.run_allxy(cc.MismatchModel(200.0, 200.0, 0.276), 5e-9, PARAMS)[0]

    d1 = cc.run_allxy(HEADLINE, 5e-9, PARAMS)[0]
    d2 = cc.run_allxy(HEADLINE, 5e-9, replace(PARAMS, dt_s=0.5e-12))[0]
    halving = abs(d1 - d2) / d1

    ok = norm_drift < 1e-9 and zero_dist < 1e-12 and rl_inf < 1e-10 and halving < 0.01
    verdict(
        9,
        ok,
        f"norm drift {norm_drift:.1e} (< 1e-9), zero-distortion {zero_dist:.1e} (< 1e-12), "
        f"RL->inf {rl_inf:.1e} (< 1e-10), step-halving change {halving:.2%} (< 1%)",
    )
