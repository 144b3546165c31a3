import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cryocal import (
    GATE_PRESETS,
    FrequencyGrid,
    GateError,
    GateSpec,
    GridError,
    MismatchModel,
    apply_gate,
    extract_insertion_loss,
    impulse_response_fourier,
    insertion_loss_db,
    to_time_domain,
)

from conftest import aligned_grid, reflector_trace, shorted_line_trace

# Aligned grid covering 10 MHz .. 26.5 GHz in 2.5 MHz steps, the kind of
# grid produced by a wideband reflection measurement.
WIDE = aligned_grid(start_hz=1e7, step_hz=2.5e6, count=10597)


def midband(grid):
    f = grid.frequencies
    return (f > 2e9) & (f < 20e9)


def time_step(h, grid):
    """The sample interval to_time_domain documents for its n samples: 1/(n step_hz)."""
    return 1.0 / (h.size * grid.step_hz)


def test_time_domain_peak_location():
    tr = reflector_trace(WIDE, [(0.05, 0.0), (0.9, 2.15e-9)])
    h = to_time_domain(tr)
    dt = time_step(h, WIDE)
    peak_t = dt * np.argmax(np.abs(h))
    assert abs(peak_t - 2.15e-9) < 2 * dt


def test_two_tap_amplitude_ratio():
    # 0.05 at dc and 0.9 at 2.15 ns: time peaks in 18:1 ratio.
    tr = reflector_trace(WIDE, [(0.05, 0.0), (0.9, 2.15e-9)])
    h = to_time_domain(tr)
    t = time_step(h, WIDE) * np.arange(h.size)
    early = np.max(np.abs(h[t < 1e-9]))
    late = np.max(np.abs(h[(t > 1.5e-9) & (t < 3e-9)]))
    assert late / early == pytest.approx(18.0, rel=0.05)


@pytest.mark.parametrize(
    "transform",
    [lambda: to_time_domain(reflector_trace(WIDE, [(0.9, 2.15e-9)])),
     lambda: impulse_response_fourier(MismatchModel(15.0, 15.0, 0.276), 1e12, 1e-8)],
    ids=["to_time_domain", "impulse_response_fourier"],
)
def test_transform_returns_its_inverse_fft_read_only(transform, monkeypatch):
    # each inverse transform hands back numpy's own irfft output, frozen in place: no copy, no wrapper
    made = []
    irfft = np.fft.irfft

    def spy(*args, **kwargs):
        made.append(irfft(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(np.fft, "irfft", spy)
    h = transform()
    assert len(made) == 1 and h is made[0] and type(h) is np.ndarray and not h.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        h[0] = 1.0


def test_gate_selects_single_reflector():
    tr = reflector_trace(WIDE, [(0.05, 0.0), (0.9, 2.15e-9)])
    gated = apply_gate(tr, GateSpec(0.0, 3e-9))
    mid = midband(WIDE)
    np.testing.assert_allclose(np.abs(gated.values[mid]), 0.05, rtol=0.01)


def test_gate_on_shifted_reflector():
    tr = reflector_trace(WIDE, [(0.05, 0.0), (0.9, 2.15e-9)])
    gated = apply_gate(tr, GATE_PRESETS["through-short"])
    mid = midband(WIDE)
    np.testing.assert_allclose(np.abs(gated.values[mid]), 0.9, rtol=0.01)


def test_gate_idempotent_within_tolerance():
    tr = reflector_trace(WIDE, [(0.9, 2.15e-9)])
    spec = GATE_PRESETS["through-short"]
    once = apply_gate(tr, spec)
    twice = apply_gate(once, spec)
    mid = midband(WIDE)
    np.testing.assert_allclose(np.abs(twice.values[mid]), np.abs(once.values[mid]), rtol=5e-3)


def test_splice_preserves_low_frequency_data():
    tr = reflector_trace(WIDE, [(0.05, 0.0), (0.9, 2.15e-9)])
    spec = GateSpec(0.0, 5e-9, splice_below_cutoff=True)
    gated = apply_gate(tr, spec)
    low = WIDE.frequencies < spec.cutoff_hz
    assert low.any()
    np.testing.assert_array_equal(gated.values[low], tr.values[low])
    high = ~low
    assert not np.array_equal(gated.values[high], tr.values[high])


def test_cutoff_is_inverse_span():
    assert GateSpec(0.0, 5e-9).cutoff_hz == pytest.approx(200e6)


def test_gate_outside_record_rejected():
    tr = reflector_trace(WIDE, [(0.5, 1e-9)])
    span = 1.0 / WIDE.step_hz
    message = r"gate \[.*\] s covers no time sample of the measurable span \[.*\] s"
    with pytest.raises(GateError, match=message):
        apply_gate(tr, GateSpec(center_s=2 * span, span_s=1e-9))
    # inside the span, but narrower than the sample interval and between two samples
    dt = time_step(to_time_domain(tr), WIDE)
    with pytest.raises(GateError, match=message):
        apply_gate(tr, GateSpec(center_s=10.5 * dt, span_s=0.1 * dt))


def test_unaligned_grid_rejected():
    grid = aligned_grid(start_hz=1.2e7, step_hz=1e7, count=100)
    tr = reflector_trace(grid, [(0.5, 1e-9)])
    with pytest.raises(GateError, match="integer"):
        to_time_domain(tr)


def test_out_of_band_leakage():
    # A single gated reflector should not scatter energy across the band.
    tr = reflector_trace(WIDE, [(0.5, 1.0e-9)])
    gated = apply_gate(tr, GateSpec(1.0e-9, 3e-9))
    mid = midband(WIDE)
    ripple = np.abs(np.abs(gated.values[mid]) - 0.5)
    assert 20 * math.log10(np.max(ripple) / 0.5) < -40


@pytest.mark.parametrize("loss_db", [0.02, 0.99, 1.38, 4.72])
def test_insertion_loss_round_trip(loss_db):
    tr = shorted_line_trace(WIDE, loss_db)
    gated = apply_gate(tr, GATE_PRESETS["through-short"])
    s21 = extract_insertion_loss(gated)
    loss = insertion_loss_db(s21)
    mid = midband(WIDE)
    assert np.max(np.abs(loss[mid] - loss_db)) < 1e-3


def test_insertion_loss_rejects_gain():
    vals = np.full(WIDE.count, 1.5 + 0.0j)
    from cryocal import ComplexTrace

    tr = ComplexTrace(grid=WIDE, values=vals)
    with pytest.raises(GateError):
        extract_insertion_loss(tr)


def test_presets_match_documented_parameters():
    atten = GATE_PRESETS["atten"]
    assert (atten.center_s, atten.span_s, atten.splice_below_cutoff) == (0.0, 5e-9, True)
    conn = GATE_PRESETS["connector"]
    assert (conn.center_s, conn.span_s, conn.splice_below_cutoff) == (0.0, 3e-9, False)
    ts = GATE_PRESETS["through-short"]
    assert (ts.center_s, ts.span_s, ts.splice_below_cutoff) == (2.15e-9, 3.8e-9, False)
    assert all(g.kaiser_beta == 6.0 for g in GATE_PRESETS.values())


@pytest.mark.parametrize(
    "build,error,field",
    [
        (lambda: GateSpec(math.nan, 1e-9), GateError, "center_s"),
        (lambda: GateSpec(-math.inf, 1e-9), GateError, "center_s"),
        (lambda: GateSpec(0.0, math.inf), GateError, "span"),
        (lambda: GateSpec(0.0, 0.0), GateError, "^span_s must be finite and > 0"),
        (lambda: GateSpec(0.0, 1e-9, 720.0), GateError, "kaiser_beta"),
        (lambda: GateSpec(0.0, 1e-9, math.inf), GateError, "kaiser_beta"),
        (lambda: GateSpec(0.0, 1e-9, math.nan), GateError, "kaiser_beta"),
        (lambda: FrequencyGrid(math.inf, 1e6, 3), GridError, "start_hz"),
        (lambda: FrequencyGrid(math.nan, 1e6, 3), GridError, "start_hz"),
        (lambda: FrequencyGrid(1e6, math.inf, 3), GridError, "step_hz"),
        (lambda: FrequencyGrid(1e6, math.nan, 3), GridError, "step_hz"),
        (lambda: FrequencyGrid(1e6, 1e6, 2.5), GridError, "count"),
        (lambda: FrequencyGrid(1e6, 1e6, 1), GridError, "count"),
    ],
    ids=["center-nan", "center-inf", "span-inf", "span-zero", "beta-i0-overflow", "beta-inf", "beta-nan", "start-inf",
         "start-nan", "step-inf", "step-nan", "count-fraction", "count-one"],
)
def test_non_finite_or_fractional_geometry_is_rejected(build, error, field):
    # NaN and inf fail every check, and the message names the field
    with pytest.raises(error, match=field):
        build()


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(
    preset=st.sampled_from(sorted(GATE_PRESETS)),
    mag=st.floats(1e-3, 1.0),
    phase=st.floats(-math.pi, math.pi),
)
def test_single_reflector_at_gate_centre_keeps_unit_gain(preset, mag, phase):
    gate = GATE_PRESETS[preset]
    tr = reflector_trace(WIDE, [(mag * complex(math.cos(phase), math.sin(phase)), gate.center_s)])
    gated = apply_gate(tr, gate)
    np.testing.assert_allclose(np.abs(gated.values[midband(WIDE)]), mag, rtol=0.01)
