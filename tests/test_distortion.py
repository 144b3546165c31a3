import cmath
import math
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cryocal import (
    DistortionError,
    GateOp,
    ImpulseResponse,
    MismatchModel,
    PulseWaveform,
    QubitParams,
    distort,
    impulse_response_fourier,
    impulse_response_taps,
)
from cryocal import qubitsim
from cryocal.distortion import _hilbert_transform
from cryocal.traces import _freeze

from conftest import record_ffts, tap_lane, whole_drive_convolution

C = 299792458.0


def test_tap_delays_and_spacing():
    m = MismatchModel(15.0, 15.0, 0.276)
    h = impulse_response_taps(m)
    delays = np.array([d for d, _ in h.taps])
    spacing = 2 * 0.276 / (0.7 * C)
    np.testing.assert_allclose(delays, 0.276 / (0.7 * C) + spacing * np.arange(6), rtol=1e-12)


def test_normalized_tap_ratios():
    # With matched return losses the normalized ladder is (alpha*beta)^k.
    m = MismatchModel(9.7, 9.7, 0.1)
    h = impulse_response_taps(m)
    amps = np.array([a for _, a in h.taps])
    ab = 10.0 ** (-2 * 9.7 / 20.0)
    assert amps[0] == 1.0
    assert amps[1] / amps[0] == pytest.approx(ab)
    assert ab == pytest.approx(0.107, abs=5e-4)
    np.testing.assert_allclose(amps, ab ** np.arange(6), rtol=1e-12)


@pytest.mark.parametrize("rl1, rl2, length", [(9.7, 9.7, 0.1), (12.0, 18.0, 0.3), (0.5, 40.0, 0.276), (math.inf, 15.0, 1.0)])
def test_tap_amplitudes_are_exactly_the_powers_of_alpha_beta(rl1, rl2, length):
    m = MismatchModel(rl1, rl2, length, max_reflections=9)
    assert [a for _, a in impulse_response_taps(m).taps] == [(m.alpha * m.beta) ** k for k in range(10)]


def test_rl_swap_symmetry():
    # alpha * beta commutes, so swapping the elements leaves every tap bit for bit
    a = impulse_response_taps(MismatchModel(12.0, 18.0, 0.3))
    b = impulse_response_taps(MismatchModel(18.0, 12.0, 0.3))
    assert a == b


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    rl1=st.floats(3.0, 40.0),
    rl2=st.floats(3.0, 40.0),
    length=st.floats(0.01, 1.0),
    k_max=st.integers(0, 30),
    f_hz=st.lists(st.floats(0.0, 20e9), min_size=1, max_size=8),
)
def test_tap_ladder_is_the_s21_series_up_to_its_tail(rl1, rl2, length, k_max, f_hz):
    # S21 = exp(-i w tau0) / (1 - r2 exp(-2 i w tau0)) = sum_k r2^k exp(-i w (tau0 + 2 k tau0)), so
    # the K-tap ladder misses S21 by the tail sum_{k>K} r2^k <= r2^(K+1) / (1 - r2), at f = 0 with
    # equality. The slack covers rounding: each term's phase w tau_k is off by a few ulps of
    # w tau_k <= w tau_K, over K + 1 terms, and 1 / (1 - r2) amplifies the closed form's
    # (its measured worst is 0.72 of the unit below over 20,000 random cases).
    m = MismatchModel(rl1, rl2, length, max_reflections=k_max)
    taps = impulse_response_taps(m).taps
    r2 = m.alpha * m.beta
    w = 2.0 * math.pi * np.array([0.0, *f_hz])
    s21 = np.exp(-1j * w * m.transit_s) / (1.0 - r2 * np.exp(-2j * w * m.transit_s))
    ladder = sum(a * np.exp(-1j * w * d) for d, a in taps)
    tail = r2 ** (k_max + 1) / (1.0 - r2)
    slack = 4.0 * np.finfo(float).eps * (1.0 + w * taps[-1][0]) * (k_max + 1) / (1.0 - r2)
    assert np.all(np.abs(s21 - ladder) <= tail + slack)


def test_fourier_response_matches_taps():
    m = MismatchModel(12.0, 12.0, 0.3)
    h = impulse_response_taps(m)
    spacing = 2 * m.length_m / m.v_p
    window = m.transit_s + 10 * spacing
    f_max = 1.0 / 2e-12
    td, dt = impulse_response_fourier(m, f_max, window), 1.0 / (2.0 * f_max)
    # Each tap appears in the sampled response at its delay with its
    # amplitude; integrate half a tap spacing either side to collect the
    # band-limited sinc tails.
    half = int(round(spacing / (2 * dt)))
    for delay, amp in h.taps[:3]:
        k = int(round(delay / dt))
        window_sum = np.sum(td[max(0, k - half) : k + half])
        assert window_sum == pytest.approx(amp, rel=5e-3)
    # The dc value of the transmission function fixes the total sum exactly.
    r2 = m.alpha * m.beta
    assert np.sum(td) == pytest.approx(1.0 / (1.0 - r2), rel=1e-12)


def test_fourier_window_without_samples_rejected():
    # a 1 um line: the response window is 0.08 ps, under one 1 ps sample
    m = MismatchModel(15.0, 15.0, 1e-6)
    window = m.transit_s + 8 * (2 * m.length_m / m.v_p)
    with pytest.raises(DistortionError, match="window_s.*f_max_hz"):
        impulse_response_fourier(m, 1e12, window)


def test_model_validation():
    with pytest.raises(DistortionError):
        MismatchModel(0.0, 15.0, 0.3)
    with pytest.raises(DistortionError):
        MismatchModel(15.0, 15.0, -0.1)
    with pytest.raises(DistortionError):
        MismatchModel(15.0, 15.0, 0.3, v_p=1.5 * C)
    with pytest.raises(DistortionError):
        ImpulseResponse(taps=((0.0, 1.0), (0.0, 0.5)))
    with pytest.raises(DistortionError, match=">= 0"):
        ImpulseResponse(taps=((-2e-12, 1.0), (1e-9, 0.5)))
    # NaN fails every comparison, so each check must be one that NaN fails
    nan = math.nan
    for args in [(15.0, 15.0, nan), (nan, 15.0, 0.276), (15.0, nan, 0.276), (15.0, 15.0, math.inf)]:
        with pytest.raises(DistortionError):
            MismatchModel(*args)
    for taps in [((nan, 1.0),), ((0.0, 1.0), (nan, 0.5)), ((0.0, 1.0), (1e-9, nan))]:
        with pytest.raises(DistortionError, match="finite"):
            ImpulseResponse(taps=taps)
    for f_max, window in [(nan, 1e-8), (1e12, nan), (math.inf, 1e-8)]:
        with pytest.raises(DistortionError, match="f_max_hz and window_s"):
            impulse_response_fourier(MismatchModel(15.0, 15.0, 0.276), f_max, window)
    for dt_s, carrier_hz in [(nan, 5e9), (1e-12, nan)]:
        with pytest.raises(DistortionError, match="must be"):
            PulseWaveform(dt_s, np.zeros(4), carrier_hz)
    # a return loss that rounds the reflection magnitude to 1.0 is total reflection: no pulse passes
    for rl1, rl2, name in [(1e-17, 15.0, "rl1_db"), (15.0, 1e-17, "rl2_db")]:
        with pytest.raises(DistortionError, match=f"^{name} = 1e-17 dB"):
            MismatchModel(rl1, rl2, 0.276)
    # an infinite return loss is a matched element: no ghost, a unit direct tap
    assert impulse_response_taps(MismatchModel(math.inf, math.inf, 0.276)).taps[1][1] == 0.0


def test_model_rejection_starts_with_its_field():
    # each return loss is judged alone, and before 10^(-rl/20) could overflow
    for args, message in [
        ((15.0, 0.0, 0.3), "rl2_db must be > 0 dB, got 0.0"),
        ((-1e5, 15.0, 0.3), "rl1_db must be > 0 dB, got -100000.0"),
        ((15.0, 15.0, 0.3, 1.5 * C), f"v_p must be in (0, c], got {1.5 * C}"),
        # judged before the tap ladder's loop could run that many times
        ((15.0, 15.0, 0.3, 0.7 * C, 10**20), "max_reflections needs 1e+20 samples, more than numpy can allocate"),
    ]:
        with pytest.raises(DistortionError, match=f"^{re.escape(message)}$"):
            MismatchModel(*args)


@pytest.mark.parametrize(
    "dt_s,samples,message",
    [
        (math.inf, [0.0, 1.0, 0.0], "dt_s must be finite and > 0, got inf"),
        (1e-12, [0.5], "waveform needs at least two samples"),
        (1e-12, [0.0, math.nan, 0.0], "waveform contains non-finite samples"),
    ],
)
def test_waveform_rejection_names_its_fault(dt_s, samples, message):
    with pytest.raises(DistortionError, match=f"^{re.escape(message)}$"):
        PulseWaveform(dt_s, np.array(samples), 0.0)


def test_fourier_window_shorter_than_two_ghosts_rejected():
    m = MismatchModel(15.0, 15.0, 0.276)
    with pytest.raises(DistortionError, match="^window too short to localize the tap ladder$"):
        impulse_response_fourier(m, 1e12, m.transit_s + 1.9 * m.spacing_s)


def carrier_pulse(f_c=5e9, dt=1e-12, n=4001):
    t = dt * np.arange(n)
    env = np.exp(-((t - t[-1] / 2) ** 2) / (2 * (t[-1] / 8) ** 2))
    return PulseWaveform(dt_s=dt, samples=env * np.cos(2 * math.pi * f_c * t), carrier_hz=f_c)


def test_distort_identity_tap():
    p = carrier_pulse()
    h = ImpulseResponse(taps=((0.0, 1.0),))
    out = distort(p, h)
    np.testing.assert_allclose(out.samples, p.samples, atol=1e-15)


def test_distort_integer_delay():
    p = carrier_pulse()
    delay = 500e-12  # exact multiple of dt
    h = ImpulseResponse(taps=((0.0, 1.0), (delay, 0.25)))
    out = distort(p, h)
    n_shift = int(round(delay / p.dt_s))
    expected = np.zeros(p.samples.size + n_shift)
    expected[: p.samples.size] += p.samples
    expected[n_shift:] += 0.25 * p.samples
    np.testing.assert_allclose(out.samples, expected, atol=1e-12)


def test_distort_subsample_delay_phase():
    # A sub-sample tap delay must advance the ghost's carrier phase exactly.
    p = carrier_pulse()
    delay = 500.4e-12
    h = ImpulseResponse(taps=((0.0, 1.0), (delay, 0.5)))
    out = distort(p, h)
    # Compare against a directly synthesized delayed copy.
    t = p.dt_s * np.arange(p.samples.size)
    env = np.exp(-((t - t[-1] / 2) ** 2) / (2 * (t[-1] / 8) ** 2))
    m = int(round(delay / p.dt_s))
    direct = np.zeros(out.samples.size)
    direct[: p.samples.size] += p.samples
    ghost_t = t + m * p.dt_s
    direct[m : m + p.samples.size] += 0.5 * env * np.cos(2 * math.pi * 5e9 * (ghost_t - m * p.dt_s) - 2 * math.pi * 5e9 * (delay - m * p.dt_s))
    mid = slice(m + 100, m + p.samples.size - 100)
    np.testing.assert_allclose(out.samples[mid], direct[mid], atol=2e-3 * np.max(np.abs(p.samples)))


def test_distort_transforms_each_call_afresh_to_the_same_bits():
    # every distort of a pulse runs its own H[x], and the same samples give the same H[x] and lane
    m = MismatchModel(12.0, 12.0, 0.3)
    p = carrier_pulse()
    taps = impulse_response_taps(m)
    direct = distort(p, ImpulseResponse(taps=taps.taps[:1]))
    ladder = distort(p, taps)
    fresh = distort(PulseWaveform(p.dt_s, p.samples, p.carrier_hz), taps)
    assert direct.y is not ladder.y and not ladder.y.flags.writeable
    np.testing.assert_array_equal(ladder.y, _hilbert_transform(p.samples))
    np.testing.assert_array_equal(ladder.samples, fresh.samples)


def _distorted_lane(taps):
    """distort's tap view of the carrier pulse, the lane tap_lane sums whole and its sample interval."""
    p, h = carrier_pulse(), ImpulseResponse(taps=taps)
    return distort(p, h), tap_lane(p, h), p.dt_s


def _fourier_lane():
    """run_allxy's Fourier lane of an X Y pair of 1 ns gates, the lane summed whole from its two
    one-gate convolutions tap by tap, and its sample interval."""
    params, model = QubitParams(), MismatchModel(12.0, 12.0, 0.03)
    h = impulse_response_fourier(model, 1.0 / params.dt_s, model.transit_s + 8 * model.spacing_s)
    n_gate, ds = 2000, params.dt_s / 2
    placed = [(i * n_gate, 1e9 * cmath.exp(1j * (params.omega_q * ds * i * n_gate + phase)))
              for i, phase in enumerate((0.0, math.pi / 2))]
    view = qubitsim._shape_convolution(1e-9, params, n_gate, placed, 2 * n_gate + 1, h)
    want = np.zeros(2 * n_gate + h.size)
    for m, c, s in view.taps:
        want[m : m + view.x.size] += c * view.x
        want[m : m + view.x.size] += s * view.y
    return view, want, ds


@pytest.mark.parametrize(
    "lane",
    [
        partial(_distorted_lane, ((0.0, 1.0), (500 * 1e-12, 0.25))),  # m dt exactly: theta = 0
        partial(_distorted_lane, impulse_response_taps(MismatchModel(12.0, 12.0, 0.3)).taps),
        partial(_distorted_lane, ((123.4e-12, 0.7),)),
        partial(_distorted_lane, ()),
        _fourier_lane,
    ],
    ids=["on-grid", "off-grid", "single-tap", "empty", "fourier"],
)
def test_tap_view_is_the_summed_lane_bit_for_bit(lane):
    view, want, dt = lane()
    assert view.length == want.size and view.samples.tobytes() == want.tobytes()
    assert not view.samples.flags.writeable and view.dt_s == dt
    np.testing.assert_array_equal(view.times, dt * np.arange(want.size))
    buf = np.full(1200, np.nan)
    for j0, j1 in [(0, 1), (0, 1200), (499, 1500), (3900, 4001), (want.size - 7, want.size)]:
        assert view.read(j0, j1, buf).tobytes() == want[j0:j1].tobytes(), (j0, j1)
    padded = replace(view, length=want.size + 10).samples
    assert padded[: want.size].tobytes() == want.tobytes() and not np.any(padded[want.size :])


def test_non_finite_tap_lane_raises_wherever_it_is_first_read():
    # 1e10 x 1e300 overflows at one sample only; each path that first reads it raises the
    # message an array waveform's constructor raises
    x = np.zeros(1001)
    x[500] = 1e300
    p, h = PulseWaveform(1e-12, x, 5e9), ImpulseResponse(taps=((0.0, 1e10),))
    message = "^waveform contains non-finite samples$"
    with np.errstate(over="ignore"):
        view = distort(p, h)
        assert not np.any(view.read(0, 500, np.empty(500)))
        with pytest.raises(DistortionError, match=message):
            view.read(400, 600, np.empty(200))
        with pytest.raises(DistortionError, match=message):
            view.samples
        with pytest.raises(DistortionError, match=message):
            qubitsim.evolve(qubitsim.GROUND, view, QubitParams(dt_s=2e-12))
        with pytest.raises(DistortionError, match=message):
            PulseWaveform(p.dt_s, tap_lane(p, h), p.carrier_hz)


def test_distort_with_response_matches_taps():
    m = MismatchModel(12.0, 12.0, 0.3)
    p = carrier_pulse(n=8001)
    taps = impulse_response_taps(m)
    spacing = 2 * m.length_m / m.v_p
    td = impulse_response_fourier(m, 1.0 / (2 * p.dt_s), m.transit_s + 10 * spacing)
    a = distort(p, taps).samples
    b = whole_drive_convolution(p.samples, td)
    n = min(a.size, b.size)
    scale = np.max(np.abs(a))
    np.testing.assert_allclose(a[:n] / scale, b[:n] / scale, atol=5e-4)


@pytest.mark.parametrize("n", [7, 8])
def test_analytic_signal_matches_dft_construction(n):
    # one-sided spectrum from an explicit DFT matrix: dc and, for even n, the
    # Nyquist bin keep unit weight, positive frequencies double, negative vanish
    x = np.random.default_rng(n).standard_normal(n)
    k = np.arange(n)
    dft = np.exp(-2j * math.pi * np.outer(k, k) / n)
    weight = np.where((k == 0) | (2 * k == n), 1.0, np.where(2 * k < n, 2.0, 0.0))
    want = np.conj(dft) @ (weight * (dft @ x)) / n
    got = _hilbert_transform(x)
    np.testing.assert_allclose(got, want.imag, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n_pulse, n_response", [(5, 3), (11, 7), (64, 64), (2, 30)])
def test_distort_with_response_matches_direct_convolution(n_pulse, n_response):
    rng = np.random.default_rng(n_pulse * n_response)
    x, r = rng.standard_normal(n_pulse), rng.standard_normal(n_response)
    np.testing.assert_allclose(whole_drive_convolution(x, r), np.convolve(x, r), rtol=0, atol=1e-12)


def test_waveform_copies_a_writeable_array():
    x = np.arange(11.0)
    wf = PulseWaveform(1e-12, x, 0.0)
    assert wf.samples is not x and x.flags.writeable and not wf.samples.flags.writeable
    x[3] = 7.0
    assert wf.samples[3] == 3.0


def test_waveform_copies_a_read_only_view():
    # the view's base stays writeable, so adopting the view would let later writes reach the waveform
    base = np.arange(11.0)
    view = base[:]
    view.setflags(write=False)
    wf = PulseWaveform(1e-12, view, 0.0)
    assert wf.samples is not view and not np.shares_memory(wf.samples, base)
    base[3] = 7.0
    assert wf.samples[3] == 3.0


def test_waveform_adopts_a_read_only_array_that_owns_its_data():
    x = np.arange(11.0)
    x.setflags(write=False)
    assert PulseWaveform(1e-12, x, 0.0).samples is x
    # another dtype is a new array, as for any other frozen container
    assert _freeze(x, complex) is not x and _freeze(x, float) is x


def test_waveform_carrier_resolution_guard():
    with pytest.raises(DistortionError, match="resolve"):
        PulseWaveform(dt_s=1e-10, samples=np.zeros(100), carrier_hz=5e9)


def _analytic_oracle(x):
    """x + i H[x] from the one-sided spectrum by length-n FFTs: dc and, for
    even n, the Nyquist bin keep unit weight, positive bins double."""
    n = x.size
    spec = np.zeros(n, dtype=complex)
    spec[: n // 2 + 1] = np.fft.rfft(x)
    spec[1 : (n + 1) // 2] *= 2.0
    return np.fft.ifft(spec)


def _xy_60ns_samples():
    x = qubitsim._sequence_samples([GateOp("X"), GateOp("Y")], 60e-9, {"X": 1e8, "Y": 1e8}, QubitParams()).samples
    assert x.size == 240_001
    return x


def assert_matches_analytic_oracle(x):
    got = _hilbert_transform(x)
    # n samples of its own: no view keeps the M-point FFT buffer alive
    assert got.shape == x.shape and got.dtype == float and got.base is None and got.flags.c_contiguous
    assert np.max(np.abs(got - _analytic_oracle(x).imag)) <= 1e-12 * np.max(np.abs(x))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 9, 1000, 1001, 20_001, 240_001])
def test_analytic_signal_matches_length_n_fft_oracle(n):
    assert_matches_analytic_oracle(np.random.default_rng(n).standard_normal(n))


def test_analytic_signal_matches_oracle_on_60ns_xy_drive():
    assert_matches_analytic_oracle(_xy_60ns_samples())


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(n=st.integers(2, 512), seed=st.integers(0, 2**32 - 1))
def test_analytic_signal_matches_oracle_at_every_short_length(n, seed):
    assert_matches_analytic_oracle(np.random.default_rng(seed).standard_normal(n))


def _largest_prime_factor(n):
    p, largest = 2, 1
    while n > 1:
        while n % p == 0:
            n, largest = n // p, p
        p += 1
    return largest


def test_analytic_signal_uses_only_fast_fft_lengths(monkeypatch):
    calls = record_ffts(monkeypatch)
    _hilbert_transform(_xy_60ns_samples())
    assert calls and max(_largest_prime_factor(n) for _, n in calls) <= 5, calls


def test_analytic_signal_retains_nothing_between_calls(monkeypatch):
    # the kernel's spectrum is built in every call, at 5-smooth lengths like the signal's FFTs
    x = _xy_60ns_samples()
    _hilbert_transform(x)
    calls = record_ffts(monkeypatch)
    _hilbert_transform(x)
    assert [name for name, _ in calls] == ["rfft", "rfft", "irfft"], calls
    assert max(_largest_prime_factor(n) for _, n in calls) <= 5, calls
