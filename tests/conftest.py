"""Shared synthetic-data builders for the test suite."""
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from cryocal import ComplexTrace, ErrorModelOnePort, FrequencyGrid, QubitState, qubitsim


def tap_lane(pulse, h) -> np.ndarray:
    """The lane ``distort(pulse, h)`` stands for, summed whole into one array that covers the
    last tap: each tap delay rounded to sample m, its copy rotated by theta = 2 pi f (delay - m dt)
    through the pulse's H[x] and added in ladder order."""
    x, hx = pulse.samples, pulse._quadrature
    y = np.zeros(x.size + max((int(round(delay / pulse.dt_s)) for delay, _ in h.taps), default=0))
    for delay, amp in h.taps:
        m = int(round(delay / pulse.dt_s))
        theta = 2.0 * math.pi * pulse.carrier_hz * (delay - m * pulse.dt_s)
        y[m : m + x.size] += (amp * math.cos(theta)) * x
        y[m : m + x.size] += (amp * math.sin(theta)) * hx
    return y


def response_window(model) -> float:
    """The span run_allxy samples a model's Fourier response over: the transit and K + 3 round trips."""
    return model.transit_s + (model.max_reflections + 3) * model.spacing_s


def whole_drive_convolution(x, h) -> np.ndarray:
    """x * h for a sampled response h, as one real FFT product over the whole drive at the next
    power of two: the oracle for run_allxy's Fourier lane, which sums one convolution per gate shape."""
    n = x.size + h.size - 1
    size = 1 << (n - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(h, size), size)[:n]


def aligned_grid(start_hz=1e7, step_hz=1e7, count=2650) -> FrequencyGrid:
    """Uniform grid whose start is an integer multiple of the step."""
    return FrequencyGrid(start_hz=start_hz, step_hz=step_hz, count=count)


def reflector_trace(grid: FrequencyGrid, taps) -> ComplexTrace:
    """Frequency response of ideal point reflectors: [(amplitude, delay_s), ...]."""
    f = grid.frequencies
    vals = np.zeros(grid.count, dtype=complex)
    for amp, delay in taps:
        vals += amp * np.exp(-2j * math.pi * f * delay)
    return ComplexTrace(grid=grid, values=vals)


def shorted_line_trace(grid: FrequencyGrid, loss_db_one_way, delay_s=2.15e-9) -> ComplexTrace:
    """Round-trip reflection off a shorting cap through a lossy line.

    |S11| = |S21|^2 = 10^(-2*loss/20); the short's -1 is dropped so the
    magnitude carries the loss directly (sign is irrelevant after gating).
    """
    s21 = 10.0 ** (-np.asarray(loss_db_one_way, dtype=float) / 20.0)
    f = grid.frequencies
    vals = (s21**2) * np.exp(-2j * math.pi * f * delay_s)
    return ComplexTrace(grid=grid, values=vals)


def constant_error_model(grid: FrequencyGrid, e00, e11, delta_e) -> ErrorModelOnePort:
    n = grid.count
    return ErrorModelOnePort(
        grid=grid,
        e00=np.full(n, complex(e00)),
        e11=np.full(n, complex(e11)),
        delta_e=np.full(n, complex(delta_e)),
    )


@pytest.fixture
def grid():
    return aligned_grid()


@pytest.fixture
def small_grid():
    return aligned_grid(count=11)


# ------------------------------------------------ faulty Touchstone files

S1P_LINES = ["# Hz S RI R 50"] + [f"{k}e9 0.019 -0.003" for k in range(1, 17)]
TOKEN_VALUES = ("nan", "inf", "x", "1_0", "-0", "")
FILE_MUTATIONS = ("drop", "duplicate", "swap", "token", "column", "zero", "option", "non-ascii", "truncate")


def mutated_s1p(kind, data):
    """Bytes of the 16-point ``S1P_LINES`` file with one ``kind`` of fault drawn from ``data``.

    ``zero`` sets every S11 value to 0 and keeps the frequencies.
    """
    lines = list(S1P_LINES)

    def draw_line(label):  # the index of a data line
        return data.draw(st.integers(1, len(lines) - 1), label=label)

    if kind == "drop":
        del lines[draw_line("line")]
    elif kind == "duplicate":
        i = draw_line("line")
        lines.insert(i, lines[i])
    elif kind == "swap":
        i, j = draw_line("line"), draw_line("other")
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "token":
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        tokens = lines[i].split()
        tokens[data.draw(st.integers(0, len(tokens) - 1), label="token")] = data.draw(
            st.sampled_from(TOKEN_VALUES), label="value"
        )
        lines[i] = " ".join(tokens)
    elif kind == "column":
        add = data.draw(st.booleans(), label="add")
        lines[1:] = [ln + " 0.5" if add else ln.rsplit(" ", 1)[0] for ln in lines[1:]]
    elif kind == "zero":
        lines[1:] = [ln.split()[0] + " 0 0" for ln in lines[1:]]
    elif kind == "option":
        lines.insert(data.draw(st.integers(1, len(lines)), label="at"), S1P_LINES[0])
    text = "\n".join(lines) + "\n"
    if kind == "non-ascii":
        at = data.draw(st.integers(0, len(text)), label="at")
        text = text[:at] + chr(data.draw(st.integers(0x80, 0xFF), label="byte")) + text[at:]
    elif kind == "truncate":
        i = draw_line("line")
        text = "\n".join(lines[:i] + [lines[i][: data.draw(st.integers(1, len(lines[i]) - 1), label="cut")]])
    return text.encode("latin-1")


def record_ffts(monkeypatch):
    """(name, length) of every numpy FFT called from now on."""
    calls = []

    def recording(name, default_len):
        fft = getattr(np.fft, name)

        def wrapped(a, n=None, *args, **kwargs):
            calls.append((name, n if n is not None else default_len(np.shape(a)[-1])))
            return fft(a, n, *args, **kwargs)

        return wrapped

    for name, default_len in [("fft", lambda m: m), ("ifft", lambda m: m), ("rfft", lambda m: m),
                              ("irfft", lambda m: 2 * (m - 1))]:
        monkeypatch.setattr(np.fft, name, recording(name, default_len))
    return calls


def cycling_pi_calibration(monkeypatch) -> list[float]:
    """Make every pi calibration's Newton iteration cycle; returns the probe scales it evolves,
    in units of the rotating-wave estimate est.

    ``qubitsim.evolve`` returns the ground amplitude g(a) = sign(d) sqrt(|d| / (0.4 est)) at
    probe scale a, d = a - 1.1 est. A Newton step on g maps d to -d, so from a = est the
    iteration alternates between est and 1.2 est, inside its bracket, with |g| = 1/2.
    """
    probe_of, unit = qubitsim._calibration_probe, {}
    scales = []

    def probe(*args):
        wf, area, s = probe_of(*args)
        unit.update(peak=np.max(np.abs(wf.samples)), est=math.pi / area)
        return wf, area, s

    def evolve(state, waveform, params, **kwargs):
        a = np.max(np.abs(waveform.samples)) / unit["peak"] / unit["est"]
        scales.append(a)
        g = math.copysign(math.sqrt(abs(a - 1.1) / 0.4), a - 1.1)
        return QubitState(np.array([g, math.sqrt(1.0 - g * g)]))

    monkeypatch.setattr(qubitsim, "_calibration_probe", probe)
    monkeypatch.setattr(qubitsim, "evolve", evolve)
    return scales
