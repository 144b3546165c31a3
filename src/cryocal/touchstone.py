"""Touchstone v1 (.s1p/.s2p) reading and writing, plus CSV export.

Only version-1 files are supported: an option line of the form
``# <freq-unit> S <RI|MA|DB> R <ohms>``, ``!`` comments, and
whitespace-separated numeric records with strictly increasing frequency.
The reference impedance is recorded on the trace but otherwise unused;
all work happens in reflection-coefficient space.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .traces import ComplexTrace, FrequencyGrid, TwoPortTrace

_FREQ_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
_FORMATS = ("RI", "MA", "DB")


class TouchstoneParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _to_complex(a: float, b: float, fmt: str) -> complex:
    if fmt == "RI":
        return complex(a, b)
    if fmt == "MA":
        return a * cmath.exp(1j * math.radians(b))
    # DB: magnitude given as 20*log10
    return 10.0 ** (a / 20.0) * cmath.exp(1j * math.radians(b))


def _from_complex(v: complex, fmt: str) -> tuple[float, float]:
    if fmt == "RI":
        return v.real, v.imag
    mag = abs(v)
    ang = math.degrees(cmath.phase(v)) if mag > 0 else 0.0
    if fmt == "MA":
        return mag, ang
    db = -math.inf if mag == 0 else 20.0 * math.log10(mag)
    return db, ang


def _parse_option_line(tokens: list[str], line_no: int) -> tuple[float, str, float]:
    """Return (unit scale to Hz, value format, reference impedance)."""
    scale, fmt, z0 = 1e9, "MA", 50.0  # Touchstone defaults
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        low = tok.lower()
        if low in _FREQ_UNITS:
            scale = _FREQ_UNITS[low]
        elif tok.upper() in _FORMATS:
            fmt = tok.upper()
        elif low == "s":
            pass  # S-parameter data, the only supported kind
        elif low in ("y", "z", "g", "h"):
            raise TouchstoneParseError(line_no, f"unsupported parameter type {tok!r}")
        elif low == "r":
            if i + 1 >= len(tokens):
                raise TouchstoneParseError(line_no, "R given without an impedance value")
            try:
                z0 = float(tokens[i + 1])
            except ValueError:
                raise TouchstoneParseError(
                    line_no, f"invalid reference impedance {tokens[i + 1]!r}"
                ) from None
            i += 1
        else:
            raise TouchstoneParseError(line_no, f"malformed option line token {tok!r}")
        i += 1
    return scale, fmt, z0


def parse_touchstone(text: str | bytes, expected_ports: int) -> ComplexTrace | TwoPortTrace:
    """Parse Touchstone v1 text into a trace.

    Frequencies are converted to Hz, values to linear complex form
    regardless of the source format. Non-uniform grids are accepted but
    flagged with ``uniform=False``.
    """
    if expected_ports not in (1, 2):
        raise ValueError("expected_ports must be 1 or 2")
    if isinstance(text, bytes):
        text = text.decode("ascii")

    n_cols = 1 + 2 * expected_ports**2
    scale = fmt = z0 = None
    freqs: list[float] = []
    cols: list[list[complex]] = [[] for _ in range(expected_ports**2)]

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("!", 1)[0].strip()
        if not line:
            continue
        if line.startswith("#"):
            if scale is not None:
                raise TouchstoneParseError(line_no, "duplicate option line")
            scale, fmt, z0 = _parse_option_line(line[1:].split(), line_no)
            continue
        if scale is None:
            raise TouchstoneParseError(line_no, "data before option line")
        tokens = line.split()
        if len(tokens) != n_cols:
            raise TouchstoneParseError(
                line_no,
                f"expected {n_cols} columns for {expected_ports}-port data, "
                f"got {len(tokens)}",
            )
        try:
            nums = [float(t) for t in tokens]
        except ValueError:
            bad = next(t for t in tokens if not _is_number(t))
            raise TouchstoneParseError(line_no, f"non-numeric token {bad!r}") from None
        f_hz = nums[0] * scale
        if freqs and f_hz <= freqs[-1]:
            raise TouchstoneParseError(
                line_no, f"non-increasing frequency {f_hz} Hz after {freqs[-1]} Hz"
            )
        freqs.append(f_hz)
        for k in range(expected_ports**2):
            cols[k].append(_to_complex(nums[1 + 2 * k], nums[2 + 2 * k], fmt))

    if len(freqs) < 2:
        raise TouchstoneParseError(0, "file contains fewer than two data records")

    grid, uniform = FrequencyGrid.from_frequencies(freqs)
    raw_f = None if uniform else np.array(freqs)
    if expected_ports == 1:
        return ComplexTrace(grid, cols[0], uniform, raw_f, z0)
    # .s2p column order is S11 S21 S12 S22
    return TwoPortTrace(grid, cols[0], cols[1], cols[2], cols[3], uniform, raw_f, z0)


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def write_touchstone(trace: ComplexTrace | TwoPortTrace, fmt: str = "RI") -> str:
    """Serialize a trace as Touchstone v1 text (frequencies in Hz).

    Round-trip guarantee: parse(write(t)) reproduces t to 1e-12 relative.
    """
    fmt = fmt.upper()
    if fmt not in _FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(trace, ComplexTrace):
        col_sets = [trace.values]
    elif isinstance(trace, TwoPortTrace):
        col_sets = [trace.s11, trace.s21, trace.s12, trace.s22]
    else:
        raise TypeError(f"cannot serialize {type(trace).__name__}")
    freqs = trace.frequencies
    if len(freqs) == 0:
        raise ValueError("refusing to write an empty trace")

    lines = [f"# Hz S {fmt} R {trace.z0_ohm:.17g}"]
    for i, f in enumerate(freqs):
        parts = [f"{f:.17g}"]
        for col in col_sets:
            a, b = _from_complex(complex(col[i]), fmt)
            parts.append(f"{a:.17g}")
            parts.append(f"{b:.17g}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def write_csv(trace: ComplexTrace) -> str:
    """Export a one-port trace as CSV with header ``freq_hz,real,imag``."""
    lines = ["freq_hz,real,imag"]
    for f, v in zip(trace.frequencies, trace.values):
        lines.append(f"{f:.9g},{v.real:.9g},{v.imag:.9g}")
    return "\n".join(lines) + "\n"


def read_touchstone_file(path, expected_ports: int) -> ComplexTrace | TwoPortTrace:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise TouchstoneParseError(line_no, f"non-ASCII byte 0x{data[exc.start]:02x} in {path}") from None
    return parse_touchstone(text, expected_ports)
