"""Touchstone v1 one-port (.s1p) reading and writing.

Only version-1 one-port files are supported: an option line of the form
``# <freq-unit> S <RI|MA|DB> R <ohms>``, ``!`` comments, and records of
three whitespace-separated numbers (frequency, then the S11 pair) with
strictly increasing frequency. A two-port file is rejected by the
column-count check. The reference impedance is recorded on the trace but
otherwise unused; all work happens in reflection-coefficient space.
"""
from __future__ import annotations

import numpy as np

from .traces import ComplexTrace, FrequencyGrid

_FREQ_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
_FORMATS = ("RI", "MA", "DB")
_N_COLS = 3  # frequency, then the two numbers of S11


class TouchstoneParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


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


def _floats(rows: list[str]) -> np.ndarray:
    """The whitespace-separated numbers of each row, one array row per row."""
    return np.loadtxt(rows, comments=None, ndmin=2)


def _is_number(tok: str) -> bool:
    try:
        _floats([tok])
        return True
    except ValueError:
        return False


def _read_records(rows: list[str], line_nos: list[int]) -> np.ndarray:
    """Convert the data records with one array call.

    Only when that call fails are the records scanned again, one by one, to
    name the line and token at fault.
    """
    try:
        data = _floats(rows)
        if data.shape[1] != _N_COLS:
            raise ValueError(f"records have {data.shape[1]} columns")
        return data
    except ValueError:
        for line_no, row in zip(line_nos, rows):
            tokens = row.split()
            if len(tokens) != _N_COLS:
                raise TouchstoneParseError(
                    line_no, f"expected {_N_COLS} columns for 1-port data, got {len(tokens)}"
                ) from None
            bad = next((t for t in tokens if not _is_number(t)), None)
            if bad is not None:
                raise TouchstoneParseError(line_no, f"non-numeric token {bad!r}") from None
        raise


def parse_touchstone(text: str | bytes, expected_ports: int) -> ComplexTrace:
    """Parse one-port Touchstone v1 text into a trace.

    ``expected_ports`` must be 1. Frequencies are converted to Hz, values to
    linear complex form regardless of the source format. Non-uniform grids
    are accepted but flagged with ``uniform=False``. In a file with several
    faults, option-line faults are reported before faults in the data records.
    """
    if expected_ports != 1:
        raise ValueError("only one-port data is supported: expected_ports must be 1")
    if isinstance(text, bytes):
        text = text.decode("ascii")

    scale = fmt = z0 = None
    rows: list[str] = []
    line_nos: list[int] = []
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
        rows.append(line)
        line_nos.append(line_no)

    data = _read_records(rows, line_nos) if rows else np.empty((0, _N_COLS))
    if len(data) < 2:
        raise TouchstoneParseError(0, "file contains fewer than two data records")

    freqs = data[:, 0] * scale
    # f[k+1] <= f[k] rather than np.diff(f) <= 0, which misses [inf, inf]
    bad = np.flatnonzero(freqs[1:] <= freqs[:-1])
    if bad.size:
        k = bad[0] + 1
        raise TouchstoneParseError(
            line_nos[k], f"non-increasing frequency {float(freqs[k])} Hz after {float(freqs[k - 1])} Hz"
        )
    if fmt == "RI":  # reinterpret each (re, im) pair: exact, -0.0 included, unlike a + 1j * b
        values = np.ascontiguousarray(data[:, 1:]).view(complex)[:, 0]
    else:
        a, b = data[:, 1], data[:, 2]
        # float_power is C pow(), as Python's **; np.power differs in the last bit.
        # An overflowing level is reported by the finite-value check, not a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            mag = a if fmt == "MA" else np.float_power(10.0, a / 20.0)
            values = mag * np.exp(1j * np.radians(b))

    grid, uniform = FrequencyGrid.from_frequencies(freqs)
    return ComplexTrace(grid, values, uniform, None if uniform else freqs, z0)


def write_touchstone(trace: ComplexTrace, fmt: str = "RI") -> str:
    """Serialize a trace as Touchstone v1 text (frequencies in Hz).

    Round-trip guarantee: parse(write(t)) reproduces t to 1e-12 relative.
    RI numbers are the exact values; MA angles and DB levels come from
    numpy's arctan2 and log10, which can differ from ``math``'s in the last bit.
    """
    fmt = fmt.upper()
    if fmt not in _FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    v = trace.values
    if fmt == "RI":
        a, b = v.real, v.imag
    else:
        mag = np.hypot(v.real, v.imag)  # abs(complex) to the bit; np.abs is not
        b = np.where(mag > 0, np.degrees(np.angle(v)), 0.0)
        with np.errstate(divide="ignore"):
            a = mag if fmt == "MA" else 20.0 * np.log10(mag)
    lines = [f"# Hz S {fmt} R {trace.z0_ohm:.17g}"]
    lines += ["%.17g %.17g %.17g" % row for row in zip(trace.frequencies.tolist(), a.tolist(), b.tolist())]
    return "\n".join(lines) + "\n"


def read_touchstone_file(path) -> ComplexTrace:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise TouchstoneParseError(line_no, f"non-ASCII byte 0x{data[exc.start]:02x} in {path}") from None
    return parse_touchstone(text, 1)
