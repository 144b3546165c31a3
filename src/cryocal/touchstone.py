"""Touchstone v1 one-port (.s1p) reading and writing.

Only version-1 one-port files are supported: an option line of the form
``# <freq-unit> S <RI|MA|DB> R <ohms>``, ``!`` comments, and records of
three whitespace-separated numbers (frequency, then the S11 pair) with
strictly increasing frequency. A two-port file is rejected by the
column-count check. The reference impedance is recorded on the trace but
otherwise unused; all work happens in reflection-coefficient space.
"""
from __future__ import annotations

import math

import numpy as np

from .traces import ComplexTrace, FrequencyGrid, GridError, _bad_byte_line

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
            if not 0.0 < z0 < math.inf:  # a positive resistance; false for NaN
                raise TouchstoneParseError(
                    line_no, f"reference impedance must be a finite positive resistance, got {tokens[i + 1]!r}"
                )
            i += 1
        else:
            raise TouchstoneParseError(line_no, f"malformed option line token {tok!r}")
        i += 1
    return scale, fmt, z0


def _content(lines: list[str], start: int = 0):
    """Yield (line number, text before any ``!`` comment, stripped) of each line
    from ``lines[start]`` on that has such text."""
    for i in range(start, len(lines)):
        line = lines[i].split("!", 1)[0].strip()
        if line:
            yield i + 1, line


def _read_header(lines: list[str]) -> tuple[tuple[float, str, float], int]:
    """Scan up to the option line; return its settings and the index of the next line with content."""
    options, line_no = None, 1  # a file with no content is reported at line 1
    for line_no, line in _content(lines):
        if options is not None:
            return options, line_no - 1
        if not line.startswith("#"):
            raise TouchstoneParseError(line_no, "data before option line")
        options = _parse_option_line(line[1:].split(), line_no)
    raise TouchstoneParseError(line_no, "file contains fewer than two data records")  # at the option line


def _parses(records: list[str], cols: int = _N_COLS) -> bool:
    """True when every one of the records is ``cols`` numbers."""
    try:
        return np.loadtxt(records, comments=None, ndmin=2).shape[1] == cols
    except ValueError:
        return False


def _raise_at_fault(lines: list[str], first: int) -> None:
    """Find the record of ``lines[first:]`` at fault and raise its error.

    Only the error path runs this; a valid file is converted by one array
    call. A second option line is reported wherever it is; else the first
    record with the wrong column count or a non-numeric token, found by bisection.
    """
    records = list(_content(lines, first))
    dup = next((line_no for line_no, line in records if line.startswith("#")), None)
    if dup is not None:
        raise TouchstoneParseError(dup, "duplicate option line")
    lo, hi = 0, len(records)  # records[:lo] all parse; records[lo:hi] do not all parse
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _parses([line for _, line in records[lo:mid]]) else (lo, mid)
    line_no, line = records[lo]
    tokens = line.split()
    if len(tokens) != _N_COLS:
        raise TouchstoneParseError(line_no, f"expected {_N_COLS} columns for 1-port data, got {len(tokens)}")
    bad = next((t for t in tokens if not _parses([t], 1)), None)
    if bad is not None:
        raise TouchstoneParseError(line_no, f"non-numeric token {bad!r}")


def parse_touchstone(text: str | bytes, expected_ports: int) -> ComplexTrace:
    """Parse one-port Touchstone v1 text into a trace.

    ``expected_ports`` must be 1. Frequencies are converted to Hz, values to
    linear complex form regardless of the source format. A non-uniform grid
    is accepted; its frequencies are kept in ``freq_hz_raw``, which is set
    only then. Bytes must be ASCII.
    Lines end as in ``str.splitlines``. In a file with several faults, the
    first non-ASCII byte is reported, then the first line before or at the
    option line that is at fault, then a second option line, then the first
    bad record, then too few records, then the first non-increasing frequency.
    """
    if expected_ports != 1:
        raise ValueError("only one-port data is supported: expected_ports must be 1")
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise TouchstoneParseError(_bad_byte_line(exc), f"non-ASCII byte 0x{text[exc.start]:02x}") from None

    lines = text.splitlines()
    (scale, fmt, z0), first = _read_header(lines)
    try:
        data = np.loadtxt(lines[first:], comments="!", ndmin=2)
        if data.shape[1] != _N_COLS:
            raise ValueError(f"records have {data.shape[1]} columns")
    except ValueError:
        _raise_at_fault(lines, first)
        raise
    if len(data) < 2:
        raise TouchstoneParseError(first + 1, "file contains fewer than two data records")  # at the one record

    freqs = data[:, 0] * scale
    # f[k+1] <= f[k] rather than np.diff(f) <= 0, which misses [inf, inf]
    bad = np.flatnonzero(freqs[1:] <= freqs[:-1])
    if bad.size:
        k = bad[0] + 1  # np.loadtxt took every record, so none is a second option line
        line_no = list(_content(lines, first))[k][0]
        raise TouchstoneParseError(line_no, f"non-increasing frequency {float(freqs[k])} Hz after {float(freqs[k - 1])} Hz")
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
    return ComplexTrace(grid, values, None if uniform else freqs, z0)


def write_touchstone(trace: ComplexTrace) -> str:
    """Serialize a trace as Touchstone v1 RI text (frequencies in Hz).

    Round-trip guarantee: parse(write(t)) reproduces the frequencies to
    1e-12 relative and the values bit for bit, -0.0 included; RI at 17
    significant digits is the one exact format.
    """
    rows = np.column_stack((trace.frequencies, trace.values.real, trace.values.imag))
    return f"# Hz S RI R {trace.z0_ohm:.17g}\n" + ("%.17g %.17g %.17g\n" * len(rows)) % tuple(rows.ravel().tolist())


def read_touchstone_file(path) -> ComplexTrace:
    """Parse a one-port Touchstone file; a TouchstoneParseError or GridError names ``path``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse_touchstone(data, 1)
    except (TouchstoneParseError, GridError) as exc:
        exc.args = (f"{path}, {exc}",)  # line_no stays
        raise
