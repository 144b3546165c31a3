import cmath
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cryocal import (
    ComplexTrace,
    FrequencyGrid,
    TouchstoneParseError,
    parse_touchstone,
    read_touchstone_file,
    touchstone,
    write_touchstone,
)
from cryocal.touchstone import _parse_option_line

from conftest import FILE_MUTATIONS, S1P_LINES, mutated_s1p

S1P_RI = """! example one-port file
# Hz S RI R 50
1e9 0.1 -0.2
2e9 0.3 0.4  ! trailing comment
3e9 -0.5 0.0
"""


def test_parse_ri_basic():
    tr = parse_touchstone(S1P_RI, expected_ports=1)
    assert isinstance(tr, ComplexTrace)
    np.testing.assert_allclose(tr.frequencies, [1e9, 2e9, 3e9])
    np.testing.assert_allclose(tr.values, [0.1 - 0.2j, 0.3 + 0.4j, -0.5 + 0.0j])
    assert tr.z0_ohm == 50.0
    assert tr.uniform


def test_parse_defaults_ghz_ma():
    # Bare "#" option line: Touchstone defaults are GHz, S, MA, 50 ohm.
    text = "#\n1 0.5 90\n2 1.0 -90\n"
    tr = parse_touchstone(text, expected_ports=1)
    np.testing.assert_allclose(tr.frequencies, [1e9, 2e9])
    np.testing.assert_allclose(tr.values, [0.5j, -1.0j], atol=1e-15)


def test_parse_db_format():
    text = "# MHz S DB R 75\n100 -20 0\n200 0 180\n"
    tr = parse_touchstone(text, expected_ports=1)
    np.testing.assert_allclose(tr.frequencies, [1e8, 2e8])
    np.testing.assert_allclose(tr.values, [0.1, -1.0], atol=1e-15)
    assert tr.z0_ohm == 75.0


def test_parse_two_port_rejected():
    text = "# Hz S RI R 50\n1e9 1 0 2 0 3 0 4 0\n2e9 5 0 6 0 7 0 8 0\n"
    with pytest.raises(ValueError, match="one-port"):
        parse_touchstone(text, 2)
    with pytest.raises(TouchstoneParseError, match="expected 3 columns for 1-port data, got 9"):
        parse_touchstone(text, 1)


@pytest.mark.parametrize(
    "text,line_no,fragment",
    [
        ("# Hz S RI R 50\n1e9 0.1\n", 2, "columns"),
        ("# Hz S RI R 50\n1e9 0.1 foo\n", 2, "non-numeric"),
        ("# Hz S RI R 50\n2e9 0 0\n1e9 0 0\n", 3, "non-increasing"),
        ("# Hz S QQ R 50\n", 1, "malformed option"),
        ("# Hz Z RI R 50\n", 1, "unsupported parameter"),
        ("1e9 0 0\n2e9 0 0\n", 1, "before option line"),
        ("# Hz S RI R 50\n# Hz S RI R 50\n1e9 0 0\n2e9 0 0\n", 2, "duplicate option"),
        # a later second option line still wins over an earlier bad record
        ("# Hz S RI R 50\n1e9 0 x\n2e9 0 0\n# Hz S RI\n", 4, "duplicate option"),
        ("# Hz S RI R nan\n1e9 0 0\n2e9 0 0\n", 1, "finite positive resistance, got 'nan'"),
        ("# Hz S RI R inf\n1e9 0 0\n2e9 0 0\n", 1, "finite positive resistance, got 'inf'"),
        ("! z0\n# Hz S RI R 0\n1e9 0 0\n2e9 0 0\n", 2, "finite positive resistance, got '0'"),
        ("# Hz S RI R -50\n1e9 0 0\n2e9 0 0\n", 1, "finite positive resistance, got '-50'"),
        # \x0c and \r\n end lines as in str.splitlines
        ("# Hz S RI R 50\x0c1e9 0 0\r\n\r\n1e9 0 0\n", 4, "non-increasing"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no, fragment):
    with pytest.raises(TouchstoneParseError) as err:
        parse_touchstone(text, expected_ports=1)
    assert err.value.line_no == line_no
    assert fragment in str(err.value)


@pytest.mark.parametrize("brk", ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c"], ids=["lf", "crlf", "cr", "vt", "ff", "fs"])
def test_non_ascii_byte_reports_its_splitlines_line(tmp_path, brk):
    data = brk.join(["# Hz S RI R 50", "! caf\u00e9", "1e9 0.1 0", "2e9 0.1 0", ""]).encode("latin-1")
    with pytest.raises(TouchstoneParseError, match="^line 2: non-ASCII byte 0xe9$") as err:
        parse_touchstone(data, 1)
    assert err.value.line_no == 2
    path = tmp_path / "bad.s1p"
    path.write_bytes(data)
    with pytest.raises(TouchstoneParseError) as err:
        read_touchstone_file(path)
    assert err.value.line_no == 2 and str(err.value) == f"{path}, line 2: non-ASCII byte 0xe9"


@pytest.mark.parametrize(
    "text,line_no",
    [("# Hz S RI R nan\n1e9 0 0\n2e9 0 0\n", 1), ("# Hz S RI R 50\n1e9 0 0\n1e9 0 0\n", 3),
     ("# Hz S RI R 50\n1e9 0 0\n", 2), ("! one\n# Hz S RI R 50\n! two\n", 2), ("! none\n\n", 1)],
    ids=["z0", "non-increasing", "too-few", "option-line-only", "no-content"],
)
def test_read_touchstone_file_names_the_file_in_every_parse_error(tmp_path, text, line_no):
    path = tmp_path / "std.s1p"
    path.write_text(text)
    with pytest.raises(TouchstoneParseError) as err:
        read_touchstone_file(path)
    with pytest.raises(TouchstoneParseError) as bare:
        parse_touchstone(text, 1)
    assert err.value.line_no == bare.value.line_no == line_no
    assert str(err.value) == f"{path}, {bare.value}"


def test_bad_last_record_is_found_in_log_many_loadtxt_calls():
    # 10,597 RI records, the last with a non-numeric token: the error path
    # bisects the records instead of testing each token on its own
    n = 10_597
    text = "# Hz S RI R 50\n" + "".join(f"{k}e6 0.019 -0.003\n" for k in range(1, n)) + f"{n}e6 0.019 x\n"
    loadtxt, calls = np.loadtxt, []

    def counted(*args, **kwargs):
        calls.append(args)
        return loadtxt(*args, **kwargs)

    with mock.patch.object(np, "loadtxt", counted):
        with pytest.raises(TouchstoneParseError, match=f"^line {n + 1}: non-numeric token 'x'$"):
            parse_touchstone(text, 1)
    assert len(calls) <= 2 * math.ceil(math.log2(n)) + 4, len(calls)


def test_too_few_records():
    with pytest.raises(TouchstoneParseError, match="fewer than two"):
        parse_touchstone("# Hz S RI R 50\n1e9 0 0\n", expected_ports=1)


def test_nonuniform_grid_flagged():
    text = "# Hz S RI R 50\n1e9 0 0\n2e9 0 0\n4e9 0 0\n"
    tr = parse_touchstone(text, expected_ports=1)
    assert not tr.uniform
    np.testing.assert_allclose(tr.frequencies, [1e9, 2e9, 4e9])


@pytest.mark.parametrize("fmt", ["RI", "MA", "DB"])
def test_write_parse_round_trip(fmt, grid):
    rng = np.random.default_rng(7)
    vals = rng.normal(size=grid.count) + 1j * rng.normal(size=grid.count)
    tr = ComplexTrace(grid=grid, values=vals)
    text = write_touchstone(tr) if fmt == "RI" else write_per_row(tr, fmt)
    back = parse_touchstone(text, expected_ports=1)
    np.testing.assert_allclose(back.frequencies, tr.frequencies, rtol=1e-12)
    np.testing.assert_allclose(back.values, tr.values, rtol=1e-12, atol=1e-14)


# The scalar conversions the parser replaced, kept as the reference it must
# match bit for bit.
SCALAR_REFERENCE = {
    "RI": lambda a, b: complex(a, b),
    "MA": lambda a, b: a * cmath.exp(1j * math.radians(b)),
    "DB": lambda a, b: 10.0 ** (a / 20.0) * cmath.exp(1j * math.radians(b)),
}


@pytest.mark.parametrize("fmt", ["RI", "MA", "DB"])
def test_parse_matches_scalar_formulas_bitwise(fmt):
    rng = np.random.default_rng(17)
    angles = [0.0, -0.0, 90.0, -90.0, 180.0, -180.0, 360.0, -360.0]
    firsts = [0.0, -0.0, 1.0, -1.0, -3.5, -120.0]  # negative dB, and signed zeros for RI/MA
    special = list(itertools.product(firsts, angles))
    n = 1200
    a = np.concatenate([[p for p, _ in special], rng.uniform(-150.0, 30.0, n)])
    b = np.concatenate([[q for _, q in special], rng.uniform(-720.0, 720.0, n)])
    if fmt == "RI":
        a[len(special):] = rng.normal(size=n) * 10.0 ** rng.integers(-12, 3, n)
        b[len(special):] = rng.normal(size=n) * 10.0 ** rng.integers(-12, 3, n)
    rows = [f"{1e6 * (k + 1):.17g} {x:.17g} {y:.17g}" for k, (x, y) in enumerate(zip(a, b))]
    trace = parse_touchstone(f"# Hz S {fmt} R 50\n" + "\n".join(rows) + "\n", 1)
    ref = np.array([SCALAR_REFERENCE[fmt](float(x), float(y)) for x, y in zip(a.tolist(), b.tolist())])
    assert len(trace.values) >= 1000
    # Compare the bit patterns, so -0.0 and 0.0 count as different.
    np.testing.assert_array_equal(trace.values.view(np.uint64), ref.view(np.uint64))


def write_per_row(trace, fmt="RI"):
    """Touchstone text by one f-string per row: RI values from each complex
    number, MA and DB levels and angles from numpy's hypot, angle and log10."""
    if fmt == "RI":
        rows = [(v.real, v.imag) for v in map(complex, trace.values)]
    else:
        v = trace.values
        mag = np.hypot(v.real, v.imag)
        b = np.where(mag > 0, np.degrees(np.angle(v)), 0.0)
        with np.errstate(divide="ignore"):
            a = mag if fmt == "MA" else 20.0 * np.log10(mag)
        rows = list(zip(a.tolist(), b.tolist()))
    lines = [f"# Hz S {fmt} R {trace.z0_ohm:.17g}"]
    for f, (x, y) in zip(trace.frequencies, rows):
        lines.append(f"{f:.17g} {x:.17g} {y:.17g}")
    return "\n".join(lines) + "\n"


def test_ri_writer_matches_fstring_form():
    # The writer gives the per-row RI bytes.
    rng = np.random.default_rng(5)
    n = 1000
    vals = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.integers(-300, 300, n)
    vals[:4] = [0.0, complex(-0.0, -0.0), complex(5e-324, -5e-324), complex(-1.0, 0.0)]
    uniform = ComplexTrace(FrequencyGrid(1e7, 2.5e6, n), vals, z0_ohm=75.0)
    f = np.cumsum(rng.uniform(1e3, 1e6, n)) + 1e9
    raw = ComplexTrace(FrequencyGrid.from_frequencies(f)[0], vals, False, f, 50.0)
    for trace in (uniform, raw):
        assert write_touchstone(trace) == write_per_row(trace)


# ------------------------------------------------------------------------
# The line-scan parser that the one-array parser replaced, kept as the
# reference it must agree with: same trace bit for bit on a valid file, same
# exception type, message and line number on a faulty one.


def _is_number_oracle(tok):
    try:
        np.loadtxt([tok], comments=None, ndmin=2)
        return True
    except ValueError:
        return False


def _parse_oracle(text, expected_ports=1):
    """Scan every line, keeping each record's line number, then convert the
    records with one array call; scan them again only if that call fails.
    The option-line grammar (``_parse_option_line``) is shared."""
    assert expected_ports == 1
    if isinstance(text, bytes):
        text = text.decode("latin-1")
        bad = next((i for i, ch in enumerate(text) if ord(ch) > 0x7F), None)
        if bad is not None:  # the line whose text, line break included, holds the byte
            ends = itertools.accumulate(map(len, text.splitlines(keepends=True)))
            line_no = next(n for n, end in enumerate(ends, start=1) if end > bad)
            raise TouchstoneParseError(line_no, f"non-ASCII byte 0x{ord(text[bad]):02x}")
    scale = fmt = z0 = None
    rows, line_nos = [], []
    last = 1  # the last line with content; line 1 when there is none
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("!", 1)[0].strip()
        if not line:
            continue
        last = line_no
        if line.startswith("#"):
            if scale is not None:
                raise TouchstoneParseError(line_no, "duplicate option line")
            scale, fmt, z0 = _parse_option_line(line[1:].split(), line_no)
            continue
        if scale is None:
            raise TouchstoneParseError(line_no, "data before option line")
        rows.append(line)
        line_nos.append(line_no)
    try:
        data = np.loadtxt(rows, comments=None, ndmin=2) if rows else np.empty((0, 3))
        if data.shape[1] != 3:
            raise ValueError(f"records have {data.shape[1]} columns")
    except ValueError:
        for line_no, row in zip(line_nos, rows):
            tokens = row.split()
            if len(tokens) != 3:
                raise TouchstoneParseError(line_no, f"expected 3 columns for 1-port data, got {len(tokens)}") from None
            bad = next((t for t in tokens if not _is_number_oracle(t)), None)
            if bad is not None:
                raise TouchstoneParseError(line_no, f"non-numeric token {bad!r}") from None
        raise
    if len(data) < 2:
        raise TouchstoneParseError(last, "file contains fewer than two data records")
    freqs = data[:, 0] * scale
    bad = np.flatnonzero(freqs[1:] <= freqs[:-1])
    if bad.size:
        k = bad[0] + 1
        raise TouchstoneParseError(
            line_nos[k], f"non-increasing frequency {float(freqs[k])} Hz after {float(freqs[k - 1])} Hz"
        )
    if fmt == "RI":
        values = np.ascontiguousarray(data[:, 1:]).view(complex)[:, 0]
    else:
        a, b = data[:, 1], data[:, 2]
        with np.errstate(over="ignore", invalid="ignore"):
            mag = a if fmt == "MA" else np.float_power(10.0, a / 20.0)
            values = mag * np.exp(1j * np.radians(b))
    grid, uniform = FrequencyGrid.from_frequencies(freqs)
    return ComplexTrace(grid, values, uniform, None if uniform else freqs, z0)


def _outcome(parse, text):
    """The trace ``parse`` returns, or the type, message and line number of what it raises."""
    try:
        return parse(text, 1)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def assert_same_outcome(text):
    want, got = _outcome(_parse_oracle, text), _outcome(parse_touchstone, text)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, ComplexTrace)
    assert got.values.view(np.uint64).tolist() == want.values.view(np.uint64).tolist()
    assert _bits([got.grid.start_hz, got.grid.step_hz]) == _bits([want.grid.start_hz, want.grid.step_hz])
    assert got.grid.count == want.grid.count and got.uniform == want.uniform
    assert (got.freq_hz_raw is None) == (want.freq_hz_raw is None)
    if want.freq_hz_raw is not None:
        assert _bits(got.freq_hz_raw) == _bits(want.freq_hz_raw)
    assert _bits(got.z0_ohm) == _bits(want.z0_ohm)


LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e")
BLANKS = ("", " ", "\t", " \t ", "! comment", "  ! # not an option line", "!")
SEPARATORS = (" ", "\t", "  ", " \t ")
NUMBER_FORMATS = ("{:.17g}", "{!r}", "{:.6e}", "{:g}", "{:.3f}")


@st.composite
def valid_files(draw):
    """Touchstone text with header comments, blank lines, inline ``!``
    comments, any ``str.splitlines`` line break, in RI, MA or DB."""
    fmt = draw(st.sampled_from(("RI", "MA", "DB")), label="fmt")
    unit = draw(st.sampled_from(("Hz", "kHz", "MHz", "GHz", "HZ", "ghz")), label="unit")
    options = ["S", fmt if draw(st.booleans(), label="upper") else fmt.lower(), unit]
    if draw(st.booleans(), label="z0"):
        options.append(f"R {draw(st.sampled_from(('50', '75', '5e1', '1e-3')), label='ohms')}")
    options = draw(st.permutations(options), label="order")
    n = draw(st.integers(2, 12), label="records")
    steps = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n), label="steps")
    freqs = np.cumsum(steps).tolist()
    level = st.floats(-150.0, 30.0) if fmt == "DB" else st.floats(allow_nan=False, allow_infinity=False)
    angle = st.floats(-720.0, 720.0) if fmt != "RI" else level

    def number(x):
        return draw(st.sampled_from(NUMBER_FORMATS), label="number format").format(x)

    def filler():
        return draw(st.lists(st.sampled_from(BLANKS), max_size=2), label="filler")

    lines = filler() + ["# " + " ".join(options)] + filler()
    for f in freqs:
        sep = draw(st.sampled_from(SEPARATORS), label="separator")
        row = sep.join([number(f), number(draw(level, label="a")), number(draw(angle, label="b"))])
        row = draw(st.sampled_from(("", " ", "\t")), label="indent") + row
        if draw(st.booleans(), label="inline comment"):
            row += draw(st.sampled_from((" ! c", "! # 1 2 3", "\t!")), label="comment")
        lines += [row] + filler()
    text = "".join(line + draw(st.sampled_from(LINE_BREAKS), label="break") for line in lines)
    return text if draw(st.booleans(), label="final break") else text.rstrip("".join(LINE_BREAKS))


NOISE_TOKENS = ("1e9", "2e9", "0", "-0.5", "nan", "inf", "x", "1_0", "#", "# Hz S RI R 50", "# Hz S RI R 0", "!", "! c")


@st.composite
def faulty_files(draw):
    """A fault class of ``FILE_MUTATIONS`` under any line break, a second
    option line after a bad record, or lines of random tokens."""
    kind = draw(st.sampled_from(FILE_MUTATIONS + ("option after bad record", "noise")), label="kind")
    if kind == "noise":
        lines = draw(st.lists(st.lists(st.sampled_from(NOISE_TOKENS), max_size=4).map(" ".join), max_size=8))
        return "".join(line + draw(st.sampled_from(LINE_BREAKS)) for line in ["# Hz S RI R 50"] + lines)
    if kind == "option after bad record":
        lines = list(S1P_LINES)
        i = draw(st.integers(1, len(lines) - 1), label="bad record")
        lines[i] = draw(st.sampled_from((lines[i] + " 1", lines[i].replace(" ", " x", 1))), label="fault")
        lines.insert(draw(st.integers(i + 1, len(lines)), label="option at"), S1P_LINES[0])
        return "\n".join(lines) + "\n"
    return mutated_s1p(kind, draw(st.data(), label="mutation")).replace(b"\n", draw(st.sampled_from(LINE_BREAKS)).encode())


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(text=valid_files())
def test_parser_matches_line_scan_oracle_on_valid_files(text):
    assert_same_outcome(text)


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(text=faulty_files())
def test_parser_matches_line_scan_oracle_on_faulty_files(text):
    assert_same_outcome(text)


VALID_FIXED = (
    S1P_RI,
    "! header\r\n\r\n# GHz S DB R 50 ! options\r\n  1 -20 10\r\n\t\r\n! between\r\n2\t-30\t-10 ! x\r\n",
    "# MHz S MA\x0c100 0.5 90\x0b\x0b200 0.25 -90\x1c! end",
)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(text=st.one_of(st.sampled_from(VALID_FIXED), valid_files()))
def test_valid_files_take_one_loadtxt_call_and_no_line_scan(text):
    # A silent fall back onto the per-line scan would still give the right
    # trace, only slower; this pins the one-array path.
    assume(isinstance(_outcome(_parse_oracle, text), ComplexTrace))
    loadtxt, calls = np.loadtxt, []

    def counted(*args, **kwargs):
        calls.append(args)
        return loadtxt(*args, **kwargs)

    def no_scan(*args, **kwargs):
        raise AssertionError("a valid file entered the per-line diagnostic scan")

    with mock.patch.object(np, "loadtxt", counted), mock.patch.object(touchstone, "_raise_at_fault", no_scan):
        parse_touchstone(text, 1)
    assert len(calls) == 1


# ------------------------------------------------------ write -> parse


@st.composite
def traces(draw, fmt):
    # MA and DB keep |v| normal or zero: a subnormal magnitude has fewer than 53 bits.
    parts = st.floats(allow_nan=False, allow_infinity=False) if fmt == "RI" else st.one_of(
        st.sampled_from((0.0, -0.0)), st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300)
    )
    n = draw(st.integers(2, 20), label="points")
    re = draw(st.lists(parts, min_size=n, max_size=n), label="re")
    im = draw(st.lists(parts, min_size=n, max_size=n), label="im")
    vals = np.empty(n, complex)
    vals.real, vals.imag = re, im  # exact parts, -0.0 included, unlike re + 1j * im
    z0 = draw(st.sampled_from((50.0, 75.0, 0.1)), label="z0")
    if draw(st.booleans(), label="uniform"):
        grid = FrequencyGrid(draw(st.floats(1e3, 1e9), label="start"), draw(st.floats(1e3, 1e9), label="step"), n)
        return ComplexTrace(grid, vals, z0_ohm=z0)
    f = np.cumsum(draw(st.lists(st.floats(1.0, 1e9), min_size=n, max_size=n), label="steps"))
    grid, uniform = FrequencyGrid.from_frequencies(f)
    return ComplexTrace(grid, vals, uniform, None if uniform else f, z0)


@pytest.mark.parametrize("fmt", ["RI", "MA", "DB"])
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_write_parse_round_trip_property(fmt, data):
    trace = data.draw(traces(fmt))
    back = parse_touchstone(write_touchstone(trace) if fmt == "RI" else write_per_row(trace, fmt), 1)
    assert back.z0_ohm == trace.z0_ohm and back.uniform == trace.uniform
    if not trace.uniform:
        assert _bits(back.freq_hz_raw) == _bits(trace.freq_hz_raw)
    np.testing.assert_allclose(back.frequencies, trace.frequencies, rtol=1e-12)
    if fmt == "RI":  # bit for bit, -0.0 and subnormals included
        assert back.values.view(np.uint64).tolist() == trace.values.view(np.uint64).tolist()
    else:
        np.testing.assert_allclose(back.values, trace.values, rtol=1e-12, atol=0)
