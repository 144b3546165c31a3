import cmath
import itertools
import math

import numpy as np
import pytest

from cryocal import (
    ComplexTrace,
    FrequencyGrid,
    TouchstoneParseError,
    parse_touchstone,
    write_touchstone,
)

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
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no, fragment):
    with pytest.raises(TouchstoneParseError) as err:
        parse_touchstone(text, expected_ports=1)
    assert err.value.line_no == line_no
    assert fragment in str(err.value)


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
    back = parse_touchstone(write_touchstone(tr, fmt), expected_ports=1)
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


def write_ri_fstring(trace):
    """The RI writer as it was, one f-string per value."""
    lines = [f"# Hz S RI R {trace.z0_ohm:.17g}"]
    for f, v in zip(trace.frequencies, trace.values):
        v = complex(v)
        lines.append(f"{f:.17g} {v.real:.17g} {v.imag:.17g}")
    return "\n".join(lines) + "\n"


def test_ri_writer_matches_fstring_form():
    rng = np.random.default_rng(5)
    n = 1000
    vals = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.integers(-300, 300, n)
    vals[:4] = [0.0, complex(-0.0, -0.0), complex(5e-324, -5e-324), complex(-1.0, 0.0)]
    uniform = ComplexTrace(FrequencyGrid(1e7, 2.5e6, n), vals, z0_ohm=75.0)
    f = np.cumsum(rng.uniform(1e3, 1e6, n)) + 1e9
    raw = ComplexTrace(FrequencyGrid.from_frequencies(f)[0], vals, False, f, 50.0)
    for trace in (uniform, raw):
        assert write_touchstone(trace) == write_ri_fstring(trace)
