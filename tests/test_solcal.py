import cmath
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cryocal import (
    CalibrationError,
    ComplexTrace,
    ErrorModelOnePort,
    StandardsSet,
    apply_correction,
    forward_model,
    solve_error_model,
)

from conftest import aligned_grid, constant_error_model


def ideal_standards(grid):
    n = grid.count
    return {
        "short": ComplexTrace(grid=grid, values=np.full(n, -1.0 + 0.0j)),
        "open": ComplexTrace(grid=grid, values=np.full(n, 1.0 + 0.0j)),
        "load": ComplexTrace(grid=grid, values=np.full(n, 0.001 + 0.0j)),
    }


def standards_through(model, defs):
    return StandardsSet(
        defined_short=defs["short"],
        defined_open=defs["open"],
        defined_load=defs["load"],
        measured_short=forward_model(model, defs["short"]),
        measured_open=forward_model(model, defs["open"]),
        measured_load=forward_model(model, defs["load"]),
    )


def test_forward_model_spot_value(small_grid):
    # e00 + e01e10*G/(1 - e11*G) with e00=0.1, e11=0.2, e01e10=0.81, G=-1:
    # 0.1 + 0.81*(-1)/(1+0.2) = -0.575
    model = constant_error_model(small_grid, 0.1, 0.2, 0.1 * 0.2 - 0.81)
    short = ComplexTrace(grid=small_grid, values=np.full(small_grid.count, -1.0 + 0.0j))
    measured = forward_model(model, short)
    np.testing.assert_allclose(measured.values, -0.575, rtol=1e-14)


def test_solver_recovers_synthetic_error_box(small_grid):
    model = constant_error_model(small_grid, 0.1, 0.2, 0.1 * 0.2 - 0.81)
    solved = solve_error_model(standards_through(model, ideal_standards(small_grid)))
    np.testing.assert_allclose(solved.e00, model.e00, atol=1e-12)
    np.testing.assert_allclose(solved.e11, model.e11, atol=1e-12)
    np.testing.assert_allclose(solved.delta_e, model.delta_e, atol=1e-12)


def test_round_trip_random_boxes():
    grid = aligned_grid(count=101)
    rng = np.random.default_rng(11)
    n = grid.count
    for _ in range(20):
        e00 = 0.2 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        e11 = 0.2 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        e01e10 = 1.0 + 0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        model_true = ErrorModelOnePort(grid=grid, e00=e00, e11=e11, delta_e=e00 * e11 - e01e10)
        gamma = rng.uniform(0, 1, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        dut = ComplexTrace(grid=grid, values=gamma)
        solved = solve_error_model(standards_through(model_true, ideal_standards(grid)))
        corrected = apply_correction(solved, forward_model(model_true, dut))
        assert np.max(np.abs(corrected.values - dut.values)) < 1e-10


def test_data_based_definitions():
    # Non-ideal standard definitions (short with phase delay, lossy open):
    # solving against measurements synthesized with the same definitions
    # still recovers the error box exactly.
    grid = aligned_grid(count=51)
    f = grid.frequencies
    defs = {
        "short": ComplexTrace(grid=grid, values=-np.exp(-2j * np.pi * f * 30e-12)),
        "open": ComplexTrace(grid=grid, values=0.98 * np.exp(-2j * np.pi * f * 40e-12)),
        "load": ComplexTrace(grid=grid, values=np.full(grid.count, 0.005 + 0.002j)),
    }
    model = constant_error_model(grid, 0.05 - 0.02j, 0.15 + 0.1j, -0.9 + 0.05j)
    solved = solve_error_model(standards_through(model, defs))
    np.testing.assert_allclose(solved.e00, model.e00, atol=1e-12)
    np.testing.assert_allclose(solved.e11, model.e11, atol=1e-12)
    np.testing.assert_allclose(solved.delta_e, model.delta_e, atol=1e-12)


def test_coincident_standards_rejected(small_grid):
    n = small_grid.count
    same = ComplexTrace(grid=small_grid, values=np.full(n, 0.5 + 0.0j))
    with pytest.raises(CalibrationError, match="coincide"):
        StandardsSet(
            defined_short=same,
            defined_open=same,
            defined_load=ComplexTrace(grid=small_grid, values=np.zeros(n)),
            measured_short=same,
            measured_open=same,
            measured_load=same,
        )


def test_grid_mismatch_rejected(small_grid):
    from cryocal import GridError

    other = aligned_grid(count=small_grid.count + 1)
    defs = ideal_standards(small_grid)
    bad = ComplexTrace(grid=other, values=np.full(other.count, -1.0 + 0.0j))
    with pytest.raises(GridError):
        StandardsSet(
            defined_short=defs["short"],
            defined_open=defs["open"],
            defined_load=defs["load"],
            measured_short=bad,
            measured_open=defs["open"],
            measured_load=defs["load"],
        )


def test_singular_system_names_frequency(small_grid):
    # Degenerate measurements make the per-frequency 3x3 system singular.
    n = small_grid.count
    defs = ideal_standards(small_grid)
    same_meas = ComplexTrace(grid=small_grid, values=np.full(n, 0.3 + 0.0j))
    with pytest.raises(CalibrationError, match="Hz"):
        solve_error_model(
            StandardsSet(
                defined_short=defs["short"],
                defined_open=defs["open"],
                defined_load=defs["load"],
                measured_short=same_meas,
                measured_open=same_meas,
                measured_load=same_meas,
            )
        )


def moved_point(trace: ComplexTrace) -> ComplexTrace:
    """The trace with its sixth point's actual frequency moved half a step up.

    First point, last point and count are unchanged, so the fitted grid is the
    original one; only the raw frequencies tell them apart.
    """
    f = trace.grid.frequencies
    f[5] += 0.5 * trace.grid.step_hz
    return ComplexTrace(trace.grid, trace.values, freq_hz_raw=f)


def test_non_uniform_trace_rejected(small_grid):
    from cryocal import GridError

    model = constant_error_model(small_grid, 0.1, 0.2, 0.1 * 0.2 - 0.81)
    defs = ideal_standards(small_grid)
    traces = {f"defined_{k}": v for k, v in defs.items()}
    traces.update({f"measured_{k}": forward_model(model, v) for k, v in defs.items()})
    for name in traces:
        with pytest.raises(GridError, match="non-uniform"):
            StandardsSet(**dict(traces, **{name: moved_point(traces[name])}))
    with pytest.raises(GridError, match="non-uniform"):
        forward_model(model, moved_point(defs["open"]))
    with pytest.raises(GridError, match="non-uniform"):
        apply_correction(model, moved_point(forward_model(model, defs["open"])))


def _complex(max_abs):
    return st.builds(lambda r, phi: r * cmath.exp(1j * phi), st.floats(0.0, max_abs), st.floats(-math.pi, math.pi))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    e00=_complex(0.5), e11=_complex(0.5), e01e10=_complex(1.5).filter(lambda t: abs(t) >= 0.1),
    gammas=st.lists(_complex(1.0), min_size=3, max_size=3), dut=_complex(1.0),
)
def test_sol_round_trip_property(e00, e11, e01e10, gammas, dut):
    # |e11|, |G| <= 1/2, 1 keep 1 - e11*G away from 0; the standards clear the
    # solver's separation and determinant guards by a margin
    assume(min(abs(a - b) for a, b in itertools.combinations(gammas, 2)) >= 0.05)
    grid = aligned_grid(count=2)
    model = constant_error_model(grid, e00, e11, e00 * e11 - e01e10)
    defs = {name: ComplexTrace(grid, np.full(2, g)) for name, g in zip(("short", "open", "load"), gammas)}
    standards = standards_through(model, defs)
    measured = [standards.measured_short, standards.measured_open, standards.measured_load]
    rows = [[1.0, -g, g * m.values[0]] for g, m in zip(gammas, measured)]
    assume(abs(np.linalg.det(np.array(rows))) >= 1e-3)
    solved = solve_error_model(standards)
    truth = ComplexTrace(grid, np.full(2, dut))
    corrected = apply_correction(solved, forward_model(model, truth))
    assert np.max(np.abs(corrected.values - truth.values)) <= 1e-10


@pytest.mark.parametrize(
    "terms,message",
    [
        ({"e00": np.full(3, 0.1)}, "e00 length != grid count"),
        ({"e11": np.array([0.5, math.nan, 0.5, 0.5])}, "e11 contains non-finite values"),
        ({"e00": np.full(4, 0.5), "delta_e": np.full(4, 0.25)}, "reflection tracking term e01e10 vanishes"),
    ],
    ids=["wrong-length", "non-finite", "zero-tracking"],
)
def test_error_model_rejection_names_its_fault(terms, message):
    grid = aligned_grid(count=4)
    base = {"e00": np.full(4, 0.1), "e11": np.full(4, 0.5), "delta_e": np.zeros(4)}
    with pytest.raises(CalibrationError, match=f"^{re.escape(message)}$"):
        ErrorModelOnePort(grid, **{**base, **terms})


def test_singular_forward_model_and_correction_name_the_frequency():
    grid = aligned_grid(count=4)  # 10, 20, 30, 40 MHz
    model = constant_error_model(grid, 0.1, 0.5, 0.25)
    # 1 - e11*G = 0 at G = 2, the third point
    with pytest.raises(CalibrationError, match=re.escape("forward model singular (1 - e11*G ~ 0) at 3e+07 Hz")):
        forward_model(model, ComplexTrace(grid, np.array([0.0, 0.0, 2.0, 0.0])))
    # m*e11 - delta_e = 0 at m = 0.5, the second point
    with pytest.raises(CalibrationError, match="^correction singular at 2e[+]07 Hz$"):
        apply_correction(model, ComplexTrace(grid, np.array([0.0, 0.5, 0.0, 0.0])))
