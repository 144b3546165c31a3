import numpy as np
import pytest

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
    original one; only ``uniform`` and the raw frequencies tell them apart.
    """
    f = trace.grid.frequencies
    f[5] += 0.5 * trace.grid.step_hz
    return ComplexTrace(trace.grid, trace.values, uniform=False, freq_hz_raw=f)


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
