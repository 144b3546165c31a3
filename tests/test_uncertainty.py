import math

import numpy as np
import pytest

from cryocal import (
    ComplexTrace,
    ErrorBudget,
    UncertaintyError,
    UncertaintyTable,
    combine_rss,
    format_return_loss,
    interp_ecal_sigma,
    s21_uncertainty,
    switch_stats,
    to_return_loss,
)

from conftest import aligned_grid


def test_rss_default_terms():
    budget = ErrorBudget(sigma_ecal=0.0, sigma_switch_var=0.006)
    assert combine_rss(budget) == pytest.approx(0.006)


def test_rss_with_repeatability():
    budget = ErrorBudget(sigma_ecal=0.0, sigma_switch_var=5e-3, sigma_switch_rep=4e-4)
    assert combine_rss(budget, include_rep=True) == pytest.approx(math.sqrt(25e-6 + 0.16e-6))


def test_rss_load_term_negligible():
    # 20 dB attenuator: |S21,a|^2 = 0.01 two-way, so the load term is 1e-4.
    budget = ErrorBudget(
        sigma_ecal=0.004, sigma_switch_var=0.005, sigma_load=0.01, s21_prefactor=0.01
    )
    base = combine_rss(budget)
    with_load = combine_rss(budget, include_load=True)
    assert with_load == pytest.approx(math.sqrt(base**2 + (1e-4) ** 2))
    assert (with_load - base) / base < 2e-4


def test_rep_term_bounded_effect():
    budget = ErrorBudget(sigma_ecal=0.0, sigma_switch_var=0.005, sigma_switch_rep=0.001)
    assert budget.sigma_switch_rep <= 0.2 * budget.sigma_switch_var
    change = combine_rss(budget, include_rep=True) / combine_rss(budget) - 1.0
    assert change < 0.02


def test_return_loss_bars_asymmetric():
    res = to_return_loss(0.019, 0.006)
    assert res.rl_db == pytest.approx(-20 * math.log10(0.019))
    assert res.upper_db == pytest.approx(-20 * math.log10(0.013) - res.rl_db)
    assert res.lower_db == pytest.approx(res.rl_db + 20 * math.log10(0.025))
    assert res.upper_db > res.lower_db  # dB bars asymmetric, linear bars equal


def test_return_loss_zero_sigma():
    res = to_return_loss(0.1, 0.0)
    assert res.rl_db == pytest.approx(20.0)
    assert res.upper_db == 0.0 and res.lower_db == 0.0


def test_lower_bound_only():
    res = to_return_loss(0.003, 0.006)
    assert res.lower_bound_only
    assert res.upper_db == math.inf
    assert format_return_loss(res).endswith("*")


@pytest.mark.parametrize(
    "s11,sigma,display",
    [
        (0.019, 0.006, "35 +3/-2"),
        (0.022, 0.006, "33 +3/-2"),
    ],
)
def test_display_rounding(s11, sigma, display):
    assert format_return_loss(to_return_loss(s11, sigma)) == display


def test_interp_table():
    table = UncertaintyTable(np.array([40.0, 20.0, 0.0]), np.array([0.008, 0.004, 0.002]))
    assert interp_ecal_sigma(table, 30.0) == pytest.approx(0.006)
    with pytest.raises(UncertaintyError, match="domain"):
        interp_ecal_sigma(table, 50.0)


def test_table_validation():
    with pytest.raises(UncertaintyError):
        UncertaintyTable(np.array([1.0, 1.0, 2.0]), np.array([1e-3, 1e-3, 1e-3]))
    with pytest.raises(UncertaintyError):
        UncertaintyTable(np.array([1.0, 2.0]), np.array([1e-3, 0.0]))


def test_switch_stats_population_sd():
    grid = aligned_grid(count=5)
    a = ComplexTrace(grid=grid, values=np.full(5, 0.01 + 0j))
    b = ComplexTrace(grid=grid, values=np.full(5, 0.02 + 0j))
    sigma_var, sigma_rep = switch_stats([a, b])
    np.testing.assert_allclose(sigma_var, 0.005)
    np.testing.assert_allclose(sigma_rep, 0.01)


def test_switch_stats_identical_traces():
    grid = aligned_grid(count=5)
    a = ComplexTrace(grid=grid, values=np.full(5, 0.01 + 0j))
    sigma_var, sigma_rep = switch_stats([a, a, a])
    np.testing.assert_allclose(sigma_var, 0.0)
    np.testing.assert_allclose(sigma_rep, 0.0)


def test_switch_stats_needs_two():
    grid = aligned_grid(count=5)
    a = ComplexTrace(grid=grid, values=np.full(5, 0.01 + 0j))
    with pytest.raises(UncertaintyError):
        switch_stats([a])


def test_s21_uncertainty_symmetric_in_linear():
    up, low = s21_uncertainty(0.9, 0.0, 0.01)
    # relative RSS is 2 * 0.01 = 0.02
    assert up == pytest.approx(-20 * math.log10(0.98))
    assert low == pytest.approx(20 * math.log10(1.02))
    up0, low0 = s21_uncertainty(0.9, 0.0, 0.0)
    assert up0 == 0.0 and low0 == 0.0


def test_switch_stats_rejects_non_uniform_trace():
    from cryocal import GridError

    grid = aligned_grid(count=5)
    a = ComplexTrace(grid=grid, values=np.full(5, 0.01 + 0j))
    f = grid.frequencies
    f[2] += 0.5 * grid.step_hz  # same fitted grid, different actual frequencies
    moved = ComplexTrace(grid, a.values, uniform=False, freq_hz_raw=f)
    for traces in ([a, moved], [moved, a]):
        with pytest.raises(GridError, match="non-uniform"):
            switch_stats(traces)

