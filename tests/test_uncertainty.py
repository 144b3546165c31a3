import math
import re

import numpy as np
import pytest

from cryocal import (
    ErrorBudget,
    UncertaintyError,
    UncertaintyTable,
    combine_rss,
    format_return_loss,
    interp_ecal_sigma,
    to_return_loss,
)


def test_rss_default_terms():
    budget = ErrorBudget(sigma_ecal=0.0, sigma_switch_var=0.006)
    assert combine_rss(budget) == pytest.approx(0.006)


def test_rss_with_repeatability():
    budget = ErrorBudget(sigma_ecal=0.0, sigma_switch_var=5e-3, sigma_switch_rep=4e-4)
    assert combine_rss(budget, include_rep=True) == pytest.approx(math.sqrt(25e-6 + 0.16e-6))


def test_rss_of_a_term_whose_square_overflows_is_finite():
    assert combine_rss(ErrorBudget(sigma_ecal=0.002, sigma_switch_var=1e300)) == 1e300


def test_rss_whose_sum_of_squares_overflows_is_finite():
    budget = ErrorBudget(sigma_ecal=0.0, sigma_switch_var=1e154, sigma_switch_rep=1e154)
    assert combine_rss(budget, include_rep=True) == pytest.approx(math.sqrt(2) * 1e154)


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


def test_return_loss_whose_worse_bound_overflows_is_rejected():
    # s11 + sigma rounds to inf, whose dB bar no integer display holds
    message = "sigma_rss must be >= 0 with s11_linear + sigma_rss finite, got 1e+308"
    with pytest.raises(UncertaintyError, match=f"^{re.escape(message)}$"):
        to_return_loss(1e308, 1e308)
    assert to_return_loss(1e308, 7e307).lower_db < math.inf


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


@pytest.mark.parametrize(
    "build",
    [
        lambda: ErrorBudget(math.nan, 0.0),
        lambda: ErrorBudget(0.0, 0.0, sigma_switch_rep=math.nan),
        lambda: to_return_loss(math.nan, 0.01),
        lambda: to_return_loss(0.1, math.nan),
        lambda: to_return_loss(0.1, math.inf),
    ],
    ids=["budget-sigma", "budget-rep", "rl-s11", "rl-sigma", "rl-infinite-sigma"],
)
def test_nan_inputs_are_rejected(build):
    # NaN fails every comparison, so each check must be one that NaN fails
    with pytest.raises(UncertaintyError):
        build()


def test_table_validation():
    with pytest.raises(UncertaintyError):
        UncertaintyTable(np.array([1.0, 1.0, 2.0]), np.array([1e-3, 1e-3, 1e-3]))
    with pytest.raises(UncertaintyError):
        UncertaintyTable(np.array([1.0, 2.0]), np.array([1e-3, 0.0]))


def test_table_of_one_row_is_rejected():
    with pytest.raises(UncertaintyError, match="^table needs matching 1-d columns with >= 2 rows$"):
        UncertaintyTable(np.array([10.0]), np.array([1e-3]))
