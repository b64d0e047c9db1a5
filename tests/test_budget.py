"""The budget's constants against the chain its module docstring proves."""
import itertools
import math

import pytest

from streamsched import budget

EPS = (1e-6, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0)
ALPHA0 = (1e-4, 0.01, 0.05, 0.1, 0.3, 0.5, 0.9, 1.0)
MU = (1, 2, 3, 7, 10, 57, 100, 333, 999, 1000)


def upper_factors(eps, alpha0, mu):
    """The docstring's factors between OPT and V at the proven delta, from
    the constants the program uses."""
    tau = budget.tau(eps, alpha0)
    delta = budget.delta(eps, alpha0, mu)
    return {
        "rounding": 1.0 + tau / alpha0,
        "ladder": (1.0 + 3.0 * delta / alpha0) ** mu,
        "prune": (1.0 + delta / alpha0) ** mu,
        "small jobs": 1.0 + eps / 3.0,  # V' over sigma_S'
        "float margin": 1.0 + budget.FLOAT_MARGIN,  # V over V'
    }


def test_factors_multiply_to_at_most_one_plus_eps():
    for eps, alpha0, mu in itertools.product(EPS, ALPHA0, MU):
        f = upper_factors(eps, alpha0, mu)
        assert math.prod(f.values()) <= 1.0 + eps, (eps, alpha0, mu, f)
        # each factor within the closed form the docstring gives it
        assert f["rounding"] == pytest.approx(1.0 + eps / 15.0, rel=1e-12)
        assert f["ladder"] <= math.exp(eps / 8.0) * (1.0 + 1e-12)
        assert f["prune"] <= math.exp(eps / 24.0) * (1.0 + 1e-12)


def test_closed_form_bound_at_eps_one():
    # (1 + 1/3)(1 + 1/15) e^(1/6), the docstring's 1.68
    bound = (4.0 / 3.0) * (16.0 / 15.0) * math.exp(1.0 / 6.0)
    assert 1.68 < bound < 1.681


@pytest.mark.parametrize("n, p_max", [(1, 1), (2, 7), (11, 1000), (10**6, 10**9)])
def test_small_jobs_cost_at_most_a_third_of_eps(n, p_max):
    # step 4: n_s jobs of at most theta each delay machine 1 by at most
    # n_s*theta/alpha0, for each of at most n jobs; that is <= (eps/3) p_max,
    # so V' <= (1 + eps/3) sigma_S'
    for eps, alpha0 in itertools.product(EPS, ALPHA0):
        theta = budget.threshold(eps, alpha0, n, p_max)
        for n_small in {0, 1, n // 2, n}:
            added = n * n_small * theta / alpha0
            assert added <= eps / 3.0 * p_max * (1.0 + 1e-12)


def test_running_threshold_stays_below_the_final_one():
    # theta at (n', p) with n' >= n and p <= p_max: every float step is
    # monotone, so it is at most theta at (n, p_max) exactly; with n = 2 and
    # p_max = 12, theta is the integer 1 at eps = alpha0 = 1
    assert budget.threshold(1.0, 1.0, 2, 12) == 1.0
    for eps, alpha0 in itertools.product(EPS, ALPHA0):
        for n, extra, p_max in itertools.product(
            (1, 2, 3, 1000), (0, 1, 50), (1, 12, 999, 10**6)
        ):
            final = budget.threshold(eps, alpha0, n, p_max)
            for p in {1, p_max // 2 or 1, p_max - 1 or 1, p_max}:
                assert budget.threshold(eps, alpha0, n + extra, p) <= final


def test_tau_rejects_a_ratio_that_rounds_to_one():
    assert budget.tau(1.0, 1.0) == 1.0 / 15.0
    with pytest.raises(ValueError, match="eps=1e-300 and alpha0=1.0 give tau="):
        budget.tau(1e-300, 1.0)
