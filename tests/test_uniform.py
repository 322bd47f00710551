import math
from fractions import Fraction

import numpy as np
import pytest

import allpay_eq as ap


def case(n, p):
    return ap.UniformCase(n=n, p=p)


def test_validation():
    with pytest.raises(ap.ValidationError):
        case(1, 0.5)
    with pytest.raises(ap.ValidationError):
        case(3, 0.0)
    with pytest.raises(ap.ValidationError):
        case(3, 1.2)
    for p in (True, "0.5", None, 10**400, np.complex128(0.5 + 1j)):
        with pytest.raises(ap.ValidationError, match="common probability must be a real number"):
            case(3, p)


def test_numpy_bool_probability_rejected():
    with pytest.raises(ap.ValidationError, match="common probability must be a real number"):
        ap.UniformCase(3, np.True_)


N_ROUTES = {
    "UniformCase": lambda n: case(n, 0.5),
    "no_failure_cdf": lambda n: ap.no_failure_cdf(n, 0.5),
    "no_failure_baseline": ap.no_failure_baseline,
}


@pytest.mark.parametrize("route", N_ROUTES.values(), ids=N_ROUTES.keys())
@pytest.mark.parametrize("bad", [4.0, 2.5, "3", True, None], ids=repr)
def test_n_must_be_an_integer(route, bad):
    """n = 2.5 would give lam = (1 - p) ** 1.5, and a bool is no bidder count."""
    with pytest.raises(ap.ValidationError, match="n must be an integer"):
        route(bad)


@pytest.mark.parametrize("route", N_ROUTES.values(), ids=N_ROUTES.keys())
@pytest.mark.parametrize("bad", [1, 0, -3])
def test_n_below_two_is_degenerate(route, bad):
    with pytest.raises(ap.DegenerateAuctionError, match="degenerate auction: n >= 2"):
        route(bad)


def test_case_keeps_python_numbers():
    c = case(np.int64(3), np.float32(0.5))
    assert type(c.n) is int and type(c.p) is float
    assert ap.uniform_bid_moments(c) == ap.uniform_bid_moments(case(3, 0.5))
    assert ap.no_failure_baseline(np.int64(5)) == ap.no_failure_baseline(5)
    assert type(ap.no_failure_baseline(np.int64(5)).n) is int


def test_bid_moments_examples():
    assert ap.uniform_bid_moments(case(2, 1.0))[0] == pytest.approx(0.5, rel=1e-15)
    mean, var = ap.uniform_bid_moments(case(3, 0.5))
    assert mean == pytest.approx(1 / 3, rel=1e-14)
    assert var == pytest.approx(17 / 360, rel=1e-13)


def test_bid_moments_reduce_to_baseline_at_p1():
    # the classic bid CDF x ** (1/(n-1)) on [0, 1]: mean 1/n, second moment 1/(2n-1)
    for n in (2, 3, 5, 8):
        mean, var = ap.uniform_bid_moments(case(n, 1.0))
        assert mean == pytest.approx(float(Fraction(1, n)), rel=1e-14)
        assert var == pytest.approx(float(Fraction(1, 2 * n - 1) - Fraction(1, n**2)), rel=1e-14)


def test_bid_mean_not_monotone():
    """Witnesses found by grid search: the mean bid moves both ways in n and p."""
    m = lambda n, p: ap.uniform_bid_moments(case(n, p))[0]
    assert m(3, 0.5) > m(2, 0.5) and m(5, 0.5) < m(4, 0.5)  # non-monotone in n
    assert m(3, 0.9) > m(3, 0.5) and m(3, 1.0) < m(3, 0.9)  # non-monotone in p


def test_bidder_profit_examples():
    mean, _ = ap.uniform_bidder_profit(case(3, 0.5))
    assert mean == pytest.approx(0.125, rel=1e-15)
    for n in (2, 4, 6):
        mean, var = ap.uniform_bidder_profit(case(n, 1.0))
        assert mean == 0.0
        assert var == pytest.approx((n - 1) / (n * (2 * n - 1)), rel=1e-14)


def test_bidder_profit_argmax_at_inverse_n():
    for n in (2, 3, 5):
        grid = np.linspace(0.001, 1.0, 4001)
        means = [ap.uniform_bidder_profit(case(n, p))[0] for p in grid]
        assert grid[int(np.argmax(means))] == pytest.approx(1 / n, abs=2e-3)


def test_bidder_profit_variance_monotone_in_p():
    for n in (2, 3, 4, 6):
        grid = np.linspace(1e-3, 1.0, 1000)
        vals = np.array([ap.uniform_bidder_profit(case(n, p))[1] for p in grid])
        # nondecreasing on the grid (increments saturate float resolution at
        # p -> 1 for larger n) and strictly rising overall
        assert np.all(np.diff(vals) >= 0)
        assert vals[-1] > vals[0]


def test_sum_profit_examples():
    assert ap.uniform_sum_profit(case(4, 1.0))[0] == pytest.approx(1.0, abs=1e-15)
    mean, var = ap.uniform_sum_profit(case(3, 0.5))
    assert mean == pytest.approx(0.5, rel=1e-15)
    assert var == pytest.approx(37 / 240, rel=1e-12)


def test_sum_revenue_variance_includes_participation_noise():
    c = case(3, 0.5)
    mean, var = ap.uniform_bid_moments(c)
    expect = 3 * (0.5 * (var + mean**2) - (0.5 * mean) ** 2)
    got = ap.uniform_sum_profit(c)[1]
    assert got == pytest.approx(expect, rel=1e-13)
    assert got == pytest.approx(37 / 240, rel=1e-12)
    # with no participation noise it is n Var[bid], bit for bit
    for n in (2, 4, 7):
        c = case(n, 1.0)
        assert ap.uniform_sum_profit(c)[1] == n * ap.uniform_bid_moments(c)[1]


def test_max_profit_examples():
    for n in (2, 3, 5):
        assert ap.uniform_max_profit(case(n, 1.0))[0] == pytest.approx(
            n / (2 * n - 1), rel=1e-14
        )
    assert ap.uniform_max_profit(case(2, 0.5))[0] == pytest.approx(5 / 24, rel=1e-14)
    tiny = ap.uniform_max_profit(case(4, 1e-9))[0]
    assert abs(tiny) < 1e-7  # vanishes as participation dries up


def test_max_profit_variance_reduces_to_baseline():
    # the winning bid has CDF x ** (n/(n-1)): second moment n/(3n-2), mean n/(2n-1)
    for n in (2, 3, 6):
        var = ap.uniform_max_profit(case(n, 1.0))[1]
        exact = Fraction(n, 3 * n - 2) - Fraction(n, 2 * n - 1) ** 2
        assert exact == Fraction(n * (n - 1) ** 2, (3 * n - 2) * (2 * n - 1) ** 2)
        assert var == pytest.approx(float(exact), rel=1e-12)


def test_uniform_matches_general_case():
    for n in range(2, 7):
        for p in np.arange(0.1, 1.01, 0.1):
            p = float(p)
            cfg = ap.build_config([p] * n)
            c = case(n, p)
            assert math.isclose(
                ap.uniform_bid_moments(c)[0], ap.expected_bid(cfg, 1), rel_tol=1e-9
            )
            assert math.isclose(
                ap.uniform_bidder_profit(c)[0], ap.expected_utility(cfg, 1), rel_tol=1e-9
            )
            assert math.isclose(ap.uniform_sum_profit(c)[0], ap.sum_profit(cfg), rel_tol=1e-9)
            assert math.isclose(ap.uniform_max_profit(c)[0], ap.max_profit(cfg), rel_tol=1e-9)


def test_monotone_revenue_statements():
    # sum-profit mean rises with p and with n; max-profit mean rises with p
    for f in (lambda c: ap.uniform_sum_profit(c)[0], lambda c: ap.uniform_max_profit(c)[0]):
        for n in (2, 4):
            grid = [f(case(n, p)) for p in np.linspace(0.05, 1.0, 200)]
            assert np.all(np.diff(grid) > 0)
    for p in (0.3, 0.8):
        grid = [ap.uniform_sum_profit(case(n, p))[0] for n in range(2, 12)]
        assert np.all(np.diff(grid) > 0)
    # max-profit is NOT monotone in n: it overshoots its n/(2n-1) limit and
    # drifts back down once the failure terms die off
    high_p = [ap.uniform_max_profit(case(n, 0.8))[0] for n in range(2, 12)]
    assert high_p[2] > high_p[1] > high_p[0] and high_p[4] < high_p[2]


# ---------------------------------------------------------------------------
# Monte Carlo verification of the variance formulas (one seeded 1e6 run)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def uniform_mc():
    cfg = ap.build_config([0.5] * 3)
    return ap.monte_carlo(cfg, 1_000_000, seed=11)


def _within(mc_value, se, target, k=4):
    return abs(mc_value - target) <= k * se


def test_mc_bid_variance(uniform_mc):
    _, var = ap.uniform_bid_moments(case(3, 0.5))
    b = uniform_mc.bidders[0]
    assert _within(b.bid_variance, b.bid_variance_se, var)


def test_mc_bidder_profit_variance(uniform_mc):
    _, var = ap.uniform_bidder_profit(case(3, 0.5))
    b = uniform_mc.bidders[1]
    assert _within(b.utility_variance, b.utility_variance_se, var)


def test_mc_max_profit_variance(uniform_mc):
    _, var = ap.uniform_max_profit(case(3, 0.5))
    assert _within(uniform_mc.max_revenue.variance, uniform_mc.max_revenue.variance_se, var)


def test_mc_sum_revenue_variance(uniform_mc):
    """The realized sum-revenue spread matches the participation-inclusive
    closed form."""
    target = ap.uniform_sum_profit(case(3, 0.5))[1]
    stats = uniform_mc.sum_revenue
    assert _within(stats.variance, stats.variance_se, target)
