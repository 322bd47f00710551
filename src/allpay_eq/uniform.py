"""Closed forms for the special case where every bidder shares one probability.

With a common participation probability p the equilibrium collapses to a
single piece on [0, 1 - lam] with lam = (1-p)**(n-1), and means and variances
of the bids and of both revenue models have explicit expressions.  These
double as consistency oracles for the general-case module evaluated at a
constant probability vector, and at p = 1 they give the no-failure baseline
table (no_failure_baseline).

Accuracy: the forms subtract terms in (1-p)**k that cancel as p -> 0, so
their relative error grows like a rounding unit over a power of p.  Against
exact rationals, for 2 <= n < 40 and p >= 0.01 every mean and variance is
within 5e-10 relative (the worst is the bid variance at n = 2, p = 0.01).
Below that they drift: at n = 3 the bid variance is 6.6e-5 relative off at
p = 1e-4 and 1.4 at p = 1e-6, and the max-revenue variance 36 times off at
p = 1e-6.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import DegenerateAuctionError, ValidationError, _check_integer, _check_real


@dataclass(frozen=True)
class UniformCase:
    """n >= 2 bidders, each participating with the same probability p in (0, 1].

    n is an integer and p a real number; neither may be a bool.  They are
    kept as a Python int and a Python float.
    """

    n: int
    p: float

    def __post_init__(self) -> None:
        n = _check_integer("n", self.n)
        if n < 2:
            raise DegenerateAuctionError(f"degenerate auction: n >= 2 required, got n={n}")
        p = _check_real("common probability", self.p)
        if not 0.0 < p <= 1.0:
            raise ValidationError(f"common probability must lie in (0, 1], got {self.p!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)

    @property
    def lam(self) -> float:
        return (1.0 - self.p) ** (self.n - 1)


def uniform_bid_moments(case: UniformCase) -> tuple[float, float]:
    """Mean and variance of a participating bidder's equilibrium bid:

        mean = (1/(n p)) (1 - lam (1 + p (n-1)))
        var  = (1 - (1-p)**(2n-1)) / ((2n-1) p) - (1 - (1-p)**n)**2 / (n p)**2
    """
    n, p, q = case.n, case.p, 1.0 - case.p
    mean = (1.0 - case.lam * (1.0 + p * (n - 1))) / (n * p)
    var = (1.0 - q ** (2 * n - 1)) / ((2 * n - 1) * p) - (1.0 - q**n) ** 2 / (n * p) ** 2
    return mean, var


def uniform_bidder_profit(case: UniformCase) -> tuple[float, float]:
    """Mean and variance of a bidder's overall profit (absences count as 0):

        mean = p (1-p)**(n-1)
        var  = (n-1)/(n(2n-1)) - (1-p)**n / n + (p + 1/(2n-1)) (1-p)**(2n-1)

    The mean is maximized over p at p = 1/n.
    """
    n, p, q = case.n, case.p, 1.0 - case.p
    mean = p * q ** (n - 1)
    var = (n - 1) / (n * (2.0 * n - 1)) - q**n / n + (p + 1.0 / (2 * n - 1)) * q ** (
        2 * n - 1
    )
    return mean, var


def uniform_sum_profit(case: UniformCase) -> tuple[float, float]:
    """Mean and variance of the sum-profit auctioneer's realized revenue, a
    sum of n bids that each count only if their bidder shows up:

        mean = 1 - (1-p)**(n-1) (1 + p (n-1))
        var  = n p (Var[bid] + E[bid]^2 (1-p))

    with the conditional bid moments from :func:`uniform_bid_moments`.
    """
    n, p, q = case.n, case.p, 1.0 - case.p
    mean = 1.0 - q ** (n - 1) * (1.0 + p * (n - 1))
    bid, bid_var = uniform_bid_moments(case)
    return mean, n * p * (bid_var + bid**2 * q)


def uniform_max_profit(case: UniformCase) -> tuple[float, float]:
    """Mean and variance of the max-profit auctioneer's revenue:

        mean = n/(2n-1) + ((n-1)/(2n-1)) (1-p)**(2n-1) - (1-p)**(n-1)
        var  = (1-p)**(2n-2) - 2n (1-p)**(n-1) / (2n-1) + n/(3n-2)
               - 2 (n-1)^2 (1-p)**(3n-2) / ((3n-2)(2n-1)) - mean**2
    """
    n, q = case.n, 1.0 - case.p
    mean = n / (2.0 * n - 1) + (n - 1) / (2.0 * n - 1) * q ** (2 * n - 1) - q ** (n - 1)
    second = (
        q ** (2 * n - 2)
        - 2.0 * n * q ** (n - 1) / (2 * n - 1)
        + n / (3.0 * n - 2)
        - 2.0 * (n - 1) ** 2 * q ** (3 * n - 2) / ((3.0 * n - 2) * (2 * n - 1))
    )
    return mean, second - mean**2


@dataclass(frozen=True)
class NoFailureBaseline:
    """Fully-reliable benchmark quantities (means and variances) for n bidders."""

    n: int
    expected_bid: float
    bid_variance: float
    bidder_utility: float
    utility_variance: float
    sum_profit: float
    sum_profit_variance: float
    max_profit: float
    max_profit_variance: float


def no_failure_baseline(n: int) -> NoFailureBaseline:
    """Benchmark table for the classic auction where everyone always shows up:
    expected bid 1/n, bidder utility 0, sum revenue 1, max revenue n/(2n-1),
    with the matching variances.  These are the closed forms above at p = 1,
    where the sum revenue carries no participation noise.  n must be an
    integer (not a bool) of at least 2."""
    case = UniformCase(n=n, p=1.0)
    bid, bid_var = uniform_bid_moments(case)
    utility, utility_var = uniform_bidder_profit(case)
    revenue, revenue_var = uniform_sum_profit(case)
    max_revenue, max_revenue_var = uniform_max_profit(case)
    return NoFailureBaseline(
        n=case.n,
        expected_bid=bid,
        bid_variance=bid_var,
        bidder_utility=utility,
        utility_variance=utility_var,
        sum_profit=revenue,
        sum_profit_variance=revenue_var,
        max_profit=max_revenue,
        max_profit_variance=max_revenue_var,
    )
