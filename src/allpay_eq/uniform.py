"""Closed forms for the special case where every bidder shares one probability.

With a common participation probability p the equilibrium collapses to a
single piece on [0, 1 - lam] with lam = (1-p)**(n-1), and means and variances
of the bids and of both revenue models have explicit expressions.  These
double as consistency oracles for the general-case module evaluated at a
constant probability vector.

One caution on the sum-revenue dispersion: :func:`uniform_sum_profit` returns
the variance as n p^2 Var[bid], i.e. the conditional bid variance scaled as if
each bidder contributed p * bid deterministically.  The realized revenue of a
simulated auction is a sum of Bernoulli(p)-gated bids, whose variance is the
larger n (p E[bid^2] - p^2 E[bid]^2); use
:func:`uniform_sum_revenue_variance` when comparing against simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ValidationError, _check_integer


@dataclass(frozen=True)
class UniformCase:
    """n >= 2 bidders, each participating with the same probability p in (0, 1].

    n is an integer; neither n nor p may be a bool.
    """

    n: int
    p: float

    def __post_init__(self) -> None:
        if _check_integer("n", self.n) < 2:
            raise ValidationError(f"uniform case needs n >= 2, got n={self.n}")
        if isinstance(self.p, bool) or not 0.0 < self.p <= 1.0:
            raise ValidationError(f"common probability must lie in (0, 1], got {self.p!r}")

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
    """Mean of the sum-profit auctioneer's revenue and its scaled-bid spread:

        mean = 1 - (1-p)**(n-1) (1 + p (n-1))
        var  = n p^2 Var[bid]

    See the module docstring: this variance excludes participation noise.
    """
    n, p, q = case.n, case.p, 1.0 - case.p
    mean = 1.0 - q ** (n - 1) * (1.0 + p * (n - 1))
    var = n * p**2 * uniform_bid_moments(case)[1]
    return mean, var


def uniform_sum_revenue_variance(case: UniformCase) -> float:
    """Variance of the realized total revenue, participation noise included:

        n (p E[bid^2] - p^2 E[bid]^2)

    with the conditional bid moments from :func:`uniform_bid_moments`.  This
    is what the sample variance of simulated sum revenue converges to.
    """
    n, p = case.n, case.p
    mean, var = uniform_bid_moments(case)
    second = var + mean**2
    return n * (p * second - (p * mean) ** 2)


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
