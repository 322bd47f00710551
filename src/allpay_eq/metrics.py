"""Closed-form expected bids and auctioneer revenue for both profit models.

Two revenue models are covered: the sum-profit auctioneer collects every
submitted bid, the max-profit auctioneer collects only the winning bid.  Both
the closed forms and their quadrature routes read piece k from the
equilibrium's one cached table (EquilibriumProfile), as the interval
[1 - p_k, 1 - p_{k-1}] swept by the level h = H_k(x), in which bids and CDFs
are polynomials.  The routes (of the bid densities or of the winning-bid CDF,
used by the test suite) never integrate across a breakpoint, and in h one
fixed Gauss-Legendre rule of n nodes over all pieces is exact up to rounding:
no tolerance, no adaptivity, and no dependency beyond numpy.  Their
integrands are still evaluated in x, through the bid density and the
winning-bid CDF, so the routes stay independent of the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .config import AuctionConfig, AuctionError, DegenerateAuctionError
from .equilibrium import (
    EquilibriumProfile,
    _check_bidder,
    _opponent_product,
    _pdf_array,
    _scalar_or_array,
    equilibrium_profile,
)
from .uniform import (
    UniformCase,
    uniform_bid_moments,
    uniform_bidder_profit,
    uniform_max_profit,
    uniform_sum_profit,
)


def expected_bid(config: AuctionConfig, i: int) -> float:
    """Expected equilibrium bid of bidder i (see expected_bids)."""
    bids = expected_bids(config)
    _check_bidder(config, i)
    return bids[i - 1]


def expected_bids(config: AuctionConfig) -> tuple[float, ...]:
    """Expected bids of all bidders in sorted order, conditional on
    participating.  On piece k, x = C_k h**m - lam and dF_i = dh / p_i with
    h over [lo, hi] = [1 - p_k, 1 - p_{k-1}] and m = n - k, so for i <= n-1

        E[bid_i] = (1/p_i) * sum_{k=1}^{i} ( C_k (hi**(m+1) - lo**(m+1))/(m+1)
                                             - lam (p_k - p_{k-1}) )

    and the last bidder scales the second most reliable one:
    E[bid_n] = (p_{n-1}/p_n) * E[bid_{n-1}].
    """
    prof = equilibrium_profile(config)
    m = prof.m
    terms = prof.c * (prof.hi ** (m + 1) - prof.lo ** (m + 1)) / (m + 1) - prof.lam * prof.width
    bids = (np.cumsum(terms) / prof.p).tolist()
    p = config.probabilities
    return (*bids, p[-2] / p[-1] * bids[-1])


def sum_profit(config: AuctionConfig) -> float:
    """Sum-profit auctioneer's expected revenue, 1 - lam * (1 + sum_{i<n} p_i).

    Identical to sum_i p_i * E[bid_i]; the test suite holds both routes to
    1e-9 relative agreement.
    """
    prof = equilibrium_profile(config)
    p = config.probabilities
    return 1.0 - prof.lam * (1.0 + sum(p[: config.n - 1]))


def winning_bid_cdf(config: AuctionConfig, x) -> float | np.ndarray:
    """CDF of the winning (maximum submitted) bid,

        G(x) = prod_i (p_i F_i(x) + 1 - p_i),

    with G(0) the probability that the winning bid is 0 (nobody outbids the
    atom, or nobody shows up at all).
    """
    return _scalar_or_array(partial(_opponent_product, equilibrium_profile(config)), x)


def max_profit(config: AuctionConfig) -> float:
    """Max-profit auctioneer's expected revenue.  On piece k the winning-bid
    CDF is C_k h**(m+1), so with x = C_k h**m - lam it is

        sum_k C_k ( C_k (m+1)/(2m+1) (hi**(2m+1) - lo**(2m+1))
                    - lam (hi**(m+1) - lo**(m+1)) ),

    which telescopes to the paper's n/(2n-1) - lam + sum_{k=1}^{n-1}
    (1-p_k)**(2n-2k-1) * prod_{j<=k}(1-p_j)**2 / (4(n-k)**2 - 1).
    """
    prof = equilibrium_profile(config)
    m = prof.m
    top = prof.c * (m + 1) / (2 * m + 1) * (prof.hi ** (2 * m + 1) - prof.lo ** (2 * m + 1))
    return float(np.sum(prof.c * (top - prof.lam * (prof.hi ** (m + 1) - prof.lo ** (m + 1)))))


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
    with the matching variances.  These are the uniform closed forms at p = 1,
    where the sum revenue carries no participation noise."""
    if n < 2:
        raise DegenerateAuctionError("degenerate auction: n >= 2 required")
    case = UniformCase(n=n, p=1.0)
    bid, bid_var = uniform_bid_moments(case)
    utility, utility_var = uniform_bidder_profit(case)
    revenue, revenue_var = uniform_sum_profit(case)
    max_revenue, max_revenue_var = uniform_max_profit(case)
    return NoFailureBaseline(
        n=n,
        expected_bid=bid,
        bid_variance=bid_var,
        bidder_utility=utility,
        utility_variance=utility_var,
        sum_profit=revenue,
        sum_profit_variance=revenue_var,
        max_profit=max_revenue,
        max_profit_variance=max_revenue_var,
    )


@dataclass(frozen=True)
class RevenueReport:
    """Closed-form revenue summary for one auction config."""

    config: AuctionConfig
    lam: float
    expected_bids: tuple[float, ...]
    expected_utilities: tuple[float, ...]
    sum_profit: float
    max_profit: float
    atom_at_zero_last: float

    def to_dict(self) -> dict:
        """JSON-ready dict with bidder arrays in sorted and in caller order."""
        cfg = self.config
        sorted_rows = [
            {
                "bidder": i,
                "caller_position": cfg.caller_position(i),
                "probability": cfg.probabilities[i - 1],
                "expected_bid": self.expected_bids[i - 1],
                "expected_utility": self.expected_utilities[i - 1],
                "atom_at_zero": self.atom_at_zero_last if i == cfg.n else 0.0,
            }
            for i in range(1, cfg.n + 1)
        ]
        caller_rows = [dict(r) for r in sorted_rows]
        caller_rows += (
            {
                "bidder": None,
                "caller_position": pos,
                "probability": 0.0,
                "expected_bid": None,
                "expected_utility": 0.0,
                "atom_at_zero": 0.0,
            }
            for pos in cfg.dropped
        )
        caller_rows.sort(key=lambda r: r["caller_position"])
        return {
            "n": cfg.n,
            "lambda": self.lam,
            "breakpoints": list(equilibrium_profile(cfg).breakpoints),
            "sum_profit": self.sum_profit,
            "max_profit": self.max_profit,
            "bidders_sorted": sorted_rows,
            "bidders_caller_order": caller_rows,
            "dropped_caller_positions": list(cfg.dropped),
        }


def revenue_report(config: AuctionConfig) -> RevenueReport:
    """Assemble every closed-form quantity for the config."""
    prof = equilibrium_profile(config)
    p = config.probabilities
    return RevenueReport(
        config=config,
        lam=prof.lam,
        expected_bids=expected_bids(config),
        expected_utilities=tuple(p_i * prof.lam for p_i in p),
        sum_profit=sum_profit(config),
        max_profit=max_profit(config),
        atom_at_zero_last=prof.atom_n,
    )


# ---------------------------------------------------------------------------
# Quadrature routes (independent checks of the closed forms above)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on [-1, 1] (Golub & Welsch 1969)."""
    return np.polynomial.legendre.leggauss(n)


def _integrate_support(f, prof: EquilibriumProfile, i: int) -> float:
    """Integral of the vectorized f over bidder i's support (bidder n's holds
    every piece) by one fixed Gauss-Legendre rule in the piece variable
    h = H_k(x) over [lo, hi] = [1 - p_k, 1 - p_{k-1}], all pieces of positive
    width in one call of f.  On piece k, x = C_k h**m - lam with m = n - k, so
    dx = m C_k h**(m-1) dh and the oracles' integrands x f_i dx, f_i dx and
    G dx are polynomials in h of degree m, 0 and 2m <= 2n - 2, which n nodes
    integrate exactly.  Raises AuctionError if the result is not finite."""
    k = np.flatnonzero(prof.width[: min(i, prof.n - 1)] > 0.0)[:, None]  # row per piece
    m, c = prof.m[k], prof.c[k]
    t, w = _gauss_legendre(prof.n)  # one column per node
    half = prof.width[k] / 2.0
    h = prof.lo[k] + half * (t + 1.0)
    x = c * h**m - prof.lam
    dx = m * c * h ** (m - 1) * half
    with np.errstate(divide="ignore", invalid="ignore"):  # the guard below reports it
        total = float(np.sum(f(x.ravel()).reshape(x.shape) * dx * w))
    if not np.isfinite(total):
        raise AuctionError(f"quadrature over bidder {i}'s support is not finite: {total}")
    return total


def expected_bid_quadrature(config: AuctionConfig, i: int) -> float:
    """E[bid_i] by quadrature of x * f_i(x) piece by piece (an atom at 0 adds 0)."""
    prof = equilibrium_profile(config)
    _check_bidder(config, i)
    return _integrate_support(lambda x: x * _pdf_array(prof, i, x), prof, i)


def distribution_mass_quadrature(config: AuctionConfig, i: int) -> float:
    """Total probability mass of bidder i: atom plus quadrature of the density."""
    prof = equilibrium_profile(config)
    _check_bidder(config, i)
    atom = prof.atom_n if i == config.n else 0.0
    return atom + _integrate_support(lambda x: _pdf_array(prof, i, x), prof, i)


def max_profit_quadrature(config: AuctionConfig) -> float:
    """E of the winning bid by Stieltjes integration of x dG over [0, s_0],
    integrated by parts so only G itself is ever evaluated: s_0 G(s_0) minus
    the piecewise quadrature of G, with G(s_0) = 1 (an atom at 0 adds 0)."""
    prof = equilibrium_profile(config)
    return prof.breakpoints[0] - _integrate_support(partial(_opponent_product, prof), prof, prof.n)
