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
integrands are still evaluated in x, through the bid density and the bid
CDF, so the routes stay independent of the closed forms.

All three routes, for all bidders, come from one pass per config
(_oracle_table), which rests on two identities on piece k: every bidder
i >= k has p_i f_i(x) = p_k f_k(x), and the same factor
p_i F_i(x) + 1 - p_i = p_k F_k(x) + 1 - p_k, while every bidder j < k has
the factor 1 - p_j, so the winning-bid CDF there is
C_k (p_k F_k(x) + 1 - p_k)**(n-k+1).  So bidder k's own density and CDF, on
piece k alone, serve every bidder and G, and a cumulative sum over the
pieces gives each bidder's integrals.  The test suite holds both identities
separately on every piece, through the public pdf of every bidder and
through cdf and winning_bid_cdf, and compares the pass with each bidder's
own density integrated over its own pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import AuctionConfig, AuctionError
from .equilibrium import (
    _BLOCK_ENTRIES,
    _bid_of_level,
    _cdf_array,
    _check_bidder,
    _opponent_product,
    _pdf_array,
    _scalar_or_array,
    equilibrium_profile,
)


def expected_bid(config: AuctionConfig, i: int) -> float:
    """Expected equilibrium bid of bidder i (see expected_bids)."""
    bids = expected_bids(config)
    i = _check_bidder(config, i)
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
    c, lo, hi = prof.prefix_rev[m], 1.0 - prof.p, 1.0 - prof.p_prev
    terms = c * (hi ** (m + 1) - lo ** (m + 1)) / (m + 1) - prof.lam * prof.width
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

        G(x) = prod_i (p_i F_i(x) + 1 - p_i)  on [0, s_0),

    with G(0) the probability that the winning bid is 0 (nobody outbids the
    atom, or nobody shows up at all, which scores a winning bid of 0).  G is
    0 below 0 and exactly 1 from s_0 up.
    """
    prof = equilibrium_profile(config)

    def kernel(xs: np.ndarray) -> np.ndarray:
        g = _opponent_product(prof, xs)
        g[xs < 0.0] = 0.0
        return g

    return _scalar_or_array(kernel, x)


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
    c, lo, hi = prof.prefix_rev[m], 1.0 - prof.p, 1.0 - prof.p_prev
    top = c * (m + 1) / (2 * m + 1) * (hi ** (2 * m + 1) - lo ** (2 * m + 1))
    return float(np.sum(c * (top - prof.lam * (hi ** (m + 1) - lo ** (m + 1)))))


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
        atoms = [0.0] * (cfg.n - 1) + [self.atom_at_zero_last]
        sorted_rows, caller_rows = cfg.report_rows(
            [
                {"expected_bid": bid, "expected_utility": utility, "atom_at_zero": atom}
                for bid, utility, atom in zip(self.expected_bids, self.expected_utilities, atoms)
            ],
            {"expected_bid": None, "expected_utility": 0.0, "atom_at_zero": 0.0},
        )
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
    """The n-node Gauss-Legendre rule on [-1, 1], nodes ascending, in numpy
    alone (no LAPACK).

    The nodes x >= 0 come from Newton's method on P_n, evaluated with its
    three-term recurrence, started at Tricomi's asymptotic nodes
    (1 - (n-1)/(8n^3)) cos(pi (4k-1)/(4n+2)); the steps fall below one ulp
    within four iterations.  The weights are 2/((1 - x^2) P_n'(x)^2), as
    2(1 - x^2)/(n (P_{n-1}(x) - x P_n(x)))^2: the x P_n term, 0 at the exact
    node, makes the weight right to first order in the node's rounding.  The
    rule is mirrored to x < 0, and an odd n has the node 0 exactly."""
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    if n % 2:
        x[-1] = 0.0
    for _ in range(10):
        p_n, p_prev = _legendre_pair(n, x)
        step = p_n * (1.0 - x) * (1.0 + x) / (n * (p_prev - x * p_n))  # P_n / P_n'
        x -= step
        if np.max(np.abs(step)) <= np.finfo(float).eps:
            break
    p_n, p_prev = _legendre_pair(n, x)
    w = 2.0 * (1.0 - x) * (1.0 + x) / (n * (p_prev - x * p_n)) ** 2
    half = n // 2  # the nodes below 0 mirror the first ones above
    return np.concatenate([-x[:half], x[::-1]]), np.concatenate([w[:half], w[::-1]])


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_{n-1}(x)) by the recurrence j P_j = (2j-1) x P_{j-1} - (j-1) P_{j-2}."""
    prev, cur = np.ones_like(x), x
    for j in range(2, n + 1):
        prev, cur = cur, ((2 * j - 1) * x * cur - (j - 1) * prev) / j
    return cur, prev


@lru_cache(maxsize=1)
def _oracle_table(config: AuctionConfig) -> tuple[tuple[float, ...], tuple[float, ...], float]:
    """Every bidder's expected bid and mass, in sorted bidder order, and the
    integral of the winning-bid CDF G over [0, s_0], by quadrature in one
    pass over the nonempty pieces.

    Piece k gets the n nodes of one fixed Gauss-Legendre rule in h = H_k(x)
    over [1 - p_k, 1 - p_{k-1}], with weights w, so that the integral of g
    over the piece is sum(g(x) * dx * w): x is the bid of level h
    (equilibrium._bid_of_level) and dx = m C_k h**(m-1) dh its slope, so the
    integrands x f_i dx, f_i dx and G dx are polynomials in h of degree m, 0
    and 2m <= 2n - 2 (m = n - k), which n nodes integrate exactly.

    By the module docstring's identities, bidder k's own density and CDF at
    the nodes of piece k alone give p_i f_i for every bidder i >= k, and G.
    One cumulative sum over the pieces of p_k x f_k dx and p_k f_k dx then
    holds, at piece min(i, n-1), p_i times bidder i's integrals over its
    support; bidder n's mass adds its atom.  Entries that are not finite are
    kept, for the oracle functions to report; the pass itself warns of
    nothing.  Only the last config is memoized, as for the audits.

    The pieces are walked in blocks of about _BLOCK_ENTRIES nodes, and each
    piece's sums come from its own row alone, so the transient memory is
    bounded whatever n is, and the sums do not depend on the blocking."""
    prof = equilibrium_profile(config)
    pieces = np.flatnonzero(prof.width > 0.0)
    step = max(1, _BLOCK_ENTRIES // prof.n)  # pieces per block, n nodes each
    t, w = _gauss_legendre(prof.n)  # one column per node
    bids, masses, below = np.zeros((3, prof.n - 1))
    with np.errstate(all="ignore"):  # the oracle functions report it
        for start in range(0, len(pieces), step):
            block = pieces[start : start + step]
            k = block[:, None]  # row per piece, 0-based
            m, p_k, half = prof.m[k], prof.p[k], prof.width[k] / 2.0
            c = prof.prefix_rev[m]
            h = (1.0 - p_k) + half * (t + 1.0)
            x = _bid_of_level(prof, h, np.broadcast_to(m, h.shape))
            dx = m * c * h ** (m - 1) * half
            weight = p_k * _pdf_array(prof, k + 1, x) * dx * w  # p_k f_k dx w
            bids[block] = np.sum(x * weight, axis=1)
            masses[block] = np.sum(weight, axis=1)
            g = p_k * _cdf_array(prof, k + 1, x) + 1.0 - p_k
            below[block] = np.sum(c * g ** (m + 1) * dx * w, axis=1)  # G dx w
            del h, x, dx, weight, g  # release this block before the next one is built
        piece = np.minimum(np.arange(prof.n), prof.n - 2)  # bidder i reads piece min(i, n-1)
        bids = np.cumsum(bids)[piece] / prof.probs
        masses = np.cumsum(masses)[piece] / prof.probs
    masses[-1] += prof.atom_n
    return tuple(bids.tolist()), tuple(masses.tolist()), float(np.sum(below))


def _oracle_entry(config: AuctionConfig, i: int, column: int) -> float:
    """Bidder i's entry of _oracle_table's column; AuctionError if not finite."""
    equilibrium_profile(config)  # n >= 2 is checked before the index
    i = _check_bidder(config, i)
    total = _oracle_table(config)[column][i - 1]
    if not np.isfinite(total):
        raise AuctionError(f"quadrature over bidder {i}'s support is not finite: {total}")
    return total


def expected_bid_quadrature(config: AuctionConfig, i: int) -> float:
    """E[bid_i] by quadrature of x * f_i(x) piece by piece (an atom at 0 adds
    0), from the all-bidder pass.  Raises AuctionError if it is not finite."""
    return _oracle_entry(config, i, 0)


def distribution_mass_quadrature(config: AuctionConfig, i: int) -> float:
    """Total probability mass of bidder i: atom plus quadrature of the density,
    from the all-bidder pass.  Raises AuctionError if it is not finite."""
    return _oracle_entry(config, i, 1)


def max_profit_quadrature(config: AuctionConfig) -> float:
    """E of the winning bid by Stieltjes integration of x dG over [0, s_0],
    integrated by parts so only G itself is ever evaluated: s_0 G(s_0) minus
    the piecewise quadrature of G from the all-bidder pass, with G(s_0) = 1
    (an atom at 0 adds 0).  Raises AuctionError if the quadrature is not
    finite."""
    prof = equilibrium_profile(config)
    total = _oracle_table(config)[2]
    if not np.isfinite(total):
        raise AuctionError(f"quadrature of the winning-bid CDF G is not finite: {total}")
    return prof.breakpoints[0] - total
