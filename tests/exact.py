"""Exact rational values of the equilibrium's closed forms, for the tests.

A float probability is a dyadic rational, so ``Fraction(p)`` holds it exactly,
and every quantity below is a rational function of the p_j: its value here is
exact, and rounding it once gives the correctly rounded float.  Each function
follows the paper's formulas as the package states them (the breakpoint
definition in the ``allpay_eq.equilibrium`` docstring, the per-piece bid
integral, the telescoped form quoted in ``metrics.max_profit``), not the
package's equilibrium table, so a bug in that table cannot hide in both.

Every function takes ``p = exact_probabilities(probs)``: the list
[p_0, p_1, ..., p_n] with the dummy p_0 = 0, then the positive probabilities
in ascending order, as ``build_config`` sorts them.
"""

from fractions import Fraction
from itertools import accumulate
from operator import mul


def exact_probabilities(probs) -> list[Fraction]:
    """[0, p_1, ..., p_n]: the dummy p_0 and the positive probabilities, sorted."""
    return [Fraction(0)] + sorted(Fraction(v) for v in probs if v > 0)


def prefix_products(p) -> list[Fraction]:
    """[C_0, ..., C_n] with C_k = prod_{j=0}^{k-1} (1 - p_j), so C_0 = C_1 = 1."""
    return list(accumulate((1 - v for v in p[:-1]), mul, initial=Fraction(1)))


def lam(p) -> Fraction:
    """Per-participation profit prod_{j=1}^{n-1} (1 - p_j), which is C_n."""
    return prefix_products(p)[-1]


def breakpoints(p) -> list[Fraction]:
    """[s_0, ..., s_{n-1}] with s_k = C_k (1 - p_k)**(n - k) - lam."""
    n = len(p) - 1
    c = prefix_products(p)
    return [c[k] * (1 - p[k]) ** (n - k) - c[n] for k in range(n)]


def piece_bid_integrals(p) -> list[Fraction]:
    """The integral of x dh over each piece k = 1..n-1.

    On [s_k, s_{k-1}] every active bidder's CDF is a shift of the level
    h = H_k(x) = ((lam + x)/C_k)**(1/m), m = n - k, so x = C_k h**m - lam, and
    h runs from H_k(s_k) = 1 - p_k up to H_k(s_{k-1}) = 1 - p_{k-1} (both
    asserted from the breakpoint definition).  The integral is
    C_k (hi**(m+1) - lo**(m+1))/(m+1) - lam (hi - lo).
    """
    n = len(p) - 1
    c, s = prefix_products(p), breakpoints(p)
    out = []
    for k in range(1, n):
        m, lo, hi = n - k, 1 - p[k], 1 - p[k - 1]
        assert c[n] + s[k] == c[k] * lo**m and c[n] + s[k - 1] == c[k] * hi**m
        out.append(c[k] * (hi ** (m + 1) - lo ** (m + 1)) / (m + 1) - c[n] * (hi - lo))
    return out


def expected_bids(p) -> list[Fraction]:
    """E[bid_i] for i = 1..n.  F_i = (H_k + p_i - 1)/p_i on each of bidder i's
    pieces k = 1..min(i, n-1), so dF_i = dh/p_i there, and the last bidder's
    atom at 0 adds nothing: E[bid_i] is (1/p_i) times the sum of those pieces'
    bid integrals."""
    n = len(p) - 1
    sums = list(accumulate(piece_bid_integrals(p)))
    return [sums[min(i, n - 1) - 1] / p[i] for i in range(1, n + 1)]


def max_profit(p) -> Fraction:
    """The max-profit auctioneer's revenue in the paper's telescoped form

        n/(2n-1) - lam + sum_{k=1}^{n-1} (1-p_k)**(2n-2k-1)
                                         * prod_{j<=k}(1-p_j)**2 / (4(n-k)**2 - 1),

    where prod_{j<=k}(1 - p_j) is C_{k+1}."""
    n = len(p) - 1
    c = prefix_products(p)
    tail = sum(
        (1 - p[k]) ** (2 * n - 2 * k - 1) * c[k + 1] ** 2 / (4 * (n - k) ** 2 - 1)
        for k in range(1, n)
    )
    return Fraction(n, 2 * n - 1) - c[n] + tail
