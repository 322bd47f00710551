"""Symmetric mixed equilibrium of the common-value all-pay auction with failures.

Each bidder i participates independently with probability p_i (sorted
ascending, value of the item normalized to 1).  In the symmetric equilibrium
every participating bidder earns

    lam = prod_{j=1}^{n-1} (1 - p_j),

and bids are drawn from piecewise distributions built from the helper

    H_k(x) = ((lam + x) / prod_{j=0}^{k-1}(1 - p_j)) ** (1 / (n - k)),

with a dummy p_0 = 0.  Piece k covers [s_k, s_{k-1}) where

    s_k = (1 - p_k)**(n-k) * prod_{j=0}^{k-1}(1 - p_j) - lam,    s_0 = 1 - lam,

and bidder i mixes on [s_i, s_0] according to F_i(x) = (H_k(x) + p_i - 1)/p_i.
The last bidder additionally holds an atom of mass 1 - p_{n-1}/p_n at bid 0.

When p_{n-1} = 1 the equilibrium is not unique (any bidder other than the two
most reliable ones may move mass to an atom at 0); this module materializes
the symmetric instance with no extra atoms, which the formulas above cover
with lam = 0.

Pieces of zero width (equal adjacent probabilities, or a probability of 1
below index n-1 forcing a zero prefix product) are stored but never selected
during evaluation or sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from .config import AuctionConfig, DegenerateAuctionError, ValidationError

_BREAKPOINT_TOL = 1e-12


@dataclass(frozen=True)
class EquilibriumProfile:
    """Derived equilibrium constants for one auction config.

    lam             : per-participation equilibrium profit, prod_{j<n}(1-p_j)
    breakpoints     : (s_0, ..., s_{n-1}), nonincreasing, s_{n-1} == 0.0
    prefix_products : entry k is prod_{j=0}^{k-1}(1-p_j), length n+1, entry n == lam
    atom_n          : mass of the last bidder's atom at bid 0, 1 - p_{n-1}/p_n
    """

    lam: float
    breakpoints: tuple[float, ...]
    prefix_products: tuple[float, ...]
    atom_n: float


@dataclass(frozen=True)
class DistributionPiece:
    """One closed-form CDF piece: F(x) = (H_k(x) + p_i - 1)/p_i on [lo, hi)."""

    k: int
    lo: float
    hi: float

    @property
    def empty(self) -> bool:
        return self.lo == self.hi


@dataclass(frozen=True)
class BidDistribution:
    """Piecewise bid distribution of one bidder (sorted index)."""

    bidder: int
    pieces: tuple[DistributionPiece, ...]
    atom_at_zero: float
    support: tuple[float, float]


@lru_cache(maxsize=256)
def equilibrium_profile(config: AuctionConfig) -> EquilibriumProfile:
    """Compute (and cache) lam, breakpoints, prefix products and the atom."""
    config.require_competition()
    p = config.probabilities
    n = config.n
    prefix = [1.0] * (n + 1)
    for k in range(2, n + 1):
        prefix[k] = prefix[k - 1] * (1.0 - p[k - 2])
    lam = prefix[n]
    s = [0.0] * n
    s[0] = 1.0 - lam
    for k in range(1, n):
        s[k] = (1.0 - p[k - 1]) ** (n - k) * prefix[k] - lam
    # s_{n-1} vanishes algebraically and the ordering s_0 >= ... >= s_{n-1} is
    # exact in the reals; float drift of ~1 ulp (duplicate probabilities make
    # adjacent formulas evaluate in different operand orders) is pinned away so
    # the interval logic can rely on both properties exactly.
    if abs(s[n - 1]) > _BREAKPOINT_TOL:
        raise AssertionError(f"lowest breakpoint {s[n-1]!r} not within {_BREAKPOINT_TOL} of 0")
    s[n - 1] = 0.0
    for k in range(n - 2, 0, -1):
        if s[k] < s[k + 1]:
            if s[k + 1] - s[k] > _BREAKPOINT_TOL:
                raise AssertionError(f"breakpoints out of order at k={k}: {s[k]!r} < {s[k+1]!r}")
            s[k] = s[k + 1]
    atom_n = 1.0 - p[n - 2] / p[n - 1]
    return EquilibriumProfile(
        lam=lam,
        breakpoints=tuple(s),
        prefix_products=tuple(prefix),
        atom_n=atom_n,
    )


def lambda_value(config: AuctionConfig) -> float:
    """Equilibrium profit of a participating bidder: prod over the n-1 smallest
    probabilities of (1 - p_j).  Empty product (n = 1) is 1."""
    return equilibrium_profile(config).lam if config.n > 1 else 1.0


def breakpoints(config: AuctionConfig) -> list[float]:
    """Support breakpoints [s_0, ..., s_{n-1}] (requires n >= 2)."""
    return list(equilibrium_profile(config).breakpoints)


def atom_at_zero(config: AuctionConfig, i: int) -> float:
    """Probability mass at bid 0: zero except 1 - p_{n-1}/p_n for the last bidder."""
    prof = equilibrium_profile(config)
    _check_bidder(config, i)
    return prof.atom_n if i == config.n else 0.0


def h_value(config: AuctionConfig, k: int, x: float) -> float:
    """Evaluate H_k(x) = ((lam + x)/prefix_k) ** (1/(n-k)).

    Raises ValidationError for k outside 1..n-1, for a vanished prefix product
    (such pieces are never used), or for x < -lam.
    """
    prof = equilibrium_profile(config)
    n = config.n
    if not 1 <= k <= n - 1:
        raise ValidationError(f"piece index k={k} outside 1..{n - 1}")
    c = prof.prefix_products[k]
    if c == 0.0:
        raise ValidationError(f"unused piece: prefix product vanishes at k={k}")
    if prof.lam + x < 0.0:
        raise ValidationError(f"H_{k} undefined for x={x} < -lam={-prof.lam}")
    return ((prof.lam + x) / c) ** (1.0 / (n - k))


def support(config: AuctionConfig, i: int) -> tuple[float, float]:
    """Closed support [s_i, s_0] of bidder i's bid distribution (s_{n-1} for i = n)."""
    prof = equilibrium_profile(config)
    _check_bidder(config, i)
    lo = prof.breakpoints[min(i, config.n - 1)]
    return lo, prof.breakpoints[0]


def bid_distribution(config: AuctionConfig, i: int) -> BidDistribution:
    """Materialize bidder i's piecewise distribution descriptor."""
    prof = equilibrium_profile(config)
    _check_bidder(config, i)
    n = config.n
    k_max = min(i, n - 1)
    pieces = tuple(
        DistributionPiece(k=k, lo=prof.breakpoints[k], hi=prof.breakpoints[k - 1])
        for k in range(1, k_max + 1)
    )
    return BidDistribution(
        bidder=i,
        pieces=pieces,
        atom_at_zero=prof.atom_n if i == n else 0.0,
        support=support(config, i),
    )


class _Pieces(NamedTuple):
    """Pieces k = 1..n-1, entry k - 1 of each array.  On piece k every bidder's
    CDF is a shift of the level h = H_k(x), which sweeps exactly [lo, hi] =
    [1 - p_k, 1 - p_{k-1}] while x = c h**m - lam.  Every field is taken from
    the probabilities directly (1 - lo is not p_k in floats), and a piece is
    empty iff width == 0, that is p_{k-1} == p_k."""

    lam: float
    m: np.ndarray  # n - k
    c: np.ndarray  # C_k = prefix_products[k]
    p_prev: np.ndarray  # p_{k-1}, with p_0 = 0
    p: np.ndarray  # p_k
    lo: np.ndarray
    hi: np.ndarray
    width: np.ndarray  # p_k - p_{k-1}


def _pieces(config: AuctionConfig) -> _Pieces:
    """The piece table of the config's equilibrium (requires n >= 2)."""
    prof = equilibrium_profile(config)
    n = config.n
    p = np.asarray(config.probabilities[: n - 1])
    p_prev = np.concatenate(([0.0], p[:-1]))
    c = np.asarray(prof.prefix_products[1:n])
    return _Pieces(prof.lam, n - np.arange(1, n), c, p_prev, p, 1.0 - p, 1.0 - p_prev, p - p_prev)


def _check_bidder(config: AuctionConfig, i: int) -> None:
    if not 1 <= i <= config.n:
        raise ValidationError(f"bidder index {i} outside 1..{config.n}")


def _piece_indices(prof: EquilibriumProfile, x: np.ndarray) -> np.ndarray:
    """Piece index per point: 0 for x >= s_0, n for x < s_{n-1} = 0, else the k
    with s_k <= x < s_{k-1}.  Zero-width pieces are never returned."""
    asc = np.asarray(prof.breakpoints[::-1])
    n = len(prof.breakpoints)
    return n - np.searchsorted(asc, x, side="right")


def cdf(config: AuctionConfig, i: int, x) -> float | np.ndarray:
    """Equilibrium CDF of bidder i at bid x (scalar or array).

    Total over the reals: 0 below the support, 1 at or above s_0, and for the
    last bidder the value at exactly 0 is its atom.  Values are clamped to
    [0, 1] against float drift at piece edges.
    """
    prof = equilibrium_profile(config)
    _check_bidder(config, i)
    return _scalar_or_array(lambda xs: _cdf_array(config, prof, i, xs), x)


def _scalar_or_array(kernel, x) -> float | np.ndarray:
    """Apply the elementwise array kernel to x: a float for a scalar x, else an
    array of x's shape."""
    xs = np.asarray(x, dtype=float)
    out = kernel(xs.reshape(-1)).reshape(xs.shape)
    return float(out) if xs.ndim == 0 else out


def _cdf_array(
    config: AuctionConfig, prof: EquilibriumProfile, i: int | np.ndarray, xs: np.ndarray
) -> np.ndarray:
    """CDF kernel for bidders ``i`` (1-based, scalar or array broadcast against
    ``xs``) at bids ``xs``.  Every bidder's CDF on piece k is built from the
    same H_k(x), evaluated once per point; bidder i uses pieces 1..min(i, n-1)."""
    n = config.n
    p_i = np.asarray(config.probabilities)[np.asarray(i) - 1]
    k = _piece_indices(prof, xs)
    k_max = np.minimum(i, n - 1)  # bidder i's piece of lowest bids
    inner = (k >= 1) & (k <= np.max(k_max))  # on a piece of some requested bidder
    kv = k[inner]
    h = np.zeros_like(xs, dtype=float)
    h[inner] = ((prof.lam + xs[inner]) / np.asarray(prof.prefix_products)[kv]) ** (1.0 / (n - kv))
    live = inner & (k <= k_max)
    return np.where(live, np.clip((h + p_i - 1.0) / p_i, 0.0, 1.0), k == 0)


def pdf(config: AuctionConfig, i: int, x) -> float | np.ndarray:
    """Equilibrium bid density of bidder i at x (scalar or array).

    Zero outside the support.  Querying the last bidder's atom location
    (exactly 0, when the atom mass is positive) raises, densities do not
    exist there.
    """
    prof = equilibrium_profile(config)
    _check_bidder(config, i)
    if i == config.n and prof.atom_n > 0.0 and np.any(np.asarray(x, dtype=float) == 0.0):
        raise ValidationError("atom has no density: bidder n holds mass at bid 0")
    return _scalar_or_array(lambda xs: _pdf_array(config, prof, i, xs), x)


def _pdf_array(
    config: AuctionConfig, prof: EquilibriumProfile, i: int, xs: np.ndarray
) -> np.ndarray:
    n = config.n
    p_i = config.probabilities[i - 1]
    k = _piece_indices(prof, xs)
    out = np.zeros_like(xs, dtype=float)
    k_max = n - 1 if i == n else i
    live = (k >= 1) & (k <= k_max)
    if np.any(live):
        kv = k[live]
        m = (n - kv).astype(float)
        lam = prof.lam
        pref = np.asarray(prof.prefix_products)[kv]
        out[live] = (lam + xs[live]) ** ((1.0 - m) / m) / (p_i * m * pref ** (1.0 / m))
    return out


def quantile(config: AuctionConfig, i: int, u) -> float | np.ndarray:
    """Inverse CDF of bidder i: the piecewise closed-form inversion

        x = (p_i u + 1 - p_i)**(n-k) * prefix_k - lam

    on the piece k whose CDF range contains u, and 0 for u at or below the
    last bidder's atom mass.  Raises ValidationError for u outside [0, 1].
    """
    prof = equilibrium_profile(config)
    _check_bidder(config, i)
    us = np.asarray(u, dtype=float)
    if np.any((us < 0.0) | (us > 1.0) | np.isnan(us)):
        raise ValidationError("quantile level must lie in [0, 1]")
    return _scalar_or_array(lambda levels: _quantile_array(config, prof, i, levels), us)


def _quantile_array(
    config: AuctionConfig, prof: EquilibriumProfile, i: int | np.ndarray, us: np.ndarray
) -> np.ndarray:
    """Quantile kernel for bidders ``i`` (1-based, scalar or array broadcast
    against ``us``) at levels ``us`` in [0, 1].

    Bidder i's CDF at the piece bottom s_k is exactly 1 - p_k/p_i, so level u
    lies on the piece k with p_{k-1} < p_i (1 - u) <= p_k: one search over the
    sorted probabilities serves every bidder at once, and ties (zero-width
    pieces) are never selected.  Since p_i (1 - u) <= p_i the search never
    passes k = i; it reaches k = n only for the last bidder's atom, where the
    exponent 0 and prefix_n == lam make the formula exactly 0.
    """
    p_i = np.asarray(config.probabilities)[np.asarray(i) - 1]
    shape = np.broadcast_shapes(np.shape(p_i), np.shape(us))
    return _quantile_into(config, prof, p_i, us, np.empty(shape), np.empty(shape))


def _quantile_into(
    config: AuctionConfig,
    prof: EquilibriumProfile,
    p_i: np.ndarray,
    us: np.ndarray,
    out: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """The quantile kernel at levels ``us`` for bidders of probability ``p_i``,
    written into ``out`` with ``scratch`` as its one float temporary; both
    have the broadcast shape, and neither may overlap ``p_i`` or ``us``.

    Computes max((p_i u + 1 - p_i)**(n-k) * prefix_k - lam, 0) with
    k = searchsorted(p, p_i (1 - u), "left") + 1, in that order of operations.
    The power is never taken in place: numpy rounds an in-place power of a
    single element differently from its vector loop.
    """
    p = np.asarray(config.probabilities)
    np.subtract(1.0, us, out=scratch)
    scratch *= p_i
    k = np.searchsorted(p, scratch, side="left")
    k += 1
    exponent = np.subtract(config.n, k, out=k)
    np.multiply(p_i, us, out=out)
    out += 1.0
    out -= p_i
    power = np.power(out, exponent, out=scratch)
    # prefix_k is entry n - k of the reversed prefix products.  mode="clip":
    # the exponent is in range, and the default "raise" buffers ``out``.
    reversed_prefix = np.asarray(prof.prefix_products)[::-1]
    np.take(reversed_prefix, exponent, out=out, mode="clip")
    out *= power
    out -= prof.lam
    return np.maximum(out, 0.0, out=out)


def payoff(config: AuctionConfig, i: int, x) -> float | np.ndarray:
    """Expected profit of bidder i from bidding x against the equilibrium:

        pi_i(x) = prod_{j != i} (p_j F_j(x) + 1 - p_j) - x.

    Equals lam everywhere on bidder i's support and falls below lam off it.
    """
    _check_bidder(config, i)
    return _scalar_or_array(lambda xs: _opponent_product(config, xs, skip=i) - xs, x)


_BLOCK_ENTRIES = 2**13  # factor-matrix entries per row block


def _factor_blocks(
    config: AuctionConfig, xs: np.ndarray, cdfs=None, p=None
) -> Iterator[tuple[slice, np.ndarray]]:
    """The factor kernel: over row blocks of about _BLOCK_ENTRIES entries of
    the 1-d bids ``xs``, yield each block's slice and rows x n matrix of
    p_j F_j(x) + 1 - p_j, the chance that bidder j does not outbid x.  F_j is
    the equilibrium CDF unless ``cdfs`` gives one callable per sorted bidder,
    each called once on all of ``xs``; ``p`` overrides the probabilities."""
    prof = equilibrium_profile(config)
    p = np.asarray(config.probabilities if p is None else p, dtype=float)
    given = None if cdfs is None else np.array([c(xs) for c in cdfs], dtype=float)
    step = max(1, _BLOCK_ENTRIES // config.n)
    for start in range(0, len(xs), step):
        rows = slice(start, start + step)
        if given is None:
            f = _cdf_array(config, prof, np.arange(1, config.n + 1), xs[rows, None])
        else:
            f = given[:, rows].T
        yield rows, p * f + 1.0 - p


def _opponent_product(
    config: AuctionConfig, xs: np.ndarray, skip: int = 0, cdfs=None, p=None
) -> np.ndarray:
    """prod_j (p_j F_j(x) + 1 - p_j) in bidder order over every j but ``skip``
    (1-based; 0 skips none); ``cdfs`` and ``p`` as in _factor_blocks."""
    out = np.empty(len(xs))
    for rows, f in _factor_blocks(config, xs, cdfs, p):
        if skip:
            f[:, skip - 1] = 1.0
        out[rows] = f.prod(axis=1)
    return out


def expected_utility(config: AuctionConfig, i: int) -> float:
    """Overall expected equilibrium profit of bidder i: p_i * lam."""
    prof = equilibrium_profile(config)
    _check_bidder(config, i)
    return config.probabilities[i - 1] * prof.lam


def no_failure_cdf(n: int, x) -> float | np.ndarray:
    """Classic fully-reliable symmetric equilibrium CDF, x ** (1/(n-1)) on [0, 1]."""
    if n < 2:
        raise DegenerateAuctionError("degenerate auction: n >= 2 required")
    return _scalar_or_array(lambda xs: np.clip(xs, 0.0, 1.0) ** (1.0 / (n - 1)), x)

