"""Symmetric mixed equilibrium of the common-value all-pay auction with failures.

Each bidder i participates independently with probability p_i (sorted
ascending, value of the item normalized to 1).  In the symmetric equilibrium
every participating bidder earns

    lam = prod_{j=1}^{n-1} (1 - p_j),

and bids are drawn from piecewise distributions built from the helper

    H_k(x) = ((lam + x) / C_k) ** (1 / (n - k)),    C_k = prod_{j=0}^{k-1}(1 - p_j),

with a dummy p_0 = 0.  Piece k covers [s_k, s_{k-1}), and bidder i mixes on
[s_i, s_0] according to F_i(x) = (H_k(x) + p_i - 1)/p_i.  For k = 0..n-1

    s_k = C_k (1 - p_k)**(n-k) - lam = D_k (1 - exp(-S_k)),
    D_k = prod_{j=1}^{n-1} (1 - min(p_j, p_k)),
    S_k = sum_{j: p_j > p_k} log1p((p_j - p_k)/(1 - p_j)) = log(D_k / lam),

so s_0 = 1 - lam and s_{n-1} = 0.  The second form subtracts no two nearly
equal numbers (1 - exp(-S_k) is taken with expm1): every breakpoint, s_0
included, keeps its relative digits however small the p_j, and s_{n-1} is
exactly 0.0.  The last bidder additionally holds an atom of mass
1 - p_{n-1}/p_n at bid 0.

When p_{n-1} = 1 the equilibrium is not unique (any bidder other than the two
most reliable ones may move mass to an atom at 0); this module materializes
the symmetric instance with no extra atoms, which the formulas above cover
with lam = 0.

Pieces of zero width (equal adjacent probabilities, or a probability of 1
below index n-1 forcing a zero prefix product) are stored but never selected
during evaluation or sampling.  equilibrium_profile builds all of this once
per config as one cached, read-only table, which every kernel reads.

The product over bidders of p_j F_j(x) + 1 - p_j, which gives payoff, the
winning-bid CDF and the sabotaged payoff, is one blocked kernel
(_factor_blocks).  Each call writes its n x cols blocks, of about
_BLOCK_ENTRIES entries at any n, into one buffer in place.  On piece k
bidder j's factor f_j is clip(H_k(x), 1 - p_j, 1), so a block is one
broadcast maximum of the level row against the column 1 - p_j; the level
is worked out at every column from its exponent alone, in two arrays over
the columns (the exponent and the level; its scratch borrows the block).
A sabotage target's row, at its true p'_j, is 1 - (p'_j/p_j)(1 - f_j),
rescaled in place.  So a small n takes few, wide blocks: one for a
2,001-point call up to n = 32.  The grid best-response audit scans the
kernel too: against the equilibrium it covers every bidder in one pass over
the blocks, from exclusive prefix and suffix products written into a
payoff block (one array with the factor block, so a repeat audit reuses
its pages), reads each bidder's maximum at its first argmax, and memoizes
the last (config, grid_size), since callers audit the bidders of one config
one at a time; a perturbed profile of CDF callables is folded one row at a
time, in memory that does not grow with n.
"""

from __future__ import annotations

import reprlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .config import (
    AuctionConfig,
    DegenerateAuctionError,
    ValidationError,
    _check_index,
    _check_integer,
)


_table = partial(field, compare=False, repr=False)


@dataclass(frozen=True)
class EquilibriumProfile:
    """The config's equilibrium as one table, built once by
    equilibrium_profile and shared by every call, so each array is read-only.

    lam             : per-participation equilibrium profit, prod_{j<n}(1-p_j)
    breakpoints     : (s_0, ..., s_{n-1}) in the module docstring's second form:
                      nonincreasing, equal for tied p_k, s_{n-1} == 0.0
    prefix_products : entry k is prod_{j=0}^{k-1}(1-p_j), length n+1, entry n == lam
    atom_n          : mass of the last bidder's atom at bid 0, 1 - p_{n-1}/p_n

    These four alone make up ``==``, the hash and the repr; the other fields
    lay the same equilibrium out for the kernels.

    Pieces k = 1..n-1 are entry k - 1 of m, p_prev, p and width.  On piece k
    every bidder's CDF is a shift of the level h = H_k(x), which sweeps
    exactly [1 - p_k, 1 - p_{k-1}] while x = C_k h**m - lam, C_k =
    prefix_rev[m].  Every piece field is taken from the probabilities
    directly, and a piece is empty iff width == 0, that is p_{k-1} == p_k.

    The last four fields are the guide table of ``probs`` for levels v in
    [0, 1] (indexed search: Chen & Asau 1974; Devroye 1986, section III.2.4).
    [0, 1) is cut into ``cells`` cells [b/G, (b+1)/G), G the smallest power
    of two >= 4n, so that v G and b/G are exact; v = 1 alone makes cell G.
    ``edges[b]`` counts the p_j below b/G for b = 0..G, so the count below any
    v in cell b lies in [edges[b], edges[b + 1]], and in cell G it is
    edges[G]: a p_j = 1 is below no level and lies in no cell.  ``rounds`` is
    the bit length of the largest cell occupancy, at most ceil(log2(n + 1)).
    ``pad`` is probs followed by 2**rounds copies of +inf, so every probe is
    in range."""

    lam: float
    breakpoints: tuple[float, ...]
    prefix_products: tuple[float, ...]
    atom_n: float
    n: int = _table()
    probs: np.ndarray = _table()  # p_1 .. p_n
    prefix_rev: np.ndarray = _table()  # entry e is C_{n-e}, e = 0..n: entry 0 is lam
    breaks_asc: np.ndarray = _table()  # s_{n-1} .. s_0
    m: np.ndarray = _table()  # n - k
    p_prev: np.ndarray = _table()  # p_{k-1}, with p_0 = 0
    p: np.ndarray = _table()  # p_k
    width: np.ndarray = _table()  # p_k - p_{k-1}
    cells: int = _table()
    edges: np.ndarray = _table()
    rounds: int = _table()
    pad: np.ndarray = _table()


@dataclass(frozen=True)
class DistributionPiece:
    """One closed-form CDF piece: F(x) = (H_k(x) + p_i - 1)/p_i on [lo, hi), empty
    iff its level width p_k - p_{k-1} is 0 (lo == hi can underflow on mass)."""

    k: int
    lo: float
    hi: float
    width: float

    @property
    def empty(self) -> bool:
        return self.width == 0.0


@dataclass(frozen=True)
class BidDistribution:
    """Piecewise bid distribution of one bidder (sorted index)."""

    bidder: int
    pieces: tuple[DistributionPiece, ...]
    atom_at_zero: float
    support: tuple[float, float]


@lru_cache(maxsize=256)
def equilibrium_profile(config: AuctionConfig) -> EquilibriumProfile:
    """Build (and cache) the config's equilibrium table (requires n >= 2).
    Breakpoint row k reads p_k alone and is monotone in it, so tied
    probabilities give bit-equal breakpoints and their order is exact."""
    config.require_competition()
    p = config.probabilities
    n = config.n
    probs = np.asarray(p)
    q = probs[: n - 1]  # p_1 .. p_{n-1}
    prefix = np.cumprod(np.concatenate(([1.0, 1.0], 1.0 - q)))
    p_k = np.concatenate(([0.0], q))[:, None]  # one row per k = 0..n-1
    d = np.prod(1.0 - np.minimum(q, p_k), axis=1)  # D_k
    with np.errstate(divide="ignore"):  # p_j = 1 > p_k: the term is +inf
        ratio = np.divide(q - p_k, 1.0 - q, out=np.zeros((n, n - 1)), where=q > p_k)
    log_ratio = np.sum(np.log1p(ratio), axis=1)  # S_k
    s = d * -np.expm1(-log_ratio)
    p_prev = p_k[:-1, 0]
    cells = 1 << (4 * n - 1).bit_length()
    edges = np.searchsorted(probs, np.arange(cells + 1) / cells, side="left")
    rounds = int((edges[1:] - edges[:-1]).max()).bit_length()
    pad = np.concatenate((probs, np.full(1 << rounds, np.inf)))
    pieces = (n - np.arange(1, n), p_prev, q, q - p_prev)
    table = (n, probs, prefix[::-1].copy(), s[::-1].copy(), *pieces, cells, edges, rounds, pad)
    for a in table:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    head = (float(prefix[n]), tuple(s.tolist()), tuple(prefix.tolist()), 1.0 - p[n - 2] / p[n - 1])
    return EquilibriumProfile(*head, *table)


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
    i = _check_bidder(config, i)
    return prof.atom_n if i == config.n else 0.0


def h_value(config: AuctionConfig, k: int, x) -> float | np.ndarray:
    """The level H_k(x) of bid x (scalar or array) on piece k, by _level_of_bid.

    Raises ValidationError unless k is an integer (not a bool) in 1..n-1, for
    a vanished prefix product (such pieces are never used), or for x < -lam
    or NaN.
    """
    prof = equilibrium_profile(config)
    k = _check_index("piece", k, config.n - 1)
    if prof.prefix_products[k] == 0.0:
        raise ValidationError(f"unused piece: prefix product vanishes at k={k}")

    def level(xs: np.ndarray) -> np.ndarray:
        if np.any(prof.lam + xs < 0.0):
            raise ValidationError(f"H_{k} undefined below x = -lam = {-prof.lam}")
        return _level_of_bid(prof, xs, config.n - k)

    return _scalar_or_array(level, x)


def _bid_of_level(
    prof: EquilibriumProfile,
    h: np.ndarray,
    m: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """The bid x = C h**m - lam at level h on the piece of exponent m = n - k,
    an integer array of h's shape, with C = C_k = prof.prefix_rev[m]: the one
    place this map is evaluated.  At m = 0, bidder n's atom, it is
    lam - lam = 0 exactly.

    ``out`` and ``scratch`` (float, for the power) take the result when
    given: both C-contiguous of h's shape, not overlapping each other or m;
    h may be ``out`` itself.  The power is taken first and never in place
    (numpy rounds an in-place power of a single element differently from its
    vector loop), then C is gathered into ``out`` and multiplied by it, so no
    temporary is allocated."""
    power = np.power(h, m, out=scratch)
    if out is None:
        out = np.empty_like(power)
    # mode="clip": every exponent is in range, and the default "raise" buffers ``out``
    np.take(prof.prefix_rev, m, out=out, mode="clip")
    out *= power
    out -= prof.lam
    return out


def _level_of_bid(
    prof: EquilibriumProfile, x: np.ndarray, m, scratch: np.ndarray | None = None
) -> np.ndarray:
    """The level h = ((lam + x)/C)**(1/m) of bid x >= -lam on the piece of
    exponent m = n - k >= 1 (an int, or an integer array broadcast against
    x), with C = prof.prefix_rev[m]: the inverse of _bid_of_level, and the
    one place it is evaluated.  The level is a fresh array, built in place;
    ``scratch``, a float array of m's shape not overlapping x, holds C and
    then 1/m when given, with no temporary.  An int m keeps the scalar
    exponent, which numpy takes for m = 2 as a square root, not as the
    power of an array exponent."""
    h = np.add(prof.lam, x)
    # mode="clip": every exponent is in range, and the default "raise" buffers ``out``
    h /= np.take(prof.prefix_rev, m, out=scratch, mode="clip")
    if scratch is not None:  # 1/m of m as floats: dividing the ints would buffer their cast
        np.copyto(scratch, m)
        m = scratch
    h **= np.divide(1.0, m, out=scratch)
    return h


def support(config: AuctionConfig, i: int) -> tuple[float, float]:
    """Closed support [s_i, s_0] of bidder i's bid distribution (s_{n-1} for i = n)."""
    prof = equilibrium_profile(config)
    i = _check_bidder(config, i)
    lo = prof.breakpoints[min(i, config.n - 1)]
    return lo, prof.breakpoints[0]


def bid_distribution(config: AuctionConfig, i: int) -> BidDistribution:
    """Materialize bidder i's piecewise distribution descriptor."""
    prof = equilibrium_profile(config)
    i = _check_bidder(config, i)
    n = config.n
    k_max = min(i, n - 1)
    s = prof.breakpoints
    pieces = tuple(
        DistributionPiece(k=k, lo=s[k], hi=s[k - 1], width=w)
        for k, w in enumerate(prof.width[:k_max].tolist(), start=1)
    )
    return BidDistribution(
        bidder=i,
        pieces=pieces,
        atom_at_zero=prof.atom_n if i == n else 0.0,
        support=(s[k_max], s[0]),
    )


def _check_bidder(config: AuctionConfig, i: int) -> int:
    """``i`` as a Python int, or ValidationError unless it is an integer (not a
    bool) in 1..n."""
    return _check_index("bidder", i, config.n)


def _piece_indices(prof: EquilibriumProfile, x: np.ndarray) -> np.ndarray:
    """Piece index per point: 0 for x >= s_0, n for x < s_{n-1} = 0, else the k
    with s_k <= x < s_{k-1}.  Zero-width pieces are never returned."""
    return prof.n - np.searchsorted(prof.breaks_asc, x, side="right")


def cdf(config: AuctionConfig, i: int, x) -> float | np.ndarray:
    """Equilibrium CDF of bidder i at bid x (scalar or array).

    Total over the reals: 0 below the support, 1 at or above s_0, and for the
    last bidder the value at exactly 0 is its atom.  Values are clamped to
    [0, 1] against float drift at piece edges.
    """
    prof = equilibrium_profile(config)
    i = _check_bidder(config, i)
    return _scalar_or_array(lambda xs: _cdf_array(prof, i, xs), x)


def _scalar_or_array(kernel, x) -> float | np.ndarray:
    """Apply the elementwise array kernel to x: a float for a scalar x, else an
    array of x's shape.  The one conversion of a public bid or level: x must
    hold real numbers (ints, floats, or objects such as Fraction and Decimal
    that convert to float), so a bool, a complex number, text, bytes, a NaN
    or a ragged list raises ValidationError."""
    try:
        raw = np.asarray(x)
        items = raw.flat if raw.dtype == object else (raw,)  # an object array's own items
        if any(np.asarray(v).dtype.kind not in "iufO" for v in items):
            raise TypeError
        xs = raw.astype(float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"x must be real numbers, got {reprlib.repr(x)}") from exc
    if np.isnan(xs).any():
        raise ValidationError("x must not be NaN")
    out = kernel(xs.reshape(-1)).reshape(xs.shape)
    return float(out) if xs.ndim == 0 else out


def _cdf_array(prof: EquilibriumProfile, i: int | np.ndarray, xs: np.ndarray) -> np.ndarray:
    """CDF kernel for bidders ``i`` (1-based, scalar or array broadcast against
    ``xs``) at bids ``xs``, in fresh arrays: it serves cdf and the quadrature
    oracle (the factor kernel, _factor_blocks, works from the level alone).
    Every bidder's CDF on piece k is built from the same level h = H_k(x),
    evaluated once per point, as in _level_of_bid, from the exponent m = n - k
    alone: the count of breakpoints at or below x, which is 0 below bid 0 and
    n at or above s_0.  Bidder i uses pieces 1..min(i, n-1).  At or above s_0
    the level is +inf, which the formula (h + p_i - 1)/p_i and the clip to
    [0, 1] take to exactly 1.  One mask, m < n - min(i, n-1), then zeroes
    every entry below bidder i's support, bids below 0 included, so the
    level's value there does not matter."""
    n = prof.n
    p_i = prof.probs[np.asarray(i) - 1]
    m = np.searchsorted(prof.breaks_asc, xs, side="right")
    # m = 0, below bid 0, is masked: 1/0, x/0 when lam = 0, and x/lam overflows for x << -lam
    with np.errstate(divide="ignore", over="ignore"):
        h = _level_of_bid(prof, xs, m)
    np.copyto(h, np.inf, where=m == n)
    out = np.add(h, p_i)
    out -= 1.0
    out /= p_i
    np.clip(out, 0.0, 1.0, out=out)
    np.copyto(out, 0.0, where=m < n - np.minimum(i, n - 1))
    return out


def pdf(config: AuctionConfig, i: int, x) -> float | np.ndarray:
    """Equilibrium bid density of bidder i at x (scalar or array).

    Zero outside the support.  Where no finite density exists, querying
    exactly 0 raises ValidationError: at the last bidder's atom (when its mass
    is positive), and, when lam = 0, on a piece of exponent m = n - k > 1,
    where (lam + x)**((1-m)/m) diverges at x = 0.
    """
    prof = equilibrium_profile(config)
    i = _check_bidder(config, i)

    def density(xs: np.ndarray) -> np.ndarray:
        at_zero = xs == 0.0
        if i == config.n and prof.atom_n > 0.0 and np.any(at_zero):
            raise ValidationError("atom has no density: bidder n holds mass at bid 0")
        with np.errstate(divide="ignore"):
            out = _pdf_array(prof, i, xs)
        if np.any(np.isinf(out) & at_zero):
            raise ValidationError(
                f"no finite density: with lam = 0, bidder {i}'s density diverges at bid 0"
            )
        return out

    return _scalar_or_array(density, x)


def _pdf_array(prof: EquilibriumProfile, i: int | np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Density kernel for bidders ``i`` (1-based, scalar or array broadcast
    against ``xs``) at bids ``xs``: on piece k <= min(i, n-1),
    (lam + x)**((1-m)/m) / (p_i m C_k**(1/m)) with m = n - k, else 0."""
    n = prof.n
    k = _piece_indices(prof, xs)
    live = (k >= 1) & (k <= np.minimum(i, n - 1))
    out = np.zeros(live.shape)
    if np.any(live):
        m = n - np.broadcast_to(k, live.shape)[live]
        p_i = np.broadcast_to(prof.probs[np.asarray(i) - 1], live.shape)[live]
        x = np.broadcast_to(xs, live.shape)[live]
        pref = prof.prefix_rev[m]
        out[live] = (prof.lam + x) ** ((1.0 - m) / m) / (p_i * m * pref ** (1.0 / m))
    return out


def quantile(config: AuctionConfig, i: int, u) -> float | np.ndarray:
    """Inverse CDF of bidder i: the bid of level h = 1 - v, v = p_i (1 - u)
    (_bid_of_level) on the piece k whose CDF range contains u, and 0 for u
    at or below the last bidder's atom mass.  Raises ValidationError for u
    outside [0, 1].
    """
    prof = equilibrium_profile(config)
    i = _check_bidder(config, i)

    def bids(us: np.ndarray) -> np.ndarray:
        if np.any((us < 0.0) | (us > 1.0)):
            raise ValidationError("quantile level must lie in [0, 1]")
        return _quantile_array(prof, i, us)

    return _scalar_or_array(bids, u)


def _quantile_array(prof: EquilibriumProfile, i: int | np.ndarray, us: np.ndarray) -> np.ndarray:
    """Quantile kernel for bidders ``i`` (1-based, scalar or array broadcast
    against ``us``) at levels ``us`` in [0, 1].

    Bidder i's CDF at the piece bottom s_k is exactly 1 - p_k/p_i, so level u
    lies on the piece k with p_{k-1} < p_i (1 - u) <= p_k: one guide-table
    search of the sorted probabilities (_piece_search) serves every bidder at
    once, and ties (zero-width pieces) are never selected.  Since
    p_i (1 - u) <= p_i the search never passes k = i; it reaches k = n only
    for the last bidder's atom, where the exponent 0 and prefix_n == lam make
    the formula exactly 0.
    """
    return _quantile_of_levels(prof, np.subtract(1.0, us) * prof.probs[np.asarray(i) - 1])


def _quantile_of_levels(prof: EquilibriumProfile, v: np.ndarray) -> np.ndarray:
    """The quantile kernel (_quantile_into) at the levels ``v``, a float array
    that the bids overwrite, with fresh temporaries."""
    shape = v.shape
    return _quantile_into(
        prof, v, v, np.empty(shape), np.empty(shape, dtype=np.int64), np.empty(shape, dtype=bool)
    )


def _quantile_into(
    prof: EquilibriumProfile,
    v: np.ndarray,
    out: np.ndarray,
    scratch: np.ndarray,
    index: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """The quantile kernel at levels ``v`` in [0, 1], written into ``out``,
    with ``scratch`` (float), ``index`` (int64) and ``mask`` (bool) as its
    temporaries; all five are C-contiguous of one shape, and none may overlap
    another, except that ``out`` may be ``v`` itself.

    A bidder of probability p_i at CDF level u has v = p_i (1 - u).  The
    kernel computes the bid of level h = 1 - v by _bid_of_level, in ``out``
    with the power in ``scratch``, on the piece k whose k - 1 is the count of
    probabilities below v, found by _piece_search, and clips it at 0.
    """
    k = _piece_search(prof, v, index, scratch, mask)
    exponent = np.subtract(prof.n - 1, k, out=k)  # n - k for 1-based k
    h = np.subtract(1.0, v, out=out)
    _bid_of_level(prof, h, exponent, out, scratch)
    return np.maximum(out, 0.0, out=out)


def _piece_search(
    prof: EquilibriumProfile, v: np.ndarray, k: np.ndarray, scratch: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """searchsorted(prof.probs, v, "left"), the count of the sorted probabilities
    below each level v in [0, 1], written into the int64 ``k``; the float
    ``scratch`` and the bool ``mask`` have v's shape.  Each level starts at
    its guide cell's lower count and takes rounds fixed branchless steps of
    2**(rounds-1), ..., 1, advancing by a step where the probe below it is
    still below v, so ties and p = 1 come out as searchsorted's, bit for bit.
    The guide table is built once per config, with the rest of the equilibrium."""
    # mode="clip": every index is in range, and "raise" buffers ``out``
    cell = np.multiply(v, prof.cells, out=scratch.view(np.int64), casting="unsafe")
    np.take(prof.edges, cell, out=k, mode="clip")
    for r in reversed(range(prof.rounds)):
        step = 1 << r
        probe = np.take(prof.pad[step - 1 :], k, out=scratch, mode="clip")
        np.less(probe, v, out=mask)
        # A masked add is quick on long runs of equal mask values, which the
        # coarse steps mostly give, but some 15x slower than a plain add of
        # the 0/1 mask on the last step's random one.
        if step > 1:
            np.add(k, step, out=k, where=mask)
        else:
            k += mask
    return k


def payoff(config: AuctionConfig, i: int, x) -> float | np.ndarray:
    """Expected profit of bidder i from bidding x against the equilibrium:

        pi_i(x) = prod_{j != i} (p_j F_j(x) + 1 - p_j) - x.

    Equals lam everywhere on bidder i's support and falls below lam off it.
    """
    i = _check_bidder(config, i)
    prof = equilibrium_profile(config)
    return _scalar_or_array(lambda xs: _opponent_product(prof, xs, skip=i) - xs, x)


_BLOCK_ENTRIES = 2**16  # factor-matrix entries per column block


def _block_columns(n: int) -> int:
    """Columns of a factor block for n bidders: about _BLOCK_ENTRIES entries,
    with no cap on the columns.  Beside the block's 8 n bytes a column, the
    kernel holds two arrays over its columns, the exponent m and the level
    (16 bytes a column; the level's scratch borrows the block), at most half
    the block's bytes from n = 4 up."""
    return max(1, _BLOCK_ENTRIES // n)


def _factor_blocks(
    prof: EquilibriumProfile, xs: np.ndarray, p=None, out: np.ndarray | None = None
) -> Iterator[tuple[slice, np.ndarray]]:
    """The factor kernel, bidder-major: over column blocks of the 1-d bids
    ``xs``, _block_columns(n) wide, yield each block's slice and C-contiguous
    n x cols matrix of p_j F_j(x) + 1 - p_j, the chance that bidder j does
    not outbid x, one row per sorted bidder j, with F_j the equilibrium CDF.
    Bounding the entries of a block bounds the memory whatever n is.

    On piece k every bidder j >= k has the factor h = H_k(x), and every
    bidder j < k, below its support, has 1 - p_j; since 1 - p_k <= h <=
    1 - p_{k-1}, bidder j's factor is clip(h, 1 - p_j, 1).  So each block is
    one broadcast maximum of the level row against the column 1 - p_j.  The
    level is taken as in _cdf_array, from the exponent m = n - k alone, and
    clipped at 1, with h = 1 at or above s_0 (m = n) and h = 0 below bid 0
    (m = 0): every factor is exactly 1 from s_0 up and exactly 1 - p_j below
    0.  That is one rounding chain where the CDF's (h + p_j - 1)/p_j and the
    factor p_j F_j + 1 - p_j take six, and it differs from theirs by at most
    2**-53.

    ``p`` overrides the probabilities.  A row whose probability it changes
    from p_j to p'_j (a sabotage target at its true probability) is
    p'_j F_j + 1 - p'_j = 1 - (p'_j/p_j)(1 - f_j), with f_j the row the
    block already holds, written over it in three in-place operations.  It
    is exactly 1 from s_0 up and where p'_j = 0, and exactly 1 - p'_j below
    bid 0 when p_j = 1; elsewhere it lies within 3 * 2**-53 of
    p'_j cdf_j + 1 - p'_j, a longer rounding chain, and nearer the exact
    value than it on the configs the tests hold to 50 digits.

    Every block is a view of one buffer, ``out`` when given (at least n
    times the block's columns long) and else allocated per call, so a block
    is valid only until the next one is yielded."""
    n = prof.n
    floor = (1.0 - prof.probs)[:, None]
    q = prof.probs if p is None else np.asarray(p, dtype=float)
    overridden = np.flatnonzero(q != prof.probs)
    step = _block_columns(n)
    block = np.empty(n * min(step, len(xs))) if out is None else out
    for start in range(0, len(xs), step):
        cols = slice(start, start + step)
        x = xs[cols]
        f = block[: n * len(x)].reshape(n, -1)
        m = np.searchsorted(prof.breaks_asc, x, side="right")
        # m = 0, below bid 0, is overwritten: 1/0, x/0 when lam = 0, and x/lam overflows
        with np.errstate(divide="ignore", over="ignore"):
            h = _level_of_bid(prof, x, m, scratch=f[0])  # the scratch borrows the block
        np.copyto(h, 1.0, where=m == n)
        np.copyto(h, 0.0, where=m == 0)
        np.minimum(h, 1.0, out=h)
        with _row_buffers(len(x)):
            np.maximum(h, floor, out=f)
        for j in overridden:
            f[j] -= 1.0
            f[j] *= q[j] / prof.probs[j]
            f[j] += 1.0
        yield cols, f


@contextmanager
def _row_buffers(row: int) -> Iterator[None]:
    """numpy's ufunc buffers at most ``row`` entries long (a multiple of 16,
    as numpy asks), for the block's broadcast operations.  Where a row is
    shorter than a buffer (8192 entries by default), numpy copies the
    broadcast row or column operand into buffers that span several rows, at
    two to four times the cost of the arithmetic; with buffers no longer
    than a row it walks the rows in place and allocates none.  The values
    are the same either way.  A row at least a buffer long changes
    nothing, so it leaves the settings alone."""
    if row >= np.getbufsize():
        yield
        return
    old = np.setbufsize(max(16, row - row % 16))
    try:
        yield
    finally:
        np.setbufsize(old)


def _opponent_product(
    prof: EquilibriumProfile, xs: np.ndarray, skip: int = 0, p=None
) -> np.ndarray:
    """prod_j (p_j F_j(x) + 1 - p_j) over every bidder j but ``skip`` (1-based;
    0 skips none), multiplying each block's rows into one in bidder order, so
    each value is the plain left-to-right product; ``p`` as in _factor_blocks."""
    out = np.empty(len(xs))
    for cols, f in _factor_blocks(prof, xs, p):
        if skip:
            f[skip - 1] = 1.0  # exact: a factor of 1 leaves the product unchanged
        np.multiply.reduce(f, axis=0, out=out[cols])
    return out


@dataclass(frozen=True)
class AuditResult:
    bidder: int
    max_payoff: float
    argmax_bid: float
    baseline: float
    deviation_gain: float


def best_response_audit(
    config: AuctionConfig,
    i: int,
    grid_size: int,
    cdfs: Sequence[Callable[[np.ndarray], np.ndarray]] | None = None,
) -> AuditResult:
    """Scan a bid grid over [0, s_0] (plus every breakpoint) for bidder i's
    best response payoff against a strategy profile.

    With the default profile (the equilibrium), the baseline payoff is lam and
    the deviation gain of a correct equilibrium is numerical noise.  Passing
    ``cdfs`` (one CDF callable per sorted bidder) audits a perturbed profile:
    the baseline is then bidder i's expected payoff under its own listed
    strategy, integrated against the grid, so a profitable deviation shows up
    as a positive gain.  Unless ``cdfs`` is a collection of exactly n
    callables, each returning finite values in [0, 1] in an array of its
    argument's shape, the audit raises ValidationError.
    """
    grid_size = _check_integer("grid_size", grid_size)
    if grid_size < 2:
        raise ValidationError("grid_size must be >= 2")
    prof = equilibrium_profile(config)
    i = _check_bidder(config, i)
    if cdfs is None:
        return _equilibrium_audits(config, grid_size)[i - 1]
    message = f"cdfs must be {config.n} callables, one per sorted bidder"
    try:
        cdfs = tuple(cdfs)
    except TypeError as exc:
        raise ValidationError(message) from exc
    if len(cdfs) != config.n or not all(map(callable, cdfs)):
        raise ValidationError(message)
    grid = _audit_grid(prof, grid_size)
    payoff_grid, f_grid = _profile_payoff(prof, cdfs, grid, i)
    best = int(np.argmax(payoff_grid))
    mids = 0.5 * (grid[1:] + grid[:-1])
    payoff_mids = _profile_payoff(prof, cdfs, mids, i)[0]
    baseline = float(f_grid[0] * payoff_grid[0] + np.sum(payoff_mids * np.diff(f_grid)))
    return AuditResult(
        bidder=i,
        max_payoff=float(payoff_grid[best]),
        argmax_bid=float(grid[best]),
        baseline=baseline,
        deviation_gain=float(payoff_grid[best] - baseline),
    )


def _audit_grid(prof: EquilibriumProfile, grid_size: int) -> np.ndarray:
    """The bids an audit scans: grid_size even steps over [0, s_0] and every
    breakpoint, ascending and without repeats.  Sorting them together and
    dropping equal neighbours gives np.union1d's bits without its np.unique,
    which imports numpy.ma on its first call."""
    grid = np.concatenate((np.linspace(0.0, prof.breakpoints[0], grid_size), prof.breakpoints))
    grid.sort()
    return grid[np.concatenate(([True], grid[1:] != grid[:-1]))]


def _profile_payoff(prof: EquilibriumProfile, cdfs, xs: np.ndarray, i: int):
    """(bidder i's payoff, bidder i's own CDF) at the bids ``xs`` against the
    CDF callables.  Each runs once, in bidder order, and its row is checked
    on arrival; the other factors p_j F_j + 1 - p_j fold into one running
    product, left to right as in _opponent_product.  Raises ValidationError
    unless each returns finite values in [0, 1] in an array of xs's shape."""
    product = np.ones(len(xs))
    for j, (p, c) in enumerate(zip(prof.probs, cdfs)):
        f = np.asarray(c(xs), dtype=float)
        if f.shape != xs.shape or not np.all((f >= 0.0) & (f <= 1.0)):  # NaN fails too
            raise ValidationError(f"cdfs[{j}] must return values in [0, 1] of shape {xs.shape}")
        if j == i - 1:
            own = f.copy()  # the callable may reuse its array on the next call
        else:
            product *= f * p + 1.0 - p
    return product - xs, own


@lru_cache(maxsize=1)
def _equilibrium_audits(config: AuctionConfig, grid_size: int) -> tuple[AuditResult, ...]:
    """Every bidder's audit against the equilibrium in one pass over the
    bidder-major factor blocks, with a running maximum and first argmax per
    bidder row.  Bidder i's opponent product is prod_{j<i} f_j * prod_{j>i}
    f_j, from exclusive prefix and suffix products down the rows (each a
    plain product in bidder order, the suffix taken from the last bidder
    down): dividing the full product by f_i fails where f_i is exactly 0,
    below the support of a bidder with p = 1.

    The factor block, passed to _factor_blocks as its buffer, and the payoff
    block are the two halves of one array allocated per call, so the audit
    holds two blocks at most.  Being one chunk matters under glibc: freeing
    an mmapped chunk raises the mmap threshold to its size and the trim
    threshold to twice that (mallopt(3)), so one chunk of 2B bytes then stays
    on the heap and a repeat audit reuses its pages, where two chunks of B,
    freed together, reach the trim threshold of 2B they set and went back
    to the OS on every call.  Each row's maximum is read at its first
    argmax, the same value bits as a separate max."""
    prof = equilibrium_profile(config)
    grid = _audit_grid(prof, grid_size)
    best = np.full(config.n, -np.inf)
    argmax = np.zeros(config.n)
    rows = np.arange(config.n)
    factors, block = np.empty((2, config.n * min(_block_columns(config.n), len(grid))))
    for cols, f in _factor_blocks(prof, grid, out=factors):
        payoffs = _exclusive_products(f, block[: f.size].reshape(f.shape))
        with _row_buffers(f.shape[1]):
            payoffs -= grid[cols]
        first = payoffs.argmax(axis=1)
        values = payoffs[rows, first]
        argmax = np.where(values > best, grid[cols][first], argmax)
        best = np.maximum(values, best)
    return tuple(
        AuditResult(i, float(m), float(x), prof.lam, float(m - prof.lam))
        for i, m, x in zip(range(1, config.n + 1), best, argmax)
    )


def _exclusive_products(f: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row i of ``out`` becomes prod_{j != i} f_j over the rows of the factor
    block ``f``, which is overwritten; both C-contiguous of one shape.  Row
    by row: np.cumprod(axis=0) gives the same bits, several times slower at
    n <= 64."""
    out[0] = 1.0  # row i: prod_{j<i} f_j
    for below, f_j, row in zip(out, f, out[1:]):
        np.multiply(below, f_j, out=row)
    for above, f_j in zip(f[:0:-1], f[-2:0:-1]):  # row j of f becomes prod_{l>=j} f_l
        f_j *= above
    out[:-1] *= f[1:]
    return out


def equilibrium_cdf_callables(config: AuctionConfig) -> list[Callable[[np.ndarray], np.ndarray]]:
    """The equilibrium profile as plain callables, handy for building perturbed
    profiles to audit."""
    return [partial(cdf, config, i) for i in range(1, config.n + 1)]


def expected_utility(config: AuctionConfig, i: int) -> float:
    """Overall expected equilibrium profit of bidder i: p_i * lam."""
    prof = equilibrium_profile(config)
    i = _check_bidder(config, i)
    return config.probabilities[i - 1] * prof.lam


def no_failure_cdf(n: int, x) -> float | np.ndarray:
    """Classic fully-reliable symmetric equilibrium CDF, x ** (1/(n-1)) on [0, 1].
    n must be an integer (not a bool) of at least 2."""
    n = _check_integer("n", n)
    if n < 2:
        raise DegenerateAuctionError("degenerate auction: n >= 2 required")
    return _scalar_or_array(lambda xs: np.clip(xs, 0.0, 1.0) ** (1.0 / (n - 1)), x)

