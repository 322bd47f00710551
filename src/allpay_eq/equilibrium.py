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
during evaluation or sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from .config import AuctionConfig, DegenerateAuctionError, ValidationError


@dataclass(frozen=True)
class EquilibriumProfile:
    """Derived equilibrium constants for one auction config.

    lam             : per-participation equilibrium profit, prod_{j<n}(1-p_j)
    breakpoints     : (s_0, ..., s_{n-1}) in the module docstring's second form:
                      nonincreasing, equal for tied p_k, s_{n-1} == 0.0
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
    """Compute (and cache) lam, breakpoints, prefix products and the atom.
    Breakpoint row k reads p_k alone and is monotone in it, so tied
    probabilities give bit-equal breakpoints and their order is exact."""
    config.require_competition()
    p = config.probabilities
    n = config.n
    q = np.asarray(p[: n - 1])  # p_1 .. p_{n-1}
    prefix = np.cumprod(np.concatenate(([1.0, 1.0], 1.0 - q)))
    p_k = np.concatenate(([0.0], q))[:, None]  # one row per k = 0..n-1
    d = np.prod(1.0 - np.minimum(q, p_k), axis=1)  # D_k
    with np.errstate(divide="ignore"):  # p_j = 1 > p_k: the term is +inf
        ratio = np.divide(q - p_k, 1.0 - q, out=np.zeros((n, n - 1)), where=q > p_k)
    log_ratio = np.sum(np.log1p(ratio), axis=1)  # S_k
    s = d * -np.expm1(-log_ratio)
    return EquilibriumProfile(
        lam=float(prefix[n]),
        breakpoints=tuple(s.tolist()),
        prefix_products=tuple(prefix.tolist()),
        atom_n=1.0 - p[n - 2] / p[n - 1],
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
    (such pieces are never used), or for x < -lam or NaN.
    """
    prof = equilibrium_profile(config)
    n = config.n
    if not 1 <= k <= n - 1:
        raise ValidationError(f"piece index k={k} outside 1..{n - 1}")
    c = prof.prefix_products[k]
    if c == 0.0:
        raise ValidationError(f"unused piece: prefix product vanishes at k={k}")
    if not prof.lam + x >= 0.0:  # also catches a NaN x
        raise ValidationError(f"H_{k} undefined for x={x}: needs x >= -lam={-prof.lam}")
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
    """The config's equilibrium as one table, built once and shared by every
    call (_pieces), so each array is read-only.

    Pieces k = 1..n-1 are entry k - 1 of m, c, p_prev, p, lo, hi and width.
    On piece k every bidder's CDF is a shift of the level h = H_k(x), which
    sweeps exactly [lo, hi] = [1 - p_k, 1 - p_{k-1}] while x = c h**m - lam.
    Every piece field is taken from the probabilities directly (1 - lo is not
    p_k in floats), and a piece is empty iff width == 0, that is p_{k-1} == p_k.

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

    n: int
    lam: float
    probs: np.ndarray  # p_1 .. p_n
    prefix_rev: np.ndarray  # entry e is C_{n-e}, e = 0..n: entry 0 is lam
    breaks_asc: np.ndarray  # s_{n-1} .. s_0
    m: np.ndarray  # n - k
    c: np.ndarray  # C_k = prefix_products[k]
    p_prev: np.ndarray  # p_{k-1}, with p_0 = 0
    p: np.ndarray  # p_k
    lo: np.ndarray
    hi: np.ndarray
    width: np.ndarray  # p_k - p_{k-1}
    cells: int
    edges: np.ndarray
    rounds: int
    pad: np.ndarray


@lru_cache(maxsize=256)
def _pieces(config: AuctionConfig) -> _Pieces:
    """The table of the config's equilibrium (requires n >= 2)."""
    prof = equilibrium_profile(config)
    n = config.n
    probs = np.asarray(config.probabilities)
    p, p_prev = probs[: n - 1], np.concatenate(([0.0], probs[: n - 2]))
    c = np.asarray(prof.prefix_products[1:n])
    cells = 1 << (4 * n - 1).bit_length()
    edges = np.searchsorted(probs, np.arange(cells + 1) / cells, side="left")
    rounds = int((edges[1:] - edges[:-1]).max()).bit_length()
    pad = np.concatenate((probs, np.full(1 << rounds, np.inf)))
    prefix_rev = np.asarray(prof.prefix_products[::-1])
    breaks_asc = np.asarray(prof.breakpoints[::-1])
    pieces = (n - np.arange(1, n), c, p_prev, p, 1.0 - p, 1.0 - p_prev, p - p_prev)
    table = _Pieces(n, prof.lam, probs, prefix_rev, breaks_asc, *pieces, cells, edges, rounds, pad)
    for field in table:
        if isinstance(field, np.ndarray):
            field.flags.writeable = False
    return table


def _check_bidder(config: AuctionConfig, i: int) -> None:
    if not 1 <= i <= config.n:
        raise ValidationError(f"bidder index {i} outside 1..{config.n}")


def _piece_indices(pc: _Pieces, x: np.ndarray) -> np.ndarray:
    """Piece index per point: 0 for x >= s_0, n for x < s_{n-1} = 0, else the k
    with s_k <= x < s_{k-1}.  Zero-width pieces are never returned."""
    return pc.n - np.searchsorted(pc.breaks_asc, x, side="right")


def cdf(config: AuctionConfig, i: int, x) -> float | np.ndarray:
    """Equilibrium CDF of bidder i at bid x (scalar or array).

    Total over the reals: 0 below the support, 1 at or above s_0, and for the
    last bidder the value at exactly 0 is its atom.  Values are clamped to
    [0, 1] against float drift at piece edges.
    """
    pc = _pieces(config)
    _check_bidder(config, i)
    return _scalar_or_array(lambda xs: _cdf_array(pc, i, xs), x)


def _scalar_or_array(kernel, x) -> float | np.ndarray:
    """Apply the elementwise array kernel to x: a float for a scalar x, else an
    array of x's shape.  Raises ValidationError if x holds a NaN."""
    xs = np.asarray(x, dtype=float)
    if np.isnan(xs).any():
        raise ValidationError("x must not be NaN")
    out = kernel(xs.reshape(-1)).reshape(xs.shape)
    return float(out) if xs.ndim == 0 else out


def _cdf_array(pc: _Pieces, i: int | np.ndarray, xs: np.ndarray) -> np.ndarray:
    """CDF kernel for bidders ``i`` (1-based, scalar or array broadcast against
    ``xs``) at bids ``xs``.  Every bidder's CDF on piece k is built from the
    same H_k(x), evaluated once per point; bidder i uses pieces 1..min(i, n-1)."""
    n = pc.n
    p_i = pc.probs[np.asarray(i) - 1]
    k = _piece_indices(pc, xs)
    k_max = np.minimum(i, n - 1)  # bidder i's piece of lowest bids
    inner = (k >= 1) & (k <= np.max(k_max))  # on a piece of some requested bidder
    m = n - k[inner]
    h = np.zeros_like(xs, dtype=float)
    h[inner] = ((pc.lam + xs[inner]) / pc.prefix_rev[m]) ** (1.0 / m)
    live = inner & (k <= k_max)
    return np.where(live, np.clip((h + p_i - 1.0) / p_i, 0.0, 1.0), k == 0)


def pdf(config: AuctionConfig, i: int, x) -> float | np.ndarray:
    """Equilibrium bid density of bidder i at x (scalar or array).

    Zero outside the support.  Querying the last bidder's atom location
    (exactly 0, when the atom mass is positive) raises, densities do not
    exist there.
    """
    pc = _pieces(config)
    _check_bidder(config, i)
    atom = equilibrium_profile(config).atom_n
    if i == config.n and atom > 0.0 and np.any(np.asarray(x, dtype=float) == 0.0):
        raise ValidationError("atom has no density: bidder n holds mass at bid 0")
    return _scalar_or_array(lambda xs: _pdf_array(pc, i, xs), x)


def _pdf_array(pc: _Pieces, i: int, xs: np.ndarray) -> np.ndarray:
    n = pc.n
    p_i = pc.probs[i - 1]
    k = _piece_indices(pc, xs)
    out = np.zeros_like(xs, dtype=float)
    k_max = n - 1 if i == n else i
    live = (k >= 1) & (k <= k_max)
    if np.any(live):
        m = n - k[live]
        pref = pc.prefix_rev[m]
        out[live] = (pc.lam + xs[live]) ** ((1.0 - m) / m) / (p_i * m * pref ** (1.0 / m))
    return out


def quantile(config: AuctionConfig, i: int, u) -> float | np.ndarray:
    """Inverse CDF of bidder i: the piecewise closed-form inversion

        x = (p_i u + 1 - p_i)**(n-k) * prefix_k - lam

    on the piece k whose CDF range contains u, and 0 for u at or below the
    last bidder's atom mass.  Raises ValidationError for u outside [0, 1].
    """
    pc = _pieces(config)
    _check_bidder(config, i)
    us = np.asarray(u, dtype=float)
    if np.any((us < 0.0) | (us > 1.0) | np.isnan(us)):
        raise ValidationError("quantile level must lie in [0, 1]")
    return _scalar_or_array(lambda levels: _quantile_array(pc, i, levels), us)


def _quantile_array(pc: _Pieces, i: int | np.ndarray, us: np.ndarray) -> np.ndarray:
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
    p_i = pc.probs[np.asarray(i) - 1]
    shape = np.broadcast_shapes(np.shape(p_i), np.shape(us))
    return _quantile_into(
        pc,
        p_i,
        us,
        np.empty(shape),
        np.empty(shape),
        np.empty(shape, dtype=np.int64),
        np.empty(shape, dtype=bool),
    )


def _quantile_into(
    pc: _Pieces,
    p_i: np.ndarray,
    us: np.ndarray,
    out: np.ndarray,
    scratch: np.ndarray,
    index: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """The quantile kernel at levels ``us`` for bidders of probability ``p_i``,
    written into ``out``, with ``scratch`` (float), ``index`` (int64) and
    ``mask`` (bool) as its temporaries; all four are C-contiguous with the
    broadcast shape, and none may overlap another or ``p_i`` or ``us``.

    Computes max((p_i u + 1 - p_i)**(n-k) * prefix_k - lam, 0) with k - 1 the
    count of probabilities below p_i (1 - u), found by _piece_search, in that
    order of operations.  The power is never taken in place: numpy rounds an
    in-place power of a single element differently from its vector loop.
    """
    np.subtract(1.0, us, out=scratch)
    scratch *= p_i
    k = _piece_search(pc, scratch, index, out, mask)
    exponent = np.subtract(pc.n - 1, k, out=k)  # n - k for 1-based k
    np.multiply(p_i, us, out=out)
    out += 1.0
    out -= p_i
    power = np.power(out, exponent, out=scratch)
    # prefix_k is entry n - k of prefix_rev.  mode="clip": the exponent is in
    # range, and the default "raise" buffers ``out``.
    np.take(pc.prefix_rev, exponent, out=out, mode="clip")
    out *= power
    out -= pc.lam
    return np.maximum(out, 0.0, out=out)


def _piece_search(
    pc: _Pieces, v: np.ndarray, k: np.ndarray, scratch: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """searchsorted(pc.probs, v, "left"), the count of the sorted probabilities
    below each level v in [0, 1], written into the int64 ``k``; the float
    ``scratch`` and the bool ``mask`` have v's shape.  Each level starts at
    its guide cell's lower count and takes rounds fixed branchless steps of
    2**(rounds-1), ..., 1, advancing by a step where the probe below it is
    still below v, so ties and p = 1 come out as searchsorted's, bit for bit.
    The guide table is built once per config, with the rest of ``pc``."""
    # mode="clip": every index is in range, and "raise" buffers ``out``
    cell = np.multiply(v, pc.cells, out=scratch.view(np.int64), casting="unsafe")
    np.take(pc.edges, cell, out=k, mode="clip")
    for r in reversed(range(pc.rounds)):
        step = 1 << r
        probe = np.take(pc.pad[step - 1 :], k, out=scratch, mode="clip")
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
    _check_bidder(config, i)
    return _scalar_or_array(lambda xs: _opponent_product(_pieces(config), xs, skip=i) - xs, x)


_BLOCK_ENTRIES = 2**13  # factor-matrix entries per row block


def _factor_blocks(
    pc: _Pieces, xs: np.ndarray, cdfs=None, p=None
) -> Iterator[tuple[slice, np.ndarray]]:
    """The factor kernel: over row blocks of about _BLOCK_ENTRIES entries of
    the 1-d bids ``xs``, yield each block's slice and rows x n matrix of
    p_j F_j(x) + 1 - p_j, the chance that bidder j does not outbid x.  F_j is
    the equilibrium CDF unless ``cdfs`` gives one callable per sorted bidder,
    each called once on all of ``xs``; ``p`` overrides the probabilities."""
    p = pc.probs if p is None else np.asarray(p, dtype=float)
    given = None if cdfs is None else np.array([c(xs) for c in cdfs], dtype=float)
    step = max(1, _BLOCK_ENTRIES // pc.n)
    for start in range(0, len(xs), step):
        rows = slice(start, start + step)
        if given is None:
            f = _cdf_array(pc, np.arange(1, pc.n + 1), xs[rows, None])
        else:
            f = given[:, rows].T
        yield rows, p * f + 1.0 - p


def _opponent_product(pc: _Pieces, xs: np.ndarray, skip: int = 0, cdfs=None, p=None) -> np.ndarray:
    """prod_j (p_j F_j(x) + 1 - p_j) in bidder order over every j but ``skip``
    (1-based; 0 skips none); ``cdfs`` and ``p`` as in _factor_blocks."""
    out = np.empty(len(xs))
    for rows, f in _factor_blocks(pc, xs, cdfs, p):
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

