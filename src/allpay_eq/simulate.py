"""Seeded Monte Carlo auction runs and grid-based best-response audits.

Randomness is counter-based: trial t owns the 2n-word block [t*2n, (t+1)*2n)
of the Philox stream keyed by the seed, so any partition of the trial range
reproduces the same draws.  Within a trial the words are consumed in a fixed
order: participation uniforms for bidders 1..n first, then one bid uniform per
participant in index order.  Reports are therefore bit-for-bit identical for a
given (config, trials, seed, chunk_size) regardless of thread count.

The default chunk follows from n: a fixed budget of 2**19 words per chunk
(65,536 trials at n = 4, 4,096 at n = 64), so memory per worker stays bounded
as n grows.  Each chunk of m trials is simulated bidder-major, as n x m
arrays with one contiguous row per bidder: a single quantile call covers
every participant, and each bidder's power sums are taken pairwise along its
row, where a non-participant's zero bid and utility add nothing.

With w workers, worker i runs the chunks i, i + w, i + 2w, ... in order
through one buffer arena, which the calling thread allocates for it and which
is dropped when the call returns; every array of a chunk is written into a
C-contiguous prefix of an arena slot, so chunks after a worker's first
allocate almost nothing.  The per-chunk sums are put back in chunk order and
reduced sequentially in that order, never in completion order, which keeps
the float accumulation deterministic under parallel execution.

The best-response audit against the equilibrium covers every bidder in one
blocked pass over its grid, and memoizes the last (config, grid_size), since
callers audit the bidders of one config one at a time.
"""

from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from typing import Callable, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .config import AuctionConfig, ValidationError, _check_integer
from .equilibrium import (
    _check_bidder,
    _factor_blocks,
    _opponent_product,
    _quantile_array,
    _quantile_into,
    cdf,
    equilibrium_profile,
)

_CHUNK_WORDS = 2**19  # Philox words per default chunk
_SEED_LIMIT = 2**128  # Philox keys are 128-bit
_THREADS_ENV = "ALLPAY_EQ_THREADS"


# ---------------------------------------------------------------------------
# Single-auction semantics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuctionOutcome:
    """One realized auction: tie-splitting winners, all-pay utilities, and the
    revenue of both auctioneer models."""

    participated: tuple[bool, ...]
    bids: tuple[float | None, ...]
    winners: frozenset[int]
    bidder_utilities: tuple[float, ...]
    sum_revenue: float
    max_revenue: float


def run_auction(config: AuctionConfig, randomness) -> AuctionOutcome:
    """Play one auction.

    ``randomness`` is either a numpy Generator or an iterable of uniforms in
    [0, 1); anything else, a replayed uniform that is not a number, is NaN or
    lies outside [0, 1), and a stream that runs out raise ``ValidationError``.
    Draws are consumed in the documented order (participation flags for
    bidders 1..n, then bids for participants in index order), so a replay from
    a recorded stream is exact.  A single-bidder auction needs no bid draw: the
    sole bidder bids 0 and wins whenever present.
    """
    n = config.n
    draw = _make_drawer(randomness)
    participated = [draw() < p for p in config.probabilities]
    active = [i for i, flag in enumerate(participated, start=1) if flag]
    bids: list[float | None] = [None] * n
    if n == 1:
        if participated[0]:
            bids[0] = 0.0
    elif active:
        u = np.asarray([draw() for _ in active])
        values = _quantile_array(equilibrium_profile(config), np.asarray(active), u)
        for i, b in zip(active, values):
            bids[i - 1] = float(b)
    return _settle(participated, bids)


def _make_drawer(randomness) -> Callable[[], float]:
    if isinstance(randomness, Generator):
        return lambda: float(randomness.random())
    try:
        iterator = iter(randomness)
    except TypeError:
        raise ValidationError(f"randomness is no Generator or iterable: {randomness!r}") from None

    def draw() -> float:
        try:
            u = next(iterator)
        except StopIteration:
            raise ValidationError("the replayed uniform stream ran out") from None
        try:
            u = float(u)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"replayed uniforms must be numbers: {exc}") from None
        if not 0.0 <= u < 1.0:  # also refuses NaN
            raise ValidationError(f"replayed uniforms must lie in [0, 1), got {u!r}")
        return u

    return draw


def _settle(participated: Sequence[bool], bids: Sequence[float | None]) -> AuctionOutcome:
    active = [i for i, flag in enumerate(participated, start=1) if flag]
    if not active:
        return AuctionOutcome(
            participated=tuple(participated),
            bids=tuple(bids),
            winners=frozenset(),
            bidder_utilities=tuple(0.0 for _ in participated),
            sum_revenue=0.0,
            max_revenue=0.0,
        )
    top = max(bids[i - 1] for i in active)
    winners = frozenset(i for i in active if bids[i - 1] == top)
    share = 1.0 / len(winners)
    utilities = []
    for i, flag in enumerate(participated, start=1):
        if not flag:
            utilities.append(0.0)
        elif i in winners:
            utilities.append(share - bids[i - 1])
        else:
            utilities.append(-bids[i - 1])
    return AuctionOutcome(
        participated=tuple(participated),
        bids=tuple(bids),
        winners=winners,
        bidder_utilities=tuple(utilities),
        # plain left-to-right addition: builtin sum compensates floats from 3.12 on
        sum_revenue=float(reduce(operator.add, (bids[i - 1] for i in active))),
        max_revenue=float(top),
    )


# ---------------------------------------------------------------------------
# Monte Carlo aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BidderStats:
    """Per-bidder empirical summary.  Bid statistics condition on
    participation; utility statistics count absences as zero."""

    participations: int
    bid_mean: float
    bid_variance: float
    bid_mean_se: float
    bid_variance_se: float
    zero_bid_rate: float
    zero_bid_rate_se: float
    utility_mean: float
    utility_variance: float
    utility_mean_se: float
    utility_variance_se: float


@dataclass(frozen=True)
class RevenueStats:
    mean: float
    variance: float
    mean_se: float
    variance_se: float


@dataclass(frozen=True)
class SimulationReport:
    config: AuctionConfig
    trials: int
    seed: int
    bidders: tuple[BidderStats, ...]
    sum_revenue: RevenueStats
    max_revenue: RevenueStats

    def to_dict(self) -> dict:
        cfg = self.config
        rows = [
            {
                "bidder": i,
                "caller_position": cfg.caller_position(i),
                "probability": cfg.probabilities[i - 1],
                **vars(self.bidders[i - 1]),
            }
            for i in range(1, cfg.n + 1)
        ]
        return {
            "trials": self.trials,
            "seed": self.seed,
            "bidders_sorted": rows,
            "bidders_caller_order": sorted(rows, key=lambda r: r["caller_position"]),
            "sum_revenue": vars(self.sum_revenue),
            "max_revenue": vars(self.max_revenue),
        }


def monte_carlo(
    config: AuctionConfig,
    trials: int,
    seed: int = 0,
    threads: int | None = None,
    chunk_size: int | None = None,
) -> SimulationReport:
    """Run ``trials`` independent auctions and aggregate moment statistics.

    Deterministic for fixed (config, trials, seed, chunk_size) under any
    thread count.  ``trials``, ``seed`` and ``chunk_size`` are integers (not
    bools), ``seed`` in [0, 2**128).  ``chunk_size`` defaults to a budget of
    2**19 Philox words at 2n words a trial (65,536 trials at n = 4).
    ``threads`` is a positive integer (not a bool); it defaults to 1 and is
    capped by the ALLPAY_EQ_THREADS environment variable when that is set, by
    the CPU count and by the number of chunks.
    """
    trials = _check_integer("trials", trials)
    if trials < 1:
        raise ValidationError(f"trials must be a positive integer, got {trials}")
    seed = _check_integer("seed", seed)
    if not 0 <= seed < _SEED_LIMIT:
        raise ValidationError(f"seed must lie in [0, 2**128), got {seed}")
    if chunk_size is None:
        chunk_size = _default_chunk_size(config.n)
    else:
        chunk_size = _check_integer("chunk_size", chunk_size)
        if chunk_size < 2 or chunk_size % 2:
            raise ValidationError(f"chunk_size must be even and >= 2, got {chunk_size}")
    if threads is not None:
        threads = _check_integer("threads", threads)
        if threads < 1:
            raise ValidationError(f"threads must be a positive integer, got {threads}")
    starts = list(range(0, trials, chunk_size))
    workers = _resolve_threads(threads, len(starts))
    # allocated here, not in the workers: a worker thread's allocations can
    # land in a malloc arena of its own, and the peak RSS of a process at
    # n = 64 on two threads then flipped between about 61 and 73 MB
    arenas = [_Arena(config.n, min(chunk_size, trials)) for _ in range(workers)]

    def lane(w: int) -> list[dict]:
        """Worker w's chunks, starts[w::workers], in order through arena w."""
        arena = arenas[w]
        return [
            _chunk_sums(config, seed, t0, min(chunk_size, trials - t0), arena)
            for t0 in starts[w::workers]
        ]

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            lanes = list(pool.map(lane, range(workers)))
    else:
        lanes = [lane(0)]
    chunks: list[dict] = [{}] * len(starts)
    for w, sums in enumerate(lanes):
        chunks[w::workers] = sums
    total = chunks[0]
    for part in chunks[1:]:  # fixed order: chunk index, not completion order
        total = _merge(total, part)
    return _finalize(config, trials, seed, total)


def _default_chunk_size(n: int) -> int:
    """Trials per chunk: a budget of 2**19 Philox words at 2n words a trial,
    rounded down to an even count (whole 4-word Philox blocks) and at least 2."""
    return max(2, _CHUNK_WORDS // (2 * n) // 2 * 2)


def _resolve_threads(threads: int | None, chunks: int) -> int:
    """Worker count: ``threads`` (default 1, or the ALLPAY_EQ_THREADS value
    when that is set), capped by that variable, the CPU count and ``chunks``."""
    cap = os.environ.get(_THREADS_ENV)
    cap_value = None
    if cap:
        try:
            cap_value = int(cap)
        except ValueError:
            raise ValidationError(f"{_THREADS_ENV} must be an integer, got {cap!r}") from None
        if cap_value < 1:
            raise ValidationError(f"{_THREADS_ENV} must be a positive integer, got {cap!r}")
    requested = threads if threads is not None else (cap_value or 1)
    if cap_value is not None:
        requested = min(requested, cap_value)
    return max(1, min(requested, os.cpu_count() or 1, chunks))


def _trial_block(
    config: AuctionConfig, seed: int, t0: int, m: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Uniform draws for trials t0..t0+m-1, one 2n-word row per trial, written
    into ``out`` (an m x 2n C-contiguous float array) when given."""
    words_per_trial = 2 * config.n
    offset_words = t0 * words_per_trial
    bit_gen = Philox(key=seed)
    if offset_words:
        assert offset_words % 4 == 0  # Philox advances in 4-word blocks
        bit_gen.advance(offset_words // 4)
    return Generator(bit_gen).random((m, words_per_trial), out=out)


class _Arena:
    """The buffers of one Monte Carlo worker, reused by each of its chunks of
    up to m trials at n bidders.

    Every slot is flat: a chunk of m' <= m trials views a C-contiguous prefix
    of it, never a column slice, whose ravel would copy.  A slot is reused
    once its first content is dead:

    - ``words`` holds the Philox words, then the quantile's p_i and scratch,
      then the power-sum temporaries.
    - ``pos`` holds the bid-word positions, then the quantile's piece
      indices, then the utilities.
    - ``levels`` holds the gathered positions, then the search's cell indices
      and probes, then the quantiles.
    - ``bids`` holds the gathered bid words, then the bids.
    - ``win`` holds the search mask, then the winner mask, then the
      nonzero-bid mask.
    """

    def __init__(self, n: int, m: int):
        size = n * m
        self.words = np.empty(2 * size)
        self.part = np.empty(size, dtype=bool)
        self.win = np.empty(size, dtype=bool)
        self.pos = np.empty(size)
        self.levels = np.empty(size)
        self.bids = np.empty(size)
        self.first_pos = np.arange(n - 1, 2 * n * m, 2 * n)  # bidder 1's bid word
        self.top = np.empty(m)
        self.share = np.empty(m)
        self.nonempty = np.empty(m, dtype=bool)
        self.sum_rev = np.empty(m)


def _view(slot: np.ndarray, *shape: int) -> np.ndarray:
    """The C-contiguous prefix of a flat arena slot, in ``shape``."""
    return slot[: math.prod(shape)].reshape(shape)


def _simulate_block(
    config: AuctionConfig, seed: int, t0: int, m: int, arena: _Arena | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized trials, bidder-major: (participation, bids, utilities,
    sum_rev, max_rev).

    The first three are C-contiguous n x m arrays, row j - 1 holding bidder
    j's value in each trial; the revenues have one entry per trial.
    Non-participants hold bid 0 and utility 0, so every reduction runs over
    whole rows without a mask.  All five are views into ``arena`` (a fresh
    one when not given), valid until its next chunk.
    """
    n = config.n
    if arena is None:
        arena = _Arena(n, m)
    p = np.asarray(config.probabilities)
    words = _trial_block(config, seed, t0, m, out=_view(arena.words, m, 2 * n))
    part = _view(arena.part, n, m)  # C order; the transposed view's would be F
    np.less(words[:, :n].T, p[:, None], out=part)
    bids = _view(arena.bids, n, m)
    if n > 1:  # a sole bidder bids 0 when present
        # Participants take bid words in index order from each trial's back
        # half: pos[j, t] is the flat index of the word bidder j + 1 takes in
        # trial t when present.  It is a cumulative count down axis 0, added
        # row by row: np.cumsum(axis=0) runs one column at a time, 10x slower.
        pos = _view(arena.pos.view(np.int64), n, m)
        np.add(arena.first_pos[:m], part[0], out=pos[0])
        for j in range(1, n):
            np.add(pos[j - 1], part[j], out=pos[j])
        flat = np.flatnonzero(part)  # participants, bidder-major
        k = flat.size
        # mode="clip": the indices are in range, and "raise" buffers ``out``
        at = np.take(pos.ravel(), flat, out=arena.levels.view(np.int64)[:k], mode="clip")
        us = np.take(words.ravel(), at, out=arena.bids[:k], mode="clip")
        # the words are dead: their block holds p_i and the quantile scratch
        p_i = arena.words[:k]
        stop = 0
        for p_j, count in zip(p, np.count_nonzero(part, axis=1).tolist()):
            p_i[stop : stop + count] = p_j
            stop += count
        scratch = arena.words[n * m : n * m + k]
        index = arena.pos.view(np.int64)[:k]  # the positions are dead after the gather
        values = _quantile_into(
            equilibrium_profile(config), p_i, us, arena.levels[:k], scratch, index, arena.win[:k]
        )
        bids.fill(0.0)
        bids.ravel()[flat] = values
    else:
        bids.fill(0.0)
    top = np.max(bids, axis=0, out=arena.top[:m])  # bids are >= 0: 0 when nobody shows up
    winners = np.equal(bids, top, out=_view(arena.win, n, m))
    winners &= part
    share = np.sum(winners, axis=0, dtype=float, out=arena.share[:m])  # winner counts
    np.divide(1.0, share, out=share, where=np.greater(share, 0.0, out=arena.nonempty[:m]))
    utilities = np.multiply(winners, share, out=_view(arena.pos, n, m))
    utilities -= bids
    # numpy reduces axis 0 of a C-contiguous array row by row, in bidder index
    # order, as run_auction adds the bids
    sum_rev = np.sum(bids, axis=0, out=arena.sum_rev[:m])
    return part, bids, utilities, sum_rev, top


def _power_sums(values: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Power sums s1..s4 along the last axis, stacked on a new last axis.
    Each sum runs over a contiguous row, which numpy adds pairwise.  v^2 and
    v^3, then v^4 over v^3, are written into the flat ``scratch``, which
    holds at least twice the entries of ``values``."""
    v2 = np.multiply(values, values, out=_view(scratch, *values.shape))
    powers = _view(scratch[values.size :], *values.shape)
    sums = [values.sum(axis=-1), v2.sum(axis=-1)]
    sums.append(np.multiply(v2, values, out=powers).sum(axis=-1))
    sums.append(np.multiply(v2, v2, out=powers).sum(axis=-1))
    return np.stack(sums, axis=-1)


def _chunk_sums(
    config: AuctionConfig, seed: int, t0: int, m: int, arena: _Arena | None = None
) -> dict:
    """One chunk's counts and power sums, as fresh arrays that do not alias
    ``arena`` (a fresh one when not given)."""
    if arena is None:
        arena = _Arena(config.n, m)
    part, bids, utilities, sum_rev, max_rev = _simulate_block(config, seed, t0, m, arena)
    participations = np.count_nonzero(part, axis=1)
    nonzero = np.not_equal(bids, 0.0, out=_view(arena.win, *bids.shape))
    return {
        "trials": m,
        "participations": participations.astype(float),
        "bid_moments": _power_sums(bids, arena.words),
        "zero_counts": (participations - np.count_nonzero(nonzero, axis=1)).astype(float),
        "util_moments": _power_sums(utilities, arena.words),
        "sum_rev": _power_sums(sum_rev, arena.words),
        "max_rev": _power_sums(max_rev, arena.words),
    }


def _merge(a: dict, b: dict) -> dict:
    return {key: a[key] + b[key] for key in a}


def _mean_var_se(moments: np.ndarray, count: float) -> tuple[float, float, float, float]:
    """(mean, sample variance, SE of mean, asymptotic SE of the variance)."""
    if count < 2:
        nan = float("nan")
        mean = moments[0] / count if count else nan
        return mean, nan, nan, nan
    s1, s2, s3, s4 = (float(v) for v in moments)
    mean = s1 / count
    m2 = max(s2 / count - mean**2, 0.0)
    m4 = max(
        s4 / count - 4 * mean * s3 / count + 6 * mean**2 * s2 / count - 3 * mean**4, 0.0
    )
    variance = m2 * count / (count - 1)
    se_mean = math.sqrt(variance / count)
    se_var = math.sqrt(max(m4 - m2**2, 0.0) / count)
    return mean, variance, se_mean, se_var


def _finalize(config: AuctionConfig, trials: int, seed: int, tot: dict) -> SimulationReport:
    bidders = []
    for j in range(config.n):
        cnt = float(tot["participations"][j])
        b_mean, b_var, b_se, b_var_se = _mean_var_se(tot["bid_moments"][j], cnt)
        u_mean, u_var, u_se, u_var_se = _mean_var_se(tot["util_moments"][j], float(trials))
        if cnt:
            zero_rate = float(tot["zero_counts"][j]) / cnt
            zero_se = math.sqrt(max(zero_rate * (1 - zero_rate), 0.0) / cnt)
        else:
            zero_rate, zero_se = float("nan"), float("nan")
        bidders.append(
            BidderStats(
                participations=int(cnt),
                bid_mean=b_mean,
                bid_variance=b_var,
                bid_mean_se=b_se,
                bid_variance_se=b_var_se,
                zero_bid_rate=zero_rate,
                zero_bid_rate_se=zero_se,
                utility_mean=u_mean,
                utility_variance=u_var,
                utility_mean_se=u_se,
                utility_variance_se=u_var_se,
            )
        )
    return SimulationReport(
        config=config,
        trials=trials,
        seed=seed,
        bidders=tuple(bidders),
        sum_revenue=RevenueStats(*_mean_var_se(tot["sum_rev"], float(trials))),
        max_revenue=RevenueStats(*_mean_var_se(tot["max_rev"], float(trials))),
    )


# ---------------------------------------------------------------------------
# Best-response audit
# ---------------------------------------------------------------------------


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
    as a positive gain.  Unless ``cdfs`` holds exactly n callables, each
    returning finite values in [0, 1] in an array of its argument's shape,
    the audit raises ValidationError.
    """
    grid_size = _check_integer("grid_size", grid_size)
    if grid_size < 2:
        raise ValidationError("grid_size must be >= 2")
    prof = equilibrium_profile(config)
    i = _check_bidder(config, i)
    if cdfs is None:
        return _equilibrium_audits(config, grid_size)[i - 1]
    if len(cdfs) != config.n or not all(map(callable, cdfs)):
        raise ValidationError(f"cdfs must be {config.n} callables, one per sorted bidder")
    grid = np.union1d(np.linspace(0.0, prof.breakpoints[0], grid_size), prof.breakpoints)
    given = _profile_values(cdfs, grid)
    payoff_grid = _opponent_product(prof, grid, i, given) - grid
    best = int(np.argmax(payoff_grid))
    mids = 0.5 * (grid[1:] + grid[:-1])
    payoff_mids = _opponent_product(prof, mids, i, _profile_values(cdfs, mids)) - mids
    f_grid = given[i - 1]
    baseline = float(f_grid[0] * payoff_grid[0] + np.sum(payoff_mids * np.diff(f_grid)))
    return AuditResult(
        bidder=i,
        max_payoff=float(payoff_grid[best]),
        argmax_bid=float(grid[best]),
        baseline=baseline,
        deviation_gain=float(payoff_grid[best] - baseline),
    )


def _profile_values(cdfs, xs: np.ndarray) -> np.ndarray:
    """The bidder-major matrix of each CDF callable's values at ``xs``.  Raises
    ValidationError unless every callable returns finite values in [0, 1], in
    an array of xs's shape."""
    given = [np.asarray(c(xs), dtype=float) for c in cdfs]
    for j, f in enumerate(given):
        if f.shape != xs.shape or not np.all((f >= 0.0) & (f <= 1.0)):  # NaN fails too
            raise ValidationError(f"cdfs[{j}] must return values in [0, 1] of shape {xs.shape}")
    return np.array(given)


@lru_cache(maxsize=1)
def _equilibrium_audits(config: AuctionConfig, grid_size: int) -> tuple[AuditResult, ...]:
    """Every bidder's audit against the equilibrium in one pass over the
    bidder-major factor blocks, with a running maximum and first argmax per
    bidder row.  Bidder i's opponent product is prod_{j<i} f_j * prod_{j>i}
    f_j, from exclusive prefix and suffix products down the rows (each a
    plain product in bidder order, the suffix taken from the last bidder
    down): dividing the full product by f_i fails where f_i is exactly 0,
    below the support of a bidder with p = 1."""
    prof = equilibrium_profile(config)
    grid = np.union1d(np.linspace(0.0, prof.breakpoints[0], grid_size), prof.breakpoints)
    best = np.full(config.n, -np.inf)
    argmax = np.zeros(config.n)
    for cols, f in _factor_blocks(prof, grid):
        payoffs = _exclusive_products(f)
        payoffs -= grid[cols]
        values = payoffs.max(axis=1)
        argmax = np.where(values > best, grid[cols][payoffs.argmax(axis=1)], argmax)
        best = np.maximum(values, best)
        del f, payoffs  # release this block before the next one is built
    return tuple(
        AuditResult(i, float(m), float(x), prof.lam, float(m - prof.lam))
        for i, m, x in zip(range(1, config.n + 1), best, argmax)
    )


def _exclusive_products(f: np.ndarray) -> np.ndarray:
    """Row i of the result is prod_{j != i} f_j over the rows of the factor
    block ``f``, which is overwritten.  Row by row: np.cumprod(axis=0) gives
    the same bits, several times slower at n <= 64.  The row views die with
    this frame, so they keep no block alive."""
    payoffs = np.empty_like(f)  # row i: prod_{j<i} f_j
    payoffs[0] = 1.0
    for below, f_j, out in zip(payoffs, f, payoffs[1:]):
        np.multiply(below, f_j, out=out)
    for above, f_j in zip(f[:0:-1], f[-2:0:-1]):  # row j of f becomes prod_{l>=j} f_l
        f_j *= above
    payoffs[:-1] *= f[1:]
    return payoffs


def equilibrium_cdf_callables(config: AuctionConfig) -> list[Callable[[np.ndarray], np.ndarray]]:
    """The equilibrium profile as plain callables, handy for building perturbed
    profiles to audit."""
    return [partial(cdf, config, i) for i in range(1, config.n + 1)]
