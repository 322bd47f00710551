"""Seeded Monte Carlo auction runs.

Randomness is one jump-ahead stream: trial t owns the n-word block
[t*n, (t+1)*n) of the PCG64DXSM stream seeded by the seed, one word w_i per
bidder in index order.  PCG64DXSM jumps ahead by any number of words exactly
(``advance``), so a chunk may start at any trial, and any partition of the
trial range reproduces the same draws.  Bidder i takes part iff w_i < p_i,
comparing the whole 53-bit word, and then bids the quantile at the level
v = p_i - w_i, which is uniform on (0, p_i] given participation (one word
serves both: Devroye 1986, the conditional uniform).  Reports are therefore
bit-for-bit identical for a given (config, trials, seed, chunk_size)
regardless of thread count.  A level takes about p_i * 2**53 distinct values
(9,007 at p_i = 1e-12), so two trials repeat a level only after about
sqrt(2**53 / p_i) of them (9.5e13 at p_i = 1e-12).

The default chunk follows from n: a fixed budget of 2**16 words per chunk
(16,384 trials at n = 4, 1,024 at n = 64, 218 at n = 300), so a worker's
buffers hold about 2.5 MiB of floats (5nm) at any n up to 2**16.  Each chunk
of m trials is settled bidder-major, on n x m arrays with one contiguous row
per bidder: one subtraction p - w gives every level and one multiply-subtract
winners * share - bids every all-pay utility.  Its k participants are listed
bidder-major as well: a single quantile call covers every participant, and
one np.add.reduceat per power sums every bidder's contiguous segment of
participants pairwise, since a non-participant's zero bid and utility would
add nothing.

Each chunk is a task that borrows one of the w buffer arenas the calling
thread allocates for w workers, writes every array into C-contiguous prefixes
of its slots and returns one small statistics table.  At most 2w tasks are
submitted and not yet folded, and the tables are added up in chunk order,
never in completion order, which keeps the float accumulation deterministic
under parallel execution; a call's memory does not grow with the number of
trials.
"""

from __future__ import annotations

import math
import operator
import os
import queue
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.random import Generator, PCG64DXSM

from .config import AuctionConfig, ValidationError, _check_positive, _check_seed, _threads_cap
from .equilibrium import _quantile_into, _quantile_of_levels, equilibrium_profile

_CHUNK_WORDS = 2**16  # random words per default chunk


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
    Exactly n uniforms are drawn, one per bidder in index order, as a trial
    of the Monte Carlo owns them: bidder i takes part iff w_i < p_i and then
    bids the quantile at level p_i - w_i, so a replay of a trial's words is
    exact.  In a single-bidder auction the sole bidder bids 0 and wins
    whenever present.
    """
    draw = _make_drawer(randomness)
    words = [draw() for _ in config.probabilities]
    participated = [w < p for w, p in zip(words, config.probabilities)]
    active = [i for i, flag in enumerate(participated) if flag]
    bids: list[float | None] = [None] * config.n
    if config.n == 1:
        if participated[0]:
            bids[0] = 0.0
    elif active:
        levels = np.array([config.probabilities[i] - words[i] for i in active])
        for i, b in zip(active, _quantile_of_levels(equilibrium_profile(config), levels)):
            bids[i] = float(b)
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
        """JSON-ready dict with bidder arrays in sorted and in caller order; a
        dropped position reads as a bidder who never takes part."""
        never = _bidder_stats(np.zeros(6), np.array([self.trials, 0.0, 0.0, 0.0, 0.0, 0.0]))
        sorted_rows, caller_rows = self.config.report_rows(
            [vars(b) for b in self.bidders], vars(never)
        )
        return {
            "trials": self.trials,
            "seed": self.seed,
            "bidders_sorted": sorted_rows,
            "bidders_caller_order": caller_rows,
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
    thread count.  ``trials``, ``seed``, ``chunk_size`` and ``threads`` are
    integers (not bools), ``seed`` in [0, 2**128) and the others at least 1.
    Trial t draws the n words [t n, (t + 1) n) of the seed's PCG64DXSM
    stream, one per bidder, so a chunk may start at any trial.
    ``chunk_size`` defaults to a budget of 2**16 words at n words a trial
    (16,384 trials at n = 4).  ``threads`` defaults to 1 and is capped by the
    ALLPAY_EQ_THREADS environment variable when that is set, by the CPU count
    and by the number of chunks.
    """
    trials = _check_positive("trials", trials)
    seed = _check_seed(seed)
    if chunk_size is None:
        chunk_size = _default_chunk_size(config.n)
    else:
        chunk_size = _check_positive("chunk_size", chunk_size)
    if threads is not None:
        threads = _check_positive("threads", threads)
    starts = range(0, trials, chunk_size)
    workers = _resolve_threads(threads, len(starts))
    # allocated here, not in the workers: a worker thread's allocations can
    # land in a malloc arena of its own, and the peak RSS of a process at
    # n = 64 on two threads then flipped between about 61 and 73 MB
    arenas: queue.SimpleQueue[_Arena] = queue.SimpleQueue()
    for _ in range(workers):
        arenas.put(_Arena(config.n, min(chunk_size, trials)))

    def task(t0: int) -> np.ndarray:
        """Chunk t0's table; at most ``workers`` tasks run, so an arena is free."""
        arena = arenas.get()
        try:
            return _chunk_sums(config, seed, t0, min(chunk_size, trials - t0), arena)
        finally:
            arenas.put(arena)

    # both yield in chunk order, not completion order
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            table = reduce(operator.add, _ordered_results(pool, task, starts, 2 * workers))
    else:
        table = reduce(operator.add, map(task, starts))
    return _finalize(config, trials, seed, table)


def _ordered_results(
    pool: ThreadPoolExecutor, fn: Callable, args: Iterable, depth: int
) -> Iterator:
    """fn over ``args`` on ``pool``, yielded in the order of ``args``, with at
    most ``depth`` tasks submitted and not yet yielded: Executor.map submits
    them all up front, a pending future each."""
    pending: deque = deque()
    for arg in args:
        if len(pending) == depth:
            yield pending.popleft().result()
        pending.append(pool.submit(fn, arg))
    while pending:
        yield pending.popleft().result()


def _default_chunk_size(n: int) -> int:
    """Trials per chunk: a budget of 2**16 random words at n words a trial,
    and at least 1.  Half that budget ran slower on two threads at n = 64:
    each numpy call is then too short to amortize its GIL hand-off."""
    return max(1, _CHUNK_WORDS // n)


def _resolve_threads(threads: int | None, chunks: int) -> int:
    """Worker count: ``threads`` (default 1, or the ALLPAY_EQ_THREADS value
    when that is set), capped by that variable, the CPU count and ``chunks``."""
    cap = _threads_cap()
    requested = threads if threads is not None else (cap or 1)
    if cap is not None:
        requested = min(requested, cap)
    return max(1, min(requested, os.cpu_count() or 1, chunks))


def _trial_block(
    config: AuctionConfig, seed: int, t0: int, m: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Uniform draws for trials t0..t0+m-1 as an m x n C-contiguous view, row
    t - t0 holding the words [t n, (t + 1) n) that trial t owns: the seed's
    PCG64DXSM stream, jumped ahead by t0 n words (one 64-bit output makes
    one word).  They are written into the first m n entries of ``out`` (a
    flat float array) when given."""
    n = config.n
    bit_gen = PCG64DXSM(seed)
    bit_gen.advance(t0 * n)
    if out is None:
        out = np.empty(m * n)
    return Generator(bit_gen).random(m * n, out=out[: m * n]).reshape(m, n)


class _Arena:
    """The buffers of one Monte Carlo worker, reused by each of its chunks of
    up to m trials at n bidders.

    Every slot is flat: a chunk of m' <= m trials views a C-contiguous prefix
    of it, never a column slice, whose ravel would copy.  A slot is reused
    once its first content is dead (k is the chunk's participant count):

    - ``words`` (3nm entries) holds the random words in its first nm and,
      in the k entries after them, the quantile's piece indices.  Then its
      first nm hold the dense bids, which the utilities overwrite, and last,
      its first 3k (or 3m) the powers for the moment sums.
    - ``levels`` holds the dense levels, then the quantile's scratch, then
      the dense winners * share, and last the participants' utilities.
    - ``spare`` holds the participants' levels, which the quantile turns
      into their bids.
    - ``win`` holds the quantile's search mask, then the winner mask.
    - ``revenues`` holds each trial's sum and maximum of the bids.
    """

    def __init__(self, n: int, m: int):
        size = n * m
        self.words = np.empty(3 * size)
        self.part = np.empty(size, dtype=bool)
        self.win = np.empty(size, dtype=bool)
        self.levels = np.empty(size)
        self.spare = np.empty(size)
        self.revenues = np.empty(2 * m)
        self.share = np.empty(m)
        self.nonempty = np.empty(m, dtype=bool)


def _view(slot: np.ndarray, *shape: int) -> np.ndarray:
    """The C-contiguous prefix of a flat arena slot, in ``shape``."""
    return slot[: math.prod(shape)].reshape(shape)


class _Chunk(NamedTuple):
    """One simulated chunk of m trials, bidder-major; every array is a view
    into the arena, valid until its next chunk.

    ``part`` is a C-contiguous n x m array, row j - 1 holding bidder j's
    participation in each trial.  The k participants are listed
    bidder-major: ``flat`` holds each one's index into the n x m arrays,
    ``values`` its bid and ``utilities`` its utility, so bidder j's
    participants are the ``counts[j - 1]`` consecutive entries that follow
    those of bidders 1..j-1.  ``revenues`` is 2 x m: each trial's sum and
    maximum of the bids.
    """

    part: np.ndarray
    counts: np.ndarray
    flat: np.ndarray
    values: np.ndarray
    utilities: np.ndarray
    revenues: np.ndarray


def _play_chunk(config: AuctionConfig, seed: int, t0: int, m: int, arena: _Arena) -> _Chunk:
    """Trials t0..t0+m-1, vectorized and settled through ``arena``: every
    per-bidder quantity is one operation over the dense n x m arrays, and
    only the quantile runs on the k participants' levels alone."""
    n = config.n
    size = n * m
    p = np.asarray(config.probabilities)[:, None]
    words = _trial_block(config, seed, t0, m, out=arena.words).T
    part = _view(arena.part, n, m)  # C order; the transposed view's would be F
    np.less(words, p, out=part)
    counts = np.count_nonzero(part, axis=1)
    flat = np.flatnonzero(part)  # participants, bidder-major
    k = flat.size
    levels = np.subtract(p, words, out=_view(arena.levels, n, m))
    # mode="clip": the indices are in range, and "raise" buffers ``out``
    values = np.take(levels.ravel(), flat, out=arena.spare[:k], mode="clip")
    if n > 1:
        # the dense levels are dead: they hold the quantile's scratch
        index = arena.words[size : size + k].view(np.int64)  # past the words
        _quantile_into(
            equilibrium_profile(config), values, values, arena.levels[:k], index, arena.win[:k]
        )
    else:  # a sole bidder bids 0 when present
        values.fill(0.0)
    bids = _view(arena.words, n, m)  # the words are dead
    bids.fill(0.0)
    bids.ravel()[flat] = values
    revenues = _view(arena.revenues, 2, m)
    sum_rev, top = revenues
    np.max(bids, axis=0, out=top)  # bids are >= 0: 0 when nobody shows up
    winners = np.equal(bids, top, out=_view(arena.win, n, m))
    winners &= part
    share = np.sum(winners, axis=0, dtype=float, out=arena.share[:m])  # winner counts
    np.divide(1.0, share, out=share, where=np.greater(share, 0.0, out=arena.nonempty[:m]))
    # numpy reduces axis 0 of a C-contiguous array row by row, in bidder index
    # order, as run_auction adds the bids
    np.sum(bids, axis=0, out=sum_rev)
    # the all-pay utilities winners * share - bids, written over the bids; a
    # masked add of share would make a losing zero bid's utility -0.0
    np.subtract(np.multiply(winners, share, out=levels), bids, out=bids)
    utilities = np.take(bids.ravel(), flat, out=arena.levels[:k], mode="clip")
    return _Chunk(part, counts, flat, values, utilities, revenues)


def _chunk_sums(
    config: AuctionConfig, seed: int, t0: int, m: int, arena: _Arena | None = None
) -> np.ndarray:
    """One chunk's statistics, a fresh (2n + 2) x 6 table that does not alias
    ``arena`` (a fresh one when not given).  Rows: the bids of bidders 1..n,
    their utilities, the sum and the max revenue.  Columns: the count (of
    participations on bid rows, else of trials), s1..s4, and on bid rows the
    count of zero bids.  Each bidder's sums run over its participants alone:
    a non-participant's zero bid and utility add nothing, so a bidder absent
    from the chunk keeps its zero row.

    Every sum is one np.add.reduceat over contiguous segments, which adds
    each segment pairwise, as a sum over a contiguous row does; np.sum along
    the last axis of a 2-D array does not, so a revenue row's sums are a
    reduceat from start 0 as well."""
    n = config.n
    if arena is None:
        arena = _Arena(n, m)
    chunk = _play_chunk(config, seed, t0, m, arena)
    counts = chunk.counts
    full = np.flatnonzero(counts)  # reduceat cannot express an empty segment
    starts = (np.cumsum(counts) - counts)[full]
    scratch = arena.words  # dead once the chunk is settled
    table = np.zeros((2 * n + 2, 6))
    table[:, 0] = m
    table[:n, 0] = counts
    # positive bids as exact 0/1 floats: summing a bool mask as floats
    # would copy it whole
    positive = np.greater(chunk.values, 0.0, out=scratch[: chunk.values.size])
    table[full, 5] = counts[full] - np.add.reduceat(positive, starts)
    segments = [(full, chunk.values, starts), (full + n, chunk.utilities, starts)]
    # one revenue row at a time: at n = 1 the scratch holds the powers of
    # only 3m values
    segments += [([2 * n + r], revenues, [0]) for r, revenues in enumerate(chunk.revenues)]
    for rows, v, at in segments:
        powers = _view(scratch, 3, v.size)  # v^2, v^3, v^4
        np.multiply(v, v, out=powers[0])
        np.multiply(powers[0], v, out=powers[1])
        np.multiply(powers[0], powers[0], out=powers[2])
        table[rows, 1] = np.add.reduceat(v, at)
        table[rows, 2:5] = np.add.reduceat(powers, at, axis=-1).T
    return table


def _mean_var_se(row: np.ndarray) -> tuple[float, float, float, float]:
    """(mean, sample variance, SE of mean, asymptotic SE of the variance) of a
    table row: its count, then its power sums s1..s4."""
    count = float(row[0])
    if count < 2:
        nan = float("nan")
        mean = row[1] / count if count else nan
        return mean, nan, nan, nan
    s1, s2, s3, s4 = (float(v) for v in row[1:5])
    mean = s1 / count
    m2 = max(s2 / count - mean**2, 0.0)
    m4 = max(
        s4 / count - 4 * mean * s3 / count + 6 * mean**2 * s2 / count - 3 * mean**4, 0.0
    )
    variance = m2 * count / (count - 1)
    se_mean = math.sqrt(variance / count)
    se_var = math.sqrt(max(m4 - m2**2, 0.0) / count)
    return mean, variance, se_mean, se_var


def _finalize(
    config: AuctionConfig, trials: int, seed: int, table: np.ndarray
) -> SimulationReport:
    """The report from the sum of the chunks' tables (see _chunk_sums)."""
    n = config.n
    return SimulationReport(
        config=config,
        trials=trials,
        seed=seed,
        bidders=tuple(_bidder_stats(table[j], table[n + j]) for j in range(n)),
        sum_revenue=RevenueStats(*_mean_var_se(table[2 * n])),
        max_revenue=RevenueStats(*_mean_var_se(table[2 * n + 1])),
    )


def _bidder_stats(bids: np.ndarray, utilities: np.ndarray) -> BidderStats:
    """One bidder's statistics from its bid and utility rows of a table."""
    cnt = float(bids[0])
    if cnt:
        zero_rate = float(bids[5]) / cnt
        zero_se = math.sqrt(max(zero_rate * (1 - zero_rate), 0.0) / cnt)
    else:
        zero_rate, zero_se = float("nan"), float("nan")
    return BidderStats(int(cnt), *_mean_var_se(bids), zero_rate, zero_se, *_mean_var_se(utilities))
