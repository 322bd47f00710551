import math
import operator
import os
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from numpy.random import Generator, PCG64DXSM

import allpay_eq as ap
from allpay_eq import simulate
from allpay_eq.equilibrium import _quantile_of_levels
from allpay_eq.simulate import (
    _Arena,
    _chunk_sums,
    _default_chunk_size,
    _finalize,
    _play_chunk,
    _resolve_threads,
    _trial_block,
    _view,
)


def _simulate_block(cfg, seed, t0, m, arena=None):
    """A chunk as dense arrays, the reference for checking trial by trial:
    (participation, bids, utilities, sum_rev, max_rev).

    The first three are C-contiguous n x m arrays, row j - 1 holding bidder
    j's value in each trial, with bid 0 and utility 0 for a non-participant;
    the revenues have one entry per trial.  Participation and the revenues
    are views into ``arena`` (a fresh one when not given), valid until its
    next chunk.  The engine keeps no dense bids or utilities: its moments
    come from the participants alone (_chunk_sums)."""
    if arena is None:
        arena = _Arena(cfg.n, m)
    chunk = _play_chunk(cfg, seed, t0, m, arena)
    bids, utilities = np.zeros((2, cfg.n, m))
    bids.ravel()[chunk.flat] = chunk.values
    utilities.ravel()[chunk.flat] = chunk.utilities
    sum_rev, max_rev = chunk.revenues
    return chunk.part, bids, utilities, sum_rev, max_rev


# ---------------------------------------------------------------------------
# single auctions with forced draws
# ---------------------------------------------------------------------------


def test_forced_draws_two_bidders():
    cfg = ap.build_config([0.5, 1.0])
    out = ap.run_auction(cfg, [0.45, 0.9])
    assert out.participated == (True, True)
    # levels p_i - w_i = 0.05 and 0.1, the quantiles at u = 0.9:
    # bidder 1 -> 0.45, bidder 2 -> 0.40
    assert out.bids == (pytest.approx(0.45), pytest.approx(0.40))
    assert out.winners == frozenset({1})
    assert out.bidder_utilities == (pytest.approx(0.55), pytest.approx(-0.40))
    assert out.sum_revenue == pytest.approx(0.85)
    assert out.max_revenue == pytest.approx(0.45)


def test_no_participants():
    cfg = ap.build_config([0.5, 0.5])
    out = ap.run_auction(cfg, [0.9, 0.9])
    assert out.participated == (False, False)
    assert out.winners == frozenset()
    assert out.bidder_utilities == (0.0, 0.0)
    assert out.sum_revenue == 0.0 and out.max_revenue == 0.0


def test_single_participant_keeps_surplus():
    cfg = ap.build_config([0.5, 0.5])
    out = ap.run_auction(cfg, [0.1, 0.9])
    b = out.bids[0]
    assert out.participated == (True, False)
    assert out.bidder_utilities[0] == pytest.approx(1.0 - b)
    assert out.sum_revenue == pytest.approx(b) and out.max_revenue == pytest.approx(b)


def test_exact_tie_splits_item():
    cfg = ap.build_config([0.5, 0.5])
    out = ap.run_auction(cfg, [0.1, 0.1])
    assert out.bids[0] == out.bids[1]
    assert out.winners == frozenset({1, 2})
    assert out.bidder_utilities[0] == pytest.approx(0.5 - out.bids[0])


def test_single_bidder_auction():
    cfg = ap.build_config([0.6])
    present = ap.run_auction(cfg, [0.1])
    assert present.bids == (0.0,) and present.bidder_utilities == (1.0,)
    absent = ap.run_auction(cfg, [0.9])
    assert absent.bids == (None,) and absent.bidder_utilities == (0.0,)


def test_participation_compares_the_whole_word(monkeypatch):
    """At p = 1e-12 a word one ulp below p takes part, and a word equal to p
    or one ulp above does not: participation compares the whole word, in a
    replay and in a chunk alike.  The level p - w lies in (0, p], and sets
    the bid."""
    p = 1e-12
    cfg = ap.build_config([p, 0.5])
    prof = ap.equilibrium_profile(cfg)
    first = [np.nextafter(p, 0.0), p / 2, 0.0, p, np.nextafter(p, 1.0)]
    for w in first[:3]:
        out = ap.run_auction(cfg, [w, 0.9])
        assert out.participated == (True, False)
        assert 0.0 < p - w <= p
        assert out.bids[0] == _quantile_of_levels(prof, np.array([p - w]))[0]
    for w in first[3:]:
        assert ap.run_auction(cfg, [w, 0.9]).participated == (False, False)

    words = np.array([[w, 0.9] for w in first])

    def replayed(config, seed, t0, m, out=None):
        out[: words.size] = words.ravel()
        return _view(out, m, config.n)

    monkeypatch.setattr(simulate, "_trial_block", replayed)
    part, bids, *_ = _simulate_block(cfg, 0, 0, len(first))
    assert part.tolist() == [[True] * 3 + [False] * 2, [False] * 5]
    for t, w in enumerate(first):
        assert bids[0, t] == (ap.run_auction(cfg, [w, 0.9]).bids[0] or 0.0)


def test_run_auction_accepts_generator(example4):
    out = ap.run_auction(example4, Generator(PCG64DXSM(5)))
    assert len(out.bids) == 4


OUTSIDE = r"\[0, 1\)"


@pytest.mark.parametrize(
    "stream, match",
    [
        # each word both decides participation and sets the bid's level
        ([0.0, 0.0, 0.0, math.nan], OUTSIDE),  # after participants: counted as absent
        ([0.0, 0.0, 0.0, 1.5], OUTSIDE),  # counted as absent
        ([0.0, 0.0, 0.0, -0.5], OUTSIDE),  # level 1.5, above p_4 = 1: bid 0
        ([math.nan, 0.0, 0.0, 0.0], OUTSIDE),  # counted as absent
        ([1.0, 0.0, 0.0, 0.0], OUTSIDE),
        ([0.0] * 3, "ran out"),  # a bare StopIteration before
        ("abc", "must be numbers"),  # float("a"): a plain ValueError before
        ([0.0, None], "must be numbers"),  # float(None): a TypeError before
        (None, "no Generator or iterable"),  # iter(None): a TypeError before
    ],
    ids=[
        "nan_bid",
        "bid_above_1",
        "negative_bid",
        "nan_participation",
        "participation_1",
        "stream_runs_out",
        "not_a_number",
        "none_uniform",
        "none_stream",
    ],
)
def test_run_auction_rejects_uniforms_outside_unit_interval(example4, stream, match):
    with pytest.raises(ap.ValidationError, match=match):
        ap.run_auction(example4, stream)


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------


def test_trials_validation(example4):
    with pytest.raises(ap.ValidationError):
        ap.monte_carlo(example4, 0)
    with pytest.raises(ap.ValidationError):
        ap.monte_carlo(example4, -5)


def test_identical_seeds_identical_reports(example4):
    a = ap.monte_carlo(example4, 30_000, seed=42)
    b = ap.monte_carlo(example4, 30_000, seed=42)
    assert a == b
    c = ap.monte_carlo(example4, 30_000, seed=43)
    assert a != c


def test_thread_count_does_not_change_report(example4):
    base = ap.monte_carlo(example4, 200_000, seed=9, threads=1)
    for threads in (2, 4, 7):
        assert ap.monte_carlo(example4, 200_000, seed=9, threads=threads) == base


def test_env_var_caps_threads(example4, monkeypatch):
    monkeypatch.setenv("ALLPAY_EQ_THREADS", "2")
    capped = ap.monte_carlo(example4, 50_000, seed=3, threads=16)
    monkeypatch.delenv("ALLPAY_EQ_THREADS")
    assert capped == ap.monte_carlo(example4, 50_000, seed=3, threads=1)


def test_env_var_must_be_an_integer(example4, monkeypatch):
    monkeypatch.setenv("ALLPAY_EQ_THREADS", "abc")
    with pytest.raises(ap.ValidationError, match="ALLPAY_EQ_THREADS"):
        ap.monte_carlo(example4, 100)


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_env_var_below_one_rejected(cap, monkeypatch):
    monkeypatch.setenv("ALLPAY_EQ_THREADS", cap)
    for threads in (None, 4):
        with pytest.raises(ap.ValidationError, match="ALLPAY_EQ_THREADS must be a positive"):
            _resolve_threads(threads, 100)


def test_workers_clamped_to_cpus_and_chunks(monkeypatch):
    """The resolved worker count, checked without starting a pool."""
    monkeypatch.delenv("ALLPAY_EQ_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert _resolve_threads(None, 100) == 1
    assert _resolve_threads(10**6, 100) == 8
    assert _resolve_threads(10**6, 3) == 3
    assert _resolve_threads(0, 100) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _resolve_threads(4, 100) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setenv("ALLPAY_EQ_THREADS", "5")
    assert _resolve_threads(None, 100) == 5
    assert _resolve_threads(16, 100) == 5
    assert _resolve_threads(16, 2) == 2
    monkeypatch.setenv("ALLPAY_EQ_THREADS", "10000")
    assert _resolve_threads(None, 100) == 8


@pytest.mark.parametrize(
    "threads", [0, -3, 2.5, True, "2"], ids=["zero", "negative", "float", "bool", "str"]
)
def test_threads_validation(example4, threads):
    with pytest.raises(ap.ValidationError, match="threads"):
        ap.monte_carlo(example4, 100, threads=threads)


@pytest.mark.parametrize("seed", [-1, 2**128, 1.5, "7", None])
def test_seed_validation(example4, seed):
    with pytest.raises(ap.ValidationError, match="seed"):
        ap.monte_carlo(example4, 100, seed=seed)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"trials": True},
        {"trials": 10.0},
        {"trials": "100"},
        {"chunk_size": 4.0},
        {"chunk_size": True},
        {"chunk_size": 0},
    ],
    ids=["trials_bool", "trials_float", "trials_str", "chunk_float", "chunk_bool", "chunk_zero"],
)
def test_integer_arguments_rejected(example4, kwargs):
    args = {"trials": 100, **kwargs}
    name = next(iter(kwargs))
    with pytest.raises(ap.ValidationError, match=name):
        ap.monte_carlo(example4, **args)


def test_integer_arguments_accept_numpy_integers(example4):
    base = ap.monte_carlo(example4, 100, seed=3, chunk_size=64)
    got = ap.monte_carlo(example4, np.int64(100), seed=np.int64(3), chunk_size=np.int32(64))
    assert got == base and type(got.trials) is int


def test_seed_range_ends(example4):
    top = ap.monte_carlo(example4, 100, seed=2**128 - 1)
    assert top.seed == 2**128 - 1
    assert ap.monte_carlo(example4, 100, seed=np.int64(3)) == ap.monte_carlo(example4, 100, seed=3)


def test_default_chunk_size():
    assert _default_chunk_size(4) == 16384
    assert _default_chunk_size(64) == 1024
    assert _default_chunk_size(300) == 218
    assert _default_chunk_size(5) == 13107  # odd
    for n in (1, 2, 3, 5, 7, 63, 65, 100, 999, 2**15, 2**16, 2**16 + 1, 10**7):
        chunk = _default_chunk_size(n)
        assert chunk >= 1
        assert chunk == 1 or chunk * n <= 2**16 < (chunk + 1) * n


def test_thread_count_does_not_change_wide_report():
    """n = 64 with a tied pair, default chunk (1,024 trials): several chunks."""
    probs = list(np.linspace(0.05, 1.0, 63)) + [0.5]
    cfg = ap.build_config(probs)
    trials = 3 * _default_chunk_size(cfg.n) + 100
    base = repr(ap.monte_carlo(cfg, trials, seed=5, threads=1).to_dict())
    for threads in (2, 4):
        assert repr(ap.monte_carlo(cfg, trials, seed=5, threads=threads).to_dict()) == base


def test_odd_n_reads_the_stream_from_any_chunk_start():
    """At n = 5, odd 7-trial chunks start at the odd and even words
    t0 n = 0, 35, 70, 105, ... of the stream: threads 1, 2 and 4 give one
    report, whose participation counts are those of the seed's PCG64DXSM
    stream read whole."""
    cfg = ap.build_config([0.1, 0.3, 0.5, 0.5, 0.9])
    trials = 1000
    base = ap.monte_carlo(cfg, trials, seed=8, threads=1, chunk_size=7)
    for threads in (2, 4):
        assert ap.monte_carlo(cfg, trials, seed=8, threads=threads, chunk_size=7) == base
    stream = Generator(PCG64DXSM(8)).random(trials * cfg.n).reshape(trials, cfg.n)
    counts = np.count_nonzero(stream < cfg.probabilities, axis=0)
    assert [b.participations for b in base.bidders] == counts.tolist()


def test_one_trial_chunks_replay_exactly():
    """chunk_size = 1, the smallest allowed: each one-trial chunk, at each
    word offset t0 n of the stream, is the trial run_auction replays."""
    cfg = ap.build_config([0.3, 0.45, 0.45, 0.8, 0.95])
    arena = _Arena(cfg.n, 1)
    for t0 in range(8):
        part, bids, utils, srev, mrev = _simulate_block(cfg, 7, t0, 1, arena)
        out = ap.run_auction(cfg, iter(_trial_block(cfg, 7, t0, 1)[0]))
        assert out.participated == tuple(part[:, 0])
        assert tuple(b or 0.0 for b in out.bids) == tuple(bids[:, 0])
        assert out.bidder_utilities == tuple(utils[:, 0])
        assert (out.sum_revenue, out.max_revenue) == (srev[0], mrev[0])
    assert ap.monte_carlo(cfg, 8, seed=7, chunk_size=1).bidders[4].participations > 0


def test_jumped_generator_replays_a_chunk_trial():
    """The seed's PCG64DXSM generator, jumped ahead by t n words and passed
    to run_auction, plays trial t as the chunk that holds it does."""
    cfg = ap.build_config([0.3, 0.45, 0.45, 0.8, 0.95])
    t0, m = 101, 64
    part, bids, utils, srev, mrev = _simulate_block(cfg, 7, t0, m)
    assert bids.any()
    for col in (0, 1, 37, m - 1):
        out = ap.run_auction(cfg, Generator(PCG64DXSM(7).advance((t0 + col) * cfg.n)))
        assert out.participated == tuple(part[:, col])
        assert tuple(b or 0.0 for b in out.bids) == tuple(bids[:, col])
        assert out.bidder_utilities == tuple(utils[:, col])
        assert (out.sum_revenue, out.max_revenue) == (srev[col], mrev[col])


@pytest.mark.parametrize("full_chunks", [4, 5], ids=["odd_count", "even_count"])
def test_uneven_lanes_match_fresh_arena_merge(monkeypatch, full_chunks):
    """Full 256-trial chunks and a 130-trial tail, an odd or an even number
    of chunks in all, run as tasks that borrow whichever arena is free:
    threads 1 and 2 give one report, equal bit for bit to the chunk-order
    sum of the tables of _chunk_sums calls that each use a fresh arena."""
    monkeypatch.delenv("ALLPAY_EQ_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = ap.build_config(list(np.linspace(0.05, 1.0, 7)) + [0.5])
    trials, chunk = full_chunks * 256 + 130, 256
    parts = [_chunk_sums(cfg, 17, t0, min(chunk, trials - t0)) for t0 in range(0, trials, chunk)]
    want = repr(_finalize(cfg, trials, 17, reduce(operator.add, parts)).to_dict())
    for threads in (1, 2):
        got = ap.monte_carlo(cfg, trials, seed=17, threads=threads, chunk_size=chunk)
        assert repr(got.to_dict()) == want


def test_chunk_sums_do_not_alias_the_arena():
    cfg = ap.build_config(list(np.linspace(0.05, 1.0, 7)) + [0.5])
    arena = _Arena(cfg.n, 512)
    first = _chunk_sums(cfg, 3, 0, 512, arena)
    kept = np.copy(first)
    _chunk_sums(cfg, 3, 512, 512, arena)
    assert np.array_equal(first, kept)


def _assert_chunk_equal(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)


def test_edge_chunks_through_a_used_arena():
    """A sole bidder, and a chunk in which nobody participates, each run
    through an arena that an earlier chunk has filled: the same arrays as a
    fresh arena, and the outcome run_auction gives."""
    m = 256
    solo = ap.build_config([0.6])
    arena = _Arena(1, m)
    _simulate_block(solo, 4, 0, m, arena)
    got = _simulate_block(solo, 4, m, m, arena)
    _assert_chunk_equal(got, _simulate_block(solo, 4, m, m))
    part, bids, utils, srev, mrev = got
    assert part.any() and not part.all()
    assert np.array_equal(utils[0], part[0].astype(float))
    assert not bids.any() and not srev.any() and not mrev.any()

    rare = ap.build_config([0.001, 0.002])
    # the first seed whose first chunk has participants, the second (trials
    # 256..511) none
    seed = next(
        s
        for s in range(100)
        if (_trial_block(rare, s, 0, m) < rare.probabilities).any()
        and not (_trial_block(rare, s, m, m) < rare.probabilities).any()
    )
    arena = _Arena(2, m)
    assert _simulate_block(rare, seed, 0, m, arena)[0].any()
    got = _simulate_block(rare, seed, m, m, arena)
    _assert_chunk_equal(got, _simulate_block(rare, seed, m, m))
    assert not any(a.any() for a in got)
    words = _trial_block(rare, seed, m, m)
    for t in range(m):
        out = ap.run_auction(rare, iter(words[t]))
        assert out.winners == frozenset() and out.bidder_utilities == (0.0, 0.0)


def test_tail_chunk_views_are_contiguous_prefixes():
    """A short tail chunk through an arena sized for full chunks: every
    (n, m') array is C-contiguous and equals a fresh arena's."""
    cfg = ap.build_config(list(np.linspace(0.05, 1.0, 7)) + [0.5])
    arena = _Arena(cfg.n, 256)
    _simulate_block(cfg, 9, 0, 256, arena)
    got = _simulate_block(cfg, 9, 256, 130, arena)
    for a in got[:3]:
        assert a.shape == (cfg.n, 130) and a.flags.c_contiguous
    _assert_chunk_equal(got, _simulate_block(cfg, 9, 256, 130))
    assert got[1].any()


def test_traced_memory_does_not_grow_with_trials(example4):
    """On one thread a call holds one arena and the running sum of the chunk
    tables: with 64-trial chunks, 256 chunks instead of 16 raise the traced
    peak by less than 32 KiB."""

    def peak(trials):
        tracemalloc.start()
        try:
            ap.monte_carlo(example4, trials, seed=1, threads=1, chunk_size=64)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    ap.monte_carlo(example4, 64, seed=1, threads=1, chunk_size=64)  # imports and caches
    few = peak(2**10)
    assert peak(2**14) < few + 32 * 1024


def test_traced_memory_does_not_grow_with_trials_on_two_threads(example4, monkeypatch):
    """On two threads at most four chunk tasks are submitted and not yet
    folded, whatever the number of chunks: with 64-trial chunks, 256 chunks
    instead of 16 raise the traced peak by less than 32 KiB."""
    monkeypatch.delenv("ALLPAY_EQ_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def peak(trials):
        tracemalloc.start()
        try:
            ap.monte_carlo(example4, trials, seed=1, threads=2, chunk_size=64)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    ap.monte_carlo(example4, 128, seed=1, threads=2, chunk_size=64)  # imports and caches
    few = peak(2**10)
    assert peak(2**14) < few + 32 * 1024


def test_traced_memory_peak_bound(example4):
    """One 2**18-trial call on one thread holds one arena: its traced peak
    stays under 4 MiB, eight default word blocks (512 KiB each at n = 4)."""
    word_block = example4.n * _default_chunk_size(example4.n) * 8
    assert word_block == 2**19
    tracemalloc.start()
    try:
        ap.monte_carlo(example4, 2**18, seed=1, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * word_block


def test_traced_memory_peak_bound_wide():
    """At n = 64 on two threads, each worker holds the arena that the call
    allocated for it, one participant-index array (np.flatnonzero) and a few
    of numpy's casting buffers.  Neither the piece search nor the moments
    allocate anything chunk-sized: one dense n x m float array more per
    worker (512 KiB) would break the bound, as would the 2,048-trial chunks
    of a 2**17-word budget."""
    probs = np.linspace(0.05, 1.0, 63)
    cfg = ap.build_config([*probs, probs[31]])  # one tied pair
    m, trials = _default_chunk_size(cfg.n), 2**15
    assert m == 1024
    arena = _Arena(cfg.n, m)
    arena_bytes = sum(a.nbytes for a in vars(arena).values())
    assert arena.words.size + arena.levels.size + arena.spare.size == 5 * cfg.n * m
    participants = max(
        np.count_nonzero(_simulate_block(cfg, 1, t0, m)[0]) for t0 in range(0, trials, m)
    )
    buffers = 4 * np.getbufsize() * 8
    tracemalloc.start()
    try:
        ap.monte_carlo(cfg, trials, seed=1, threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (arena_bytes + participants * 8 + buffers)


def _powers(v):
    """v, v^2, v^3, v^4, each rounded as the chunk sums round them."""
    v2 = v * v
    return v, v2, v2 * v, v2 * v2


def test_chunk_sums_match_masked_per_column_sums():
    """Row sums over the whole block equal the per-bidder sums over
    participants only; the summation order differs, so to a few ulps.  Every
    bid power sum and every even-power utility sum (terms >= 0, so no
    cancellation) also matches the correctly rounded math.fsum to 1e-15."""
    cfg = ap.build_config(list(np.linspace(0.05, 1.0, 15)) + [0.5])
    n, m = cfg.n, 4096
    part, bids, utils, srev, mrev = _simulate_block(cfg, 11, 0, m)
    got = _chunk_sums(cfg, 11, 0, m)
    assert got.shape == (2 * n + 2, 6)
    for j in range(n):
        b = bids[j, part[j]]
        want = [np.sum(b**q) for q in (1, 2, 3, 4)]
        np.testing.assert_allclose(got[j, 1:5], want, rtol=1e-12, atol=0)
        want = [np.sum(utils[j] ** q) for q in (1, 2, 3, 4)]
        np.testing.assert_allclose(got[n + j, 1:5], want, rtol=1e-12, atol=1e-300)
        assert got[j, 0] == b.size and got[n + j, 0] == m
        assert got[j, 5] == np.count_nonzero(b == 0.0)
        bid_powers, util_powers = _powers(bids[j]), _powers(utils[j])
        for q in range(4):
            np.testing.assert_allclose(
                got[j, 1 + q], math.fsum(bid_powers[q]), rtol=1e-15, atol=0
            )
        for q in (1, 3):  # squares and fourth powers
            np.testing.assert_allclose(
                got[n + j, 1 + q], math.fsum(util_powers[q]), rtol=1e-15, atol=0
            )
    for row, v in zip(got[2 * n :], (srev, mrev)):
        assert row[0] == m
        np.testing.assert_allclose(row[1:5], [np.sum(v**q) for q in (1, 2, 3, 4)], rtol=1e-12)
    assert not got[n:, 5].any()


def _chunk_with(cfg, m, wanted):
    """The first seed whose trials 0..m-1 give participation counts for
    which ``wanted`` holds, with those counts."""
    for seed in range(2000):
        counts = np.count_nonzero(_trial_block(cfg, seed, 0, m) < cfg.probabilities, axis=0)
        if wanted(counts):
            return seed, counts
    raise AssertionError("no such chunk")


def _assert_power_sums(got, v):
    """got holds s1..s4 of v, each within the rounding error bound of a sum
    of len(v) terms, so exactly where v is empty."""
    for s, q in zip(got, _powers(v)):
        assert abs(s - math.fsum(q)) <= len(v) * np.finfo(float).eps * math.fsum(abs(q))


@pytest.mark.parametrize(
    "probs, wanted",
    [
        ((0.2, 0.5, 0.9), lambda c: c[0] == 0 and c[1:].all()),
        ((0.1, 0.15, 0.7, 0.9), lambda c: c[1] == 0 and c[0] and c[2:].all()),
        ((0.2, 0.2, 0.3), lambda c: c[2] == 0 and c[:2].all()),
        ((0.02, 0.03, 0.04), lambda c: not c.any()),
        ((0.6,), lambda c: 0 < c[0] < 8),
    ],
    ids=["first_absent", "middle_absent", "last_absent", "nobody", "sole_bidder"],
)
def test_chunk_sums_with_empty_segments(probs, wanted):
    """A bidder who takes part in no trial of the chunk, first, in the middle
    or last, a chunk without any participant, and a sole bidder: the
    participant segments give the dense masked sums, and exactly 0 for an
    empty one."""
    cfg = ap.build_config(list(probs))
    n, m = cfg.n, 8
    seed, counts = _chunk_with(cfg, m, wanted)
    part, bids, utils, srev, mrev = _simulate_block(cfg, seed, 0, m)
    got = _chunk_sums(cfg, seed, 0, m)
    assert got[:n, 0].tolist() == counts.tolist()
    assert got[n:, 0].tolist() == [m] * (n + 2) and not got[n:, 5].any()
    for j in range(n):
        b = bids[j, part[j]]
        _assert_power_sums(got[j, 1:5], b)
        _assert_power_sums(got[n + j, 1:5], utils[j, part[j]])
        assert got[j, 5] == np.count_nonzero(b == 0.0)
        assert not utils[j, ~part[j]].any()
    for row, v in zip(got[2 * n :], (srev, mrev)):
        _assert_power_sums(row[1:5], v)
    if n == 1:
        assert got[0, 5] == counts[0] and got[1, 1] == counts[0]


def test_trial_blocks_are_stream_slices(example4):
    """Trial t owns the words [t n, (t + 1) n) of the seed's PCG64DXSM
    stream, whichever chunk reads it: at n = 4, and at n = 3 from odd and
    even starts t0 of uneven chunks, written through an arena that earlier
    chunks have filled."""
    odd = ap.build_config([0.2, 0.5, 0.9])
    for cfg in (example4, odd):
        n = cfg.n
        stream = Generator(PCG64DXSM(7)).random(512 * n).reshape(512, n)
        assert np.array_equal(_trial_block(cfg, 7, 0, 512), stream)
        parts = [_trial_block(cfg, 7, t0, 128) for t0 in range(0, 512, 128)]
        assert np.array_equal(np.vstack(parts), stream)
    arena = _Arena(odd.n, 128)
    starts = [0, 1, 2, 3, 5, 64, 101, 229, 357, 512]
    for t0, t1 in zip(starts, starts[1:]):
        got = _trial_block(odd, 7, t0, t1 - t0, out=arena.words)
        assert got.flags.c_contiguous and np.array_equal(got, stream[t0:t1])


@pytest.mark.parametrize(
    "probs",
    [
        (1 / 3, 1 / 2, 3 / 4, 1.0),
        tuple(np.linspace(0.05, 1.0, 15)) + (0.5,),
        (0.3, 0.45, 0.45, 0.8, 0.95),
    ],
    ids=["worked_example", "n16_tie", "n5_odd"],
)
def test_vectorized_trials_replay_exactly(probs):
    """Feeding a trial's n words to run_auction reproduces the vectorized
    trial, held bidder-major as one contiguous row per bidder, and uses up
    exactly those n words; the chunk starts at trial 3, so its first word
    lies past the start of the stream, at an odd word at odd n."""
    cfg = ap.build_config(list(probs))
    n, t0, m = cfg.n, 3, 64
    words = _trial_block(cfg, 7, t0, m)
    part, bids, utils, srev, mrev = _simulate_block(cfg, 7, t0, m)
    for a in (part, bids, utils):
        assert a.shape == (n, m) and a.flags.c_contiguous
    for t in range(m):
        stream = iter(words[t])
        out = ap.run_auction(cfg, stream)
        assert next(stream, None) is None
        assert out.participated == tuple(part[:, t])
        for j in range(n):
            if part[j, t]:
                assert out.bids[j] == bids[j, t]
            else:
                assert out.bids[j] is None
        assert out.bidder_utilities == tuple(utils[:, t])
        assert out.sum_revenue == srev[t] and out.max_revenue == mrev[t]


def test_report_serialization(example4):
    report = ap.monte_carlo(example4, 5_000, seed=1)
    payload = report.to_dict()
    assert payload["trials"] == 5_000 and payload["seed"] == 1
    assert len(payload["bidders_sorted"]) == 4
    assert set(payload["sum_revenue"]) == {"mean", "variance", "mean_se", "variance_se"}


@pytest.fixture(scope="module")
def example4_mc():
    cfg = ap.build_config([1 / 3, 1 / 2, 3 / 4, 1.0])
    return cfg, ap.monte_carlo(cfg, 400_000, seed=21)


def test_mc_utilities_match_closed_form(example4_mc):
    cfg, report = example4_mc
    lam = ap.lambda_value(cfg)
    for i in range(1, 5):
        stats = report.bidders[i - 1]
        target = cfg.probabilities[i - 1] * lam
        assert abs(stats.utility_mean - target) <= 4 * stats.utility_mean_se


def test_mc_revenues_match_closed_forms(example4_mc):
    cfg, report = example4_mc
    assert abs(report.sum_revenue.mean - ap.sum_profit(cfg)) <= 4 * report.sum_revenue.mean_se
    assert abs(report.max_revenue.mean - ap.max_profit(cfg)) <= 4 * report.max_revenue.mean_se


def test_mc_bid_means_match_closed_forms(example4_mc):
    cfg, report = example4_mc
    for i in range(1, 5):
        stats = report.bidders[i - 1]
        assert abs(stats.bid_mean - ap.expected_bid(cfg, i)) <= 4 * stats.bid_mean_se


def test_mc_atom_frequency(example4_mc):
    cfg, report = example4_mc
    stats = report.bidders[3]
    assert abs(stats.zero_bid_rate - 0.25) <= 4 * stats.zero_bid_rate_se
    for i in (1, 2, 3):
        assert report.bidders[i - 1].zero_bid_rate == 0.0


def test_mc_random_configs_utilities():
    rng = np.random.default_rng(57)
    for _ in range(4):
        n = int(rng.integers(2, 7))
        cfg = ap.build_config(list(1.0 - rng.random(n)))
        report = ap.monte_carlo(cfg, 150_000, seed=int(rng.integers(1_000_000)))
        lam = ap.lambda_value(cfg)
        for i in range(1, n + 1):
            stats = report.bidders[i - 1]
            target = cfg.probabilities[i - 1] * lam
            assert abs(stats.utility_mean - target) <= 4 * max(stats.utility_mean_se, 1e-12)


def test_mc_single_bidder():
    cfg = ap.build_config([0.25])
    report = ap.monte_carlo(cfg, 200_000, seed=2)
    stats = report.bidders[0]
    assert abs(stats.utility_mean - 0.25) <= 4 * stats.utility_mean_se
    assert stats.bid_mean == 0.0
    assert report.sum_revenue.mean == 0.0 and report.max_revenue.mean == 0.0
