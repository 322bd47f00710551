import math
import os
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.random import Generator, Philox

import allpay_eq as ap
from allpay_eq.equilibrium import _BLOCK_ENTRIES
from allpay_eq.simulate import (
    _Arena,
    _chunk_sums,
    _default_chunk_size,
    _equilibrium_audits,
    _finalize,
    _merge,
    _resolve_threads,
    _simulate_block,
    _trial_block,
)
from conftest import tied_prob_lists


# ---------------------------------------------------------------------------
# single auctions with forced draws
# ---------------------------------------------------------------------------


def test_forced_draws_two_bidders():
    cfg = ap.build_config([0.5, 1.0])
    out = ap.run_auction(cfg, [0.1, 0.0, 0.9, 0.9])
    assert out.participated == (True, True)
    # quantiles at u = 0.9: bidder 1 -> 0.45, bidder 2 -> 0.40
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
    out = ap.run_auction(cfg, [0.1, 0.9, 0.7])
    b = out.bids[0]
    assert out.participated == (True, False)
    assert out.bidder_utilities[0] == pytest.approx(1.0 - b)
    assert out.sum_revenue == pytest.approx(b) and out.max_revenue == pytest.approx(b)


def test_exact_tie_splits_item():
    cfg = ap.build_config([0.5, 0.5])
    out = ap.run_auction(cfg, [0.1, 0.1, 0.7, 0.7])
    assert out.bids[0] == out.bids[1]
    assert out.winners == frozenset({1, 2})
    assert out.bidder_utilities[0] == pytest.approx(0.5 - out.bids[0])


def test_single_bidder_auction():
    cfg = ap.build_config([0.6])
    present = ap.run_auction(cfg, [0.1])
    assert present.bids == (0.0,) and present.bidder_utilities == (1.0,)
    absent = ap.run_auction(cfg, [0.9])
    assert absent.bids == (None,) and absent.bidder_utilities == (0.0,)


def test_run_auction_accepts_generator(example4):
    out = ap.run_auction(example4, Generator(Philox(key=5)))
    assert len(out.bids) == 4


OUTSIDE = r"\[0, 1\)"


@pytest.mark.parametrize(
    "stream, match",
    [
        ([0.0] * 4 + [math.nan, 0.5, 0.5, 0.5], OUTSIDE),  # NaN bid: no winner in _settle
        ([0.0] * 4 + [1.5, 0.5, 0.5, 0.5], OUTSIDE),  # bid 1.505, above s_0 = 0.917
        ([0.0] * 4 + [-0.5, 0.5, 0.5, 0.5], OUTSIDE),  # bid 0.083
        ([math.nan, 0.0, 0.0, 0.0, 0.5, 0.5, 0.5], OUTSIDE),  # counted as absent
        ([1.0, 0.0, 0.0, 0.0, 0.5, 0.5, 0.5], OUTSIDE),
        ([0.0] * 4 + [0.5], "ran out"),  # a bare StopIteration before
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
    ],
    ids=["trials_bool", "trials_float", "trials_str", "chunk_float", "chunk_bool"],
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
    assert _default_chunk_size(4) == 65536
    assert _default_chunk_size(64) == 4096
    for n in (1, 2, 3, 5, 7, 63, 65, 100, 999, 2**17, 2**18, 2**18 + 1, 10**7):
        chunk = _default_chunk_size(n)
        assert chunk >= 2 and chunk % 2 == 0
        assert chunk == 2 or chunk * 2 * n <= 2**19


def test_thread_count_does_not_change_wide_report():
    """n = 64 with a tied pair, default chunk (4,096 trials): several chunks."""
    probs = list(np.linspace(0.05, 1.0, 63)) + [0.5]
    cfg = ap.build_config(probs)
    trials = 3 * _default_chunk_size(cfg.n) + 100
    base = repr(ap.monte_carlo(cfg, trials, seed=5, threads=1).to_dict())
    for threads in (2, 4):
        assert repr(ap.monte_carlo(cfg, trials, seed=5, threads=threads).to_dict()) == base


@pytest.mark.parametrize("full_chunks", [4, 5], ids=["odd_count", "even_count"])
def test_uneven_lanes_match_fresh_arena_merge(monkeypatch, full_chunks):
    """Full 256-trial chunks and a 130-trial tail, dealt round-robin to two
    lanes of unequal trials (and, with 5 chunks in all, of unequal chunk
    counts): threads 1 and 2 give one report, equal bit for bit to the
    chunk-order merge of _chunk_sums calls that each use a fresh arena."""
    monkeypatch.delenv("ALLPAY_EQ_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = ap.build_config(list(np.linspace(0.05, 1.0, 7)) + [0.5])
    trials, chunk = full_chunks * 256 + 130, 256
    parts = [_chunk_sums(cfg, 17, t0, min(chunk, trials - t0)) for t0 in range(0, trials, chunk)]
    want = repr(_finalize(cfg, trials, 17, reduce(_merge, parts)).to_dict())
    for threads in (1, 2):
        got = ap.monte_carlo(cfg, trials, seed=17, threads=threads, chunk_size=chunk)
        assert repr(got.to_dict()) == want


def test_chunk_sums_do_not_alias_the_arena():
    cfg = ap.build_config(list(np.linspace(0.05, 1.0, 7)) + [0.5])
    arena = _Arena(cfg.n, 512)
    first = _chunk_sums(cfg, 3, 0, 512, arena)
    kept = {key: np.copy(value) for key, value in first.items()}
    _chunk_sums(cfg, 3, 512, 512, arena)
    for key, value in first.items():
        assert np.array_equal(value, kept[key]), key


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
    # the first chunk of seed 6 has participants, the second (trials 256..511) none
    arena = _Arena(2, m)
    assert _simulate_block(rare, 6, 0, m, arena)[0].any()
    got = _simulate_block(rare, 6, m, m, arena)
    _assert_chunk_equal(got, _simulate_block(rare, 6, m, m))
    assert not any(a.any() for a in got)
    words = _trial_block(rare, 6, m, m)
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


def test_traced_memory_peak_bound(example4):
    """One 2**18-trial call on one thread holds one arena: its traced peak
    stays under four default word blocks (4 MiB each at n = 4)."""
    word_block = 2 * example4.n * _default_chunk_size(example4.n) * 8
    tracemalloc.start()
    try:
        ap.monte_carlo(example4, 2**18, seed=1, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * word_block


def test_traced_memory_peak_bound_wide():
    """At n = 64 on two threads, each worker holds the arena that the call
    allocated for it, one participant-index array (np.flatnonzero) and a few
    of numpy's casting buffers; the piece search allocates nothing
    chunk-sized."""
    probs = np.linspace(0.05, 1.0, 63)
    cfg = ap.build_config([*probs, probs[31]])  # one tied pair
    m, trials = _default_chunk_size(cfg.n), 2**15
    assert m == 4096
    arena_bytes = sum(a.nbytes for a in vars(_Arena(cfg.n, m)).values())
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
    m = 4096
    part, bids, utils, srev, mrev = _simulate_block(cfg, 11, 0, m)
    got = _chunk_sums(cfg, 11, 0, m)
    for j in range(cfg.n):
        b = bids[j, part[j]]
        want = [np.sum(b**q) for q in (1, 2, 3, 4)]
        np.testing.assert_allclose(got["bid_moments"][j], want, rtol=1e-12, atol=0)
        want = [np.sum(utils[j] ** q) for q in (1, 2, 3, 4)]
        np.testing.assert_allclose(got["util_moments"][j], want, rtol=1e-12, atol=1e-300)
        assert got["participations"][j] == b.size
        assert got["zero_counts"][j] == np.count_nonzero(b == 0.0)
        bid_powers, util_powers = _powers(bids[j]), _powers(utils[j])
        for q in range(4):
            np.testing.assert_allclose(
                got["bid_moments"][j][q], math.fsum(bid_powers[q]), rtol=1e-15, atol=0
            )
        for q in (1, 3):  # squares and fourth powers
            np.testing.assert_allclose(
                got["util_moments"][j][q], math.fsum(util_powers[q]), rtol=1e-15, atol=0
            )
    for key, v in (("sum_rev", srev), ("max_rev", mrev)):
        np.testing.assert_allclose(got[key], [np.sum(v**q) for q in (1, 2, 3, 4)], rtol=1e-12)


def test_philox_blocks_are_stream_slices(example4):
    whole = _trial_block(example4, 7, 0, 512)
    parts = [_trial_block(example4, 7, t0, 128) for t0 in range(0, 512, 128)]
    assert np.array_equal(np.vstack(parts), whole)


@pytest.mark.parametrize(
    "probs",
    [(1 / 3, 1 / 2, 3 / 4, 1.0), tuple(np.linspace(0.05, 1.0, 15)) + (0.5,)],
    ids=["worked_example", "n16_tie"],
)
def test_vectorized_trials_replay_exactly(probs):
    """Feeding a trial's word block to run_auction reproduces the vectorized
    trial, held bidder-major as one contiguous row per bidder."""
    cfg = ap.build_config(list(probs))
    n, m = cfg.n, 64
    words = _trial_block(cfg, 7, 0, m)
    part, bids, utils, srev, mrev = _simulate_block(cfg, 7, 0, m)
    for a in (part, bids, utils):
        assert a.shape == (n, m) and a.flags.c_contiguous
    for t in range(m):
        out = ap.run_auction(cfg, iter(words[t]))
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


# ---------------------------------------------------------------------------
# best-response audit
# ---------------------------------------------------------------------------


def test_audit_equilibrium_has_no_profitable_deviation(example4):
    for i in range(1, 5):
        res = ap.best_response_audit(example4, i, 10_001)
        assert res.deviation_gain <= 1e-9
        assert res.baseline == pytest.approx(ap.lambda_value(example4), rel=1e-14)


def test_audit_all_reliable_profile():
    cfg = ap.build_config([1.0, 1.0, 1.0])
    for i in (1, 2, 3):
        res = ap.best_response_audit(cfg, i, 10_001)
        assert res.deviation_gain <= 1e-9
        assert res.baseline == 0.0


def test_audit_grid_validation(example4):
    with pytest.raises(ap.ValidationError):
        ap.best_response_audit(example4, 1, 1)


@pytest.mark.parametrize("grid_size", [2.5, "10", None], ids=["float", "str", "none"])
@pytest.mark.parametrize("profile", ["equilibrium", "cdfs"])
def test_audit_grid_size_must_be_an_integer(example4, grid_size, profile):
    cdfs = ap.equilibrium_cdf_callables(example4) if profile == "cdfs" else None
    with pytest.raises(ap.ValidationError, match="grid_size"):
        ap.best_response_audit(example4, 1, grid_size, cdfs=cdfs)


def test_audit_detects_corrupted_profile(example4):
    """Replace the least reliable bidder's CDF with the straight line over its
    support; someone else must now see a profitable deviation."""
    s = ap.breakpoints(example4)
    corrupted = ap.equilibrium_cdf_callables(example4)
    corrupted[0] = lambda xs: np.clip(
        (np.asarray(xs, dtype=float) - s[1]) / (s[0] - s[1]), 0.0, 1.0
    )
    gains = [
        ap.best_response_audit(example4, i, 10_001, cdfs=corrupted).deviation_gain
        for i in range(1, 5)
    ]
    assert max(gains) > 0.01
    # the corrupted bidder itself keeps its payoff function, no self-gain
    assert gains[0] == pytest.approx(0.0, abs=1e-9)


def test_audit_with_explicit_equilibrium_callables(example4):
    cdfs = ap.equilibrium_cdf_callables(example4)
    res = ap.best_response_audit(example4, 2, 5_001, cdfs=cdfs)
    assert abs(res.deviation_gain) <= 1e-9
    assert res.baseline == pytest.approx(ap.lambda_value(example4), abs=1e-11)


def _constant_cdf(value):
    return lambda xs: np.full(np.shape(xs), value)


MALFORMED_PROFILES = {
    "three callables": lambda cdfs: cdfs[:3],
    "five callables": lambda cdfs: [*cdfs, cdfs[0]],
    "not callable": lambda cdfs: [*cdfs[:3], 0.5],
    "scalar values": lambda cdfs: [*cdfs[:3], lambda xs: 0.5],
    "wrong shape": lambda cdfs: [*cdfs[:3], lambda xs: np.zeros(len(xs) + 1)],
    "nan values": lambda cdfs: [*cdfs[:3], _constant_cdf(np.nan)],
    "infinite values": lambda cdfs: [*cdfs[:3], _constant_cdf(np.inf)],
    "values above 1": lambda cdfs: [_constant_cdf(2.0)] * 4,
    "values below 0": lambda cdfs: [_constant_cdf(-0.5), *cdfs[1:]],
}


@pytest.mark.parametrize("case", MALFORMED_PROFILES)
def test_audit_rejects_malformed_profiles(example4, case):
    """A perturbed profile must be n callables, each giving finite values in
    [0, 1] of the grid's shape; anything else is a ValidationError, never a
    numpy error or a silent NaN."""
    cdfs = MALFORMED_PROFILES[case](ap.equilibrium_cdf_callables(example4))
    with pytest.raises(ap.ValidationError, match="cdfs"):
        ap.best_response_audit(example4, 2, 101, cdfs=cdfs)


@pytest.mark.parametrize("bidder", [9, -1, 0, 5])
def test_audit_rejects_bidder_outside_config(example4, bidder):
    with pytest.raises(ap.ValidationError, match="bidder index"):
        ap.best_response_audit(example4, bidder, 101)
    with pytest.raises(ap.ValidationError, match="bidder index"):
        ap.best_response_audit(
            example4, bidder, 101, cdfs=ap.equilibrium_cdf_callables(example4)
        )


@given(probs=tied_prob_lists, blocks=st.integers(1, 3), extra=st.integers(0, 50), data=st.data())
def test_all_bidder_audit_matches_per_bidder_product(probs, blocks, extra, data):
    """The one-pass audit (prefix and suffix products of the factor blocks)
    against the per-bidder product over the equilibrium CDF callables, on grids
    that span one to four factor blocks."""
    cfg = ap.build_config(probs)
    grid = blocks * (_BLOCK_ENTRIES // cfg.n) + extra
    cdfs = ap.equilibrium_cdf_callables(cfg)
    for i in {1, data.draw(st.integers(1, cfg.n)), cfg.n}:
        # factors are exactly 0 below the support of a bidder with p = 1: the
        # opponent product must never be taken by dividing the full one
        with np.errstate(divide="raise", invalid="raise"):
            fast = ap.best_response_audit(cfg, i, grid)
        slow = ap.best_response_audit(cfg, i, grid, cdfs=cdfs)
        assert abs(fast.max_payoff - slow.max_payoff) <= 1e-15
        assert fast.baseline == ap.lambda_value(cfg)


@pytest.mark.parametrize("n", [64, 300])
def test_all_bidder_audit_memory_is_bounded(n):
    """The audit holds one factor block of about _BLOCK_ENTRIES entries, its
    payoff block and the CDF kernel's temporaries at a time, never a matrix
    over the whole grid, and releases each block before the next one is
    built, so its traced peak at grid 10,001 stays under three blocks of
    float64 whatever n is."""
    cfg = ap.build_config(list(np.linspace(0.05, 0.99, n)))
    ap.equilibrium_profile(cfg)  # the cached table is built outside the trace
    tracemalloc.start()
    try:
        _equilibrium_audits.__wrapped__(cfg, 10_001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * _BLOCK_ENTRIES * 8


def test_audit_memo_holds_only_the_last_config_and_grid(example4):
    """Interleaved configs and grid sizes each read their own audit, equal to
    one computed cold, and only the last (config, grid) stays memoized."""
    other = ap.build_config([0.2, 0.4, 0.4, 0.9, 1.0, 1.0])
    cold = {
        (cfg, grid): _equilibrium_audits.__wrapped__(cfg, grid)
        for cfg in (example4, other)
        for grid in (301, 5_001)
    }
    for cfg, grid in [(example4, 301), (other, 301), (example4, 5_001), (example4, 301),
                      (other, 5_001), (other, 5_001), (example4, 5_001)]:
        for i in range(1, cfg.n + 1):
            assert ap.best_response_audit(cfg, i, grid) == cold[cfg, grid][i - 1]
        assert _equilibrium_audits.cache_info().currsize == 1
