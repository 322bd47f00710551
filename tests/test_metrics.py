import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given
from numpy.testing import assert_allclose

import allpay_eq as ap
import exact
from allpay_eq import metrics
from allpay_eq.equilibrium import _BLOCK_ENTRIES, _pdf_array
from allpay_eq.metrics import _gauss_legendre, _oracle_table
from conftest import EXAMPLE_BIDS, EXAMPLE_MAX_PROFIT, prob_lists, random_configs, run_python


# ---------------------------------------------------------------------------
# expected bids
# ---------------------------------------------------------------------------


def test_expected_bids_worked_example(example4):
    got = ap.expected_bids(example4)
    assert_allclose(got, EXAMPLE_BIDS, rtol=1e-13)
    # the exact values rounded to three decimals
    assert_allclose(got, (0.519, 0.394, 0.277, 0.207), atol=5e-4)


def test_expected_bid_two_bidders():
    cfg = ap.build_config([0.5, 1.0])
    # F_1(x) = 2x on [0, 1/2]: integral of x * 2 dx = 1/4
    assert ap.expected_bid(cfg, 1) == pytest.approx(0.25, rel=1e-15)
    assert ap.expected_bid(cfg, 2) == pytest.approx(0.125, rel=1e-15)


def test_last_bidder_scaling_is_exact():
    for cfg in random_configs(seed=3, count=20):
        n = cfg.n
        ratio = cfg.probabilities[n - 2] / cfg.probabilities[n - 1]
        assert ap.expected_bid(cfg, n) == ratio * ap.expected_bid(cfg, n - 1)


def test_expected_bid_degenerate():
    with pytest.raises(ap.DegenerateAuctionError):
        ap.expected_bid(ap.build_config([0.9]), 1)


# ---------------------------------------------------------------------------
# sum-profit model
# ---------------------------------------------------------------------------


def test_sum_profit_worked_example(example4):
    assert ap.sum_profit(example4) == pytest.approx(113 / 144, rel=1e-14)
    # a decimal-shifted 0.0784 sometimes quoted for this example cannot be
    # right: the closed form and the bid-sum identity both give 0.7847...
    assert ap.sum_profit(example4) == pytest.approx(
        sum(p * b for p, b in zip(example4.probabilities, ap.expected_bids(example4))),
        rel=1e-12,
    )


def test_sum_profit_all_reliable():
    assert ap.sum_profit(ap.build_config([1.0] * 4)) == pytest.approx(1.0, abs=1e-15)


def test_sum_profit_two_bidders():
    cfg = ap.build_config([0.5, 1.0])
    assert ap.sum_profit(cfg) == pytest.approx(0.25, rel=1e-15)
    assert 0.5 * 0.25 + 1.0 * 0.125 == pytest.approx(0.25, rel=1e-15)


@given(prob_lists)
def test_sum_profit_identity_randomized(probs):
    cfg = ap.build_config(probs)
    direct = sum(p * b for p, b in zip(cfg.probabilities, ap.expected_bids(cfg)))
    assert math.isclose(direct, ap.sum_profit(cfg), rel_tol=1e-9, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# winning-bid CDF and max-profit model
# ---------------------------------------------------------------------------


def test_winning_bid_cdf_values(example4):
    s0 = ap.breakpoints(example4)[0]
    assert ap.winning_bid_cdf(example4, s0) == 1.0
    assert ap.winning_bid_cdf(example4, 0.5) == pytest.approx(
        (1 / 12 + 0.5) ** (4 / 3), rel=1e-13
    )
    assert ap.winning_bid_cdf(ap.build_config([0.5, 1.0]), 0.0) == pytest.approx(
        0.25, rel=1e-15
    )


def test_winning_bid_cdf_monotone(example4):
    """A CDF: 0 below 0, exactly 1 from s_0 up, nondecreasing between.  With
    p_n < 1 nobody shows up with probability prod(1 - p_j) > 0, which G must
    not carry below 0 (nobody showing up scores a winning bid of 0)."""
    for cfg in (example4, ap.build_config([1 / 3, 1 / 2, 3 / 4, 0.9])):
        s0 = ap.breakpoints(cfg)[0]
        xs = np.linspace(-0.01, 1.0, 3000)
        vals = ap.winning_bid_cdf(cfg, xs)
        assert np.all(np.diff(vals) >= -1e-15)
        assert vals[0] == 0.0 and vals[-1] == 1.0
        assert ap.winning_bid_cdf(cfg, -0.1) == 0.0
        assert ap.winning_bid_cdf(cfg, s0) == 1.0
        assert ap.winning_bid_cdf(cfg, 0.0) >= np.prod(1.0 - np.asarray(cfg.probabilities))


def test_max_profit_worked_example(example4):
    assert ap.max_profit(example4) == pytest.approx(EXAMPLE_MAX_PROFIT, rel=1e-13)


def test_max_profit_all_reliable():
    assert ap.max_profit(ap.build_config([1.0] * 4)) == pytest.approx(4 / 7, rel=1e-14)


def test_max_profit_two_bidders():
    assert ap.max_profit(ap.build_config([0.5, 1.0])) == pytest.approx(5 / 24, rel=1e-14)


def test_quadrature_cross_checks(example4):
    configs = [example4, ap.build_config([0.5, 1.0]), ap.build_config([1.0] * 3)]
    configs += list(random_configs(seed=17, count=5, n_hi=6))
    for cfg in configs:
        for i in range(1, cfg.n + 1):
            assert ap.expected_bid_quadrature(cfg, i) == pytest.approx(
                ap.expected_bid(cfg, i), abs=1e-13
            )
        assert ap.max_profit_quadrature(cfg) == pytest.approx(ap.max_profit(cfg), abs=1e-13)


# configs on which per-piece adaptive quadrature (QUADPACK) returned a wrong
# density mass with only a warning: near-singular pieces at tiny lam, ties that
# leave pieces an ulp or two wide, and lam = 0; on near_singular, tanh-sinh
# mapped linearly onto each piece is 2.4e-10 off while reporting convergence,
# and on all_reliable_x64 tanh-sinh in x does not converge at all
ORACLE_EDGE_CONFIGS = {
    "tied_0.8x20": [0.8] * 20,
    "tied_0.9x12_and_1": [0.9] * 12 + [1.0],
    "linspace_0.6_0.95_n20": list(np.linspace(0.6, 0.95, 20)),
    "linspace_0.5_0.99_n27": list(np.linspace(0.5, 0.99, 27)),
    "ulp_wide_ties": [0.7, 0.8, 0.9] * 6,
    "lam_zero": [0.3, 1.0, 1.0],
    "near_singular_0.76x15_and_1": [0.76] * 15 + [1.0],
    "all_reliable_x64": [1.0] * 64,
}


@pytest.mark.parametrize("probs", ORACLE_EDGE_CONFIGS.values(), ids=ORACLE_EDGE_CONFIGS.keys())
def test_quadrature_oracles_on_edge_configs(probs):
    cfg = ap.build_config(probs)
    for i in range(1, cfg.n + 1):
        assert ap.distribution_mass_quadrature(cfg, i) == pytest.approx(1.0, abs=1e-10)
        assert ap.expected_bid_quadrature(cfg, i) == pytest.approx(
            ap.expected_bid(cfg, i), abs=1e-10
        )
    assert ap.max_profit_quadrature(cfg) == pytest.approx(ap.max_profit(cfg), abs=1e-10)


def _mpmath_quadrature_reference(probs, bidders, dps=50):
    """Expected bids of the given bidders and the max profit, by mpmath.quad at
    dps digits over each piece of the oracles' integrands x f_i(x) and G(x),
    with lam, prefix products and breakpoints recomputed at that precision."""
    with mpmath.workdps(dps):
        p = [mpmath.mpf(v) for v in sorted(probs)]
        n = len(p)
        pref = [mpmath.mpf(1)]  # pref[k - 1] = prod_{j<k} (1 - p_j)
        for v in p[:-1]:
            pref.append(pref[-1] * (1 - v))
        lam = pref[-1]
        s = [1 - lam] + [(1 - p[k - 1]) ** (n - k) * pref[k - 1] - lam for k in range(1, n)]

        def pdf(i, k, x):
            m = n - k
            scale = p[i - 1] * m * pref[k - 1] ** (mpmath.mpf(1) / m)
            return (lam + x) ** (mpmath.mpf(1 - m) / m) / scale

        def win_cdf(k, x):
            h = ((lam + x) / pref[k - 1]) ** (mpmath.mpf(1) / (n - k))
            return mpmath.fprod(h if j >= k else 1 - p[j - 1] for j in range(1, n + 1))

        bids = {}
        for i in bidders:
            k_max = n - 1 if i == n else i
            bids[i] = sum(
                mpmath.quad(lambda x: x * pdf(i, k, x), [s[k], s[k - 1]])
                for k in range(1, k_max + 1)
            )
        max_profit = sum(
            s[k - 1] * win_cdf(k, s[k - 1]) - s[k] * win_cdf(k, s[k])
            - mpmath.quad(lambda x: win_cdf(k, x), [s[k], s[k - 1]])
            for k in range(1, n)
        )
        return {i: float(b) for i, b in bids.items()}, float(max_profit)


def test_quadrature_oracles_match_50_digit_mpmath():
    probs = ORACLE_EDGE_CONFIGS["linspace_0.6_0.95_n20"]
    cfg = ap.build_config(probs)
    bidders = (1, 7, cfg.n - 1, cfg.n)
    bids, max_profit = _mpmath_quadrature_reference(probs, bidders)
    for i in bidders:
        assert ap.expected_bid_quadrature(cfg, i) == pytest.approx(bids[i], abs=1e-12)
    assert ap.max_profit_quadrature(cfg) == pytest.approx(max_profit, abs=1e-12)


def test_mass_oracle_exact_at_tiny_probabilities():
    """Pieces as narrow as p = 1e-12 keep their width exactly: the level
    interval [1 - p_k, 1 - p_{k-1}] is mapped with half-width (p_k - p_{k-1})/2,
    not rebuilt from the breakpoints, so every bidder's mass stays 1."""
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(2, 21))
        cfg = ap.build_config(list(10.0 ** rng.uniform(-12.0, 0.0, n)))
        for i in range(1, cfg.n + 1):
            assert ap.distribution_mass_quadrature(cfg, i) == pytest.approx(1.0, abs=1e-14)


def test_max_profit_oracle_at_tiny_first_probability():
    """The max-profit oracle integrates G by parts from s_0; with s_0 = 1 - lam
    taken as a difference it returned -2.7e-17 here, against an exact
    9.99999999667e-19 (tests/exact.py)."""
    probs = [1e-9, 0.5]
    want = float(exact.max_profit(exact.exact_probabilities(probs)))
    got = ap.max_profit_quadrature(ap.build_config(probs))
    assert got == pytest.approx(want, rel=1e-6, abs=0)


def test_quadrature_raises_when_the_result_is_not_finite():
    # at n = 100, h**99 underflows at the lowest nodes of bidder 1's piece, so
    # x = 0, where the density is infinite and x f_1 dx and f_1 dx are 0 * inf
    cfg = ap.build_config([1.0] * 100)
    for oracle in (ap.expected_bid_quadrature, ap.distribution_mass_quadrature):
        with pytest.raises(ap.AuctionError, match="bidder 1's support is not finite"):
            oracle(cfg, 1)
    # G dx vanishes there instead, so the max-profit oracle stays exact
    assert ap.max_profit_quadrature(cfg) == pytest.approx(ap.max_profit(cfg), abs=1e-10)


def _per_bidder_oracles(cfg, i):
    """Bidder i's expected bid and mass by its own density, integrated over
    its own pieces with the n-node Gauss-Legendre rule in the level h: the
    plain per-bidder route that the all-bidder pass replaces."""
    prof = ap.equilibrium_profile(cfg)
    n = cfg.n
    k = np.flatnonzero(prof.width[: min(i, n - 1)] > 0.0)[:, None]
    m = prof.m[k]
    c = prof.prefix_rev[m]
    t, w = np.polynomial.legendre.leggauss(n)
    half = prof.width[k] / 2.0
    h = (1.0 - prof.p[k]) + half * (t + 1.0)
    x = c * h**m - prof.lam
    f = _pdf_array(prof, i, x) * (m * c * h ** (m - 1) * half) * w
    atom = prof.atom_n if i == n else 0.0
    return float(np.sum(x * f)), atom + float(np.sum(f))


ALL_BIDDER_CASES = {
    **ORACLE_EDGE_CONFIGS,
    **{f"random_{j}": list(cfg.probabilities)
       for j, cfg in enumerate(random_configs(seed=29, count=6, n_hi=40))},
}


@pytest.mark.parametrize("probs", ALL_BIDDER_CASES.values(), ids=ALL_BIDDER_CASES.keys())
def test_all_bidder_pass_matches_per_bidder_route(probs):
    cfg = ap.build_config(probs)
    for i in range(1, cfg.n + 1):
        bid, mass = _per_bidder_oracles(cfg, i)
        assert ap.expected_bid_quadrature(cfg, i) == pytest.approx(bid, rel=1e-14, abs=1e-15)
        assert ap.distribution_mass_quadrature(cfg, i) == pytest.approx(mass, abs=4e-15)


def _ulps(got, want):
    """|got - want| in units of want's spacing; a zero want counts in the
    spacing of the smallest normal double."""
    want = np.asarray(want, dtype=float)
    return np.abs(got - want) / np.spacing(np.maximum(np.abs(want), np.finfo(float).tiny))


def _mp_rule_at(n, nodes):
    """The n-node Gauss-Legendre nodes next to the float ``nodes``, and their
    weights 2/((1 - x^2) P_n'(x)^2), to 40 digits: three mpmath Newton steps
    on the recurrence from each float node."""
    xs, ws = [], []
    with mpmath.workdps(40):
        for x in map(mpmath.mpf, nodes.tolist()):
            for step in range(4):
                prev, cur = mpmath.mpf(1), x
                for j in range(2, n + 1):
                    prev, cur = cur, ((2 * j - 1) * x * cur - (j - 1) * prev) / j
                slope = n * (prev - x * cur) / (1 - x * x)
                if step < 3:
                    x -= cur / slope
            xs.append(float(x))
            ws.append(float(2 / ((1 - x * x) * slope**2)))
    return np.array(xs), np.array(ws)


@pytest.mark.parametrize("n", [*range(1, 41), 64, 100, 200])
def test_gauss_legendre_matches_leggauss(n):
    """Nodes within 4 ulps of numpy's Golub-Welsch rule (near 0 the
    recurrence's rounding is absolute).  Its weights are themselves up to
    6.3e-11 relative off at n = 300 (3.8e5 ulps, against mpmath), so the
    weights are held to it at that size only; the rule is exactly symmetric
    and its weights sum to 2."""
    x, w = _gauss_legendre(n)
    lx, lw = np.polynomial.legendre.leggauss(n)
    assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert _ulps(x, lx).max() <= 4
    assert_allclose(w, lw, rtol=1e-10, atol=0)
    assert abs(math.fsum(w) - 2.0) <= 8 * np.finfo(float).eps


@pytest.mark.parametrize("degree", range(1, 7))
def test_gauss_legendre_matches_mpmath_rule(degree):
    """mpmath's own Gauss-Legendre rule of 3 * 2**(degree - 1) nodes (3 to
    96): nodes within 4 ulps, weights within 16 ulps at the median node and
    16 n ulps at the worst.  That is an outermost node, whose weight moves by
    some n^2/5 ulps per ulp of the node."""
    nodes = mpmath.calculus.quadrature.GaussLegendre(mpmath.mp).calc_nodes(degree, 113)
    want = np.array(sorted((float(x), float(w)) for x, w in nodes))
    n = len(want)
    x, w = _gauss_legendre(n)
    assert _ulps(x, want[:, 0]).max() <= 4
    assert np.median(_ulps(w, want[:, 1])) <= 16 and _ulps(w, want[:, 1]).max() <= 16 * n


def test_gauss_legendre_at_n300_against_mpmath():
    """At n = 300 the eight outermost nodes, the most sensitive, and the four
    central ones, against 40-digit Newton polishing.  Over all 300 nodes the
    weights were 11 ulps off at the median and 3,304 at the outermost node
    (numpy's leggauss: 62 and 3.8e5)."""
    n = 300
    x, w = _gauss_legendre(n)
    pick = np.r_[0:8, n // 2 - 2 : n // 2 + 2]
    mx, mw = _mp_rule_at(n, x[pick])
    assert _ulps(x[pick], mx).max() <= 4
    assert _ulps(w[pick], mw).max() <= 16 * n
    assert _ulps(w[pick][-4:], mw[-4:]).max() <= 32


def test_oracles_at_n300():
    """Every bidder's oracles at n = 300, p evenly spaced over [0.05, 0.99]."""
    cfg = ap.build_config(list(np.linspace(0.05, 0.99, 300)))
    bids = ap.expected_bids(cfg)
    for i in range(1, cfg.n + 1):
        assert ap.expected_bid_quadrature(cfg, i) == pytest.approx(bids[i - 1], rel=1e-12)
        assert ap.distribution_mass_quadrature(cfg, i) == pytest.approx(1.0, abs=1e-13)


def test_oracles_raise_only_the_typed_error_where_the_density_overflows():
    """At n = 1000, p evenly spaced over [0.05, 0.99], lam underflows to 0 and
    the density overflows from piece 674 on.  Bidder 673 still gets
    finite oracles; bidder 674 gets AuctionError and no RuntimeWarning
    (the suite turns warnings into errors)."""
    cfg = ap.build_config(list(np.linspace(0.05, 0.99, 1000)))
    for oracle in (ap.expected_bid_quadrature, ap.distribution_mass_quadrature):
        assert math.isfinite(oracle(cfg, 673))
        with pytest.raises(ap.AuctionError, match="bidder 674's support is not finite"):
            oracle(cfg, 674)


@pytest.mark.parametrize(
    "oracle",
    [lambda cfg: ap.expected_bid_quadrature(cfg, 1), ap.max_profit_quadrature],
    ids=["expected_bid_quadrature", "max_profit_quadrature"],
)
def test_oracle_memory_is_bounded(oracle):
    """The oracle pass holds one block of about _BLOCK_ENTRIES nodes and its
    temporaries at a time, never the whole (n - 1) x n node table, so a cold
    call's traced peak at n = 1000 (92 MiB for the whole table, 30.6 MiB for
    a max-profit route of its own) stays under 16 blocks of float64, 8 MiB.
    The max-profit route still meets its closed form there."""
    cfg = ap.build_config(list(np.linspace(0.05, 0.99, 1000)))
    oracle(cfg)  # the equilibrium table and the rule outside the trace
    _oracle_table.cache_clear()
    tracemalloc.start()
    try:
        oracle(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * _BLOCK_ENTRIES * 8
    assert ap.max_profit_quadrature(cfg) == pytest.approx(ap.max_profit(cfg), abs=1e-12)


@pytest.mark.parametrize("entries", [1, 100])
def test_oracle_blocks_do_not_change_the_sums(monkeypatch, entries):
    """Each piece's sums read its own row alone: blocks of one piece or of two
    give the bits of the one block that n = 40 takes, empty pieces included."""
    cfg = ap.build_config([*np.linspace(0.05, 0.99, 30), *[0.5] * 5, 1.0, 1.0])
    whole = _oracle_table.__wrapped__(cfg)
    monkeypatch.setattr(metrics, "_BLOCK_ENTRIES", entries)
    assert _oracle_table.__wrapped__(cfg) == whole


def test_oracle_memo_holds_only_the_last_config(example4):
    """Interleaved configs each read their own oracles, equal to those
    computed cold, and only the last config stays memoized."""
    other = ap.build_config([0.2, 0.4, 0.4, 0.9, 1.0, 1.0])
    cold = {cfg: _oracle_table.__wrapped__(cfg) for cfg in (example4, other)}
    for cfg in (example4, other, other, example4, other):
        for i in range(1, cfg.n + 1):
            assert ap.expected_bid_quadrature(cfg, i) == cold[cfg][0][i - 1]
            assert ap.distribution_mass_quadrature(cfg, i) == cold[cfg][1][i - 1]
        assert _oracle_table.cache_info().currsize == 1


@pytest.mark.parametrize(
    "route", [ap.expected_bid, ap.expected_bid_quadrature, ap.distribution_mass_quadrature]
)
@pytest.mark.parametrize("i", [0, -1, 5])
def test_per_bidder_routes_reject_bidder_outside_config(route, i, example4):
    with pytest.raises(ap.ValidationError, match=f"bidder index {i} outside 1..4"):
        route(example4, i)


def test_approach_to_no_failure_table():
    for n in (2, 4, 6):
        cfg = ap.build_config([1 - 1e-6] * n)
        assert ap.sum_profit(cfg) == pytest.approx(1.0, abs=1e-4)
        assert ap.max_profit(cfg) == pytest.approx(n / (2 * n - 1), abs=1e-4)


# ---------------------------------------------------------------------------
# no-failure baseline table
# ---------------------------------------------------------------------------


def test_no_failure_baseline_small_n():
    b2 = ap.no_failure_baseline(2)
    assert b2.expected_bid == 0.5
    assert b2.bid_variance == pytest.approx(1 / 3 - 1 / 4, rel=1e-15)
    assert b2.max_profit == pytest.approx(2 / 3, rel=1e-15)
    b4 = ap.no_failure_baseline(4)
    assert b4.max_profit == pytest.approx(4 / 7, rel=1e-15)
    assert b4.sum_profit == 1.0 and b4.bidder_utility == 0.0
    with pytest.raises(ap.DegenerateAuctionError):
        ap.no_failure_baseline(1)


def test_no_failure_baseline_matches_general_limit():
    for n in (2, 3, 5):
        cfg = ap.build_config([1.0] * n)
        base = ap.no_failure_baseline(n)
        assert ap.sum_profit(cfg) == pytest.approx(base.sum_profit, abs=1e-12)
        assert ap.max_profit(cfg) == pytest.approx(base.max_profit, rel=1e-12)
        assert ap.expected_bid(cfg, 1) == pytest.approx(base.expected_bid, rel=1e-12)
        assert ap.expected_utility(cfg, 1) == base.bidder_utility


def test_metrics_does_not_load_the_uniform_table():
    """The general closed forms stand apart from the uniform table that
    checks them: loading metrics loads no uniform module."""
    code = "import sys, allpay_eq.metrics\nassert 'allpay_eq.uniform' not in sys.modules\n"
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def test_revenue_report_round_trip(example4):
    report = ap.revenue_report(example4)
    payload = report.to_dict()
    assert payload["n"] == 4
    assert payload["lambda"] == pytest.approx(1 / 12, rel=1e-14)
    assert [row["bidder"] for row in payload["bidders_sorted"]] == [1, 2, 3, 4]
    assert payload["bidders_sorted"][3]["atom_at_zero"] == 0.25
    json.dumps(payload)  # serializable


def test_revenue_report_caller_order_with_drops():
    cfg = ap.build_config([1.0, 0.0, 0.2])
    payload = ap.revenue_report(cfg).to_dict()
    rows = payload["bidders_caller_order"]
    assert [r["caller_position"] for r in rows] == [1, 2, 3]
    assert rows[0]["probability"] == 1.0 and rows[2]["probability"] == 0.2
    # the dropped bidder keeps a zero-utility placeholder row
    assert rows[1]["expected_bid"] is None and rows[1]["expected_utility"] == 0.0
    assert payload["dropped_caller_positions"] == [2]
    # sorted order puts the unreliable bidder first
    assert rows[2]["bidder"] == 1 and rows[0]["bidder"] == 2
