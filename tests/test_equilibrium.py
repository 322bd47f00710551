import json
import math
import platform
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import allpay_eq as ap
import exact
from allpay_eq.equilibrium import (
    _BLOCK_ENTRIES,
    _audit_grid,
    _bid_of_level,
    _block_columns,
    _equilibrium_audits,
    _factor_blocks,
    _level_of_bid,
    _opponent_product,
    _piece_indices,
    _piece_search,
    _profile_payoff,
    _quantile_array,
    _row_buffers,
)
from conftest import (
    edge_prob_lists,
    example1_explicit_cdfs,
    prob_lists,
    random_configs,
    run_python,
    tied_prob_lists,
)

S0, S1, S2 = 11 / 12, 23 / 108, 1 / 12
EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# lambda, breakpoints, helper function
# ---------------------------------------------------------------------------


def test_lambda_examples(example4):
    assert math.isclose(ap.lambda_value(example4), 1 / 12, rel_tol=1e-15)
    assert ap.lambda_value(ap.build_config([1.0, 1.0])) == 0.0
    assert ap.lambda_value(ap.build_config([0.5, 1.0])) == 0.5
    # n = 1: empty product
    assert ap.lambda_value(ap.build_config([0.4])) == 1.0


@given(prob_lists, st.floats(min_value=0.0, max_value=1.0))
def test_lambda_ignores_most_reliable(probs, t):
    # the most reliable bidder does not influence the others: moving p_n
    # anywhere in [p_{n-1}, 1] leaves lam, the breakpoints and F_1..F_{n-1}
    # bit-identical and moves only the atom 1 - p_{n-1}/p_n
    cfg = ap.build_config(probs)
    p, n = cfg.probabilities, cfg.n
    moved = ap.build_config([*p[:-1], min(1.0, p[-2] + t * (1.0 - p[-2]))])
    before, after = ap.equilibrium_profile(cfg), ap.equilibrium_profile(moved)
    assert after.lam == before.lam and ap.lambda_value(moved) == ap.lambda_value(cfg)
    assert after.breakpoints == before.breakpoints
    assert after.atom_n == 1.0 - p[-2] / moved.probabilities[-1]
    xs = np.concatenate([np.linspace(-0.01, 1.0, 257), before.breakpoints])
    for i in range(1, n):
        assert np.array_equal(ap.cdf(moved, i, xs), ap.cdf(cfg, i, xs))


def test_breakpoints_worked_example(example4):
    got = ap.breakpoints(example4)
    assert_allclose(got, [S0, S1, S2, 0.0], rtol=1e-14, atol=0)
    assert got[-1] == 0.0


def test_breakpoints_two_bidders():
    assert_allclose(ap.breakpoints(ap.build_config([0.5, 1.0])), [0.5, 0.0], rtol=1e-15)


def test_breakpoints_all_reliable():
    assert ap.breakpoints(ap.build_config([1.0] * 5)) == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_breakpoints_degenerate():
    with pytest.raises(ap.DegenerateAuctionError, match="degenerate auction"):
        ap.breakpoints(ap.build_config([0.7]))


def test_breakpoints_nonincreasing_randomized():
    for cfg in random_configs(seed=101, count=40):
        s = ap.breakpoints(cfg)
        assert all(a >= b for a, b in zip(s, s[1:]))
        assert s[0] == pytest.approx(1.0 - ap.lambda_value(cfg), rel=1e-15)


@given(edge_prob_lists(max_n=300))
def test_breakpoints_exact_structure_at_the_edges(probs):
    """The breakpoint rows read p_k alone: finite, nonincreasing and bit-equal
    for tied probabilities, with s_{n-1} exactly 0.0, for n up to 300, ties,
    p = 1 and p down to 1e-12."""
    cfg = ap.build_config(probs)
    s, p = ap.breakpoints(cfg), (0.0, *cfg.probabilities)
    assert all(math.isfinite(v) for v in s)
    assert all(a >= b for a, b in zip(s, s[1:]))
    assert all(s[k - 1] == s[k] for k in range(1, cfg.n) if p[k - 1] == p[k])
    assert s[-1] == 0.0


def test_top_breakpoint_keeps_relative_digits_at_tiny_p():
    """s_0 = 1 - lam is exactly p_1 for n = 2; taken as a difference it lost
    its relative digits (9.9999997e-10 here)."""
    s0 = ap.breakpoints(ap.build_config([1e-9, 0.5]))[0]
    assert abs(s0 - 1e-9) <= 4e-16 * 1e-9


def test_h_value(example4):
    assert math.isclose(ap.h_value(example4, 1, S1), 2 / 3, rel_tol=1e-14)
    assert math.isclose(ap.h_value(example4, 1, S0), 1.0, rel_tol=1e-15)
    assert math.isclose(ap.h_value(ap.build_config([0.5, 1.0]), 1, 0.0), 0.5, rel_tol=1e-15)


def test_h_value_of_an_array_is_the_scalar_route(example4):
    xs = np.array([S1, 0.5, S0])
    assert ap.h_value(example4, 1, xs).tolist() == [ap.h_value(example4, 1, x) for x in xs]
    with pytest.raises(ap.ValidationError, match="undefined"):
        ap.h_value(example4, 1, [0.5, -0.5])


def test_level_and_bid_kernels_invert_each_other():
    """_level_of_bid undoes _bid_of_level on every nonempty piece, and the
    piece ends map to the breakpoints."""
    for cfg in random_configs(seed=71, count=20, n_hi=16):
        prof = ap.equilibrium_profile(cfg)
        for k in np.flatnonzero(prof.width > 0.0):
            h = np.linspace(1.0 - prof.p[k], 1.0 - prof.p_prev[k], 9)
            m = np.full(h.shape, prof.m[k])
            x = _bid_of_level(prof, h, m)
            assert_allclose(_level_of_bid(prof, x, m), h, rtol=1e-12)
            s = prof.breakpoints
            assert_allclose(x[[0, -1]], [s[k + 1], s[k]], rtol=1e-12, atol=1e-15)


def test_h_value_errors(example4):
    with pytest.raises(ap.ValidationError):
        ap.h_value(example4, 0, 0.5)
    with pytest.raises(ap.ValidationError):
        ap.h_value(example4, 4, 0.5)
    with pytest.raises(ap.ValidationError, match="unused piece"):
        ap.h_value(ap.build_config([1.0, 1.0, 1.0]), 2, 0.5)
    with pytest.raises(ap.ValidationError):
        ap.h_value(example4, 1, -0.5)


# ---------------------------------------------------------------------------
# CDF
# ---------------------------------------------------------------------------


def test_cdf_matches_explicit_formulas(example4):
    """Generic evaluator vs the worked example's four explicitly coded CDFs."""
    oracles = example1_explicit_cdfs()
    xs = np.concatenate(
        [np.linspace(-0.05, 1.0, 801), [0.0, S2, S1, S0, np.nextafter(S1, 0)]]
    )
    for i, oracle in enumerate(oracles, start=1):
        assert_allclose(ap.cdf(example4, i, xs), oracle(xs), rtol=0, atol=1e-12)


def test_cdf_spot_values(example4):
    assert ap.cdf(example4, 4, 0.0) == pytest.approx(0.25, abs=1e-15)
    assert ap.cdf(example4, 1, 0.5) == pytest.approx(3 * (1 / 12 + 0.5) ** (1 / 3) - 2, rel=1e-14)
    for i in range(1, 5):
        assert ap.cdf(example4, i, 0.95) == 1.0
        assert ap.cdf(example4, i, 1.5) == 1.0


def test_cdf_below_support(example4):
    assert ap.cdf(example4, 1, S1 - 1e-9) == 0.0
    assert ap.cdf(example4, 2, S2 - 1e-9) == 0.0
    assert ap.cdf(example4, 3, -1e-9) == 0.0
    assert ap.cdf(example4, 4, -1e-9) == 0.0


def test_atom_examples(example4):
    assert ap.atom_at_zero(example4, 4) == 0.25
    for i in (1, 2, 3):
        assert ap.atom_at_zero(example4, i) == 0.0
    assert ap.atom_at_zero(ap.build_config([0.5, 0.5]), 2) == 0.0


def test_cdf_monotone_and_edges():
    for cfg in random_configs(seed=7, count=25):
        s0 = ap.breakpoints(cfg)[0]
        xs = np.linspace(-0.01, s0 + 0.01, 2000)
        for i in range(1, cfg.n + 1):
            vals = ap.cdf(cfg, i, xs)
            assert np.all(np.diff(vals) >= -1e-15)
            assert ap.cdf(cfg, i, s0) == 1.0
            lo = ap.support(cfg, i)[0]
            if i < cfg.n and lo > 0:
                assert ap.cdf(cfg, i, np.nextafter(lo, -1)) == 0.0


def test_equal_probabilities_share_distribution():
    cfg = ap.build_config([0.4, 0.4, 0.9])
    xs = np.linspace(0, ap.breakpoints(cfg)[0], 500)
    assert_allclose(ap.cdf(cfg, 1, xs), ap.cdf(cfg, 2, xs), rtol=0, atol=1e-15)


def test_no_failure_cdf_identity():
    for n in (2, 3, 4, 6):
        cfg = ap.build_config([1.0] * n)
        xs = np.linspace(0.0, 1.0, 3000)
        assert np.max(np.abs(ap.cdf(cfg, 1, xs) - xs ** (1 / (n - 1)))) <= 1e-12
        assert_allclose(ap.no_failure_cdf(n, xs), xs ** (1 / (n - 1)), rtol=0, atol=0)


def test_common_z_across_supported_bidders():
    """p_i F_i(x) + 1 - p_i agrees across every bidder supported at x."""
    for cfg in random_configs(seed=13, count=25):
        s = ap.breakpoints(cfg)
        xs = np.linspace(1e-9, s[0] - 1e-9, 301)
        z = []
        for i in range(1, cfg.n + 1):
            p_i = cfg.probabilities[i - 1]
            lo = ap.support(cfg, i)[0]
            vals = p_i * ap.cdf(cfg, i, xs) + 1 - p_i
            z.append(np.where(xs >= lo, vals, np.nan))
        z = np.array(z)
        spread = np.nanmax(z, axis=0) - np.nanmin(z, axis=0)
        assert np.nanmax(spread) <= 1e-9


# ---------------------------------------------------------------------------
# PDF
# ---------------------------------------------------------------------------


def test_pdf_spot_value(example4):
    want = (1 / 12 + 0.5) ** (-2 / 3) / ((1 / 3) * 3)
    assert ap.pdf(example4, 1, 0.5) == pytest.approx(want, rel=1e-14)


def test_pdf_outside_support(example4):
    assert ap.pdf(example4, 1, 0.1) == 0.0
    assert ap.pdf(example4, 1, -0.5) == 0.0
    assert ap.pdf(example4, 1, 0.95) == 0.0


def test_pdf_last_bidder_scales_second_last(example4):
    xs = np.linspace(0.01, 0.9, 97)
    assert_allclose(
        ap.pdf(example4, 4, xs), 0.75 * ap.pdf(example4, 3, xs), rtol=1e-13, atol=0
    )


def test_pdf_atom_query_raises(example4):
    with pytest.raises(ap.ValidationError, match="atom has no density"):
        ap.pdf(example4, 4, 0.0)
    # no atom when the two most reliable probabilities coincide
    assert ap.pdf(ap.build_config([0.5, 0.5]), 2, 0.0) > 0.0


def test_pdf_at_zero_when_lam_is_zero():
    """With lam = 0 the density (lam + x)**((1-m)/m) diverges at x = 0 on a
    piece of exponent m > 1: pdf raises there, as at an atom, and warns of
    nothing.  On the piece of exponent m = 1 the density at 0 is finite."""
    cfg = ap.build_config([0.3, 1.0, 1.0, 1.0])  # piece 2 (m = 2) reaches 0
    for i in (2, 3, 4):
        for x in (0.0, np.array([0.5, 0.0])):
            with pytest.raises(ap.ValidationError, match="no finite density"):
                ap.pdf(cfg, i, x)
    assert ap.pdf(cfg, 1, 0.0) == 0.0  # bidder 1 bids on piece 1 alone
    for i in (1, 2, 3):
        with pytest.raises(ap.ValidationError, match="no finite density"):
            ap.pdf(ap.build_config([1.0, 1.0, 1.0]), i, 0.0)
    assert ap.pdf(ap.build_config([0.5, 1.0, 1.0]), 2, 0.0) == 2.0  # m = 1


def test_pdf_matches_cdf_derivative(example4):
    for i in (1, 2, 3, 4):
        lo = ap.support(example4, i)[0]
        xs = np.linspace(lo + 1e-4, S0 - 1e-4, 41)
        h = 1e-7
        numeric = (ap.cdf(example4, i, xs + h) - ap.cdf(example4, i, xs - h)) / (2 * h)
        assert_allclose(ap.pdf(example4, i, xs), numeric, rtol=5e-6, atol=1e-8)


def test_pdf_total_mass(example4):
    for i in range(1, 5):
        assert ap.distribution_mass_quadrature(example4, i) == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# quantile
# ---------------------------------------------------------------------------


def test_quantile_examples(example4):
    assert ap.quantile(example4, 1, 1.0) == pytest.approx(S0, rel=1e-15)
    assert ap.quantile(example4, 4, 0.2) == 0.0
    u = ap.cdf(example4, 1, 0.5)
    assert ap.quantile(example4, 1, u) == pytest.approx(0.5, rel=1e-12)


def test_quantile_validation(example4):
    with pytest.raises(ap.ValidationError):
        ap.quantile(example4, 1, -0.01)
    with pytest.raises(ap.ValidationError):
        ap.quantile(example4, 1, 1.01)
    with pytest.raises(ap.ValidationError):
        ap.quantile(example4, 1, float("nan"))


def test_quantile_roundtrips():
    for cfg in random_configs(seed=29, count=20):
        for i in range(1, cfg.n + 1):
            atom = ap.atom_at_zero(cfg, i)
            us = np.linspace(atom + 1e-6, 1.0, 200)
            xs = ap.quantile(cfg, i, us)
            assert np.max(np.abs(ap.cdf(cfg, i, xs) - us)) <= 1e-9
            lo, hi = ap.support(cfg, i)
            grid = np.linspace(lo + 1e-9, hi - 1e-9, 200)
            back = ap.quantile(cfg, i, ap.cdf(cfg, i, grid))
            assert np.max(np.abs(back - grid)) <= 1e-9


def test_quantile_atom_rule(example4):
    us = np.array([0.0, 0.1, 0.24999, 0.25])
    assert np.all(ap.quantile(example4, 4, us) == 0.0)
    assert ap.quantile(example4, 4, 0.2500001) > 0.0


EDGE_WINDOW = 1e-12  # levels this close to a piece edge may take either piece
EDGE_TOL = 2.3e-16


def piece_formula(cfg, i, us, ks):
    """The closed-form inversion of bidder i on piece k, elementwise, at the
    level h = 1 - v of v = p_i (1 - u), the simulator's p_i - w."""
    prof = ap.equilibrium_profile(cfg)
    p_i = cfg.probabilities[i - 1]
    pref = np.asarray(prof.prefix_products)[ks]
    return np.maximum((1.0 - (1.0 - us) * p_i) ** (cfg.n - ks) * pref - prof.lam, 0.0)


def reference_quantile(cfg, i, us):
    """Slow per-bidder quantile: a table of CDF levels at bidder i's piece
    bottoms, one search per bidder, then the piece's closed form.  Returns the
    bids, the level table (ascending, pieces k_max..1) and k_max."""
    prof = ap.equilibrium_profile(cfg)
    n = cfg.n
    k_max = n - 1 if i == n else i
    levels = np.atleast_1d(ap.cdf(cfg, i, np.asarray(prof.breakpoints[1 : k_max + 1][::-1])))
    if i == n:
        levels[0] = prof.atom_n
    idx = np.searchsorted(levels, us, side="right")
    if i < n:  # no atom: a level below the rounded bottom level is the bottom piece
        idx = np.maximum(idx, 1)
    out = np.zeros_like(us)
    live = idx >= 1
    out[live] = piece_formula(cfg, i, us[live], k_max - idx[live] + 1)
    return out, levels, k_max


@st.composite
def kernel_cases(draw):
    """Configs with n <= 80 drawn from a small pool of values, so ties are
    common and p = 1 (and with it the atom's absence or zero prefixes) occurs."""
    n = draw(st.integers(2, 80))
    pool = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=n)) + [1.0]
    probs = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return ap.build_config(probs), draw(st.integers(0, 2**32 - 1))


@given(kernel_cases())
def test_quantile_kernel_matches_per_bidder_reference(case):
    """The whole-block kernel equals the per-bidder reference bit for bit away
    from piece edges.  At an edge either adjacent piece is right, and the two
    closed forms differ by their rounding, so there the bid must match some
    piece's closed form to EDGE_TOL (only the pieces meeting there come close)."""
    cfg, seed = case
    p = np.asarray(cfg.probabilities)
    rng = np.random.default_rng(seed)
    bidders, levels_all, bids_each = [], [], []
    for i in range(1, cfg.n + 1):
        edges = 1.0 - p / p[i - 1]
        edges = edges[edges >= 0.0]
        near_edges = [edges, np.nextafter(edges, 2.0), np.nextafter(edges, -1.0)]
        us = np.clip(np.concatenate([rng.random(32), *near_edges, [0.0, 1.0]]), 0.0, 1.0)
        got = _quantile_array(ap.equilibrium_profile(cfg), i, us)
        assert np.array_equal(got, ap.quantile(cfg, i, us))
        ref, levels, k_max = reference_quantile(cfg, i, us)
        table = np.concatenate([levels, edges])
        near = np.min(np.abs(us[:, None] - table[None, :]), axis=1) <= EDGE_WINDOW
        assert np.array_equal(got[~near], ref[~near])
        # every piece's formula at each edge level; the atom bids 0
        candidates = piece_formula(cfg, i, us[near, None], np.arange(1, k_max + 1))
        gap = np.min(np.abs(candidates - got[near, None]), axis=1)
        if i == cfg.n:
            gap = np.minimum(gap, got[near])
        assert np.all(gap <= EDGE_TOL)
        bidders.append(np.full(us.size, i))
        levels_all.append(us)
        bids_each.append(got)
    # one call over every bidder at once, as the simulator makes it
    prof = ap.equilibrium_profile(cfg)
    fused = _quantile_array(prof, np.concatenate(bidders), np.concatenate(levels_all))
    assert np.array_equal(fused, np.concatenate(bids_each))


def assert_piece_search_exact(probs, seed):
    """The guide-table search equals np.searchsorted(p, v, "left") at random
    levels, at every cell edge b/G, at every p_j and both of its float
    neighbours, and at 0 and 1; its round count is the bit length of the
    largest cell occupancy, counting no p_j = 1, and at most ceil(log2(n+1))."""
    prof = ap.equilibrium_profile(ap.build_config(probs))
    p = prof.probs
    below_one = p[p < 1.0]
    occupancy = np.bincount((below_one * prof.cells).astype(int), minlength=1)
    assert prof.rounds == int(occupancy.max()).bit_length()
    assert prof.rounds <= math.ceil(math.log2(p.size + 1))
    rng = np.random.default_rng(seed)
    cell_edges = np.arange(prof.cells + 1) / prof.cells
    near = [p, np.nextafter(p, 2.0), np.nextafter(p, -1.0)]
    v = np.clip(np.concatenate([rng.random(256), cell_edges, *near, [0.0, 1.0]]), 0.0, 1.0)
    k = _piece_search(prof, v, np.empty(v.size, np.int64), np.empty(v.size), np.empty(v.size, bool))
    assert np.array_equal(k, np.searchsorted(p, v, side="left"))


@given(edge_prob_lists(max_n=300), st.integers(0, 2**32 - 1))
def test_piece_search_matches_searchsorted_at_edges(probs, seed):
    assert_piece_search_exact(probs, seed)


@given(kernel_cases())
def test_piece_search_matches_searchsorted_on_kernel_cases(case):
    cfg, seed = case
    assert_piece_search_exact(list(cfg.probabilities), seed)


def test_piece_search_clustered_worst_case():
    """64 distinct probabilities within 1e-12 share one cell: the search takes
    its most rounds, ceil(log2(65)) = 7, and stays exact."""
    probs = list(0.5 + np.arange(64) * 1e-14)
    assert len(set(probs)) == 64
    assert ap.equilibrium_profile(ap.build_config(probs)).rounds == 7
    assert_piece_search_exact(probs, 3)


def test_piece_table_is_built_once_and_read_only(example4):
    """The equilibrium table is cached per config and shared between calls, so
    none of its arrays may be written through.  Only lam, the breakpoints, the
    prefix products and the atom take part in == and the repr, so a rebuild
    after cache_clear equals the cached object it replaces."""
    prof = ap.equilibrium_profile(example4)
    assert ap.equilibrium_profile(ap.build_config(list(example4.probabilities))) is prof
    arrays = [field for field in vars(prof).values() if isinstance(field, np.ndarray)]
    assert len(arrays) == 9
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 0.5
    ap.equilibrium_profile.cache_clear()
    rebuilt = ap.equilibrium_profile(example4)
    assert rebuilt is not prof and rebuilt == prof and hash(rebuilt) == hash(prof)
    assert repr(rebuilt) == repr(prof)
    assert repr(prof) == (
        f"EquilibriumProfile(lam={prof.lam!r}, breakpoints={prof.breakpoints!r}, "
        f"prefix_products={prof.prefix_products!r}, atom_n={prof.atom_n!r})"
    )


# ---------------------------------------------------------------------------
# payoff and expected utility
# ---------------------------------------------------------------------------


def test_payoff_constant_on_support(example4):
    lam = 1 / 12
    for i in range(1, 5):
        lo, hi = ap.support(example4, i)
        xs = np.linspace(lo, hi, 750)
        vals = ap.payoff(example4, i, xs)
        assert np.max(np.abs(vals - lam)) <= 1e-12


def test_payoff_below_lambda_off_support(example4):
    lam = 1 / 12
    assert ap.payoff(example4, 1, 0.05) < lam
    assert ap.payoff(example4, 1, 0.05) == pytest.approx(0.03, rel=1e-12)
    xs = np.linspace(1e-6, S1 - 1e-6, 300)
    assert np.all(ap.payoff(example4, 1, xs) < lam)
    assert np.all(ap.payoff(example4, 2, np.linspace(1e-6, S2 - 1e-6, 100)) < lam)


def test_payoff_at_top_of_support(example4):
    assert ap.payoff(example4, 2, S0) == pytest.approx(1 / 12, abs=1e-15)


@given(prob_lists)
def test_payoff_properties_randomized(probs):
    cfg = ap.build_config(probs)
    lam = ap.lambda_value(cfg)
    s0 = ap.breakpoints(cfg)[0]
    for i in range(1, cfg.n + 1):
        lo, hi = ap.support(cfg, i)
        xs = np.linspace(lo, hi, 60)
        vals = ap.payoff(cfg, i, xs)
        assert np.all(np.abs(vals - lam) <= 1e-9 * max(lam, 1e-3))
        off = np.linspace(1e-9, s0, 60)
        assert np.all(ap.payoff(cfg, i, off) <= lam + 1e-9)


def _factor_row(cfg, j, xs, p=None):
    """Bidder j's factor at the 1-d bids ``xs``, in fresh arrays:
    f_j = clip(H_k(x), 1 - p_j, 1) on the piece k of x, the level exactly 1
    from s_0 up and 0 below bid 0, or 1 - (p'_j/p_j)(1 - f_j) where ``p``
    overrides p_j by p'_j."""
    prof = ap.equilibrium_profile(cfg)
    p_j = cfg.probabilities[j - 1]
    q = p_j if p is None else p[j - 1]
    k = _piece_indices(prof, xs)
    on = (k >= 1) & (k < cfg.n)
    h = (k == 0).astype(float)
    h[on] = _level_of_bid(prof, xs[on], cfg.n - k[on])
    f = np.maximum(np.minimum(h, 1.0), 1 - p_j)
    return f if q == p_j else 1 - q / p_j * (1 - f)


def _plain_product(cfg, xs, skip=0, p=None):
    """prod_j f_j(x) over j != skip, one bidder's _factor_row at a time,
    multiplied left to right."""
    out = None
    for j in range(1, cfg.n + 1):
        if j != skip:
            f = _factor_row(cfg, j, xs, p)
            out = f if out is None else out * f
    return out


@given(probs=tied_prob_lists, blocks=st.integers(1, 4), data=st.data())
def test_factor_kernel_is_the_plain_product_bit_for_bit(probs, blocks, data):
    """payoff, sabotaged_payoff and winning_bid_cdf on grids over [0, s_0]
    that span one to four factor blocks equal the plain left-to-right
    product of the per-bidder factors exactly, not to a tolerance."""
    cfg = ap.build_config(probs)
    n, s0 = cfg.n, ap.breakpoints(cfg)[0]
    step = _block_columns(n)
    xs = np.linspace(0.0, s0, data.draw(st.integers((blocks - 1) * step + 1, blocks * step)))
    i = data.draw(st.integers(1, n), label="bidder")
    assert np.array_equal(ap.payoff(cfg, i, xs), _plain_product(cfg, xs, skip=i) - xs)
    top = xs == s0
    assert np.array_equal(ap.winning_bid_cdf(cfg, xs[~top]), _plain_product(cfg, xs[~top]))
    assert np.all(ap.winning_bid_cdf(cfg, xs[top]) == 1.0)
    r = data.draw(st.integers(1, n).filter(lambda r: r != i), label="target")
    p = list(cfg.probabilities)
    p[r - 1] *= data.draw(st.sampled_from([0.0, 0.5, 1 - 2**-52]), label="kept share")
    sabotaged = ap.sabotaged_payoff(ap.SabotageScenario(cfg, i, r, p[r - 1]), xs)
    assert np.array_equal(sabotaged, _plain_product(cfg, xs, skip=i, p=p) - xs)


def _fresh_factors(cfg, xs, p=None):
    """The factor matrix of every bidder at the 1-d bids ``xs``, one
    _factor_row per sorted bidder."""
    return np.array([_factor_row(cfg, j, xs, p) for j in range(1, cfg.n + 1)])


def _kernel_factors(prof, xs, p=None):
    """The blocks of _factor_blocks side by side, each copied before the next
    one overwrites it."""
    return np.concatenate([f.copy() for _, f in _factor_blocks(prof, xs, p)], axis=1)


def _off_grid_bids(prof, rng):
    """Bids off the audit grid, unsorted: every breakpoint, s_0 and the
    float above it, 1, +inf, bids below 0 down to -1e308, and 64 uniform
    draws over [-0.5, 1.5 s_0]."""
    s = np.array(prof.breakpoints)
    off = [s[0], np.nextafter(s[0], 2.0), 1.0, np.inf, -1e-300, -0.25, -1e308]
    return rng.permutation(np.concatenate((s, off, rng.uniform(-0.5, 1.5 * s[0], 64))))


def _override(cfg, override):
    """The probabilities with one target's scaled by a kept share, or None."""
    if override is None:
        return None
    target, kept = override
    q = list(cfg.probabilities)
    q[(target - 1) % cfg.n] *= kept
    return q


overrides = st.none() | st.tuples(st.integers(1, 80), st.sampled_from([0.0, 0.5, 1 - 2**-52]))


@example(probs=[0.3] * 40 + [1.0, 1.0], blocks=3, fill=1.0, seed=0, override=(41, 0.0))
@example(probs=[1.0, 1.0], blocks=1, fill=0.5, seed=1, override=None)
@example(probs=[1 / 3, 1 / 2, 3 / 4, 1.0], blocks=2, fill=0.25, seed=2, override=(2, 0.5))
@given(
    probs=tied_prob_lists,
    blocks=st.integers(1, 3),
    fill=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    override=overrides,
)
def test_factor_blocks_match_the_fresh_array_kernel_bit_for_bit(probs, blocks, fill, seed, override):
    """The blocks of _factor_blocks, built in one reused buffer from the
    level row, hold the same bits as the factors taken one bidder at a time
    in fresh arrays, over grids of one to three blocks and over unsorted
    bids below 0 (down to -1e308), at s_0 and above it (up to +inf), with or
    without a probability override (one target's probability scaled by a
    kept share).  The public CDF is exactly 1.0 from s_0 up and exactly 0.0
    below each bidder's support."""
    cfg = ap.build_config(probs)
    prof = ap.equilibrium_profile(cfg)
    n, s0 = cfg.n, prof.breakpoints[0]
    step = _block_columns(n)
    grid = np.linspace(0.0, s0, (blocks - 1) * step + 1 + int(fill * (step - 1)))
    rng = np.random.default_rng(seed)
    xs = rng.permutation(np.concatenate((grid, _off_grid_bids(prof, rng))))
    q = _override(cfg, override)
    got = _kernel_factors(prof, xs, q)
    assert np.array_equal(got.view(np.int64), _fresh_factors(cfg, xs, q).view(np.int64))
    for i in range(1, n + 1):
        f = ap.cdf(cfg, i, xs)
        assert np.all(f[xs >= s0] == 1.0)
        assert np.all(f[xs < ap.support(cfg, i)[0]] == 0.0)


@example(probs=[1e-12, 1e-12, 0.5], seed=0, override=None)
@example(probs=[1e-12, 1.0], seed=1, override=(2, 0.5))
@example(probs=[1.0, 1.0, 1.0], seed=2, override=None)
@example(probs=[1e-12, 1e-6, 0.3, 0.8, 1.0, 1.0], seed=3, override=(3, 1 - 2**-52))
@given(probs=tied_prob_lists, seed=st.integers(0, 2**32 - 1), override=overrides)
def test_factor_kernel_matches_the_public_cdf(probs, seed, override):
    """Every entry of _factor_blocks lies within 2**-53 of p_j cdf_j + 1 - p_j,
    the factor the public CDF gives, over [0, s_0] and the bids off it (below
    0 down to -1e308, at s_0 and up to +inf).  A row whose probability ``p``
    overrides lies within 3 * 2**-53 of p'_j cdf_j + 1 - p'_j: the largest
    gap over 40,000 overridden rows of up to 40 bidders (p down to 1e-12,
    ties, p = 1, kept shares 0, 0.5, 1 - 2**-52 and random) read exactly
    that."""
    cfg = ap.build_config(probs)
    prof = ap.equilibrium_profile(cfg)
    rng = np.random.default_rng(seed)
    xs = np.concatenate((np.linspace(0.0, prof.breakpoints[0], 257), _off_grid_bids(prof, rng)))
    q = _override(cfg, override) or list(cfg.probabilities)
    got = _kernel_factors(prof, xs, q)
    for j, (p_j, q_j) in enumerate(zip(cfg.probabilities, q), start=1):
        want = q_j * ap.cdf(cfg, j, xs) + 1 - q_j
        bound = 2.0**-53 if q_j == p_j else 3 * 2.0**-53
        assert np.all(np.abs(got[j - 1] - want) <= bound)


@pytest.mark.parametrize(
    "probs",
    [[1 / 3, 1 / 2, 3 / 4, 1.0], list(np.linspace(0.05, 1.0, 64)), [1e-9, 0.5],
     [0.2, 0.4, 0.4, 0.9, 1.0, 1.0]],
    ids=["example", "n64", "tiny_p", "ties_p_one"],
)
def test_factor_kernel_is_accurate_against_mpmath(probs):
    """Against min(max(H_k(x), 1 - p_j), 1) at 50 digits, with the piece k of
    x and H_k from the exact rational probabilities (tests/exact.py), the
    kernel's worst error over [0, s_0] and the breakpoints is at most 2**-53,
    and no larger than that of p_j cdf_j + 1 - p_j, the six-rounding chain
    through the public CDF.  Rows whose probability is overridden, of
    bidders n/2 and n (p = 1 in three of the configs) kept at shares 0, 0.5
    and 1 - 2**-52 of it, are held against 1 - (p'_j/p_j)(1 - f_j) at 50
    digits: their worst error is at most 2 * 2**-53, and no larger than
    that of p'_j cdf_j + 1 - p'_j."""
    cfg = ap.build_config(probs)
    prof = ap.equilibrium_profile(cfg)
    n = cfg.n
    xs = _audit_grid(prof, 101)
    p = prof.probs[:, None]
    cdfs = np.array([ap.cdf(cfg, j, xs) for j in range(1, n + 1)])
    rows = [  # (kind, bidder row, p'_j or None, kernel row, old chain's row)
        ("plain", j, None, new.tolist(), old.tolist())
        for j, (new, old) in enumerate(zip(_kernel_factors(prof, xs), cdfs * p + 1 - p))
    ]
    for r in sorted({n // 2, n}):
        for kept in (0.0, 0.5, 1 - 2**-52):
            q = list(cfg.probabilities)
            q[r - 1] *= kept
            new = _kernel_factors(prof, xs, q)[r - 1]
            old = q[r - 1] * cdfs[r - 1] + 1 - q[r - 1]
            rows.append(("overridden", r - 1, q[r - 1], new.tolist(), old.tolist()))
    q_exact = exact.exact_probabilities(probs)
    c, s = exact.prefix_products(q_exact), exact.breakpoints(q_exact)
    worst = {(kind, name): 0.0 for kind in ("plain", "overridden") for name in ("new", "old")}
    with mpmath.workdps(50):
        floors = [1 - mpmath.mpf(v) for v in cfg.probabilities]
        for col, x in enumerate(xs):
            x = Fraction(x)
            k = next((k for k in range(n) if x >= s[k]), n)  # 0 from s_0 up
            if k == 0:
                h = mpmath.mpf(1)
            else:
                r = (c[n] + x) / c[k]
                h = mpmath.root(mpmath.mpf(r.numerator) / r.denominator, n - k)
            for kind, j, q_j, new, old in rows:
                want = min(max(h, floors[j]), 1)
                if q_j is not None:
                    want = 1 - mpmath.mpf(q_j) / cfg.probabilities[j] * (1 - want)
                for name, f in (("new", new), ("old", old)):
                    worst[kind, name] = max(worst[kind, name], abs(float(f[col] - want)))
    assert worst["plain", "new"] <= 2.0**-53
    assert worst["plain", "new"] <= worst["plain", "old"]
    assert worst["overridden", "new"] <= 2 * 2.0**-53
    assert worst["overridden", "new"] <= worst["overridden", "old"]


@pytest.mark.parametrize("kept", [0.0, 0.5, 1 - 2**-52])
def test_overridden_factor_row_is_exact_at_its_edges(kept):
    """An overridden row, 1 - (p'_j/p_j)(1 - f_j), is exactly 1.0 from s_0 up
    and everywhere when p'_j = 0, and exactly 1 - p'_j below bid 0 for a
    target with p_j = 1, whose f_j is exactly 0 there."""
    cfg = ap.build_config([0.2, 0.4, 0.4, 0.9, 1.0, 1.0])
    prof = ap.equilibrium_profile(cfg)
    s0 = prof.breakpoints[0]
    xs = np.concatenate((np.linspace(0.0, s0, 33), _off_grid_bids(prof, np.random.default_rng(5))))
    for r in (1, 3, 4, 6):
        q = list(cfg.probabilities)
        q[r - 1] *= kept
        row = _kernel_factors(prof, xs, q)[r - 1]
        assert np.all(row[xs >= s0] == 1.0)
        if kept == 0.0:
            assert np.all(row == 1.0)
        if cfg.probabilities[r - 1] == 1.0:
            assert np.all(row[xs < 0.0] == 1 - q[r - 1])


def test_expected_utility_worked_example(example4):
    want = (1 / 36, 1 / 24, 1 / 16, 1 / 12)
    for i, w in enumerate(want, start=1):
        assert ap.expected_utility(example4, i) == pytest.approx(w, rel=1e-14)


# ---------------------------------------------------------------------------
# distribution descriptor
# ---------------------------------------------------------------------------


def test_bid_distribution_pieces(example4):
    d = ap.bid_distribution(example4, 2)
    assert d.bidder == 2 and d.atom_at_zero == 0.0
    assert [(p.k, p.lo, p.hi) for p in d.pieces] == [
        (1, pytest.approx(S1), pytest.approx(S0)),
        (2, pytest.approx(S2), pytest.approx(S1)),
    ]
    assert d.support == (pytest.approx(S2), pytest.approx(S0))
    d4 = ap.bid_distribution(example4, 4)
    assert d4.atom_at_zero == 0.25 and len(d4.pieces) == 3


def test_bid_distribution_marks_empty_pieces():
    cfg = ap.build_config([0.5, 0.5, 0.5])
    d = ap.bid_distribution(cfg, 2)
    assert [p.empty for p in d.pieces] == [False, True]
    # a piece is empty exactly where p_{k-1} == p_k, however long the tie
    # 22 distinct p within 22 ulps of 1: the breakpoints of the low pieces
    # underflow to equal subnormals (or 0.0), but every piece holds mass
    near_one = [1 - k * 2**-53 for k in range(22, 0, -1)] + [1.0]
    for probs, nonempty in (
        ([0.8] * 20, [1]),
        ([0.7, 0.8, 0.9] * 6, [1, 7, 13]),
        (near_one, list(range(1, 23))),
    ):
        cfg = ap.build_config(probs)
        d = ap.bid_distribution(cfg, cfg.n)
        assert [p.k for p in d.pieces if not p.empty] == nonempty


def test_bidder_index_validation(example4):
    for bad in (0, 5, -1):
        with pytest.raises(ap.ValidationError):
            ap.cdf(example4, bad, 0.5)


PER_BIDDER_ROUTES = {
    "cdf": lambda cfg, i: ap.cdf(cfg, i, 0.3),
    "pdf": lambda cfg, i: ap.pdf(cfg, i, 0.3),
    "quantile": lambda cfg, i: ap.quantile(cfg, i, 0.3),
    "payoff": lambda cfg, i: ap.payoff(cfg, i, 0.3),
    "support": ap.support,
    "bid_distribution": ap.bid_distribution,
    "atom_at_zero": ap.atom_at_zero,
    "expected_utility": ap.expected_utility,
    "expected_bid": ap.expected_bid,
    "expected_bid_quadrature": ap.expected_bid_quadrature,
    "distribution_mass_quadrature": ap.distribution_mass_quadrature,
    "best_response_audit": lambda cfg, i: ap.best_response_audit(cfg, i, 101),
    "saboteur": lambda cfg, i: ap.SabotageScenario(cfg, i, 3, 0.1),
    "target": lambda cfg, i: ap.SabotageScenario(cfg, 3, i, 0.1),
}


@pytest.mark.parametrize("route", PER_BIDDER_ROUTES.values(), ids=PER_BIDDER_ROUTES.keys())
@pytest.mark.parametrize("bad", [1.5, "2", True, None], ids=repr)
def test_bidder_index_must_be_an_integer(example4, route, bad):
    with pytest.raises(ap.ValidationError, match=f"index must be an integer, got {bad!r}"):
        route(example4, bad)


@pytest.mark.parametrize("route", PER_BIDDER_ROUTES.values(), ids=PER_BIDDER_ROUTES.keys())
def test_bidder_index_accepts_numpy_integers(example4, route):
    assert route(example4, np.int64(2)) == route(example4, 2)


PIECE_ROUTES = {
    "h_value": lambda cfg, k: ap.h_value(cfg, k, 0.3),
    "joint_support_profit": lambda cfg, k: ap.joint_support_profit(
        ap.SabotageScenario(cfg, 3, 4, 0.5), k, 0.3
    ),
}


@pytest.mark.parametrize("route", PIECE_ROUTES.values(), ids=PIECE_ROUTES.keys())
@pytest.mark.parametrize("bad", [1.5, "2", True, None], ids=repr)
def test_piece_index_must_be_an_integer(example4, route, bad):
    with pytest.raises(ap.ValidationError, match=f"piece index must be an integer, got {bad!r}"):
        route(example4, bad)


@pytest.mark.parametrize("route", PIECE_ROUTES.values(), ids=PIECE_ROUTES.keys())
@pytest.mark.parametrize("bad", [0, -1, 4])
def test_piece_index_outside_range(example4, route, bad):
    """Both routes allow pieces 1..3 here: n - 1 = 3, and min(i, r) = 3."""
    with pytest.raises(ap.ValidationError, match=f"^piece index {bad} outside 1\\.\\.3$"):
        route(example4, bad)


@pytest.mark.parametrize("route", PIECE_ROUTES.values(), ids=PIECE_ROUTES.keys())
def test_piece_index_accepts_numpy_integers(example4, route):
    assert route(example4, np.int64(2)) == route(example4, 2)


def test_sabotage_indices_stored_as_int(example4):
    scenario = ap.SabotageScenario(example4, np.int64(2), np.int64(3), 0.1)
    assert type(scenario.saboteur) is int and type(scenario.target) is int
    json.dumps(ap.optimal_sabotage_bid(scenario).to_dict())


def _piece_interiors(cfg):
    """(k, xs) for every piece k of positive width in x: points strictly
    inside [s_k, s_{k-1})."""
    s = ap.breakpoints(cfg)
    for k in range(1, cfg.n):
        xs = s[k] + np.array([0.01, 0.3, 0.5, 0.7, 0.99]) * (s[k - 1] - s[k])
        xs = xs[(xs > s[k]) & (xs < s[k - 1])]
        if len(xs):
            yield k, xs


@given(st.one_of(prob_lists, edge_prob_lists(max_n=12)))
def test_scaled_densities_agree_on_each_piece(probs):
    """The identities the all-bidder oracle pass rests on, on each piece k:
    every bidder i >= k has p_i f_i(x) = p_k f_k(x), here within a few ulps,
    and the winning-bid CDF, the product over all n bidders, is
    C_k g_k**(m+1) with g_k = p_k F_k(x) + 1 - p_k and m = n - k.  The second
    is held in units of the power's conditioning, (m+1) eps G / g_k, which
    is unbounded where g_k rounds to 0: a plain relative bound fails where
    p_k is within 1e-5 of 1 and F_k's (h + p_k) - 1 loses digits."""
    cfg = ap.build_config(probs)
    p = cfg.probabilities
    c = ap.equilibrium_profile(cfg).prefix_products
    for k, xs in _piece_interiors(cfg):
        want = p[k - 1] * ap.pdf(cfg, k, xs)
        for i in range(k, cfg.n + 1):
            assert_allclose(p[i - 1] * ap.pdf(cfg, i, xs), want, rtol=4 * EPS, atol=0)
        g = p[k - 1] * ap.cdf(cfg, k, xs) + 1.0 - p[k - 1]
        power = cfg.n - k + 1
        product = ap.winning_bid_cdf(cfg, xs)
        assert np.all(np.abs(product - c[k] * g**power) * g <= 4 * power * EPS * product)


def _scenario(cfg):
    return ap.SabotageScenario(cfg, 2, 1, cfg.probabilities[0] / 2)


NAN = float("nan")
NAN_ENTRY_POINTS = {
    "cdf": lambda cfg, x: ap.cdf(cfg, 1, x),
    "pdf": lambda cfg, x: ap.pdf(cfg, 1, x),
    "quantile": lambda cfg, x: ap.quantile(cfg, 1, x),
    "payoff": lambda cfg, x: ap.payoff(cfg, 1, x),
    "winning_bid_cdf": ap.winning_bid_cdf,
    "sabotaged_payoff": lambda cfg, x: ap.sabotaged_payoff(_scenario(cfg), x),
    "joint_support_profit": lambda cfg, x: ap.joint_support_profit(_scenario(cfg), 1, x),
    "no_failure_cdf": lambda cfg, x: ap.no_failure_cdf(cfg.n, x),
    "h_value": lambda cfg, x: ap.h_value(cfg, 1, x),
}
BAD_BIDS = {
    "scalar": NAN,
    "array": [0.1, NAN],
    "text": "0.5",
    "bytes": b"0.5",
    "text_in_array": [0.1, "0.2"],
    "bool": True,
    "complex": 0.5j,
    "object": object(),
}
NAN_CASES = [(name, kind) for kind in BAD_BIDS for name in NAN_ENTRY_POINTS]


@pytest.mark.parametrize("name, kind", NAN_CASES, ids=[f"{n}-{k}" for n, k in NAN_CASES])
def test_nan_bid_raises(example4, name, kind):
    """A bid (or level) that is NaN or not a real number (a bool, a complex
    number, text or bytes, alone or in a list, or an arbitrary object) is
    refused with ValidationError, never answered with a number or a numpy
    TypeError."""
    with pytest.raises(ap.ValidationError):
        NAN_ENTRY_POINTS[name](example4, BAD_BIDS[kind])


@pytest.mark.parametrize("name", NAN_ENTRY_POINTS)
def test_exact_rational_bids_are_accepted(example4, name):
    """Fraction and Decimal bids convert to float as any real number does."""
    route = NAN_ENTRY_POINTS[name]
    want = route(example4, 0.1)
    assert route(example4, Fraction(1, 10)) == route(example4, Decimal("0.1")) == want


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
    "not a collection": lambda cdfs: 5,
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


def test_audit_checks_each_row_before_the_next_callable_runs(example4):
    """Rows are checked as they arrive, bidder i's own included: a bad first
    row raises ValidationError before a later callable can raise its own
    error."""

    def broken(xs):
        raise RuntimeError("never reached")

    cdfs = ap.equilibrium_cdf_callables(example4)
    for i in (1, 2):
        with pytest.raises(ap.ValidationError, match=r"cdfs\[0\]"):
            ap.best_response_audit(example4, i, 101, cdfs=[_constant_cdf(2.0), *cdfs[1:3], broken])


@pytest.mark.parametrize(
    "probs",
    [[0.5, 1.0, 1.0], [0.2, 0.4, 0.4, 0.9, 1.0, 1.0], list(np.linspace(0.05, 0.99, 300))],
    ids=["p_one", "ties", "n300"],
)
def test_profile_fold_matches_the_factor_kernel_bit_for_bit(probs):
    """Folding the equilibrium's own callables one row at a time gives, bit
    for bit, the left-to-right product of p_j cdf_j + 1 - p_j over j != i,
    and bidder i's own row is its cdf.  The blocked kernel's factors differ
    from these by at most 2**-53 each and are multiplied in the same bidder
    order, so its payoffs lie within the audit cross-check's 2 (n - 1)
    rounding units, over one factor block or several (n = 300 takes four at
    this grid)."""
    cfg = ap.build_config(probs)
    prof = ap.equilibrium_profile(cfg)
    grid = _audit_grid(prof, 501)
    cdfs = ap.equilibrium_cdf_callables(cfg)
    for i in sorted({1, cfg.n // 2, cfg.n}):
        payoff, own = _profile_payoff(prof, cdfs, grid, i)
        fold = np.ones(len(grid))
        for j, p in enumerate(prof.probs, start=1):
            if j != i:
                fold *= ap.cdf(cfg, j, grid) * p + 1.0 - p
        assert np.array_equal(payoff, fold - grid)
        assert np.array_equal(own, ap.cdf(cfg, i, grid))
        kernel = _opponent_product(prof, grid, i) - grid
        assert np.all(np.abs(payoff - kernel) <= 2 * (cfg.n - 1) * 2.0**-53)


@pytest.mark.parametrize("n", [16, 300])
def test_profile_audit_memory_does_not_grow_with_n(n):
    """A perturbed profile is folded one bidder row at a time, so a warm
    audit at grid 10,001 holds a few arrays over the grid and never one of
    n x grid entries (at n = 300 that alone is 24 MB)."""
    cfg = ap.build_config(list(np.linspace(0.05, 0.99, n)))
    cdfs = ap.equilibrium_cdf_callables(cfg)
    ap.best_response_audit(cfg, n // 2, 10_001, cdfs)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        ap.best_response_audit(cfg, n // 2, 10_001, cdfs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("bidder", [9, -1, 0, 5])
def test_audit_rejects_bidder_outside_config(example4, bidder):
    with pytest.raises(ap.ValidationError, match="bidder index"):
        ap.best_response_audit(example4, bidder, 101)
    with pytest.raises(ap.ValidationError, match="bidder index"):
        ap.best_response_audit(
            example4, bidder, 101, cdfs=ap.equilibrium_cdf_callables(example4)
        )


@example(probs=[0.3] * 76 + [1.0, 1.0], blocks=2, extra=47, bidder=40)  # 1.1e-15 apart here
@example(probs=[1 / 3, 1 / 2, 3 / 4, 1.0], blocks=2, extra=3, bidder=2)  # three blocks at n = 4
@example(probs=[0.3, 0.9], blocks=1, extra=0, bidder=1)  # 2 (n - 1) units apart here
@example(probs=[0.5, 0.999], blocks=1, extra=0, bidder=1)  # and here
@given(probs=tied_prob_lists, blocks=st.integers(1, 3), extra=st.integers(0, 50),
       bidder=st.integers(1, 80))
def test_all_bidder_audit_matches_per_bidder_product(probs, blocks, extra, bidder):
    """The one-pass audit (prefix and suffix products of the factor blocks)
    against the per-bidder product over the equilibrium CDF callables, on grids
    that span one to four factor blocks.  Both multiply n - 1 factors in
    [0, 1], in different orders, that differ by at most 2**-53 each (the
    blocks' clip(H_k, 1 - p_j, 1) and the callables' p_j F_j + 1 - p_j), and
    subtract the same grid point, so their payoffs differ by at most
    2 (n - 1) rounding units; [0.3, 0.9] and [0.5, 0.999] read exactly that
    at bidder 1."""
    cfg = ap.build_config(probs)
    grid = blocks * _block_columns(cfg.n) + extra
    cdfs = ap.equilibrium_cdf_callables(cfg)
    for i in {1, 1 + (bidder - 1) % cfg.n, cfg.n}:
        # factors are exactly 0 below the support of a bidder with p = 1: the
        # opponent product must never be taken by dividing the full one
        with np.errstate(divide="raise", invalid="raise"):
            fast = ap.best_response_audit(cfg, i, grid)
        slow = ap.best_response_audit(cfg, i, grid, cdfs=cdfs)
        assert abs(fast.max_payoff - slow.max_payoff) <= 2 * (cfg.n - 1) * 2.0**-53
        assert fast.baseline == ap.lambda_value(cfg)


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 300])
def test_all_bidder_audit_memory_is_bounded(n):
    """The audit holds one factor block of at most _BLOCK_ENTRIES entries and
    one payoff block, plus the grid and the kernel's per-column arrays (the
    exponent and the level), never a matrix over the whole grid, so its traced peak at grid
    10,001 stays under two and a half blocks of float64 whatever n is: one
    block at n = 4, two at n = 8 (the widest blocks that are full), three
    at n = 16."""
    cfg = ap.build_config(list(np.linspace(0.05, 0.99, n)))
    # caches outside the trace: the config's cached table
    _equilibrium_audits.__wrapped__(cfg, 101)
    tracemalloc.start()
    try:
        _equilibrium_audits.__wrapped__(cfg, 10_001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * _BLOCK_ENTRIES * 8


AUDIT_FAULTS = """
import resource
import numpy as np
import allpay_eq as ap
from allpay_eq.equilibrium import _equilibrium_audits
for n in (4, 16, 64):
    cfg = ap.build_config(list(np.linspace(0.05, 0.99, n)))
    for _ in range(2):  # the first is mmapped, the second grows the heap
        _equilibrium_audits.__wrapped__(cfg, 10_001)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        _equilibrium_audits.__wrapped__(cfg, 10_001)
    print(n, (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's dynamic mmap threshold")
def test_repeat_audits_do_not_page_fault_their_blocks():
    """The audit's factor and payoff blocks are one allocation.  Freeing an
    mmapped chunk raises glibc's mmap threshold to its size and its trim
    threshold to twice that (mallopt(3)), so one chunk of 2B bytes then stays
    on the heap and a repeat audit reuses its pages; two chunks of B set the
    trim threshold to 2B, which they reach when freed together, and went
    back to the OS: 124 to 263 minor faults per audit at grid 10,001.  In a
    fresh process ten repeat audits at n = 4, 16 and 64 average fewer than
    10."""
    done = run_python("-c", AUDIT_FAULTS)
    assert done.returncode == 0, done.stderr
    faults = dict(line.split() for line in done.stdout.splitlines())
    assert all(float(f) < 10 for f in faults.values()), faults


def test_audit_leaves_numpy_ma_unimported():
    """An audit from the command line builds its grid without np.union1d,
    whose np.unique imports numpy.ma (8-12 ms) on its first call."""
    code = (
        "import io, sys, contextlib\n"
        "from allpay_eq.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['audit', '--probs', '0.3,0.5,0.75,1']) == 0\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr


def test_block_columns_and_row_buffers():
    """A factor block takes _BLOCK_ENTRIES // n columns, at least one, so a
    2,001-point call is one block up to n = 32.  _row_buffers shortens
    numpy's buffers to a row shorter than them and restores them after; a
    row at least a buffer long leaves them as they are."""
    assert [_block_columns(n) for n in (2, 4, 32, 64, 2**17)] == [2**15, 2**14, 2048, 1024, 1]
    size = np.getbufsize()
    with _row_buffers(100):
        assert np.getbufsize() == 96
    assert np.getbufsize() == size
    with _row_buffers(size):
        assert np.getbufsize() == size
    assert np.getbufsize() == size


def test_opponent_product_memory_is_bounded():
    """The opponent product holds one factor block, reused for every block of
    columns, and the kernel's per-column arrays (the exponent and the level): on
    2,001 bids (one block at n = 4 and 16, two at n = 64) its traced peak
    stays under one and a half blocks of float64."""
    for n in (4, 16, 64):
        cfg = ap.build_config(list(np.linspace(0.05, 0.99, n)))
        prof = ap.equilibrium_profile(cfg)
        xs = np.linspace(0.0, prof.breakpoints[0], 2_001)
        _opponent_product(prof, xs, 3)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            _opponent_product(prof, xs, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * _BLOCK_ENTRIES * 8, n


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
