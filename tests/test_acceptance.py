"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.

Criterion 1 pins the worked example p = (1/3, 1/2, 3/4, 1) to its exact values,
derived here in rational arithmetic from the piecewise equilibrium, not taken
from the engine: the first bidder's expected bid is 14/27 = 0.5185185... and the
max-profit revenue is 2406683/4898880 = 0.4912720867...  The figures quoted for
them earlier, 0.518 and 0.490, are not these values: 0.518 truncates 14/27
(which rounds to 0.519), and 0.490 is 1.27e-3 off with no recorded source.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import allpay_eq as ap
from conftest import EXAMPLE_PROBS, random_configs, random_probs


def _line(tag: str, passed: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if passed else 'FAIL'} {detail}".rstrip())


def _close(a, b, rel=1e-9, abs_=1e-12):
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


@pytest.fixture(scope="module")
def example4():
    return ap.build_config(list(EXAMPLE_PROBS))


# ---------------------------------------------------------------------------
# 1. worked-example reproduction
# ---------------------------------------------------------------------------


def test_criterion_1_worked_example(example4):
    start = time.perf_counter()
    prof = ap.equilibrium_profile(example4)
    ok = _close(prof.lam, 1 / 12, rel=1e-12)
    for got, want in zip(prof.breakpoints, (11 / 12, 23 / 108, 1 / 12, 0.0)):
        ok &= abs(got - want) <= 1e-12
    ok &= prof.atom_n == 0.25
    utilities = [ap.expected_utility(example4, i) for i in range(1, 5)]
    for got, want in zip(utilities, (0.0278, 0.0417, 0.0625, 0.0833)):
        ok &= abs(got - want) <= 5e-4
    bids = ap.expected_bids(example4)
    for got, want in zip(bids[1:], (0.394, 0.277, 0.207)):
        ok &= abs(got - want) <= 5e-4
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _line(
        "criterion 1 (worked example: lam, breakpoints, atom, utilities, bids 2-4)",
        ok,
        f"elapsed {elapsed:.3f}s",
    )
    assert ok


# The worked example in exact arithmetic: lam = 1/12 and breakpoints
# s_2 < s_1 < s_0, as pinned in test_criterion_1_worked_example.  On each piece
# every active bidder j has the same G = p_j F_j(x) + 1 - p_j, and the product
# of G over a bidder's opponents equals lam + x.
LAM = Fraction(1, 12)
S0, S1, S2 = Fraction(11, 12), Fraction(23, 108), Fraction(1, 12)


def _exact_first_bid() -> Fraction:
    """E[bid_1] for the worked example, in exact arithmetic.

    Bidder 1 (p = 1/3) bids only on [s_1, s_0], where all four bidders are
    active, so G^3 = 1/12 + x and F_1 = (G - 2/3) / (1/3) = 3G - 2.  With
    x = G^3 - 1/12 and dF_1 = 3 dG for G from 2/3 to 1,
    E[bid_1] = int 3 (G^3 - 1/12) dG = (3/4)(1 - (2/3)^4) - 1/12 = 14/27.
    """
    g_lo, g_hi = Fraction(2, 3), Fraction(1)
    assert g_lo**3 == LAM + S1 and g_hi**3 == LAM + S0
    return 3 * ((g_hi**4 - g_lo**4) / 4 - LAM * (g_hi - g_lo))


def _exact_max_profit() -> Fraction:
    """E[max bid] = int_0^{s_0} (1 - H(x)) dx for the worked example, exactly.

    H(x) = P(max bid <= x) is the product of G over all four bidders; a bidder
    who is not yet active contributes 1 - p.  With t = 1/12 + x:
      [0, s_2]    bidders 1, 2 inactive (2/3 * 1/2), G = 3t:     H = 3 t^2
      [s_2, s_1]  bidder 1 inactive (2/3), G = (3t/2)^(1/2):    H = (2/3)(3t/2)^(3/2)
      [s_1, s_0]  all four active, G = t^(1/3):                 H = t^(4/3)
    Every piece's endpoints make the fractional powers rational.
    """
    t_lo, t_2, t_1, t_0 = LAM, LAM + S2, LAM + S1, LAM + S0
    # int 3 t^2 dt = t^3
    low = S2 - (t_2**3 - t_lo**3)
    # u = 3t/2 runs over [(1/2)^2, (2/3)^2]; int (2/3) u^(3/2) (2/3) du = (4/9)(2/5) u^(5/2)
    assert 3 * t_2 / 2 == Fraction(1, 2) ** 2 and 3 * t_1 / 2 == Fraction(2, 3) ** 2
    mid = (S1 - S2) - Fraction(4, 9) * Fraction(2, 5) * (
        Fraction(2, 3) ** 5 - Fraction(1, 2) ** 5
    )
    # t^(1/3) runs over [2/3, 1]; int t^(4/3) dt = (3/7) t^(7/3)
    assert t_1 == Fraction(2, 3) ** 3 and t_0 == 1
    top = (S0 - S1) - Fraction(3, 7) * (1 - Fraction(2, 3) ** 7)
    return low + mid + top


def test_criterion_1_reference_bid_figure_bidder1(example4):
    """First expected bid equals the exact 14/27 = 0.5185185... to 1e-12.

    The reference is derived in rational arithmetic by `_exact_first_bid`.
    The figure quoted for it earlier, 0.518, truncates 14/27 (which rounds to
    0.519) and sits 5.19e-4 away.  Quadrature of x f_1(x) must agree as well.
    """
    ref = _exact_first_bid()
    assert ref == Fraction(14, 27)
    got = ap.expected_bid(example4, 1)
    quad = ap.expected_bid_quadrature(example4, 1)
    assert abs(got - quad) <= 1e-10
    diff = abs(got - float(ref))
    ok = diff <= 1e-12
    _line(
        "criterion 1 (first expected bid = 14/27 at 1e-12)",
        ok,
        f"engine {got:.16f}, |diff| {diff:.2e}",
    )
    assert ok, f"expected bid of the least reliable bidder is {got!r}, not 14/27"


def test_criterion_1_reference_max_profit_figure(example4):
    """Max-profit revenue equals the exact 2406683/4898880 to 1e-12.

    The reference is derived in rational arithmetic by `_exact_max_profit`,
    = 0.4912720867...  The figure quoted for it earlier, 0.490, is 1.27e-3
    off, more than any three-decimal rounding of the true value, and has no
    recorded source.  Piecewise quadrature of x dH must agree as well.
    """
    ref = _exact_max_profit()
    assert ref == Fraction(2406683, 4898880)
    got = ap.max_profit(example4)
    quad = ap.max_profit_quadrature(example4)
    assert abs(got - quad) <= 1e-9
    diff = abs(got - float(ref))
    ok = diff <= 1e-12
    _line(
        "criterion 1 (max-profit revenue = 2406683/4898880 at 1e-12)",
        ok,
        f"engine {got:.16f}, |diff| {diff:.2e}",
    )
    assert ok, f"max-profit revenue is {got!r}, not 2406683/4898880"


# ---------------------------------------------------------------------------
# 2. sum-profit identity on random configs
# ---------------------------------------------------------------------------


def test_criterion_2_sum_profit_identity():
    start = time.perf_counter()
    ok = True
    for cfg in random_configs(seed=202, count=200, n_lo=2, n_hi=8):
        direct = sum(p * b for p, b in zip(cfg.probabilities, ap.expected_bids(cfg)))
        ok &= _close(direct, ap.sum_profit(cfg))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _line("criterion 2 (sum-profit identity, 200 configs)", ok, f"elapsed {elapsed:.2f}s")
    assert ok


# ---------------------------------------------------------------------------
# 3. best-response audits
# ---------------------------------------------------------------------------


def test_criterion_3_equilibrium_audits(example4):
    start = time.perf_counter()
    worst = 0.0
    configs = [example4, ap.build_config([1.0] * 4)]
    configs += list(random_configs(seed=303, count=50, n_lo=2, n_hi=7))
    for cfg in configs:
        for i in range(1, cfg.n + 1):
            gain = ap.best_response_audit(cfg, i, 10_001).deviation_gain
            worst = max(worst, gain)
    ok = worst <= 1e-9

    s = ap.breakpoints(example4)
    corrupted = ap.equilibrium_cdf_callables(example4)
    corrupted[0] = lambda xs: np.clip(
        (np.asarray(xs, dtype=float) - s[1]) / (s[0] - s[1]), 0.0, 1.0
    )
    control = max(
        ap.best_response_audit(example4, i, 10_001, cdfs=corrupted).deviation_gain
        for i in range(1, 5)
    )
    ok &= control > 0.01
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    _line(
        "criterion 3 (audit gains <= 1e-9; corrupted control > 0.01)",
        ok,
        f"worst gain {worst:.2e}, control {control:.4f}, elapsed {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 4. quadrature cross-checks
# ---------------------------------------------------------------------------


def test_criterion_4_quadrature_cross_checks():
    start = time.perf_counter()
    worst_bid = worst_max = 0.0
    for cfg in random_configs(seed=404, count=50, n_lo=2, n_hi=7):
        for i in range(1, cfg.n + 1):
            worst_bid = max(
                worst_bid, abs(ap.expected_bid(cfg, i) - ap.expected_bid_quadrature(cfg, i))
            )
        worst_max = max(worst_max, abs(ap.max_profit(cfg) - ap.max_profit_quadrature(cfg)))
    ok = worst_bid <= 1e-13 and worst_max <= 1e-13
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    _line(
        "criterion 4 (closed forms vs piecewise quadrature, 50 configs)",
        ok,
        f"worst bid diff {worst_bid:.2e}, worst max-profit diff {worst_max:.2e}, "
        f"elapsed {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. fully-reliable limit
# ---------------------------------------------------------------------------


def test_criterion_5_no_failure_limit():
    xs = np.linspace(0.0, 1.0, 10_000)
    ok = True
    for n in range(2, 11):
        cfg = ap.build_config([1.0] * n)
        target = xs ** (1.0 / (n - 1))
        for i in range(1, n + 1):
            ok &= float(np.max(np.abs(ap.cdf(cfg, i, xs) - target))) <= 1e-12
        base = ap.no_failure_baseline(n)
        refs = {
            "expected_bid": Fraction(1, n),
            "bid_variance": Fraction(1, 2 * n - 1) - Fraction(1, n**2),
            "bidder_utility": Fraction(0),
            "utility_variance": Fraction(n - 1, n * (2 * n - 1)),
            "sum_profit": Fraction(1),
            "sum_profit_variance": Fraction(n, 2 * n - 1) - Fraction(1, n),
            "max_profit": Fraction(n, 2 * n - 1),
            "max_profit_variance": Fraction(n * (n - 1) ** 2, (3 * n - 2) * (2 * n - 1) ** 2),
        }
        for name, ref in refs.items():
            ok &= _close(getattr(base, name), float(ref), rel=1e-14, abs_=1e-15)
    _line("criterion 5 (no-failure CDF limit and benchmark table, n=2..10)", ok)
    assert ok


# ---------------------------------------------------------------------------
# 6. uniform-case consistency
# ---------------------------------------------------------------------------


def test_criterion_6_uniform_consistency():
    ok = True
    for n in range(2, 7):
        for p in [round(0.1 * k, 10) for k in range(1, 11)]:
            cfg = ap.build_config([p] * n)
            case = ap.UniformCase(n=n, p=p)
            ok &= _close(ap.uniform_bid_moments(case)[0], ap.expected_bid(cfg, 1))
            ok &= _close(ap.uniform_bidder_profit(case)[0], ap.expected_utility(cfg, 1))
            ok &= _close(ap.uniform_sum_profit(case)[0], ap.sum_profit(cfg))
            ok &= _close(ap.uniform_max_profit(case)[0], ap.max_profit(cfg))
    for n in range(2, 7):
        grid = np.linspace(1e-3, 1.0, 1000)
        vals = np.array(
            [ap.uniform_bidder_profit(ap.UniformCase(n=n, p=float(p)))[1] for p in grid]
        )
        ok &= bool(np.all(np.diff(vals) >= 0)) and vals[-1] > vals[0]
    _line("criterion 6 (uniform means match general case; profit variance monotone)", ok)
    assert ok


# ---------------------------------------------------------------------------
# 7. Monte Carlo agreement at 1e6 trials
# ---------------------------------------------------------------------------


def test_criterion_7_monte_carlo_agreement(example4):
    start = time.perf_counter()
    trials = 1_000_000
    report = ap.monte_carlo(example4, trials, seed=777)
    lam = ap.lambda_value(example4)
    ok = True
    checks = []
    for i in range(1, 5):
        stats = report.bidders[i - 1]
        checks.append(("utility", stats.utility_mean, stats.utility_mean_se,
                       example4.probabilities[i - 1] * lam))
    checks.append(("sum revenue", report.sum_revenue.mean, report.sum_revenue.mean_se,
                   ap.sum_profit(example4)))
    checks.append(("max revenue", report.max_revenue.mean, report.max_revenue.mean_se,
                   ap.max_profit(example4)))
    atom = report.bidders[3]
    checks.append(("atom rate", atom.zero_bid_rate, atom.zero_bid_rate_se, 0.25))

    case = ap.UniformCase(n=3, p=0.5)
    uni_cfg = ap.build_config([0.5] * 3)
    uni = ap.monte_carlo(uni_cfg, trials, seed=778)
    mean, var = ap.uniform_bid_moments(case)
    stats = uni.bidders[0]
    checks.append(("uniform bid mean", stats.bid_mean, stats.bid_mean_se, mean))
    checks.append(("uniform bid variance", stats.bid_variance, stats.bid_variance_se, var))
    checks.append(("uniform sum revenue", uni.sum_revenue.mean, uni.sum_revenue.mean_se,
                   ap.uniform_sum_profit(case)[0]))
    checks.append(("uniform max revenue", uni.max_revenue.mean, uni.max_revenue.mean_se,
                   ap.uniform_max_profit(case)[0]))

    worst = 0.0
    for _, got, se, target in checks:
        pull = abs(got - target) / se
        worst = max(worst, pull)
        ok &= pull <= 4.0

    same = ap.monte_carlo(example4, 200_000, seed=55, threads=1)
    for threads in (2, 5):
        ok &= ap.monte_carlo(example4, 200_000, seed=55, threads=threads) == same
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    _line(
        "criterion 7 (1e6-trial Monte Carlo within 4 SE; thread-count determinism)",
        ok,
        f"worst pull {worst:.2f} SE, elapsed {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 8. sabotage optimality against grid brute force
# ---------------------------------------------------------------------------


def test_criterion_8_sabotage_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    ok = True
    worst_profit_gap = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        probs = sorted(random_probs(rng, n))
        i, r = (int(v) for v in rng.choice(np.arange(1, n + 1), size=2, replace=False))
        p_prime = float(rng.uniform(0.0, probs[r - 1] * 0.95))
        sc = ap.SabotageScenario(
            config=ap.build_config(probs),
            saboteur=i,
            target=r,
            true_target_probability=p_prime,
        )
        lam = ap.lambda_value(sc.config)
        plan = ap.optimal_sabotage_bid(sc)
        ok &= plan.expected_profit >= lam - 1e-12
        s0 = ap.breakpoints(sc.config)[0]
        xs = np.union1d(np.linspace(0.0, s0, 100_001), ap.breakpoints(sc.config))
        vals = ap.sabotaged_payoff(sc, xs)
        j = int(np.argmax(vals))
        step = s0 / 100_000
        worst_profit_gap = max(worst_profit_gap, float(vals[j]) - plan.expected_profit)
        ok &= plan.expected_profit >= float(vals[j]) - 1e-12
        ok &= abs(plan.bid - float(xs[j])) <= step + 1e-12
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    _line(
        "criterion 8 (optimal sabotage bid vs 1e5-point brute force, 100 scenarios)",
        ok,
        f"worst profit gap {worst_profit_gap:.2e}, elapsed {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 9. quantile round trip
# ---------------------------------------------------------------------------


def test_criterion_9_quantile_roundtrip():
    ok = True
    worst = 0.0
    for cfg in random_configs(seed=909, count=20, n_lo=2, n_hi=7):
        for i in range(1, cfg.n + 1):
            atom = ap.atom_at_zero(cfg, i)
            us = np.linspace(atom + 1e-9, 1.0, 1000)
            err = float(np.max(np.abs(ap.cdf(cfg, i, ap.quantile(cfg, i, us)) - us)))
            worst = max(worst, err)
            ok &= err <= 1e-9
    _line("criterion 9 (cdf(quantile(u)) = u, 20 configs)", ok, f"worst err {worst:.2e}")
    assert ok
