"""The closed forms against the exact rational oracle of tests/exact.py."""

import sys
from fractions import Fraction

import numpy as np
from hypothesis import given

import allpay_eq as ap
import exact
from conftest import edge_prob_lists

BREAKPOINT_REL = 1e-14
# The worst relative errors of expected_bids and max_profit against the oracle
# over 1,200 configs of interior_configs (seeds 1, 2 and 3, 400 each),
# measured on the code before the breakpoints became cancellation-free (the
# bids and max profit do not read the breakpoints and are bit-identical
# since), rounded up in the second digit.  They are the accuracy of today's
# forms, whose cancellation grows like eps/p_i; they are not a target.
BIDS_REL = 1.6e-13
MAX_PROFIT_REL = 2.7e-15


def rel_error(got: float, want: Fraction) -> float:
    return float(abs(Fraction(got) - want) / abs(want))


def interior_configs(seed: int, count: int):
    """Configs with n <= 64 and p uniform in [0.01, 1]: in turn plain, with
    ties, with some p = 1, and with both."""
    rng = np.random.default_rng(seed)
    for c in range(count):
        n = int(rng.integers(2, 65))
        probs = list(rng.uniform(0.01, 1.0, n))
        if c % 4 in (1, 3):
            pool = probs[: max(1, n // 3)]
            probs = [pool[int(rng.integers(len(pool)))] for _ in range(n)]
        if c % 4 in (2, 3):
            for j in rng.integers(0, n, size=max(1, n // 8)):
                probs[j] = 1.0
        yield ap.build_config(probs)


def test_oracle_reproduces_worked_example_hand_derivations():
    """With the worked example's probabilities as exact rationals, the oracle
    gives the values derived by hand in test_acceptance: lam = 1/12, the
    breakpoints 11/12, 23/108, 1/12 and 0, E[bid_1] = 14/27 and the max
    profit 2406683/4898880."""
    p = exact.exact_probabilities([Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(1)])
    assert exact.lam(p) == Fraction(1, 12)
    assert exact.breakpoints(p) == [Fraction(11, 12), Fraction(23, 108), Fraction(1, 12), 0]
    assert exact.expected_bids(p) == [
        Fraction(14, 27), Fraction(383, 972), Fraction(1613, 5832), Fraction(1613, 7776)
    ]
    assert exact.max_profit(p) == Fraction(2406683, 4898880)


@given(edge_prob_lists(max_n=64))
def test_breakpoints_match_exact_values(probs):
    """lam and every breakpoint lie within 1e-14 relative of the exact value,
    and the exact zeros (s_{n-1}, and s_k wherever p_k = 1) come out as 0.0.
    An exact value below the normal range, which takes p within about 1e-16
    of 1 many times over, may underflow; it is held to the smallest normal
    double in absolute terms instead."""
    cfg = ap.build_config(probs)
    p = exact.exact_probabilities(cfg.probabilities)
    got = [ap.lambda_value(cfg), *ap.breakpoints(cfg)]
    want = [exact.lam(p), *exact.breakpoints(p)]
    for g, w in zip(got, want):
        if w == 0:
            assert g == 0.0
        else:
            assert abs(Fraction(g) - w) <= BREAKPOINT_REL * w + Fraction(sys.float_info.min)


def test_bids_and_max_profit_match_exact_values_on_interior_configs():
    """Expected bids and max profit on interior configs (p >= 0.01, n <= 64,
    ties and p = 1), within the relative error measured on the parent code
    (see BIDS_REL)."""
    for cfg in interior_configs(seed=1, count=24):
        p = exact.exact_probabilities(cfg.probabilities)
        bids = ap.expected_bids(cfg)
        assert max(map(rel_error, bids, exact.expected_bids(p))) <= BIDS_REL
        assert rel_error(ap.max_profit(cfg), exact.max_profit(p)) <= MAX_PROFIT_REL
