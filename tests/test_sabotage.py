import json
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import allpay_eq as ap
from conftest import random_probs


def scenario(probs, i, r, p_prime):
    return ap.SabotageScenario(
        config=ap.build_config(probs), saboteur=i, target=r, true_target_probability=p_prime
    )


def grid_argmax(sc, points=100_001):
    s0 = ap.breakpoints(sc.config)[0]
    xs = np.union1d(np.linspace(0.0, s0, points), ap.breakpoints(sc.config))
    vals = ap.sabotaged_payoff(sc, xs)
    j = int(np.argmax(vals))
    return xs[j], float(vals[j]), (s0 / (points - 1))


def random_scenario(rng):
    n = int(rng.integers(3, 7))
    probs = sorted(random_probs(rng, n))
    i, r = (int(v) for v in rng.choice(np.arange(1, n + 1), size=2, replace=False))
    p_prime = float(rng.uniform(0.0, probs[r - 1] * 0.95))
    return scenario(probs, i, r, p_prime)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_scenario_validation():
    with pytest.raises(ap.ValidationError, match="must differ"):
        scenario([0.5, 0.5, 0.5], 2, 2, 0.1)
    with pytest.raises(ap.ValidationError):
        scenario([0.5, 0.5, 0.5], 2, 1, 0.5)  # no strict reduction
    with pytest.raises(ap.ValidationError):
        scenario([0.5, 0.5, 0.5], 2, 1, 0.6)
    with pytest.raises(ap.ValidationError):
        scenario([0.5, 0.5, 0.5], 2, 1, -0.1)
    with pytest.raises(ap.ValidationError):
        scenario([0.5, 0.5, 0.5], 4, 1, 0.1)
    with pytest.raises(ap.DegenerateAuctionError):
        scenario([0.5], 1, 1, 0.1)


@pytest.mark.parametrize(
    "i, r, message",
    [
        (0, 1, "saboteur index 0"),
        (4, 1, "saboteur index 4"),
        (2, 0, "target index 0"),
        (2, 4, "target index 4"),
    ],
)
def test_scenario_indices_outside_range(i, r, message):
    with pytest.raises(ap.ValidationError, match=f"^{message} outside 1\\.\\.3$"):
        scenario([0.5, 0.5, 0.5], i, r, 0.1)


@pytest.mark.parametrize(
    "bad",
    ["0.1", None, [0.1], pytest.param(10**400, id="huge_int"), np.complex128(0.1 + 0.5j)],
    ids=repr,
)
def test_true_target_probability_must_be_a_number(bad):
    with pytest.raises(ap.ValidationError, match="true target probability must be a real number"):
        scenario([0.5, 0.5, 0.5], 2, 1, bad)


def test_payoff_range_check():
    sc = scenario([0.5, 0.5, 0.5], 2, 1, 0.25)
    s0 = ap.breakpoints(sc.config)[0]
    with pytest.raises(ap.ValidationError):
        ap.sabotaged_payoff(sc, -0.01)
    with pytest.raises(ap.ValidationError):
        ap.sabotaged_payoff(sc, s0 + 0.01)


# ---------------------------------------------------------------------------
# payoff evaluation
# ---------------------------------------------------------------------------


def test_payoff_three_symmetric_bidders():
    sc = scenario([0.5, 0.5, 0.5], 2, 1, 0.25)
    assert ap.sabotaged_payoff(sc, 0.0) == pytest.approx(3 / 8, rel=1e-14)
    # at the very top of the support the sabotage advantage vanishes
    s0 = ap.breakpoints(sc.config)[0]
    assert ap.sabotaged_payoff(sc, s0) == pytest.approx(0.25, rel=1e-12)


def test_tiny_sabotage_approaches_equilibrium_payoff():
    lam = ap.lambda_value(ap.build_config([0.5, 0.5, 0.5]))
    sc = scenario([0.5, 0.5, 0.5], 2, 1, 0.5 - 1e-12)
    xs = np.linspace(0.0, ap.breakpoints(sc.config)[0], 50)
    assert np.max(np.abs(ap.sabotaged_payoff(sc, xs) - lam)) < 1e-11
    plan = ap.optimal_sabotage_bid(sc)
    assert plan.expected_profit == pytest.approx(lam, abs=1e-11)


def test_joint_support_closed_form_agreement():
    cases = [
        scenario([0.5, 0.5, 0.5], 2, 1, 0.25),
        scenario([1 / 3, 1 / 2, 3 / 4, 1.0], 4, 1, 0.0),
        scenario([1 / 3, 1 / 2, 3 / 4, 1.0], 3, 2, 0.2),
        scenario([0.2, 0.4, 0.6, 0.8, 1.0], 5, 3, 0.1),
    ]
    for sc in cases:
        s = ap.breakpoints(sc.config)
        for k in range(1, min(sc.saboteur, sc.target) + 1):
            if s[k] == s[k - 1]:
                continue
            xs = np.linspace(s[k], s[k - 1] - 1e-12, 120)
            assert_allclose(
                ap.sabotaged_payoff(sc, xs),
                ap.joint_support_profit(sc, k, xs),
                rtol=1e-9,
                atol=1e-12,
            )


def test_joint_support_piece_range_check():
    sc = scenario([1 / 3, 1 / 2, 3 / 4, 1.0], 3, 2, 0.2)
    with pytest.raises(ap.ValidationError):
        ap.joint_support_profit(sc, 3, 0.1)


def test_joint_support_profit_at_the_bottom_of_a_piece_with_lam_zero():
    """With lam = 0, x = 0 is the bottom of piece 2, where the level is 0:
    the profit is its limit theta C_2 = 0.25, without a warning."""
    sc = scenario([0.5, 1.0, 1.0], 3, 2, 0.5)
    with np.errstate(all="raise"):
        assert ap.joint_support_profit(sc, 2, 0.0) == 0.25
        assert_allclose(ap.joint_support_profit(sc, 2, np.array([0.0, 1e-300])), 0.25)
    s = ap.breakpoints(sc.config)
    xs = np.linspace(s[2], s[1], 7)
    assert_allclose(ap.joint_support_profit(sc, 2, xs), ap.sabotaged_payoff(sc, xs), atol=1e-15)


@pytest.mark.parametrize("x", [-1.0, [0.1, -1.0]], ids=["scalar", "array"])
def test_joint_support_profit_below_minus_lam_raises(x):
    sc = scenario([0.5, 1.0, 1.0], 3, 2, 0.5)
    with pytest.raises(ap.ValidationError, match="undefined"):
        ap.joint_support_profit(sc, 2, x)


# ---------------------------------------------------------------------------
# optimal bid search
# ---------------------------------------------------------------------------


def test_plan_three_symmetric_bidders():
    plan = ap.optimal_sabotage_bid(scenario([0.5, 0.5, 0.5], 2, 1, 0.25))
    assert plan.bid == 0.0
    assert plan.expected_profit == pytest.approx(3 / 8, rel=1e-14)
    assert plan.chosen.piece == 1 and plan.chosen.branch == "interior"


def test_plan_worked_example_full_sabotage(example4):
    plan = ap.optimal_sabotage_bid(
        ap.SabotageScenario(config=example4, saboteur=4, target=1, true_target_probability=0.0)
    )
    # 1/(n-1) = 1/3 = p_1: boundary tie lands in the interior branch at s_1
    assert plan.bid == pytest.approx(23 / 108, rel=1e-13)
    assert plan.expected_profit == pytest.approx(25 / 108, rel=1e-13)
    assert len(plan.candidates) == 1
    bid, val, step = grid_argmax(
        ap.SabotageScenario(config=example4, saboteur=4, target=1, true_target_probability=0.0)
    )
    assert abs(plan.bid - bid) <= step + 1e-12
    assert plan.expected_profit >= val - 1e-6


def test_plan_two_bidders_bottom_candidate():
    # n=2: 1/(n-k) = 1 > p_1 unless p_1 = 1, optimum sits at the support bottom
    plan = ap.optimal_sabotage_bid(scenario([0.6, 0.9], 1, 2, 0.3))
    assert plan.bid == 0.0
    assert plan.expected_profit == pytest.approx(0.4 + 0.6 * (0.6 / 0.9), rel=1e-13)
    assert plan.chosen.branch == "lower_endpoint"


def test_plan_skips_empty_pieces():
    plan = ap.optimal_sabotage_bid(scenario([0.5] * 4, 3, 2, 0.1))
    assert [c.piece for c in plan.candidates] == [1]


@pytest.mark.parametrize("probs", [[0.8] * 20, [0.7, 0.8, 0.9] * 6], ids=["x20", "triples"])
def test_plan_skips_tied_pieces_despite_breakpoint_drift(probs):
    """Tied probabilities leave a piece empty even where the breakpoints at its
    two ends differ in their last bits, so no candidate sits on it."""
    p = sorted(probs)
    n = len(p)
    for i, r in [(n - 3, n - 2), (n - 1, n - 2), (n, n - 1)]:
        plan = ap.optimal_sabotage_bid(scenario(probs, i, r, 0.5 * p[r - 1]))
        for cand in plan.candidates:
            assert cand.piece == 1 or p[cand.piece - 2] < p[cand.piece - 1]


def test_candidates_stay_in_joint_support():
    rng = np.random.default_rng(23)
    for _ in range(40):
        sc = random_scenario(rng)
        s = ap.breakpoints(sc.config)
        hi = s[0] + 1e-12
        lo = s[min(sc.saboteur, sc.target)] - 1e-12
        plan = ap.optimal_sabotage_bid(sc)
        for cand in plan.candidates:
            assert lo <= cand.bid <= hi


def test_profit_never_below_lambda():
    rng = np.random.default_rng(31)
    for _ in range(40):
        sc = random_scenario(rng)
        lam = ap.lambda_value(sc.config)
        assert ap.optimal_sabotage_bid(sc).expected_profit >= lam - 1e-12


def test_deeper_sabotage_never_hurts():
    probs = [0.3, 0.5, 0.7, 0.9]
    last = None
    for p_prime in np.linspace(0.45, 0.0, 25):
        plan = ap.optimal_sabotage_bid(scenario(probs, 3, 2, float(p_prime)))
        if last is not None:
            assert plan.expected_profit >= last - 1e-12
        last = plan.expected_profit


def test_plan_matches_grid_brute_force():
    rng = np.random.default_rng(47)
    for _ in range(12):
        sc = random_scenario(rng)
        plan = ap.optimal_sabotage_bid(sc)
        bid, val, step = grid_argmax(sc)
        assert plan.expected_profit >= val - 1e-6
        assert abs(plan.bid - bid) <= step + 1e-12


@pytest.mark.parametrize("p_prime", [Fraction(1, 10), np.float32(0.1)], ids=repr)
def test_true_target_probability_is_kept_as_the_checked_float(p_prime):
    """The scenario keeps the float it checked, so a Fraction or a numpy float
    gives a plan that serializes to JSON, with the profit of float(p')."""
    sc = scenario([0.3, 0.6, 1.0], 1, 2, p_prime)
    assert type(sc.true_target_probability) is float
    plan = ap.optimal_sabotage_bid(sc)
    assert json.loads(json.dumps(plan.to_dict()))["true_target_probability"] == float(p_prime)
    assert plan == ap.optimal_sabotage_bid(scenario([0.3, 0.6, 1.0], 1, 2, float(p_prime)))


def test_plan_profit_tie_takes_the_cheaper_bid():
    """On [0.75, 1, 1] with saboteur 3, target 2 and p' = 0.5, pieces 1 and 2
    both give profit 0.125, at bids 0.25 and 0.0: the later, cheaper piece
    wins the tie."""
    plan = ap.optimal_sabotage_bid(scenario([0.75, 1.0, 1.0], 3, 2, 0.5))
    assert [(c.piece, c.bid) for c in plan.candidates] == [(1, 0.25), (2, 0.0)]
    assert plan.candidates[0].profit == plan.candidates[1].profit == pytest.approx(0.125)
    assert (plan.chosen.piece, plan.bid) == (2, 0.0)


def test_plan_serialization():
    plan = ap.optimal_sabotage_bid(scenario([0.5, 0.5, 0.5], 2, 1, 0.25))
    payload = plan.to_dict()
    assert payload["bid"] == 0.0
    assert payload["expected_profit"] == pytest.approx(0.375)
    assert payload["candidates"][0]["branch"] == "interior"
    assert payload["lambda"] == pytest.approx(0.25)
