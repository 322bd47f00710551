"""Optimal bidding after secretly lowering a rival's participation probability.

Bidder i sabotages bidder r: everyone else best-responds to the announced
probabilities p_1..p_n, but r's true probability is p'_r < p_r, and only i
knows.  Bidder i's expected profit from bid x against the announced
equilibrium is

    pi(x) = (p'_r F_r(x) + 1 - p'_r) * prod_{j != i, r} (p_j F_j(x) + 1 - p_j) - x.

On pieces shared by both supports (k <= min(i, r)) it is, in the level
q = 1 - H_k(x) of x, which sweeps [p_{k-1}, p_k],

    pi = theta C_k q (1 - q)**(n-k-1) + lam,

with theta = (p_r - p'_r)/p_r and C_k = prod_{j<k}(1 - p_j).  Bids and
levels are converted by equilibrium's one kernel pair, _bid_of_level and
_level_of_bid (through h_value).  pi is concave per piece in the bid, so the
optimum over the whole bid range lives at one of at most min(i, r)
candidates, one per nonempty piece of the equilibrium's table: the
stationary point q = 1/(n-k) clipped to that piece's interval.
Candidate locations do not depend on p'_r (only the profit scale theta does),
and every candidate profit is lam plus a nonnegative term, so sabotage never
hurts the saboteur.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import AuctionConfig, ValidationError, _check_index, _check_real
from .equilibrium import (
    _bid_of_level,
    _opponent_product,
    _scalar_or_array,
    equilibrium_profile,
    h_value,
)

_TIE_TOL = 1e-12


@dataclass(frozen=True)
class SabotageScenario:
    """Saboteur i, target r != i (sorted 1-based indices), announced config,
    and the target's true probability after sabotage."""

    config: AuctionConfig
    saboteur: int
    target: int
    true_target_probability: float

    def __post_init__(self) -> None:
        self.config.require_competition()
        for name in ("saboteur", "target"):
            idx = _check_index(name, getattr(self, name), self.config.n)
            object.__setattr__(self, name, idx)  # a plain int, e.g. for to_dict's JSON
        if self.saboteur == self.target:
            raise ValidationError("saboteur and target must differ")
        p_r = self.config.probabilities[self.target - 1]
        if not 0.0 <= _check_real("true target probability", self.true_target_probability) < p_r:
            raise ValidationError(
                f"true target probability must lie in [0, {p_r}), "
                f"got {self.true_target_probability}"
            )

    @property
    def announced_target_probability(self) -> float:
        return self.config.probabilities[self.target - 1]

    @property
    def theta(self) -> float:
        """Relative sabotage depth (p_r - p'_r)/p_r in (0, 1]."""
        p_r = self.announced_target_probability
        return (p_r - self.true_target_probability) / p_r


@dataclass(frozen=True)
class SabotageCandidate:
    piece: int
    bid: float
    profit: float
    branch: str  # "interior", "upper_endpoint" or "lower_endpoint"


@dataclass(frozen=True)
class SabotagePlan:
    scenario: SabotageScenario
    candidates: tuple[SabotageCandidate, ...]
    chosen: SabotageCandidate

    @property
    def bid(self) -> float:
        return self.chosen.bid

    @property
    def expected_profit(self) -> float:
        return self.chosen.profit

    def to_dict(self) -> dict:
        sc = self.scenario
        return {
            "saboteur": sc.saboteur,
            "target": sc.target,
            "announced_probabilities": list(sc.config.probabilities),
            "true_target_probability": sc.true_target_probability,
            "lambda": equilibrium_profile(sc.config).lam,
            "candidates": [
                {"piece": c.piece, "bid": c.bid, "profit": c.profit, "branch": c.branch}
                for c in self.candidates
            ],
            "chosen_piece": self.chosen.piece,
            "bid": self.chosen.bid,
            "expected_profit": self.chosen.profit,
        }


def sabotaged_payoff(scenario: SabotageScenario, x) -> float | np.ndarray:
    """Saboteur's expected profit from bid x, target's factor taken at the true
    probability while everyone still plays the announced equilibrium.  x must
    lie in [0, s_0]."""
    cfg = scenario.config
    prof = equilibrium_profile(cfg)
    s0 = prof.breakpoints[0]
    x = np.asarray(x, dtype=float)
    if np.any((x < 0.0) | (x > s0)):
        raise ValidationError(f"bid outside [0, {s0}]")
    p = list(cfg.probabilities)
    p[scenario.target - 1] = scenario.true_target_probability
    return _scalar_or_array(lambda xs: _opponent_product(prof, xs, scenario.saboteur, p=p) - xs, x)


def joint_support_profit(scenario: SabotageScenario, k: int, x) -> float | np.ndarray:
    """Closed form of the sabotaged payoff at bid x (scalar or array) on a
    joint-support piece k <= min(i, r): the candidates' profit of
    optimal_sabotage_bid at the level q = 1 - H_k(x) of x, from h_value.
    Raises ValidationError unless k is an integer (not a bool) in
    1..min(i, r), or for x < -lam or NaN."""
    cfg = scenario.config
    k = _check_index("piece", k, min(scenario.saboteur, scenario.target))
    m = cfg.n - k
    return _scalar_or_array(lambda xs: _level_profit(scenario, 1.0 - h_value(cfg, k, xs), m), x)


def _level_profit(scenario: SabotageScenario, q, m):
    """The sabotaged payoff q (1 - q)**(m-1) C theta + lam at the level
    q = 1 - h of the piece of exponent m, C = prefix_rev[m]."""
    prof = equilibrium_profile(scenario.config)
    return q * (1.0 - q) ** (m - 1) * prof.prefix_rev[m] * scenario.theta + prof.lam


def optimal_sabotage_bid(scenario: SabotageScenario) -> SabotagePlan:
    """Enumerate the per-piece optima of the sabotaged payoff and pick the best.

    On piece k the level h = 1 - q sweeps q over [p_{k-1}, p_k] (dummy
    p_0 = 0).  With m = n - k the bid there is equilibrium._bid_of_level at
    h, and the payoff (_level_profit) q (1 - q)**(m-1) C_k theta + lam rises
    up to q = 1/m and falls after it.  Each nonempty joint-support piece
    k = 1..min(i, r) therefore offers q = min(max(1/m, p_{k-1}), p_k), all
    pieces at once.

    The branch is "interior" when q == 1/m, so boundary ties of 1/m with
    p_{k-1} or p_k stay interior (the endpoint agrees there algebraically),
    else "upper_endpoint" (q = p_{k-1}, the piece top s_{k-1}) or
    "lower_endpoint" (q = p_k, the piece bottom s_k).  Profit ties within
    1e-12 resolve to the cheaper bid.
    """
    prof = equilibrium_profile(scenario.config)
    top = min(scenario.saboteur, scenario.target)
    k = np.flatnonzero(prof.width[:top] > 0.0)  # nonempty pieces, 0-based
    m, p_lo, p_hi = prof.m[k], prof.p_prev[k], prof.p[k]
    stationary = 1.0 / m
    q = np.minimum(np.maximum(stationary, p_lo), p_hi)
    bids = _bid_of_level(prof, 1.0 - q, m)
    profits = _level_profit(scenario, q, m)
    endpoint = np.where(q == p_lo, "upper_endpoint", "lower_endpoint")
    branch = np.where(q == stationary, "interior", endpoint)
    candidates = [
        SabotageCandidate(*row)
        for row in zip((k + 1).tolist(), bids.tolist(), profits.tolist(), branch.tolist())
    ]
    best = candidates[0]
    for cand in candidates[1:]:
        if cand.profit > best.profit + _TIE_TOL:
            best = cand
        elif abs(cand.profit - best.profit) <= _TIE_TOL and cand.bid < best.bid:
            best = cand
    return SabotagePlan(scenario=scenario, candidates=tuple(candidates), chosen=best)
