"""Optimal bidding after secretly lowering a rival's participation probability.

Bidder i sabotages bidder r: everyone else best-responds to the announced
probabilities p_1..p_n, but r's true probability is p'_r < p_r, and only i
knows.  Bidder i's expected profit from bid x against the announced
equilibrium is

    pi(x) = (p'_r F_r(x) + 1 - p'_r) * prod_{j != i, r} (p_j F_j(x) + 1 - p_j) - x.

On pieces shared by both supports (k <= min(i, r)) this reduces to

    pi(x) = theta * (lam + x) * ((C_k / (lam + x))**(1/(n-k)) - 1) + lam,

with theta = (p_r - p'_r)/p_r and C_k = prod_{j<k}(1 - p_j), which is concave
per piece.  The optimum over the whole bid range therefore lives at one of at
most min(i, r) candidates, one per nonempty piece of the equilibrium's table:
in the level q = 1 - H_k(x), which sweeps [p_{k-1}, p_k], it is the
stationary point q = 1/(n-k) clipped to that interval.
Candidate locations do not depend on p'_r (only the profit scale theta does),
and every candidate profit is lam plus a nonnegative term, so sabotage never
hurts the saboteur.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import AuctionConfig, ValidationError
from .equilibrium import _opponent_product, _scalar_or_array, equilibrium_profile

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
        n = self.config.n
        for name, idx in (("saboteur", self.saboteur), ("target", self.target)):
            if not 1 <= idx <= n:
                raise ValidationError(f"{name} index {idx} outside 1..{n}")
        if self.saboteur == self.target:
            raise ValidationError("saboteur and target must differ")
        p_r = self.config.probabilities[self.target - 1]
        if not 0.0 <= self.true_target_probability < p_r:
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
    """Closed form of the sabotaged payoff on a joint-support piece
    k <= min(i, r):  theta (lam+x) ((C_k/(lam+x))**(1/(n-k)) - 1) + lam."""
    cfg = scenario.config
    prof = equilibrium_profile(cfg)
    n = cfg.n
    if not 1 <= k <= min(scenario.saboteur, scenario.target):
        raise ValidationError(f"piece {k} outside the joint support range")
    theta, c_k, lam = scenario.theta, prof.prefix_products[k], prof.lam
    return _scalar_or_array(
        lambda xs: theta * (lam + xs) * ((c_k / (lam + xs)) ** (1.0 / (n - k)) - 1.0) + lam, x
    )


def optimal_sabotage_bid(scenario: SabotageScenario) -> SabotagePlan:
    """Enumerate the per-piece optima of the sabotaged payoff and pick the best.

    On piece k the level h = 1 - q sweeps q over [p_{k-1}, p_k] (dummy
    p_0 = 0), and with m = n - k and C = prod_{j<k}(1-p_j) the bid and the
    payoff there are

        bid    = (1 - q)**m * C - lam
        profit = q (1 - q)**(m-1) * C * theta + lam,

    which rises up to q = 1/m and falls after it.  Each nonempty joint-support
    piece k = 1..min(i, r) therefore offers q = min(max(1/m, p_{k-1}), p_k).

    The branch is "interior" when q == 1/m, so boundary ties of 1/m with
    p_{k-1} or p_k stay interior (the endpoint agrees there algebraically),
    else "upper_endpoint" (q = p_{k-1}, the piece top s_{k-1}) or
    "lower_endpoint" (q = p_k, the piece bottom s_k).  Profit ties within
    1e-12 resolve to the cheaper bid.
    """
    prof = equilibrium_profile(scenario.config)
    top = min(scenario.saboteur, scenario.target)
    candidates: list[SabotageCandidate] = []
    rows = zip(*(a[:top].tolist() for a in (prof.m, prof.c, prof.p_prev, prof.p)))
    for k, (m, c_k, p_lo, p_hi) in enumerate(rows, start=1):
        if p_lo == p_hi:  # empty piece, nothing to bid on
            continue
        q = min(max(1.0 / m, p_lo), p_hi)
        branch = "interior" if q == 1.0 / m else "upper_endpoint" if q == p_lo else "lower_endpoint"
        bid = (1.0 - q) ** m * c_k - prof.lam
        profit = q * (1.0 - q) ** (m - 1) * c_k * scenario.theta + prof.lam
        candidates.append(SabotageCandidate(piece=k, bid=bid, profit=profit, branch=branch))
    best = candidates[0]
    for cand in candidates[1:]:
        if cand.profit > best.profit + _TIE_TOL:
            best = cand
        elif abs(cand.profit - best.profit) <= _TIE_TOL and cand.bid < best.bid:
            best = cand
    return SabotagePlan(scenario=scenario, candidates=tuple(candidates), chosen=best)
