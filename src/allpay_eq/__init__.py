"""Equilibrium analysis of common-value all-pay auctions with unreliable bidders.

Closed-form symmetric equilibrium (piecewise CDFs, expected bids, revenue
under the sum-profit and max-profit models), a shared-probability calculator,
an optimal-bid planner against a sabotaged rival, and a seeded Monte Carlo
engine plus best-response auditor that verify the closed forms independently.

Importing the package loads none of its modules: each public name is imported
from its module on first use (PEP 562), so a caller that never touches the
Monte Carlo engine never loads it, nor numpy's random module.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "AuctionConfig",
            "AuctionError",
            "DegenerateAuctionError",
            "ValidationError",
            "build_config",
            "config_from_json",
        ),
        "config",
    ),
    **dict.fromkeys(
        (
            "AuditResult",
            "BidDistribution",
            "DistributionPiece",
            "EquilibriumProfile",
            "atom_at_zero",
            "best_response_audit",
            "bid_distribution",
            "breakpoints",
            "cdf",
            "equilibrium_cdf_callables",
            "equilibrium_profile",
            "expected_utility",
            "h_value",
            "lambda_value",
            "no_failure_cdf",
            "payoff",
            "pdf",
            "quantile",
            "support",
        ),
        "equilibrium",
    ),
    **dict.fromkeys(
        (
            "RevenueReport",
            "distribution_mass_quadrature",
            "expected_bid",
            "expected_bid_quadrature",
            "expected_bids",
            "max_profit",
            "max_profit_quadrature",
            "revenue_report",
            "sum_profit",
            "winning_bid_cdf",
        ),
        "metrics",
    ),
    **dict.fromkeys(
        (
            "SabotageCandidate",
            "SabotagePlan",
            "SabotageScenario",
            "joint_support_profit",
            "optimal_sabotage_bid",
            "sabotaged_payoff",
        ),
        "sabotage",
    ),
    **dict.fromkeys(
        (
            "AuctionOutcome",
            "BidderStats",
            "RevenueStats",
            "SimulationReport",
            "monte_carlo",
            "run_auction",
        ),
        "simulate",
    ),
    **dict.fromkeys(
        (
            "NoFailureBaseline",
            "UniformCase",
            "no_failure_baseline",
            "uniform_bid_moments",
            "uniform_bidder_profit",
            "uniform_max_profit",
            "uniform_sum_profit",
        ),
        "uniform",
    ),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return __all__
