#!/usr/bin/env python3
"""One SHA-256 digest per public family of outputs, over a fixed config set.

A refactor that claims bit-identical outputs can be checked by running this
script on two source trees and comparing the lines:

    PYTHONPATH=<tree>/src python scripts/output_digest.py

The config set is fixed and seeded: the worked example, ties, p = 1 below
and at the top, tiny probabilities down to 1e-12, and random configs up to
n = 64.  Every value is hashed from its exact bits (arrays by their bytes,
other floats by their shortest round-trip repr); a call that raises is
hashed as the name of its exception class.
"""

import hashlib
import json

import numpy as np

import allpay_eq as ap

SEED = 2110
FAMILIES = (
    "quantile",
    "cdf",
    "pdf",
    "expected_bid_quadrature",
    "distribution_mass_quadrature",
    "max_profit_quadrature",
    "expected_bids",
    "max_profit",
    "winning_bid_cdf",
    "audits",
    "monte_carlo",
    "sabotage_plans",
    "h_value",
    "joint_support_profit",
)


def configs() -> list[ap.AuctionConfig]:
    rng = np.random.default_rng(SEED)
    fixed = [
        [1 / 3, 1 / 2, 3 / 4, 1.0],
        [0.5, 1.0, 1.0],
        [1.0, 1.0, 1.0],
        [0.2, 0.4, 0.4, 0.9, 1.0, 1.0],
        [0.8] * 20,
        [0.7, 0.8, 0.9] * 6,
        [1e-9, 0.5],
        [1e-10, 1e-8, 1.0],
        list(np.linspace(0.05, 1.0, 64)),
    ]
    drawn = [list(1.0 - rng.random(n)) for n in (2, 5, 16, 40, 64)]
    tiny = [list(10.0 ** rng.uniform(-12.0, 0.0, n)) for n in (6, 12)]
    tied = [list(rng.choice([0.1, 0.35, 0.6, 1.0], n)) for n in (9, 33)]
    return [ap.build_config(p) for p in fixed + drawn + tiny + tied]


def exact(value) -> bytes:
    """The bits of a result: array bytes, or JSON with exact float reprs."""
    if isinstance(value, np.ndarray):
        return value.dtype.str.encode() + value.tobytes()
    if hasattr(value, "to_dict"):
        value = value.to_dict()
    elif hasattr(value, "__dataclass_fields__"):
        value = vars(value)
    return json.dumps(value, sort_keys=True, default=repr).encode()


def main() -> None:
    hashes = {name: hashlib.sha256() for name in FAMILIES}

    def record(name, call, *args):
        try:
            data = exact(call(*args))
        except Exception as exc:  # the error is an output too
            data = type(exc).__name__.encode()
        hashes[name].update(data + b"\n")

    levels = np.linspace(0.0, 1.0, 129)
    for cfg in configs():
        n = cfg.n
        s = np.array(ap.breakpoints(cfg))
        xs = np.union1d(np.linspace(-0.1, 1.1 * s[0], 129), s)
        for i in range(1, n + 1):
            record("quantile", ap.quantile, cfg, i, levels)
            record("cdf", ap.cdf, cfg, i, xs)
            record("pdf", ap.pdf, cfg, i, xs[xs != 0.0])
            record("expected_bid_quadrature", ap.expected_bid_quadrature, cfg, i)
            record("distribution_mass_quadrature", ap.distribution_mass_quadrature, cfg, i)
            record("audits", ap.best_response_audit, cfg, i, 501)
        record("max_profit_quadrature", ap.max_profit_quadrature, cfg)
        record("expected_bids", ap.expected_bids, cfg)
        record("max_profit", ap.max_profit, cfg)
        record("winning_bid_cdf", ap.winning_bid_cdf, cfg, xs)
        record("monte_carlo", ap.monte_carlo, cfg, 3_000, SEED, 1, 1_000)
        bidders = sorted({1, 2, n // 2, n - 1, n} - {0})
        for i in bidders:
            for r in bidders:
                if r != i:
                    p_r = cfg.probabilities[r - 1]
                    for true_p in (0.0, p_r / 2):
                        scenario = ap.SabotageScenario(cfg, i, r, true_p)
                        record("sabotage_plans", ap.optimal_sabotage_bid, scenario)
        scenario = ap.SabotageScenario(cfg, n, n - 1, cfg.probabilities[n - 2] / 3)
        for k in range(1, n):
            on_piece = s[k] + np.array([0.0, 0.25, 0.5, 0.75, 1.0]) * (s[k - 1] - s[k])
            for x in on_piece.tolist():
                record("h_value", ap.h_value, cfg, k, x)
            record("joint_support_profit", ap.joint_support_profit, scenario, k, on_piece)
    for name in FAMILIES:
        print(f"{name:<30} {hashes[name].hexdigest()}")


if __name__ == "__main__":
    main()
