#!/usr/bin/env python3
"""One SHA-256 digest per public family of outputs, over a fixed config set.

A refactor that claims bit-identical outputs can be checked by running this
script on two source trees and comparing the lines:

    PYTHONPATH=<tree>/src python scripts/output_digest.py

The config set is fixed and seeded: the worked example, ties, p = 1 below
and at the top, tiny probabilities down to 1e-12, and random configs up to
n = 64.  Every value is hashed from its exact bits (arrays by their bytes,
other floats by their shortest round-trip repr); a call that raises is
hashed as the name of its exception class.  The three quadrature oracle
families and ``audits_cdfs`` also cover one n = 300 config, over which the
oracle pass walks more than one block of pieces.  ``audits`` audits every
bidder against the equilibrium, on every config at grid 501 (one factor
block up to n = 64) and on ``blocked_audit_configs`` at grid 10,001, which
spans one factor block at n = 4, three at n = 16, ten at n = 64 and 48 at
n = 300; ``audits_cdfs`` audits bidders 1, n/2 and n against profiles given
as CDF callables, the equilibrium's and a corrupted one, which never go
through the factor blocks.
``monte_carlo_threads`` runs two threads over twelve 256-trial chunks, so it
covers the threaded fold.  Both Monte Carlo families also run on ``FULL``,
n = 64 bidders who always take part, so every chunk lists all nm entries as
participants.
``cli_equilibrium``, ``cli_simulate`` and ``cli_table`` hash the exit code
and stdout of that command line subcommand in json and csv, over the same
configs plus two with dropped zeros, so a change to one report shows that
the other two stay identical.  ``uniform`` hashes lam, every ``uniform_*``
closed form and ``no_failure_baseline`` over a fixed (n, p) grid, n = 1
included.  ``payoffs`` hashes the two public callers of the factor kernel:
``payoff`` of every bidder on the ``cdf`` points and on a shuffled copy of
them, and ``sabotaged_payoff`` of each ``sabotage_plans`` scenario on the
points in [0, s_0], shuffled; it also covers the n = 300 config, whose
points span two factor blocks.
"""

import contextlib
import hashlib
import io
import json

import numpy as np

import allpay_eq as ap
from allpay_eq.cli import main as cli_main

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
    "audits_cdfs",
    "monte_carlo",
    "monte_carlo_threads",
    "sabotage_plans",
    "h_value",
    "joint_support_profit",
    "cli_equilibrium",
    "cli_simulate",
    "cli_table",
    "uniform",
    "payoffs",
)
DROPPED = [[0.5, 0.0, 1.0], [0.0, 0.3, 0.9, 0.0]]  # zeros only the command line sees
WIDE = [list(np.linspace(0.05, 0.99, 300))]  # the oracles and audits_cdfs: several blocks
BLOCKED_AUDIT_GRID = 10_001
FULL = [[1.0] * 64]  # the Monte Carlo families: every word is a participant
UNIFORM_N = (1, 2, 3, 5, 16, 64, 300)
UNIFORM_P = (1e-12, 1e-6, 0.01, 1 / 3, 0.5, 0.9, 1.0)
CLI_COMMANDS = (
    ["equilibrium"],
    ["simulate", "--trials", "3000", "--seed", str(SEED)],
    ["table", "--grid", "7"],
)


def raw_configs() -> list[list[float]]:
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
    return fixed + drawn + tiny + tied


def blocked_audit_configs(raw: list[list[float]]) -> list[list[float]]:
    """The configs audited at BLOCKED_AUDIT_GRID: the worked example, the
    drawn n = 16 config, the n = 64 linspace config and WIDE."""
    return [raw[0], next(p for p in raw if len(p) == 16), raw[8], *WIDE]


def audit_profiles(s: np.ndarray, cdfs: list) -> list[list]:
    """The equilibrium as CDF callables and, where s_1 < s_0, a corrupted copy
    whose bidder 1 plays the straight line over [s_1, s_0]."""
    if s[1] == s[0]:
        return [cdfs]

    def line(xs):
        return np.clip((np.asarray(xs, dtype=float) - s[1]) / (s[0] - s[1]), 0.0, 1.0)

    return [cdfs, [line, *cdfs[1:]]]


def sabotage_scenarios(cfg) -> list:
    """Saboteur and target among bidders 1, 2, n/2, n-1 and n, the target
    kept at probability 0 or half its own."""
    n = cfg.n
    bidders = sorted({1, 2, n // 2, n - 1, n} - {0})
    return [
        ap.SabotageScenario(cfg, i, r, true_p)
        for i in bidders
        for r in bidders
        if r != i
        for true_p in (0.0, cfg.probabilities[r - 1] / 2)
    ]


def uniform_forms(n: int, p: float) -> list:
    """lam and every uniform closed form of one (n, p)."""
    case = ap.UniformCase(n, p)
    return [
        case.lam,
        ap.uniform_bid_moments(case),
        ap.uniform_bidder_profit(case),
        ap.uniform_sum_profit(case),
        ap.uniform_max_profit(case),
    ]


def cli_stdout(argv: list[str]) -> str:
    """The exit code and stdout of one command line call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    return f"{code}\n{out.getvalue()}"


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

    def record_profile_audits(cfg):
        n = cfg.n
        s = np.array(ap.breakpoints(cfg))
        for cdfs in audit_profiles(s, ap.equilibrium_cdf_callables(cfg)):
            for i in sorted({1, n // 2, n} - {0}):
                record("audits_cdfs", ap.best_response_audit, cfg, i, 501, cdfs)

    def record_oracles(cfg):
        for i in range(1, cfg.n + 1):
            record("expected_bid_quadrature", ap.expected_bid_quadrature, cfg, i)
            record("distribution_mass_quadrature", ap.distribution_mass_quadrature, cfg, i)
        record("max_profit_quadrature", ap.max_profit_quadrature, cfg)

    def record_payoffs(cfg, xs, scenarios):
        n = cfg.n
        s0 = ap.breakpoints(cfg)[0]
        shuffled = rng.permutation(xs)
        for i in range(1, n + 1):
            record("payoffs", ap.payoff, cfg, i, xs)
            record("payoffs", ap.payoff, cfg, i, shuffled)
        on_support = rng.permutation(xs[(xs >= 0.0) & (xs <= s0)])
        for scenario in scenarios:
            record("payoffs", ap.sabotaged_payoff, scenario, on_support)

    def record_monte_carlo(cfg):
        record("monte_carlo", ap.monte_carlo, cfg, 3_000, SEED, 1, 1_000)
        record("monte_carlo_threads", ap.monte_carlo, cfg, 3_000, SEED, 2, 256)  # 12 chunks

    rng = np.random.default_rng(SEED)  # the shuffles of ``payoffs``
    levels = np.linspace(0.0, 1.0, 129)
    raw = raw_configs()
    for probs in raw + DROPPED:
        flag = ["--probs", ",".join(repr(float(p)) for p in probs)]
        for command in CLI_COMMANDS:
            for fmt in ("json", "csv"):
                record(f"cli_{command[0]}", cli_stdout, [*command, *flag, "--format", fmt])
    for cfg in map(ap.build_config, raw):
        n = cfg.n
        s = np.array(ap.breakpoints(cfg))
        xs = np.union1d(np.linspace(-0.1, 1.1 * s[0], 129), s)
        for i in range(1, n + 1):
            record("quantile", ap.quantile, cfg, i, levels)
            record("cdf", ap.cdf, cfg, i, xs)
            record("pdf", ap.pdf, cfg, i, xs[xs != 0.0])
            record("audits", ap.best_response_audit, cfg, i, 501)
        record_profile_audits(cfg)
        record_oracles(cfg)
        record("expected_bids", ap.expected_bids, cfg)
        record("max_profit", ap.max_profit, cfg)
        record("winning_bid_cdf", ap.winning_bid_cdf, cfg, xs)
        record_monte_carlo(cfg)
        scenarios = sabotage_scenarios(cfg)
        for scenario in scenarios:
            record("sabotage_plans", ap.optimal_sabotage_bid, scenario)
        record_payoffs(cfg, xs, scenarios)
        scenario = ap.SabotageScenario(cfg, n, n - 1, cfg.probabilities[n - 2] / 3)
        for k in range(1, n):
            on_piece = s[k] + np.array([0.0, 0.25, 0.5, 0.75, 1.0]) * (s[k - 1] - s[k])
            for x in on_piece.tolist():
                record("h_value", ap.h_value, cfg, k, x)
            record("joint_support_profit", ap.joint_support_profit, scenario, k, on_piece)
    for cfg in map(ap.build_config, WIDE):
        record_oracles(cfg)
        record_profile_audits(cfg)
        s = np.array(ap.breakpoints(cfg))
        xs = np.union1d(np.linspace(-0.1, 1.1 * s[0], 129), s)
        record_payoffs(cfg, xs, sabotage_scenarios(cfg))
    for cfg in map(ap.build_config, blocked_audit_configs(raw)):
        for i in range(1, cfg.n + 1):
            record("audits", ap.best_response_audit, cfg, i, BLOCKED_AUDIT_GRID)
    for cfg in map(ap.build_config, FULL):
        record_monte_carlo(cfg)
    for n in UNIFORM_N:
        for p in UNIFORM_P:
            record("uniform", uniform_forms, n, p)
        record("uniform", ap.no_failure_baseline, n)
    for name in FAMILIES:
        print(f"{name:<30} {hashes[name].hexdigest()}")


if __name__ == "__main__":
    main()
