"""Command line front door.

Subcommands: equilibrium, table, simulate, sabotage, uniform, audit.  Each is
a thin adapter over the library: stdout carries only the serialized module
result (strict JSON, with null for a NaN or infinite value, or CSV with 12
significant digits), stderr carries diagnostics.
Exit codes: 0 success, 2 invalid input, 1 internal error.

Each handler parses its input first and then imports the library code it
calls, so a call loads only what it runs: ``uniform`` and input that fails to
parse or to validate as a seed, a trial count or ALLPAY_EQ_THREADS never load
numpy, and only ``simulate`` loads the Monte Carlo engine.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Sequence

from .config import (
    AuctionConfig,
    ValidationError,
    _check_positive,
    _check_seed,
    _threads_cap,
    build_config,
    config_from_json,
)

_SIG_DIGITS = 12


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        raise
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    _emit(payload, args.format)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="allpay-eq",
        description="Equilibrium calculator and verifier for all-pay auctions "
        "with unreliable bidders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, probs: bool = True) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_)
        if probs:
            cmd.add_argument("--probs", help="comma-separated participation probabilities")
            cmd.add_argument("--config", help="path to JSON file {\"probabilities\": [...]}")
        cmd.add_argument("--format", choices=("json", "csv"), default="json")
        return cmd

    cmd = add("equilibrium", "closed-form equilibrium and revenue report")
    cmd.set_defaults(handler=_cmd_equilibrium)

    cmd = add("table", "CDF/PDF table over a bid grid")
    cmd.add_argument("--grid", type=int, default=201, help="grid points over [0, s_0]")
    cmd.set_defaults(handler=_cmd_table, format="csv")

    cmd = add("simulate", "seeded Monte Carlo run with analytic columns")
    cmd.add_argument("--trials", type=int, required=True)
    cmd.add_argument("--seed", type=int, default=0)
    cmd.set_defaults(handler=_cmd_simulate)

    cmd = add("sabotage", "optimal bid after lowering a rival's probability")
    cmd.add_argument("--i", type=int, required=True, help="saboteur (sorted 1-based index)")
    cmd.add_argument("--r", type=int, required=True, help="target (sorted 1-based index)")
    cmd.add_argument("--p-prime", type=float, required=True, dest="p_prime",
                     help="target's true probability after sabotage")
    cmd.set_defaults(handler=_cmd_sabotage)

    cmd = add("uniform", "shared-probability calculator", probs=False)
    cmd.add_argument("--n", type=int, required=True)
    cmd.add_argument("--p", type=float, required=True)
    cmd.set_defaults(handler=_cmd_uniform)

    cmd = add("audit", "grid best-response audit of the equilibrium")
    cmd.add_argument("--i", type=int, default=None, help="bidder to audit (default: all)")
    cmd.add_argument("--grid", type=int, default=10001)
    cmd.set_defaults(handler=_cmd_audit)
    return parser


def _load_config(args: argparse.Namespace) -> AuctionConfig:
    if args.probs and args.config:
        raise ValidationError("give probabilities inline (--probs) or as a file (--config), not both")
    if args.probs:
        try:
            values = [float(tok) for tok in args.probs.split(",") if tok.strip()]
        except ValueError as exc:
            raise ValidationError(f"cannot parse --probs {args.probs!r}: {exc}") from exc
        return build_config(values)
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                return config_from_json(fh.read())
        except OSError as exc:
            raise ValidationError(f"cannot read config file: {exc}") from exc
    raise ValidationError("probabilities required: use --probs or --config")


# --- subcommand handlers: each returns (json_payload, csv_rows) -------------


def _cmd_equilibrium(args: argparse.Namespace):
    config = _load_config(args)
    from .metrics import revenue_report

    report = revenue_report(config)
    payload = report.to_dict()
    rows = [
        {
            **row,
            "lambda": payload["lambda"],
            "sum_profit": payload["sum_profit"],
            "max_profit": payload["max_profit"],
        }
        for row in payload["bidders_caller_order"]
    ]
    return payload, rows


def _cmd_table(args: argparse.Namespace):
    config = _load_config(args)
    config.require_competition()
    if args.grid < 2:
        raise ValidationError("--grid must be >= 2")
    import numpy as np

    from .equilibrium import cdf, equilibrium_profile, pdf

    prof = equilibrium_profile(config)
    xs = np.linspace(0.0, prof.breakpoints[0], args.grid)
    rows = []
    for i in sorted(range(1, config.n + 1), key=config.caller_position):
        try:
            at_zero = pdf(config, i, 0.0)  # xs[0]
        except ValidationError:  # an atom, or a density diverging at 0 when lam = 0
            at_zero = None
        densities = [at_zero, *pdf(config, i, xs[1:]).tolist()]
        bidder = config.caller_position(i)
        rows += (
            {"bidder": bidder, "x": x, "cdf": c, "pdf": d}
            for x, c, d in zip(xs.tolist(), cdf(config, i, xs).tolist(), densities)
        )
    return rows, rows


def _cmd_simulate(args: argparse.Namespace):
    config = _load_config(args)
    trials, seed = _check_positive("trials", args.trials), _check_seed(args.seed)
    _threads_cap()  # a bad ALLPAY_EQ_THREADS exits 2 before numpy loads
    from .metrics import revenue_report
    from .simulate import monte_carlo

    payload = monte_carlo(config, trials, seed=seed).to_dict()
    simulated = payload["bidders_caller_order"]
    if config.n >= 2:  # both caller-order lists hold the same positions
        payload["analytic"] = revenue_report(config).to_dict()
        analytic = payload["analytic"]["bidders_caller_order"]
    else:
        payload["analytic"] = None
        analytic = [{"expected_bid": None, "expected_utility": None}] * len(simulated)
    rows = [
        {
            **row,
            "analytic_expected_bid": ana["expected_bid"],
            "analytic_expected_utility": ana["expected_utility"],
        }
        for row, ana in zip(simulated, analytic)
    ]
    for model in ("sum_revenue", "max_revenue"):
        rows.append({"bidder": model, **payload[model]})
    return payload, rows


def _cmd_sabotage(args: argparse.Namespace):
    config = _load_config(args)
    from .sabotage import SabotageScenario, optimal_sabotage_bid

    scenario = SabotageScenario(
        config=config,
        saboteur=args.i,
        target=args.r,
        true_target_probability=args.p_prime,
    )
    plan = optimal_sabotage_bid(scenario)
    payload = plan.to_dict()
    return payload, payload["candidates"]


def _cmd_uniform(args: argparse.Namespace):
    from .uniform import (
        UniformCase,
        uniform_bid_moments,
        uniform_bidder_profit,
        uniform_max_profit,
        uniform_sum_profit,
    )

    case = UniformCase(n=args.n, p=args.p)
    bid = uniform_bid_moments(case)
    profit = uniform_bidder_profit(case)
    sum_p = uniform_sum_profit(case)
    max_p = uniform_max_profit(case)
    payload = {
        "n": case.n,
        "p": case.p,
        "lambda": case.lam,
        "bid": {"mean": bid[0], "variance": bid[1]},
        "bidder_profit": {"mean": profit[0], "variance": profit[1]},
        "sum_profit": {"mean": sum_p[0], "variance": sum_p[1]},
        "max_profit": {"mean": max_p[0], "variance": max_p[1]},
    }
    rows = [
        {"quantity": name, **values}
        for name, values in payload.items()
        if isinstance(values, dict)
    ]
    return payload, rows


def _cmd_audit(args: argparse.Namespace):
    config = _load_config(args)
    from .equilibrium import best_response_audit, equilibrium_profile

    bidders = range(1, config.n + 1) if args.i is None else [args.i]
    results = [best_response_audit(config, i, args.grid) for i in bidders]
    payload = {
        "lambda": equilibrium_profile(config).lam,
        "grid": args.grid,
        "audits": [vars(r) for r in results],
    }
    return payload, payload["audits"]


# --- output ------------------------------------------------------------------


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.{_SIG_DIGITS}g}"
    if value is None:
        return ""
    return value


def render_csv(rows: list[dict]) -> str:
    """CSV text for a list of homogeneous-ish dict rows (union of keys)."""
    if not rows:
        return ""
    fields: list[str] = []
    for row in rows:
        for key in row:
            if key not in fields:
                fields.append(key)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({key: _fmt(value) for key, value in row.items()})
    return buffer.getvalue()


def render_json(payload) -> str:
    """Strict JSON (RFC 8259) text: a NaN or infinite float is written null."""
    return json.dumps(_finite(payload), indent=2, allow_nan=False) + "\n"


def _finite(value):
    """``value`` with every NaN or infinite float, at any depth, made None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def _emit(result, fmt: str) -> None:
    payload, rows = result
    if fmt == "csv":
        sys.stdout.write(render_csv(rows))
    else:
        sys.stdout.write(render_json(payload))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
