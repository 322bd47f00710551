"""Command line front door.

Subcommands: equilibrium, table, simulate, sabotage, uniform, audit.  Each is
a thin adapter over the library: stdout carries only the serialized module
result (JSON or CSV with 12 significant digits), stderr carries diagnostics.
Exit codes: 0 success, 2 invalid input, 1 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Sequence

import numpy as np

from .config import AuctionConfig, ValidationError, build_config, config_from_json
from .equilibrium import cdf, equilibrium_profile, pdf
from .metrics import revenue_report
from .sabotage import SabotageScenario, optimal_sabotage_bid
from .simulate import best_response_audit, monte_carlo
from .uniform import (
    UniformCase,
    uniform_bid_moments,
    uniform_bidder_profit,
    uniform_max_profit,
    uniform_sum_profit,
    uniform_sum_revenue_variance,
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
    report = revenue_report(config)
    payload = report.to_dict()
    rows = [
        {
            "bidder": row["bidder"],
            "caller_position": row["caller_position"],
            "probability": row["probability"],
            "expected_bid": row["expected_bid"],
            "expected_utility": row["expected_utility"],
            "atom_at_zero": row["atom_at_zero"],
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
    prof = equilibrium_profile(config)
    xs = np.linspace(0.0, prof.breakpoints[0], args.grid)
    rows = []
    for i in range(1, config.n + 1):
        c = cdf(config, i, xs)
        atom_here = i == config.n and prof.atom_n > 0.0
        d = pdf(config, i, xs[1:] if atom_here else xs)
        for j, x in enumerate(xs):
            if atom_here and j == 0:
                density = None  # atom at 0: no density exists there
            else:
                density = float(d[j - 1 if atom_here else j])
            rows.append(
                {
                    "bidder": config.caller_position(i),
                    "x": float(x),
                    "cdf": float(c[j]),
                    "pdf": density,
                }
            )
    rows.sort(key=lambda r: (r["bidder"], r["x"]))
    return rows, rows


def _cmd_simulate(args: argparse.Namespace):
    config = _load_config(args)
    report = monte_carlo(config, args.trials, seed=args.seed)
    payload = report.to_dict()
    if config.n >= 2:
        analytic = revenue_report(config).to_dict()
        payload["analytic"] = analytic
        by_pos = {row["caller_position"]: row for row in analytic["bidders_caller_order"]}
    else:
        payload["analytic"] = None
        by_pos = {}
    rows = []
    for row in payload["bidders_caller_order"]:
        ana = by_pos.get(row["caller_position"], {})
        rows.append(
            {
                **row,
                "analytic_expected_bid": ana.get("expected_bid"),
                "analytic_expected_utility": ana.get("expected_utility"),
            }
        )
    for model in ("sum_revenue", "max_revenue"):
        rows.append({"bidder": model, **payload[model]})
    return payload, rows


def _cmd_sabotage(args: argparse.Namespace):
    config = _load_config(args)
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
        "sum_profit": {
            "mean": sum_p[0],
            "variance": sum_p[1],
            "realized_revenue_variance": uniform_sum_revenue_variance(case),
        },
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
    return json.dumps(payload, indent=2) + "\n"


def _emit(result, fmt: str) -> None:
    payload, rows = result
    if fmt == "csv":
        sys.stdout.write(render_csv(rows))
    else:
        sys.stdout.write(render_json(payload))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
