"""Workload jobs and the checks on their outputs.

A job is the unit a workload times: one ``monte_carlo`` call on the ``mc_*``
workloads, one full verification batch on ``verify`` and one fresh CLI process
on ``cli_cold``.  Every call into the package goes through ``Tracer.call``, so
the traced run sees each layer boundary and the untraced run pays nothing.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import allpay_eq as ae
from workloads import KNOWN_DEFECTS

# Stated tolerances of the output checks.
Z_BOUND = 5.5  # |empirical - analytic| / SE; about 1e-6 chance per job over 66 means
QUAD_TOL = 1e-9  # closed form vs quadrature, absolute (quadrature asks for 1e-11)
AUDIT_TOL = 1e-9  # grid best-response gain over lam
SABOTAGE_TOL = 1e-9  # grid maximum of sabotaged_payoff over the plan's profit
UNIFORM_RTOL = 1e-9  # uniform closed forms vs the general case, relative


class Checks:
    """Attempted and failed output checks of one worker."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[dict] = []

    def record(self, check: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append({"check": check, "detail": detail,
                                  "known_defect": check in KNOWN_DEFECTS})


@dataclass
class Job:
    wall: float
    work: int
    rss_mb: float | None = None


@dataclass
class Tallies:
    """Counts and extremes that the traced run reports per layer."""

    trials: int = 0
    max_abs_z: float = 0.0
    determinism_mismatches: int = 0
    exit_code_mismatches: int = 0
    max_abs_residual: float = 0.0
    audit_points: int = 0
    uniform_checks: int = 0


@dataclass
class State:
    """What setup built, plus the running tallies."""

    inputs: dict
    configs: list = field(default_factory=list)
    uniform_configs: list = field(default_factory=list)  # verify: one constant-p config each
    env: dict = field(default_factory=dict)
    mix_lam: float = 0.0
    tally: Tallies = field(default_factory=Tallies)


def setup(inputs: dict, src: str) -> State:
    """Build the workload's configs and equilibrium profiles."""
    st = State(inputs=inputs)
    workload = inputs["workload"]
    if workload.startswith("mc_"):
        st.configs = [ae.build_config(inputs["probs"])]
    elif workload == "verify":
        st.configs = [ae.build_config(c["probs"]) for c in inputs["configs"]]
        st.uniform_configs = [ae.build_config([c["uniform_p"]] * len(c["probs"]))
                              for c in inputs["configs"]]
    else:
        st.configs = [ae.build_config(inputs["probe_probs"])]
    for cfg in st.configs + st.uniform_configs:
        ae.equilibrium_profile(cfg)
    # Every workload carries the CLI mix; its closed-form lambda checks stdout.
    st.mix_lam = ae.revenue_report(ae.build_config(inputs["mix_probs"])).lam
    st.env = {**os.environ, "PYTHONPATH": src}  # for fresh interpreters
    return st


def round_length(inputs: dict) -> int:
    """Jobs per round: one, or on cli_cold one pass over the whole mix, so that
    every round samples each kind of call equally often."""
    return len(inputs["mix"]) if inputs["workload"] == "cli_cold" else 1


def run_job(st: State, k: int, tr, checks: Checks) -> Job:
    workload = st.inputs["workload"]
    if workload.startswith("mc_"):
        return mc_job(st, k, tr, checks)
    if workload == "verify":
        return verify_job(st, tr, checks)
    return cli_job(st, k, tr, checks)


# --- Monte Carlo -------------------------------------------------------------


def monte_carlo(st: State, tr, cfg, trials: int, **kwargs):
    st.tally.trials += trials
    return tr.call("simulate.monte_carlo", ae.monte_carlo, cfg, trials, **kwargs)


def mc_job(st: State, k: int, tr, checks: Checks) -> Job:
    inp = st.inputs
    cfg = st.configs[0]
    t0 = time.perf_counter()
    report = monte_carlo(st, tr, cfg, inp["trials"], seed=inp["mc_seed"] + k,
                         threads=inp["threads"])
    wall = time.perf_counter() - t0
    check_z(st, tr, checks, cfg, report)
    return Job(wall=wall, work=inp["trials"])


def check_z(st: State, tr, checks: Checks, cfg, report) -> None:
    """Largest |empirical - analytic| / SE over the bid means and both revenue
    means must stay below Z_BOUND."""
    rr = tr.call("metrics.revenue_report", ae.revenue_report, cfg)
    pairs = [(b.bid_mean, mean, b.bid_mean_se)
             for b, mean in zip(report.bidders, rr.expected_bids) if b.participations >= 2]
    pairs += [(report.sum_revenue.mean, rr.sum_profit, report.sum_revenue.mean_se),
              (report.max_revenue.mean, rr.max_profit, report.max_revenue.mean_se)]
    z = max(abs(emp - ana) / se for emp, ana, se in pairs)
    st.tally.max_abs_z = max(st.tally.max_abs_z, z)
    checks.record("mc.max_abs_z", z <= Z_BOUND, f"max |z| = {z:.3f}")


def check_determinism(st: State, tr, checks: Checks, k: int) -> None:
    """A short multi-chunk prefix gives the same report, bit for bit, when
    repeated and at threads 1 and 2."""
    inp = st.inputs
    kwargs = dict(seed=inp["mc_seed"] + k, chunk_size=inp["prefix_chunk"])
    cfg, trials = st.configs[0], inp["prefix_trials"]
    first, again, threaded = (
        repr(monte_carlo(st, tr, cfg, trials, threads=t, **kwargs).to_dict()) for t in (1, 1, 2)
    )
    for check, same in (("mc.repeat_identical", first == again),
                        ("mc.threads_identical", first == threaded)):
        st.tally.determinism_mismatches += not same
        checks.record(check, same)


# --- verify ------------------------------------------------------------------


def verify_job(st: State, tr, checks: Checks) -> Job:
    t0 = time.perf_counter()
    for spec, cfg, ucfg in zip(st.inputs["configs"], st.configs, st.uniform_configs):
        verify_config(st, tr, checks, cfg, spec["sabotage"])
        verify_uniform(st, tr, checks, ucfg)
    return Job(wall=time.perf_counter() - t0, work=len(st.inputs["configs"]))


def verify_config(st: State, tr, checks: Checks, cfg, sabotage_cases, bidders=None) -> None:
    """Closed forms against quadrature, the grid best-response audit and the
    sabotage planner against a payoff grid.  ``bidders`` limits the per-bidder
    checks (all bidders by default)."""
    bidders = bidders or range(1, cfg.n + 1)
    rr = tr.call("metrics.revenue_report", ae.revenue_report, cfg)
    for i in bidders:
        quad = tr.call("metrics.expected_bid_quadrature", ae.expected_bid_quadrature, cfg, i)
        residual(st, checks, "verify.expected_bid", quad, rr.expected_bids[i - 1])
        mass = tr.call("metrics.distribution_mass_quadrature",
                       ae.distribution_mass_quadrature, cfg, i)
        residual(st, checks, "verify.mass", mass, 1.0)
    quad = tr.call("metrics.max_profit_quadrature", ae.max_profit_quadrature, cfg)
    residual(st, checks, "verify.max_profit", quad, rr.max_profit)
    grid = st.inputs["audit_grid"]
    breakpoints = ae.breakpoints(cfg)
    s0 = breakpoints[0]
    points = len(np.union1d(np.linspace(0.0, s0, grid), breakpoints))  # as the audit builds it
    for i in bidders:
        audit = tr.call("simulate.audit", ae.best_response_audit, cfg, i, grid)
        st.tally.audit_points += points
        checks.record("verify.audit_gain", audit.deviation_gain <= AUDIT_TOL,
                      f"bidder {i}: gain {audit.deviation_gain:.3g}")
    xs = np.linspace(0.0, s0, st.inputs["sabotage_grid"])
    for i, r, p_true in sabotage_cases:
        scenario = ae.SabotageScenario(config=cfg, saboteur=i, target=r,
                                       true_target_probability=p_true)
        plan = tr.call("sabotage.plan", ae.optimal_sabotage_bid, scenario)
        best = float(np.max(tr.call("sabotage.payoff_grid", ae.sabotaged_payoff, scenario, xs)))
        checks.record("verify.sabotage", plan.expected_profit >= best - SABOTAGE_TOL,
                      f"(i, r) = ({i}, {r}): plan {plan.expected_profit!r} < grid {best!r}")


def residual(st: State, checks: Checks, check: str, got: float, want: float) -> None:
    err = abs(got - want)
    st.tally.max_abs_residual = max(st.tally.max_abs_residual, err)
    checks.record(check, err <= QUAD_TOL, f"|{got!r} - {want!r}| = {err:.3g}")


def uniform_closed_forms(case):
    return (case.lam, ae.uniform_bid_moments(case)[0], ae.uniform_bidder_profit(case)[0],
            ae.uniform_sum_profit(case)[0], ae.uniform_max_profit(case)[0])


def verify_uniform(st: State, tr, checks: Checks, ucfg) -> None:
    """The shared-probability closed forms against the general case."""
    n, p = ucfg.n, ucfg.probabilities[0]
    case = ae.UniformCase(n=n, p=p)
    closed = tr.call("uniform.closed_forms", uniform_closed_forms, case)
    rr = tr.call("metrics.revenue_report", ae.revenue_report, ucfg)
    general = (rr.lam, rr.expected_bids[0], rr.expected_utilities[0], rr.sum_profit, rr.max_profit)
    for name, a, b in zip(("lam", "bid", "profit", "sum_profit", "max_profit"), closed, general):
        st.tally.uniform_checks += 1
        ok = math.isclose(a, b, rel_tol=UNIFORM_RTOL, abs_tol=1e-15)
        checks.record(f"verify.uniform_{name}", ok, f"n={n} p={p!r}: {a!r} vs {b!r}")


# --- CLI ---------------------------------------------------------------------


def run_cli(entry: dict, env: dict) -> tuple[int, str, str, float, float]:
    """One fresh ``python -m allpay_eq.cli`` process: exit code, stdout,
    stderr, wall time and the child's own peak RSS in MB."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "allpay_eq.cli", *entry["argv"]],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**env, **entry["env"]})
    err: list[bytes] = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    drain.start()
    out = proc.stdout.read()
    drain.join()
    # wait4 instead of wait: it also returns the child's own resource usage.
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return proc.returncode, out.decode(), err[0].decode(), wall, usage.ru_maxrss / 1024


def cli_job(st: State, k: int, tr, checks: Checks) -> Job:
    entry = st.inputs["mix"][k % len(st.inputs["mix"])]
    code, out, err, wall, rss = tr.call("cli.invocation", run_cli, entry, st.env)
    check_cli(st, checks, entry, code, out, err)
    return Job(wall=wall, work=1, rss_mb=rss)


def check_cli(st: State, checks: Checks, entry: dict, code: int, out: str, err: str) -> None:
    """Exit code as expected, and stdout parses as the format asked for."""
    if code != entry["code"]:
        st.tally.exit_code_mismatches += 1
        checks.record(entry["check"], False,
                      f"exit {code}, expected {entry['code']}: {err.strip()[-160:]}")
        return
    try:
        if entry["parse"] == "json":
            payload = json.loads(out)
            ok = bool(payload)
            if entry["check"] == "cli.equilibrium_json":
                ok = math.isclose(payload["lambda"], st.mix_lam, rel_tol=1e-11, abs_tol=1e-15)
        elif entry["parse"] == "csv":
            ok = len(list(csv.DictReader(io.StringIO(out)))) > 0
        else:
            ok = out == ""
    except (ValueError, KeyError, TypeError) as exc:
        checks.record(entry["check"], False, f"stdout does not parse: {exc}")
        return
    checks.record(entry["check"], ok, "stdout parsed but is wrong or empty")
