"""One worker process of a benchmark run.

Usage (from run.py): ``python3 perfbench/worker.py SPAWN_TIME SPEC_JSON``.
SPAWN_TIME is the parent's CLOCK_MONOTONIC reading just before it started
this interpreter; set-up time runs from there until ``allpay_eq`` is imported
and the workload's configs and profiles are built.  The worker then times jobs
until its budget is spent and prints one JSON object on stdout.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from spans import Tracer


def main() -> int:
    spawned = float(sys.argv[1])
    spec = json.loads(sys.argv[2])
    sys.path.insert(0, spec["src"])
    import allpay_eq

    if not os.path.realpath(allpay_eq.__file__).startswith(os.path.realpath(spec["src"]) + os.sep):
        print(f"allpay_eq imported from {allpay_eq.__file__}, not from {spec['src']}",
              file=sys.stderr)
        return 1
    import jobs

    state = jobs.setup(spec["inputs"], spec["src"])
    setup_s = time.monotonic() - spawned

    checks = jobs.Checks()
    result: dict = {"setup_s": setup_s}
    if spec["trace"]:
        result["trace"] = traced(state, checks, spec)
    elif spec["budget_s"] is not None:  # None: a set-up sample only
        result["jobs"] = measure(state, checks, spec)
        if state.inputs["workload"].startswith("mc_"):
            jobs.check_determinism(state, Tracer("", False), checks, spec["first_job"])
    result.update(
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=checks.attempted,
        failures=checks.failures,
    )
    print(json.dumps(result))
    return 0


def measure(state, checks, spec) -> list[dict]:
    """Rounds of jobs while one more round of the last one's length fits in
    the budget; the first round always runs."""
    import jobs

    off = Tracer("", False)
    round_len = jobs.round_length(state.inputs)
    out = []
    start = time.perf_counter()
    k = spec["first_job"]
    while True:
        round_start = time.perf_counter()
        for _ in range(round_len):
            out.append(vars(jobs.run_job(state, k, off, checks)))
            k += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > spec["budget_s"]:
            return out


def traced(state, checks, spec) -> dict:
    """One warm-up job, one round of the workload's jobs untraced, the same
    round traced, then the layer probes, all traced into one span list.  The
    warm-up keeps the first call's extra cost out of the tracing overhead."""
    import jobs
    import probes

    workload = state.inputs["workload"]
    first = spec["first_job"]
    jobs_round = range(first, first + jobs.round_length(state.inputs))
    off = Tracer("", False)

    jobs.run_job(state, first, off, checks)
    t0 = time.perf_counter()
    for k in jobs_round:
        jobs.run_job(state, k, off, checks)
    untraced = time.perf_counter() - t0
    state.tally = jobs.Tallies()  # the tallies cover the traced part only

    tr = Tracer(f"{workload}-{state.inputs['seed']}-{os.getpid()}", True)
    with tr.span("bench.job"):
        for k in jobs_round:
            jobs.run_job(state, k, tr, checks)
    with tr.span("bench.probes"):
        measured = probes.run(state, tr, checks)
        if workload.startswith("mc_"):
            jobs.check_determinism(state, tr, checks, first)
    return layer_metrics(state, tr, untraced, measured, spec["span_file"])


SPAN_METRICS = (
    "simulate.monte_carlo", "simulate.audit",
    "equilibrium.quantile", "equilibrium.cdf", "equilibrium.payoff", "equilibrium.profile",
    "metrics.revenue_report", "metrics.expected_bid_quadrature",
    "metrics.distribution_mass_quadrature", "metrics.max_profit_quadrature",
    "metrics.winning_bid_cdf",
    "sabotage.plan", "sabotage.payoff_grid",
    "uniform.closed_forms",
    "cli.main", "cli.render",
)
CALL_COUNTS = {
    "metrics.expected_bid_quadrature_calls": "metrics.expected_bid_quadrature",
    "metrics.distribution_mass_quadrature_calls": "metrics.distribution_mass_quadrature",
    "metrics.max_profit_quadrature_calls": "metrics.max_profit_quadrature",
    "sabotage.plans": "sabotage.plan",
}
LAYERS = ("bench", "simulate", "equilibrium", "metrics", "sabotage", "uniform", "cli")


def layer_metrics(state, tr, untraced: float, measured: dict, span_file: str) -> dict:
    self_times = tr.self_times()
    counts = tr.counts()
    out = {f"{name}_s": self_times.get(name, 0.0) for name in SPAN_METRICS}
    out.update({metric: counts.get(name, 0) for metric, name in CALL_COUNTS.items()})
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for name, t in self_times.items()
                                     if name.split(".")[0] == layer)
    out.update(measured)
    out.update({
        "simulate.trials": state.tally.trials,
        "simulate.audit_points": state.tally.audit_points,
        "simulate.max_abs_z": state.tally.max_abs_z,
        "simulate.determinism_mismatches": state.tally.determinism_mismatches,
        "metrics.max_abs_residual": state.tally.max_abs_residual,
        "uniform.checks": state.tally.uniform_checks,
        "cli.exit_code_mismatches": state.tally.exit_code_mismatches,
    })

    # Accounting of the traced job round: self time per layer, and the share
    # of its wall time that spans inside the package cover.
    job_root = 0
    job_wall = tr.duration(job_root)
    job_self = {}
    for name, t in tr.self_times(root=job_root).items():
        layer = name.split(".")[0]
        job_self[layer] = job_self.get(layer, 0.0) + t
    out.update({
        "trace.job_untraced_s": untraced,
        "trace.job_traced_s": job_wall,
        "trace.overhead_s": job_wall - untraced,
        "trace.job_accounted_share": 1.0 - job_self.get("bench", 0.0) / job_wall,
        "trace.spans": len(tr.spans),
    })
    tr.dump(span_file, {"run": tr.run_id, "job_self_s": job_self, "metrics": out})
    return {"metrics": out, "job_self_s": job_self, "span_file": span_file}


if __name__ == "__main__":
    sys.exit(main())
