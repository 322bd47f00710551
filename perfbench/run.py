"""Benchmark of allpay-eq: one seeded workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the package is loaded from ``src/``.  Each
run starts fresh worker processes one after another, each of which imports
the package, builds the workload's configs and times jobs for its share of
``--seconds``.  With ``--trace 0`` the last stdout line holds the end-to-end
metrics named in BENCHMARK.json; with ``--trace 1`` a single worker runs one
round of jobs untraced and traced, then the layer probes, and the last line
holds the per-layer metrics.  The span file goes to ``perfbench/out/``.

Exit codes: 0 with a result, 1 when a worker fails, 2 on bad arguments or
when the package source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from workloads import KNOWN_DEFECTS, WORKLOADS, make_inputs, nproc

HERE = os.path.dirname(os.path.abspath(__file__))

# Worker processes per untraced run that time jobs.  Each runs at least one
# round: on verify one job (the whole batch, ~7 s), on cli_cold one pass over
# the mix (~8 s).  Peak RSS is the median over them.
WORKERS = {"mc_narrow": 4, "mc_wide": 3, "verify": 4, "cli_cold": 2}
# Set-up time is the median over this many fresh workers per run; the ones
# beyond WORKERS only set up and exit.
SETUPS = 7
RUN_TIMEOUT_S = 170  # every worker of a run must have ended by then
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    src = os.path.join(root, "src")
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(src, "allpay_eq", "__init__.py")):
        print(f"error: no package source at {src}/allpay_eq; run from the repository root",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        bench = json.load(fh)

    inputs = make_inputs(args.workload, args.seed, tiny=args.tiny)
    try:
        result = collect(inputs, args.seconds, bool(args.trace), src)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    names = bench["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in result["metrics"]]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({"provenance": provenance(inputs, src)}))
    print(json.dumps({"details": result["details"]}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                    for m in names},
    }))
    return 0


class WorkerError(RuntimeError):
    pass


def spawn(spec: dict, deadline: float) -> dict:
    """One worker process, in its own process group so that a timeout also
    ends the CLI processes it started."""
    # The workload sets thread counts itself; an inherited cap would change them.
    env = {k: v for k, v in os.environ.items() if k != "ALLPAY_EQ_THREADS"}
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), repr(spawned), json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
        env=env,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"run did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0 or not out.strip():
        raise WorkerError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def collect(inputs: dict, seconds: float, trace: bool, src: str) -> dict:
    workload = inputs["workload"]
    base = {"src": src, "inputs": inputs, "trace": trace}
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        span_file = os.path.join(out_dir, f"spans-{workload}-{inputs['seed']}.json")
        workers = [spawn({**base, "first_job": 0, "budget_s": 0, "span_file": span_file},
                         deadline)]
        metrics = dict(workers[0]["trace"]["metrics"])
        details = {"job_self_s": workers[0]["trace"]["job_self_s"], "span_file": span_file,
                   "setup_s": workers[0]["setup_s"]}
    else:
        workers, jobs = [], []
        count = WORKERS[workload]
        for _ in range(count):
            w = spawn({**base, "first_job": len(jobs), "budget_s": seconds / count}, deadline)
            workers.append(w)
            jobs += w["jobs"]
        setups = [w["setup_s"] for w in workers]
        setups += [spawn({**base, "first_job": 0, "budget_s": None}, deadline)["setup_s"]
                   for _ in range(SETUPS - count)]
        metrics, details = end_to_end(workers, jobs, setups, workload)
    failures = [f for w in workers for f in w["failures"]]
    attempted = sum(w["attempted"] for w in workers)
    details.update(fail_ratio=len(failures) / attempted, failures=summarize(failures))
    return {
        "metrics": metrics,
        "details": details,
        "attempted": attempted,
        "failed": len(failures),
        # Failed checks on a listed known defect are counted, but they do not
        # make the output incorrect.
        "correct": all(f["known_defect"] for f in failures),
    }


def end_to_end(workers: list[dict], jobs: list[dict], setups: list[float],
               workload: str) -> tuple[dict, dict]:
    walls = sorted(j["wall"] for j in jobs)
    tail_pct, tail = tail_latency(walls)
    if workload == "cli_cold":
        rss = [j["rss_mb"] for j in jobs]  # each CLI process's own peak
    else:
        rss = [w["rss_mb"] for w in workers]
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_s": statistics.median(walls),
        "latency_tail_s": tail,
        "throughput_per_s": sum(j["work"] for j in jobs) / sum(walls),
        "peak_rss_mb": statistics.median(rss),
    }
    details = {
        "workers": len(workers),
        "jobs": len(jobs),
        "latency_tail": f"p{tail_pct:g} of {len(walls)} samples",
        "latency_s_each": [round(j["wall"], 4) for j in jobs],
        "setup_s_each": [round(s, 4) for s in setups],
        "peak_rss_mb_each": [w["rss_mb"] for w in workers],
    }
    return metrics, details


def tail_latency(walls: list[float]) -> tuple[float, float]:
    """(percentile, value) by nearest rank from sorted ``walls``: the highest
    percentile that still has at least TAIL_BEYOND samples above it, but never
    below p75.  Under 4 * TAIL_BEYOND samples that is p75, with fewer than
    TAIL_BEYOND above it; a lone slow job then cannot set the tail."""
    n = len(walls)
    rank = max(n - TAIL_BEYOND, math.ceil(0.75 * n))  # 1-based
    return round(100.0 * rank / n, 1), walls[rank - 1]


def summarize(failures: list[dict]) -> list[dict]:
    """One entry per failing check: how often, whether it is a known defect,
    and the first detail seen."""
    out: dict[str, dict] = {}
    for f in failures:
        entry = out.setdefault(f["check"], {"check": f["check"], "count": 0,
                                            "known_defect": KNOWN_DEFECTS.get(f["check"]),
                                            "first": f["detail"]})
        entry["count"] += 1
    return list(out.values())


def _getconf(name: str) -> int | None:
    try:
        value = subprocess.run(["getconf", name], capture_output=True, text=True,
                               timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    return int(value) if value.isdigit() else None


def _source_digest(src: str) -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _git_commit(root: str) -> str:
    """HEAD from the checkout's own .git, if it has one (read directly, so
    nothing outside the checkout is searched)."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
                ref = fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _versions() -> dict:
    out = {"python": platform.python_version()}
    for dist in ("numpy", "scipy"):
        try:
            out[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            out[dist] = None
    return out


def provenance(inputs: dict, src: str) -> dict:
    l2 = _getconf("LEVEL2_CACHE_SIZE")
    out = {
        "machine": {"nproc": nproc(), "l2_bytes": l2, "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
                    **_versions()},
        "run": {"workload": inputs["workload"], "seed": inputs["seed"],
                "git_commit": _git_commit(os.path.dirname(src)),
                "src_sha256": _source_digest(src),
                "threads": inputs.get("threads")},
    }
    if "trials" in inputs:
        n = len(inputs["probs"])
        chunk = min(65536, inputs["trials"])  # the package's default chunk size
        out["memory_computed"] = {
            "note": "computed: 2n words x 8 B per trial, times the chunk for a block",
            "n": n,
            "bytes_per_trial": 2 * n * 8,
            "bytes_per_chunk_block": 2 * n * 8 * chunk,
            "chunk_trials": chunk,
            "l2_bytes": l2,
        }
    return out


if __name__ == "__main__":
    sys.exit(main())
