"""Layer probes of the traced run.

Each probe calls one module's public functions on the workload's probe config
(its own config on ``mc_*``, the n = 16 config on ``verify``, the n = 4 CLI
config on ``cli_cold``), so every layer is measured on every workload and the
per-layer numbers of two workloads can be compared.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re
import statistics
import subprocess
import sys
import time

import numpy as np
from numpy.random import Generator, Philox

import allpay_eq as ae
from allpay_eq import cli

import jobs

PHILOX_CHUNK = 65536  # the package's default chunk size
PROFILE_REPEATS = 21
IMPORT_REPEATS = 3
MAX_SABOTAGE_PAIRS = 4


def probe_bidders(n: int) -> list[int]:
    """Every bidder up to n = 16; above that the ends, the middle and bidder 2."""
    return list(range(1, n + 1)) if n <= 16 else sorted({1, 2, n // 2, n - 1, n})


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def run(st: jobs.State, tr, checks: jobs.Checks) -> dict:
    """Run every probe under spans; return the probe-only measurements."""
    inp = st.inputs
    cfg = ae.build_config(inp["probe_probs"])
    n, trials = cfg.n, inp["probe_trials"]
    seed = inp.get("mc_seed", inp["seed"])
    out: dict = {}

    # simulate: the same trials on one and on two threads, and the bare
    # Philox words those trials consume.
    t1, report = timed(lambda: jobs.monte_carlo(st, tr, cfg, trials, seed=seed, threads=1))
    jobs.check_z(st, tr, checks, cfg, report)
    t2, report2 = timed(lambda: jobs.monte_carlo(st, tr, cfg, trials, seed=seed, threads=2))
    jobs.check_z(st, tr, checks, cfg, report2)
    rng_floor = philox_floor(n, trials, seed)
    out["simulate.thread_efficiency"] = t1 / (2.0 * t2)
    out["simulate.rng_floor_s"] = rng_floor
    out["simulate.rng_share"] = rng_floor / t1

    # equilibrium: quantile on as many uniforms as the run drew per bidder,
    # CDF and payoff on the audit grid, and cold profile builds.
    uniforms = np.random.default_rng(seed)
    out["equilibrium.quantile_points"] = 0
    for i, stats in enumerate(report.bidders, start=1):
        u = uniforms.random(stats.participations)
        tr.call("equilibrium.quantile", ae.quantile, cfg, i, u)
        out["equilibrium.quantile_points"] += stats.participations
    xs = np.linspace(0.0, ae.breakpoints(cfg)[0], inp["audit_grid"])
    bidders = probe_bidders(n)
    for i in bidders:
        tr.call("equilibrium.cdf", ae.cdf, cfg, i, xs)
        tr.call("equilibrium.payoff", ae.payoff, cfg, i, xs)
    out["equilibrium.cdf_points"] = out["equilibrium.payoff_points"] = len(bidders) * xs.size
    for _ in range(PROFILE_REPEATS):
        ae.equilibrium_profile.cache_clear()
        tr.call("equilibrium.profile", ae.equilibrium_profile, cfg)

    # metrics, audit, sabotage and uniform: the verify checks on the probe
    # bidders, plus the winning-bid CDF on the grid.
    tr.call("metrics.winning_bid_cdf", ae.winning_bid_cdf, cfg, xs)
    pairs = [(i, r) for i in bidders for r in bidders if i != r][:MAX_SABOTAGE_PAIRS]
    cases = [(i, r, 0.5 * cfg.probabilities[r - 1]) for i, r in pairs]
    jobs.verify_config(st, tr, checks, cfg, cases, bidders=bidders)
    p_common = statistics.median(cfg.probabilities)
    jobs.verify_uniform(st, tr, checks, ae.build_config([p_common] * n))

    # cli: start-up cost in fresh interpreters, then the CLI mix in-process.
    out.update(import_probe(st.env))
    cli_probe(st, tr, checks)
    return out


def philox_floor(n: int, trials: int, seed: int) -> float:
    """Seconds numpy's Philox takes to produce the 2n words per trial that
    ``monte_carlo`` consumes, chunk by chunk as the package draws them."""
    t0 = time.perf_counter()
    for start in range(0, trials, PHILOX_CHUNK):
        bit_gen = Philox(key=seed)
        if start:
            bit_gen.advance(start * 2 * n // 4)  # Philox advances in 4-word blocks
        Generator(bit_gen).random((min(PHILOX_CHUNK, trials - start), 2 * n))
    return time.perf_counter() - t0


def _process_wall(argv: list[str], env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   check=True, timeout=60)
    return time.perf_counter() - t0


def import_probe(env: dict) -> dict:
    """Fresh ``import allpay_eq`` minus a bare interpreter start (medians), and
    the scipy share of the import from ``-X importtime``."""
    py = sys.executable
    bare = [_process_wall([py, "-c", "pass"], env) for _ in range(IMPORT_REPEATS)]
    full = [_process_wall([py, "-c", "import allpay_eq"], env) for _ in range(IMPORT_REPEATS)]
    proc = subprocess.run([py, "-X", "importtime", "-c", "import allpay_eq"], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    return {
        "cli.import_s": statistics.median(full) - statistics.median(bare),
        "cli.import_scipy_s": scipy_import_us(proc.stderr) / 1e6,
    }


_IMPORTTIME = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)")


def _is_scipy(name: str) -> bool:
    return name == "scipy" or name.startswith("scipy.")


def scipy_import_us(importtime_log: str) -> int:
    """Cumulative microseconds of the outermost scipy imports.

    ``-X importtime`` lists a module after everything it imported, indented
    one level deeper, so a row's parent is the next row with less indent."""
    rows = []
    for line in importtime_log.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            rows.append((int(m[1]), len(m[2]), m[3]))
    total = 0
    for k, (cumulative, depth, name) in enumerate(rows):
        if not _is_scipy(name):
            continue
        parent = next((row[2] for row in rows[k + 1 :] if row[1] < depth), None)
        if parent is None or not _is_scipy(parent):
            total += cumulative
    return total


def main_captured(entry: dict) -> tuple[int, str, str]:
    """``cli.main(argv)`` in this process with stdout and stderr captured and
    the entry's environment applied for the duration of the call."""
    out, err = io.StringIO(), io.StringIO()
    saved = {key: os.environ.get(key) for key in entry["env"]}
    os.environ.update(entry["env"])
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(entry["argv"])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return code, out.getvalue(), err.getvalue()


def _csv_rows(text: str) -> list[dict]:
    return [{k: float(v) if v else None for k, v in row.items()}
            for row in csv.DictReader(io.StringIO(text))]


def cli_probe(st: jobs.State, tr, checks: jobs.Checks) -> None:
    """The CLI mix through ``cli.main``, then both renderers on the table and
    equilibrium payloads."""
    stdout = {}
    for entry in st.inputs["mix"]:
        code, out, err = tr.call("cli.main", main_captured, entry)
        jobs.check_cli(st, checks, entry, code, out, err)
        stdout[entry["check"]] = out
    payloads = [json.loads(stdout["cli.equilibrium_json"]),
                _csv_rows(stdout["cli.equilibrium_csv"]),
                _csv_rows(stdout["cli.table"])]
    for payload in payloads:
        tr.call("cli.render", cli.render_json, payload)
        if isinstance(payload, list):
            tr.call("cli.render", cli.render_csv, payload)
