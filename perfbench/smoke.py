"""Smoke test of the benchmark itself, on tiny sizes.

    python3 perfbench/smoke.py          # or: python -m pytest perfbench/smoke.py

Checks that every workload emits every metric named in BENCHMARK.json with its
unit, that names are well formed, that a seed always generates the same
inputs, that a failed check is counted, and that the benchmark refuses to run
without the package source.  Not part of the tier-1 suite: it starts a few
dozen interpreters and takes about two minutes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_names_are_well_formed():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCH[key]]
    names += list(WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m


def test_same_seed_same_inputs():
    for workload in WORKLOADS:
        assert make_inputs(workload, 3) == make_inputs(workload, 3)
        assert make_inputs(workload, 3) != make_inputs(workload, 4)
        assert json.loads(json.dumps(make_inputs(workload, 3))) == make_inputs(workload, 3)


def test_every_metric_emitted():
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
            assert result["correct"] is True, (workload, trace, proc.stdout)
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in BENCH[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace)
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (workload, name)


def test_failed_check_counts_in_fail_ratio():
    inputs = make_inputs("cli_cold", 5, tiny=True)
    wrong = next(e for e in inputs["mix"] if e["check"] == "cli.probs_abc")
    wrong["code"] = 0  # a wrong expectation: the call really exits 2
    inputs["mix"] = [wrong]  # every job runs it
    result = run.collect(inputs, 1, False, os.path.join(ROOT, "src"))
    failed = {f["check"]: f for f in result["details"]["failures"]}
    assert "cli.probs_abc" in failed and failed["cli.probs_abc"]["known_defect"] is None
    assert result["failed"] >= failed["cli.probs_abc"]["count"] >= 1
    assert result["details"]["fail_ratio"] == result["failed"] / result["attempted"] > 0
    assert result["correct"] is False


def test_refuses_to_run_without_the_package():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _run("mc_narrow", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
