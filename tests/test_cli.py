import csv
import io
import json

import pytest

import allpay_eq as ap
from allpay_eq.cli import main, render_json
from conftest import EXAMPLE_MAX_PROFIT, run_python

EXAMPLE_ARGS = ["--probs", "0.3333333333333333,0.5,0.75,1"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# equilibrium
# ---------------------------------------------------------------------------


def test_equilibrium_json(capsys, example4):
    code, out, err = run_cli(capsys, "equilibrium", *EXAMPLE_ARGS)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["lambda"] == pytest.approx(1 / 12, rel=1e-12)
    assert payload["max_profit"] == pytest.approx(EXAMPLE_MAX_PROFIT, rel=1e-12)
    assert payload["sum_profit"] == pytest.approx(113 / 144, rel=1e-12)
    assert payload["bidders_sorted"][3]["atom_at_zero"] == 0.25


def test_equilibrium_output_is_module_serialization(capsys):
    code, out, _ = run_cli(capsys, "equilibrium", "--probs", "0.25,0.5,0.75")
    cfg = ap.build_config([0.25, 0.5, 0.75])
    assert code == 0
    assert out == render_json(ap.revenue_report(cfg).to_dict())


def test_equilibrium_all_reliable(capsys):
    code, out, _ = run_cli(capsys, "equilibrium", "--probs", "1,1")
    payload = json.loads(out)
    assert code == 0
    assert payload["lambda"] == 0.0
    assert all(row["expected_utility"] == 0.0 for row in payload["bidders_sorted"])


def test_equilibrium_csv(capsys):
    code, out, _ = run_cli(capsys, "equilibrium", "--probs", "0.5,1", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["expected_bid"] for row in rows] == ["0.25", "0.125"]
    assert rows[0]["lambda"] == "0.5"


def test_equilibrium_validation_exit_codes(capsys):
    code, out, err = run_cli(capsys, "equilibrium", "--probs", "0.5,1.5")
    assert code == 2 and out == "" and "position 2" in err
    code, _, err = run_cli(capsys, "equilibrium", "--probs", "0.5")
    assert code == 2 and "degenerate" in err
    code, _, err = run_cli(capsys, "equilibrium")
    assert code == 2 and "--probs or --config" in err
    code, _, err = run_cli(capsys, "equilibrium", "--probs", "abc")
    assert code == 2


def test_config_file_ingestion(capsys, tmp_path):
    path = tmp_path / "auction.json"
    path.write_text('{"probabilities": [0.5, 1.0]}')
    code, out, _ = run_cli(capsys, "equilibrium", "--config", str(path))
    assert code == 0
    assert json.loads(out)["lambda"] == 0.5
    code, _, err = run_cli(capsys, "equilibrium", "--config", str(path), "--probs", "0.5,1")
    assert code == 2 and "not both" in err
    code, _, err = run_cli(capsys, "equilibrium", "--config", str(tmp_path / "missing.json"))
    assert code == 2


@pytest.mark.parametrize(
    "values", ['["abc", 0.5]', "[null, 0.5]", "[[0.3], 0.5]", "[true, 0.5]", '["0.3", 0.5]']
)
def test_config_file_non_number_exits_2(capsys, tmp_path, values):
    """Only JSON numbers are probabilities: a string, null, array or boolean
    is invalid input, named by its position, not an internal error."""
    path = tmp_path / "auction.json"
    path.write_text(f'{{"probabilities": {values}}}')
    code, out, err = run_cli(capsys, "equilibrium", "--config", str(path))
    assert code == 2 and out == "" and "position 1" in err


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--probs", "0.5,1", "--grid", "5")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 10
    assert set(rows[0]) == {"bidder", "x", "cdf", "pdf"}
    last_of_first = rows[4]
    assert float(last_of_first["x"]) == pytest.approx(0.5)
    assert float(last_of_first["cdf"]) == 1.0
    # the unreliable bidder's atom row carries an empty density
    atom_rows = [r for r in rows if r["pdf"] == ""]
    assert len(atom_rows) == 1 and float(atom_rows[0]["x"]) == 0.0


def test_table_grid_validation(capsys):
    code, _, err = run_cli(capsys, "table", "--probs", "0.5,1", "--grid", "1")
    assert code == 2 and "grid" in err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_reproducible_and_annotated(capsys):
    args = ["simulate", *EXAMPLE_ARGS, "--trials", "20000", "--seed", "7"]
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b  # byte-for-byte reproducible
    payload = json.loads(out_a)
    assert payload["seed"] == 7 and payload["trials"] == 20000
    cfg = ap.build_config([0.3333333333333333, 0.5, 0.75, 1])
    module_report = ap.monte_carlo(cfg, 20000, seed=7).to_dict()
    for key in ("bidders_sorted", "sum_revenue", "max_revenue", "trials", "seed"):
        assert payload[key] == json.loads(render_json(module_report))[key]
    assert payload["analytic"]["sum_profit"] == pytest.approx(113 / 144, rel=1e-12)
    assert abs(payload["sum_revenue"]["mean"] - 113 / 144) <= 5 * payload["sum_revenue"]["mean_se"]


def test_simulate_wide_identical_under_threads(capsys, monkeypatch):
    """n = 64 with a tied pair, 5 chunks: stdout is byte-identical on two
    worker threads, each with the arena the call allocated for it, and on one."""
    values = [0.05 + 0.015 * j for j in range(63)]
    probs = ",".join(repr(v) for v in [*values, values[30]])
    args = ["simulate", "--probs", probs, "--trials", "20000", "--seed", "3"]
    monkeypatch.delenv("ALLPAY_EQ_THREADS", raising=False)
    code_one, out_one, _ = run_cli(capsys, *args)
    monkeypatch.setenv("ALLPAY_EQ_THREADS", "2")
    code_two, out_two, _ = run_cli(capsys, *args)
    assert code_one == code_two == 0
    assert out_one == out_two


def test_simulate_defaults_seed_zero(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--probs", "0.5,1", "--trials", "100")
    assert code == 0
    assert json.loads(out)["seed"] == 0


def test_simulate_trials_validation(capsys):
    code, _, err = run_cli(capsys, "simulate", "--probs", "0.5,1", "--trials", "0")
    assert code == 2 and "trials" in err


def test_simulate_bad_seed_and_thread_env_exit_2(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "simulate", "--probs", "0.5,1", "--trials", "10", "--seed", "-1")
    assert code == 2 and "seed" in err
    monkeypatch.setenv("ALLPAY_EQ_THREADS", "abc")
    code, _, err = run_cli(capsys, "simulate", "--probs", "0.5,1", "--trials", "10")
    assert code == 2 and "ALLPAY_EQ_THREADS" in err


def test_simulate_thread_env_below_one_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("ALLPAY_EQ_THREADS", "0")
    code, out, err = run_cli(capsys, "simulate", "--probs", "0.5,1", "--trials", "10")
    assert code == 2 and out == "" and "ALLPAY_EQ_THREADS" in err


def test_simulate_csv(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--probs", "0.5,1", "--trials", "1000", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["bidder"] for r in rows] == ["1", "2", "sum_revenue", "max_revenue"]
    assert float(rows[0]["analytic_expected_bid"]) == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# sabotage
# ---------------------------------------------------------------------------


def test_sabotage_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "sabotage",
        "--probs",
        "0.5,0.5,0.5",
        "--i",
        "2",
        "--r",
        "1",
        "--p-prime",
        "0.25",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["bid"] == 0.0
    assert payload["expected_profit"] == pytest.approx(0.375, rel=1e-12)
    assert payload["candidates"][0]["piece"] == 1
    cfg = ap.build_config([0.5, 0.5, 0.5])
    plan = ap.optimal_sabotage_bid(
        ap.SabotageScenario(config=cfg, saboteur=2, target=1, true_target_probability=0.25)
    )
    assert out == render_json(plan.to_dict())


def test_sabotage_validation(capsys):
    code, _, err = run_cli(
        capsys, "sabotage", "--probs", "0.5,0.5", "--i", "1", "--r", "2", "--p-prime", "0.5"
    )
    assert code == 2
    code, _, err = run_cli(
        capsys, "sabotage", "--probs", "0.5,0.5", "--i", "1", "--r", "1", "--p-prime", "0.1"
    )
    assert code == 2 and "differ" in err


# ---------------------------------------------------------------------------
# uniform
# ---------------------------------------------------------------------------


def test_uniform_json(capsys):
    code, out, _ = run_cli(capsys, "uniform", "--n", "3", "--p", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["bid"]["mean"] == pytest.approx(1 / 3, rel=1e-12)
    assert payload["bid"]["variance"] == pytest.approx(17 / 360, rel=1e-12)
    assert payload["sum_profit"]["mean"] == pytest.approx(0.5, rel=1e-12)
    assert payload["sum_profit"]["realized_revenue_variance"] == pytest.approx(
        37 / 240, rel=1e-12
    )
    assert payload["lambda"] == 0.25


def test_uniform_validation(capsys):
    code, _, err = run_cli(capsys, "uniform", "--n", "1", "--p", "0.5")
    assert code == 2


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def test_audit_json(capsys):
    code, out, _ = run_cli(capsys, "audit", *EXAMPLE_ARGS, "--grid", "2001")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["audits"]) == 4
    assert all(entry["deviation_gain"] <= 1e-9 for entry in payload["audits"])
    code, out, _ = run_cli(capsys, "audit", *EXAMPLE_ARGS, "--grid", "2001", "--i", "2")
    assert len(json.loads(out)["audits"]) == 1


@pytest.mark.parametrize("bidder", ["9", "-1", "0", "5"])
def test_audit_bad_bidder_exits_2(capsys, bidder):
    code, out, err = run_cli(capsys, "audit", *EXAMPLE_ARGS, "--grid", "101", "--i", bidder)
    assert code == 2 and out == "" and "bidder index" in err


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------


def test_module_invocation_subprocess():
    proc = run_python("-m", "allpay_eq.cli", "equilibrium", "--probs", "0.5,1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["lambda"] == 0.5
    bad = run_python("-m", "allpay_eq.cli", "equilibrium", "--probs", "2")
    assert bad.returncode == 2 and bad.stdout == ""


def test_import_and_equilibrium_leave_scipy_unloaded():
    # numpy is the only runtime dependency, the quadrature oracles included
    code = (
        "import sys, allpay_eq as ap\n"
        "from allpay_eq import cli\n"
        f"assert cli.main(['equilibrium', *{EXAMPLE_ARGS!r}]) == 0\n"
        "cfg = ap.build_config([1 / 3, 0.5, 0.75, 1.0])\n"
        "ap.expected_bid_quadrature(cfg, 1), ap.distribution_mass_quadrature(cfg, 4)\n"
        "ap.max_profit_quadrature(cfg)\n"
        "assert 'scipy' not in sys.modules\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
