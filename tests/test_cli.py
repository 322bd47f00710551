import csv
import dataclasses
import importlib
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
    # the reliable last bidder holds the atom: its row at 0 has an empty density
    atom_rows = [r for r in rows if r["pdf"] == ""]
    assert len(atom_rows) == 1 and float(atom_rows[0]["x"]) == 0.0


def test_table_rows_in_caller_order(capsys):
    """Caller position 1 (p = 1, sorted last, with the atom) comes first; the
    dropped zero at position 2 has no rows.  lam = s_0 = 1/2, so every value
    is exact."""
    code, out, err = run_cli(capsys, "table", "--probs", "1,0,0.5", "--grid", "3")
    assert code == 0 and err == ""
    assert out == (
        "bidder,x,cdf,pdf\n"
        "1,0,0.5,\n"
        "1,0.25,0.75,1\n"
        "1,0.5,1,0\n"
        "3,0,0,2\n"
        "3,0.25,0.5,2\n"
        "3,0.5,1,0\n"
    )


@pytest.mark.parametrize(
    "probs, empty", [("1,1,1", ["1", "2", "3"]), ("0.3,1,1,1", ["2", "3", "4"])]
)
def test_table_density_diverging_at_zero_is_empty(capsys, probs, empty):
    """With lam = 0 a density that diverges at bid 0 gets an empty cell, as an
    atom does, and nothing is written to stderr."""
    code, out, err = run_cli(capsys, "table", "--probs", probs, "--grid", "3")
    assert code == 0 and err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    blank = [row for row in rows if row["pdf"] == ""]
    assert [row["bidder"] for row in blank] == empty
    assert all(row["x"] == "0" for row in blank)


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


def test_simulate_single_bidder(capsys):
    """One bidder has no equilibrium to compare against: the report keeps
    its simulated rows and leaves the analytic side empty."""
    args = ["simulate", "--probs", "0.5", "--trials", "1000"]
    code, out, err = run_cli(capsys, *args)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["analytic"] is None
    assert payload["bidders_caller_order"][0]["bid_mean"] == 0.0
    code, out, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["bidder"] for r in rows] == ["1", "sum_revenue", "max_revenue"]
    assert rows[0]["analytic_expected_bid"] == rows[0]["analytic_expected_utility"] == ""


def _refuse_constant(token):
    raise ValueError(f"not RFC 8259 JSON: {token}")


def test_simulate_caller_rows_keep_dropped_positions(capsys):
    """Both caller-order blocks hold every caller position, and the CSV row of
    the dropped position 2 carries the statistics of a kept bidder who never
    takes part (p = 1e-12 over the same 10 trials)."""
    args = ["simulate", "--probs", "0.5,0,1", "--trials", "10"]
    code, out, err = run_cli(capsys, *args)
    assert code == 0 and err == ""
    payload = json.loads(out)
    for block in (payload, payload["analytic"]):
        assert [row["caller_position"] for row in block["bidders_caller_order"]] == [1, 2, 3]
    _, out, _ = run_cli(capsys, *args, "--format", "csv")
    dropped = [row for row in csv.DictReader(io.StringIO(out)) if row["caller_position"] == "2"]
    never_args = ["simulate", "--probs", "1e-12,1", "--trials", "10", "--format", "csv"]
    _, out, _ = run_cli(capsys, *never_args)
    never = [row for row in csv.DictReader(io.StringIO(out)) if row["caller_position"] == "1"]
    assert len(dropped) == len(never) == 1 and never[0]["participations"] == "0"
    stats = [field.name for field in dataclasses.fields(ap.BidderStats)]
    assert [dropped[0][key] for key in stats] == [never[0][key] for key in stats]


def test_simulate_json_is_strict(capsys):
    """Undefined statistics of a bidder with no participation are null on
    stdout, never a bare NaN token that RFC 8259 parsers refuse."""
    code, out, _ = run_cli(capsys, "simulate", "--probs", "0.001,1", "--trials", "10")
    assert code == 0
    first = json.loads(out, parse_constant=_refuse_constant)["bidders_sorted"][0]
    assert first["participations"] == 0 and first["bid_mean"] is None


def test_render_json_writes_null_for_non_finite_floats():
    inf, nan = float("inf"), float("nan")
    text = render_json({"a": [1.5, nan], "b": (inf, -inf), "c": {"d": nan}, "e": 2})
    assert json.loads(text, parse_constant=_refuse_constant) == {
        "a": [1.5, None], "b": [None, None], "c": {"d": None}, "e": 2
    }
    finite = {"a": [1.5, 0.1], "b": None}
    assert render_json(finite) == json.dumps(finite, indent=2) + "\n"


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
    assert payload["sum_profit"] == {
        "mean": pytest.approx(0.5, rel=1e-12),
        "variance": pytest.approx(37 / 240, rel=1e-12),
    }
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


_ENGINE = ("allpay_eq.simulate", "numpy.random", "concurrent.futures")


@pytest.mark.parametrize(
    "argv, code, unloaded, loaded",
    [
        (["uniform", "--n", "3", "--p", "0.5"], 0, ("numpy",), ()),
        (["equilibrium", "--probs", "abc"], 2, ("numpy",), ()),
        (["equilibrium", *EXAMPLE_ARGS], 0, _ENGINE, ()),
        (["table", *EXAMPLE_ARGS, "--grid", "5"], 0, _ENGINE, ()),
        (["sabotage", *EXAMPLE_ARGS, "--i", "2", "--r", "3", "--p-prime", "0.5"], 0, _ENGINE, ()),
        (["simulate", *EXAMPLE_ARGS, "--trials", "100"], 0, (), _ENGINE),
        (["audit", *EXAMPLE_ARGS, "--grid", "101"], 0, _ENGINE, ()),
    ],
    ids=["uniform", "bad_probs", "equilibrium", "table", "sabotage", "simulate", "audit"],
)
def test_cli_loads_only_what_it_runs(argv, code, unloaded, loaded):
    """A fresh ``python -m allpay_eq.cli`` call imports only the modules its
    subcommand needs: ``uniform`` and unparsable input run without numpy,
    and only ``simulate`` loads the Monte Carlo engine."""
    script = (
        "import runpy, sys\n"
        f"sys.argv = ['allpay-eq', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('allpay_eq.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        f"assert code == {code}, code\n"
        f"assert not [m for m in {unloaded!r} if m in sys.modules], {unloaded!r}\n"
        f"assert all(m in sys.modules for m in {loaded!r}), {loaded!r}\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "extra, env",
    [(["--seed", "-1"], None), (["--trials", "0"], None), ([], "abc")],
    ids=["seed_negative", "trials_zero", "threads_env_abc"],
)
def test_simulate_bad_input_exits_before_numpy(extra, env, monkeypatch):
    """A bad seed, trial count or ALLPAY_EQ_THREADS exits 2 from a fresh
    process that has loaded neither numpy nor the Monte Carlo engine."""
    monkeypatch.delenv("ALLPAY_EQ_THREADS", raising=False)
    if env is not None:
        monkeypatch.setenv("ALLPAY_EQ_THREADS", env)
    argv = ["simulate", *EXAMPLE_ARGS, "--trials", "100", *extra]
    script = (
        "import sys\n"
        "from allpay_eq import cli\n"
        f"assert cli.main({argv!r}) == 2\n"
        "assert not [m for m in ('numpy', 'allpay_eq.simulate') if m in sys.modules]\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert "error:" in proc.stderr


def test_package_exports_resolve_lazily():
    """Every public name is its defining module's object, listed by dir(),
    and bound by a star import; an unknown name raises AttributeError."""
    for name in ap.__all__:
        module = importlib.import_module(f"allpay_eq.{ap._EXPORTS[name]}")
        assert getattr(ap, name) is getattr(module, name), name
    assert set(ap.__all__) <= set(dir(ap))
    namespace: dict = {}
    exec("from allpay_eq import *", namespace)
    assert all(namespace[name] is getattr(ap, name) for name in ap.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        ap.no_such_name
