"""The README's runnable scripts and its library tour, run as a user runs them."""

import csv
import io
from pathlib import Path

import allpay_eq as ap
from conftest import run_python

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def test_worked_example_script():
    done = run_python(str(SCRIPTS / "worked_example.py"), "--trials", "2000")
    assert done.returncode == 0, done.stderr
    lines = [line for line in done.stdout.splitlines() if line.startswith("breakpoints:")]
    assert lines == [
        "breakpoints: ['0.9166666667', '0.2129629630', '0.0833333333', '0.0000000000']"
    ]


def test_uniform_sweep_script():
    done = run_python(str(SCRIPTS / "uniform_sweep.py"), "--n", "2", "--points", "3")
    assert done.returncode == 0, done.stderr
    header, *rows = csv.reader(io.StringIO(done.stdout))
    assert header == [
        "n", "p", "lambda", "bid_mean", "bid_variance", "profit_mean", "profit_variance",
        "sum_profit_mean", "sum_profit_variance", "max_profit_mean", "max_profit_variance",
    ]
    assert len(rows) == 3 and all(len(row) == len(header) for row in rows)


def test_readme_library_block():
    """The python block of the README's Library section runs as written."""
    library = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    code = library.split("```python\n", 1)[1].split("```", 1)[0]
    assert "ap.monte_carlo(cfg" in code
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr


def test_output_digest_script():
    """One digest line per family, the same on a second run."""
    runs = [run_python(str(SCRIPTS / "output_digest.py")) for _ in range(2)]
    assert all(done.returncode == 0 for done in runs), runs[0].stderr
    lines = runs[0].stdout.splitlines()
    names = [line.split()[0] for line in lines]
    assert names[:3] == ["quantile", "cdf", "pdf"] and len(names) == len(set(names)) == 22
    assert all(len(line.split()[1]) == 64 for line in lines)
    assert runs[1].stdout == runs[0].stdout


def test_fresh_interpreter_imports_the_package_under_test():
    """run_python's interpreter imports the very package this process tests,
    whether it came from PYTHONPATH or from the checkout's src."""
    done = run_python("-c", "import allpay_eq; print(allpay_eq.__file__)")
    assert done.returncode == 0, done.stderr
    assert Path(done.stdout.strip()).resolve() == Path(ap.__file__).resolve()
