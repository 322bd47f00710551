import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

# The package under test comes from PYTHONPATH when an entry there holds it,
# so PYTHONPATH=<other tree>/src python -m pytest tests that tree, and from
# this checkout's src otherwise.
if not any(
    Path(entry, "allpay_eq").is_dir()
    for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if entry
):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import allpay_eq as ap  # noqa: E402

settings.register_profile(
    "allpay",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=60,
)
settings.load_profile("allpay")

# four-bidder worked example used throughout: p = (1/3, 1/2, 3/4, 1)
EXAMPLE_PROBS = (1 / 3, 1 / 2, 3 / 4, 1.0)
EXAMPLE_BIDS = (14 / 27, 383 / 972, 1613 / 5832, 1613 / 7776)
# E[max bid] = int (1 - P(max <= x)) dx over the three pieces, in exact arithmetic
# (derived in test_acceptance._exact_max_profit)
EXAMPLE_MAX_PROFIT = float(Fraction(2406683, 4898880))


@pytest.fixture
def example4() -> ap.AuctionConfig:
    return ap.build_config(list(EXAMPLE_PROBS))


def run_python(*argv):
    """A fresh interpreter that imports the package from where this process
    found it, so a plain ``pytest`` in a checkout needs no PYTHONPATH."""
    src = str(Path(ap.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def random_probs(rng: np.random.Generator, n: int) -> list[float]:
    """n probabilities drawn uniformly from (0, 1]."""
    return list(1.0 - rng.random(n))


def random_configs(seed: int, count: int, n_lo: int = 2, n_hi: int = 8):
    """Deterministic stream of random configs with n in [n_lo, n_hi]."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(n_lo, n_hi + 1))
        yield ap.build_config(random_probs(rng, n))


# hypothesis strategy: probability lists that keep the math well-conditioned
prob_lists = st.lists(
    st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    min_size=2,
    max_size=7,
)


# up to 80 bidders, with repeated values (ties) and probabilities of 1
tied_prob_lists = st.integers(min_value=2, max_value=80).flatmap(
    lambda n: st.lists(
        st.one_of(st.sampled_from([0.3, 0.8, 1.0]), st.floats(min_value=0.01, max_value=1.0)),
        min_size=n,
        max_size=n,
    )
)


@st.composite
def edge_prob_lists(draw, max_n: int):
    """Probability lists at the edges of the domain: 2 <= n <= max_n values
    drawn from a small pool of log-uniform values in [1e-12, 1] plus 1.0, so
    ties are common and p = 1 occurs."""
    n = draw(st.integers(2, max_n))
    log_uniform = st.floats(-12.0, 0.0).map(lambda e: 10.0**e)
    pool = draw(st.lists(log_uniform, min_size=1, max_size=n)) + [1.0]
    return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))


def example1_explicit_cdfs():
    """The worked example's four CDFs written out literally, piece by piece;
    an oracle independent of the package's generic evaluator."""
    s0, s1, s2 = 11 / 12, 23 / 108, 1 / 12

    def f1(x):
        x = np.asarray(x, float)
        return np.where(x >= s0, 1.0, np.where(x >= s1, 3 * (1 / 12 + x) ** (1 / 3) - 2, 0.0))

    def f2(x):
        x = np.asarray(x, float)
        return np.where(
            x >= s0,
            1.0,
            np.where(
                x >= s1,
                2 * (1 / 12 + x) ** (1 / 3) - 1,
                np.where(x >= s2, 2 * (3 * (1 / 12 + x) / 2) ** 0.5 - 1, 0.0),
            ),
        )

    def f3(x):
        x = np.asarray(x, float)
        return np.where(
            x >= s0,
            1.0,
            np.where(
                x >= s1,
                (4 / 3) * (1 / 12 + x) ** (1 / 3) - 1 / 3,
                np.where(
                    x >= s2,
                    (4 / 3) * (3 * (1 / 12 + x) / 2) ** 0.5 - 1 / 3,
                    np.where(x >= 0, 4 * (1 / 12 + x) - 1 / 3, 0.0),
                ),
            ),
        )

    def f4(x):
        x = np.asarray(x, float)
        return np.where(
            x >= s0,
            1.0,
            np.where(
                x >= s1,
                (1 / 12 + x) ** (1 / 3),
                np.where(
                    x >= s2,
                    (3 * (1 / 12 + x) / 2) ** 0.5,
                    np.where(x > 0, 3 * (1 / 12 + x), np.where(x == 0, 0.25, 0.0)),
                ),
            ),
        )

    return [f1, f2, f3, f4]
