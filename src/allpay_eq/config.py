"""Auction configuration: validated participation probabilities in sorted order.

Bidders are indexed 1..n by ascending participation probability everywhere in
this package; the mapping back to the caller's original positions is kept on
the config so reports can be emitted in either order.
"""

from __future__ import annotations

import json
import operator
import os
from dataclasses import dataclass
from typing import Sequence


_SEED_LIMIT = 2**128  # Philox keys are 128-bit
_THREADS_ENV = "ALLPAY_EQ_THREADS"


class AuctionError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(AuctionError, ValueError):
    """Input violates a documented precondition."""


class DegenerateAuctionError(ValidationError):
    """Single-bidder auction: equilibrium quantities are undefined (n >= 2 required)."""


def _check_integer(name: str, value) -> int:
    """``value`` as a Python int: anything with ``__index__`` but a bool."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError(f"{name} must be an integer, got {value!r}")


def _check_index(name: str, value, top: int) -> int:
    """``value`` as a Python int, or ValidationError unless it is an integer
    (not a bool) in 1..top; ``name`` names the index in the messages."""
    value = _check_integer(f"{name} index", value)
    if not 1 <= value <= top:
        raise ValidationError(f"{name} index {value} outside 1..{top}")
    return value


def _check_trials(trials) -> int:
    """``trials`` as a positive Python int."""
    trials = _check_integer("trials", trials)
    if trials < 1:
        raise ValidationError(f"trials must be a positive integer, got {trials}")
    return trials


def _check_seed(seed) -> int:
    """``seed`` as a Python int in [0, 2**128)."""
    seed = _check_integer("seed", seed)
    if not 0 <= seed < _SEED_LIMIT:
        raise ValidationError(f"seed must lie in [0, 2**128), got {seed}")
    return seed


def _threads_cap() -> int | None:
    """The positive cap that ALLPAY_EQ_THREADS sets on the Monte Carlo
    worker count, or None when the variable is unset or empty."""
    cap = os.environ.get(_THREADS_ENV)
    if not cap:
        return None
    try:
        value = int(cap)
    except ValueError:
        raise ValidationError(f"{_THREADS_ENV} must be an integer, got {cap!r}") from None
    if value < 1:
        raise ValidationError(f"{_THREADS_ENV} must be a positive integer, got {cap!r}")
    return value


def _check_real(name: str, value) -> float:
    """``value`` as a float: anything with ``__float__`` but a bool, so no
    string."""
    if not isinstance(value, bool) and hasattr(type(value), "__float__"):
        return float(value)
    raise ValidationError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class AuctionConfig:
    """Participation probabilities sorted ascending, plus caller-order bookkeeping.

    probabilities : ascending values in (0, 1], one per retained bidder
    user_order    : user_order[k] is the 1-based caller position of sorted bidder k+1
    dropped       : 1-based caller positions removed because their probability was 0
    """

    probabilities: tuple[float, ...]
    user_order: tuple[int, ...]
    dropped: tuple[int, ...] = ()

    @property
    def n(self) -> int:
        return len(self.probabilities)

    def require_competition(self) -> None:
        """Raise unless n >= 2 (equilibrium formulas need at least two bidders)."""
        if self.n < 2:
            raise DegenerateAuctionError(
                "degenerate auction: only one potential participant; "
                "equilibrium quantities need n >= 2"
            )

    def caller_position(self, i: int) -> int:
        """1-based caller position of sorted bidder i."""
        return self.user_order[i - 1]


def build_config(raw_probabilities: Sequence[float]) -> AuctionConfig:
    """Validate raw probabilities and produce a sorted :class:`AuctionConfig`.

    Values must lie in [0, 1].  Zeros are dropped (those bidders never show up
    and cannot affect anyone) and recorded in ``dropped``.  The sort is stable,
    so equal probabilities keep their caller order.

    Raises
    ------
    ValidationError
        If any value is not a number or is outside [0, 1] (the message names
        the 1-based caller position), or no bidder has positive probability.
    """
    probs = []
    for pos, value in enumerate(raw_probabilities, start=1):
        try:
            v = float(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(
                f"participation probability at position {pos} is {value!r}; "
                "must be a number in [0, 1]"
            ) from exc
        if not (0.0 <= v <= 1.0):
            raise ValidationError(
                f"participation probability at position {pos} is {value!r}; "
                "must lie in [0, 1]"
            )
        probs.append(v)
    retained = [(v, pos) for pos, v in enumerate(probs, start=1) if v > 0.0]
    dropped = tuple(pos for pos, v in enumerate(probs, start=1) if v == 0.0)
    if not retained:
        raise ValidationError("no potential participants: every probability is zero")
    retained.sort(key=lambda pair: pair[0])
    return AuctionConfig(
        probabilities=tuple(v for v, _ in retained),
        user_order=tuple(pos for _, pos in retained),
        dropped=dropped,
    )


def config_from_json(text: str) -> AuctionConfig:
    """Build a config from a JSON object of the form {"probabilities": [...]}."""
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ValidationError(f"invalid JSON config: {exc}") from exc
    if not isinstance(obj, dict) or "probabilities" not in obj:
        raise ValidationError('config JSON must be an object with a "probabilities" array')
    probs = obj["probabilities"]
    if not isinstance(probs, list):
        raise ValidationError('"probabilities" must be an array of numbers')
    for pos, value in enumerate(probs, start=1):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(
                f'"probabilities" must be an array of numbers; position {pos} is {value!r}'
            )
    return build_config(probs)
