"""Auction configuration: validated participation probabilities in sorted order.

This module is the one owner of the bidder list.  build_config is the one
place that turns raw probabilities into it, and AuctionConfig.report_rows is
the one place that lays it back out for reports.  Bidders are indexed 1..n by
ascending participation probability everywhere in this package; the mapping
back to the caller's original positions, and the positions dropped for a zero
probability, are kept on the config, so every report emits its per-bidder
rows in either order from the same layout.
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


def _check_positive(name: str, value) -> int:
    """``value`` as a Python int of at least 1 (not a bool); ``name`` names
    it in the messages."""
    value = _check_integer(name, value)
    if value < 1:
        raise ValidationError(f"{name} must be a positive integer, got {value}")
    return value


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
    return _check_positive(_THREADS_ENV, value)


def _check_real(name: str, value) -> float:
    """``value`` as a float: anything with ``__float__`` but a bool, Python's
    or numpy's (its type is named bool, or bool_ before numpy 2; numpy is not
    imported here), so no str or bytes, and no integer too large for a
    float."""
    if type(value).__name__ not in ("bool", "bool_") and hasattr(type(value), "__float__"):
        try:
            return float(value)
        except OverflowError:
            pass
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

    def report_rows(self, columns: Sequence[dict], blank: dict) -> tuple[list[dict], list[dict]]:
        """A report's rows in sorted order, {"bidder": i, "caller_position",
        "probability": p_i, **columns[i-1]}, and in caller order: the same rows
        and, at each dropped position p, {"bidder": None, "caller_position": p,
        "probability": 0.0, **blank}."""
        sorted_rows = [
            {"bidder": i, "caller_position": pos, "probability": p, **cols}
            for i, (pos, p, cols) in enumerate(zip(self.user_order, self.probabilities, columns), 1)
        ]
        caller_rows = [dict(r) for r in sorted_rows] + [
            {"bidder": None, "caller_position": pos, "probability": 0.0, **blank}
            for pos in self.dropped
        ]
        caller_rows.sort(key=operator.itemgetter("caller_position"))
        return sorted_rows, caller_rows


def build_config(raw_probabilities: Sequence[float]) -> AuctionConfig:
    """Validate raw probabilities and produce a sorted :class:`AuctionConfig`.

    Values must be real numbers (no bool, str or bytes) in [0, 1].  Zeros are
    dropped (those bidders never show up and cannot affect anyone) and recorded
    in ``dropped``.  The sort is stable, so equal probabilities keep their
    caller order.

    Raises
    ------
    ValidationError
        If any value is not a number or is outside [0, 1] (the message names
        the 1-based caller position), or no bidder has positive probability.
    """
    probs = []
    for pos, value in enumerate(raw_probabilities, start=1):
        try:
            v = _check_real("participation probability", value)
        except ValidationError as exc:
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
    return build_config(probs)
