import dataclasses
import pickle
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import allpay_eq as ap


def test_worked_example_stays_sorted():
    cfg = ap.build_config([1 / 3, 1 / 2, 3 / 4, 1.0])
    assert cfg.probabilities == (1 / 3, 1 / 2, 3 / 4, 1.0)
    assert cfg.user_order == (1, 2, 3, 4)
    assert cfg.dropped == ()


def test_sorting_records_permutation():
    cfg = ap.build_config([1.0, 0.2])
    assert cfg.probabilities == (0.2, 1.0)
    assert cfg.user_order == (2, 1)
    assert cfg.caller_position(1) == 2 and cfg.caller_position(2) == 1


def test_zero_probabilities_dropped():
    cfg = ap.build_config([0.0, 0.5, 0.5])
    assert cfg.probabilities == (0.5, 0.5)
    assert cfg.dropped == (1,)
    assert cfg.user_order == (2, 3)


def test_stable_sort_for_ties():
    cfg = ap.build_config([0.5, 0.3, 0.5])
    assert cfg.probabilities == (0.3, 0.5, 0.5)
    assert cfg.user_order == (2, 1, 3)


@pytest.mark.parametrize("bad", [[-0.1, 0.5], [0.5, 1.2], [float("nan"), 0.5]])
def test_out_of_range_rejected(bad):
    with pytest.raises(ap.ValidationError) as err:
        ap.build_config(bad)
    assert "position" in str(err.value)


@pytest.mark.parametrize(
    "bad",
    ["abc", None, [0.3], 10**400, True, "0.5", b"0.5", np.complex128(0.5 + 0.3j), 0.5 + 0j,
     np.array(0.5), Decimal("sNaN")],
    ids=["str", "none", "list", "huge_int", "bool", "numeric_str", "bytes", "np_complex",
         "complex", "0d_array", "signaling_nan"],
)
def test_non_number_rejected(bad):
    with pytest.raises(ap.ValidationError, match="position 2 .* must be a number"):
        ap.build_config([0.5, bad])


@pytest.mark.parametrize(
    "bad", [0.5, None, np.array(0.5), np.array([[0.5, 0.3]])], ids=["float", "none", "0d", "2d"]
)
def test_non_sequence_rejected(bad):
    """A bare number or None is no list of probabilities, and the rows of a
    2-d array are no numbers: all raise ValidationError, never TypeError."""
    with pytest.raises(ap.ValidationError):
        ap.build_config(bad)


def test_real_number_types_accepted():
    """Every real number type converts to float: Fraction, Decimal (a
    numbers.Number that is no numbers.Complex), mpmath's mpf and numpy's
    floats and ints."""
    values = [Fraction(1, 4), Decimal("0.5"), mpmath.mpf("0.75"), np.float32(0.125), np.int64(1)]
    cfg = ap.build_config(values)
    assert cfg.probabilities == (0.125, 0.25, 0.5, 0.75, 1.0)
    assert all(type(p) is float for p in cfg.probabilities)


def test_numpy_bools_rejected():
    """numpy's bools have __float__ as Python's do, and are refused as well:
    np.array([True, True]) is no config of two sure bidders."""
    with pytest.raises(ap.ValidationError, match="position 1 .* must be a number"):
        ap.build_config(np.array([True, True]))
    with pytest.raises(ap.ValidationError, match="position 2 .* must be a number"):
        ap.build_config([0.5, np.False_])


def test_out_of_range_names_offender():
    with pytest.raises(ap.ValidationError, match="position 2"):
        ap.build_config([0.5, 1.5, 0.5])


def test_all_zero_rejected():
    with pytest.raises(ap.ValidationError, match="no potential participants"):
        ap.build_config([0.0, 0.0])
    with pytest.raises(ap.ValidationError, match="no potential participants"):
        ap.build_config([])


def test_single_bidder_allowed_but_not_competitive():
    cfg = ap.build_config([0.0, 0.7])
    assert cfg.n == 1
    with pytest.raises(ap.DegenerateAuctionError):
        cfg.require_competition()


def test_config_from_json():
    cfg = ap.config_from_json('{"probabilities": [0.5, 1.0]}')
    assert cfg.probabilities == (0.5, 1.0)
    with pytest.raises(ap.ValidationError):
        ap.config_from_json("not json")
    with pytest.raises(ap.ValidationError):
        ap.config_from_json('{"probs": [0.5]}')
    with pytest.raises(ap.ValidationError):
        ap.config_from_json('{"probabilities": 0.5}')


def test_config_hashable_and_frozen():
    cfg = ap.build_config([0.5, 1.0])
    assert hash(cfg) == hash(ap.build_config([0.5, 1.0]))
    with pytest.raises(AttributeError):
        cfg.probabilities = (0.1,)


def test_config_hash_is_taken_once_and_follows_the_fields():
    """The hash is cached at construction: equal configs hash equal, a
    replaced field re-hashes, and a pickle round trip keeps both ``==`` and
    the hash; the cached field is in neither the repr nor ``==``."""
    cfg = ap.build_config([0.5, 0.0, 1.0, 0.25])
    assert hash(cfg) == hash((cfg.probabilities, cfg.user_order, cfg.dropped))
    assert "_hash" not in repr(cfg)
    other = dataclasses.replace(cfg, dropped=())
    assert other != cfg
    assert hash(other) == hash((other.probabilities, other.user_order, ()))
    assert dataclasses.replace(other, dropped=(2,)) == cfg
    assert hash(dataclasses.replace(other, dropped=(2,))) == hash(cfg)
    back = pickle.loads(pickle.dumps(cfg))
    assert back == cfg and hash(back) == hash(cfg)
    assert {cfg: 1}[back] == 1
