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
    ["abc", None, [0.3], 10**400, True, "0.5", b"0.5"],
    ids=["str", "none", "list", "huge_int", "bool", "numeric_str", "bytes"],
)
def test_non_number_rejected(bad):
    with pytest.raises(ap.ValidationError, match="position 2 .* must be a number"):
        ap.build_config([0.5, bad])


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
