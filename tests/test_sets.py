from fractions import Fraction

import pytest

from quotlab.errors import InputError
from quotlab.sets import GroundSet, SetSpec, generate_set


def spec_of(**kwargs):
    return SetSpec.from_dict(kwargs)


def test_arithmetic_progression():
    ground = generate_set(spec_of(kind="arithmetic", start=1, step=1, size=5))
    assert list(ground) == [Fraction(k) for k in (1, 2, 3, 4, 5)]


def test_arithmetic_rational_step():
    ground = generate_set(spec_of(kind="arithmetic", start="1/2", step="1/3", size=3))
    assert list(ground) == [Fraction(1, 2), Fraction(5, 6), Fraction(7, 6)]


def test_geometric_progression():
    ground = generate_set(spec_of(kind="geometric", start=1, ratio=2, size=4))
    assert list(ground) == [Fraction(k) for k in (1, 2, 4, 8)]


def test_geometric_rejects_collapsing_ratio():
    for ratio in (0, 1):
        with pytest.raises(InputError):
            generate_set(spec_of(kind="geometric", start=1, ratio=ratio, size=3))
    with pytest.raises(InputError):
        generate_set(spec_of(kind="geometric", start=0, ratio=2, size=2))
    with pytest.raises(InputError):
        generate_set(spec_of(kind="geometric", start=1, ratio=-1, size=3))


def test_random_set_deterministic():
    spec = spec_of(kind="uniform-random-integer", range=[1, 100], size=10, seed=7)
    first = generate_set(spec)
    second = generate_set(spec)
    assert first == second
    assert len(first) == 10
    assert all(v.denominator == 1 and 1 <= v <= 100 for v in first)


def test_random_set_seed_changes_content():
    base = spec_of(kind="uniform-random-integer", range=[1, 1000], size=12, seed=1)
    other = spec_of(kind="uniform-random-integer", range=[1, 1000], size=12, seed=2)
    assert generate_set(base) != generate_set(other)


def test_random_range_too_small():
    with pytest.raises(InputError, match="range"):
        generate_set(spec_of(kind="uniform-random-integer", range=[1, 5], size=10, seed=0))


def test_explicit_values_and_duplicates():
    ground = generate_set(spec_of(kind="explicit", values=["1/2", "-3", "0"]))
    assert list(ground) == [Fraction(-3), Fraction(0), Fraction(1, 2)]
    with pytest.raises(InputError):
        generate_set(spec_of(kind="explicit", values=["1", "2/2"]))


def test_unknown_kind_and_fields_rejected():
    with pytest.raises(InputError, match="kind"):
        SetSpec.from_dict({"kind": "fibonacci", "size": 3})
    with pytest.raises(InputError, match="kind"):  # a kind that cannot be a dict key
        SetSpec.from_dict({"kind": ["arithmetic"], "size": 3})
    with pytest.raises(InputError, match="unknown"):
        SetSpec.from_dict({"kind": "arithmetic", "size": 3, "ratio": 2})


def test_with_size_keeps_family():
    spec = spec_of(kind="arithmetic", start=2, step=3, size=4)
    bigger = generate_set(spec.with_size(6))
    assert len(bigger) == 6
    assert set(generate_set(spec)) <= set(bigger)


def test_with_size_rejected_for_explicit():
    spec = spec_of(kind="explicit", values=["1", "2"])
    with pytest.raises(InputError):
        spec.with_size(4)


def test_generate_set_refuses_a_size_below_one_that_from_dict_never_read():
    spec = SetSpec(kind="arithmetic", start="1", step="1", size=0)
    with pytest.raises(InputError, match=r"^set size must be >= 1$"):
        generate_set(spec)


def test_ground_set_sorted_distinct():
    ground = GroundSet.of("1/2", -1, 3)
    assert list(ground) == [Fraction(-1), Fraction(1, 2), Fraction(3)]
    assert isinstance(ground, tuple) and ground == (Fraction(-1), Fraction(1, 2), Fraction(3))
    assert Fraction(1, 2) in ground
    assert Fraction(2) not in ground
    assert 4 not in ground
    with pytest.raises(InputError, match="duplicate"):
        GroundSet.of(1, "2/2", 2)


def test_ground_set_repr_truncates_after_eight_elements():
    assert repr(GroundSet.of("1/2", -1, 3)) == "GroundSet({-1, 1/2, 3}, size=3)"
    assert repr(GroundSet.of(*range(1, 9))) == "GroundSet({1, 2, 3, 4, 5, 6, 7, 8}, size=8)"
    assert repr(GroundSet.of(*range(1, 10))) == \
        "GroundSet({1, 2, 3, 4, 5, 6, 7, 8, ...}, size=9)"


def test_spec_round_trip():
    raw = {"kind": "geometric", "size": 5, "start": "1/2", "ratio": "3"}
    assert dict(SetSpec.from_dict(raw)) == raw


@pytest.mark.parametrize("fields", [
    {"kind": "arithmetic", "size": True},
    {"kind": "geometric", "size": True},
    {"kind": "uniform-random-integer", "range": [False, 9], "size": 4},
    {"kind": "uniform-random-integer", "range": [1, True], "size": 4},
    {"kind": "uniform-random-integer", "range": [1, 9], "size": 4, "seed": True},
], ids=["arithmetic-size", "geometric-size", "range-lo", "range-hi", "seed"])
def test_spec_integers_reject_booleans(fields):
    # JSON true/false are Python bools, which isinstance(v, int) accepts
    with pytest.raises(InputError):
        SetSpec.from_dict(fields)
