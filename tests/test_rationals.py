from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quotlab.errors import InputError
from quotlab.rationals import as_rational, format_key, format_rational, parse_rational

from oracles import scaled_ints


def test_normalize_reduces():
    assert as_rational("2/4") == Fraction(1, 2)


def test_normalize_canonicalizes_sign():
    r = as_rational("-3/6")
    assert (r.numerator, r.denominator) == (-1, 2)


def test_normalize_zero():
    r = as_rational("0/5")
    assert (r.numerator, r.denominator) == (0, 1)


def test_normalize_zero_denominator():
    with pytest.raises(InputError, match="zero denominator"):
        as_rational("1/0")


def test_arithmetic_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(1, 2) * Fraction(2, 3) == Fraction(1, 3)
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0)


def test_total_order_examples():
    # scaled integers sort exactly like the rationals they stand for
    values = [Fraction(1, 3), Fraction(1, 2), Fraction(-1, 2), Fraction(2),
              Fraction(3, 2), Fraction(-2, 4)]
    scaled, _ = scaled_ints(values)
    assert scaled[2] == scaled[5]
    order = range(len(values))
    assert sorted(order, key=scaled.__getitem__) == sorted(order, key=values.__getitem__)


@pytest.mark.parametrize("text,expected", [
    ("5", Fraction(5)),
    ("-3", Fraction(-3)),
    ("1/2", Fraction(1, 2)),
    ("-3/6", Fraction(-1, 2)),
    ("0", Fraction(0)),
])
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("text", ["", "+3", "1.5", "1e3", " 3", "3 ", "1/0",
                                  "1/-2", "a/b", "1/2/3"])
def test_parse_rational_rejects(text):
    with pytest.raises(InputError):
        parse_rational(text)


def test_format_rational():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(0)) == "0"


@given(st.integers(-10 ** 30, 10 ** 30), st.integers(-10 ** 6, 10 ** 6),
       st.integers(1, 10 ** 12))
def test_format_key_writes_the_text_of_the_fraction(key, num, den):
    assert format_key(key, (num, den)) == format_rational(Fraction(key * num, den))


@given(st.fractions(), st.integers(1, 10 ** 6))
def test_format_rational_and_format_key_write_the_same_text(value, k):
    # str(Fraction) writes "p/q", or "p" when q is 1, independently of quotlab
    text = format_key(value.numerator * k, (1, value.denominator * k))
    assert format_rational(value) == text == str(value)


def test_parse_format_round_trip():
    for text in ["0", "7", "-7", "22/7", "-22/7"]:
        assert format_rational(parse_rational(text)) == text


def test_as_rational_rejects_bool_and_float():
    with pytest.raises(InputError):
        as_rational(True)
    with pytest.raises(InputError):
        as_rational(0.5)


@given(st.integers(min_value=-10**6, max_value=10**6),
       st.integers(min_value=-10**6, max_value=10**6).filter(lambda q: q != 0),
       st.integers(min_value=-50, max_value=50).filter(lambda k: k != 0))
def test_normalize_scale_invariance(p, q, k):
    # the text form carries the sign on the numerator only
    if q < 0:
        p, q = -p, -q
    if k < 0:
        k = -k
    assert as_rational(f"{p}/{q}") == as_rational(f"{k * p}/{k * q}") == Fraction(p, q)


@given(st.fractions(max_denominator=50), st.fractions(max_denominator=50))
def test_order_matches_cross_multiplication(a, b):
    sign = (a.numerator * b.denominator) - (b.numerator * a.denominator)
    (sa, sb), _ = scaled_ints([a, b])
    assert (sa > sb) - (sa < sb) == (sign > 0) - (sign < 0)


@given(st.fractions(max_denominator=30), st.fractions(max_denominator=30),
       st.fractions(max_denominator=30))
def test_field_axioms_sampled(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == Fraction(0)


@given(st.lists(st.fractions(max_denominator=40), min_size=1, max_size=12))
def test_scaled_ints_preserve_values(values):
    scaled, scale = scaled_ints(values)
    assert scale > 0
    assert [Fraction(s, scale) for s in scaled] == values
