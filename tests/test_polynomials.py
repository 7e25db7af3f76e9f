import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quotlab.errors import InputError
from quotlab.polynomials import (Poly, _format_terms, bivariate_from_terms,
                                 bivariate_to_terms, degeneracy_test)

from oracles import (SLOPE_DIFFERENCE, divide_by_linear, pair_difference,
                     poly_add, poly_mul, random_polynomial,
                     random_x_free_polynomial)

G_X = Poly({(1, 0): Fraction(1)})
G_Y2 = Poly({(0, 2): Fraction(1)})
G_XY = Poly({(1, 1): Fraction(1)})


def frac(p, q=1):
    return Fraction(p, q)


# -- evaluation and degree ---------------------------------------------------

def test_evaluate_xy():
    assert G_XY.evaluate((frac(2), frac(3))) == 6


def test_evaluate_y_squared():
    assert G_Y2.evaluate((frac(5), frac(-2))) == 4


def test_evaluate_mixed_rational_point():
    g = Poly({(2, 0): frac(1), (0, 1): frac(1)})  # x^2 + y
    assert g.evaluate((frac(1, 2), frac(1, 3))) == frac(7, 12)


def test_total_degree():
    assert Poly({(3, 2): frac(1)}).total_degree() == 5
    assert Poly({(0, 0): frac(7)}).total_degree() == 0
    assert Poly().total_degree() is None


@pytest.mark.parametrize("key", [(-1, 0), (0, -2), (1, 2, 3), (1,)])
def test_exponent_key_not_a_nonnegative_pair_is_refused(key):
    with pytest.raises(InputError, match=re.escape(repr(key))):
        Poly({key: frac(1)})


@pytest.mark.parametrize("key", [5, "xy", (1.0, 0), (True, 0)])
def test_exponent_key_of_other_type_is_refused(key):
    with pytest.raises(InputError, match="not a pair of nonnegative integers"):
        Poly({key: frac(1)})


def test_repr_of_mixed_rational_polynomial_is_pinned():
    g = bivariate_from_terms([{"c": "1", "i": 1, "j": 3}, {"c": "-1/2", "i": 2, "j": 1},
                              {"c": "-1", "i": 1, "j": 0}, {"c": "3/4", "i": 0, "j": 1},
                              {"c": "-2", "i": 0, "j": 0}])
    assert repr(g) == "Poly(-1/2*x^2*y + x*y^3 - x + 3/4*y - 2)"


def test_polynomials_are_equal_exactly_when_their_terms_are():
    g = Poly({(1, 1): frac(1), (0, 2): frac(1, 2)})
    assert g == Poly({(0, 2): frac(1, 2), (1, 1): frac(1)})
    assert g != Poly({(1, 1): frac(1), (0, 2): frac(1, 3)})
    assert g != Poly({(1, 1): frac(1)})
    assert g == {(0, 2): frac(1, 2), (1, 1): frac(1)}  # g is the dict of its terms
    assert isinstance(g, dict)
    assert g != "x*y + 1/2*y^2"


@given(st.fractions(max_denominator=10), st.fractions(max_denominator=10))
def test_evaluation_is_additive(x, y):
    rng = random.Random(hash((x, y)) & 0xFFFF)
    g = random_polynomial(rng, require_x=False)
    h = random_polynomial(rng, require_x=False)
    total = dict(g)
    for exps, coeff in h.items():
        total[exps] = total.get(exps, 0) + coeff
    point = (x, y)
    assert Poly(total).evaluate(point) == g.evaluate(point) + h.evaluate(point)


# -- JSON term lists ---------------------------------------------------------

def test_bivariate_json_round_trip():
    terms = [{"c": "-1/2", "i": 2, "j": 0}, {"c": "3", "i": 0, "j": 1}]
    g = bivariate_from_terms(terms)
    assert bivariate_to_terms(g) == [{"c": "3", "i": 0, "j": 1},
                                     {"c": "-1/2", "i": 2, "j": 0}]


def test_bivariate_json_duplicate_exponents_rejected():
    with pytest.raises(InputError, match="duplicate"):
        bivariate_from_terms([{"c": "1", "i": 1, "j": 0},
                              {"c": "2", "i": 1, "j": 0}])


def test_bivariate_json_bad_fields_rejected():
    with pytest.raises(InputError):
        bivariate_from_terms([{"c": "1", "i": 1}])
    with pytest.raises(InputError):
        bivariate_from_terms([{"c": "1", "i": -1, "j": 0}])


# -- linear division oracle --------------------------------------------------

def test_divide_difference_of_squares():
    # y1^2 - y2^2 = (y2 - y1) * (-(y1 + y2)), remainder 0
    h = {(0, 0, 2, 0): frac(1), (0, 0, 0, 2): frac(-1)}
    q, r = divide_by_linear(h, SLOPE_DIFFERENCE)
    assert r == {}
    assert q == {(0, 0, 1, 0): frac(-1), (0, 0, 0, 1): frac(-1)}


def test_divide_independent_dividend():
    h = {(1, 0, 0, 0): frac(1), (0, 1, 0, 0): frac(-1)}  # x1 - x2
    q, r = divide_by_linear(h, SLOPE_DIFFERENCE)
    assert q == {}
    assert r == h


def test_divide_constructed_multiple():
    factor = {(1, 0, 1, 0): frac(1)}  # x1*y1
    h = poly_mul(SLOPE_DIFFERENCE, factor)
    q, r = divide_by_linear(h, SLOPE_DIFFERENCE)
    assert r == {}
    assert q == factor


def test_divide_rejects_constant_divisor():
    with pytest.raises(ValueError, match="constant"):
        divide_by_linear({(0, 0, 0, 0): frac(1)}, {(0, 0, 0, 0): frac(2)})


def test_divide_rejects_quadratic_divisor():
    quad = {(0, 0, 0, 2): frac(1)}
    with pytest.raises(ValueError, match="linear"):
        divide_by_linear({(0, 0, 0, 0): frac(1)}, quad)


@given(st.integers(min_value=0, max_value=10**6))
def test_divide_reconstructs_dividend(seed):
    rng = random.Random(seed)
    g = random_polynomial(rng, require_x=False)
    h = pair_difference(g)
    q, r = divide_by_linear(h, SLOPE_DIFFERENCE)
    assert poly_add(poly_mul(SLOPE_DIFFERENCE, q), r) == h
    assert all(exps[3] == 0 for exps in r)  # remainder free of the lead variable


# -- degeneracy --------------------------------------------------------------

def test_degeneracy_y_squared():
    verdict = degeneracy_test(G_Y2)
    # the dict the degeneracy report carries, not a record type
    assert type(verdict) is dict and set(verdict) == {"degenerate", "witness"}
    assert verdict["degenerate"]
    assert "(y2 - y1)" in verdict["witness"]


def test_degeneracy_x():
    assert not degeneracy_test(G_X)["degenerate"]


def test_degeneracy_xy():
    verdict = degeneracy_test(G_XY)
    assert type(verdict) is dict and set(verdict) == {"degenerate", "witness"}
    assert not verdict["degenerate"]


def test_degeneracy_zero_and_constant():
    assert degeneracy_test(Poly())["degenerate"]
    assert degeneracy_test(Poly({(0, 0): 5}))["degenerate"]


def test_degenerate_witness_carries_certificate():
    verdict = degeneracy_test(G_Y2)
    assert "-y1 - y2" in verdict["witness"]


DEGENERATE = "g has no x-dependent term; g(x1,y1) - g(x2,y2) = (y2 - y1) * "


def test_witness_text_is_pinned():
    cases = [
        (Poly(), DEGENERATE + "(0)"),
        (Poly({(0, 0): 5}), DEGENERATE + "(0)"),
        (G_Y2, DEGENERATE + "(-y1 - y2)"),
        (Poly({(0, 3): frac(1), (0, 1): frac(-2), (0, 0): frac(1, 2)}),
         DEGENERATE + "(-y1^2 - y1*y2 - y2^2 + 2)"),
        (G_XY, "g(x1,y) - g(x2,y) = x1*y - x2*y, not identically zero"),
        (Poly({(1, 0): frac(1), (0, 2): frac(1)}),
         "g(x1,y) - g(x2,y) = x1 - x2, not identically zero"),
    ]
    for g, witness in cases:
        assert degeneracy_test(g)["witness"] == witness


def test_hundred_random_polynomials_match_division_oracle():
    rng = random.Random(20260808)
    for k in range(100):
        g = random_polynomial(rng, max_degree=4, require_x=bool(k % 2))
        fast = degeneracy_test(g)["degenerate"]
        _, remainder = divide_by_linear(pair_difference(g), SLOPE_DIFFERENCE)
        assert fast == (remainder == {})
        assert fast == (not any(i > 0 for i, _ in g))


def test_x_free_witness_cofactor_matches_division_oracle():
    rng = random.Random(4040)
    for _ in range(120):
        g = random_x_free_polynomial(rng, max_degree=5)
        verdict = degeneracy_test(g)
        quotient, remainder = divide_by_linear(pair_difference(g), SLOPE_DIFFERENCE)
        assert verdict["degenerate"] and remainder == {}
        cofactor = _format_terms(quotient, ("x1", "x2", "y1", "y2"))
        assert verdict["witness"] == DEGENERATE + f"({cofactor})"
