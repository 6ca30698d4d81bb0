"""Closed-form coverage bounds and exact decimal rendering."""

from fractions import Fraction
from math import comb, gcd

import pytest

from matchcover import (
    approx_decimal,
    bound_table,
    format_fraction,
    geometric_bound,
    product_bound,
    small_k_bound,
    w_k_entry,
)

import matchcover
from matchcover import bounds, cover, fractional
from matchcover.bounds import w_k_coefficients

from helpers import BOUND_TABLE

F = Fraction


def test_frozen_table_values():
    for (r, k), (rational, _, _) in BOUND_TABLE.items():
        assert product_bound(r, k) == F(rational), (r, k)


def test_usage_weight_has_one_definition():
    assert matchcover.w_k_entry is bounds.w_k_entry
    assert "w_k_entry" not in vars(fractional)  # no second route to w_k in src
    assert cover.w_k_coefficients is bounds.w_k_coefficients


def w_k_closed_form(r, k, count):
    """w_k(count) as the unreduced quotient of each parity of r; w_1 = 1/r."""
    if r % 2 == 0:
        return F((r - 2) * k - (r - 4) - count, (r * r - 2 * r - 1) * k - (r * r - 4 * r - 1))
    return F((r - 1) * k - (r - 3) - 2 * count, (r * r - r - 2) * k - (r * r - 3 * r - 2))


def test_usage_coefficients_in_lowest_terms():
    for r in range(3, 9):
        for k in range(1, 13):
            a, b, d = w_k_coefficients(r, k)
            assert gcd(a, b, d) == 1 and d > 0, (r, k)
            assert b == (k > 1), (r, k)  # w_1 = 1/r has no count term
            for c in range(k):
                assert F(a - b * c, d) == w_k_entry(r, k, c) == w_k_closed_form(r, k, c)
    assert w_k_coefficients(3, 2) == (2, 1, 5)
    with pytest.raises(ValueError, match="r must be at least 3"):
        w_k_coefficients(2, 2)
    with pytest.raises(ValueError, match="k must be at least 1"):
        w_k_coefficients(3, 0)


def test_usage_coefficients_are_affine_in_k_past_the_first_step():
    # a fast cover's stalled tail decides only its two ends on this
    for r in range(3, 13):
        rows = [w_k_coefficients(r, k) for k in range(2, 16)]
        assert all(b == 1 for _, b, _ in rows), r
        for col in ([a for a, _, _ in rows], [d for _, _, d in rows]):
            assert all(x - 2 * y + z == 0 for x, y, z in zip(col, col[1:], col[2:])), r


def test_frozen_table_decimals():
    for (r, k), (rational, decimal, exact) in BOUND_TABLE.items():
        assert approx_decimal(F(rational)) == (decimal, exact), (r, k)


def test_bound_table_shape():
    rows = bound_table()
    assert len(rows) == 24
    assert rows[0] == (3, 2, F(3, 5))
    assert [(r, k) for r, k, _ in rows] == [
        (r, k) for r in (3, 4, 5) for k in range(2, 10)
    ]
    for r, k, b in rows:
        assert b == product_bound(r, k)


def test_cubic_product_factorization():
    # for r = 3 the step factors collapse to (i+1)/(2i+1)
    for k in range(1, 13):
        rest = F(1)
        for i in range(1, k + 1):
            rest *= F(i + 1, 2 * i + 1)
        assert product_bound(3, k) == 1 - rest


def test_geometric_spots():
    assert geometric_bound(3, 1) == F(1, 3)
    assert geometric_bound(3, 2) == F(5, 9)
    assert geometric_bound(4, 2) == F(7, 16)
    assert geometric_bound(5, 0) == 0


def test_first_step_bounds_agree():
    for r in (3, 4, 5, 6):
        assert product_bound(r, 1) == geometric_bound(r, 1) == F(1, r)
        assert small_k_bound(r, 1) == F(1, r)


def test_product_dominates_geometric():
    for r in (3, 4, 5, 6, 7):
        for k in range(0, 13):
            assert product_bound(r, k) >= geometric_bound(r, k), (r, k)


def test_small_k_dominates_product_in_range():
    for r in (3, 4, 5, 6):
        for k in range(1, 2 * r):
            assert small_k_bound(r, k) >= product_bound(r, k), (r, k)


def test_small_k_closed_form():
    # the closed form is the telescoped product 1 - prod (2r-1-i)/(2r+1-i),
    # and the expected coverage of k matchings drawn from a double cover's 2r
    for r in (3, 4, 5):
        for k in range(0, 2 * r):
            rest = F(1)
            for i in range(1, k + 1):
                rest *= F(2 * r - 1 - i, 2 * r + 1 - i)
            assert small_k_bound(r, k) == 1 - rest
            assert small_k_bound(r, k) == 1 - F(comb(2 * r - 2, k), comb(2 * r, k))


def test_bounds_monotone_in_k():
    for r in (3, 4, 5):
        for k in range(1, 12):
            assert product_bound(r, k) > product_bound(r, k - 1)
            assert geometric_bound(r, k) > geometric_bound(r, k - 1)


def test_bounds_stay_below_one():
    for r in (3, 4, 5):
        for k in range(0, 40):
            assert 0 <= product_bound(r, k) < 1


def test_argument_validation():
    with pytest.raises(ValueError):
        product_bound(2, 3)
    with pytest.raises(ValueError):
        geometric_bound(3, -1)
    with pytest.raises(ValueError, match="k <= 5"):
        small_k_bound(3, 6)


def test_format_fraction():
    assert format_fraction(F(3, 5)) == "3/5"
    assert format_fraction(F(1)) == "1"
    assert format_fraction(F(0)) == "0"
    assert format_fraction(F(-2, 7)) == "-2/7"


def test_approx_decimal_edges():
    assert approx_decimal(F(1)) == ("1.0", True)
    assert approx_decimal(F(0)) == ("0.0", True)
    assert approx_decimal(F(1, 3)) == ("0.3333", False)
    assert approx_decimal(F(-1, 2)) == ("-0.5", True)
    assert approx_decimal(F(1, 10000)) == ("0.0001", True)
    assert approx_decimal(F(4621, 6601)) == ("0.7", False)  # rounds to 0.7000


def test_approx_decimal_rounds_half_even():
    assert approx_decimal(F(1, 20000)) == ("0.0", False)      # 0.5e-4 -> 0
    assert approx_decimal(F(3, 20000)) == ("0.0002", False)   # 1.5e-4 -> 2
