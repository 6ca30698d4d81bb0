"""Exact feasibility solver: A x = b, x >= 0 over rationals."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchcover.lpfeas import solve_nonneg

from helpers import solve_nonneg_fraction

F = Fraction


def check(A, b, x):
    assert all(v >= 0 for v in x)
    for row, rhs in zip(A, b):
        assert sum(F(a) * v for a, v in zip(row, x)) == F(rhs)


def test_identity_system():
    A = [[1, 0], [0, 1]]
    b = [F(2, 3), F(5)]
    x = solve_nonneg(A, b)
    assert x == [F(2, 3), F(5)]


def test_single_equation_many_solutions():
    A = [[1, 1, 1]]
    b = [1]
    x = solve_nonneg(A, b)
    check(A, b, x)


def test_infeasible_contradiction():
    assert solve_nonneg([[1, 1], [1, 1]], [1, 3]) is None


def test_infeasible_by_sign():
    # x >= 0 cannot produce a negative sum of nonnegative coefficients
    assert solve_nonneg([[1, 2]], [-1]) is None


def test_negative_rhs_feasible():
    A = [[-1, 0], [0, 1]]
    b = [-3, 2]
    x = solve_nonneg(A, b)
    check(A, b, x)
    assert x[0] == 3


def test_zero_rhs():
    x = solve_nonneg([[1, 2], [3, 4]], [0, 0])
    assert x == [0, 0]


def test_redundant_rows():
    A = [[1, 1], [2, 2]]
    b = [1, 2]
    x = solve_nonneg(A, b)
    check(A, b, x)


def test_empty_system():
    assert solve_nonneg([], []) == []


def test_input_validation():
    with pytest.raises(ValueError, match="ragged"):
        solve_nonneg([[1, 2], [1]], [0, 0])
    with pytest.raises(ValueError, match="length mismatch"):
        solve_nonneg([[1, 2]], [0, 0])


def test_random_solvable_systems_exactly():
    rng = random.Random(1234)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 8)
        A = [
            [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
        xstar = [F(rng.randint(0, 5), rng.randint(1, 2)) for _ in range(cols)]
        b = [sum(a * v for a, v in zip(row, xstar)) for row in A]
        x = solve_nonneg(A, b)
        assert x is not None
        check(A, b, x)


def test_solution_is_basic():
    # a basic feasible point has at most as many nonzeros as rows
    A = [[1, 1, 1, 1, 1]]
    b = [3]
    x = solve_nonneg(A, b)
    assert sum(1 for v in x if v != 0) <= 1
    check(A, b, x)


# scales with denominators up to beyond 64 bits, so clearing them
# produces big integers
SCALES = st.builds(
    Fraction,
    st.integers(1, 5),
    st.sampled_from((1, 2, 3, 7, 10**9 + 7, 2**64 + 13)),
)


@st.composite
def systems(draw):
    """(A, b) with rational entries: zero, redundant and repeated-column
    structure, negative right-hand sides, and both feasible and
    infeasible draws.

    A starts as a small integer matrix, so equal ratios and degenerate
    pivots are common; then each row (with its rhs) and each column is
    multiplied by a rational scale, which keeps every tie."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 6))
    small = st.integers(-3, 3)
    A = [draw(st.lists(small, min_size=cols, max_size=cols)) for _ in range(rows)]
    if draw(st.booleans()):
        # repeated columns make equal ratios, so the tie-break decides
        picks = draw(st.lists(st.integers(0, cols - 1), min_size=1, max_size=3))
        A = [row + [row[j] for j in picks] for row in A]
    if draw(st.booleans()):
        # a zero row: its rhs is 0 when feasible, a contradiction when not
        A[draw(st.integers(0, rows - 1))] = [0] * len(A[0])
    if draw(st.booleans()):
        # x* >= 0 with zeros, so b = A x* is feasible and often degenerate
        xstar = draw(st.lists(st.integers(0, 2), min_size=len(A[0]), max_size=len(A[0])))
        b = [sum(a * v for a, v in zip(row, xstar)) for row in A]
    else:
        b = draw(st.lists(small, min_size=rows, max_size=rows))
    if draw(st.booleans()):
        # a redundant row: a combination of two rows, rhs included
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        s, t = draw(small), draw(small)
        A.append([s * x + t * y for x, y in zip(A[i], A[j])])
        b.append(s * b[i] + t * b[j])
    row_scale = [draw(SCALES) * draw(st.sampled_from((1, -1))) for _ in A]
    col_scale = [draw(SCALES) for _ in A[0]]
    A = [[a * rs * cs for a, cs in zip(row, col_scale)] for row, rs in zip(A, row_scale)]
    b = [v * rs for v, rs in zip(b, row_scale)]
    return A, b


# Each example pins a different part of the pivot path.  The second and
# third are ratio-test ties where the basis-index rule picks a later row
# than the row-index rule would; the first needs Bland's least index (the
# most negative reduced cost enters column 1, not 0); the fourth needs
# the exact division by den at every update; the fifth reads x over den.
TIE_AND_PATH_EXAMPLES = (
    ([[1, 2]], [1]),
    ([[3, 0, 2, 3], [3, 1, 1, 0], [1, 1, 0, 2]], [2, 1, 1]),
    ([[2, 2, 0, 1], [2, 1, 2, 0], [0, 0, 1, 2]], [2, 1, 1]),
    ([[2, 0], [0, 2]], [1, 0]),
    ([[2]], [1]),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(systems())
@example(TIE_AND_PATH_EXAMPLES[0])
@example(TIE_AND_PATH_EXAMPLES[1])
@example(TIE_AND_PATH_EXAMPLES[2])
@example(TIE_AND_PATH_EXAMPLES[3])
@example(TIE_AND_PATH_EXAMPLES[4])
def test_integer_tableau_returns_the_fraction_tableau_point(system):
    A, b = system
    x = solve_nonneg(A, b)
    assert x == solve_nonneg_fraction(A, b)
    if x is not None:
        assert all(type(v) is Fraction for v in x)
        check(A, b, x)


def test_basis_index_breaks_ratio_ties():
    # the Fraction-tableau points of the two tie examples; keeping the
    # first row on a tie reaches (0, 3/7, 4/7, 2/7) and (0, 7/9, 1/9, 4/9)
    assert solve_nonneg(*TIE_AND_PATH_EXAMPLES[1]) == [F(1, 3), 0, 0, F(1, 3)]
    assert solve_nonneg(*TIE_AND_PATH_EXAMPLES[2]) == [F(1, 4), F(1, 2), 0, F(1, 2)]
