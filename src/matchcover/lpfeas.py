"""Exact rational feasibility for A x = b, x >= 0.

Phase-1 simplex with Bland's least-index rule, so termination is
guaranteed and the answer is exact: feasibility plus one basic feasible
point, no objective of its own.  No production route calls it; it is
the independent oracle the tests check `fractional.decompose` against,
run over every enumerated perfect matching.

The tableau is integer-preserving (Edmonds 1967; Bareiss 1968).  The
system is scaled by the lcm of its denominators, and every entry is an
integer over one common positive denominator `den`, the last pivot.  A
pivot on p leaves its row as it is and updates each other row, and the
reduced-cost row, by (a*p - f*c) // den.  By Sylvester's identity each
result is a minor of the scaled [A | I | b], an integer, so the
division is exact; den is the determinant of the current basis.
Scaling by a positive constant changes no sign and no ratio, so every
entering and leaving choice, and the returned basic solution, equal
those of a `fractions.Fraction` tableau of the same system.  Only the
artificial columns (den * B^-1) and the rhs are stored (the revised
simplex): a real column's entries and reduced cost are sparse dot
products with its scaled column, taken when the pivot rule reads them.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def solve_nonneg(A, b) -> list[Fraction] | None:
    """Return x >= 0 with A x = b, or None when the system is infeasible.

    A is a dense row-major rational matrix (ints are taken as they are,
    anything else through `Fraction`), b a rational vector.  The result
    is the basic feasible solution the rational tableau would reach, so
    at most len(b) of its entries are nonzero.
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    if any(len(row) != cols for row in A):
        raise ValueError("ragged constraint matrix")
    if len(b) != rows:
        raise ValueError("right-hand side length mismatch")
    if rows == 0:
        return []

    A = [[x if isinstance(x, int) else Fraction(x) for x in row] + [Fraction(v)]
         for row, v in zip(A, b)]
    scale = lcm(*{x.denominator for row in A for x in row})
    for i, row in enumerate(A):  # [A | b] scaled to integers, negated if b[i] < 0
        sign = -1 if row[-1] < 0 else 1
        A[i] = [sign * x.numerator * (scale // x.denominator) for x in row]
    columns = [[(i, row[j]) for i, row in enumerate(A) if row[j]] for j in range(cols)]
    # revised tableau: the artificial columns (den * B^-1), then the rhs
    tab = [[0] * i + [1] + [0] * (rows - 1 - i) + [row[cols]] for i, row in enumerate(A)]
    basis = [cols + i for i in range(rows)]
    # reduced-cost row for minimizing the artificial sum, same columns
    obj = [0] * rows + [-sum(line[rows] for line in tab)]

    den = 1
    while True:
        # Bland: least column with a negative reduced cost; den * duals
        # are den - obj[k], so a real column's cost is a sparse dot product
        dual = [den - c for c in obj[:rows]]
        for enter, col in enumerate(columns):
            f = -sum(dual[k] * v for k, v in col)
            if f < 0:
                column = [sum(line[k] * v for k, v in col) for line in tab]
                break
        else:
            k = next((k for k in range(rows) if obj[k] < 0), None)
            if k is None:
                break
            enter, f = cols + k, obj[k]
            column = [line[k] for line in tab]
        leave = None
        for i in range(rows):
            if column[i] > 0:
                if leave is None:
                    leave = i
                    continue
                # ratio rhs_i / column[i] against the best, cross-multiplied
                d = tab[i][rows] * column[leave] - tab[leave][rows] * column[i]
                if d < 0 or (d == 0 and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            # phase-1 objective is bounded below by 0, so this cannot happen
            raise AssertionError("unbounded phase-1 objective")
        prow = tab[leave]
        piv = column[leave]
        for i in range(rows):
            fi = column[i]
            if i == leave or (not fi and piv == den):
                continue
            tab[i] = [(a * piv - fi * c) // den for a, c in zip(tab[i], prow)]
        obj = [(a * piv - f * c) // den for a, c in zip(obj, prow)]
        den = piv
        basis[leave] = enter

    if obj[rows] != 0:
        return None  # the artificial sum stays positive
    x = [Fraction(0)] * cols
    for i, bv in enumerate(basis):
        if bv < cols:
            x[bv] = Fraction(tab[i][rows], den)
    return x
