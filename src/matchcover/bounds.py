"""Coverage fractions for k perfect matchings of an r-graph.

Three closed forms for the fraction of edges of an r-graph coverable by
k perfect matchings, all exact rationals:

* `geometric_bound`: 1 - ((r-1)/r)^k, from the crude argument that each
  step covers at least 1/r of what remains.
* `product_bound`: the sharper product using the usage-count weights;
  this is the bound the greedy cover certifies against, and the value
  the bound table prints.
* `small_k_bound`, for k <= 2r-1: the expected coverage of k of the 2r
  matchings of a double cover, so a lower bound only under the
  generalized Berge-Fulkerson conjecture (SMALL_K_HYPOTHESIS).

`w_k_entry` is the per-edge weight used by the greedy cover: after
k-1 matchings have been chosen, an edge used count times gets weight
w_k(count), a strictly decreasing affine function of count normalized
so vertex stars sum to 1; `w_k_coefficients` gives its integers.  The
two parities of r need different coefficients.  The minimum sits at
count k-1, and its sharp floor depends on r: exactly 1/(2k+1) for
r = 3, strictly above 1/(r+3) for even r and strictly above 1/(r+4)
for odd r >= 5.  No constant floor holds for r = 3, because the cubic
weights are forced by the cubic product bound 1 - prod (i+1)/(2i+1).

Also hosts the exact -> decimal rendering used by the CLI: round
half-even to four places, strip trailing zeros, keep at least one
decimal, and flag values that are exact at four places.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

TABLE_RS = (3, 4, 5)  # the r and k rows and columns of bound_table
TABLE_KS = range(2, 10)
PLACES = 4  # the decimal places of approx_decimal
SMALL_K_HYPOTHESIS = "generalized Berge-Fulkerson conjecture"


def _check_rk(r: int, k: int):
    if r < 3:
        raise ValueError(f"r must be at least 3, got {r}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")


def geometric_bound(r: int, k: int) -> Fraction:
    """1 - ((r-1)/r)^k."""
    _check_rk(r, k)
    return 1 - Fraction(r - 1, r) ** k


def w_k_coefficients(r: int, k: int) -> tuple[int, int, int]:
    """(a, b, d) in lowest terms with w_k(count) = (a - b*count)/d.

    Defined for r >= 3 and k >= 1; b is 1, except b = 0 for w_1 = 1/r.
    Every coefficient of the odd-r form is even, so it is halved.
    """
    if r < 3:
        raise ValueError(f"r must be at least 3, got {r}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k == 1:
        return 1, 0, r
    if r % 2 == 0:
        return (r - 2) * k - (r - 4), 1, (r * r - 2 * r - 1) * k - (r * r - 4 * r - 1)
    return ((r - 1) * k - (r - 3)) // 2, 1, ((r * r - r - 2) * k - (r * r - 3 * r - 2)) // 2


def w_k_entry(r: int, k: int, count: int) -> Fraction:
    """Weight of an edge used `count` times among k-1 chosen matchings.

    Defined for r >= 3 and 1 <= k, with 0 <= count <= k-1.  Strictly
    positive and strictly below 1 throughout that range, and affine
    decreasing in count, so heavily used edges are devalued.  The
    minimum is at count k-1: exactly 1/(2k+1) for r = 3 (equal to 1/7
    at k = 3 and below it for larger k), strictly above 1/(r+3) for even
    r, and strictly above 1/(r+4) for odd r >= 5.  The last two floors
    are the limits as k grows for r = 4 and r = 5.
    """
    a, b, d = w_k_coefficients(r, k)
    if not 0 <= count <= k - 1:
        raise ValueError(f"count must lie in 0..{k - 1}, got {count}")
    return Fraction(a - b * count, d)


def product_bound(r: int, k: int) -> Fraction:
    """The per-step product bound matching the greedy certificates.

    Each factor is 1 minus the step-i certified gain rate w_i(0), so
    the product telescopes the uncovered fraction across i = 1..k.
    """
    _check_rk(r, k)
    rest = Fraction(1)
    for i in range(1, k + 1):
        rest *= 1 - w_k_entry(r, i, 0)
    return 1 - rest


def small_k_bound(r: int, k: int) -> Fraction:
    """1 - (2r-k)(2r-1-k)/(2r(2r-1)), for k <= 2r-1.  The quotient is the
    chance C(2r-2, k)/C(2r, k) that k random matchings of a double cover
    miss a given edge: a floor for every r-graph only if each has one.
    """
    _check_rk(r, k)
    if k > 2 * r - 1:
        raise ValueError(f"small-k bound only holds for k <= {2 * r - 1}, got k = {k}")
    return 1 - Fraction((2 * r - k) * (2 * r - 1 - k), 2 * r * (2 * r - 1))


def bound_table() -> list[tuple[int, int, Fraction]]:
    """(r, k, product_bound) rows over TABLE_RS x TABLE_KS, r-major."""
    return [(r, k, product_bound(r, k)) for r in TABLE_RS for k in TABLE_KS]


def format_fraction(f: Fraction) -> str:
    """Reduced 'p/q', or a bare integer when q is 1, digit for digit.
    Decimal renders integers past Python's int-to-str digit limit."""
    f = Fraction(f)
    p, q = str(Decimal(f.numerator)), str(Decimal(f.denominator))
    return p if q == "1" else f"{p}/{q}"


def approx_decimal(f: Fraction) -> tuple[str, bool]:
    """Decimal rendering and exactness flag.

    Rounds half-even to PLACES, strips trailing zeros but keeps at
    least one decimal digit.  The flag is True when the value needs no
    rounding at that precision.
    """
    f = Fraction(f)
    if f < 0:
        s, exact = approx_decimal(-f)
        return "-" + s, exact
    scale = 10**PLACES
    scaled = f * scale
    rounded = round(scaled)
    exact = scaled == rounded
    digits = f"{rounded % scale:0{PLACES}d}".rstrip("0") or "0"
    return f"{rounded // scale}.{digits}", exact
