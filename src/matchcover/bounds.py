"""Guaranteed coverage fractions for k greedily chosen matchings.

Three closed-form lower bounds on the fraction of edges of an r-graph
coverable by k perfect matchings, all exact rationals:

* `geometric_bound`: 1 - ((r-1)/r)^k, from the crude argument that each
  step covers at least 1/r of what remains.
* `product_bound`: the sharper product using the usage-count weights;
  this is the bound the greedy cover certifies against, and the value
  the bound table prints.
* `small_k_bound`: a further improvement valid only for k <= 2r-1.

`w_k_entry` is the per-edge weight used by the greedy cover: after
k-1 matchings have been chosen, an edge used count times gets weight
w_k(count), a strictly decreasing affine function of count normalized
so vertex stars sum to 1.  The two parities of r need different
coefficients.  The minimum sits at count k-1, and its sharp floor
depends on r: exactly 1/(2k+1) for r = 3, strictly above 1/(r+3) for
even r and strictly above 1/(r+4) for odd r >= 5.  No constant floor
holds for r = 3, because the cubic weights are forced by the cubic
product bound 1 - prod (i+1)/(2i+1).

Also hosts the exact -> decimal rendering used by the CLI: round
half-even to four places, strip trailing zeros, keep at least one
decimal, and flag values that are exact at four places.
"""

from __future__ import annotations

from fractions import Fraction

TABLE_RS = (3, 4, 5)  # the r and k rows and columns of bound_table
TABLE_KS = range(2, 10)
PLACES = 4  # the decimal places of approx_decimal


def _check_rk(r: int, k: int):
    if r < 3:
        raise ValueError(f"r must be at least 3, got {r}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")


def geometric_bound(r: int, k: int) -> Fraction:
    """1 - ((r-1)/r)^k."""
    _check_rk(r, k)
    return 1 - Fraction(r - 1, r) ** k


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
    if r < 3:
        raise ValueError(f"r must be at least 3, got {r}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not 0 <= count <= k - 1:
        raise ValueError(f"count must lie in 0..{k - 1}, got {count}")
    if r % 2 == 0:
        num = (r - 2) * k - (r - 4) - count
        den = (r * r - 2 * r - 1) * k - (r * r - 4 * r - 1)
    else:
        num = (r - 1) * k - (r - 3) - 2 * count
        den = (r * r - r - 2) * k - (r * r - 3 * r - 2)
    return Fraction(num, den)


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
    """The early-step improvement 1 - prod (2r-1-i)/(2r+1-i), for k <= 2r-1."""
    _check_rk(r, k)
    if k > 2 * r - 1:
        raise ValueError(f"small-k bound only holds for k <= {2 * r - 1}, got k = {k}")
    rest = Fraction(1)
    for i in range(1, k + 1):
        rest *= Fraction(2 * r - 1 - i, 2 * r + 1 - i)
    return 1 - rest


def bound_table() -> list[tuple[int, int, Fraction]]:
    """(r, k, product_bound) rows over TABLE_RS x TABLE_KS, r-major."""
    return [(r, k, product_bound(r, k)) for r in TABLE_RS for k in TABLE_KS]


def format_fraction(f: Fraction) -> str:
    """Reduced 'p/q', or a bare integer when q is 1."""
    f = Fraction(f)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


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
