"""The interval objects of D^b(A_N) and their Euler form.

With n = N - 1, the exceptional objects are the intervals s_{i,j} with
0 <= i <= j <= n, each held as its dimension bitmask.  This is the hom
backend of the aN categories of `nccount.category`; the counting formulas
and orbit oracles of `nccount.typea` build on it, and graph calls load it
without them.
"""

from typing import NamedTuple


class Interval(NamedTuple):
    """The indecomposable representation s_{i,j} supported on [i, j]."""

    i: int
    j: int

    def __str__(self):
        return f"s{self.i},{self.j}"


def interval_mask(iv: Interval, n: int) -> int:
    """Dimension vector of s_{i,j} as a bitmask: bit v is set iff i <= v <= j."""
    if not 0 <= iv.i <= iv.j <= n:
        raise ValueError(f"interval {iv} outside 0..{n}")
    return (2 << iv.j) - (1 << iv.i)


def euler(x: int, y: int) -> int:
    """Euler form <x, y> of the equioriented line on dimension bitmasks:
    the vertex term |x & y| minus the arrows i -> i+1 with i in x and i+1
    in y.  All homs from s_x to s_y sit in one degree, so the total hom
    dimension is |<x, y>|."""
    return (x & y).bit_count() - (x & (y >> 1)).bit_count()


def enum_points(n: int) -> list:
    """All interval objects of the ambient category, (n+1)(n+2)/2 of them."""
    if n < 0:
        raise ValueError("need n >= 0")
    return [Interval(i, j) for i in range(n + 1) for j in range(i, n + 1)]
