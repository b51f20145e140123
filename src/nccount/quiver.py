"""Acyclic quivers, their Euler form and the hereditary rule of their path
algebras.

A quiver on the vertices 0, 1, ..., n - 1 is its tuple of arrows (s, t),
one per arrow s -> t, with 0 <= s < t < n; a repeated pair is a parallel
arrow.  That vertex order makes every quiver acyclic and its Euler matrix
unitriangular, and _check_arrows refuses any other arrow.

Hom and ext never both live on an exceptional pair (Happel-Ringel), so the
Euler form of two roots decides the pair and its homs (pair_rule), and the
Serre functor acts on K_0 as the Coxeter transformation up to sign
(coxeter).  The D_4 and affine modules read both off their roots; the aN
categories keep a bitmask form of the pair rule in `interval`.  span gives
the lattice that roots span, the K_0 of the subcategory an exceptional
sequence generates, as one integer vector.  positive_roots grows the roots
of a Dynkin quiver by arith.closure; an affine quiver has infinitely many,
so the affine module tables those of its objects.
"""

from enum import Enum
from itertools import combinations
from operator import add, mul

from .arith import closure


def _check_arrows(arrows, n: int) -> None:
    """Refuse an arrow s -> t unless 0 <= s < t < n."""
    for s, t in arrows:
        if not 0 <= s < t < n:
            raise ValueError(
                f"the arrow ({s}, {t}) leaves the vertices 0..{n - 1} "
                "or runs against the vertex order")


def line_quiver(n: int) -> tuple:
    """The arrows of the equioriented A-type quiver on 0..n (n + 1 vertices)."""
    if n < 0:
        raise ValueError("line_quiver: need n >= 0")
    return tuple((i, i + 1) for i in range(n))


def _euler_row(arrows, x) -> list:
    """E^T x, the row r with <x, v> = sum(r[i] * v[i]) for every v of the
    length of x, once the arrows are checked against that length."""
    _check_arrows(arrows, len(x))
    out = list(x)
    for s, t in arrows:
        out[t] -= x[s]
    return out


def euler_form(arrows, a, b) -> int:
    """<a, b> = sum_v a_v b_v - sum over the arrows s -> t of a_s b_t, for
    two vectors of one length n on the quiver's vertices 0..n - 1."""
    if len(a) != len(b):
        raise ValueError(f"dimension vectors of lengths {len(a)} and {len(b)}")
    return sum(map(mul, _euler_row(arrows, a), b))


def positive_roots(n: int, arrows) -> list:
    """Sorted dimension vectors of the indecomposables of a Dynkin quiver on
    n vertices: by Gabriel's theorem its positive roots, the x >= 0 with
    <x, x> = 1.

    A non-simple positive root minus some simple root is again one, so the
    roots are the closure of the simple roots under adding one simple root,
    kept while the form stays 1.  The Tits form <x, x> is positive definite
    exactly when the quiver is Dynkin, a disjoint union of A, D and E
    diagrams.  Any other quiver holds a Kronecker or an affine full
    subquiver, whose imaginary root delta is a root of a Dynkin subquiver
    plus a simple root, so the closure reaches delta, where <x, x> = 0,
    unless it stops earlier; the first vector with <x, x> <= 0 that the
    closure reaches, breadth first, is refused by name.
    """
    _check_arrows(arrows, n)
    simple = [tuple(int(v == w) for w in range(n)) for v in range(n)]

    def keep(x):
        q = euler_form(arrows, x, x)
        if q <= 0:
            raise ValueError(f"<x, x> = {q} at x = {x}: the quiver is not Dynkin")
        return q == 1

    moves = (lambda x, e=e: tuple(map(add, x, e)) for e in simple)
    return sorted(closure(simple, *moves, keep=keep))


class PairClass(Enum):
    """The class of an ordered pair of distinct exceptional objects."""

    NOT_EXCEPTIONAL = "not-exceptional"
    ORTHOGONAL = "orthogonal"
    HOM_ONE = "hom-one"
    HOM_TWO = "hom-two"


class _Table(dict):
    """f(x) for each key x, computed on the first lookup of x."""

    def __init__(self, f):
        self.f = f

    def __missing__(self, x):
        self[x] = value = self.f(x)
        return value


def pair_rule(arrows, root) -> tuple:
    """The pair test and the total hom of ordered pairs of exceptional
    objects of the quiver with the given arrows (source, target) on its
    vertices 0, 1, ..., where root(x) is the root of x up to sign: (x, y) is
    a pair iff <y, x> = 0, with |<x, y>| homs from x to y.  Each object's
    root and Euler row (_euler_row) are kept from its first use, so every
    later test is one dot product."""
    roots, rows = _Table(root), _Table(lambda x: _euler_row(arrows, roots[x]))
    return (
        lambda x, y: not sum(map(mul, rows[y], roots[x])),
        lambda x, y: abs(sum(map(mul, rows[x], roots[y]))),
    )


def pair_class(is_pair, total_hom, x, y) -> PairClass:
    """The class of the ordered pair (x, y) of distinct objects under the
    pair test and total hom of pair_rule."""
    if x == y:
        raise ValueError("pair classification needs two distinct objects")
    if not is_pair(x, y):
        return PairClass.NOT_EXCEPTIONAL
    return (PairClass.ORTHOGONAL, PairClass.HOM_ONE, PairClass.HOM_TWO)[total_hom(x, y)]


def coxeter(arrows, v) -> tuple:
    """Serre on K_0 at v: the s with E s = E^T v, E the Euler matrix of the
    quiver with the given arrows on its vertices 0, 1, ...  Serre duality
    <x, z> = <z, Sx> is E^T x = E Sx, so this is minus the Coxeter
    transformation -E^-1 E^T (Ringel, LNM 1099), and it sends the root of an
    exceptional object to that of its Serre image up to sign.  E is
    unitriangular, so the solve runs up from the last vertex on E^T v."""
    out = _euler_row(arrows, v)
    for i in reversed(range(len(out))):
        out[i] += sum(out[t] for s, t in arrows if s == i)
    return tuple(out)


def span(roots) -> tuple:
    """The Pluecker vector of the lattice the roots span: the maximal minors
    of the matrix of the roots as rows, column sets in lexicographic order,
    each minor of rows 0..k expanded along row k.  It is one vector up to
    sign for every basis of the lattice, and two saturated lattices with
    one vector up to sign are equal."""
    minors = {(): 1}
    for k, r in enumerate(roots):
        minors = {
            cols: sum((-1) ** (k - i) * minors[cols[:i] + cols[i + 1:]] * r[c]
                      for i, c in enumerate(cols))
            for cols in combinations(range(len(r)), k + 1)
        }
    return tuple(minors.values())
