"""The categories of the graph layer, one record each.

`category(name, window)` is the one place a category name is parsed.  Its
record lists the objects by vertex label and carries the pair test and the
hom that the graph, complex, census and incidence builders need, so none of
them asks which category it has.  The names are 'aN' (D^b(A_N), N >= 1),
'd4', the affine quivers 'q1' and 'q2', and 'npL', the category generated
by a strong pair with L + 1 homs (L >= -1).  q1, q2 and npL with L >= 1
take a window (lo, hi) of series indices, inclusive, and no other
category does.  The records built without a window are the categories of
finite type, whose objects are all the indecomposables up to shift, as
census.subcategories requires.  Every record whose size depends on its
name or window is refused up front, before its objects are built, when its
graph would classify more than arith.MAX_ENUMERATION ordered pairs of
objects.  Records are built per call, so they use the backend functions as
their modules bind them at that moment; each builder imports its own
backend, so a record loads only the modules its category needs.
"""

import re
from typing import Callable, NamedTuple

from .arith import check_enumeration


class Category(NamedTuple):
    """Objects and homs of one category, as the graph builders see them.

    is_pair(x, y) holds iff every hom from y to x vanishes: (x, y) is a
    semi-orthogonal pair.  total_hom(x, y) is the total forward hom of such
    a pair, None on a curve record, whose edges carry no weight.  genus
    holds the genus of each curve of a curve category, and curves, where
    curve graphs exist, returns the category whose objects are the curves.

    Every record keeps one contract, which its readers do not check:
    is_pair(x, x) never holds, and in a record built without a window
    (finite type) an exceptional pair has at most one hom, since the curve
    D^b(K(l)) of a pair with l >= 2 homs, of genus l - 1, has infinitely
    many exceptional objects.
    """

    name: str
    objects: dict  # vertex label -> object
    is_pair: Callable
    total_hom: Callable
    genus: dict | None = None
    curves: Callable | None = None


def category(name: str, window=None) -> Category:
    """The record of the named category, with window = (lo, hi) for the
    windowed ones."""
    # ASCII integers without leading zeros, so that each category has one name
    m = re.fullmatch(r"a(0|[1-9][0-9]*)|np(0|-?[1-9][0-9]*)|(d4|q1|q2)", name)
    if m is None:
        raise ValueError(f"unknown category {name!r}")
    vertices, genus, fixed = m.groups()
    windowed = fixed in ("q1", "q2") or genus is not None and int(genus) >= 1
    if window is not None and not windowed:
        raise ValueError(f"{name} takes no window")
    if windowed:
        if window is None:
            raise ValueError("this category needs a finite window=(lo, hi)")
        if window[0] > window[1]:
            raise ValueError("empty window")
    if vertices is not None:
        return _line(name, int(vertices))
    if fixed == "d4":
        return _d4(name)
    if fixed is not None:
        return _affine(name, *window)
    return _strong_pair(name, int(genus), window)


def _check_size(objects: int) -> None:
    """Refuse, before it is built, a category whose graph would classify
    more than arith.MAX_ENUMERATION ordered pairs of its objects."""
    check_enumeration(objects * objects, f"{objects}^2 vertex pairs")


def _line(name, vertices):
    from . import interval
    if vertices < 1:
        raise ValueError("need at least one vertex")
    _check_size(vertices * (vertices + 1) // 2)
    n = vertices - 1
    points = interval.enum_points(n)
    masks = {p: interval.interval_mask(p, n) for p in points}

    def mask(iv):
        # an interval outside 0..n is refused by interval_mask
        return masks.get(iv) or interval.interval_mask(iv, n)

    return Category(
        name,
        {str(p): p for p in points},
        lambda x, y: interval.euler(mask(y), mask(x)) == 0,
        lambda x, y: abs(interval.euler(mask(x), mask(y))),
    )


def _d4(name):
    from . import d4

    def curves():
        return _curve_category(points, [
            (str(s), genus, s.generators)
            for genus, kind in ((0, "genus0"), (-1, "genus-1"))
            for s in d4.d4_enum(kind)
        ])

    points = Category(name, {x: x for x in d4.LABELS}, *d4.RULE, curves=curves)
    return points


def _affine(name, lo, hi):
    from . import affine

    def curves():
        return _curve_category(points, [
            (str(s), genus, s.generators())
            for genus in (1, 0, -1)
            for s in affine.aff_enum_curves(name, genus, (lo, hi))
        ])

    series, sporadic = affine.SERIES[name], affine.SPORADIC[name]
    _check_size(len(series) * (hi - lo + 1) + len(sporadic))
    objs = [affine.obj(name, fam, m) for fam in series for m in range(lo, hi + 1)]
    objs += [affine.obj(name, fam) for fam in sporadic]
    points = Category(name, {str(o): o for o in objs}, *affine.RULES[name],
                      curves=curves)
    return points


def _strong_pair(name, l, window):
    if l < -1:
        raise ValueError("genus must be >= -1")
    if l == -1:
        return Category(name, {"E1": 1, "E2": 2}, lambda x, y: x != y, lambda x, y: 0)
    if l == 0:
        return _line(name, 2)
    lo, hi = window
    _check_size(hi - lo + 1)
    return Category(
        name,
        {f"s{i}": i for i in range(lo, hi + 1)},
        lambda i, j: j == i + 1,
        lambda i, j: l + 1,
    )


def _curve_category(points, entries):
    """The curves of a point category as a category of their own, from
    entries (label, genus, generators).  (A, B) is a pair iff every hom
    from a generator of B to one of A vanishes; the edges carry no weight."""
    _check_size(len(entries))
    return Category(
        f"{points.name}-curves",
        {label: gens for label, _, gens in entries},
        lambda a, b: all(points.is_pair(y, x) for x in b for y in a),
        lambda a, b: None,
        genus={label: genus for label, genus, _ in entries},
    )

