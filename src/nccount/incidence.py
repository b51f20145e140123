"""Derived points of genus-0 curves, pairwise curve intersections, greatest
lower bounds, and point/line incidence structures.

A curve is given by its two generators, and the category by the name of
a `nccount.category` record built without a window: aN, d4, np-1 or np0.
A curve's derived points are the objects of the subcategory its
generators generate, the left perp of their common right perp, and the
lines of an incidence structure, its genus-0 curves, are read by the same
rule off the pair rows of census.pair_rows, which builds no graph and no
census.  Only the abstract incidence data is modelled; the planar
drawings that realize these structures are not.
"""

from functools import reduce
from operator import and_
from typing import NamedTuple

from . import category as registry
from .census import bits, pair_rows


def _curve_points(cat, curve):
    """The derived points of a curve given by an exceptional pair, in
    either order: three for genus 0, the generators for genus -1; by the
    record contract there is no higher genus.  Every subcategory is the
    left perp of its right perp (Bondal): the objects with no homs to any
    object of the right perp, the objects with no homs from x or y."""
    gens = tuple(getattr(curve, "generators", curve))
    if len(gens) != 2:
        raise ValueError(f"{curve} is not given by a pair of generators")
    for g in gens:
        if g not in cat.objects.values():
            raise ValueError(f"{g} is not an object of {cat.name}")
    x, y = gens
    if not (cat.is_pair(x, y) or cat.is_pair(y, x)):
        raise ValueError(f"{curve} is not spanned by an exceptional pair")
    objs = cat.objects.values()
    right = [z for z in objs if cat.is_pair(z, x) and cat.is_pair(z, y)]
    return frozenset(p for p in objs if all(cat.is_pair(z, p) for z in right))


def derived_points(curve, category: str) -> frozenset:
    """The three derived points of a genus-0 curve, given by any spanning
    pair of objects."""
    points = _curve_points(registry.category(category), curve)
    if len(points) != 3:
        raise ValueError(f"{curve} is not a genus-0 curve")
    return points


class Intersection(NamedTuple):
    kind: str  # 'equal', 'point' or 'empty'
    point: object = None


def intersect_curves(c1, c2, category: str) -> Intersection:
    """Intersection of two curves of genus 0 or -1: themselves, a single
    shared derived point, or nothing, read off their glb."""
    kind, p = glb(("curve", c1), ("curve", c2), category)
    if kind == "curve":
        return Intersection("equal")
    return Intersection("point", p) if kind == "point" else Intersection("empty")


TRIVIAL = ("trivial", None)


def glb(x, y, category: str):
    """Greatest lower bound in the poset of subcategories of the family
    {trivial, point, curve of genus 0 or -1}.

    Elements are tagged pairs ('trivial', None), ('point', p) with p an
    object of the category, or ('curve', c); the result is another such
    pair.
    """
    cat = registry.category(category)
    # the derived points of each element: none for the trivial element, {p}
    # for a point; the meet is the element whose points are the common ones
    points = []
    for item in (x, y):
        if not (isinstance(item, tuple) and len(item) == 2
                and item[0] in ("trivial", "point", "curve")):
            raise ValueError(f"{item!r} is outside the supported family")
        kind, v = item
        if kind == "trivial":
            if v is not None:
                raise ValueError(f"{item!r} is not the trivial element {TRIVIAL!r}")
            points.append(frozenset())
        elif kind == "point":
            if v not in cat.objects.values():
                raise ValueError(f"{v} is not an object of {category}")
            points.append(frozenset((v,)))
        else:
            points.append(_curve_points(cat, v))
    px, py = points
    common = px & py
    if common == px:
        return x
    if common == py:
        return y
    if len(common) > 1:
        raise AssertionError(f"distinct curves sharing two points: {x[1]}, {y[1]}")
    return ("point", next(iter(common))) if common else TRIVIAL


class IncidenceStructure(NamedTuple):
    points: tuple  # point labels
    lines: tuple  # (line id, tuple of point labels)

    def incidences(self):
        return [(p, lid) for lid, pts in self.lines for p in pts]


def incidence_structure(category: str) -> IncidenceStructure:
    """Point/line incidence of the genus-0 curves, each line the set of its
    derived points: 6 points and 4 lines for 'a3', 12 points and 15 lines
    for 'd4'.  A category of rank 1 has no curves, so no lines; a name that
    needs a window, or is too large, is refused by the registry.

    On the pair rows, the curve a one-sided pair (x, y) spans is the left
    perp of the common right perp into[x] & into[y], the AND of out[z] over
    its members, and each distinct mask is a line (three objects, by the
    record contract); the three pairs of a line share that right perp, so
    each is read once.  An orthogonal pair's genus -1 curve is skipped.
    """
    cat = registry.category(category)
    labels = sorted(cat.objects)
    out, into = pair_rows([cat.objects[v] for v in labels], cat.is_pair)
    every = (1 << len(out)) - 1
    rights = {into[x] & into[y]
              for x in range(len(out)) for y in bits(out[x] & ~into[x])}
    masks = (reduce(and_, (out[z] for z in bits(r)), every) for r in rights)
    curves = sorted(tuple(labels[i] for i in bits(m)) for m in masks)
    lines = tuple((";".join(t), t) for t in curves)
    return IncidenceStructure(tuple(labels), lines)


def _cmd_incidence(args):
    """The CLI handler of `incidence`: the structure, or its sizes."""
    struct = incidence_structure(args.category)
    if args.format == "json":
        return {
            "points": list(struct.points),
            "lines": [{"id": lid, "points": list(pts)} for lid, pts in struct.lines],
        }
    return {
        "points": len(struct.points),
        "lines": len(struct.lines),
        "incidences": len(struct.incidences()),
    }
