"""Derived points of genus-0 curves, pairwise curve intersections, greatest
lower bounds, and point/line incidence structures.

A curve is given by its two generators, and the category by a name of
`nccount.category` whose record has dimension vectors.  Only the abstract
incidence data is modelled; the planar drawings that realize these
structures are not.
"""

from itertools import permutations
from typing import NamedTuple

from . import DRAWN
from . import category as registry
from .quiver import third_point


def _curve_points(cat, curve):
    """(genus, derived-point set) of a curve of genus 0 or -1.

    A genus -1 curve (orthogonal pair) contains exactly its two generators
    as derived points; a genus-0 curve contains three.
    """
    gens = tuple(getattr(curve, "generators", curve))
    if len(gens) != 2:
        raise ValueError(f"{curve} is not given by a pair of generators")
    x, y = gens
    if cat.is_pair(y, x):
        x, y = y, x
    if not cat.is_pair(x, y):
        raise ValueError(f"{curve} is not spanned by an exceptional pair")
    genus = cat.total_hom(x, y) - 1
    if genus == -1:
        return -1, frozenset(gens)
    if genus == 0:
        return 0, frozenset((x, y, third_point(cat.dims, x, y)))
    raise ValueError(f"{curve} has genus {genus}")


def derived_points(curve, category: str) -> frozenset:
    """The three derived points of a genus-0 curve, given by any spanning
    pair of objects."""
    genus, points = _curve_points(registry.category(category), curve)
    if genus:
        raise ValueError(f"{curve} is not a genus-0 curve")
    return points


class Intersection(NamedTuple):
    kind: str  # 'equal', 'point' or 'empty'
    point: object = None


def intersect_curves(c1, c2, category: str) -> Intersection:
    """Intersection of two curves of genus 0 or -1: themselves, a single
    shared derived point, or nothing."""
    return _intersect(registry.category(category), c1, c2)


def _intersect(cat, c1, c2):
    (_, t1), (_, t2) = _curve_points(cat, c1), _curve_points(cat, c2)
    if t1 == t2:
        return Intersection("equal")
    common = t1 & t2
    if not common:
        return Intersection("empty")
    if len(common) == 1:
        return Intersection("point", next(iter(common)))
    raise AssertionError(f"distinct curves sharing two points: {c1}, {c2}")


TRIVIAL = ("trivial", None)


def glb(x, y, category: str, include_orthogonal_pairs: bool = False):
    """Greatest lower bound in the poset of subcategories of the family
    {trivial, point, genus-0 curve}, optionally extended by the genus -1
    curves (orthogonal pairs of points).

    Elements are tagged pairs ('trivial', None), ('point', p) or
    ('curve', c); the result is another such pair.
    """
    cat = registry.category(category)
    for item in (x, y):
        if not (isinstance(item, tuple) and len(item) == 2
                and item[0] in ("trivial", "point", "curve")):
            raise ValueError(f"{item!r} is outside the supported family")
        if item[0] == "curve" and not include_orthogonal_pairs:
            genus, _ = _curve_points(cat, item[1])
            if genus == -1:
                raise ValueError(
                    f"{item[1]} has genus -1; pass include_orthogonal_pairs=True"
                )
    if x == TRIVIAL or y == TRIVIAL:
        return TRIVIAL
    (kx, px), (ky, py) = x, y
    if kx == "point" and ky == "point":
        return x if px == py else TRIVIAL
    if kx == "curve" and ky == "curve":
        hit = _intersect(cat, px, py)
        if hit.kind == "equal":
            return x
        if hit.kind == "point":
            return ("point", hit.point)
        return TRIVIAL
    # mixed point / curve
    point, curve = (px, py) if kx == "point" else (py, px)
    if point in _curve_points(cat, curve)[1]:
        return ("point", point)
    return TRIVIAL


class IncidenceStructure(NamedTuple):
    points: tuple  # point labels
    lines: tuple  # (line id, tuple of point labels)

    def incidences(self):
        return [(p, lid) for lid, pts in self.lines for p in pts]

    def degree(self, point):
        return sum(1 for lid, pts in self.lines if point in pts)


def incidence_structure(category: str) -> IncidenceStructure:
    """Point/line incidence of the genus-0 curves, each line the set of its
    derived points: 6 points and 4 lines for 'a3', 12 points and 15 lines
    for 'd4'."""
    if category not in DRAWN:
        raise ValueError(f"unknown category {category!r}")
    cat = registry.category(category)
    label = {x: a for a, x in cat.objects.items()}
    triples = {
        tuple(sorted(label[p] for p in (x, y, third_point(cat.dims, x, y))))
        for x, y in permutations(cat.objects.values(), 2)
        if cat.is_pair(x, y) and cat.total_hom(x, y) == 1
    }
    lines = tuple((";".join(t), t) for t in sorted(triples))
    return IncidenceStructure(tuple(sorted(cat.objects)), lines)


def export_incidence(struct: IncidenceStructure) -> str:
    import json  # only here, so plain calls never load it
    doc = {
        "points": list(struct.points),
        "lines": [{"id": lid, "points": list(pts)} for lid, pts in struct.lines],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
