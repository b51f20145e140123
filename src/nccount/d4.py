"""The twelve exceptional objects of the D_4 category and everything built
from them: pair classification, the diagram-rotation and Serre actions, the
noncommutative curves of genus 0 and -1, the rank-3 subcategories, and all
orbit counts.

Labels name the exceptional representations: s1, s2, s3 are the outer
simples, so the central simple, s1o/s2o/s3o the two-dimensional ones
supported on one leg, s12/s13/s23 the three-dimensional ones, s123 the thin
sincere one and delta the sincere one with a 2 at the centre.  All hom data
is read off the Euler form of the D_4 quiver.
"""

from enum import Enum
from functools import partial
from itertools import combinations, permutations
from typing import NamedTuple

from . import quiver
from .arith import orbits
from .quiver import d4_quiver, euler_form

QUIVER = d4_quiver()  # vertices (1, 2, 3, 'o')

DIMS = {
    "s1": (1, 0, 0, 0),
    "s2": (0, 1, 0, 0),
    "s3": (0, 0, 1, 0),
    "s1o": (1, 0, 0, 1),
    "s2o": (0, 1, 0, 1),
    "s3o": (0, 0, 1, 1),
    "s12": (1, 1, 0, 1),
    "s13": (1, 0, 1, 1),
    "s23": (0, 1, 1, 1),
    "s123": (1, 1, 1, 1),
    "so": (0, 0, 0, 1),
    "delta": (1, 1, 1, 2),
}

LABELS = tuple(sorted(DIMS))

# The Euler form of every ordered pair of labels, read by all hom data below.
EULER = {(a, b): euler_form(QUIVER, DIMS[a], DIMS[b]) for a in LABELS for b in LABELS}

KAPPA = {
    "s1": "s2", "s2": "s3", "s3": "s1",
    "s1o": "s2o", "s2o": "s3o", "s3o": "s1o",
    "s12": "s23", "s23": "s13", "s13": "s12",
    "s123": "s123", "so": "so", "delta": "delta",
}

SERRE = {
    "delta": "so", "so": "s123", "s123": "delta",
    "s1": "s23", "s23": "s1o", "s1o": "s1",
    "s2": "s13", "s13": "s2o", "s2o": "s2",
    "s3": "s12", "s12": "s3o", "s3o": "s3",
}

_GROUPS = {"id": (), "kappa": (KAPPA,), "serre": (SERRE,), "full": (KAPPA, SERRE)}


class D4Object(NamedTuple):
    label: str
    dim: tuple


class PairClass(Enum):
    NOT_EXCEPTIONAL = "not-exceptional"
    ORTHOGONAL = "orthogonal"
    HOM_ONE = "hom-one"


def d4_objects() -> list:
    return [D4Object(lbl, DIMS[lbl]) for lbl in LABELS]


def _as_label(x) -> str:
    lbl = x.label if isinstance(x, D4Object) else x
    if lbl not in DIMS:
        raise ValueError(f"unknown object {x!r}")
    return lbl


def d4_pair_class(a, b) -> PairClass:
    """Classify the ordered pair (a, b) via the Euler form."""
    la, lb = _as_label(a), _as_label(b)
    if la == lb:
        raise ValueError("pair classification needs two distinct objects")
    if EULER[lb, la] != 0:
        return PairClass.NOT_EXCEPTIONAL
    forward = EULER[la, lb]
    if forward == 0:
        return PairClass.ORTHOGONAL
    assert abs(forward) == 1
    return PairClass.HOM_ONE


def total_hom(a, b) -> int:
    """Total hom dimension over all degrees from a to b."""
    la, lb = _as_label(a), _as_label(b)
    if la == lb:
        return 1
    return abs(EULER[la, lb])


def d4_act(g: str, x):
    """Apply kappa (diagram rotation) or serre to an object label."""
    lbl = _as_label(x)
    if g == "kappa":
        out = KAPPA[lbl]
    elif g == "serre":
        out = SERRE[lbl]
    else:
        raise ValueError(f"unknown action {g!r}")
    return D4Object(out, DIMS[out]) if isinstance(x, D4Object) else out


# --- curves and triples ----------------------------------------------------


def third_point(a: str, b: str) -> str:
    """Third derived point of the genus-0 curve spanned by the hom-one pair
    {a, b}."""
    return quiver.third_point(DIMS, a, b)


def genus0_curves() -> list:
    """The 15 genus-0 curves, each as the frozenset of its 3 derived points."""
    curves = set()
    for a, b in permutations(LABELS, 2):
        if d4_pair_class(a, b) is PairClass.HOM_ONE:
            curves.add(frozenset((a, b, third_point(a, b))))
    assert len(curves) == 15
    return sorted(curves, key=sorted)


def genus_minus1_curves() -> list:
    """The 9 genus -1 curves: unordered orthogonal pairs."""
    curves = [
        frozenset((a, b))
        for a, b in combinations(LABELS, 2)
        if d4_pair_class(a, b) is PairClass.ORTHOGONAL
    ]
    assert len(curves) == 9
    return sorted(curves, key=sorted)


def right_orthogonal_points(x) -> frozenset:
    """Derived points of <x>^perp: labels p with all homs from x to p zero."""
    lx = _as_label(x)
    return frozenset(p for p in LABELS if p != lx and total_hom(lx, p) == 0)


def triple_kind(x) -> str:
    """Type of the rank-3 subcategory <x>^perp: 'a3' (six derived points)
    or 'a1cubed' (three pairwise orthogonal derived points)."""
    pts = right_orthogonal_points(x)
    if len(pts) == 3:
        return "a1cubed"
    if len(pts) == 6:
        return "a3"
    raise AssertionError(f"unexpected perp size {len(pts)} for {x}")


def is_semiorthogonal_sequence(labels) -> bool:
    """All homs from later to earlier members vanish."""
    return all(
        total_hom(labels[j], labels[i]) == 0
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
    )


def triple_generators(x) -> tuple:
    """Canonical exceptional triple generating <x>^perp: the
    lexicographically least 3-subset of its derived points that admits a
    semi-orthogonal ordering, in such an ordering."""
    pts = sorted(right_orthogonal_points(x))
    for sub in combinations(pts, 3):
        for perm in permutations(sub):
            if is_semiorthogonal_sequence(perm):
                return perm
    raise AssertionError(f"no generating triple below {x}")


# --- enumeration and orbit counting ----------------------------------------

KINDS = ("points", "genus0", "genusMinus1", "triples-A3", "triples-A1cubed")


def _orbit_reps(kind: str):
    """Internal orbit carriers per kind (hashable, permutation-equivariant)."""
    if kind == "points":
        return list(LABELS)
    if kind == "genus0":
        return genus0_curves()
    if kind == "genusMinus1":
        return genus_minus1_curves()
    if kind == "triples-A3":
        return [x for x in LABELS if triple_kind(x) == "a3"]
    if kind == "triples-A1cubed":
        return [x for x in LABELS if triple_kind(x) == "a1cubed"]
    raise ValueError(f"unknown kind {kind!r}")


def _apply(perm: dict, item):
    if isinstance(item, str):
        return perm[item]
    return frozenset(perm[lbl] for lbl in item)


def d4_count(kind: str, group: str) -> int:
    """Orbit count of the enumerated set under the chosen group, by
    explicit orbit partition."""
    if group not in _GROUPS:
        raise ValueError(f"unknown group {group!r}")
    steps = [partial(_apply, perm) for perm in _GROUPS[group]]
    return len(orbits(_orbit_reps(kind), *steps))


class GenSet(NamedTuple):
    """Canonical ordered generator list of a D_4 subcategory."""

    generators: tuple

    def __str__(self):
        return "<" + ",".join(self.generators) + ">"


def curve_presentations(curve: frozenset) -> list:
    """The ordered hom-one pairs among the derived points of a genus-0
    curve; each spans the curve."""
    return sorted(
        (a, b)
        for a, b in permutations(sorted(curve), 2)
        if d4_pair_class(a, b) is PairClass.HOM_ONE
    )


def normalize_genus0_pair(a, b) -> GenSet:
    """Canonical GenSet of the genus-0 curve spanned by the pair (a, b):
    the lexicographically least of its two-generator presentations."""
    la, lb = _as_label(a), _as_label(b)
    if d4_pair_class(la, lb) is not PairClass.HOM_ONE:
        raise ValueError(f"({a}, {b}) does not span a genus-0 curve")
    curve = frozenset((la, lb, third_point(la, lb)))
    return GenSet(curve_presentations(curve)[0])


def d4_enum(kind: str) -> list:
    """Canonical generator lists for each enumerated kind."""
    if kind == "points":
        return [GenSet((lbl,)) for lbl in LABELS]
    if kind == "genus0":
        return [GenSet(curve_presentations(c)[0]) for c in genus0_curves()]
    if kind == "genusMinus1":
        return [GenSet(tuple(sorted(c))) for c in genus_minus1_curves()]
    if kind in ("triples-A3", "triples-A1cubed"):
        return [GenSet(triple_generators(x)) for x in _orbit_reps(kind)]
    raise ValueError(f"unknown kind {kind!r}")


def d4_tables() -> dict:
    """All orbit-count tables, keyed by kind then group."""
    out = {}
    for kind in KINDS:
        out[kind] = {g: d4_count(kind, g) for g in ("id", "kappa", "serre", "full")}
    return out
