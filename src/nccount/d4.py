"""The twelve exceptional objects of the D_4 category and everything built
from them: pair classification, the diagram-rotation and Serre actions, the
noncommutative curves of genus 0 and -1, the rank-3 subcategories, and all
orbit counts.

The objects are the indecomposable representations of the D_4 quiver, one
per positive root, and all hom data, the Serre action included, is read off
its Euler form.  A root is named delta if its centre entry is 2, and
otherwise s followed by the legs in its support, with o appended when the
centre is in the support and at most one leg is: s1, s2, s3 are the outer
simples, so the central simple, s1o/s2o/s3o the two-dimensional ones
supported on one leg, s12/s13/s23 the three-dimensional ones, s123 the thin
sincere one and delta the sincere one with a 2 at the centre.
"""

from enum import Enum
from functools import partial
from itertools import combinations, permutations
from typing import NamedTuple

from . import quiver
from .arith import orbits
from .quiver import d4_quiver, euler_form, positive_roots, serre_permutation

QUIVER = d4_quiver()  # vertices (1, 2, 3, 'o')


def _name(dim: tuple) -> str:
    """Label of the root dim, by the rule of the module docstring."""
    *legs, centre = dim
    if centre == 2:
        return "delta"
    support = "".join(str(v) for v, x in zip(QUIVER.vertices, legs) if x)
    return "s" + support + ("o" if centre and len(support) <= 1 else "")


DIMS = {_name(d): d for d in positive_roots(QUIVER)}

LABELS = tuple(sorted(DIMS))

# The Euler form of every ordered pair of labels, read by all hom data below.
EULER = {(a, b): euler_form(QUIVER, DIMS[a], DIMS[b]) for a in LABELS for b in LABELS}

# kappa turns the legs 1 -> 2 -> 3 -> 1
KAPPA = {x: _name((d[2], d[0], d[1], d[3])) for x, d in DIMS.items()}

SERRE = serre_permutation(EULER, LABELS)

_GROUPS = {"id": (), "kappa": (KAPPA,), "serre": (SERRE,), "full": (KAPPA, SERRE)}


class PairClass(Enum):
    NOT_EXCEPTIONAL = "not-exceptional"
    ORTHOGONAL = "orthogonal"
    HOM_ONE = "hom-one"


def _as_label(x) -> str:
    if x not in DIMS:
        raise ValueError(f"unknown object {x!r}")
    return x


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


# --- curves and triples ----------------------------------------------------


def _genus0() -> dict:
    """The 15 genus-0 curves, each as the frozenset of its 3 derived points
    and in the order of their sorted points, mapped to the least hom-one
    pair that spans it: permutations lists the pairs in lexicographic
    order, and setdefault keeps the first."""
    curves = {}
    for a, b in permutations(LABELS, 2):
        if d4_pair_class(a, b) is PairClass.HOM_ONE:
            curves.setdefault(frozenset((a, b, quiver.third_point(DIMS, a, b))), (a, b))
    assert len(curves) == 15
    return {c: curves[c] for c in sorted(curves, key=sorted)}


def genus0_curves() -> list:
    """The 15 genus-0 curves, each as the frozenset of its 3 derived points."""
    return list(_genus0())


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


def d4_enum(kind: str) -> list:
    """Canonical generator lists for each enumerated kind."""
    if kind == "points":
        return [GenSet((lbl,)) for lbl in LABELS]
    if kind == "genus0":
        return [GenSet(pair) for pair in _genus0().values()]
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
