"""The twelve exceptional objects of the D_4 category and everything built
from them: pair classification, the diagram-rotation and Serre actions, the
noncommutative curves of genus 0 and -1, the rank-3 subcategories, and all
orbit counts.

The objects are the indecomposable representations of the D_4 quiver, one
per positive root as quiver.positive_roots grows them.  The quiver is its
arrows on the vertices 0..3: the legs 1, 2, 3 are the vertices 0, 1, 2 and
point into the centre o, vertex 3.  Their pairs and homs are the rule
quiver.pair_rule reads off the Euler form, and Serre is quiver.coxeter on
the roots, read back through the names.  A root is named delta if its centre
entry is 2, and otherwise s followed by the legs in its support, with o
appended when the centre is in the support and at most one leg is: s1, s2,
s3 are the outer simples, so the central simple, s1o/s2o/s3o the
two-dimensional ones supported on one leg, s12/s13/s23 the three-dimensional
ones, s123 the thin sincere one and delta the sincere one with a 2 at the
centre.
"""

from functools import partial
from itertools import combinations, permutations

from . import GenSet
from . import category as registry
from .arith import orbits
from .quiver import PairClass, coxeter, pair_class, pair_rule, positive_roots

# each leg 1, 2, 3 (vertex 0, 1, 2) points into the centre o (vertex 3)
ARROWS = ((0, 3), (1, 3), (2, 3))


def _name(dim: tuple) -> str:
    """Label of the root dim, by the rule of the module docstring."""
    *legs, centre = dim
    if centre == 2:
        return "delta"
    support = "".join(str(leg) for leg, x in enumerate(legs, 1) if x)
    return "s" + support + ("o" if centre and len(support) <= 1 else "")


DIMS = {_name(d): d for d in positive_roots(4, ARROWS)}

LABELS = tuple(sorted(DIMS))

# kappa turns the legs 1 -> 2 -> 3 -> 1
KAPPA = {x: _name((d[2], d[0], d[1], d[3])) for x, d in DIMS.items()}

# Serre maps each root to a root up to sign, and every root has one sign
SERRE = {x: _name(tuple(map(abs, coxeter(ARROWS, d)))) for x, d in DIMS.items()}

_GROUPS = {"id": (), "kappa": (KAPPA,), "serre": (SERRE,), "full": (KAPPA, SERRE)}


def _root(x) -> tuple:
    """The root of the object labelled x."""
    if x not in DIMS:
        raise ValueError(f"unknown object {x!r}")
    return DIMS[x]


# the pair test and the total hom of ordered pairs of labels
RULE = pair_rule(ARROWS, _root)
total_hom = RULE[1]
d4_pair_class = partial(pair_class, *RULE)


# --- curves and triples ----------------------------------------------------


def _genus0() -> dict:
    """The 15 genus-0 curves, each as the frozenset of its 3 derived points
    and in the order of their sorted points, mapped to the least hom-one
    pair that spans it."""
    curves = registry.genus0(registry.category("d4"))
    assert len(curves) == 15
    return curves


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
    return frozenset(p for p in LABELS if p != x and total_hom(x, p) == 0)


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


# --- the CLI handlers of `d4 table` and `d4 enum` ------------------------------

# the --kind choices of `d4 enum`, by the kind names of d4_enum
_ENUM_KINDS = {
    "points": "points",
    "genus0": "genus0",
    "genus-1": "genusMinus1",
    "triples-a3": "triples-A3",
    "triples-a1cubed": "triples-A1cubed",
}


def _cmd_d4_table(args):
    return {
        kind: {g: str(v) for g, v in row.items()}
        for kind, row in d4_tables().items()
    }


def _cmd_d4_enum(args):
    gens = d4_enum(_ENUM_KINDS[args.kind])
    return {"kind": args.kind, "subcategories": [str(g) for g in gens]}
