"""The twelve exceptional objects of the D_4 category and everything built
from them: the pair rule, the diagram-rotation and Serre actions, the
subcategories and all their orbit counts.

The points and the noncommutative curves of genus 0 (three objects) and -1
(two) are read by rank and number of objects off census.subcategories,
walked once to rank 2 on the labels' pair_rows.  The right perp sends rank
k to rank 4 - k, so the rank-3 subcategories of type A_3 (six objects) and
A_1^3 (three) are the perps of the twelve points, their into rows.  Each
orbit table cell partitions one kind's object sets under kappa and Serre.
The module imports neither the category registry nor the graph layer.

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

from functools import cache
from itertools import combinations, permutations

from . import GenSet
from .arith import orbits
from .census import bits, pair_rows, subcategories
from .quiver import coxeter, pair_rule, positive_roots

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


# --- the subcategories and their orbits --------------------------------------

# each kind of subcategory, by its --kind word of `d4 enum`, to its rank,
# its number of objects and its row of d4_tables
KINDS = {
    "points": (1, 1, "points"),
    "genus0": (2, 3, "genus0"),
    "genus-1": (2, 2, "genusMinus1"),
    "triples-a3": (3, 6, "triples-A3"),
    "triples-a1cubed": (3, 3, "triples-A1cubed"),
}


@cache
def _census() -> tuple:
    """(into, census.subcategories to rank 2) of the labels' pair_rows, once."""
    out, into = pair_rows(LABELS, RULE[0])
    return into, subcategories(out, into, 2)


def _subcategories(kind: str) -> list:
    """The subcategories of a kind, each as the frozenset of its labels: a
    triple as the right perp into[x] of one point x, in the label order of
    x, and the points and curves off the census, in the order of their
    sorted labels."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    rank, size, _ = KINDS[kind]
    into, census = _census()
    masks = into if rank == 3 else sorted(census[rank - 1], key=lambda m: [*bits(m)])
    return [frozenset(LABELS[i] for i in bits(m))
            for m in masks if m.bit_count() == size]


def _generators(labels: frozenset, rank: int) -> tuple:
    """The generators that name a subcategory: for rank 2 its least ordered
    exceptional pair, otherwise its least sorted rank-subset that has an
    exceptional order, in its least such order."""
    is_pair, pts = RULE[0], sorted(labels)
    seqs = (permutations(pts, 2) if rank == 2 else
            (p for sub in combinations(pts, rank) for p in permutations(sub)))
    return next(p for p in seqs if all(is_pair(*q) for q in combinations(p, 2)))


def d4_count(kind: str, group: str) -> int:
    """Orbit count of the subcategories of a kind under the chosen group,
    by explicit orbit partition."""
    if group not in _GROUPS:
        raise ValueError(f"unknown group {group!r}")
    steps = [lambda s, p=perm: frozenset(map(p.get, s)) for perm in _GROUPS[group]]
    return len(orbits(_subcategories(kind), *steps))


def d4_enum(kind: str) -> list:
    """Canonical generator lists for each enumerated kind."""
    subs = _subcategories(kind)
    return [GenSet(_generators(s, KINDS[kind][0])) for s in subs]


def d4_tables() -> dict:
    """All orbit-count tables, keyed by the table row of a kind, then group."""
    return {row: {g: d4_count(kind, g) for g in _GROUPS}
            for kind, (_, _, row) in KINDS.items()}


# --- the CLI handlers of `d4 table` and `d4 enum` ------------------------------

def _cmd_d4_table(args):
    return {
        kind: {g: str(v) for g, v in row.items()}
        for kind, row in d4_tables().items()
    }


def _cmd_d4_enum(args):
    gens = d4_enum(args.kind)
    return {"kind": args.kind, "subcategories": [str(g) for g in gens]}
