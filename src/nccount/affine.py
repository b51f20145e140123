"""Exceptional-object calculus for two affine quivers.

q1 is the quiver of type Ã₂ with arrows 0 -> 1, 1 -> 2 and 0 -> 2, q2 the
square of type Ã₃, 0 -> 1 -> 3 and 0 -> 2 -> 3, without relations.  Their
exceptional objects (up to shift) fall into integer-indexed series plus
finitely many sporadic objects:

    q1:  a^m, b^m (m in Z) and M, M'
    q2:  a^m, b^m, c^m, d^m (m in Z) and F+, F-, G+, G-

Each object is a real root of its quiver up to sign: the series member x^m
is the base root of its family plus m times the imaginary root
delta = (1, ..., 1), and the sporadic objects are the regular simples of the
rank-2 tubes.  The pairs and their homs are the rule quiver.pair_rule reads
off the Euler form of the roots.  Each group generator acts by its map on
the roots, read back as base + m * delta up to sign: Serre is quiver.coxeter,
theta the swap of q2's vertices 1 and 2, and zeta, which no map of the
quiver gives, an isometry of the Euler form that fixes delta.

A subcategory family is its list of generators, and each member is known
by quiver.span of their roots: that names the member any exceptional pair
generates, transports the group actions and tells the Z-series.  Orbit
counts of the infinite families are computed from index-shift data.
"""

from functools import cache, partial
from math import gcd
from typing import NamedTuple

from . import INFINITE
from .arith import check_int, orbits
from .quiver import PairClass, coxeter, pair_class, pair_rule, span

SERIES = {"q1": ("a", "b"), "q2": ("a", "b", "c", "d")}
SPORADIC = {"q1": ("M", "M'"), "q2": ("F+", "F-", "G+", "G-")}

# the arrows (source, target) of each quiver on its vertices 0, 1, ...
ARROWS = {"q1": ((0, 1), (1, 2), (0, 2)), "q2": ((0, 1), (0, 2), (1, 3), (2, 3))}

# family -> the root of its member of index 0, or of the sporadic object
ROOTS = {
    "q1": {"a": (0, 1, 1), "b": (0, 0, 1), "M": (0, 1, 0), "M'": (1, 0, 1)},
    "q2": {
        "a": (0, 1, 1, 1), "b": (0, 0, 0, 1), "c": (0, 1, 0, 1), "d": (0, 0, 1, 1),
        "F+": (0, 0, 1, 0), "F-": (0, 1, 0, 0), "G+": (1, 0, 1, 1), "G-": (1, 1, 0, 1),
    },
}


class AffObject(NamedTuple):
    quiver: str
    family: str
    index: int | None = None

    def __str__(self):
        if self.index is None:
            return self.family
        return f"{self.family}^{self.index}"


def obj(quiver: str, family: str, index: int | None = None) -> AffObject:
    if quiver not in SERIES:
        raise ValueError(f"unknown quiver {quiver!r}")
    if family in SERIES[quiver]:
        if index is None:
            raise ValueError(f"series object {family} needs an index")
        return AffObject(quiver, family, check_int(index, "index"))
    if family in SPORADIC[quiver]:
        if index is not None:
            raise ValueError(f"sporadic object {family} carries no index")
        return AffObject(quiver, family, None)
    raise ValueError(f"unknown family {family!r} for {quiver}")


def root(x: AffObject) -> tuple:
    """The real root of x, up to sign."""
    base = ROOTS[x.quiver][x.family]
    return base if x.index is None else tuple(v + x.index for v in base)


# quiver -> the pair test and total hom of quiver.pair_rule on its roots
RULES = {q: pair_rule(arrows, root) for q, arrows in ARROWS.items()}


def aff_pair_class(x: AffObject, y: AffObject) -> PairClass:
    """Classification of the ordered pair (x, y) by the Euler form."""
    if x.quiver != y.quiver:
        raise ValueError("the Euler form needs objects of one quiver")
    return pair_class(*RULES[x.quiver], x, y)


# --- label-level group actions ---------------------------------------------

# root -> family, for the sporadic roots and the series bases
_FAMILY = {q: {r: f for f, r in roots.items()} for q, roots in ROOTS.items()}


def _object(quiver: str, v: tuple) -> AffObject:
    """The object whose root is v up to sign: a series base plus m * delta,
    m the entry at vertex 0, where every base is 0, or a sporadic root."""
    for w in (v, tuple(-e for e in v)):
        family = _FAMILY[quiver].get(tuple(e - w[0] for e in w))
        if family in SERIES[quiver]:
            return AffObject(quiver, family, w[0])
        if w in _FAMILY[quiver]:
            return AffObject(quiver, _FAMILY[quiver][w])
    raise ValueError(f"{v} is the root of no exceptional object of {quiver}")


# quiver -> generator -> its map on roots, in the order of the full group;
# zeta sends the simple roots of q1 to (1,1,0), (1,0,1), (-1,0,0) and those
# of q2 to (1,1,0,0), (1,0,1,1), (0,0,1,0), (-1,0,-1,0)
ACTIONS = {
    "q1": {
        "serre": partial(coxeter, ARROWS["q1"]),
        "zeta": lambda v: (v[0] + v[1] - v[2], v[0], v[1]),
    },
    "q2": {
        "serre": partial(coxeter, ARROWS["q2"]),
        "theta": lambda v: (v[0], v[2], v[1], v[3]),
        "zeta": lambda v: (v[0] + v[1] - v[3], v[0], v[1] + v[2] - v[3], v[1]),
    },
}

GROUP_GENERATORS = {
    (q, group): gens
    for q, acts in ACTIONS.items()
    for group, gens in (("id", ()), ("serre", ("serre",)), ("full", tuple(acts)))
}


def aff_act(g: str, x: AffObject) -> AffObject:
    """Image of an exceptional object (up to shift) under a generator of its
    quiver's group, serre, zeta or (on q2 only) theta: its map on the root."""
    if g not in ACTIONS[x.quiver]:
        raise ValueError(f"action {g!r} is not defined on {x.quiver}")
    return _object(x.quiver, ACTIONS[x.quiver][g](root(x)))


# --- curve families ---------------------------------------------------------


class AffSubcat(NamedTuple):
    """A subcategory from one of the classified families.

    index is None for members of finite families; kind is one of
    'genus-1', 'genus0', 'genus1', 'triples-a3', 'triples-q1', the --kind
    words of `affine count`.
    """

    quiver: str
    kind: str
    family: str
    index: int | None = None

    __str__ = AffObject.__str__

    def generators(self) -> tuple:
        gens = _FAMILIES[(self.quiver, self.kind)][self.family]
        base = self.index or 0
        return tuple(
            obj(self.quiver, f) if shift is None else obj(self.quiver, f, base + shift)
            for f, shift in gens
        )


# (quiver, kind) -> family -> generators, each (series family | sporadic
# name, index shift | None), the shifts relative to the subcategory index.
# Every other fact of a family is read off the spans of its members.
_FAMILIES = {
    ("q1", "genus-1"): {},
    ("q1", "genus0"): {
        "a-perp": (("a", -1), ("b", 0)),
        "b-perp": (("b", -1), ("a", -1)),
    },
    ("q1", "genus1"): {
        "M-perp": (("a", 0), ("a", 1)),
        "M'-perp": (("b", 0), ("b", 1)),
    },
    ("q2", "genus-1"): {
        "AB": (("a", 0), ("b", 1)),
        "CD": (("c", 0), ("d", 0)),
        "F+-": (("F+", None), ("F-", None)),
        "G+-": (("G+", None), ("G-", None)),
        "FG+": (("F+", None), ("G+", None)),
        "FG-": (("F-", None), ("G-", None)),
    },
    ("q2", "genus0"): {
        "aF+": (("a", 0), ("F+", None)),
        "aF-": (("a", 0), ("F-", None)),
        "bG+": (("b", 0), ("G+", None)),
        "bG-": (("b", 0), ("G-", None)),
        "cG-": (("c", 0), ("G-", None)),
        "cF-": (("c", 0), ("F-", None)),
        "dG+": (("d", 0), ("G+", None)),
        "dF+": (("d", 0), ("F+", None)),
    },
    ("q2", "genus1"): {
        "A": (("a", 0), ("a", 1)),
        "B": (("b", 0), ("b", 1)),
        "C": (("c", 0), ("c", 1)),
        "D": (("d", 0), ("d", 1)),
    },
    ("q2", "triples-a3"): {
        "a-perp": (("c", 0), ("G-", None), ("d", 0)),
        "b-perp": (("c", -1), ("a", -1), ("F-", None)),
        "c-perp": (("b", 0), ("d", 0), ("G+", None)),
        "d-perp": (("a", -1), ("c", 0), ("F-", None)),
    },
    ("q2", "triples-q1"): {
        "F+-perp": (("d", 0), ("a", 0), ("d", 1)),
        "F--perp": (("c", 0), ("a", 0), ("c", 1)),
        "G+-perp": (("b", 0), ("d", 0), ("b", 1)),
        "G--perp": (("b", 0), ("c", 0), ("b", 1)),
    },
}


@cache
def _spans(quiver: str, kind: str) -> dict:
    """family -> (w, d): member m of the family spans w + m * d, where
    member m's generators are the listed ones shifted by m.  The span is
    linear in m, since each series generator moves by delta and
    delta ^ delta = 0.  A family is a genuine Z-series of distinct
    subcategories iff d != 0; the members of the others absorb any shift."""
    out = {}
    for fam in _FAMILIES[(quiver, kind)]:
        w, w1 = (span(map(root, AffSubcat(quiver, kind, fam, m).generators()))
                 for m in (0, 1))
        out[fam] = (w, tuple(b - a for a, b in zip(w, w1)))
    return out


def _families(quiver: str, kind: str) -> dict:
    """family -> indexed? for the given kind."""
    if (quiver, kind) not in _FAMILIES:
        raise ValueError(f"no kind {kind!r} for {quiver}")
    return {fam: any(d) for fam, (_, d) in _spans(quiver, kind).items()}


def subcat(quiver: str, kind: str, family: str, index: int | None = None) -> AffSubcat:
    fams = _families(quiver, kind)
    if family not in fams:
        raise ValueError(f"unknown family {family!r} for ({quiver}, {kind})")
    if fams[family] != (index is not None):
        raise ValueError(f"family {family!r} indexed={fams[family]}, got {index}")
    if index is not None:
        check_int(index, "index")
    return AffSubcat(quiver, kind, family, index)


def _match(quiver: str, kind: str, objs) -> AffSubcat | None:
    """The member of the kind that the exceptional sequence objs generates,
    the one whose span w + m * d is span(objs) up to sign, or None."""
    s = span(map(root, objs))
    for fam, (w, d) in _spans(quiver, kind).items():
        for sign in (1, -1):
            v = [sign * e - c for e, c in zip(s, w)]
            m = next((e // c for e, c in zip(v, d) if c), 0)
            if all(e == m * c for e, c in zip(v, d)):
                return AffSubcat(quiver, kind, fam, m if any(d) else None)
    return None


def classify_generator_pair(x: AffObject, y: AffObject) -> AffSubcat:
    """Recognize the subcategory spanned by an exceptional pair, in either
    order, as a member of a classified pair family (genus 1, 0 or -1).

    Library API with no CLI caller: it names the family of a pair given in
    any presentation, e.g. the three of each q1 genus-0 curve.
    """
    if x.quiver != y.quiver:
        raise ValueError("mixed quivers")
    is_pair = RULES[x.quiver][0]
    if not (is_pair(x, y) or is_pair(y, x)):
        raise ValueError(f"({x}, {y}) is an exceptional pair in neither order")
    for kind in ("genus1", "genus0", "genus-1"):
        found = _match(x.quiver, kind, (x, y))
        if found is not None:
            return found
    raise ValueError(f"({x}, {y}) does not match a classified family")


def act_on_subcat(g: str, sub: AffSubcat) -> AffSubcat:
    """Transport a group generator to the subcategory families."""
    got = _match(sub.quiver, sub.kind, [aff_act(g, o) for o in sub.generators()])
    if got is None:
        raise AssertionError(f"{g} moves {sub} out of the {sub.kind} families")
    return got


def _family_shift_maps(quiver: str, kind: str, g: str) -> dict:
    """family -> (image family, shift or None) for one group generator,
    derived by probing the object-level action."""
    out = {}
    for fam, indexed in _families(quiver, kind).items():
        img = act_on_subcat(g, AffSubcat(quiver, kind, fam, 0 if indexed else None))
        if indexed:
            # actions are index-affine with unit slope
            img1 = act_on_subcat(g, AffSubcat(quiver, kind, fam, 1))
            assert (img1.family, img1.index) == (img.family, img.index + 1)
        out[fam] = (img.family, img.index)
    return out


def _count_shift_system(families: dict, maps: list):
    """Orbit count of a union of Z-indexed series and sporadic points under
    a group whose generators act by family permutations with index shifts.

    Each orbit of families under the family permutations gets index
    potentials, set along the walk of arith.orbits, which reaches every
    family of the orbit from an earlier one.  The orbit's count is the gcd
    of the index discrepancies around its cycles, started at 0 on series
    and at 1 on sporadic points, whose indices never move; it is infinite
    when every cycle of a series orbit is shift-consistent.
    """
    total = 0
    for orb in orbits(families, *(lambda f, m=m: m[f][0] for m in maps)):
        potential = {orb[0]: 0}
        count = 0 if families[orb[0]] else 1
        for f in orb:  # the order in which the walk reached them
            for m in maps:
                g, shift = m[f]
                value = potential[f] + (shift or 0)
                count = gcd(count, value - potential.setdefault(g, value))
        if not count:
            return INFINITE
        total += count
    return total


def aff_count(quiver: str, kind: str, group: str):
    """|C_kind| modulo the chosen group; INFINITE for the infinite sets.

    Quotient counts are orbit counts of the canonical family
    representatives under the transcribed actions.
    """
    if (quiver, group) not in GROUP_GENERATORS:
        raise ValueError(f"unknown group {group!r} for {quiver}")
    families = _families(quiver, kind)
    maps = [_family_shift_maps(quiver, kind, g) for g in GROUP_GENERATORS[(quiver, group)]]
    return _count_shift_system(families, maps)


def aff_enum_curves(quiver: str, genus: int, window: tuple) -> list:
    """Members of the genus family: finite families completely, infinite
    ones restricted to indices in window = (lo, hi) inclusive."""
    if genus not in (-1, 0, 1):
        raise ValueError(f"genus must be -1, 0 or 1, got {genus}")
    lo, hi = window
    if lo > hi:
        raise ValueError("empty window")
    kind = f"genus{genus}"
    out = []
    for fam, indexed in _families(quiver, kind).items():
        if indexed:
            out.extend(AffSubcat(quiver, kind, fam, m) for m in range(lo, hi + 1))
        else:
            out.append(AffSubcat(quiver, kind, fam, None))
    return sorted(out)


def aff_vanishing(quiver: str, genus: int) -> bool:
    """True iff the genus-l family of the quiver is empty."""
    if quiver not in SERIES:
        raise ValueError(f"unknown quiver {quiver!r}")
    if genus < -1:
        raise ValueError("genus must be >= -1")
    if genus >= 2:
        return True
    return not _families(quiver, f"genus{genus}")


def _cmd_affine_count(args):
    """The CLI handler of `affine count`."""
    return {"count": str(aff_count(args.quiver, args.kind, args.group))}
