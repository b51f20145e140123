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
off the Euler form of the roots.  Serre is quiver.coxeter on the roots and
the square symmetry theta of q2 the swap of its vertices 1 and 2, both read
back as base + m * delta up to sign; only the extra shift-like generator
zeta, which no map of the quiver gives, is typed label by label.  All orbit
counts of the infinite curve families are computed symbolically from
index-shift data.
"""

from math import gcd
from typing import NamedTuple

from . import INFINITE
from .arith import orbits
from .quiver import PairClass, coxeter, pair_class, pair_rule

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
        return AffObject(quiver, family, int(index))
    if family in SPORADIC[quiver]:
        if index is not None:
            raise ValueError(f"sporadic object {family} carries no index")
        return AffObject(quiver, family, None)
    raise ValueError(f"unknown family {family!r} for {quiver}")


def root(x: AffObject) -> tuple:
    """The real root of x, up to sign."""
    base = ROOTS[x.quiver][x.family]
    return base if x.index is None else tuple(v + x.index for v in base)


def aff_pair_class(x: AffObject, y: AffObject) -> PairClass:
    """Classification of the ordered pair (x, y) by the Euler form."""
    if x.quiver != y.quiver:
        raise ValueError("the Euler form needs objects of one quiver")
    return pair_class(*pair_rule(ARROWS[x.quiver], root), x, y)


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


# zeta: series family -> (image family, index shift); sporadic -> name
_ZETA = {
    "q1": ({"a": ("b", 0), "b": ("a", -1)}, None),
    "q2": (
        {"a": ("d", 0), "b": ("c", -1), "c": ("b", 0), "d": ("a", -1)},
        {"F+": "F+", "F-": "G+", "G+": "F-", "G-": "G-"},
    ),
}

GROUP_GENERATORS = {
    ("q1", "id"): (),
    ("q1", "serre"): ("serre",),
    ("q1", "full"): ("serre", "zeta"),
    ("q2", "id"): (),
    ("q2", "serre"): ("serre",),
    ("q2", "full"): ("serre", "theta", "zeta"),
}


def aff_act(g: str, x: AffObject) -> AffObject:
    """Image of an exceptional object under serre, theta or zeta (up to
    shift).  theta exists only on q2; zeta on q1 is known on the series
    objects only."""
    if g == "serre":
        return _object(x.quiver, coxeter(ARROWS[x.quiver], root(x)))
    if (x.quiver, g) == ("q2", "theta"):
        v = root(x)
        return _object(x.quiver, (v[0], v[2], v[1], v[3]))
    if g != "zeta":
        raise ValueError(f"action {g!r} is not defined on {x.quiver}")
    series_map, spor_map = _ZETA[x.quiver]
    if x.index is not None:
        fam, shift = series_map[x.family]
        return AffObject(x.quiver, fam, x.index + shift)
    if spor_map is None or x.family not in spor_map:
        raise ValueError(f"action {g!r} is undetermined on {x}")
    return AffObject(x.quiver, spor_map[x.family], None)


# --- curve families ---------------------------------------------------------


class AffSubcat(NamedTuple):
    """A subcategory from one of the classified families.

    index is None for members of finite families; kind is one of
    'genus-1', 'genus0', 'genus1', 'triples-A3', 'triples-Q1'.
    """

    quiver: str
    kind: str
    family: str
    index: int | None = None

    def __str__(self):
        if self.index is None:
            return self.family
        return f"{self.family}^{self.index}"

    def generators(self) -> tuple:
        gens = _FAMILIES[(self.quiver, self.kind)][self.family][1]
        base = self.index or 0
        return tuple(
            obj(self.quiver, f) if shift is None else obj(self.quiver, f, base + shift)
            for f, shift in gens
        )


# (quiver, kind) -> family -> (indexed, generators, perp).  indexed is True
# if the family is a genuine Z-series of distinct subcategories (members of
# non-indexed families absorb any index shift).  generators are (series
# family | sporadic name, index shift | None), the shifts relative to the
# subcategory index.  perp, where set, names the object whose orthogonal the
# family is, which transports the group actions.
_FAMILIES = {
    ("q1", "genus-1"): {},
    ("q1", "genus0"): {
        "a-perp": (True, (("a", -1), ("b", 0)), "a"),
        "b-perp": (True, (("b", -1), ("a", -1)), "b"),
    },
    ("q1", "genus1"): {
        "M-perp": (False, (("a", 0), ("a", 1)), None),
        "M'-perp": (False, (("b", 0), ("b", 1)), None),
    },
    ("q2", "genus-1"): {
        "AB": (True, (("a", 0), ("b", 1)), None),
        "CD": (True, (("c", 0), ("d", 0)), None),
        "F+-": (False, (("F+", None), ("F-", None)), None),
        "G+-": (False, (("G+", None), ("G-", None)), None),
        "FG+": (False, (("F+", None), ("G+", None)), None),
        "FG-": (False, (("F-", None), ("G-", None)), None),
    },
    ("q2", "genus0"): {
        "aF+": (True, (("a", 0), ("F+", None)), None),
        "aF-": (True, (("a", 0), ("F-", None)), None),
        "bG+": (True, (("b", 0), ("G+", None)), None),
        "bG-": (True, (("b", 0), ("G-", None)), None),
        "cG-": (True, (("c", 0), ("G-", None)), None),
        "cF-": (True, (("c", 0), ("F-", None)), None),
        "dG+": (True, (("d", 0), ("G+", None)), None),
        "dF+": (True, (("d", 0), ("F+", None)), None),
    },
    ("q2", "genus1"): {
        "A": (False, (("a", 0), ("a", 1)), None),
        "B": (False, (("b", 0), ("b", 1)), None),
        "C": (False, (("c", 0), ("c", 1)), None),
        "D": (False, (("d", 0), ("d", 1)), None),
    },
    ("q2", "triples-A3"): {
        "a-perp": (True, (("c", 0), ("G-", None), ("d", 0)), "a"),
        "b-perp": (True, (("c", -1), ("a", -1), ("F-", None)), "b"),
        "c-perp": (True, (("b", 0), ("d", 0), ("G+", None)), "c"),
        "d-perp": (True, (("a", -1), ("c", 0), ("F-", None)), "d"),
    },
    ("q2", "triples-Q1"): {
        "F+-perp": (False, (("d", 0), ("a", 0), ("d", 1)), "F+"),
        "F--perp": (False, (("c", 0), ("a", 0), ("c", 1)), "F-"),
        "G+-perp": (False, (("b", 0), ("d", 0), ("b", 1)), "G+"),
        "G--perp": (False, (("b", 0), ("c", 0), ("b", 1)), "G-"),
    },
}


def _families(quiver: str, kind: str) -> dict:
    """family -> indexed? for the given kind."""
    key = (quiver, kind)
    if key not in _FAMILIES:
        raise ValueError(f"no kind {kind!r} for {quiver}")
    return {fam: entry[0] for fam, entry in _FAMILIES[key].items()}


def subcat(quiver: str, kind: str, family: str, index: int | None = None) -> AffSubcat:
    fams = _families(quiver, kind)
    if family not in fams:
        raise ValueError(f"unknown family {family!r} for ({quiver}, {kind})")
    if fams[family] != (index is not None):
        raise ValueError(f"family {family!r} indexed={fams[family]}, got {index}")
    return AffSubcat(quiver, kind, family, index)


def _match(quiver: str, kind: str, objs) -> AffSubcat | None:
    """The member of the kind whose generator set is the set objs, up to
    one index offset, or None."""
    want = set(objs)
    for fam, (indexed, gens, _) in _FAMILIES[(quiver, kind)].items():
        # an indexed generator pins the offset; without one any offset fits
        offsets = {
            o.index - shift
            for f, shift in gens
            if shift is not None
            for o in want
            if o.family == f
        } or {0}
        for m in offsets:
            if set(AffSubcat(quiver, kind, fam, m).generators()) == want:
                return AffSubcat(quiver, kind, fam, m if indexed else None)
    return None


def classify_generator_pair(x: AffObject, y: AffObject) -> AffSubcat:
    """Recognize the subcategory spanned by a two-object generating set as a
    member of a classified pair family (genus 1, 0 or -1).

    Library API with no CLI caller: it names the family of a pair given in
    any of the paper's presentations.  The q1 genus-0 curves have several,
    which are reduced below to the one that _FAMILIES lists.
    """
    q = x.quiver
    if q != y.quiver:
        raise ValueError("mixed quivers")
    for kind in ("genus1", "genus0", "genus-1"):
        found = _match(q, kind, (x, y))
        if found is not None:
            return found
    # q1 genus-0 curves are spanned by several pair shapes; reduce via the
    # subcategory equalities <M',a^m> = <a^m,b^{m+1}> = <b^{m+1},M'> and
    # <M,b^m> = <b^m,a^m> = <a^m,M>
    if q == "q1":
        fams = {x.family, y.family}
        if "M'" in fams:
            other = x if y.family == "M'" else y
            m = other.index + 1 if other.family == "a" else other.index
            return AffSubcat(q, "genus0", "a-perp", m)
        if "M" in fams:
            other = x if y.family == "M" else y
            return AffSubcat(q, "genus0", "b-perp", other.index + 1)
    raise ValueError(f"({x}, {y}) does not match a classified family")


def act_on_subcat(g: str, sub: AffSubcat) -> AffSubcat:
    """Transport a group generator to the subcategory families."""
    table = _FAMILIES[(sub.quiver, sub.kind)]
    perp = table[sub.family][2]
    if perp is not None:
        img = aff_act(g, obj(sub.quiver, perp, sub.index))
        fam = next(f for f, entry in table.items() if entry[2] == img.family)
        return AffSubcat(sub.quiver, sub.kind, fam, img.index)
    got = _match(sub.quiver, sub.kind, [aff_act(g, o) for o in sub.generators()])
    if got is None:
        raise AssertionError(f"{g} moves {sub} out of the {sub.kind} families")
    return got


def _family_shift_maps(quiver: str, kind: str, g: str) -> dict:
    """family -> (image family, shift or None) for one group generator,
    derived by probing the object-level action."""
    out = {}
    for fam, indexed in _families(quiver, kind).items():
        if indexed:
            img0 = act_on_subcat(g, AffSubcat(quiver, kind, fam, 0))
            img1 = act_on_subcat(g, AffSubcat(quiver, kind, fam, 1))
            # actions are index-affine with unit slope
            assert (img1.family, img1.index) == (img0.family, img0.index + 1)
            out[fam] = (img0.family, img0.index)
        else:
            img = act_on_subcat(g, AffSubcat(quiver, kind, fam, None))
            out[fam] = (img.family, None)
    return out


def _count_shift_system(families: dict, maps: list):
    """Orbit count of a union of Z-indexed series and sporadic points under
    a group whose generators act by family permutations with index shifts.

    For each connected component of series families the orbit count is the
    gcd of the index discrepancies around cycles (infinite when every cycle
    is shift-consistent); sporadic components contribute one orbit each.
    """
    series = [f for f, indexed in families.items() if indexed]
    sporadic = [f for f, indexed in families.items() if not indexed]

    # sporadic part: the maps permute the sporadic families
    spor_orbits = len(orbits(sporadic, *(lambda f, m=m: m[f][0] for m in maps)))

    # series part: BFS with potentials, collecting cycle discrepancies
    potential = {}
    comp = {}
    discrepancy = {}
    for root in series:
        if root in comp:
            continue
        comp[root] = root
        potential[root] = 0
        discrepancy[root] = 0
        frontier = [root]
        while frontier:
            f = frontier.pop()
            for m in maps:
                g, shift = m[f]
                value = potential[f] + shift
                if g not in comp:
                    comp[g] = root
                    potential[g] = value
                    frontier.append(g)
                else:
                    d = abs(value - potential[g])
                    discrepancy[root] = gcd(discrepancy[root], d)
    totals = [discrepancy[r] for r in discrepancy]
    if series and (not maps or any(t == 0 for t in totals)):
        return INFINITE
    return sum(totals) + spor_orbits


def aff_count(quiver: str, kind: str, group: str):
    """|C_kind| modulo the chosen group; INFINITE for the infinite sets.

    Quotient counts are orbit counts of the canonical family
    representatives under the transcribed actions.
    """
    if (quiver, group) not in GROUP_GENERATORS:
        raise ValueError(f"unknown group {group!r} for {quiver}")
    families = _families(quiver, kind)
    gens = GROUP_GENERATORS[(quiver, group)]
    if not families:
        return 0
    if not gens:
        return INFINITE if any(families.values()) else len(families)
    maps = [_family_shift_maps(quiver, kind, g) for g in gens]
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


# the --kind choices of `affine count`, by the kind names of aff_count
_COUNT_KINDS = {
    "genus-1": "genus-1",
    "genus0": "genus0",
    "genus1": "genus1",
    "triples-a3": "triples-A3",
    "triples-q1": "triples-Q1",
}


def _cmd_affine_count(args):
    """The CLI handler of `affine count`."""
    count = aff_count(args.quiver, _COUNT_KINDS[args.kind], args.group)
    return {"count": str(count)}
