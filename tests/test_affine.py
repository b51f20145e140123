import re
from collections import Counter
from itertools import combinations, permutations, product
from math import gcd
from operator import mul

import pytest

from nccount import INFINITE
from nccount.affine import (
    ACTIONS,
    ARROWS,
    GROUP_GENERATORS,
    ROOTS,
    SERIES,
    SPORADIC,
    AffSubcat,
    _match,
    act_on_subcat,
    aff_act,
    aff_count,
    aff_enum_curves,
    aff_pair_class,
    aff_vanishing,
    classify_generator_pair,
    obj,
    root,
    subcat,
)
from nccount.category import category
from nccount.digraph import build_curve_graph
from nccount.quiver import PairClass, euler_form, span


def q1(f, i=None):
    return obj("q1", f, i)


def q2(f, i=None):
    return obj("q2", f, i)


def euler(x, y):
    """The Euler form <x, y> on the roots of two objects: sum_i x_i y_i minus
    x_s y_t summed over the arrows s -> t."""
    rx, ry = root(x), root(y)
    return sum(map(mul, rx, ry)) - sum(rx[s] * ry[t] for s, t in ARROWS[x.quiver])


def test_object_validation():
    with pytest.raises(ValueError):
        obj("q1", "a")  # series needs index
    with pytest.raises(ValueError):
        obj("q1", "M", 3)  # sporadic carries no index
    with pytest.raises(ValueError):
        obj("q3", "a", 0)
    with pytest.raises(ValueError):
        obj("q1", "F+")  # q2-only family
    with pytest.raises(ValueError, match="unknown family 'zz'"):
        subcat("q2", "genus0", "zz", 0)
    with pytest.raises(ValueError, match="indexed=True, got None"):
        subcat("q2", "genus0", "aF+")


@pytest.mark.parametrize("index", [2.5, "7", 2.0, True])
def test_obj_refuses_a_non_int_index(index):
    with pytest.raises(ValueError, match=re.escape(f"index {index!r} is not an int")):
        obj("q1", "a", index)


@pytest.mark.parametrize("index", [1.0, "3", 1.5, False])
def test_subcat_refuses_a_non_int_index(index):
    with pytest.raises(ValueError, match=re.escape(f"index {index!r} is not an int")):
        subcat("q1", "genus0", "a-perp", index)


def test_pair_class_q1():
    for m in range(-3, 4):
        assert aff_pair_class(q1("a", m), q1("a", m + 1)) is PairClass.HOM_TWO
        assert aff_pair_class(q1("b", m), q1("b", m + 1)) is PairClass.HOM_TWO
        assert aff_pair_class(q1("M'"), q1("a", m)) is PairClass.HOM_ONE
        assert aff_pair_class(q1("a", m), q1("b", m + 1)) is PairClass.HOM_ONE
        assert aff_pair_class(q1("b", m), q1("a", m)) is PairClass.HOM_ONE
        assert aff_pair_class(q1("a", m), q1("M")) is PairClass.HOM_ONE
        assert aff_pair_class(q1("M"), q1("b", m)) is PairClass.HOM_ONE
        assert aff_pair_class(q1("b", m), q1("M'")) is PairClass.HOM_ONE
        # no orthogonal pairs at all on q1
        assert aff_pair_class(q1("a", m), q1("a", m + 2)) is PairClass.NOT_EXCEPTIONAL
    assert aff_pair_class(q1("M"), q1("M'")) is PairClass.NOT_EXCEPTIONAL
    assert aff_pair_class(q1("M'"), q1("M")) is PairClass.NOT_EXCEPTIONAL


def test_pair_class_q2():
    m = 5
    assert aff_pair_class(q2("F+"), q2("F-")) is PairClass.ORTHOGONAL
    assert aff_pair_class(q2("F-"), q2("F+")) is PairClass.ORTHOGONAL
    assert aff_pair_class(q2("a", m - 1), q2("c", m)) is PairClass.HOM_ONE
    assert aff_pair_class(q2("c", m), q2("d", m)) is PairClass.ORTHOGONAL
    assert aff_pair_class(q2("a", m), q2("b", m + 1)) is PairClass.ORTHOGONAL
    assert aff_pair_class(q2("c", m), q2("c", m + 1)) is PairClass.HOM_TWO
    assert aff_pair_class(q2("F+"), q2("G-")) is PairClass.NOT_EXCEPTIONAL
    with pytest.raises(ValueError):
        aff_pair_class(q2("a", m), q2("a", m))
    with pytest.raises(ValueError):
        aff_pair_class(q1("a", 0), q2("a", 0))


def test_orthogonality_is_symmetric():
    objs = [q2("a", m) for m in range(-2, 3)]
    objs += [q2("b", m) for m in range(-2, 3)]
    objs += [q2("c", m) for m in range(-2, 3)]
    objs += [q2("d", m) for m in range(-2, 3)]
    objs += [q2(s) for s in ("F+", "F-", "G+", "G-")]
    for x in objs:
        for y in objs:
            if x == y:
                continue
            if aff_pair_class(x, y) is PairClass.ORTHOGONAL:
                assert aff_pair_class(y, x) is PairClass.ORTHOGONAL


def test_at_most_one_direction_exceptional_unless_orthogonal():
    objs = [q1(f, m) for f in "ab" for m in range(-2, 3)] + [q1("M"), q1("M'")]
    for x in objs:
        for y in objs:
            if x == y:
                continue
            cx = aff_pair_class(x, y)
            cy = aff_pair_class(y, x)
            if cx is not PairClass.NOT_EXCEPTIONAL:
                assert cy is PairClass.NOT_EXCEPTIONAL  # q1 has no orthogonals


def test_actions_q1():
    assert aff_act("serre", q1("a", 3)) == q1("b", 2)
    assert aff_act("serre", q1("b", 3)) == q1("a", 1)
    assert aff_act("serre", q1("M")) == q1("M'")
    assert aff_act("zeta", q1("a", 3)) == q1("b", 3)
    # zeta twice steps the b series down by one
    m = 4
    assert aff_act("zeta", aff_act("zeta", q1("b", m))) == q1("b", m - 1)
    # zeta swaps the sporadic objects, as it swaps their orthogonals M-perp
    # and M'-perp in the family table
    assert aff_act("zeta", q1("M")) == q1("M'")
    assert aff_act("zeta", q1("M'")) == q1("M")
    with pytest.raises(ValueError):
        aff_act("theta", q1("a", 0))


def test_actions_q2():
    assert aff_act("serre", q2("b", 5)) == q2("a", 3)
    assert aff_act("serre", q2("a", 5)) == q2("b", 5)
    assert aff_act("serre", q2("c", 5)) == q2("d", 4)
    assert aff_act("theta", q2("c", 2)) == q2("d", 2)
    assert aff_act("theta", q2("F+")) == q2("F-")
    assert aff_act("zeta", q2("a", 2)) == q2("d", 2)
    assert aff_act("zeta", q2("b", 2)) == q2("c", 1)
    assert aff_act("zeta", q2("G+")) == q2("F-")


def test_actions_preserve_pair_classes():
    for q in ("q1", "q2"):
        objs = _window_objects(q, -3, 3)
        for g in GROUP_GENERATORS[q, "full"]:
            for x in objs:
                for y in objs:
                    if x == y:
                        continue
                    assert aff_pair_class(x, y) is aff_pair_class(
                        aff_act(g, x), aff_act(g, y)
                    ), (g, x, y)


def test_serre_table_genus1_q2():
    expect = {"A": "B", "B": "A", "C": "D", "D": "C"}
    for fam, img in expect.items():
        got = act_on_subcat("serre", subcat("q2", "genus1", fam))
        assert (got.family, got.index) == (img, None)


def test_serre_table_genus0_q2():
    expect = {
        "cG-": ("dF+", -1), "aF+": ("bG-", 0), "dG+": ("cF-", -1),
        "aF-": ("bG+", 0), "cF-": ("dG+", -1), "bG+": ("aF-", -2),
        "dF+": ("cG-", -1), "bG-": ("aF+", -2),
    }
    for m in range(-2, 3):
        for fam, (img, shift) in expect.items():
            got = act_on_subcat("serre", subcat("q2", "genus0", fam, m))
            assert (got.family, got.index) == (img, m + shift), (fam, m)


def test_serre_table_genus_minus1_q2():
    for m in range(-2, 3):
        got = act_on_subcat("serre", subcat("q2", "genus-1", "AB", m))
        assert (got.family, got.index) == ("AB", m - 1)
        got = act_on_subcat("serre", subcat("q2", "genus-1", "CD", m))
        assert (got.family, got.index) == ("CD", m - 1)
    pairs = {"F+-": "G+-", "G+-": "F+-", "FG+": "FG-", "FG-": "FG+"}
    for fam, img in pairs.items():
        assert act_on_subcat("serre", subcat("q2", "genus-1", fam)).family == img


def test_count_tables():
    # first quiver
    assert aff_count("q1", "genus-1", "id") == 0
    assert aff_count("q1", "genus-1", "serre") == 0
    assert aff_count("q1", "genus-1", "full") == 0
    assert aff_count("q1", "genus0", "id") is INFINITE
    assert aff_count("q1", "genus0", "serre") == 3
    assert aff_count("q1", "genus0", "full") == 1
    assert aff_count("q1", "genus1", "id") == 2
    assert aff_count("q1", "genus1", "serre") == 1
    assert aff_count("q1", "genus1", "full") == 1
    # second quiver
    assert aff_count("q2", "genus-1", "id") is INFINITE
    assert aff_count("q2", "genus-1", "serre") == 4
    assert aff_count("q2", "genus-1", "full") == 2
    assert aff_count("q2", "genus0", "id") is INFINITE
    assert aff_count("q2", "genus0", "serre") == 8
    assert aff_count("q2", "genus0", "full") == 1
    assert aff_count("q2", "genus1", "id") == 4
    assert aff_count("q2", "genus1", "serre") == 2
    assert aff_count("q2", "genus1", "full") == 1
    # triples on the square quiver
    assert aff_count("q2", "triples-a3", "id") is INFINITE
    assert aff_count("q2", "triples-a3", "serre") == 4
    assert aff_count("q2", "triples-a3", "full") == 1
    assert aff_count("q2", "triples-q1", "id") == 4
    assert aff_count("q2", "triples-q1", "serre") == 2
    assert aff_count("q2", "triples-q1", "full") == 1


def test_count_invalid():
    with pytest.raises(ValueError):
        aff_count("q1", "triples-q1", "id")
    with pytest.raises(ValueError):
        aff_count("q2", "genus0", "kappa")


def test_enum_curves():
    assert [c.family for c in aff_enum_curves("q2", 1, (0, 0))] == ["A", "B", "C", "D"]
    assert aff_enum_curves("q1", -1, (0, 5)) == []
    g1 = aff_enum_curves("q1", 1, (0, 3))
    assert {c.family for c in g1} == {"M-perp", "M'-perp"}
    g0 = aff_enum_curves("q2", 0, (0, 2))
    assert len(g0) == 8 * 3
    gm1 = aff_enum_curves("q2", -1, (-1, 1))
    assert len(gm1) == 2 * 3 + 4
    with pytest.raises(ValueError):
        aff_enum_curves("q2", 2, (0, 1))
    with pytest.raises(ValueError):
        aff_enum_curves("q2", 0, (2, 1))


def test_enum_windows_grow():
    # windowed enumeration of the infinite families grows strictly and
    # members stay pairwise distinct
    last = 0
    for w in range(1, 6):
        got = aff_enum_curves("q2", 0, (0, w - 1))
        assert len(set(got)) == len(got) > last
        last = len(got)


def test_vanishing():
    assert aff_vanishing("q1", 2)
    assert aff_vanishing("q2", 17)
    assert aff_vanishing("q1", -1)
    assert not aff_vanishing("q2", -1)
    assert not aff_vanishing("q2", 1)
    assert not aff_vanishing("q1", 0)
    with pytest.raises(ValueError):
        aff_vanishing("q1", -2)
    with pytest.raises(ValueError, match="unknown quiver 'q3'"):
        aff_vanishing("q3", 0)


def test_generator_pair_classification_q1_rows():
    # the three spanning-pair presentations of each q1 genus-0 curve agree
    for m in range(-2, 3):
        forms = {
            classify_generator_pair(q1("M'"), q1("a", m)),
            classify_generator_pair(q1("a", m), q1("b", m + 1)),
            classify_generator_pair(q1("b", m + 1), q1("M'")),
        }
        assert forms == {AffSubcat("q1", "genus0", "a-perp", m + 1)}
        forms = {
            classify_generator_pair(q1("M"), q1("b", m)),
            classify_generator_pair(q1("b", m), q1("a", m)),
            classify_generator_pair(q1("a", m), q1("M")),
        }
        assert forms == {AffSubcat("q1", "genus0", "b-perp", m + 1)}


_KIND_OF_HOM = {
    PairClass.ORTHOGONAL: "genus-1", PairClass.HOM_ONE: "genus0",
    PairClass.HOM_TWO: "genus1",
}


@pytest.mark.parametrize("q", ["q1", "q2"])
def test_every_exceptional_pair_is_named(q):
    # each ordered exceptional pair names the curve of its hom; an orthogonal
    # pair is its member's generators, and a hom-one pair x, y spans the
    # genus-0 curve whose derived points have the roots x, y and x +- y
    objs = _window_objects(q, -4, 4)
    for x, y in permutations(objs, 2):
        hom = aff_pair_class(x, y)
        if hom is PairClass.NOT_EXCEPTIONAL:
            continue
        got = classify_generator_pair(x, y)
        assert got.kind == _KIND_OF_HOM[hom], (x, y)
        assert got == subcat(q, got.kind, got.family, got.index), (x, y)
        if hom is PairClass.ORTHOGONAL:
            assert set(got.generators()) == {x, y}, (x, y)
        if hom is PairClass.HOM_ONE:
            rx, ry = root(x), root(y)
            points = {rx, ry, tuple(map(sum, zip(rx, ry))),
                      tuple(a - b for a, b in zip(rx, ry))}
            assert {_signed(root(g)) for g in got.generators()} <= {
                _signed(v) for v in points}, (x, y)


def test_every_exceptional_triple_of_q2_is_named():
    # each 3-set of q2 objects with |m| <= 4 that some order makes an
    # exceptional sequence, <later, earlier> = 0, generates a member of
    # exactly one triple kind, as _match names it by its span
    objs = _window_objects("q2", -4, 4)
    zero = {(x, y) for x, y in permutations(objs, 2) if not euler(x, y)}
    named = Counter()
    for trio in combinations(objs, 3):
        if not any({(y, x), (z, x), (z, y)} <= zero for x, y, z in permutations(trio)):
            continue
        kinds = [k for k in ("triples-a3", "triples-q1") if _match("q2", k, trio)]
        assert len(kinds) == 1, trio
        named[kinds[0]] += 1
    assert named == {"triples-a3": 414, "triples-q1": 260}


def test_classify_generator_pair_refuses_a_pair_in_neither_order():
    for x, y in ((q1("M"), q1("M'")), (q1("M'"), q1("M")), (q2("F+"), q2("G-")),
                 (q1("a", 0), q1("a", 0)), (q1("a", 0), q1("a", 2))):
        with pytest.raises(ValueError, match="in neither order"):
            classify_generator_pair(x, y)
    with pytest.raises(ValueError, match="mixed"):
        classify_generator_pair(q1("a", 0), q2("a", 1))


# Which families are Z-series of distinct members, typed by hand: the oracle
# for the flags that the spans of the members give
_INDEXED = {
    ("q1", "genus-1"): {},
    ("q1", "genus0"): {"a-perp": True, "b-perp": True},
    ("q1", "genus1"): {"M-perp": False, "M'-perp": False},
    ("q2", "genus-1"): {
        "AB": True, "CD": True, "F+-": False, "G+-": False, "FG+": False, "FG-": False,
    },
    ("q2", "genus0"): {
        "aF+": True, "aF-": True, "bG+": True, "bG-": True,
        "cG-": True, "cF-": True, "dG+": True, "dF+": True,
    },
    ("q2", "genus1"): {"A": False, "B": False, "C": False, "D": False},
    ("q2", "triples-a3"): {
        "a-perp": True, "b-perp": True, "c-perp": True, "d-perp": True,
    },
    ("q2", "triples-q1"): {
        "F+-perp": False, "F--perp": False, "G+-perp": False, "G--perp": False,
    },
}


def test_indexed_flags_table():
    from nccount.affine import _families

    for (q, kind), flags in _INDEXED.items():
        assert _families(q, kind) == flags, (q, kind)


# The object whose orthogonal each of these families is, typed by hand: a
# member of index m is the orthogonal of the object of index m, so the group
# moves the member as it moves that object
_PERP = {
    ("q1", "genus0"): {"a-perp": "a", "b-perp": "b"},
    ("q2", "triples-a3"): {f"{f}-perp": f for f in "abcd"},
    ("q2", "triples-q1"): {f"{f}-perp": f for f in ("F+", "F-", "G+", "G-")},
}


@pytest.mark.parametrize("q, kind", sorted(_PERP))
def test_perp_families_follow_their_perp_objects(q, kind):
    perps = _PERP[q, kind]
    gens = GROUP_GENERATORS[q, "full"]
    for fam, perp in perps.items():
        indexed = _INDEXED[q, kind][fam]
        for m in range(-8, 9) if indexed else (None,):
            sub = subcat(q, kind, fam, m)
            x = obj(q, perp, m)
            assert all(euler(x, g) == 0 for g in sub.generators()), sub
            for g in gens:
                img = aff_act(g, x)
                want = next(f for f, p in perps.items() if p == img.family)
                assert act_on_subcat(g, sub) == subcat(q, kind, want, img.index), (g, sub)


def _all_members(q, reach):
    for (quiver, kind), flags in _INDEXED.items():
        if quiver == q:
            for fam, indexed in flags.items():
                for m in range(-reach, reach + 1) if indexed else (None,):
                    yield subcat(q, kind, fam, m)


@pytest.mark.parametrize("q", ["q1", "q2"])
def test_member_spans_are_saturated_and_distinct(q):
    # each member's span is saturated (its minors have gcd 1), names the
    # member back, and no two members of a quiver share one up to sign
    from nccount.affine import _match

    seen = {}
    for sub in _all_members(q, 20):
        v = span([root(g) for g in sub.generators()])
        assert gcd(*v) == 1, sub
        assert _signed(v) not in seen, (sub, seen.get(_signed(v)))
        seen[_signed(v)] = sub
        assert _match(q, sub.kind, sub.generators()) == sub
    assert len(seen) == {"q1": 84, "q2": 586}[q]


def test_count_shift_system_cases():
    from nccount.affine import _count_shift_system

    # a series fixed with its index: every member is its own orbit
    assert _count_shift_system({"x": True}, [{"x": ("x", 0)}]) is INFINITE
    # a cycle of two series that shifts by 3
    maps = [{"x": ("y", 1), "y": ("x", 2)}]
    assert _count_shift_system({"x": True, "y": True}, maps) == 3
    # two swapped sporadic points, and no generators at all
    maps = [{"p": ("r", None), "r": ("p", None)}]
    assert _count_shift_system({"p": False, "r": False}, maps) == 1
    assert _count_shift_system({"p": False, "r": False}, []) == 2
    assert _count_shift_system({"p": False, "x": True}, []) is INFINITE
    assert _count_shift_system({}, []) == 0


def test_generators_are_valid():
    # every emitted family member is generated by a semi-orthogonal sequence
    for quiver, kinds in [
        ("q1", ("genus0", "genus1")),
        ("q2", ("genus-1", "genus0", "genus1", "triples-a3", "triples-q1")),
    ]:
        for kind in kinds:
            for sub in _members(quiver, kind):
                gens = sub.generators()
                for i in range(len(gens)):
                    for j in range(i + 1, len(gens)):
                        assert aff_pair_class(gens[i], gens[j]) is not (
                            PairClass.NOT_EXCEPTIONAL
                        ), (sub, gens)


def _members(quiver, kind):
    if kind.startswith("genus"):
        genus = {"genus-1": -1, "genus0": 0, "genus1": 1}[kind]
        return aff_enum_curves(quiver, genus, (-1, 1))
    from nccount.affine import _families

    out = []
    for fam, indexed in _families(quiver, kind).items():
        if indexed:
            out.extend(AffSubcat(quiver, kind, fam, m) for m in range(-1, 2))
        else:
            out.append(AffSubcat(quiver, kind, fam))
    return out


# family -> (image family, index shift or None) of each group generator on
# each kind, as derived from the object-level actions
_SHIFT_MAPS = {
    ("q1", "genus-1", "serre"): {},
    ("q1", "genus-1", "zeta"): {},
    ("q1", "genus0", "serre"): {"a-perp": ("b-perp", -1), "b-perp": ("a-perp", -2)},
    ("q1", "genus0", "zeta"): {"a-perp": ("b-perp", 0), "b-perp": ("a-perp", -1)},
    ("q1", "genus1", "serre"): {"M-perp": ("M'-perp", None), "M'-perp": ("M-perp", None)},
    ("q1", "genus1", "zeta"): {"M-perp": ("M'-perp", None), "M'-perp": ("M-perp", None)},
    ("q2", "genus-1", "serre"): {
        "AB": ("AB", -1), "CD": ("CD", -1), "F+-": ("G+-", None),
        "G+-": ("F+-", None), "FG+": ("FG-", None), "FG-": ("FG+", None),
    },
    ("q2", "genus-1", "theta"): {
        "AB": ("AB", 0), "CD": ("CD", 0), "F+-": ("F+-", None),
        "G+-": ("G+-", None), "FG+": ("FG-", None), "FG-": ("FG+", None),
    },
    ("q2", "genus-1", "zeta"): {
        "AB": ("CD", 0), "CD": ("AB", -1), "F+-": ("FG+", None),
        "G+-": ("FG-", None), "FG+": ("F+-", None), "FG-": ("G+-", None),
    },
    ("q2", "genus0", "serre"): {
        "aF+": ("bG-", 0), "aF-": ("bG+", 0), "bG+": ("aF-", -2), "bG-": ("aF+", -2),
        "cG-": ("dF+", -1), "cF-": ("dG+", -1), "dG+": ("cF-", -1), "dF+": ("cG-", -1),
    },
    ("q2", "genus0", "theta"): {
        "aF+": ("aF-", 0), "aF-": ("aF+", 0), "bG+": ("bG-", 0), "bG-": ("bG+", 0),
        "cG-": ("dG+", 0), "cF-": ("dF+", 0), "dG+": ("cG-", 0), "dF+": ("cF-", 0),
    },
    ("q2", "genus0", "zeta"): {
        "aF+": ("dF+", 0), "aF-": ("dG+", 0), "bG+": ("cF-", -1), "bG-": ("cG-", -1),
        "cG-": ("bG-", 0), "cF-": ("bG+", 0), "dG+": ("aF-", -1), "dF+": ("aF+", -1),
    },
    ("q2", "genus1", "serre"): {
        "A": ("B", None), "B": ("A", None), "C": ("D", None), "D": ("C", None),
    },
    ("q2", "genus1", "theta"): {
        "A": ("A", None), "B": ("B", None), "C": ("D", None), "D": ("C", None),
    },
    ("q2", "genus1", "zeta"): {
        "A": ("D", None), "B": ("C", None), "C": ("B", None), "D": ("A", None),
    },
    ("q2", "triples-a3", "serre"): {
        "a-perp": ("b-perp", 0), "b-perp": ("a-perp", -2),
        "c-perp": ("d-perp", -1), "d-perp": ("c-perp", -1),
    },
    ("q2", "triples-a3", "theta"): {
        "a-perp": ("a-perp", 0), "b-perp": ("b-perp", 0),
        "c-perp": ("d-perp", 0), "d-perp": ("c-perp", 0),
    },
    ("q2", "triples-a3", "zeta"): {
        "a-perp": ("d-perp", 0), "b-perp": ("c-perp", -1),
        "c-perp": ("b-perp", 0), "d-perp": ("a-perp", -1),
    },
    ("q2", "triples-q1", "serre"): {
        "F+-perp": ("G--perp", None), "F--perp": ("G+-perp", None),
        "G+-perp": ("F--perp", None), "G--perp": ("F+-perp", None),
    },
    ("q2", "triples-q1", "theta"): {
        "F+-perp": ("F--perp", None), "F--perp": ("F+-perp", None),
        "G+-perp": ("G--perp", None), "G--perp": ("G+-perp", None),
    },
    ("q2", "triples-q1", "zeta"): {
        "F+-perp": ("F+-perp", None), "F--perp": ("G+-perp", None),
        "G+-perp": ("F--perp", None), "G--perp": ("G--perp", None),
    },
}


def test_family_shift_maps_table():
    from nccount.affine import _family_shift_maps

    kinds = {
        "q1": ("genus-1", "genus0", "genus1"),
        "q2": ("genus-1", "genus0", "genus1", "triples-a3", "triples-q1"),
    }
    keys = {
        (q, kind, g)
        for (q, _), gens in GROUP_GENERATORS.items()
        for g in gens
        for kind in kinds[q]
    }
    assert keys == set(_SHIFT_MAPS)
    for q, kind, g in sorted(keys):
        assert _family_shift_maps(q, kind, g) == _SHIFT_MAPS[(q, kind, g)], (q, kind, g)


def test_hom_values():
    assert euler(q1("a", 0), q1("a", 1)) == 2
    assert euler(q2("F+"), q2("F-")) == 0
    assert euler(q2("a", 0), q2("F+")) == 1
    # the record's hom of a pair is |<x, y>|
    cat = category("q2", (0, 1))
    assert cat.total_hom(q2("a", 0), q2("a", 1)) == 2
    assert cat.total_hom(q2("F+"), q2("F-")) == 0
    assert cat.total_hom(q2("a", 0), q2("F+")) == 1
    # backward homs of an exceptional pair vanish
    assert euler(q1("a", 1), q1("a", 0)) == 0
    assert aff_pair_class(q1("a", 0), q1("a", 1)) is not PairClass.NOT_EXCEPTIONAL
    assert aff_pair_class(q1("a", 1), q1("a", 0)) is PairClass.NOT_EXCEPTIONAL
    # both directions nonzero when neither order is exceptional
    assert euler(q1("a", 2), q1("a", 0)) and euler(q1("a", 0), q1("a", 2))
    assert aff_pair_class(q1("a", 2), q1("a", 0)) is PairClass.NOT_EXCEPTIONAL
    assert aff_pair_class(q1("a", 0), q1("a", 2)) is PairClass.NOT_EXCEPTIONAL


# The complete classification of exceptional pairs as it was transcribed by
# hand, the reference for the Euler-form rule.  Series-series rules are keyed
# by (family_x, family_y, index_y - index_x); rules involving a sporadic
# member hold for every index of the series member.
_SS = {
    "q1": {
        ("a", "a", 1): PairClass.HOM_TWO,
        ("b", "b", 1): PairClass.HOM_TWO,
        ("a", "b", 1): PairClass.HOM_ONE,
        ("b", "a", 0): PairClass.HOM_ONE,
    },
    "q2": {
        ("a", "a", 1): PairClass.HOM_TWO,
        ("b", "b", 1): PairClass.HOM_TWO,
        ("c", "c", 1): PairClass.HOM_TWO,
        ("d", "d", 1): PairClass.HOM_TWO,
        ("a", "b", 1): PairClass.ORTHOGONAL,
        ("b", "a", -1): PairClass.ORTHOGONAL,
        ("c", "d", 0): PairClass.ORTHOGONAL,
        ("d", "c", 0): PairClass.ORTHOGONAL,
        ("a", "c", 1): PairClass.HOM_ONE,
        ("c", "a", 0): PairClass.HOM_ONE,
        ("a", "d", 1): PairClass.HOM_ONE,
        ("d", "a", 0): PairClass.HOM_ONE,
        ("b", "c", 0): PairClass.HOM_ONE,
        ("c", "b", 1): PairClass.HOM_ONE,
        ("b", "d", 0): PairClass.HOM_ONE,
        ("d", "b", 1): PairClass.HOM_ONE,
    },
}

_MIXED = {
    "q1": {
        ("M'", "a"): PairClass.HOM_ONE,
        ("a", "M"): PairClass.HOM_ONE,
        ("M", "b"): PairClass.HOM_ONE,
        ("b", "M'"): PairClass.HOM_ONE,
    },
    "q2": {
        ("c", "G-"): PairClass.HOM_ONE, ("G-", "a"): PairClass.HOM_ONE,
        ("a", "F+"): PairClass.HOM_ONE, ("F+", "c"): PairClass.HOM_ONE,
        ("d", "G+"): PairClass.HOM_ONE, ("G+", "a"): PairClass.HOM_ONE,
        ("a", "F-"): PairClass.HOM_ONE, ("F-", "d"): PairClass.HOM_ONE,
        ("c", "F-"): PairClass.HOM_ONE, ("F-", "b"): PairClass.HOM_ONE,
        ("b", "G+"): PairClass.HOM_ONE, ("G+", "c"): PairClass.HOM_ONE,
        ("d", "F+"): PairClass.HOM_ONE, ("F+", "b"): PairClass.HOM_ONE,
        ("b", "G-"): PairClass.HOM_ONE, ("G-", "d"): PairClass.HOM_ONE,
    },
}

_SPOR = {
    "q1": {},
    "q2": {
        frozenset(("F+", "F-")): PairClass.ORTHOGONAL,
        frozenset(("G+", "G-")): PairClass.ORTHOGONAL,
        frozenset(("F+", "G+")): PairClass.ORTHOGONAL,
        frozenset(("F-", "G-")): PairClass.ORTHOGONAL,
    },
}

_TOTAL_HOM = {
    PairClass.HOM_TWO: 2, PairClass.HOM_ONE: 1, PairClass.ORTHOGONAL: 0,
}


def _table_class(x, y):
    """The class of the ordered pair (x, y) by rule-table lookup."""
    q = x.quiver
    if x.index is not None and y.index is not None:
        return _SS[q].get(
            (x.family, y.family, y.index - x.index), PairClass.NOT_EXCEPTIONAL
        )
    if (x.index is None) != (y.index is None):
        return _MIXED[q].get((x.family, y.family), PairClass.NOT_EXCEPTIONAL)
    return _SPOR[q].get(frozenset((x.family, y.family)), PairClass.NOT_EXCEPTIONAL)


_REACH = 40


def _window_objects(q, lo, hi):
    return [obj(q, f, m) for f in SERIES[q] for m in range(lo, hi + 1)] + [
        obj(q, f) for f in SPORADIC[q]
    ]


def _delta(q):
    return (1,) * len(ROOTS[q]["a"])


@pytest.mark.parametrize("q", ["q1", "q2"])
def test_rule_tables_agree_with_the_euler_form(q):
    # Why a finite window decides all of Z: <delta, delta> = 0, and every
    # series base b has <b, delta> = 1 = -<delta, b> while every sporadic
    # base s has <s, delta> = 0 = <delta, s> (checked below).  So
    # <x^m, y^k> = <b_x, b_y> + (k - m) for two series members, and the
    # index drops out wherever a sporadic object takes part.  The Euler rule
    # admits (x^m, y^k) only when <y^k, x^m> = <b_y, b_x> + (m - k) = 0, and
    # the tables only for |k - m| <= 1; so index differences up to the
    # largest |<b_y, b_x>| and 1 decide every pair, and the window's
    # differences reach 2 * _REACH, far beyond that.
    quiver, delta = ARROWS[q], _delta(q)
    assert euler_form(quiver, delta, delta) == 0
    for f in SERIES[q]:
        b = ROOTS[q][f]
        assert (euler_form(quiver, b, delta), euler_form(quiver, delta, b)) == (1, -1)
    for f in SPORADIC[q]:
        s = ROOTS[q][f]
        assert (euler_form(quiver, s, delta), euler_form(quiver, delta, s)) == (0, 0)
    bases = [obj(q, f, 0) for f in SERIES[q]]
    assert max(max(abs(euler(x, y)) for x in bases for y in bases), 1) < 2 * _REACH

    objs = _window_objects(q, -_REACH, _REACH)
    cat = category(q, (-_REACH, _REACH))
    assert sorted(cat.objects.values()) == sorted(objs)
    for x, y in product(objs, repeat=2):
        if x == y:
            continue
        want = _table_class(x, y)
        assert aff_pair_class(x, y) is want, (x, y)
        assert cat.is_pair(x, y) is (want is not PairClass.NOT_EXCEPTIONAL), (x, y)
        if want is not PairClass.NOT_EXCEPTIONAL:
            assert cat.total_hom(x, y) == _TOTAL_HOM[want], (x, y)


def _sign(v):
    """The sign of the first nonzero entry of v."""
    return 1 if next(e for e in v if e) > 0 else -1


def _signed(v):
    """v or -v, whichever has a positive first nonzero entry."""
    return tuple(_sign(v) * e for e in v)


def _serre(q, v):
    """E^-1 E^T v, where E[i][j] = <e_i, e_j> = [i = j] - A[i][j] for the
    arrow counts A.  Every arrow runs from a lower vertex to a higher one, so
    E is upper unitriangular and E s = E^T v solves from the last vertex up."""
    n = len(v)
    arrows = [[0] * n for _ in range(n)]
    for i, j in ARROWS[q]:
        arrows[i][j] += 1
    target = [v[i] - sum(arrows[j][i] * v[j] for j in range(n)) for i in range(n)]
    s = [0] * n
    for i in reversed(range(n)):
        s[i] = target[i] + sum(arrows[i][j] * s[j] for j in range(i + 1, n))
    return tuple(s)


@pytest.mark.parametrize("q", ["q1", "q2"])
def test_root_table(q):
    quiver, delta = ARROWS[q], _delta(q)
    objs = _window_objects(q, -6, 6)
    # real roots, pairwise distinct up to sign, with the quiver's Euler form
    assert len({_signed(root(x)) for x in objs}) == len(objs)
    for x in objs:
        assert euler(x, x) == 1
        for y in objs:
            rx, ry = root(x), root(y)
            assert euler(x, y) == _sign(rx) * _sign(ry) * euler_form(
                quiver, _signed(rx), _signed(ry))
    # series bases have nonzero defect; the sporadic bases are the regular
    # simples of the rank-2 tubes: all the real roots strictly below delta
    # with defect 0
    for f in SERIES[q]:
        assert euler_form(quiver, delta, ROOTS[q][f]) != 0
    below = [
        v for v in product((0, 1), repeat=len(delta))
        if any(v) and not all(v) and euler_form(quiver, v, v) == 1
        and euler_form(quiver, delta, v) == 0
    ]
    assert sorted(below) == sorted(ROOTS[q][f] for f in SPORADIC[q])


# The group actions as they were typed by hand, label by label:
# series family -> (image family, index shift); sporadic -> name.  The typed
# zeta of q1 left M and M' open; its swap of them is the one its family
# table implies (M-perp goes to M'-perp in _SHIFT_MAPS).
TYPED_ACTIONS = {
    ("q1", "serre"): ({"a": ("b", -1), "b": ("a", -2)}, {"M": "M'", "M'": "M"}),
    ("q1", "zeta"): ({"a": ("b", 0), "b": ("a", -1)}, {"M": "M'", "M'": "M"}),
    ("q2", "serre"): (
        {"a": ("b", 0), "b": ("a", -2), "c": ("d", -1), "d": ("c", -1)},
        {"F+": "G-", "F-": "G+", "G+": "F-", "G-": "F+"},
    ),
    ("q2", "theta"): (
        {"a": ("a", 0), "b": ("b", 0), "c": ("d", 0), "d": ("c", 0)},
        {"F+": "F-", "F-": "F+", "G+": "G-", "G-": "G+"},
    ),
    ("q2", "zeta"): (
        {"a": ("d", 0), "b": ("c", -1), "c": ("b", 0), "d": ("a", -1)},
        {"F+": "F+", "F-": "G+", "G+": "F-", "G-": "G-"},
    ),
}

# zeta on K_0: the images of the simple roots, in vertex order
ZETA_IMAGES = {
    "q1": ((1, 1, 0), (1, 0, 1), (-1, 0, 0)),
    "q2": ((1, 1, 0, 0), (1, 0, 1, 1), (0, 0, 1, 0), (-1, 0, -1, 0)),
}


def _image(q, g, v):
    """v under the generator g: E^-1 E^T for Serre, the swap of vertices 1
    and 2 for theta, and the linear map of ZETA_IMAGES for zeta."""
    if g == "serre":
        return _serre(q, v)
    if g == "theta":
        return (v[0], v[2], v[1], v[3])
    return tuple(sum(c * w[j] for c, w in zip(v, ZETA_IMAGES[q])) for j in range(len(v)))


@pytest.mark.parametrize("q, g", sorted(TYPED_ACTIONS))
def test_actions_are_the_quiver_maps(q, g):
    # each generator acts on roots by its map on K_0, and that agrees with
    # the typed label maps
    series, sporadic = TYPED_ACTIONS[q, g]
    for x in _window_objects(q, -6, 6):
        image = _image(q, g, root(x))
        got = aff_act(g, x)
        assert _signed(root(got)) == _signed(image), (g, x)
        if x.index is None:
            assert got == obj(q, sporadic[x.family]), (g, x)
        else:
            family, shift = series[x.family]
            assert got == obj(q, family, x.index + shift), (g, x)


@pytest.mark.parametrize("q", ["q1", "q2"])
def test_actions_are_euler_isometries_fixing_delta(q):
    # every generator of the action table keeps the Euler form of the simple
    # roots, so of all of K_0, and sends delta to +-delta
    n = len(_delta(q))
    simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    for g, act in ACTIONS[q].items():
        for a, b in product(simples, repeat=2):
            got = euler_form(ARROWS[q], act(a), act(b))
            assert got == euler_form(ARROWS[q], a, b), (g, a, b)
        assert _signed(act(_delta(q))) == _delta(q), g


@pytest.mark.parametrize("q", ["q1", "q2"])
@pytest.mark.parametrize("window", [(3, 5), (-5, -3), (-2, 2)])
def test_curve_graph_on_any_window(q, window):
    # generators of the non-indexed curve families sit at indices 0 and 1
    # whatever the window, so the record's pair test must take objects from
    # outside it; the edges agree with aff_pair_class on every ordered pair
    cat = category(q, window)
    curves = cat.curves()
    g = build_curve_graph(q, window)
    assert g.vertices == sorted(curves.objects)
    edges = g.induced(g.vertices)
    for a, b in product(g.vertices, repeat=2):
        if a == b:
            continue
        gens_a, gens_b = curves.objects[a], curves.objects[b]
        want = all(
            x != y and aff_pair_class(y, x) is not PairClass.NOT_EXCEPTIONAL
            for x in gens_b
            for y in gens_a
        )
        assert ((a, b) in edges) is want, (a, b)
