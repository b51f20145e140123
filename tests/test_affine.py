import pytest

from nccount import INFINITE
from nccount.affine import (
    GROUP_GENERATORS,
    AffPairClass,
    AffSubcat,
    act_on_subcat,
    aff_act,
    aff_count,
    aff_enum_curves,
    aff_pair_class,
    aff_vanishing,
    classify_generator_pair,
    obj,
    pair_total_hom,
    subcat,
)


def q1(f, i=None):
    return obj("q1", f, i)


def q2(f, i=None):
    return obj("q2", f, i)


def test_object_validation():
    with pytest.raises(ValueError):
        obj("q1", "a")  # series needs index
    with pytest.raises(ValueError):
        obj("q1", "M", 3)  # sporadic carries no index
    with pytest.raises(ValueError):
        obj("q3", "a", 0)
    with pytest.raises(ValueError):
        obj("q1", "F+")  # q2-only family


def test_pair_class_q1():
    for m in range(-3, 4):
        assert aff_pair_class(q1("a", m), q1("a", m + 1)) is AffPairClass.HOM_TWO
        assert aff_pair_class(q1("b", m), q1("b", m + 1)) is AffPairClass.HOM_TWO
        assert aff_pair_class(q1("M'"), q1("a", m)) is AffPairClass.HOM_ONE
        assert aff_pair_class(q1("a", m), q1("b", m + 1)) is AffPairClass.HOM_ONE
        assert aff_pair_class(q1("b", m), q1("a", m)) is AffPairClass.HOM_ONE
        assert aff_pair_class(q1("a", m), q1("M")) is AffPairClass.HOM_ONE
        assert aff_pair_class(q1("M"), q1("b", m)) is AffPairClass.HOM_ONE
        assert aff_pair_class(q1("b", m), q1("M'")) is AffPairClass.HOM_ONE
        # no orthogonal pairs at all on q1
        assert aff_pair_class(q1("a", m), q1("a", m + 2)) is AffPairClass.NOT_EXCEPTIONAL
    assert aff_pair_class(q1("M"), q1("M'")) is AffPairClass.NOT_EXCEPTIONAL
    assert aff_pair_class(q1("M'"), q1("M")) is AffPairClass.NOT_EXCEPTIONAL


def test_pair_class_q2():
    m = 5
    assert aff_pair_class(q2("F+"), q2("F-")) is AffPairClass.ORTHOGONAL
    assert aff_pair_class(q2("F-"), q2("F+")) is AffPairClass.ORTHOGONAL
    assert aff_pair_class(q2("a", m - 1), q2("c", m)) is AffPairClass.HOM_ONE
    assert aff_pair_class(q2("c", m), q2("d", m)) is AffPairClass.ORTHOGONAL
    assert aff_pair_class(q2("a", m), q2("b", m + 1)) is AffPairClass.ORTHOGONAL
    assert aff_pair_class(q2("c", m), q2("c", m + 1)) is AffPairClass.HOM_TWO
    assert aff_pair_class(q2("F+"), q2("G-")) is AffPairClass.NOT_EXCEPTIONAL
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
            if aff_pair_class(x, y) is AffPairClass.ORTHOGONAL:
                assert aff_pair_class(y, x) is AffPairClass.ORTHOGONAL


def test_at_most_one_direction_exceptional_unless_orthogonal():
    objs = [q1(f, m) for f in "ab" for m in range(-2, 3)] + [q1("M"), q1("M'")]
    for x in objs:
        for y in objs:
            if x == y:
                continue
            cx = aff_pair_class(x, y)
            cy = aff_pair_class(y, x)
            if cx is not AffPairClass.NOT_EXCEPTIONAL:
                assert cy is AffPairClass.NOT_EXCEPTIONAL  # q1 has no orthogonals


def test_actions_q1():
    assert aff_act("serre", q1("a", 3)) == q1("b", 2)
    assert aff_act("serre", q1("b", 3)) == q1("a", 1)
    assert aff_act("serre", q1("M")) == q1("M'")
    assert aff_act("zeta", q1("a", 3)) == q1("b", 3)
    # zeta twice steps the b series down by one
    m = 4
    assert aff_act("zeta", aff_act("zeta", q1("b", m))) == q1("b", m - 1)
    with pytest.raises(ValueError):
        aff_act("theta", q1("a", 0))
    with pytest.raises(ValueError):
        aff_act("zeta", q1("M"))


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
    objs = [q2(f, m) for f in "abcd" for m in range(-3, 4)]
    objs += [q2(s) for s in ("F+", "F-", "G+", "G-")]
    for g in ("serre", "theta", "zeta"):
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
    assert aff_count("q2", "triples-A3", "id") is INFINITE
    assert aff_count("q2", "triples-A3", "serre") == 4
    assert aff_count("q2", "triples-A3", "full") == 1
    assert aff_count("q2", "triples-Q1", "id") == 4
    assert aff_count("q2", "triples-Q1", "serre") == 2
    assert aff_count("q2", "triples-Q1", "full") == 1


def test_count_invalid():
    with pytest.raises(ValueError):
        aff_count("q1", "triples-Q1", "id")
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


def test_generators_are_valid():
    # every emitted family member is generated by a semi-orthogonal sequence
    for quiver, kinds in [
        ("q1", ("genus0", "genus1")),
        ("q2", ("genus-1", "genus0", "genus1", "triples-A3", "triples-Q1")),
    ]:
        for kind in kinds:
            for sub in _members(quiver, kind):
                gens = sub.generators()
                for i in range(len(gens)):
                    for j in range(i + 1, len(gens)):
                        assert aff_pair_class(gens[i], gens[j]) is not (
                            AffPairClass.NOT_EXCEPTIONAL
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
    ("q2", "triples-A3", "serre"): {
        "a-perp": ("b-perp", 0), "b-perp": ("a-perp", -2),
        "c-perp": ("d-perp", -1), "d-perp": ("c-perp", -1),
    },
    ("q2", "triples-A3", "theta"): {
        "a-perp": ("a-perp", 0), "b-perp": ("b-perp", 0),
        "c-perp": ("d-perp", 0), "d-perp": ("c-perp", 0),
    },
    ("q2", "triples-A3", "zeta"): {
        "a-perp": ("d-perp", 0), "b-perp": ("c-perp", -1),
        "c-perp": ("b-perp", 0), "d-perp": ("a-perp", -1),
    },
    ("q2", "triples-Q1", "serre"): {
        "F+-perp": ("G--perp", None), "F--perp": ("G+-perp", None),
        "G+-perp": ("F--perp", None), "G--perp": ("F+-perp", None),
    },
    ("q2", "triples-Q1", "theta"): {
        "F+-perp": ("F--perp", None), "F--perp": ("F+-perp", None),
        "G+-perp": ("G--perp", None), "G--perp": ("G+-perp", None),
    },
    ("q2", "triples-Q1", "zeta"): {
        "F+-perp": ("F+-perp", None), "F--perp": ("G+-perp", None),
        "G+-perp": ("F--perp", None), "G--perp": ("G--perp", None),
    },
}


def test_family_shift_maps_table():
    from nccount.affine import _family_shift_maps

    kinds = {
        "q1": ("genus-1", "genus0", "genus1"),
        "q2": ("genus-1", "genus0", "genus1", "triples-A3", "triples-Q1"),
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
    assert pair_total_hom(q1("a", 0), q1("a", 1)) == 2
    assert pair_total_hom(q2("F+"), q2("F-")) == 0
    assert pair_total_hom(q2("a", 0), q2("F+")) == 1
    with pytest.raises(ValueError):
        pair_total_hom(q1("a", 1), q1("a", 0))
    # backward homs of an exceptional pair vanish
    assert aff_pair_class(q1("a", 0), q1("a", 1)) is not AffPairClass.NOT_EXCEPTIONAL
    assert aff_pair_class(q1("a", 1), q1("a", 0)) is AffPairClass.NOT_EXCEPTIONAL
    # both directions nonzero when neither order is exceptional
    assert aff_pair_class(q1("a", 2), q1("a", 0)) is AffPairClass.NOT_EXCEPTIONAL
    assert aff_pair_class(q1("a", 0), q1("a", 2)) is AffPairClass.NOT_EXCEPTIONAL
