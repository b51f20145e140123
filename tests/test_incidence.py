import json
import re
from collections import Counter
from itertools import combinations, product
from math import comb

import pytest

from nccount import GenSet, cli, typea
from nccount.category import category as record
from nccount.census import bits, pair_rows, subcategories
from nccount.incidence import (
    TRIVIAL,
    derived_points,
    glb,
    incidence_structure,
    intersect_curves,
)
from nccount.typea import Interval


def curve(*pairs):
    return GenSet(tuple(Interval(i, j) for i, j in pairs))


def test_derived_points_a3():
    got = derived_points(curve((0, 0), (1, 1)), "a3")
    assert got == {Interval(0, 0), Interval(1, 1), Interval(0, 1)}
    # shared-end presentations give the same triple
    assert derived_points(curve((0, 1), (0, 0)), "a3") == got
    assert derived_points(curve((1, 1), (0, 1)), "a3") == got


def test_derived_points_rejects_non_genus0():
    with pytest.raises(ValueError):
        derived_points(curve((0, 0), (2, 2)), "a3")  # orthogonal pair
    with pytest.raises(ValueError):
        derived_points(curve((0, 0), (1, 1), (2, 2)), "a3")
    # one object given twice spans nothing, on np-1 as on every record
    with pytest.raises(ValueError, match="is not spanned by an exceptional pair"):
        derived_points((1, 1), "np-1")


def test_derived_points_d4():
    assert derived_points(GenSet(("s3o", "delta")), "d4") == {
        "s3o", "delta", "s12",
    }
    assert derived_points(("s1", "so"), "d4") == {"s1", "so", "s1o"}


def test_every_pair_of_derived_points_spans_the_curve():
    for n, cat in [(2, "a3"), (4, "a5")]:
        from nccount.typea import enum_seqs, seq_to_subcategory

        for seq in enum_seqs(n, 2):
            c = seq_to_subcategory(seq)
            triple = derived_points(c, cat)
            for x, y in combinations(sorted(triple), 2):
                again = derived_points(GenSet((x, y)), cat)
                assert again == triple


def test_intersect_curves_a3():
    c1 = curve((0, 0), (1, 1))
    c2 = curve((1, 1), (2, 2))
    hit = intersect_curves(c1, c2, "a3")
    assert hit.kind == "point" and hit.point == Interval(1, 1)
    assert intersect_curves(c1, c1, "a3").kind == "equal"


def test_intersect_curves_d4():
    hit = intersect_curves(("s1", "s2o"), ("s2", "s3o"), "d4")
    assert hit.kind == "empty"
    hit = intersect_curves(("s1o", "delta"), ("s2o", "delta"), "d4")
    assert hit.kind == "point" and hit.point == "delta"


def test_glb():
    c1 = ("curve", curve((0, 0), (1, 1)))
    c2 = ("curve", curve((1, 1), (2, 2)))
    c3 = ("curve", curve((0, 0), (1, 2)))
    assert glb(c1, c2, "a3") == ("point", Interval(1, 1))
    assert glb(c1, c1, "a3") == c1
    assert glb(c2, c3, "a3") == ("point", Interval(1, 2))
    assert glb(TRIVIAL, c1, "a3") == TRIVIAL
    # disjoint curves exist in the d4 category
    d1 = ("curve", ("s1", "s2o"))
    d2 = ("curve", ("s2", "s3o"))
    assert glb(d1, d2, "d4") == TRIVIAL
    p = ("point", Interval(0, 1))
    assert glb(p, c1, "a3") == p
    assert glb(p, c2, "a3") == TRIVIAL
    assert glb(p, p, "a3") == p
    assert glb(("curve", ("s1", "s1o")), ("point", "s1"), "d4") == ("point", "s1")
    assert glb(p, ("point", Interval(0, 0)), "a3") == TRIVIAL
    with pytest.raises(ValueError):
        glb(("line", None), c1, "a3")


@pytest.mark.parametrize("bad, other, category", [
    ("nope", ("point", "nope"), "d4"),
    ("nope", ("point", "s1"), "d4"),
    (Interval(0, 7), ("point", Interval(0, 0)), "a3"),
    (Interval(0, 7), ("curve", curve((0, 0), (1, 1))), "a3"),
    (["s1"], ("point", "s1"), "d4"),
])
def test_glb_refuses_a_point_outside_the_category(bad, other, category):
    # a point must be an object of the category, as a curve's generators
    # must, and an unhashable one is refused alike
    message = re.escape(f"{bad} is not an object of {category}")
    for x, y in ((("point", bad), other), (other, ("point", bad))):
        with pytest.raises(ValueError, match=message):
            glb(x, y, category)


@pytest.mark.parametrize("gens, bad, category", [
    (("x", "y"), "x", "a3"),
    (("x", "y"), "x", "a4"),
    ((Interval(0, 0), Interval(0, 7)), Interval(0, 7), "a4"),
    (("x", "y"), "x", "d4"),
    (("s1", "nope"), "nope", "d4"),
    (("s1", ["s1"]), ["s1"], "d4"),
])
def test_a_curve_refuses_generators_outside_the_category(gens, bad, category):
    # each generator is checked as glb checks a point, before any hom is read
    message = re.escape(f"{bad} is not an object of {category}")
    with pytest.raises(ValueError, match=message):
        derived_points(gens, category)
    with pytest.raises(ValueError, match=message):
        intersect_curves(gens, gens, category)
    for x, y in ((("curve", gens), TRIVIAL), (TRIVIAL, ("curve", gens))):
        with pytest.raises(ValueError, match=message):
            glb(x, y, category)


@pytest.mark.parametrize("payload, other", [
    (5, ("point", "s1")),
    ("x", ("curve", ("s1", "so"))),
    ("s1", ("point", "s1")),
    ((), TRIVIAL),
])
def test_glb_refuses_a_trivial_element_with_a_payload(payload, other):
    # the trivial element carries None, and nothing else passes for it
    bad = ("trivial", payload)
    for x, y in ((bad, other), (other, bad)):
        with pytest.raises(ValueError, match=re.escape(f"{bad!r} is not the trivial")):
            glb(x, y, "d4")


@pytest.mark.parametrize("bad_first", [False, True])
@pytest.mark.parametrize("category, gens, message", [
    ("d4", ("s1", "delta", "so"), "is not given by a pair of generators"),
    ("d4", ("s1", "s1"), "is not spanned by an exceptional pair"),
    ("np-1", (1, 1), "is not spanned by an exceptional pair"),
], ids=["three-generators", "no-pair", "np-1-no-pair"])
def test_glb_refuses_a_malformed_curve_beside_the_trivial_element(
        category, gens, message, bad_first):
    # a curve is read whatever the other element is, on either side
    bad = ("curve", gens)
    x, y = (bad, TRIVIAL) if bad_first else (TRIVIAL, bad)
    with pytest.raises(ValueError, match=message):
        glb(x, y, category)


def test_glb_with_orthogonal_pairs():
    # a genus -1 curve is an element like any other: its points are its
    # two generators
    e1 = ("curve", ("s1", "s2"))
    e2 = ("curve", ("s1", "s3"))
    c = ("curve", ("s1", "so"))
    assert glb(e1, e2, "d4") == ("point", "s1")
    assert glb(e1, c, "d4") == ("point", "s1")
    assert glb(e1, e1, "d4") == e1
    far = ("curve", curve((0, 0), (2, 2)))
    near = ("curve", curve((0, 0), (1, 1)))
    hit = glb(far, near, "a3")
    assert hit == ("point", Interval(0, 0))


@pytest.mark.parametrize("name", ["a3", "a4", "a5", "d4"])
def test_glb_is_the_meet_of_the_rank_2_census(name):
    # the elements are the trivial element, the points and the curves of
    # genus 0 and -1 of the census, each a mask over the sorted labels; the
    # meet of two elements is the one whose objects are the AND of theirs
    cat = record(name)
    labels = sorted(cat.objects)
    objs = [cat.objects[v] for v in labels]
    out, into = pair_rows(objs, cat.is_pair)
    points, lines = subcategories(out, into, 2)
    assert {m.bit_count() for m in lines} == {2, 3}
    # every exceptional-pair presentation of each curve, the first in the
    # all-pairs loop and the others checked against it
    shows = {m: [(objs[i], objs[j]) for i in bits(m) for j in bits(out[i] & m)]
             for m in lines}
    by_mask = {0: TRIVIAL}
    by_mask.update((m, ("point", objs[next(bits(m))])) for m in points)
    by_mask.update((m, ("curve", gens[0])) for m, gens in shows.items())
    for m, (first, *others) in shows.items():
        for gens in others:
            if m.bit_count() == 3:
                assert derived_points(gens, name) == derived_points(first, name)
            assert glb(("curve", gens), ("curve", first), name) == ("curve", gens)
            assert glb(("curve", first), ("curve", gens), name) == ("curve", first)
    for (mx, x), (my, y) in product(by_mask.items(), repeat=2):
        meet = mx & my
        want = x if meet == mx else y if meet == my else by_mask[meet]
        assert glb(x, y, name) == want
        if x[0] == y[0] == "curve":
            hit = (("equal", None) if mx == my
                   else ("point", want[1]) if meet else ("empty", None))
            assert intersect_curves(x[1], y[1], name) == hit


def test_intersect_mixed_genus():
    # a genus -1 curve meets a genus 0 curve in at most one point
    hit = intersect_curves(("s1", "s2"), ("s1", "so"), "d4")
    assert hit.kind == "point" and hit.point == "s1"
    hit = intersect_curves(("s1", "s2"), ("s3", "so"), "d4")
    assert hit.kind == "empty"
    hit = intersect_curves(curve((0, 0), (2, 2)), curve((1, 1), (0, 2)), "a3")
    assert hit.kind == "empty"


@pytest.mark.parametrize("name", [*(f"a{n}" for n in range(1, 11)), "d4", "np-1", "np0"])
def test_the_lines_are_the_rank_2_census_masks_of_three_objects(name):
    # the census is the oracle: its rank-2 masks of three objects, on the
    # rows of the objects in label order, are the lines, ids and order too
    cat = record(name)
    labels = sorted(cat.objects)
    rows = pair_rows([cat.objects[v] for v in labels], cat.is_pair)
    curves = sorted(tuple(labels[i] for i in bits(m))
                    for rank2 in subcategories(*rows, 2)[1:]
                    for m in rank2 if m.bit_count() == 3)
    struct = incidence_structure(name)
    assert struct.points == tuple(labels)
    assert struct.lines == tuple((";".join(t), t) for t in curves)
    # and, by the pair test alone, the lines are the derived points of the
    # one-sided pairs
    lines = {frozenset(cat.objects[v] for v in pts) for _, pts in struct.lines}
    assert lines == {derived_points((x, y), name)
                     for x, y in combinations(cat.objects.values(), 2)
                     if cat.is_pair(x, y) != cat.is_pair(y, x)}


def test_incidence_a3():
    struct = incidence_structure("a3")
    assert len(struct.points) == 6
    assert len(struct.lines) == 4
    assert all(len(pts) == 3 for _, pts in struct.lines)
    assert len(struct.incidences()) == 12
    degree = Counter(p for _, pts in struct.lines for p in pts)
    for p in struct.points:
        assert degree[p] == 2


def test_incidence_d4():
    struct = incidence_structure("d4")
    assert len(struct.points) == 12
    assert len(struct.lines) == 15
    assert len(struct.incidences()) == 45
    degree = Counter(p for _, pts in struct.lines for p in pts)
    degree3 = {p for p in struct.points if degree[p] == 3}
    assert degree3 == {"delta", "so", "s123"}
    assert all(degree[p] == 4 for p in struct.points if p not in degree3)


def test_two_lines_share_at_most_one_point():
    for cat in ("a3", "d4"):
        struct = incidence_structure(cat)
        for (_, p1), (_, p2) in combinations(struct.lines, 2):
            assert len(set(p1) & set(p2)) <= 1


def test_unknown_category():
    # unknown names, an empty quiver, and the windowed categories, which
    # have no finite object list
    for name in ("x", "a0", "q1", "np3"):
        with pytest.raises(ValueError):
            incidence_structure(name)


@pytest.mark.parametrize("n", range(2, 13))
def test_incidence_a_n_is_the_triangles_of_the_polygon(n):
    # under s_{i,j} -> chord {i, j+1} of the (n+1)-gon, the three points of
    # each line are the three sides of one triangle
    struct = incidence_structure(f"a{n}")
    objects = record(f"a{n}").objects
    chord = {p: frozenset((objects[p].i, objects[p].j + 1)) for p in struct.points}
    assert len(struct.points) == comb(n + 1, 2)
    assert len(struct.lines) == comb(n + 1, 3) == typea.count_genus(0, n)
    triangles = set()
    for _, pts in struct.lines:
        corners = frozenset().union(*(chord[p] for p in pts))
        assert len(corners) == 3
        assert {chord[p] for p in pts} == set(map(frozenset, combinations(corners, 2)))
        triangles.add(corners)
    assert len(triangles) == len(struct.lines)
    degree = Counter(p for _, pts in struct.lines for p in pts)
    assert all(degree[p] == n - 1 for p in struct.points)
    for (_, p1), (_, p2) in combinations(struct.lines, 2):
        assert len(set(p1) & set(p2)) <= 1


def test_incidence_of_a1_and_the_strong_pairs():
    # a rank-1 category has no curves; np-1 is two orthogonal objects, whose
    # one curve has genus -1, and np0 is a2
    def sizes(name):
        struct = incidence_structure(name)
        return len(struct.points), len(struct.lines), len(struct.incidences())

    assert sizes("a1") == (1, 0, 0)
    assert sizes("np-1") == (2, 0, 0)
    assert sizes("np0") == sizes("a2") == (3, 1, 3)


@pytest.mark.parametrize("n", range(3, 10))
def test_incidence_embeds_along_a_n(n):
    # the points of a(n-1) are points of an, and the lines of an that lie
    # among them are exactly the lines of a(n-1)
    small, big = incidence_structure(f"a{n - 1}"), incidence_structure(f"a{n}")
    assert set(small.points) <= set(big.points)
    inside = {pts for _, pts in big.lines if set(pts) <= set(small.points)}
    assert inside == {pts for _, pts in small.lines}


def test_export(capsys):
    assert cli.run(["incidence", "--category", "a3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    struct = incidence_structure("a3")
    assert doc["points"] == list(struct.points)
    assert [(line["id"], tuple(line["points"])) for line in doc["lines"]] == list(
        struct.lines)
    assert set(doc) == {"points", "lines"}
    assert len(doc["points"]) == 6
    assert all(set(line) == {"id", "points"} for line in doc["lines"])
