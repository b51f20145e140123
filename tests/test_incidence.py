import json
from itertools import combinations

import pytest

from nccount.d4 import GenSet
from nccount.incidence import (
    TRIVIAL,
    derived_points,
    export_incidence,
    glb,
    incidence_structure,
    intersect_curves,
)
from nccount.typea import GenSetA, Interval


def curve(*pairs):
    return GenSetA(tuple(Interval(i, j) for i, j in pairs))


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
                again = derived_points(GenSetA((x, y)), cat)
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
    assert glb(p, ("point", Interval(0, 0)), "a3") == TRIVIAL
    with pytest.raises(ValueError):
        glb(("line", None), c1, "a3")


def test_glb_with_orthogonal_pairs():
    # genus -1 members are admitted only when the family includes them
    e1 = ("curve", ("s1", "s2"))
    e2 = ("curve", ("s1", "s3"))
    c = ("curve", ("s1", "so"))
    with pytest.raises(ValueError):
        glb(e1, c, "d4")
    assert glb(e1, e2, "d4", include_orthogonal_pairs=True) == ("point", "s1")
    assert glb(e1, c, "d4", include_orthogonal_pairs=True) == ("point", "s1")
    assert glb(e1, e1, "d4", include_orthogonal_pairs=True) == e1
    far = ("curve", curve((0, 0), (2, 2)))
    near = ("curve", curve((0, 0), (1, 1)))
    hit = glb(far, near, "a3", include_orthogonal_pairs=True)
    assert hit == ("point", Interval(0, 0))


def test_intersect_mixed_genus():
    # a genus -1 curve meets a genus 0 curve in at most one point
    hit = intersect_curves(("s1", "s2"), ("s1", "so"), "d4")
    assert hit.kind == "point" and hit.point == "s1"
    hit = intersect_curves(("s1", "s2"), ("s3", "so"), "d4")
    assert hit.kind == "empty"
    hit = intersect_curves(curve((0, 0), (2, 2)), curve((1, 1), (0, 2)), "a3")
    assert hit.kind == "empty"


def test_incidence_a3():
    struct = incidence_structure("a3")
    assert len(struct.points) == 6
    assert len(struct.lines) == 4
    assert all(len(pts) == 3 for _, pts in struct.lines)
    assert len(struct.incidences()) == 12
    for p in struct.points:
        assert struct.degree(p) == 2


def test_incidence_d4():
    struct = incidence_structure("d4")
    assert len(struct.points) == 12
    assert len(struct.lines) == 15
    assert len(struct.incidences()) == 45
    degree3 = {p for p in struct.points if struct.degree(p) == 3}
    assert degree3 == {"delta", "so", "s123"}
    assert all(struct.degree(p) == 4 for p in struct.points if p not in degree3)


def test_two_lines_share_at_most_one_point():
    for cat in ("a3", "d4"):
        struct = incidence_structure(cat)
        for (_, p1), (_, p2) in combinations(struct.lines, 2):
            assert len(set(p1) & set(p2)) <= 1


def test_unknown_category():
    with pytest.raises(ValueError):
        incidence_structure("a4")


def test_export():
    doc = json.loads(export_incidence(incidence_structure("a3")))
    assert set(doc) == {"points", "lines"}
    assert len(doc["points"]) == 6
    assert all(set(line) == {"id", "points"} for line in doc["lines"])
