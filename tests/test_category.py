from itertools import combinations, permutations

import pytest

from nccount.category import category
from nccount.quiver import d4_quiver, euler_form, line_quiver, third_point

SMALL = (
    [(f"a{n}", None) for n in range(1, 9)]
    + [("d4", None)]
    + [(q, (lo, hi)) for q in ("q1", "q2") for lo, hi in ((0, 0), (-2, 3))]
    + [("np-1", None), ("np0", None)]
    + [(f"np{l}", (0, 5)) for l in range(1, 5)]
)


@pytest.mark.parametrize("name, window", SMALL)
def test_registry_against_euler_form(name, window):
    cat = category(name, window)
    assert cat.name == name
    for x, y in permutations(cat.objects.values(), 2):
        if cat.is_pair(x, y):
            # a pair is double-sided exactly when no hom joins it
            assert cat.is_pair(y, x) == (cat.total_hom(x, y) == 0)
    if cat.dims is None:
        return
    dims = cat.dims
    rank = len(next(iter(dims.values())))
    q = d4_quiver() if name == "d4" else line_quiver(rank - 1)
    for x, y in permutations(cat.objects.values(), 2):
        assert cat.is_pair(x, y) == (euler_form(q, dims[y], dims[x]) == 0)
        assert cat.total_hom(x, y) == abs(euler_form(q, dims[x], dims[y]))
        if cat.is_pair(x, y) and cat.total_hom(x, y) == 1:
            curve = {x, y, third_point(dims, x, y)}
            assert len(curve) == 3
            for u, v in combinations(curve, 2):
                assert curve - {u, v} == {third_point(dims, u, v)}


def test_np0_is_a2():
    np0, a2 = category("np0"), category("a2")
    assert np0.name == "np0"
    assert np0.objects == a2.objects and np0.dims == a2.dims


@pytest.mark.parametrize(
    "name, window, message",
    [
        ("e6", None, "unknown category 'e6'"),
        ("a-1", None, "unknown category 'a-1'"),
        ("a0", None, "need at least one vertex"),
        ("a4", (0, 2), "a4 takes no window"),
        ("np0", (0, 2), "np0 takes no window"),
        ("np-2", None, "genus must be >= -1"),
        ("q1", None, "needs a finite window"),
        ("np3", None, "needs a finite window"),
        ("q2", (1, 0), "empty window"),
        ("a03", None, "unknown category 'a03'"),
        ("np01", None, "unknown category 'np01'"),
        ("np-01", None, "unknown category 'np-01'"),
    ],
)
def test_names_and_windows_are_checked_once(name, window, message):
    with pytest.raises(ValueError, match=message):
        category(name, window)


@pytest.mark.parametrize("w", range(1, 7))
def test_q1_curve_census(w):
    # M-perp and M'-perp (genus 1), a-perp^m and b-perp^m (genus 0); no two
    # curves are semi-orthogonal, since K_0 of q1 has rank 3 and two
    # semi-orthogonal rank-2 subcategories would span rank 4
    curves = category("q1", (0, w - 1)).curves()
    assert curves.name == "q1-curves"
    assert len(curves.objects) == 2 * w + 2
    genera = sorted(curves.genus.values())
    assert genera == [0] * (2 * w) + [1, 1]
    for a, b in permutations(curves.objects.values(), 2):
        assert not curves.is_pair(a, b)


def test_curves_only_where_curve_graphs_exist():
    assert category("d4").curves is not None
    assert category("q2", (0, 1)).curves is not None
    for name, window in (("a3", None), ("np-1", None), ("np2", (0, 3))):
        assert category(name, window).curves is None


@pytest.mark.parametrize(
    "name, window, objects", [("a3", None, 6), ("q1", (0, 2), 8), ("np2", (1, 7), 7)]
)
def test_size_cap_counts_pairs_before_building(monkeypatch, name, window, objects):
    # exactly at the cap a category is built; with one ordered pair less
    # it is refused with its size, before any of its objects is made
    from nccount import affine, arith, interval

    monkeypatch.setattr(arith, "MAX_ENUMERATION", objects * objects)
    assert len(category(name, window).objects) == objects
    monkeypatch.setattr(arith, "MAX_ENUMERATION", objects * objects - 1)
    monkeypatch.setattr(interval, "enum_points", None)
    monkeypatch.setattr(affine, "obj", None)
    with pytest.raises(ValueError, match=f"{objects}\\^2 vertex pairs = {objects**2};"):
        category(name, window)


def test_size_cap_on_curves(monkeypatch):
    from nccount import arith

    monkeypatch.setattr(arith, "MAX_ENUMERATION", 18 * 18)
    assert len(category("q2", (0, 0)).curves().objects) == 18
    monkeypatch.setattr(arith, "MAX_ENUMERATION", 18 * 18 - 1)
    with pytest.raises(ValueError, match="18\\^2 vertex pairs = 324;"):
        category("q2", (0, 0)).curves()
