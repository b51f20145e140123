from collections import Counter
from itertools import combinations, permutations, product
from math import comb

import pytest
from oracles import interval_dim, label_census, record_roots

from nccount.category import category
from nccount.d4 import ARROWS as D4
from nccount.d4 import DIMS as D4_DIMS
from nccount.quiver import euler_form, line_quiver, pair_rule
from nccount.typea import count_id


def third_point(dims, a, b):
    """Third derived point of the genus-0 curve spanned by the hom-one pair
    {a, b}, where dims maps objects to their dimension vectors: the unique
    object whose vector is the sum or the difference of theirs."""
    da, db = dims[a], dims[b]
    cands = (
        tuple(x + y for x, y in zip(da, db)),
        tuple(abs(x - y) for x, y in zip(da, db)),
    )
    hits = [obj for obj, d in dims.items() if d in cands]
    if len(hits) != 1:
        raise ValueError(f"({a}, {b}) does not span a genus-0 curve")
    return hits[0]

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
    # the record contract: no object pairs with itself, and an exceptional
    # pair of a record of finite type (built without a window) carries at
    # most one hom
    assert not any(cat.is_pair(x, x) for x in cat.objects.values())
    for x, y in permutations(cat.objects.values(), 2):
        if cat.is_pair(x, y):
            # a pair is double-sided exactly when no hom joins it
            assert cat.is_pair(y, x) == (cat.total_hom(x, y) == 0)
            assert window is not None or cat.total_hom(x, y) <= 1
    if cat.curves is not None:
        curves = cat.curves()
        pairs = list(permutations(curves.objects.values(), 2))
        assert not any(curves.is_pair(a, a) for a in curves.objects.values())
        assert {curves.total_hom(a, b) for a, b in pairs} <= {None}
    dims = record_roots(cat)
    if dims is None:
        return
    rank = len(next(iter(dims.values())))
    q = D4 if name == "d4" else line_quiver(rank - 1)
    for x, y in permutations(cat.objects.values(), 2):
        assert cat.is_pair(x, y) == (euler_form(q, dims[y], dims[x]) == 0)
        assert cat.total_hom(x, y) == abs(euler_form(q, dims[x], dims[y]))
        if cat.is_pair(x, y) and cat.total_hom(x, y) == 1:
            curve = {x, y, third_point(dims, x, y)}
            assert len(curve) == 3
            for u, v in combinations(curve, 2):
                assert curve - {u, v} == {third_point(dims, u, v)}


@pytest.mark.parametrize("vertices", range(1, 13))
def test_line_bitmasks_follow_the_generic_rule(vertices):
    # the aN record's bitmask form against quiver.pair_rule on the line
    # quiver, for every ordered pair, the diagonal included
    n = vertices - 1
    cat = category(f"a{vertices}")
    is_pair, total_hom = pair_rule(line_quiver(n), lambda p: interval_dim(p, n))
    for x, y in product(cat.objects.values(), repeat=2):
        got = cat.is_pair(x, y), cat.total_hom(x, y)
        assert got == (is_pair(x, y), total_hom(x, y)), (x, y)


def test_np0_is_a2():
    np0, a2 = category("np0"), category("a2")
    assert np0.name == "np0"
    assert np0.objects == a2.objects
    for x, y in product(a2.objects.values(), repeat=2):
        assert np0.is_pair(x, y) == a2.is_pair(x, y)
        assert np0.total_hom(x, y) == a2.total_hom(x, y)


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


def test_third_point_examples():
    assert third_point(D4_DIMS, "s3o", "delta") == "s12"
    assert third_point(D4_DIMS, "s1", "so") == "s1o"
    with pytest.raises(ValueError):
        third_point(D4_DIMS, "s1", "s2")  # orthogonal, no third point


# --- the census of subcategories ------------------------------------------------


def record_census(cat, rank):
    """census.subcategories of a category record, by label."""
    return label_census(cat.objects, cat.is_pair, rank)


@pytest.mark.parametrize("vertices", [*range(1, 6), 9])
def test_census_of_an_counts_noncrossing_partitions(vertices):
    # the subcategories of A_N are the noncrossing partitions of N + 1
    # points (Ingalls-Thomas), N + 1 - k blocks at rank k: Narayana numbers;
    # a9 has 16,795, past the exceptional sets the span census walks
    n = vertices + 1
    ranks = Counter(record_census(category(f"a{vertices}"), vertices).values())
    assert [ranks[k] for k in range(1, n)] == [
        comb(n, k) * comb(n, k + 1) // n for k in range(1, n)
    ]


def test_census_of_d4():
    census = record_census(category("d4"), 3)
    assert Counter(census.values()) == {1: 12, 2: 24, 3: 12}
    assert all(len(s) == 1 for s, rank in census.items() if rank == 1)


@pytest.mark.parametrize("vertices", range(1, 6))
def test_census_of_an_counts_type_a_subcategories(vertices):
    # a rank-k subcategory of type A_k has k(k + 1)/2 objects, one per
    # positive root; they are the noncrossing partitions with one block of
    # k + 1 points, C(N + 1, k + 1) of them
    census = record_census(category(f"a{vertices}"), vertices)
    for k in range(1, vertices + 1):
        shape = (k, k * (k + 1) // 2)
        got = sum(1 for s, rank in census.items() if (rank, len(s)) == shape)
        assert got == count_id(k, vertices), k


@pytest.mark.parametrize("name", [f"a{n}" for n in range(1, 8)] + ["d4"])
def test_census_curves_are_third_point_curves(name):
    # every rank-2 subcategory with three objects is the genus-0 curve of a
    # hom-one pair and its third point, and every such curve is one
    cat = category(name)
    label = {x: v for v, x in cat.objects.items()}
    curves = {s for s, rank in record_census(cat, 2).items() if len(s) == 3}
    assert curves == {
        frozenset(label[p] for p in (x, y, third_point(record_roots(cat), x, y)))
        for x, y in permutations(cat.objects.values(), 2)
        if cat.is_pair(x, y) and cat.total_hom(x, y) == 1
    }
