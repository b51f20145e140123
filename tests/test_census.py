"""Functoriality oracles for the census of subcategories.

Every orientation of a Dynkin tree gives a path algebra derived equivalent
to every other (reflection functors, Bernstein-Gelfand-Ponomarev), and a
derived equivalence carries one census onto the other, so the census
profile by rank does not depend on the orientation.  A fully faithful
functor carries the census of a subcategory onto the census elements below
it, so each lower interval of the census is the census of the subcategory
itself.  Neither oracle needs a closed form; the profiles are also checked
against the Narayana numbers of types A and D and the rows of E_6, E_7 and
E_8.  The walk of perps is checked against the census by the spans of
roots, and the perps it walks against the Serre functor and the lattice
they close.
"""

import tracemalloc
from collections import Counter
from graphlib import TopologicalSorter
from itertools import combinations
from math import comb, prod

import pytest
from oracles import label_census, record_roots, span_census

from nccount import arith
from nccount.category import category
from nccount.census import pair_rows, subcategories
from nccount.quiver import coxeter, pair_rule, positive_roots


def _tree(kind, n):
    """The edges of the Dynkin diagram A_n, D_n or E_n: the path 0 - 1 - ...
    - n - 1 for A, and for D and E the path to n - 2 with vertex n - 1
    joined to vertex n - 3 (D) or 2 (E)."""
    if kind == "A":
        return [(i, i + 1) for i in range(n - 1)]
    branch = n - 3 if kind == "D" else 2
    return [(i, i + 1) for i in range(n - 2)] + [(branch, n - 1)]


def _oriented(n, edges, flips):
    """The quiver on the tree edges, edge i reversed where bit i of flips is
    set, with its vertices relabelled in a topological order, since the
    quiver module takes arrows s -> t with s < t only."""
    arrows = [(t, s) if flips >> i & 1 else (s, t) for i, (s, t) in enumerate(edges)]
    preds = {v: {s for s, t in arrows if t == v} for v in range(n)}
    pos = {v: i for i, v in enumerate(TopologicalSorter(preds).static_order())}
    return tuple(sorted((pos[s], pos[t]) for s, t in arrows))


def _orientations(kind, n):
    edges = _tree(kind, n)
    return [_oriented(n, edges, flips) for flips in range(1 << len(edges))]


def _census(n, arrows):
    """(census of every rank, pair test, root of each object) of the quiver,
    its objects labelled by their roots."""
    roots = {x: x for x in positive_roots(n, arrows)}
    is_pair = pair_rule(arrows, lambda x: x)[0]
    return label_census(roots, is_pair, n), is_pair, roots


def _profile(n, arrows):
    """The number of subcategories of each rank 1..n."""
    ranks = Counter(_census(n, arrows)[0].values())
    return tuple(ranks[k] for k in range(1, n + 1))


def _narayana(kind, n):
    """The noncrossing partitions of type A_n or D_n by rank: Narayana
    numbers, and for D_n C(n, k)^2 - n/(n - 1) C(n - 1, k - 1) C(n - 1, k)
    (Athanasiadis and Reiner, 2004)."""
    if kind == "A":
        return tuple(
            comb(n + 1, k) * comb(n + 1, k + 1) // (n + 1) for k in range(1, n + 1))
    return tuple(
        comb(n, k) ** 2 - n * comb(n - 1, k - 1) * comb(n - 1, k) // (n - 1)
        for k in range(1, n + 1)
    )


def test_narayana_numbers_of_type_d():
    # the rows of D_4 and D_5 as the census found them at one orientation
    assert _narayana("D", 4) == (12, 24, 12, 1)
    assert _narayana("D", 5) == (20, 70, 70, 20, 1)


@pytest.mark.parametrize(
    "kind, n", [("A", n) for n in range(1, 7)] + [("D", 4), ("D", 5)])
def test_census_profile_does_not_depend_on_the_orientation(kind, n):
    # all 2^(n - 1) orientations; A_6 is the largest, 32 censuses of 21
    # objects each in about 2 s
    profiles = {_profile(n, q) for q in _orientations(kind, n)}
    assert profiles == {_narayana(kind, n)}


@pytest.mark.parametrize("flips", [0, 0b01010, 0b10101])
def test_census_profile_of_e6(flips):
    # three of the 32 orientations of E_6: equioriented, and the path
    # alternating either way; each census walks 36 objects in under 0.5 s
    arrows = _oriented(6, _tree("E", 6), flips)
    assert _profile(6, arrows) == (36, 204, 351, 204, 36, 1)


@pytest.mark.parametrize(
    "n, degrees, row",
    [(7, (2, 6, 8, 10, 12, 14, 18), (63, 546, 1470, 1470, 546, 63, 1)),
     (8, (2, 8, 12, 14, 18, 20, 24, 30), (120, 1540, 6120, 9518, 6120, 1540, 120, 1))],
    ids=["E-7", "E-8"])
def test_census_profile_of_e7_and_e8(n, degrees, row):
    # the equioriented E_7 and E_8, 4,159 and 25,079 elements, E_8 in under
    # 0.5 s: the W-Narayana row, and with the zero subcategory the Catalan
    # number Cat(W) = prod (h + d)/d over the degrees d of W, h the largest
    assert _profile(n, _oriented(n, _tree("E", n), 0)) == row
    h = max(degrees)
    assert (sum(row) + 1) * prod(degrees) == prod(h + d for d in degrees)


@pytest.mark.parametrize("kind, n", [("A", 4), ("D", 4), ("D", 5)])
def test_lower_intervals_are_the_census_of_the_subcategory(kind, n):
    # for each element X of the census, the elements below it are the
    # census of X's own objects under the same pair rule; all orientations,
    # D_5 the largest, 16 censuses of 181 elements each in about 1.5 s
    for arrows in _orientations(kind, n):
        census, is_pair, roots = _census(n, arrows)
        for sub, rank in census.items():
            below = {s: r for s, r in census.items() if s <= sub}
            assert label_census({x: x for x in sub}, is_pair, rank) == below


@pytest.mark.parametrize(
    "kind, n, orientations",
    [("A", n, _orientations("A", n)) for n in range(1, 7)]
    + [("D", n, _orientations("D", n)) for n in (4, 5)]
    + [("E", 6, [_oriented(6, _tree("E", 6), f) for f in (0, 0b01010, 0b10101)])],
    ids=[f"A-{n}" for n in range(1, 7)] + ["D-4", "D-5", "E-6"])
def test_census_is_the_span_census(kind, n, orientations):
    # every orientation the tests above walk: the walk of perps against the
    # exceptional sets grouped by the lattice their roots span
    for arrows in orientations:
        census, is_pair, roots = _census(n, arrows)
        assert census == span_census(roots, is_pair, roots, n), arrows


@pytest.mark.parametrize(
    "name, rank",
    [(f"a{n}", n) for n in range(1, 9)] + [("a12", 2), ("a16", 2), ("d4", 3)])
def test_census_of_records_is_the_span_census(name, rank):
    # a8 at full rank is the largest: 4,861 subcategories, whose span census
    # walks every exceptional set of a8 in about 4 s
    cat = category(name)
    census = label_census(cat.objects, cat.is_pair, rank)
    assert census == span_census(cat.objects, cat.is_pair, record_roots(cat), rank)


def test_census_refuses_past_the_cap(monkeypatch):
    # a3 has 13 subcategories of rank 1..3
    cat = category("a3")
    monkeypatch.setattr(arith, "MAX_ENUMERATION", 13)
    assert len(label_census(cat.objects, cat.is_pair, 3)) == 13
    monkeypatch.setattr(arith, "MAX_ENUMERATION", 12)
    with pytest.raises(ValueError, match="cap of 12 subcategories to rank 3"):
        label_census(cat.objects, cat.is_pair, 3)


def test_census_walk_holds_only_masks():
    # a8 at full rank, 4,861 elements: the walk peaks at about 0.4 MB, and
    # at 3.3 MB when it answered each element as a frozenset of labels
    cat = category("a8")
    rows = pair_rows(list(cat.objects.values()), cat.is_pair)
    tracemalloc.start()
    try:
        ranks = subcategories(*rows, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, ranks)) == 4861
    assert peak < 1 << 20


def _right_perp(objs, is_pair, sub):
    """The objects with no homs from any object of sub."""
    return frozenset(z for z in objs if all(is_pair(z, x) for x in sub))


@pytest.mark.parametrize(
    "kind, n, orientations",
    [(kind, n, _orientations(kind, n))
     for kind, n in (("A", 4), ("A", 5), ("D", 4), ("D", 5))]
    + [("E", 6, [_oriented(6, _tree("E", 6), 0)])],
    ids=["A-4", "A-5", "D-4", "D-5", "E-6"])
def test_perps_close_the_census(kind, n, orientations):
    # with the zero subcategory, the census is closed under the meet A & B;
    # the right perp maps it onto itself, rank k to rank n - k, and twice it
    # is the Serre functor, the Coxeter map on roots up to sign
    for arrows in orientations:
        census, is_pair, roots = _census(n, arrows)
        elements = {frozenset(): 0, **census}
        serre = {x: tuple(map(abs, coxeter(arrows, x))) for x in roots}
        assert set(serre.values()) == set(roots)
        perp = {sub: _right_perp(roots, is_pair, sub) for sub in elements}
        for sub, rank in elements.items():
            assert elements.get(perp[sub]) == n - rank, (arrows, sub)
            assert perp[perp[sub]] == frozenset(map(serre.get, sub)), (arrows, sub)
        for a, b in combinations(elements, 2):
            assert a & b in elements, (arrows, a, b)
