import itertools
import random

import pytest

from nccount.quiver import (
    Quiver,
    d4_quiver,
    euler_form,
    line_quiver,
    positive_roots,
    serre_permutation,
)
from nccount.typea import Interval, enum_points, interval_dim, serre_on_point


def _homs(q, a, b):
    """(hom, hom^1) from a to b for exceptional representations of a Dynkin
    quiver: the positive and negative parts of the Euler form."""
    e = euler_form(q, a, b)
    return max(e, 0), max(-e, 0)


def test_euler_form_a2_simples():
    # direct evaluation: <(1,0),(0,1)> = 0 - 1*1 = -1
    q = line_quiver(1)
    assert euler_form(q, (1, 0), (0, 1)) == -1


def test_euler_form_zero_vector():
    q = line_quiver(3)
    z = (0, 0, 0, 0)
    for b in [(1, 1, 0, 0), (0, 1, 1, 1), (2, 3, 1, 0)]:
        assert euler_form(q, z, b) == 0
        assert euler_form(q, b, z) == 0


def test_euler_form_d4_delta_vs_simple():
    # <s_1, delta> = -1, so (delta, s_1) is not an exceptional pair
    q = d4_quiver()
    s1 = {1: 1, 2: 0, 3: 0, "o": 0}
    delta = {1: 1, 2: 1, 3: 1, "o": 2}
    assert euler_form(q, s1, delta) == -1
    assert _homs(q, s1, delta) != (0, 0)  # (delta, s_1) is not exceptional


def test_euler_form_bilinear():
    rng = random.Random(7)
    q = line_quiver(4)
    for _ in range(25):
        a = tuple(rng.randrange(4) for _ in range(5))
        b = tuple(rng.randrange(4) for _ in range(5))
        c = tuple(rng.randrange(4) for _ in range(5))
        ab = tuple(x + y for x, y in zip(a, b))
        assert euler_form(q, ab, c) == euler_form(q, a, c) + euler_form(q, b, c)
        assert euler_form(q, c, ab) == euler_form(q, c, a) + euler_form(q, c, b)


def test_dimension_vector_mismatch():
    q = line_quiver(2)
    with pytest.raises(ValueError):
        euler_form(q, (1, 0), (0, 1, 0))
    with pytest.raises(ValueError):
        euler_form(q, {0: 1, 1: 0}, (0, 1, 0))


def test_acyclicity_enforced():
    with pytest.raises(ValueError):
        Quiver([0, 1], [(0, 1), (1, 0)])


def test_dynkin_detection():
    assert line_quiver(5).is_dynkin
    assert d4_quiver().is_dynkin
    # affine three-vertex quiver: 1->2, 2->3, 1->3 has a cycle-free
    # orientation but its diagram is a triangle
    tri = Quiver([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    assert not tri.is_dynkin
    square = Quiver([1, 2, 3, 4], [(1, 2), (2, 3), (1, 4), (4, 3)])
    assert not square.is_dynkin
    e6 = Quiver(range(6), [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    assert e6.is_dynkin
    # degree-3 vertex with branch lengths (1,2,5) is not A/D/E
    bad = Quiver(range(9), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 8)])
    assert not bad.is_dynkin


def test_positive_roots_rejects_affine():
    # on the triangle the growth would stop at (1, 1, 1), where <x, x> = 0,
    # and miss the real root (2, 1, 1)
    tri = Quiver([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    square = Quiver([1, 2, 3, 4], [(1, 2), (2, 3), (1, 4), (4, 3)])
    for q in (tri, square):
        with pytest.raises(ValueError):
            positive_roots(q)


def _dynkin(kind, n):
    """A quiver of type A_n, D_n or E_n: for D and E the path
    0 -> 1 -> ... -> n - 2 with vertex n - 1 joined to vertex n - 3 (D) or
    2 (E)."""
    if kind == "A":
        return line_quiver(n - 1)
    branch = n - 3 if kind == "D" else 2
    return Quiver(range(n), [(i, i + 1) for i in range(n - 2)] + [(branch, n - 1)])


_COXETER = (
    [("A", n, n + 1) for n in range(1, 13)]
    + [("D", n, 2 * n - 2) for n in (4, 5, 6)]
    + [("E", 6, 12), ("E", 7, 18), ("E", 8, 30)]
)


@pytest.mark.parametrize("kind, n, h", _COXETER)
def test_positive_roots_count(kind, n, h):
    # a Dynkin root system of rank n and Coxeter number h has n h / 2
    # positive roots
    q = _dynkin(kind, n)
    assert q.is_dynkin
    roots = positive_roots(q)
    assert len(roots) == n * h // 2
    assert all(euler_form(q, x, x) == 1 and min(x) >= 0 for x in roots)


def test_positive_roots_a_are_intervals():
    for n in range(12):
        assert positive_roots(line_quiver(n)) == sorted(
            interval_dim(p, n) for p in enum_points(n)
        )


def test_serre_permutation_matches_intervals():
    for n in range(10):
        q, points = line_quiver(n), enum_points(n)
        dims = {p: interval_dim(p, n) for p in points}
        euler = {
            (x, z): euler_form(q, dims[x], dims[z]) for x in points for z in points
        }
        serre = serre_permutation(euler, points)
        assert serre == {p: serre_on_point(p.i, p.j, n)[0] for p in points}, n


def test_hom_profile_a3_simples():
    q = line_quiver(2)
    assert _homs(q, (1, 0, 0), (0, 1, 0)) == (0, 1)


def test_hom_profile_self():
    for q, vec in [
        (line_quiver(3), (1, 1, 0, 0)),
        (d4_quiver(), {1: 1, 2: 0, 3: 0, "o": 1}),
    ]:
        assert _homs(q, vec, vec) == (1, 0)


def test_hom_dichotomy_exhaustive_a():
    for n in range(1, 7):
        q = line_quiver(n)
        pts = enum_points(n)
        for x, y in itertools.product(pts, repeat=2):
            hom0, hom1 = _homs(q, interval_dim(x, n), interval_dim(y, n))
            assert hom0 == 0 or hom1 == 0


def _a_pair_class_oracle(x, y):
    """Transcription of the interval case analysis: returns the expected
    (is_exceptional, kind) for the ordered pair (s_x, s_y), where kind is
    one of 'orthogonal', 'hom', 'hom1', None."""
    (a, b), (i, j) = x, y
    if (a, b) == (i, j):
        return None
    # separated by a gap of >= 2 in either order, or strictly nested
    if b < i - 1 or j < a - 1 or (a < i and j < b) or (i < a and b < j):
        return (True, "orthogonal")
    if b == i - 1:  # adjacent, extension s_{a,j} exists
        return (True, "hom1")
    if a == i and j < b:  # shared left end, y shorter
        return (True, "hom")
    if i < a and b == j:  # shared right end, x shorter
        return (True, "hom")
    # crossing, adjacency in the other order, or shared ends the wrong way
    return (False, None)


def test_interval_pair_classification_matches_case_analysis():
    # the Euler-form classifier must reproduce the interval case analysis
    # exhaustively for ambient sizes up to 9 vertices
    for n in range(0, 9):
        q = line_quiver(n)
        pts = enum_points(n)
        for x, y in itertools.product(pts, repeat=2):
            expected = _a_pair_class_oracle(x, y)
            dx, dy = interval_dim(x, n), interval_dim(y, n)
            if expected is None:
                assert x == y
                continue
            is_exc, kind = expected
            assert (_homs(q, dy, dx) == (0, 0)) == is_exc, (n, x, y)
            if is_exc:
                prof = _homs(q, dx, dy)
                if kind == "orthogonal":
                    assert prof == (0, 0)
                elif kind == "hom":
                    assert prof == (1, 0)
                else:
                    assert prof == (0, 1)


def _interval_hom0(a, b, c, d):
    """dim Hom(s_{a,b}, s_{c,d}) for the equioriented quiver, by the
    overlap rule: a nonzero morphism exists iff c <= a <= d <= b."""
    return 1 if c <= a <= d <= b else 0


def _interval_hom1(a, b, c, d, n):
    """dim Ext^1(s_{a,b}, s_{c,d}): zero for projective sources (b = n),
    else Hom(s_{c,d}, s_{a+1,b+1}) by the translation formula."""
    if b == n:
        return 0
    return _interval_hom0(c, d, a + 1, b + 1)


def test_hom_profile_matches_representation_theory():
    # the Euler-form profile against a module-theoretic computation
    for n in range(0, 9):
        q = line_quiver(n)
        pts = enum_points(n)
        for x, y in itertools.product(pts, repeat=2):
            hom0, hom1 = _homs(q, interval_dim(x, n), interval_dim(y, n))
            assert hom0 == _interval_hom0(x.i, x.j, y.i, y.j), (n, x, y)
            assert hom1 == _interval_hom1(x.i, x.j, y.i, y.j, n), (n, x, y)


def test_no_exceptional_pair_for_crossing_intervals():
    # crossing intervals are exceptional in neither order
    n = 5
    q = line_quiver(n)
    crossing = [((0, 2), (1, 3)), ((1, 4), (2, 5)), ((0, 3), (2, 5))]
    for x, y in crossing:
        dx = interval_dim(Interval(*x), n)
        dy = interval_dim(Interval(*y), n)
        assert _homs(q, dy, dx) != (0, 0)
        assert _homs(q, dx, dy) != (0, 0)


def test_d4_examples():
    q = d4_quiver()
    dims = {
        "s1": {1: 1, 2: 0, 3: 0, "o": 0},
        "s2": {1: 0, 2: 1, 3: 0, "o": 0},
        "s1o": {1: 1, 2: 0, 3: 0, "o": 1},
        "delta": {1: 1, 2: 1, 3: 1, "o": 2},
    }
    assert _homs(q, dims["s2"], dims["s1"]) == (0, 0)
    assert _homs(q, dims["s1"], dims["delta"]) != (0, 0)
    assert sorted(_homs(q, dims["s1o"], dims["delta"])) == [0, 1]
