import itertools
import random
import re
from operator import mul

import pytest
import sympy
from oracles import in_span, interval_dim, record_roots

from nccount.affine import ARROWS as AFFINE
from nccount.category import category
from nccount.census import exceptional_sets, pair_rows
from nccount.d4 import ARROWS as D4
from nccount.quiver import (
    coxeter,
    euler_form,
    line_quiver,
    pair_rule,
    positive_roots,
    span,
)
from nccount.interval import Interval, enum_points
from nccount.typea import MonotoneSeq, serre_step


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
    q = D4
    s1 = (1, 0, 0, 0)
    delta = (1, 1, 1, 2)
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
    # vectors too short for the arrows
    with pytest.raises(ValueError, match="vertex order"):
        euler_form(q, (1, 0), (0, 1))
    with pytest.raises(ValueError, match="need n >= 0"):
        line_quiver(-1)


def test_acyclicity_enforced():
    # an oriented cycle has an arrow against the vertex order
    cycle = ((0, 1), (1, 0))
    with pytest.raises(ValueError, match="vertex order"):
        euler_form(cycle, (1, 0), (0, 1))
    with pytest.raises(ValueError, match="vertex order"):
        positive_roots(2, cycle)


def test_pair_rule_refuses_arrows_off_the_vertices():
    # a negative index would read the last entry of a root, and an index past
    # the end would fail with an IndexError
    for arrows in (((0, -1),), ((0, 3),)):
        is_pair, total_hom = pair_rule(arrows, lambda x: x)
        with pytest.raises(ValueError, match="vertex order"):
            total_hom((1, 0, 0), (0, 0, 1))
        with pytest.raises(ValueError, match="vertex order"):
            is_pair((1, 0, 0), (0, 0, 1))


def test_coxeter_refuses_arrows_off_the_vertices():
    for arrows in (((-1, 0),), ((1, 3),)):
        with pytest.raises(ValueError, match="vertex order"):
            coxeter(arrows, (0, 1, 0))


def _dynkin(kind, n):
    """The arrows of a quiver of type A_n, D_n or E_n: for D and E the path
    0 -> 1 -> ... -> n - 2 with vertex n - 1 joined to vertex n - 3 (D) or
    2 (E)."""
    if kind == "A":
        return line_quiver(n - 1)
    branch = n - 3 if kind == "D" else 2
    return tuple((i, i + 1) for i in range(n - 2)) + ((branch, n - 1),)


def test_dynkin_detection():
    # the Tits form is positive definite on every Dynkin quiver, a disjoint
    # union included: A_2 and A_1 side by side have 3 + 1 roots
    assert len(positive_roots(6, line_quiver(5))) == 21
    assert len(positive_roots(4, D4)) == 12
    assert len(positive_roots(6, _dynkin("E", 6))) == 36
    assert positive_roots(3, ((0, 1),)) == [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0)]


# quivers that are not Dynkin, with the vector where the growth of the
# positive roots stops and the Tits form <x, x> there: the Kronecker quivers
# of the paper at their first sum of simples, and the affine ones at their
# imaginary root delta
_NOT_DYNKIN = {
    "K(2)": (((0, 1),) * 2, (1, 1), 0),
    "K(3)": (((0, 1),) * 3, (1, 1), -1),
    "q1": (AFFINE["q1"], (1, 1, 1), 0),
    "q2": (AFFINE["q2"], (1, 1, 1, 1), 0),
    "D~4": (((0, 4), (1, 4), (2, 4), (3, 4)), (1, 1, 1, 1, 2), 0),
    # the tree with arms of lengths 1, 2 and 5 at vertex 2
    "E~8": (_dynkin("A", 8) + ((2, 8),), (2, 4, 6, 5, 4, 3, 2, 1, 3), 0),
}


def test_positive_roots_rejects_affine():
    for name, (arrows, stop, form) in _NOT_DYNKIN.items():
        assert euler_form(arrows, stop, stop) == form, name
        message = re.escape(f"<x, x> = {form} at x = {stop}")
        with pytest.raises(ValueError, match=message):
            positive_roots(len(stop), arrows)


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
    roots = positive_roots(n, q)
    assert len(roots) == n * h // 2
    assert all(euler_form(q, x, x) == 1 and min(x) >= 0 for x in roots)


def test_positive_roots_a_are_intervals():
    for n in range(12):
        assert positive_roots(n + 1, line_quiver(n)) == sorted(
            interval_dim(p, n) for p in enum_points(n)
        )


def test_coxeter_matches_intervals():
    # Serre on K_0 sends the root of s_{i,j} to that of its image, up to sign
    for n in range(10):
        arrows = line_quiver(n)
        for p in enum_points(n):
            image = coxeter(arrows, interval_dim(p, n))
            if min(image) < 0:
                image = tuple(-v for v in image)
            serre = Interval(*serre_step(MonotoneSeq(n, 1, tuple(p))).values)
            assert image == interval_dim(serre, n), (n, p)


def test_coxeter_is_serre_duality():
    # <x, z> = <z, Sx> for all integer vectors, on a quiver with three
    # paths from its source to its sink; arrows against the vertex order
    # are refused
    arrows = [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)]

    def form(a, b):
        return sum(map(mul, a, b)) - sum(a[s] * b[t] for s, t in arrows)

    vectors = list(itertools.product(range(-1, 2), repeat=4))
    for x in vectors:
        sx = coxeter(arrows, x)
        assert all(form(x, z) == form(z, sx) for z in vectors), x
    with pytest.raises(ValueError, match="vertex order"):
        coxeter([(1, 0)], (1, 0))


def test_hom_profile_a3_simples():
    q = line_quiver(2)
    assert _homs(q, (1, 0, 0), (0, 1, 0)) == (0, 1)


def test_hom_profile_self():
    for q, vec in [
        (line_quiver(3), (1, 1, 0, 0)),
        (D4, (1, 0, 0, 1)),
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
    q = D4
    dims = {
        "s1": (1, 0, 0, 0),
        "s2": (0, 1, 0, 0),
        "s1o": (1, 0, 0, 1),
        "delta": (1, 1, 1, 2),
    }
    assert _homs(q, dims["s2"], dims["s1"]) == (0, 0)
    assert _homs(q, dims["s1"], dims["delta"]) != (0, 0)
    assert sorted(_homs(q, dims["s1o"], dims["delta"])) == [0, 1]


def _rank(vectors):
    return sympy.Matrix(vectors).rank() if vectors else 0


def test_in_span_is_the_vanishing_of_the_span_with_the_vector():
    # v lies in the span of independent roots iff the roots and v span no
    # lattice of one more rank, that is iff all maximal minors with v as a
    # row vanish.  Those all vanish for dependent, repeated or no roots, so
    # there the oracle is rank(roots) == rank(roots + [v]).
    rnd = random.Random(5)
    for n, k in ((2, 0), (2, 1), (3, 2), (4, 2), (4, 3), (5, 3), (6, 4), (3, 4)):
        for trial in range(20):
            roots = [tuple(rnd.randint(-2, 2) for _ in range(n)) for _ in range(k)]
            if roots and trial % 4 == 0:
                roots.append(rnd.choice(roots))
            elif len(roots) > 1 and trial % 4 == 1:
                a, b = rnd.sample(roots, 2)
                roots.append(tuple(x - 2 * y for x, y in zip(a, b)))
            independent = any(span(roots))
            inside = in_span(roots)
            coeffs = [rnd.randint(-3, 3) for _ in roots]
            combo = tuple(sum(c * r[i] for c, r in zip(coeffs, roots)) for i in range(n))
            assert inside(combo) and all(inside(r) for r in roots)
            rank = _rank(roots)
            for _ in range(10):
                v = tuple(rnd.randint(-2, 2) for _ in range(n))
                assert inside(v) == (rank == _rank([*roots, v])), (roots, v)
                if independent:
                    assert inside(v) == (not any(span([*roots, v]))), (roots, v)
    # a repeated root spans its line only, no roots span only 0, and the
    # curve s1, so of D4 holds s1o and no other root
    line = in_span([(1, 0, 0), (1, 0, 0)])
    assert [line(v) for v in ((2, 0, 0), (0, 1, 0), (1, 0, 1))] == [True, False, False]
    assert in_span([])((0, 0)) and not in_span([])((0, 1))
    assert not in_span([(0, 0, 0)])((1, 0, 0))
    assert [x for x in ((1, 0, 0, 1), (0, 1, 0, 1), (1, 1, 1, 2))
            if in_span([(1, 0, 0, 0), (0, 0, 0, 1)])(x)] == [(1, 0, 0, 1)]


# an orientation of E_6: the chain 0-1-2-3-4 with 5 attached to 2
E6 = ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5))


@pytest.mark.parametrize("name", [f"a{n}" for n in range(1, 9)] + ["d4", "e6"])
def test_in_span_is_the_plucker_test_on_exceptional_sets(name):
    # the roots of an exceptional set are independent, so a root lies in
    # their span iff every maximal minor with it as a last row vanishes
    if name == "e6":
        objs = positive_roots(6, E6)
        is_pair, dims = pair_rule(E6, lambda x: x)[0], {x: x for x in objs}
    else:
        cat = category(name)
        objs, is_pair, dims = list(cat.objects.values()), cat.is_pair, record_roots(cat)
    sets = list(exceptional_sets(*pair_rows(objs, is_pair), 3))
    for s in random.Random(name).sample(sets, min(len(sets), 40)):
        roots = [dims[objs[i]] for i in s]
        inside = in_span(roots)
        for x in objs:
            assert inside(dims[x]) == (not any(span([*roots, dims[x]]))), (s, x)


def test_span_is_the_plucker_vector():
    # the maximal minors on the column sets 01, 02, 12 and 012, 013, 023, 123
    assert span([(1, 2, 3), (0, 1, 1)]) == (1, 1, -1)
    assert span([(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]) == (0, 0, 1, 0)
    # a change of basis by a unimodular matrix keeps it, up to its sign
    assert span([(1, 2, 3), (1, 3, 4)]) == span([(1, 2, 3), (0, 1, 1)])
    rnd = random.Random(3)
    for n, k in ((3, 2), (4, 2), (4, 3), (5, 3)):
        roots = [tuple(rnd.randint(-4, 4) for _ in range(n)) for _ in range(k)]
        for i, j in itertools.combinations(range(k), 2):
            swapped = list(roots)
            swapped[i], swapped[j] = roots[j], roots[i]
            assert span(swapped) == tuple(-e for e in span(roots))
