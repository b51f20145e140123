import itertools
import tracemalloc
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nccount import arith, typea
from nccount.category import category
from nccount.quiver import euler_form, line_quiver
from nccount.typea import (
    GenSetA,
    Interval,
    MonotoneSeq,
    count_d_additive,
    count_genus,
    count_id,
    count_orbits_brute,
    count_orbits_formula,
    divisors_of_kn,
    enum_genus_minus1,
    enum_points,
    enum_seqs,
    euler,
    exceptional_pairs,
    genus_minus1_orbits,
    interval_dim,
    interval_mask,
    is_d_additive,
    monotone_seq,
    orbit_partition,
    pair_orbits,
    period,
    point_orbits,
    seq_orbits,
    seq_to_subcategory,
    seq_values,
    serre_on_point,
    serre_step,
)


def test_enum_points_counts():
    assert len(enum_points(3)) == 10
    assert enum_points(0) == [Interval(0, 0)]
    assert len(enum_points(2)) == 6


def test_enum_points_negative():
    with pytest.raises(ValueError):
        enum_points(-1)


def test_seq_count_is_binomial():
    for n in range(1, 12):
        for k in range(1, n + 2):
            assert len(enum_seqs(n, k)) == comb(n + 2, k + 1), (n, k)


def test_monotone_seq_validation():
    with pytest.raises(ValueError):
        monotone_seq(4, 2, (2, 1, 3))
    with pytest.raises(ValueError):
        monotone_seq(4, 2, (0, 1, 4))
    assert monotone_seq(4, 2, (0, 1, 3)).bound == 3


def test_seq_to_subcategory_zero_seq():
    # a zero sequence yields the leftmost staircase of simples
    seq = monotone_seq(2, 2, (0, 0, 0))
    assert seq_to_subcategory(seq) == GenSetA((Interval(0, 0), Interval(1, 1)))
    # with k = n+1 the staircase exhausts the ambient category
    full = monotone_seq(2, 3, (0, 0, 0, 0))
    assert seq_to_subcategory(full) == GenSetA(
        (Interval(0, 0), Interval(1, 1), Interval(2, 2))
    )


def test_seq_to_subcategory_staircase():
    # staircase rule applied literally to (0,1,3) with n=4, k=2
    seq = monotone_seq(4, 2, (0, 1, 3))
    assert seq_to_subcategory(seq) == GenSetA((Interval(0, 1), Interval(2, 4)))


def test_seq_to_subcategory_injective():
    for n in range(1, 8):
        for k in range(1, n + 1):
            images = {seq_to_subcategory(s) for s in enum_seqs(n, k)}
            assert len(images) == comb(n + 2, k + 1)


def test_staircase_generators_are_exceptional_pairs():
    # consecutive generators of a staircase form exceptional pairs
    for seq in enum_seqs(5, 3):
        gens = seq_to_subcategory(seq).generators
        for x, y in itertools.combinations(gens, 2):
            assert euler(interval_mask(y, 5), interval_mask(x, 5)) == 0


def test_count_id_values():
    assert count_id(1, 3) == 6
    assert count_id(1, 4) == 10
    assert count_id(3, 3) == 1
    assert count_id(5, 3) == 0
    for n in range(1, 13):
        assert count_id(n, n) == 1


def test_serre_step_examples():
    assert serre_step(monotone_seq(4, 2, (0, 1, 2))).values == (1, 2, 3)
    assert serre_step(monotone_seq(4, 2, (1, 2, 3))).values == (0, 1, 2)


def test_serre_step_order_divides_n_plus_2():
    for n in range(1, 13):
        for k in range(1, n + 1):
            for seq in enum_seqs(n, k):
                cur = seq
                for _ in range(n + 2):
                    cur = serre_step(cur)
                assert cur == seq


def test_serre_step_bijection():
    for n in range(1, 9):
        for k in range(1, n + 1):
            seqs = enum_seqs(n, k)
            assert len({serre_step(s) for s in seqs}) == len(seqs)


def test_divisors_of_kn():
    assert divisors_of_kn(2, 4) == [1, 3]
    assert divisors_of_kn(3, 6) == [1, 2, 4]
    # coprime k+1, n+2 leaves only the improper divisor
    assert divisors_of_kn(2, 5) == [3]
    assert divisors_of_kn(4, 9) == [5]
    assert divisors_of_kn(4, 8) == [1, 5]


def test_divisors_of_kn_gcd_form():
    from math import gcd

    for n in range(1, 13):
        for k in range(1, n):
            d_big = gcd(k + 1, n + 2)
            expected = sorted((k + 1) // d_big * x for x in range(1, d_big + 1) if d_big % x == 0)
            assert divisors_of_kn(k, n) == expected


def test_d_additive_basic():
    # the unique 1-additive sequence is a(t) = t*delta/(k+1)
    seq = monotone_seq(4, 2, (0, 1, 2))
    assert is_d_additive(seq, 1)
    assert period(seq) == 1
    # every sequence with a(0)=0 is (k+1)-additive
    for s in enum_seqs(4, 2):
        if s.values[0] == 0:
            assert is_d_additive(s, 3)
    # all-zero sequence is not d-additive for proper d
    zero = monotone_seq(4, 2, (0, 0, 0))
    assert not is_d_additive(zero, 1)
    assert period(zero) == 3


def test_d_additive_rejects_non_divisor():
    with pytest.raises(ValueError):
        is_d_additive(monotone_seq(4, 2, (0, 1, 2)), 2)


def test_period_requires_zero_start():
    with pytest.raises(ValueError):
        period(monotone_seq(4, 2, (1, 1, 2)))


def test_d_additive_census():
    # number of d-additive sequences = C(d(n+2)/(k+1) - 1, d - 1)
    for n in range(1, 13):
        for k in range(1, n + 1):
            for d in divisors_of_kn(k, n):
                got = sum(1 for s in enum_seqs(n, k) if is_d_additive(s, d))
                assert got == count_d_additive(n, k, d), (n, k, d)


def test_orbit_size_example():
    seq = monotone_seq(4, 2, (0, 1, 2))
    orb = next(o for o in orbit_partition(4, 2) if seq in o)
    assert len(orb) == 2  # d=1 gives size 1*(n+2)/(k+1) = 2


def test_orbit_sizes_and_zero_counts():
    # each orbit has size d(n+2)/(k+1) for a divisor d, and contains
    # exactly d sequences with vanishing leading entry
    for n in range(1, 11):
        for k in range(1, n + 1):
            divs = divisors_of_kn(k, n)
            for orb in orbit_partition(n, k):
                size = len(orb)
                cands = [d for d in divs if d * (n + 2) == size * (k + 1)]
                assert len(cands) == 1, (n, k, size)
                d = cands[0]
                zeros = [s for s in orb if s.values[0] == 0]
                assert len(zeros) == d
                for s in zeros:
                    assert period(s) == d


def test_period_census_vs_orbit_census():
    # d * (number of orbits of size d(n+2)/(k+1)) sequences of period d
    for n in range(1, 11):
        for k in range(1, n + 1):
            parts = list(orbit_partition(n, k))
            for d in divisors_of_kn(k, n):
                size = d * (n + 2) // (k + 1)
                n_orbits = sum(1 for orb in parts if len(orb) == size)
                n_period = sum(
                    1
                    for s in enum_seqs(n, k)
                    if s.values[0] == 0 and period(s) == d
                )
                assert n_period == d * n_orbits


def test_orbit_sum_is_total():
    for n in range(1, 10):
        for k in range(1, n + 1):
            parts = orbit_partition(n, k)
            assert sum(len(p) for p in parts) == comb(n + 2, k + 1)


def test_seq_rank_is_the_enumeration_index():
    for n in range(0, 11):
        for k in range(1, n + 1):
            bound = n + 1 - k
            rank = typea._seq_rank(k, bound)
            seqs = list(seq_values(n, k))
            assert [rank(a) for a in seqs] == list(range(len(seqs))), (n, k)
            # Serre permutes X_n^k, so the ranks of the images do too
            images = sorted(rank(typea._serre_values(a, bound)) for a in seqs)
            assert images == list(range(comb(n + 2, k + 1))), (n, k)


def test_seq_orbits_match_the_orbit_helper():
    # k > N, where X_n^k is empty, included
    for n in range(0, 11):
        for k in range(1, n + 4):
            want = arith.orbits(enum_seqs(n, k), serre_step)
            got = list(orbit_partition(n, k))
            assert got == want, (n, k)
            assert list(seq_orbits(n, k)) == [[s.values for s in o] for o in want]


def test_empty_sequence_set_has_no_orbits():
    # a negative bound builds an empty rank table, which is never read
    for k in range(2, 8):
        typea._seq_rank(k, 1 - k)
        assert list(seq_orbits(0, k)) == []
        assert count_orbits_brute(k, 1) == count_orbits_formula(k, 1) == 0


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_orbit_oracles_hold_no_enumeration():
    # marks, one orbit and one row of codes: C(19, 5) = 11,628 sequences and
    # 231^2 point pairs stay far under 256 KB
    assert _traced_peak(count_orbits_brute, 4, 18) < 256 * 1024
    assert _traced_peak(lambda: sum(1 for _ in pair_orbits(20, 0))) < 256 * 1024


def test_count_orbits_anchors():
    assert count_orbits_brute(2, 5) == 4
    assert count_orbits_brute(3, 6) == 5
    assert count_orbits_brute(1, 3) == 2
    assert count_orbits_formula(2, 5) == 4
    assert count_orbits_formula(3, 6) == 5


def test_count_orbits_formula_vs_brute():
    for vertices in range(1, 13):
        for k in range(1, vertices + 1):
            assert count_orbits_formula(k, vertices) == count_orbits_brute(
                k, vertices
            ), (k, vertices)


@st.composite
def _k_vertices(draw, limit=20_000):
    # (k, N) with N <= 40 whose C(N+1, k+1) sequences stay cheap to
    # partition; k > N, where both counts are 0, is included
    vertices = draw(st.integers(1, 40))
    ks = [k for k in range(1, vertices + 3) if comb(vertices + 1, k + 1) <= limit]
    return draw(st.sampled_from(ks)), vertices


@settings(deadline=None, max_examples=60)
@given(_k_vertices())
def test_count_orbits_formula_vs_brute_random(kv):
    k, vertices = kv
    assert count_orbits_formula(k, vertices) == count_orbits_brute(k, vertices)
    parts = list(orbit_partition(vertices - 1, k))
    assert len(parts) == count_orbits_brute(k, vertices)
    assert all((vertices + 1) % len(orb) == 0 for orb in parts)


def test_count_orbits_special_cases():
    for k in range(1, 12):
        assert count_orbits_formula(k, k) == 1
    # k+1 prime and (N+1) not divisible by k+1: count = C(N,k)/(k+1)
    for k, vertices in [(1, 3), (2, 7), (4, 9), (6, 11)]:
        if (vertices + 1) % (k + 1) != 0:
            assert count_orbits_formula(k, vertices) == comb(vertices, k) // (k + 1)


def test_count_genus_values():
    assert count_genus(-1, 3, "id") == 2
    assert count_genus(-1, 3, "full") == 1
    assert count_genus(0, 3, "id") == 4
    assert count_genus(1, 5, "id") == 0
    assert count_genus(2, 5, "full") == 0
    with pytest.raises(ValueError):
        count_genus(-2, 3)
    with pytest.raises(ValueError):
        count_genus(0, 3, "kappa")


def test_count_genus_closed_forms_vs_orbits():
    # brute-force orbit counting agrees with both closed forms
    for vertices in range(1, 12):
        n = vertices - 1
        assert count_genus(0, vertices, "id") == comb(n + 2, 3)
        assert count_genus(-1, vertices, "id") == 2 * comb(n + 2, 4)
        if vertices >= 2:
            assert count_genus(0, vertices, "full") == count_orbits_brute(2, vertices)
        assert count_genus(-1, vertices, "full") == len(genus_minus1_orbits(n))


def test_enum_genus_minus1():
    got = enum_genus_minus1(2)
    assert got == sorted(
        [
            GenSetA((Interval(0, 0), Interval(2, 2))),
            GenSetA((Interval(0, 2), Interval(1, 1))),
        ]
    )
    assert enum_genus_minus1(1) == []
    for n in range(0, 9):
        pairs = enum_genus_minus1(n)
        assert len(pairs) == 2 * comb(n + 2, 4)
        for pair in pairs:
            mx, my = (interval_mask(iv, n) for iv in pair.generators)
            assert euler(my, mx) == 0
            assert euler(mx, my) == 0


def _decode(codes, n):
    points = enum_points(n)
    return [(points[c // len(points)], points[c % len(points)]) for c in codes]


def test_exceptional_pairs_genus_minus1_scan_matches_two_shapes():
    for n in range(0, 11):
        got = {GenSetA(pair) for pair in _decode(exceptional_pairs(n, 0), n)}
        assert got == set(enum_genus_minus1(n)), n


def test_exceptional_pairs_hom_census():
    # each A_2-type subcategory has three exceptional pairs, all with total
    # hom 1, and no two interval objects have a larger total hom
    for n in range(0, 13):
        assert len(list(exceptional_pairs(n, 1))) == 3 * comb(n + 2, 3), n
        for hom in (2, 3):
            assert list(exceptional_pairs(n, hom)) == [], (n, hom)


def test_exceptional_pairs_match_quiver_euler_form():
    # the bitmask scan against the Euler form of the line quiver
    for n in range(0, 6):
        q, points = line_quiver(n), enum_points(n)
        dims = {iv: interval_dim(iv, n) for iv in points}
        for hom in range(3):
            want = [
                (x, y)
                for x in points
                for y in points
                if euler_form(q, dims[y], dims[x]) == 0
                and abs(euler_form(q, dims[x], dims[y])) == hom
                and (hom > 0 or x < y)
            ]
            codes = list(exceptional_pairs(n, hom))
            assert codes == sorted(codes)
            assert _decode(codes, n) == want, (n, hom)


def test_pair_orbits_partition_the_scan():
    for n in range(0, 9):
        for hom in (0, 1):
            parts = list(pair_orbits(n, hom))
            flat = sorted(c for orb in parts for c in orb)
            assert flat == list(exceptional_pairs(n, hom))
            assert all((n + 2) % len(orb) == 0 for orb in parts)


def test_pair_orbits_match_the_orbit_helper():
    # the Serre step on decoded interval pairs, independent of the walk's
    for n in range(0, 9):
        points = enum_points(n)
        code = {pair: t for t, pair in enumerate(itertools.product(points, repeat=2))}

        def step(c, hom):
            x, y = (serre_on_point(*iv, n)[0] for iv in _decode([c], n)[0])
            return code[(y, x) if hom == 0 and y < x else (x, y)]

        for hom in range(3):
            want = arith.orbits(list(exceptional_pairs(n, hom)), lambda c: step(c, hom))
            assert list(pair_orbits(n, hom)) == want, (n, hom)


def test_enumeration_cap(monkeypatch):
    with pytest.raises(ValueError, match="C\\(31, 11\\) sequences = 84672315;"):
        typea.seq_values(29, 10)
    with pytest.raises(ValueError, match="1830\\^2 point pairs = 3348900;"):
        exceptional_pairs(59, 2)
    # the largest sizes the tests and the benchmark ask for stay below it
    assert max(comb(21, 6), comb(41, 3), (30 * 31 // 2) ** 2) <= arith.MAX_ENUMERATION
    # the cap itself is allowed, one more is refused
    monkeypatch.setattr(arith, "MAX_ENUMERATION", 15)
    assert count_orbits_brute(1, 5) == 3  # C(6, 2) = 15 sequences
    with pytest.raises(ValueError, match="C\\(7, 2\\) sequences = 21;"):
        count_orbits_brute(1, 6)
    assert list(exceptional_pairs(1, 2)) == []  # 3^2 pairs
    with pytest.raises(ValueError, match="6\\^2 point pairs = 36;"):
        exceptional_pairs(2, 2)


def test_genus_minus1_orbit_census():
    # even n: exactly n/2 orbits of size n/2+1, rest n+2; odd n: all n+2
    for n in range(1, 11):
        sizes = sorted(len(o) for o in genus_minus1_orbits(n))
        if n % 2 == 0:
            small = [s for s in sizes if s == n // 2 + 1]
            rest = [s for s in sizes if s != n // 2 + 1]
            assert len(small) == n // 2
            assert all(s == n + 2 for s in rest)
        else:
            assert all(s == n + 2 for s in sizes)


def test_serre_on_point():
    assert serre_on_point(0, 0, 2) == (Interval(1, 1), True)
    assert serre_on_point(1, 2, 2) == (Interval(0, 1), False)
    with pytest.raises(ValueError):
        serre_on_point(2, 1, 3)


def test_point_orbit_sizes():
    # orbit sizes are n+2, except the middle-length orbit (n even) of size n/2+1
    for n in range(1, 11):
        for orb in point_orbits(n):
            if n % 2 == 0 and any(iv.j - iv.i == n // 2 for iv in orb):
                assert len(orb) == n // 2 + 1
            else:
                assert len(orb) == n + 2


@st.composite
def _interval_pair(draw):
    n = draw(st.integers(0, 12))
    interval = st.tuples(st.integers(0, n), st.integers(0, n)).map(
        lambda ij: Interval(*sorted(ij))
    )
    return n, draw(interval), draw(interval)


@settings(deadline=None, max_examples=300)
@given(_interval_pair())
def test_interval_hom_matches_euler_form(nxy):
    # the packed Euler form against the Euler form of the line quiver
    n, x, y = nxy
    q = line_quiver(n)
    dx, dy = (tuple(int(iv.i <= v <= iv.j) for v in range(n + 1)) for iv in (x, y))
    assert (interval_dim(x, n), interval_dim(y, n)) == (dx, dy)
    mx, my = interval_mask(x, n), interval_mask(y, n)
    assert mx == sum(d << v for v, d in enumerate(dx))
    assert my == sum(d << v for v, d in enumerate(dy))
    assert euler(mx, my) == euler_form(q, dx, dy)
    assert euler(my, mx) == euler_form(q, dy, dx)


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 12), st.integers(-3, 15), st.integers(-3, 15))
def test_interval_hom_rejects_intervals_outside_range(n, i, j):
    assume(not 0 <= i <= j <= n)
    bad, good = Interval(i, j), Interval(0, n)
    with pytest.raises(ValueError):
        interval_mask(bad, n)
    # the category record reaches the mask of an unknown interval
    cat = category(f"a{n + 1}")
    for x, y in ((bad, good), (good, bad)):
        with pytest.raises(ValueError):
            cat.is_pair(x, y)
        with pytest.raises(ValueError):
            cat.total_hom(x, y)
