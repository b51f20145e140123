import itertools
import sys
import tracemalloc
from collections import Counter
from itertools import chain, count
from math import comb, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nccount import GenSet, arith, typea
from nccount.category import category
from nccount.interval import euler, interval_dim
from nccount.quiver import euler_form, line_quiver
from nccount.typea import (
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
    interval_mask,
    is_d_additive,
    monotone_seq,
    orbit_partition,
    orbit_sizes,
    period,
    point_orbits,
    seq_to_subcategory,
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
    with pytest.raises(ValueError, match="need k >= 1"):
        monotone_seq(3, 0, (0,))
    with pytest.raises(ValueError, match="no sequences exist for k=3, n=1"):
        monotone_seq(1, 3, (0, 0, 0, 0))
    assert monotone_seq(4, 2, (0, 1, 3)).bound == 3


def test_seq_to_subcategory_zero_seq():
    # a zero sequence yields the leftmost staircase of simples
    seq = monotone_seq(2, 2, (0, 0, 0))
    assert seq_to_subcategory(seq) == GenSet((Interval(0, 0), Interval(1, 1)))
    # with k = n+1 the staircase exhausts the ambient category
    full = monotone_seq(2, 3, (0, 0, 0, 0))
    assert seq_to_subcategory(full) == GenSet(
        (Interval(0, 0), Interval(1, 1), Interval(2, 2))
    )


def test_seq_to_subcategory_staircase():
    # staircase rule applied literally to (0,1,3) with n=4, k=2
    seq = monotone_seq(4, 2, (0, 1, 3))
    assert seq_to_subcategory(seq) == GenSet((Interval(0, 1), Interval(2, 4)))


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
    with pytest.raises(ValueError, match="need 1 <= k <= n\\+1, got k=0, n=3"):
        divisors_of_kn(0, 3)


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
    # at k = n+1 the one sequence is d-additive for every divisor of n+2
    whole = monotone_seq(2, 3, (0, 0, 0, 0))
    assert divisors_of_kn(3, 2) == [1, 2, 4]
    assert all(is_d_additive(whole, d) for d in (1, 2, 4))
    assert period(whole) == count_d_additive(2, 3, 2) == 1


def test_d_additive_rejects_non_divisor():
    with pytest.raises(ValueError):
        is_d_additive(monotone_seq(4, 2, (0, 1, 2)), 2)
    with pytest.raises(ValueError, match="5 is not a divisor"):
        count_d_additive(3, 2, 5)


def test_period_requires_zero_start():
    with pytest.raises(ValueError):
        period(monotone_seq(4, 2, (1, 1, 2)))


def test_d_additive_census():
    # number of d-additive sequences = C(d(n+2)/(k+1) - 1, d - 1)
    for n in range(1, 13):
        for k in range(1, n + 2):
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
        for k in range(1, n + 2):
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
        for k in range(1, n + 2):
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


def test_seq_orbits_match_the_orbit_helper():
    # k > N, where X_n^k is empty, included
    for n in range(0, 11):
        for k in range(1, n + 4):
            want = arith.orbits(enum_seqs(n, k), serre_step)
            got = list(orbit_partition(n, k))
            assert got == want, (n, k)


def test_empty_sequence_set_has_no_orbits():
    # k + 1 > n + 2: no (k+1)-subsets of the (n+2)-gon, so no necklaces
    for k in range(2, 8):
        assert list(orbit_partition(0, k)) == []
        assert count_orbits_brute(k, 1) == count_orbits_formula(k, 1) == 0


def test_orbit_streams_past_the_recursion_limit():
    # k + 1 parts, more than the interpreter's recursion limit: the necklace
    # stream keeps a flat stack, and sizes and counts read the complement
    k = sys.getrecursionlimit() + 200
    assert list(orbit_sizes(k - 1, k)) == [1]
    assert list(orbit_partition(k - 1, k)) == [[MonotoneSeq(k - 1, k, (0,) * (k + 1))]]
    # one free point: the n+2 sequences are one orbit
    want = arith.orbits(enum_seqs(k, k), serre_step)
    assert list(orbit_partition(k, k)) == want
    assert list(orbit_sizes(k, k)) == [k + 2]
    # two free points, C(1203, 1201) = 723,003 sequences under the cap
    assert count_orbits_brute(1200, 1202) == count_orbits_formula(1200, 1202) == 601
    assert Counter(orbit_sizes(1201, 1200)) == {1203: 601}


def _orbit_census(n, k):
    # the orbit helper under the Serre step on all of X_n^k, independent of
    # the necklace stream behind both orbit_partition and orbit_sizes
    parts = arith.orbits(enum_seqs(n, k), serre_step)
    return Counter(map(len, parts))


def test_orbit_sizes_match_the_orbits():
    # the necklace stream against the orbit helper on all of X_n^k, with
    # k > N, where X_n^k is empty, included
    for n in range(0, 12):
        for k in range(1, n + 4):
            assert Counter(orbit_sizes(n, k)) == _orbit_census(n, k), (n, k)


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_orbit_oracles_hold_no_enumeration():
    # one necklace and one orbit: C(19, 5) = 11,628 sequences and C(22, 4) =
    # 7,315 for the genus -1 curves stay far under 256 KB
    assert _traced_peak(count_orbits_brute, 4, 18) < 256 * 1024
    # the largest admitted k = 5 sizes, C(32, 6) = 906,192 sequences, hold
    # O(k) of the necklace stream, once its module is loaded
    count_orbits_brute(5, 6)
    assert _traced_peak(count_orbits_brute, 5, 31) < 32 * 1024
    census = Counter()
    assert _traced_peak(census.update, orbit_sizes(30, 5)) < 32 * 1024
    assert sum(size * c for size, c in census.items()) == comb(32, 6) == 906_192
    assert census.total() == count_orbits_formula(5, 31)
    assert all(32 % size == 0 for size in census)
    assert _traced_peak(typea._genus_minus1_census, 20) < 256 * 1024
    # the censuses at N = 44, 990^2 point pairs: one necklace, or the point
    # orbits and the masks of the points; the pairs would take MBs
    assert _traced_peak(typea._genus_minus1_census, 43) < 384 * 1024
    assert _traced_peak(typea._hom_census, 43, 1) < 384 * 1024
    # the genus -1 census at its own cap, C(71, 4) = 971,635 sequences
    assert _traced_peak(typea._genus_minus1_census, 69) < 32 * 1024


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
    # the necklace stream against the orbit helper under the Serre step
    k, vertices = kv
    n = vertices - 1
    want = arith.orbits(enum_seqs(n, k), serre_step)
    assert list(orbit_partition(n, k)) == want
    assert count_orbits_formula(k, vertices) == count_orbits_brute(k, vertices)
    assert count_orbits_brute(k, vertices) == len(want)
    assert all((vertices + 1) % len(orb) == 0 for orb in want)
    assert Counter(orbit_sizes(n, k)) == Counter(map(len, want))


def test_count_orbits_special_cases():
    for k in range(1, 12):
        assert count_orbits_formula(k, k) == 1
    # answered before the divisor sum, which would factor N+1
    assert count_orbits_formula(10**30, 10**30) == count_id(10**30, 10**30) == 1
    # k+1 prime and (N+1) not divisible by k+1: count = C(N,k)/(k+1)
    for k, vertices in [(1, 3), (2, 7), (4, 9), (6, 11)]:
        if (vertices + 1) % (k + 1) != 0:
            assert count_orbits_formula(k, vertices) == comb(vertices, k) // (k + 1)


def _necklace_count(m, s):
    # the Burnside sum, taken without the digit check
    total = sum(arith.euler_phi(d) * comb(m // d, s // d)
                for d in arith.divisors(gcd(m, s)))
    return total // m


@pytest.mark.parametrize(
    # C(N+1, k+1) crosses the limit between N = 14290 and 14291, and the
    # orbit count, about C(N+1, k+1)/(N+1), between N = 14304 and 14305
    "k, vertices", [(7144, 14290), (7145, 14291), (7151, 14304), (7152, 14305)],
)
def test_counts_refused_exactly_at_the_digit_limit(k, vertices):
    limit = sys.get_int_max_str_digits()
    m, s = vertices + 1, k + 1
    for formula, want in ((count_id, comb(m, s)),
                          (count_orbits_formula, _necklace_count(m, s))):
        if want >= 10**limit:
            with pytest.raises(ValueError, match=f"more than {limit} digits"):
                formula(k, vertices)
        else:
            assert formula(k, vertices) == want


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
        assert count_genus(-1, vertices, "full") == len(_genus_minus1_orbits(n))


def _genus_minus1_orbits(n):
    """The Serre orbits on the genus -1 curves, by the orbit helper under the
    Serre step on their sorted orthogonal pairs."""

    def step(pair):
        images = (serre_on_point(*iv, n)[0] for iv in pair.generators)
        return GenSet(tuple(sorted(images)))

    return arith.orbits(enum_genus_minus1(n), step)


def test_enum_genus_minus1():
    got = enum_genus_minus1(2)
    assert got == sorted(
        [
            GenSet((Interval(0, 0), Interval(2, 2))),
            GenSet((Interval(0, 2), Interval(1, 1))),
        ]
    )
    assert enum_genus_minus1(1) == []
    with pytest.raises(ValueError, match="need n >= 0"):
        enum_genus_minus1(-1)
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
        got = {GenSet(pair) for pair in _decode(_row_scan(n, 0), n)}
        assert got == set(enum_genus_minus1(n)), n


def test_exceptional_pairs_hom_census():
    # each A_2-type subcategory has three exceptional pairs, all with total
    # hom 1, and no two interval objects have a larger total hom
    for n in range(0, 13):
        assert len(list(_row_scan(n, 1))) == 3 * comb(n + 2, 3), n
        for hom in (2, 3):
            assert list(_row_scan(n, hom)) == [], (n, hom)
            assert typea._hom_census(n, hom) == (0, 0), (n, hom)


def _row_scan(n, hom):
    """The codes x*P + y of the exceptional pairs (s_x, s_y) of interval
    objects with total hom dimension hom, x < y for hom = 0, in increasing
    order, from a scan of every ordered pair, one row x at a time: the
    reference for the censuses of typea."""
    p = (n + 1) * (n + 2) // 2
    masks = [interval_mask(iv, n) for iv in enum_points(n)]

    def row(x, mx):
        # |y & (x >> 1)| and |x & (y >> 1)| = |(x << 1) & y|
        sx, lx = mx >> 1, mx << 1
        start = x + 1 if hom == 0 else 0
        return [
            code
            for code, my in zip(count(x * p + start), masks[start:])
            if (c := (mx & my).bit_count()) == (sx & my).bit_count()
            and abs(c - (lx & my).bit_count()) == hom
        ]

    return chain.from_iterable(map(row, count(), masks))


def test_exceptional_pairs_match_the_row_scan():
    # interval.euler on every ordered pair finds the row scan's pairs
    for n in range(0, 15):
        masks = [interval_mask(iv, n) for iv in enum_points(n)]
        pairs = list(itertools.product(enumerate(masks), repeat=2))
        for hom in range(4):
            want = [
                x * len(masks) + y
                for (x, mx), (y, my) in pairs
                if euler(my, mx) == 0 and abs(euler(mx, my)) == hom and (hom or x < y)
            ]
            assert list(_row_scan(n, hom)) == want, (n, hom)


def _chord(iv):
    # s_{i,j} is the chord {i, j+1} of the (n+2)-gon
    return frozenset((iv.i, iv.j + 1))


def _crossing(c, d):
    a, b = sorted(c)
    return (a < min(d) < b) != (a < max(d) < b)


def test_orthogonal_pairs_are_the_noncrossing_chord_pairs():
    # through interval.euler, the orthogonal pairs of interval objects go one
    # to one onto the pairs of noncrossing chords with four distinct
    # endpoints, the Serre step rotates the chords by one, and no two
    # interval objects have total hom >= 2
    for n in range(0, 16):
        points = enum_points(n)
        masks = {iv: interval_mask(iv, n) for iv in points}
        assert all(abs(euler(masks[x], masks[y])) <= 1 for x in points for y in points)
        orthogonal = [
            frozenset((_chord(x), _chord(y)))
            for x, y in itertools.combinations(points, 2)
            if euler(masks[x], masks[y]) == euler(masks[y], masks[x]) == 0
        ]
        chords = map(frozenset, itertools.combinations(range(n + 2), 2))
        noncrossing = {
            frozenset((c, d))
            for c, d in itertools.combinations(chords, 2)
            if len(c | d) == 4 and not _crossing(c, d)
        }
        assert len(set(orthogonal)) == len(orthogonal), n
        assert set(orthogonal) == noncrossing, n
        for iv in points:
            image = _chord(serre_on_point(iv.i, iv.j, n)[0])
            assert image == {(v + 1) % (n + 2) for v in _chord(iv)}, (n, iv)


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
            codes = list(_row_scan(n, hom))
            assert codes == sorted(codes)
            assert _decode(codes, n) == want, (n, hom)


def _orbit_helper_census(n, hom):
    # (pairs, Serre orbits) of the row scan, by the orbit helper under the
    # Serre step on decoded point pairs, re-sorted when unordered
    points = enum_points(n)
    index = {iv: t for t, iv in enumerate(points)}

    def step(pair):
        x, y = (index[serre_on_point(*points[t], n)[0]] for t in pair)
        return (y, x) if hom == 0 and y < x else (x, y)

    pairs = [divmod(c, len(points)) for c in _row_scan(n, hom)]
    return len(pairs), len(arith.orbits(pairs, step))


def _census(n, hom):
    # (pairs, Serre orbits) as `an genus --verify` counts them, genus hom - 1
    return typea._genus_minus1_census(n) if hom == 0 else typea._hom_census(n, hom)


def test_pair_census_matches_the_row_scan_and_the_orbit_helper():
    for n in range(0, 15):
        for hom in range(4):
            assert _census(n, hom) == _orbit_helper_census(n, hom), (n, hom)


@pytest.mark.parametrize("genus", [-1, 1])
def test_pair_census_matches_the_closed_forms_at_the_cap(genus):
    # up to the largest N each cap admits: C(71, 4) = 971,635 sequences at
    # N = 70 for genus -1, 990^2 point pairs at N = 44 for genus 1
    for vertices in range(1, 71) if genus == -1 else [44]:
        census = _census(vertices - 1, genus + 1)
        assert census == tuple(count_genus(genus, vertices, g) for g in ("id", "full"))


def test_enumeration_cap(monkeypatch):
    with pytest.raises(ValueError, match="C\\(31, 11\\) sequences = 84672315;"):
        typea.seq_values(29, 10)
    with pytest.raises(ValueError, match="1830\\^2 point pairs = 3348900;"):
        typea._hom_census(59, 2)
    with pytest.raises(ValueError, match="C\\(72, 4\\) sequences = 1028790;"):
        typea._genus_minus1_census(70)
    # the largest sizes the tests and the benchmark ask for stay below it
    assert max(comb(21, 6), comb(41, 3), (30 * 31 // 2) ** 2) <= arith.MAX_ENUMERATION
    # the cap itself is allowed, one more is refused
    monkeypatch.setattr(arith, "MAX_ENUMERATION", 15)
    assert count_orbits_brute(1, 5) == 3  # C(6, 2) = 15 sequences
    with pytest.raises(ValueError, match="C\\(7, 2\\) sequences = 21;"):
        count_orbits_brute(1, 6)
    assert typea._hom_census(1, 2) == (0, 0)  # 3^2 pairs
    with pytest.raises(ValueError, match="6\\^2 point pairs = 36;"):
        typea._hom_census(2, 2)
    assert typea._genus_minus1_census(4) == (30, 6)  # C(6, 4) = 15 sequences
    with pytest.raises(ValueError, match="C\\(7, 4\\) sequences = 35;"):
        typea._genus_minus1_census(5)


def test_genus_minus1_orbit_census():
    # even n: exactly n/2 orbits of size n/2+1, rest n+2; odd n: all n+2
    for n in range(1, 11):
        sizes = sorted(len(o) for o in _genus_minus1_orbits(n))
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
