from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nccount.markov import (
    SEED,
    ChernPair,
    chern_pair,
    closure_counts,
    count_c,
    estimated_triples,
    euler_chi,
    exc_triple,
    exceptional_slopes,
    generate_triples,
    markov_numbers,
    markov_triples,
    mutate,
    normalized_slope,
    rank_counts,
    tyurin_scan,
)

FIRST_NINE = [1, 2, 5, 13, 29, 34, 89, 169, 194]
KNOWN_SLOPES = {
    Fraction(0, 1), Fraction(1, 2), Fraction(2, 5), Fraction(5, 13),
    Fraction(12, 29), Fraction(13, 34), Fraction(34, 89),
    Fraction(70, 169), Fraction(75, 194),
}


def test_markov_numbers():
    assert markov_numbers(200) == FIRST_NINE
    assert markov_numbers(1) == [1]
    with pytest.raises(ValueError):
        markov_numbers(0)


def test_markov_numbers_have_witness_triples():
    # every emitted number sits in a Markov triple (checked inside the
    # generator); spot-check a few by hand
    for a, b, c in [(1, 1, 1), (1, 1, 2), (1, 2, 5), (5, 13, 194), (2, 29, 169)]:
        assert a * a + b * b + c * c == 3 * a * b * c


def test_chern_pair_validation():
    with pytest.raises(ValueError):
        chern_pair(0, 1)
    with pytest.raises(ValueError):
        chern_pair(2, 4)
    e = chern_pair(2, 1)
    assert e.ch2 == Fraction(1 + 1 - 4, 4)
    assert e.slope == Fraction(1, 2)


def test_euler_chi_line_bundles():
    o = ChernPair(1, 0)
    assert euler_chi(o, ChernPair(1, 1)) == 3
    # dim of the space of degree-2 monomials in 3 variables = C(4,2) = 6
    assert euler_chi(o, ChernPair(1, 2)) == 6
    assert euler_chi(o, o) == 1


def _riemann_roch(a, b):
    """chi(a, b) from Riemann-Roch over sympy rationals, ch2 as ChernPair."""
    def ch2(e):
        return sympy.Rational(1 + e.c * e.c - e.r * e.r, 2 * e.r)

    return (
        a.r * b.r + sympy.Rational(3, 2) * (a.r * b.c - a.c * b.r)
        + a.r * ch2(b) + ch2(a) * b.r - a.c * b.c
    )


def test_euler_chi_matches_riemann_roch_on_the_closure():
    triples = generate_triples(10**6)
    assert len(triples) > 100
    for t in triples:
        for a in t.entries:
            for b in t.entries:
                assert euler_chi(a, b) == _riemann_roch(a, b), (a, b)


coprime_pairs = st.tuples(
    st.integers(1, 10**6), st.integers(-(10**6), 10**6)
).filter(lambda rc: gcd(*rc) == 1)


@settings(max_examples=300, deadline=None)
@given(coprime_pairs, coprime_pairs)
def test_euler_chi_matches_riemann_roch(rc_a, rc_b):
    a, b = chern_pair(*rc_a), chern_pair(*rc_b)
    want = _riemann_roch(a, b)
    if want.is_integer:
        assert euler_chi(a, b) == want
    else:
        with pytest.raises(ValueError, match="non-integral"):
            euler_chi(a, b)


def test_euler_chi_non_integral_raises():
    assert not _riemann_roch(ChernPair(2, 1), ChernPair(3, 1)).is_integer
    with pytest.raises(ValueError, match="non-integral"):
        euler_chi(ChernPair(2, 1), ChernPair(3, 1))


def test_chi_self_is_one_everywhere():
    for t in generate_triples(50):
        for e in t.entries:
            assert euler_chi(e, e) == 1
            assert gcd(e.r, e.c) == 1


def test_mutation_seed_example():
    t = mutate(SEED, "left-12")
    first = t.entries[0]
    assert (first.r, abs(first.c)) == (2, 1)
    assert t.ranks() == (2, 1, 1)
    assert normalized_slope(first) == Fraction(1, 2)


def test_twist_preserves_ranks():
    t = mutate(SEED, "twist")
    assert t.ranks() == SEED.ranks()
    assert [e.c for e in t.entries] == [e.c + 3 * e.r for e in SEED.entries]


def test_mutations_preserve_markov_equation():
    # exc_triple re-checks the rank equation on every construction
    frontier = [SEED]
    seen = set()
    for _ in range(200):
        if not frontier:
            break
        t = frontier.pop()
        if t in seen:
            continue
        seen.add(t)
        for move in ("left-12", "left-23", "right-12", "right-23", "twist"):
            img = mutate(t, move)
            r1, r2, r3 = img.ranks()
            assert r1 * r1 + r2 * r2 + r3 * r3 == 3 * r1 * r2 * r3
            if max(img.ranks()) <= 40:
                frontier.append(img)
    with pytest.raises(ValueError):
        exc_triple(ChernPair(1, 0), ChernPair(1, 1), ChernPair(3, 1))
    with pytest.raises(ValueError):
        mutate(SEED, "left-13")


def test_exceptional_slopes():
    assert exceptional_slopes(200) == KNOWN_SLOPES
    assert exceptional_slopes(1) == {Fraction(0, 1)}
    ranks = {mu.denominator for mu in exceptional_slopes(200)}
    assert ranks == set(FIRST_NINE)


@settings(deadline=None, max_examples=40)
@given(st.one_of(st.integers(1, 10**4), st.sampled_from(FIRST_NINE + [10**4])))
def test_exceptional_slopes_match_fraction_normalization(max_rank):
    # the integer residues give exactly the slopes that normalized_slope
    # computes on Fractions, bundle by bundle
    import nccount.markov as mk

    want = {normalized_slope(e) for e in mk._bundles(max_rank)}
    assert exceptional_slopes(max_rank) == want


def test_generation_is_confluent():
    # a depth-first closure written out here reaches the same triples, and
    # so the same slopes, as the breadth-first one of generate_triples
    import nccount.markov as mk

    for max_rank in (80, 200):
        start = mk._canonical_triple(SEED)
        seen, stack = {start}, [start]
        while stack:
            cur = stack.pop()
            for move in ("left-12", "left-23", "right-12", "right-23"):
                img = mk._canonical_triple(mutate(cur, move))
                if img not in seen and max(img.ranks()) <= max_rank:
                    seen.add(img)
                    stack.append(img)
        assert sorted(seen) == generate_triples(max_rank)
    slopes = {normalized_slope(e) for t in seen for e in t.entries if e.r <= 200}
    assert slopes == exceptional_slopes(200)


def test_seed_twist_generates_same_slopes():
    # starting from any twist of the seed gives the same slope set
    import nccount.markov as mk

    twisted = mk.ExcTriple(tuple(e.twist(5) for e in SEED.entries))
    start = mk._canonical_triple(twisted)
    assert start == mk._canonical_triple(SEED)


def test_nonzero_genus_levels_are_markov():
    # curves live at genus 3r - 1 for each generated rank r, and rank 0
    # (genus -1) never occurs
    ranks = {e.r for t in generate_triples(200) for e in t.entries}
    assert {3 * r - 1 for r in ranks} == {
        3 * m - 1 for m in markov_numbers(200)
    }
    assert 0 not in ranks


def test_count_c_table():
    expected = dict(zip(FIRST_NINE, [1, 1, 2, 2, 2, 2, 2, 2, 2]))
    for m, cnt in expected.items():
        assert count_c(m, "full") == cnt, m
        assert count_c(m, "serre") == 3 * cnt, m
        assert count_c(m, "full") <= m
    with pytest.raises(ValueError):
        count_c(3, "full")  # 3 is not a Markov number
    with pytest.raises(ValueError):
        count_c(5, "kappa")


def test_tyurin_scan():
    rows = tyurin_scan(200)
    assert [m for m, _, _ in rows] == [5, 13, 29, 34, 89, 169, 194]
    assert all(ok for _, _, ok in rows)
    assert all(cnt == 2 for _, cnt, _ in rows)
    assert tyurin_scan(4) == []  # no Markov numbers beyond 2 in range
    with pytest.raises(ValueError):
        tyurin_scan(2)


def test_tree_counts_equal_closure_counts():
    # the one tree pass against one mutation closure, on every Markov
    # number up to 10^12 and on no other rank
    tree = rank_counts(10**12)
    assert list(tree) == markov_numbers(10**12)
    assert closure_counts(10**12) == tree
    # and against count_c, whose closure stops at m itself
    for m in (m for m in tree if m <= 10**4):
        assert count_c(m) == tree[m], m


def test_rank_counts_groups_triples_by_largest_entry(monkeypatch):
    # a second triple with largest entry 5, as a counterexample to
    # uniqueness would add, doubles the count of 5
    import nccount.markov as mk

    fake = [(1, 1, 1), (1, 1, 2), (1, 2, 5), (2, 2, 5), (1, 5, 13)]
    monkeypatch.setattr(mk, "markov_triples", lambda limit: fake)
    assert rank_counts(13) == {1: 1, 2: 1, 5: 4, 13: 2}
    assert tyurin_scan(13) == [(5, 4, False), (13, 2, True)]


def test_tyurin_scan_to_a_googol():
    rows = tyurin_scan(10**100)
    assert len(rows) == 9668
    assert all(ok and cnt == 2 for _, cnt, ok in rows)
    assert [m for m, _, _ in rows] == sorted(m for m, _, _ in rows)
    assert rows[-1][0] < 10**100 < 3 * rows[-1][0] ** 2


def test_zagier_estimate():
    # the estimate the size caps use tracks the true number of triples
    for bound in (10**6, 10**20, 10**40, 10**100):
        assert abs(estimated_triples(bound) - len(markov_triples(bound))) <= 5
