from collections import deque
from fractions import Fraction
from math import gcd

import pytest

from nccount.markov import (
    SEED,
    ChernPair,
    chern_pair,
    count_c,
    euler_chi,
    exc_triple,
    exceptional_slopes,
    generate_triples,
    markov_numbers,
    mutate,
    normalized_slope,
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


def test_generation_is_confluent():
    # a breadth-first closure written out here reaches the same triples, and
    # so the same slopes, as the depth-first one of generate_triples
    import nccount.markov as mk

    for max_rank in (80, 200):
        start = mk._canonical_triple(SEED)
        seen, queue = {start}, deque([start])
        while queue:
            cur = queue.popleft()
            for move in ("left-12", "left-23", "right-12", "right-23"):
                img = mk._canonical_triple(mutate(cur, move))
                if img not in seen and max(img.ranks()) <= max_rank:
                    seen.add(img)
                    queue.append(img)
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
