import sys

import networkx as nx
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from nccount import arith
from nccount.arith import (
    check_binomial, check_printable, closure, divisors, euler_phi, mobius, orbits,
    prime_factors,
)


def test_number_theory_matches_sympy():
    for x in range(1, 501):
        assert mobius(x) == sympy.mobius(x), x
        assert euler_phi(x) == sympy.totient(x), x
        assert divisors(x) == sympy.divisors(x), x
    with pytest.raises(ValueError, match="divisors: need x >= 1, got 0"):
        divisors(0)
    with pytest.raises(ValueError, match="prime_factors: need x >= 1, got 0"):
        prime_factors(0)


@st.composite
def _move_tables(draw):
    n = draw(st.integers(1, 12))
    item = st.integers(0, n - 1)
    tables = draw(st.lists(st.lists(item, min_size=n, max_size=n), max_size=3))
    seeds = draw(st.lists(item, min_size=1, max_size=4))
    return n, tables, seeds, draw(st.sets(item))


@settings(max_examples=200, deadline=None)
@given(_move_tables())
def test_closure_matches_networkx(drawn):
    # the items networkx reaches from the seeds along the moves into kept
    # items, each listed once: the seeds first, then breadth first, each
    # item after the item that first reached it and in the order of those
    # first reaches, (listed item, move) taken in order
    n, tables, seeds, kept = drawn
    got = closure(seeds, *(t.__getitem__ for t in tables), keep=kept.__contains__)
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from((x, t[x]) for t in tables for x in range(n) if t[x] in kept)
    want = set(seeds).union(*(nx.descendants(g, s) for s in seeds))
    assert sorted(got) == sorted(want)  # no item twice
    firsts = list(dict.fromkeys(seeds))
    assert got[:len(firsts)] == firsts

    def first_reach(y):
        return min((i, j) for i, x in enumerate(got) for j, t in enumerate(tables)
                   if t[x] == y)

    reach = [first_reach(y) for y in got[len(firsts):]]
    assert reach == sorted(reach)
    assert all(i < k for k, (i, _) in enumerate(reach, len(firsts)))


def test_closure_keeps_every_image_by_default():
    assert closure([0], lambda x: (x + 2) % 5) == [0, 2, 4, 1, 3]
    assert closure([3, 1, 3]) == [3, 1]
    assert closure([]) == []


@st.composite
def _permutations(draw):
    n = draw(st.integers(1, 12))
    gens = draw(st.lists(st.permutations(range(n)), min_size=0, max_size=3))
    return n, gens


@settings(max_examples=200, deadline=None)
@given(_permutations(), st.randoms(use_true_random=False))
def test_orbits_match_sympy(drawn, rnd):
    n, gens = drawn
    items = list(range(n))
    rnd.shuffle(items)
    parts = orbits(items, *(g.__getitem__ for g in gens))
    if gens:
        expected = PermutationGroup([Permutation(g) for g in gens]).orbits()
    else:
        expected = [{i} for i in items]
    assert sorted(map(frozenset, parts), key=min) == sorted(
        map(frozenset, expected), key=min
    )
    assert sum(len(orb) for orb in parts) == n  # no item twice
    # each orbit starts at its first member in items, in that order
    firsts = [next(i for i in items if i in orb) for orb in parts]
    assert [orb[0] for orb in parts] == firsts
    assert firsts == sorted(firsts, key=items.index)


def test_orbits_without_steps_are_singletons():
    assert orbits("cab") == [["c"], ["a"], ["b"]]
    assert orbits([]) == []


def test_check_printable_is_exact_and_refuses_up_front():
    limit = arith.MAX_DIGITS
    # C(4, 2)/4 is far from the limit, so the count itself decides
    assert check_printable(4, 2, lambda: 10**limit - 1, "x") == 10**limit - 1
    with pytest.raises(ValueError, match=f"count x: the count has more than {limit} "):
        check_printable(4, 2, lambda: 10**limit, "x")

    # C(10^6, 5 * 10^5)/10^6 is far past it, so the count is never computed
    def never():
        raise AssertionError("computed")

    with pytest.raises(ValueError, match=f"more than {limit} digits"):
        check_printable(10**6, 5 * 10**5, never, "x")


@pytest.mark.parametrize("off", ["set to 0", "before 3.10.7", "set to 640"])
def test_check_printable_counts_without_a_digit_limit(monkeypatch, off):
    # sys.set_int_max_str_digits(0) lifts the interpreter's limit, and Python
    # before 3.10.7 has none: arith.MAX_DIGITS holds all the same, while a
    # lower limit is honoured
    if off == "before 3.10.7":
        monkeypatch.delattr(sys, "get_int_max_str_digits")
    else:
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: int(off.split()[-1]))
    limit = 640 if off == "set to 640" else arith.MAX_DIGITS
    with pytest.raises(ValueError, match=f"more than {limit} digits"):
        check_printable(10**6, 5 * 10**5, lambda: 10**50_000, "x")
    assert check_printable(4, 2, lambda: 10**limit - 1, "x") == 10**limit - 1
    with pytest.raises(ValueError, match=f"more than {limit} digits"):
        check_printable(4, 2, lambda: 10**limit, "x")


def test_check_binomial_at_the_cap_and_past_the_digit_limit(monkeypatch):
    # exact on both sides of the cap: C(10, 5) = 252 sets, 252 // 10 = 25 classes
    for cap, per, size in ((252, 1, 252), (25, 10, 25)):
        monkeypatch.setattr(arith, "MAX_ENUMERATION", cap)
        check_binomial(10, 5, "x", per)
        monkeypatch.setattr(arith, "MAX_ENUMERATION", cap - 1)
        with pytest.raises(ValueError, match=f"enumerate x = {size}; the brute-force"):
            check_binomial(10, 5, "x", per)
    # a binomial of millions of digits is refused without being multiplied out
    with pytest.raises(ValueError, match="count C\\(10000001, 5000001\\) sequences: the"):
        check_binomial(10_000_001, 5_000_001, "C(10000001, 5000001) sequences")
