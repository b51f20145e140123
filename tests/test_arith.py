import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from nccount.arith import cycles, divisors, euler_phi, mobius, orbits


def test_number_theory_matches_sympy():
    for x in range(1, 501):
        assert mobius(x) == sympy.mobius(x), x
        assert euler_phi(x) == sympy.totient(x), x
        assert divisors(x) == sympy.divisors(x), x


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


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12).map(range).flatmap(st.permutations),
       st.randoms(use_true_random=False))
def test_cycles_match_orbits(perm, rnd):
    # the streamed cycle walk against the orbit helper for one generator,
    # with a dense rank that is not the item itself
    items = list(range(len(perm)))
    rnd.shuffle(items)
    code = {x: f"x{x}" for x in items}
    rank = {c: x for x, c in code.items()}.__getitem__
    walked = cycles(((x, code[x]) for x in items), lambda c: code[perm[rank(c)]],
                    rank, len(items))
    assert [[rank(c) for c in cyc] for cyc in walked] == orbits(
        items, perm.__getitem__
    )


def test_orbits_without_steps_are_singletons():
    assert orbits("cab") == [["c"], ["a"], ["b"]]
    assert orbits([]) == []
