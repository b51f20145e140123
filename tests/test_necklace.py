import sys
from itertools import accumulate, combinations
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nccount.necklace import (
    Subgon,
    check_printable,
    count_subgon_classes,
    count_subgon_classes_brute,
    count_subgon_classes_burnside,
    gap_necklaces,
    seq_to_subgon,
    subgon,
)
from nccount import arith
from nccount.arith import divisors, euler_phi
from nccount.typea import enum_seqs, monotone_seq, serre_step


def test_anchor_values():
    assert count_subgon_classes(6, 3) == 4
    assert count_subgon_classes(7, 4) == 5
    assert count_subgon_classes(6, 2) == 3
    for m in range(1, 10):
        assert count_subgon_classes(m, m) == 1


def test_bad_arguments():
    with pytest.raises(ValueError):
        count_subgon_classes(5, 0)
    with pytest.raises(ValueError):
        count_subgon_classes(5, 6)
    with pytest.raises(ValueError):
        subgon(6, [1, 7])  # 7 == 1 mod 6
    with pytest.raises(ValueError):
        subgon(0, [1])


def test_canonical_form():
    g = subgon(6, [5, 0, 2])
    assert g.vertices == (0, 2, 5)
    assert g.canonical().vertices == (0, 1, 3)


def test_burnside_equals_brute_small_slow_path():
    # cross-check of the necklace enumeration against canonical forms
    for m in range(1, 9):
        for s in range(1, m + 1):
            classes = {subgon(m, c).canonical() for c in combinations(range(m), s)}
            assert len(classes) == count_subgon_classes_brute(m, s), (m, s)
            assert len(classes) == count_subgon_classes_burnside(m, s), (m, s)


@st.composite
def _m_and_s(draw):
    m = draw(st.integers(1, 14))
    return m, draw(st.integers(1, m))


@settings(deadline=None, max_examples=60)
@given(_m_and_s())
def test_gap_necklaces_one_per_rotation_class(ms):
    m, s = ms
    classes = {subgon(m, c).canonical() for c in combinations(range(m), s)}
    emitted = list(gap_necklaces(m, s))
    # a gap sequence (g_0, ..., g_{s-1}) is the subset of its partial sums
    assert {subgon(m, accumulate(g[:-1], initial=0)).canonical()
            for g in emitted} == classes
    assert len(emitted) == len(classes) == count_subgon_classes_burnside(m, s)
    assert all(sum(g) == m and g == min(g[i:] + g[:i] for i in range(s))
               for g in emitted)


def test_brute_cap(monkeypatch):
    with pytest.raises(ValueError, match=r"C\(40, 20\)/40 necklaces = 3446163220;"):
        count_subgon_classes(40, 20)
    # the largest oracle at m <= 24 fits the cap, and m = 25 is no longer refused
    assert count_subgon_classes(24, 12) == 112720
    assert count_subgon_classes(25, 3) == 92
    # the cap is read when the oracle runs
    monkeypatch.setattr(arith, "MAX_ENUMERATION", 91)
    with pytest.raises(ValueError, match=r"C\(25, 3\)/25 necklaces = 92;"):
        count_subgon_classes(25, 3)
    # s and m - s are the same oracle, so s = m - 3 is refused alike
    with pytest.raises(ValueError, match=r"C\(25, 22\)/25 necklaces = 92;"):
        count_subgon_classes(25, 22)


@pytest.mark.parametrize(
    "m, s", [(14300, 7150), (14306, 7153), (14400, 7200), (10**13, 398), (10**13, 400),
             (10**4000, 2), (10**4000, 3), (10**6, 1), (10**6, 10**6)],
)
def test_check_printable_at_the_digit_limit(m, s):
    # refused exactly when the Burnside sum, taken here without the check,
    # has more digits than Python prints
    limit = sys.get_int_max_str_digits()
    total = sum(euler_phi(d) * comb(m // d, s // d) for d in divisors(gcd(m, s)))
    if total // m >= 10**limit:
        with pytest.raises(ValueError, match=f"more than {limit} digits"):
            count_subgon_classes_burnside(m, s)
    else:
        check_printable(m, s)
        assert count_subgon_classes_burnside(m, s) == total // m
        assert len(str(total // m)) <= limit


def test_seq_to_subgon_zero_seq():
    seq = monotone_seq(2, 2, (0, 0, 0))
    assert seq_to_subgon(seq) == Subgon(4, (0, 1, 2))


def test_seq_to_subgon_bijective():
    from math import comb

    for n in range(1, 9):
        for k in range(1, n + 1):
            images = {seq_to_subgon(s) for s in enum_seqs(n, k)}
            assert len(images) == comb(n + 2, k + 1)
            assert all(len(g.vertices) == k + 1 for g in images)


def test_seq_to_subgon_conjugates_serre_to_rotation():
    for n in range(1, 9):
        for k in range(1, n + 1):
            for seq in enum_seqs(n, k):
                assert seq_to_subgon(serre_step(seq)) == seq_to_subgon(seq).rotate(1)
