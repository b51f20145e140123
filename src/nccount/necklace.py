"""Rotation classes of vertex subsets of a regular polygon.

This is the independent geometric oracle for the Serre-orbit counts: the
s-subsets of Z/m up to rotation are counted both by a Burnside divisor sum
and by a streaming enumeration that emits one necklace per class, and the
two must agree; the enumeration is refused up front past the brute-force
cap, arith.MAX_ENUMERATION.  Reflections are never quotiented out.
"""

import sys
from math import comb, gcd, log
from typing import NamedTuple

from .arith import check_enumeration, divisors, euler_phi


class Subgon(NamedTuple):
    """A subset of the vertices 0..m-1 of a regular m-gon."""

    m: int
    vertices: tuple  # sorted residues

    def rotate(self, t: int) -> "Subgon":
        return Subgon(self.m, tuple(sorted((v + t) % self.m for v in self.vertices)))

    def canonical(self) -> "Subgon":
        """Lexicographically minimal rotation."""
        best = min(self.rotate(t).vertices for t in range(self.m))
        return Subgon(self.m, best)


def subgon(m: int, vertices) -> Subgon:
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    verts = tuple(sorted(int(v) % m for v in vertices))
    if not verts:
        raise ValueError("need a non-empty vertex set")
    if len(set(verts)) != len(verts):
        raise ValueError(f"repeated residues in {vertices}")
    return Subgon(m, verts)


def check_printable(m: int, s: int) -> None:
    """Refuse up front a count with more digits than Python converts to a
    string (sys.get_int_max_str_digits(), 4300 by default).

    The count is at least C(m, s)/m, the d = 1 term of the Burnside sum.
    With k = min(s, m - s), ln C(m, k) is summed as ln((m - k + i)/i) over
    i = 1..k.  Each term is at least ln 2, so the sum passes the limit
    within 3.33 terms per digit plus log2(m).  Logs of the ints themselves
    stay accurate where a difference of lgamma values loses its units (m
    past about 10^14) or overflows (m past 10^308).
    """
    # Python before 3.10.7 prints ints of any length
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return
    k, ln = min(s, m - s), -log(m)
    for i in range(1, k + 1):
        ln += log(m - k + i) - log(i)
        if ln >= limit * log(10):
            raise ValueError(
                f"refusing to count C({m}, {s})/{m} necklaces: the count has "
                f"more than {limit} digits, past the limit for printing an int"
            )


def count_subgon_classes_burnside(m: int, s: int) -> int:
    """(1/m) * sum over d | gcd(m,s) of phi(d) * C(m/d, s/d).

    A count too long to print is refused before the sum (check_printable).
    """
    if not 1 <= s <= m:
        raise ValueError(f"need 1 <= s <= m, got s={s}, m={m}")
    check_printable(m, s)
    total = sum(euler_phi(d) * comb(m // d, s // d) for d in divisors(gcd(m, s)))
    assert total % m == 0
    return total // m


def gap_necklaces(m: int, s: int):
    """Yield one gap sequence per rotation class of s-subsets of Z/m.

    The subset v_0 < ... < v_{s-1} has the gaps v_{i+1} - v_i (the last one
    wrapping round past m), a composition of m into s positive parts, and
    rotating the subset rotates its gaps cyclically.  Each class is emitted
    as its lexicographically least gap sequence, by the FKM prenecklace
    recursion with the part sum pinned to m (cf. Ruskey & Sawada, "An
    efficient algorithm for generating necklaces with fixed density", SIAM
    J. Comput. 29, 1999).  Memory is O(s); nothing of size 2^m is built.
    """
    if not 1 <= s <= m:
        raise ValueError(f"need 1 <= s <= m, got s={s}, m={m}")
    a = [1] * (s + 1)  # a[1..s] are the parts; a[0] = 1 is the floor of a[1]

    def extend(t, p, total):
        # a[1..t-1] is a prenecklace with least period p and part sum total
        lo = a[t - p]
        if t == s:  # the last part is forced by the sum
            last = m - total
            if last >= lo and s % (p if last == lo else t) == 0:
                a[t] = last
                yield tuple(a[1:])
            return
        # every later part is at least a[1], the least part of a prenecklace
        hi = m // s if t == 1 else m - total - (s - t) * a[1]
        for j in range(lo, hi + 1):
            a[t] = j
            yield from extend(t + 1, p if j == lo else t, total + j)

    return extend(1, 1, 0)


def count_subgon_classes_brute(m: int, s: int) -> int:
    """Rotation classes of s-subsets by streaming fixed-density enumeration.

    A subset and its complement rotate together, so the k = min(s, m - s)
    subsets are enumerated: about C(m, k)/m classes of k gaps each.  More
    classes than the cap of arith.check_enumeration are refused up front,
    which keeps k <= 13 at the default cap.
    """
    if not 1 <= s <= m:
        raise ValueError(f"need 1 <= s <= m, got s={s}, m={m}")
    k = min(s, m - s)
    if k == 0:  # the whole vertex set is its own class
        return 1
    check_enumeration(comb(m, k) // m, f"C({m}, {s})/{m} necklaces")
    return sum(1 for _ in gap_necklaces(m, k))


def count_subgon_classes(m: int, s: int) -> int:
    """Number of s-subgons of a regular m-gon up to rotation.

    Computed independently by Burnside's lemma and by enumerating one
    necklace per class; a disagreement raises.
    """
    burnside = count_subgon_classes_burnside(m, s)
    brute = count_subgon_classes_brute(m, s)
    if burnside != brute:
        raise AssertionError(
            f"oracle mismatch for (m={m}, s={s}): burnside={burnside}, brute={brute}"
        )
    return burnside


def seq_to_subgon(seq) -> Subgon:
    """Bijection X_n^k -> (k+1)-subgons of the (n+2)-gon: a_t -> a_t + t,
    on a typea.MonotoneSeq.

    Conjugates the Serre step on sequences to rotation by one.
    """
    m = seq.n + 2
    return subgon(m, ((v + t) % m for t, v in enumerate(seq.values)))
