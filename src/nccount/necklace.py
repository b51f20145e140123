"""Rotation classes of vertex subsets of a regular polygon.

This is the independent geometric oracle for the Serre-orbit counts: the
s-subsets of Z/m up to rotation are counted both by a Burnside divisor sum
and by a streaming enumeration that emits one necklace per class, and the
two must agree; the enumeration is refused up front past the brute-force
cap, arith.MAX_ENUMERATION.  Reflections are never quotiented out.

seq_to_subgon conjugates the Serre step on the sequences of X_n^k to a
rotation, so the same stream is the one enumeration of the Serre orbits on
X_n^k.  class_sizes alone picks the side of a subset to stream, and typea
reads the orbit sizes off it, and its orbits off gap_necklaces.
"""

from math import comb, gcd
from typing import NamedTuple

from . import check_oracle
from .arith import check_binomial, check_int, check_printable, divisors, euler_phi


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
    verts = tuple(sorted(check_int(v, "vertex") % m for v in vertices))
    if not verts:
        raise ValueError("need a non-empty vertex set")
    if len(set(verts)) != len(verts):
        raise ValueError(f"repeated residues in {vertices}")
    return Subgon(m, verts)


def count_subgon_classes_burnside(m: int, s: int) -> int:
    """(1/m) * sum over d | gcd(m,s) of phi(d) * C(m/d, s/d).

    s = m is one class, answered before the sum would factor m; otherwise
    gcd(m, s) <= min(s, m - s), bounded by arith.check_printable first.
    """
    if not 1 <= s <= m:
        raise ValueError(f"need 1 <= s <= m, got s={s}, m={m}")
    if s == m:
        return 1

    def count():
        total = sum(euler_phi(d) * comb(m // d, s // d) for d in divisors(gcd(m, s)))
        assert total % m == 0
        return total // m

    return check_printable(m, s, count, f"C({m}, {s})/{m} necklaces")


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
    return (g for g, _ in _periodic_necklaces(m, s))


def _periodic_necklaces(m: int, s: int):
    """gap_necklaces(m, s), each g with its least period p (g[p:] + g[:p]
    == g), on an explicit stack of s levels, so that no s meets the
    interpreter's recursion limit.  Level t holds the part a[t], its cap
    top[t], and the least period and part sum of the prenecklace a[1..t]."""
    a = [1] * (s + 1)  # a[1..s] are the parts; a[0] = 1 is the floor of a[1]
    per, total, top = [1] * (s + 1), [0] * (s + 1), [0] * (s + 1)
    t = 1
    while True:
        lo = a[t - per[t - 1]]
        if t == s:  # the last part is forced by the sum
            last = m - total[t - 1]
            p = per[t - 1] if last == lo else t
            if last >= lo and s % p == 0:
                a[t] = last
                yield tuple(a[1:]), p
        else:
            # every later part is at least a[1], the least part of a prenecklace
            top[t] = m // s if t == 1 else m - total[t - 1] - (s - t) * a[1]
            if lo <= top[t]:
                a[t], per[t], total[t] = lo, per[t - 1], total[t - 1] + lo
                t += 1
                continue
        # back up to the deepest level whose part can still grow
        t -= 1
        while t and a[t] == top[t]:
            t -= 1
        if not t:
            return
        a[t] += 1
        per[t], total[t] = t, total[t - 1] + a[t]
        t += 1


def class_sizes(m: int, s: int):
    """Stream the size of each rotation class of s-subsets of Z/m, 0 <= s <= m.

    A subset and its complement rotate together, so the side of
    k = min(s, m - s) parts is streamed: a necklace of least period p in
    _periodic_necklaces(m, k) is a class of m*p/k.  At k = 0 the one subset
    is one class of size 1, read off no stream.
    """
    if not 0 <= s <= m:
        raise ValueError(f"need 0 <= s <= m, got s={s}, m={m}")
    k = min(s, m - s)
    if k == 0:
        return iter([1])
    return (m * p // k for _, p in _periodic_necklaces(m, k))


def count_subgon_classes_brute(m: int, s: int) -> int:
    """Rotation classes of s-subsets, counted off class_sizes: about
    C(m, s)/m of them.  More than the cap of arith.check_enumeration are
    refused up front, which keeps min(s, m - s) <= 13 at the default cap."""
    if not 1 <= s <= m:
        raise ValueError(f"need 1 <= s <= m, got s={s}, m={m}")
    check_binomial(m, s, f"C({m}, {s})/{m} necklaces", m)
    return sum(1 for _ in class_sizes(m, s))


def count_subgon_classes(m: int, s: int) -> int:
    """Number of s-subgons of a regular m-gon up to rotation.

    Computed independently by Burnside's lemma and by enumerating one
    necklace per class; a disagreement raises VerifyFailed.
    """
    burnside = count_subgon_classes_burnside(m, s)
    check_oracle("necklace count", burnside, count_subgon_classes_brute(m, s))
    return burnside


def seq_to_subgon(seq) -> Subgon:
    """Bijection X_n^k -> (k+1)-subgons of the (n+2)-gon: a_t -> a_t + t,
    on a typea.MonotoneSeq.

    Conjugates the Serre step on sequences to rotation by one.
    """
    m = seq.n + 2
    return subgon(m, ((v + t) % m for t, v in enumerate(seq.values)))


def _cmd_necklace_count(args):
    """The CLI handler of `necklace count`."""
    count = count_subgon_classes if args.verify else count_subgon_classes_burnside
    return {"count": str(count(args.m, args.s))}
