"""Subcategory calculus for the derived category of an A-type quiver.

Public counting functions are phrased in N = number of quiver vertices, so
they concern D^b(A_N).  The combinatorial engine uses the internal parameter
n = N - 1 throughout: its ambient category has n+1 vertices, its exceptional
objects are the intervals s_{i,j} with 0 <= i <= j <= n, and the
A_{k+1}-type subcategories are parametrized by weakly increasing integer
sequences of length k+1 bounded by delta = n+1-k.

The generator of all group actions here is the Serre functor; its orbit
counts coincide with counts modulo the entire autoequivalence group.
"""

from itertools import chain, combinations_with_replacement, count
from math import comb, gcd
from operator import getitem
from typing import NamedTuple

from .arith import check_enumeration, cycles, divisors, mobius, orbits
# the interval objects and their Euler form live in a leaf module, which
# graph calls load without the counting below; they stay importable here
from .interval import Interval, enum_points, euler, interval_dim, interval_mask


class MonotoneSeq(NamedTuple):
    """Element of X_n^k: 0 <= a_0 <= ... <= a_k <= n+1-k."""

    n: int
    k: int
    values: tuple

    @property
    def bound(self) -> int:
        """delta = n+1-k, the common upper bound of the entries."""
        return self.n + 1 - self.k


class GenSetA(NamedTuple):
    """Normalized generator list of an A-type subcategory."""

    generators: tuple

    def __str__(self):
        return "<" + ",".join(str(g) for g in self.generators) + ">"


def monotone_seq(n: int, k: int, values) -> MonotoneSeq:
    vals = tuple(int(v) for v in values)
    if k < 1 or len(vals) != k + 1:
        raise ValueError(f"need k >= 1 and k+1 values, got k={k}, {vals}")
    bound = n + 1 - k
    if bound < 0:
        raise ValueError(f"no sequences exist for k={k}, n={n}")
    if any(vals[t] > vals[t + 1] for t in range(k)):
        raise ValueError(f"values not weakly increasing: {vals}")
    if vals[0] < 0 or vals[-1] > bound:
        raise ValueError(f"values outside [0, {bound}]: {vals}")
    return MonotoneSeq(n, k, vals)


def seq_values(n: int, k: int):
    """Stream the value tuples of X_n^k in lexicographic order.

    These are the weakly increasing (k+1)-tuples over 0..n+1-k, C(n+2, k+1)
    of them; a larger set than arith.MAX_ENUMERATION is refused up front.
    """
    check_enumeration(comb(n + 2, k + 1), f"C({n + 2}, {k + 1}) sequences")
    return combinations_with_replacement(range(n + 2 - k), k + 1)


def enum_seqs(n: int, k: int) -> list:
    """The set X_n^k in lexicographic order; C(n+2, k+1) elements."""
    return [MonotoneSeq(n, k, a) for a in seq_values(n, k)]


def seq_to_subcategory(seq: MonotoneSeq) -> GenSetA:
    """Staircase generator list of the subcategory encoded by seq.

    Generator t (0-based, t = 0..k-1) is the interval
    s_{a_t + t, a_{t+1} + t}; the assignment is injective on X_n^k.
    """
    a = seq.values
    gens = tuple(Interval(a[t] + t, a[t + 1] + t) for t in range(seq.k))
    return GenSetA(gens)


def check_k_vertices(k: int, vertices: int) -> None:
    """Reject (k, N) outside the domain of the A_k-in-D^b(A_N) counts."""
    if k < 1 or vertices < 1:
        raise ValueError("need k >= 1 and vertices >= 1")


def count_id(k: int, vertices: int) -> int:
    """Number of A_k-type subcategories of D^b(A_N), N = vertices.

    Equals C(N+1, k+1); zero when k > N, one when k = N.
    """
    check_k_vertices(k, vertices)
    return comb(vertices + 1, k + 1)


def _serre_values(a: tuple, bound: int) -> tuple:
    """The Serre step on the value tuple of a sequence bounded by bound."""
    if a[-1] < bound:
        return tuple([v + 1 for v in a])
    return (0,) + a[:-1]


def serre_step(seq: MonotoneSeq) -> MonotoneSeq:
    """One application of the Serre functor on X_n^k."""
    return MonotoneSeq(seq.n, seq.k, _serre_values(seq.values, seq.bound))


def _seq_rank(k: int, bound: int):
    """The lexicographic rank of a value tuple of X_n^k, bound = n+1-k: its
    index in seq_values(n, k).

    A sequence b after a first exceeds it at some position t.  For each t,
    those b share a_0..a_{t-1} and have a_t < b_t <= bound, and they number
    C(bound - a_t + k - t, k + 1 - t).  The rank is the size
    C(bound + k + 1, k + 1) less one and less the sum of these counts.
    """
    after = [
        [comb(bound - v + k - t, k + 1 - t) for v in range(bound + 1)]
        for t in range(k + 1)
    ]
    last = comb(bound + k + 1, k + 1) - 1
    return lambda a: last - sum(map(getitem, after, a))


def seq_orbits(n: int, k: int):
    """Stream the Serre orbits on the value tuples of X_n^k, in the order of
    their lexicographically least members, each a list starting there.

    Visited sequences are marked by their rank in C(n+2, k+1) bytes.
    """
    bound = n + 1 - k
    return cycles(
        enumerate(seq_values(n, k)),
        lambda a: _serre_values(a, bound),
        _seq_rank(k, bound),
        comb(n + 2, k + 1),
    )


def orbit_partition(n: int, k: int):
    """Stream the Serre orbits on X_n^k, each a list of sequences starting at
    its lexicographically least member."""
    return ([MonotoneSeq(n, k, a) for a in orb] for orb in seq_orbits(n, k))


def count_id_brute(k: int, vertices: int) -> int:
    """Size of X_{N-1}^k, counted off the stream without storing it."""
    check_k_vertices(k, vertices)
    return sum(1 for _ in seq_values(vertices - 1, k))


def count_orbits_brute(k: int, vertices: int) -> int:
    """Serre-orbit count on X_{N-1}^k, counted off the streamed orbits with
    at most C(N+1, k+1) bytes of marks."""
    check_k_vertices(k, vertices)
    return sum(1 for _ in seq_orbits(vertices - 1, k))


def divisors_of_kn(k: int, n: int) -> list:
    """Divisors of the pair (k, n): the d with 1 <= d <= k+1, d | k+1 and
    (k+1) | d(n+2).  Always contains k+1."""
    if not 1 <= k < n + 1:
        raise ValueError(f"need 1 <= k < n+1, got k={k}, n={n}")
    return [
        d
        for d in range(1, k + 2)
        if (k + 1) % d == 0 and (d * (n + 2)) % (k + 1) == 0
    ]


def is_d_additive(seq: MonotoneSeq, d: int) -> bool:
    """Whether seq satisfies the d-step additivity law.

    For the improper divisor d = k+1 the condition degenerates to a(0) = 0;
    for a proper divisor it pins a(d) = d*delta/(k+1) and forces
    a(j + i*d) = a(j) + i*a(d) wherever defined.
    """
    n, k, a = seq.n, seq.k, seq.values
    if d not in divisors_of_kn(k, n):
        raise ValueError(f"{d} is not a divisor of ({k},{n})")
    if d == k + 1:
        return a[0] == 0
    if a[d] * (k + 1) != d * seq.bound:
        return False
    for j in range(k + 1):
        i = 1
        while j + i * d <= k:
            if a[j + i * d] != a[j] + i * a[d]:
                return False
            i += 1
    return True


def period(seq: MonotoneSeq) -> int:
    """Least divisor d of (k, n) for which seq is d-additive.

    Defined only for sequences with vanishing leading entry; the Serre orbit
    of such a sequence has exactly d(n+2)/(k+1) elements.
    """
    if seq.values[0] != 0:
        raise ValueError("period needs a(0) = 0")
    for d in divisors_of_kn(seq.k, seq.n):
        if is_d_additive(seq, d):
            return d
    raise AssertionError("k+1 is always a divisor; unreachable")


def count_d_additive(n: int, k: int, d: int) -> int:
    """Closed-form size of the d-additive subset: C(d(n+2)/(k+1)-1, d-1)."""
    if d not in divisors_of_kn(k, n):
        raise ValueError(f"{d} is not a divisor of ({k},{n})")
    return comb(d * (n + 2) // (k + 1) - 1, d - 1)


def count_orbits_formula(k: int, vertices: int) -> int:
    """Serre-orbit count on X_{N-1}^k via the Moebius divisor sum.

    With D = gcd(k+1, N+1) the count is
        sum over divisor pairs y | x | D with mu(x/y) != 0 of
        D*mu(x/y) / ((k+1)*x) * C(y(N+1)/D - 1, y(k+1)/D - 1).
    Agrees with count_orbits_brute everywhere; equals 1 at k = N and 0 for
    k > N.
    """
    check_k_vertices(k, vertices)
    if k > vertices:
        return 0
    m = vertices + 1  # = n+2 in internal indexing
    d_big = gcd(k + 1, m)
    # the sum times (k+1)*D, in integers: x divides D, so every term's
    # denominator (k+1)*x divides the scale
    scale = (k + 1) * d_big
    total = 0
    for x in divisors(d_big):
        for y in divisors(x):
            mu = mobius(x // y)
            if mu == 0:
                continue
            total += d_big * mu * (d_big // x) * comb(
                y * m // d_big - 1, y * (k + 1) // d_big - 1
            )
    orbit_count, rest = divmod(total, scale)
    if rest:
        raise AssertionError(f"non-integral orbit count {total}/{scale}")
    return orbit_count


# ---------------------------------------------------------------------------
# noncommutative curves (genus -1 and 0) in the A-type category
# ---------------------------------------------------------------------------


def count_genus(genus: int, vertices: int, group: str = "id") -> int:
    """|C_genus(D^b(A_N))| for genus in {-1, 0}, modulo nothing ("id") or
    modulo all autoequivalences ("full").  Positive genus gives 0."""
    if vertices < 1:
        raise ValueError("need vertices >= 1")
    if group not in ("id", "full"):
        raise ValueError(f"unknown group {group!r}")
    if genus >= 1:
        return 0
    n = vertices - 1
    if genus == 0:
        if group == "id":
            return comb(n + 2, 3)
        if (n - 1) % 3 != 0:
            return (n + 1) * n // 6
        return ((n + 1) * n + 4) // 6
    if genus == -1:
        if group == "id":
            return 2 * comb(n + 2, 4)
        if n % 2 == 1:
            return (n - 1) * n * (n + 1) // 12
        return n * (n * n + 2) // 12
    raise ValueError(f"unsupported genus {genus}")


def enum_genus_minus1(n: int) -> list:
    """All genus -1 subcategories of the ambient category with n+1 vertices,
    as sorted orthogonal interval pairs; 2*C(n+2, 4) of them.  The tests
    check exceptional_pairs(n, 0) against this enumeration.

    The two shapes are separated intervals with a gap of at least two
    (b < i-1) and strictly nested intervals (a < i <= j < b).
    """
    if n < 0:
        raise ValueError("need n >= 0")
    out = []
    for a in range(n + 1):
        for b in range(a, n + 1):
            for i in range(b + 2, n + 1):
                for j in range(i, n + 1):
                    out.append(GenSetA((Interval(a, b), Interval(i, j))))
    for a in range(n + 1):
        for b in range(a + 2, n + 1):
            for i in range(a + 1, b):
                for j in range(i, b):
                    out.append(GenSetA((Interval(a, b), Interval(i, j))))
    return sorted(out)


def serre_on_point(i: int, j: int, n: int):
    """Serre image of the interval object s_{i,j}: a new interval plus a
    flag recording whether a shift [1] was picked up."""
    if not 0 <= i <= j <= n:
        raise ValueError(f"interval ({i},{j}) outside 0..{n}")
    if j < n:
        return Interval(i + 1, j + 1), True
    return Interval(0, i), False


def exceptional_pairs(n: int, hom: int):
    """Stream the codes x*P + y of the exceptional pairs (s_x, s_y) of
    interval objects with total hom dimension hom from s_x to s_y, in
    increasing order, one row x at a time.

    x and y index enum_points(n), P = len(enum_points(n)).  Each object is
    its interval_mask, and (s_x, s_y) is exceptional iff euler(y, x) = 0;
    the scan evaluates euler with the shifts of x hoisted out of the loop
    over y.  An orthogonal pair (hom = 0) is unordered and listed once,
    with x < y.  A curve of genus g is generated by such a pair with
    hom = g + 1; between interval objects the total hom is at most 1, so
    the stream is empty for hom >= 2.  The size check runs on the call, the
    scan as the codes are read.
    """
    p = (n + 1) * (n + 2) // 2
    check_enumeration(p * p, f"{p}^2 point pairs")
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


def pair_orbits(n: int, hom: int):
    """Stream the Serre orbits on the codes of exceptional_pairs(n, hom).

    A code is its own rank, so visited pairs are marked in P^2 bytes.
    """
    codes = exceptional_pairs(n, hom)
    points = enum_points(n)
    p = len(points)
    index = {iv: t for t, iv in enumerate(points)}
    perm = [index[serre_on_point(i, j, n)[0]] for i, j in points]

    def step(code):
        x, y = divmod(code, p)
        x, y = perm[x], perm[y]
        return y * p + x if hom == 0 and y < x else x * p + y

    return cycles(((c, c) for c in codes), step, int, p * p)


def genus_minus1_orbits(n: int) -> list:
    """Serre orbits on the genus -1 subcategories, as orbits of the codes of
    their orthogonal generator pairs."""
    return list(pair_orbits(n, 0))


def point_orbits(n: int) -> list:
    """Serre orbits on the interval objects themselves."""
    return orbits(enum_points(n), lambda iv: serre_on_point(iv.i, iv.j, n)[0])
