"""Subcategory calculus for the derived category of an A-type quiver.

Public counting functions are phrased in N = number of quiver vertices, so
they concern D^b(A_N).  The combinatorial engine uses the internal parameter
n = N - 1 throughout: its ambient category has n+1 vertices, its exceptional
objects are the intervals s_{i,j} with 0 <= i <= j <= n, and the
A_{k+1}-type subcategories are parametrized by weakly increasing integer
sequences of length k+1 bounded by delta = n+1-k.

The generator of all group actions here is the Serre functor; its orbit
counts coincide with counts modulo the entire autoequivalence group.

The orbit formula is the paper's sequence calculus: Moebius inversion of
the d-additive counts over divisors_of_kn.  The brute-force oracles stream
and keep one orbit at a time.  The Serre orbits on X_n^k are the rotation
classes of (k+1)-subsets of the (n+2)-gon (necklace.seq_to_subgon): their
sizes are read off necklace.class_sizes, and summed by the identity
oracle, and each orbit is the serre_step closure of the least sequence of
one necklace of necklace.gap_necklaces.  The interval objects are X_n^1: the
sequence (i, j) is s_{i,j}, and the Serre functor rotates the chord
{i, j+1} of the same polygon.  So the genus -1 curves, pairs of
noncrossing chords, are counted off the 4-subset stream
(_genus_minus1_census), and the pairs with a total hom >= 1 are scanned
from the least point of each orbit of orbit_partition(n, 1) (_hom_census).
Both refuse up front what would pass arith.MAX_ENUMERATION: the C(n+2, k+1)
sequences, or the P^2 ordered pairs of the P points.  The CLI handlers of
the `an` counting commands live at the end of the module.
"""

from itertools import accumulate, combinations_with_replacement
from math import comb, gcd, lcm
from typing import NamedTuple

from . import GenSet, check_oracle
from .arith import check_binomial, check_enumeration, check_printable
from .arith import check_int, closure, divisors, mobius
from .interval import Interval, euler, interval_mask


class MonotoneSeq(NamedTuple):
    """Element of X_n^k: 0 <= a_0 <= ... <= a_k <= n+1-k."""

    n: int
    k: int
    values: tuple

    @property
    def bound(self) -> int:
        """delta = n+1-k, the common upper bound of the entries."""
        return self.n + 1 - self.k


def monotone_seq(n: int, k: int, values) -> MonotoneSeq:
    vals = tuple(check_int(v, "value") for v in values)
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


def enum_seqs(n: int, k: int) -> list:
    """The set X_n^k in lexicographic order: the weakly increasing
    (k+1)-tuples over 0..n+1-k, C(n+2, k+1) of them; a larger set than
    arith.MAX_ENUMERATION is refused up front."""
    check_binomial(n + 2, k + 1, f"C({n + 2}, {k + 1}) sequences")
    values = combinations_with_replacement(range(n + 2 - k), k + 1)
    return [MonotoneSeq(n, k, a) for a in values]


def seq_to_subcategory(seq: MonotoneSeq) -> GenSet:
    """Staircase generator list of the subcategory encoded by seq.

    Generator t (0-based, t = 0..k-1) is the interval
    s_{a_t + t, a_{t+1} + t}; the assignment is injective on X_n^k.
    """
    a = seq.values
    gens = tuple(Interval(a[t] + t, a[t + 1] + t) for t in range(seq.k))
    return GenSet(gens)


def check_k_vertices(k: int, vertices: int) -> None:
    """Reject (k, N) outside the domain of the A_k-in-D^b(A_N) counts."""
    if k < 1 or vertices < 1:
        raise ValueError("need k >= 1 and vertices >= 1")


def count_id(k: int, vertices: int) -> int:
    """Number of A_k-type subcategories of D^b(A_N), N = vertices.

    Equals C(N+1, k+1); zero when k > N, one when k = N; refused when too
    long to print (arith.check_printable).
    """
    check_k_vertices(k, vertices)
    m, s = vertices + 1, k + 1
    return check_printable(m, s, lambda: comb(m, s), f"C({m}, {s}) subcategories")


def serre_step(seq: MonotoneSeq) -> MonotoneSeq:
    """One application of the Serre functor on X_n^k."""
    a = seq.values
    image = tuple([v + 1 for v in a]) if a[-1] < seq.bound else (0,) + a[:-1]
    return MonotoneSeq(seq.n, seq.k, image)


def orbit_partition(n: int, k: int):
    """Stream the Serre orbits on X_n^k, one per gap necklace g of
    necklace.gap_necklaces(n+2, k+1), in its order.  Each starts at its
    lexicographically least member, the subset {0, g_0, g_0 + g_1, ...} of
    the (n+2)-gon read back as a_t = v_t - t, and is its closure under
    serre_step, which necklace.seq_to_subgon conjugates to rotation by one.
    The cap counts the C(n+2, k+1) sequences."""
    check_binomial(n + 2, k + 1, f"C({n + 2}, {k + 1}) sequences")
    if k + 1 > n + 2:
        return
    from .necklace import gap_necklaces

    for g in gap_necklaces(n + 2, k + 1):
        v = accumulate(g[:-1], initial=0)
        least = MonotoneSeq(n, k, tuple([w - t for t, w in enumerate(v)]))
        yield closure([least], serre_step)


def orbit_sizes(n: int, k: int):
    """Stream the sizes of the Serre orbits on X_n^k, the rotation classes
    of (k+1)-subsets of the (n+2)-gon, off necklace.class_sizes.  The cap
    counts the C(n+2, k+1) sequences; for k > n+1 there are none."""
    check_binomial(n + 2, k + 1, f"C({n + 2}, {k + 1}) sequences")
    if k + 1 > n + 2:
        return iter(())
    from .necklace import class_sizes

    return class_sizes(n + 2, k + 1)


def count_id_brute(k: int, vertices: int) -> int:
    """Size of X_{N-1}^k, the sum of orbit_sizes: the classes must cover all
    C(N+1, k+1) subsets."""
    check_k_vertices(k, vertices)
    return sum(orbit_sizes(vertices - 1, k))


def count_orbits_brute(k: int, vertices: int) -> int:
    """Serre-orbit count on X_{N-1}^k, counted off the necklace stream of
    orbit_sizes in O(min(k, N-k)) memory."""
    check_k_vertices(k, vertices)
    return sum(1 for _ in orbit_sizes(vertices - 1, k))


def divisors_of_kn(k: int, n: int) -> list:
    """Divisors of the pair (k, n): the d with 1 <= d <= k+1, d | k+1 and
    (k+1) | d(n+2), in increasing order.  Those are d = (k+1)/e for the
    divisors e of gcd(k+1, n+2).  Always contains k+1; at k = n+1, where
    X_n^k is the one sequence 0, every divisor of n+2."""
    if not 1 <= k <= n + 1:
        raise ValueError(f"need 1 <= k <= n+1, got k={k}, n={n}")
    return [(k + 1) // e for e in reversed(divisors(gcd(k + 1, n + 2)))]


def is_d_additive(seq: MonotoneSeq, d: int) -> bool:
    """Whether seq satisfies the d-step additivity law.

    For the improper divisor d = k+1 the condition degenerates to a(0) = 0;
    for a proper divisor it pins a(d) = d*delta/(k+1) and forces
    a(j + i*d) = a(j) + i*a(d) wherever defined, which the one-step law
    a(j + d) = a(j) + a(d) implies by induction on i.
    """
    n, k, a = seq.n, seq.k, seq.values
    if d not in divisors_of_kn(k, n):
        raise ValueError(f"{d} is not a divisor of ({k},{n})")
    if d == k + 1:
        return a[0] == 0
    if a[d] * (k + 1) != d * seq.bound:
        return False
    return all(a[j + d] == a[j] + a[d] for j in range(k + 1 - d))


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
    """Serre-orbit count on X_{N-1}^k by Moebius inversion, n = N-1.

    An orbit of period d holds exactly d sequences with a(0) = 0, and those
    whose period divides e are the count_d_additive(n, k, e) e-additive
    ones.  So, over d and e in divisors_of_kn(k, n), the count is
        sum over e of count_d_additive(n, k, e)
            * (sum over e | d of mu(d/e) * (k+1)/d), divided by k+1:
    the paper's sum over y | x | D = gcd(k+1, N+1), whose binomial
    C(y(N+1)/D - 1, y(k+1)/D - 1) is count_d_additive(n, k, y(k+1)/D).
    Agrees with count_orbits_brute everywhere; equals 1 at k = N and 0 for
    k > N, both answered before the sum, which would factor N+1.  Otherwise
    D <= min(k+1, N-k), bounded by arith.check_printable before the sum.
    """
    check_k_vertices(k, vertices)
    if k >= vertices:
        return int(k == vertices)
    m, n = vertices + 1, vertices - 1  # m = n+2

    def count():
        ds = divisors_of_kn(k, n)
        total = sum(
            count_d_additive(n, k, e)
            * sum(mobius(d // e) * ((k + 1) // d) for d in ds if d % e == 0)
            for e in ds
        )
        orbit_count, rest = divmod(total, k + 1)
        if rest:
            raise AssertionError(f"non-integral orbit count {total}/{k + 1}")
        return orbit_count

    return check_printable(m, k + 1, count, f"C({m}, {k + 1})/{m} Serre orbits")


# ---------------------------------------------------------------------------
# noncommutative curves (genus -1 and 0) in the A-type category
# ---------------------------------------------------------------------------


def count_genus(genus: int, vertices: int, group: str = "id") -> int:
    """|C_genus(D^b(A_N))| for genus in {-1, 0}, modulo nothing ("id") or
    modulo all autoequivalences ("full"); refused when too long to print
    (arith.check_printable).  Positive genus gives 0."""
    if vertices < 1:
        raise ValueError("need vertices >= 1")
    if group not in ("id", "full"):
        raise ValueError(f"unknown group {group!r}")
    if genus >= 1:
        return 0
    if genus not in (0, -1):
        raise ValueError(f"unsupported genus {genus}")
    n = vertices - 1

    def count():
        if genus == 0:
            if group == "id":
                return comb(n + 2, 3)
            if (n - 1) % 3 != 0:
                return (n + 1) * n // 6
            return ((n + 1) * n + 4) // 6
        if group == "id":
            return 2 * comb(n + 2, 4)
        if n % 2 == 1:
            return (n - 1) * n * (n + 1) // 12
        return n * (n * n + 2) // 12

    return check_printable(n + 2, 3 - genus, count, f"genus {genus} curves")


def enum_genus_minus1(n: int) -> list:
    """All genus -1 subcategories of the ambient category with n+1 vertices,
    as sorted orthogonal interval pairs; 2*C(n+2, 4) of them.  The tests
    check _genus_minus1_census against its Serre orbits.

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
                    out.append(GenSet((Interval(a, b), Interval(i, j))))
    for a in range(n + 1):
        for b in range(a + 2, n + 1):
            for i in range(a + 1, b):
                for j in range(i, b):
                    out.append(GenSet((Interval(a, b), Interval(i, j))))
    return sorted(out)


def _genus_minus1_census(n: int) -> tuple:
    """(pairs, Serre orbits) of the genus -1 curves, the orthogonal pairs of
    interval objects, read off the rotation classes of 4-subsets of the
    (n+2)-gon that orbit_sizes(n, 3) streams.

    s_{i,j} is the chord {i, j+1} of the (n+2)-gon and the Serre functor
    rotates it by one.  The orthogonal pairs are the pairs of noncrossing
    chords with four distinct endpoints: the two noncrossing matchings of
    each 4-subset.  A half turn fixes each matching and a quarter turn swaps
    them, so a class of size L holds 2L pairs in two orbits, or in one when
    it is a square (4L = n+2).  The size check is the stream's.
    """
    pairs = orbit_count = 0
    for size in orbit_sizes(n, 3):
        pairs += 2 * size
        orbit_count += 1 if 4 * size == n + 2 else 2
    return pairs, orbit_count


def _hom_census(n: int, hom: int) -> tuple:
    """(pairs, Serre orbits) of the exceptional pairs (s_x, s_y) of interval
    objects with total hom dimension hom >= 1 from s_x to s_y.

    The point orbits are the Serre orbits on X_n^1, orbit_partition(n, 1),
    each sequence (i, j) read as s_{i,j}.  Scans from the least point r of
    each orbit over every interval y, by interval.euler on their
    interval_masks: (r, y) is a pair iff euler(y, r) = 0, with
    |euler(r, y)| homs.  A hit stands for the |orb r| pairs (S^t r, S^t y).
    Their orbit of lcm(|orb r|, |orb y|) pairs starts at r lcm/|orb r|
    times, so the hit counts |orb r|/lcm of an orbit, summed in units of
    1/(n+2), which every orbit size divides.  The census is empty for
    hom >= 2.  The size check is on all P^2 ordered pairs.
    """
    p = (n + 1) * (n + 2) // 2
    check_enumeration(p * p, f"{p}^2 point pairs")
    orbs = [[interval_mask(Interval(*s.values), n) for s in orb]
            for orb in orbit_partition(n, 1)]
    ys = [(my, len(orb)) for orb in orbs for my in orb]
    pairs = scaled = 0
    for orb in orbs:
        mr, size = orb[0], len(orb)
        for my, size_y in ys:
            if not euler(my, mr) and abs(euler(mr, my)) == hom:
                pairs += size
                scaled += (n + 2) * size // lcm(size, size_y)
    return pairs, scaled // (n + 2)


# ---------------------------------------------------------------------------
# the CLI handlers of `an count`, `an orbits` and `an genus`
# ---------------------------------------------------------------------------


def _cmd_an_count(args):
    if args.group == "id":
        count = count_id(args.k, args.vertices)
        brute_count = count_id_brute
    else:
        count = count_orbits_formula(args.k, args.vertices)
        brute_count = count_orbits_brute
    if args.verify:
        check_oracle("an count", count, brute_count(args.k, args.vertices))
    return {"count": str(count)}


def _cmd_an_orbits(args):
    check_k_vertices(args.k, args.vertices)
    census = {}
    for size in orbit_sizes(args.vertices - 1, args.k):
        census[size] = census.get(size, 0) + 1
    return {
        "k": args.k,
        "vertices": args.vertices,
        "orbit_count": str(sum(census.values())),
        "orbits_by_size": [
            {"size": s, "count": str(c)} for s, c in sorted(census.items())
        ],
    }


def _cmd_an_genus(args):
    count = count_genus(args.genus, args.vertices, args.group)
    if args.verify:
        n, full = args.vertices - 1, args.group == "full"
        if args.genus == 0:
            # genus 0 curves are the A_2-type subcategories
            brute_count = count_orbits_brute if full else count_id_brute
            brute = brute_count(2, args.vertices)
        else:
            if args.genus == -1:
                pairs, classes = _genus_minus1_census(n)
            else:
                pairs, classes = _hom_census(n, args.genus + 1)
            brute = classes if full else pairs
        check_oracle("an genus", count, brute)
    return {"count": str(count)}
