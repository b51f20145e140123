"""Markov numbers and exceptional bundles on the projective plane.

An exceptional bundle is recorded by its rank r and first Chern class c
(coprime); its second Chern character is forced by chi(E, E) = 1 and never
stored.  Triples of such classes are generated from the line-bundle seed
(O, O(1), O(2)) by K-theoretic mutations

    left:  [L_A B] = chi(A, B) [A] - [B]
    right: [R_B A] = chi(A, B) [B] - [A]

whose rank recursion is exactly the Markov move; twisting by O(3) undoes the
Serre functor up to shift.  Every count below is derived from the closure of
the seed under these moves: the slope of an exceptional bundle determines it,
so slopes normalized into [0, 1/2] are the canonical bundle names.
"""

from fractions import Fraction
from math import gcd
from typing import NamedTuple


def markov_triples(limit: int) -> list:
    """All sorted Markov triples with largest entry <= limit, by tree
    generation from (1, 1, 1)."""
    if limit < 1:
        raise ValueError("need limit >= 1")
    seen = set()
    stack = [(1, 1, 1)]
    while stack:
        triple = stack.pop()
        if triple in seen:
            continue
        seen.add(triple)
        a, b, c = triple
        assert a * a + b * b + c * c == 3 * a * b * c
        for child in ((a, b, 3 * a * b - c), (a, 3 * a * c - b, c), (3 * b * c - a, b, c)):
            child = tuple(sorted(child))
            if child not in seen and child[2] <= limit:
                stack.append(child)
    return sorted(seen)


def markov_numbers(limit: int) -> list:
    """All Markov numbers <= limit."""
    return sorted({x for t in markov_triples(limit) for x in t if x <= limit})


class ChernPair(NamedTuple):
    """K-theory class of an exceptional bundle: rank and first Chern class."""

    r: int
    c: int

    @property
    def ch2(self) -> Fraction:
        """Second Chern character, pinned by chi(E, E) = 1."""
        return Fraction(1 + self.c * self.c - self.r * self.r, 2 * self.r)

    @property
    def slope(self) -> Fraction:
        return Fraction(self.c, self.r)

    def twist(self, t: int) -> "ChernPair":
        """Tensor by the t-th power of O(1)."""
        return ChernPair(self.r, self.c + t * self.r)


def chern_pair(r: int, c: int) -> ChernPair:
    if r < 1:
        raise ValueError(f"rank must be positive, got {r}")
    if gcd(r, c) != 1:
        raise ValueError(f"rank and Chern class must be coprime, got ({r}, {c})")
    return ChernPair(r, c)


def euler_chi(a: ChernPair, b: ChernPair) -> int:
    """Euler pairing chi(a, b) on the plane, via Riemann-Roch."""
    val = (
        Fraction(a.r * b.r)
        + Fraction(3, 2) * (a.r * b.c - a.c * b.r)
        + a.r * b.ch2
        + a.ch2 * b.r
        - a.c * b.c
    )
    if val.denominator != 1:
        raise ValueError(f"non-integral pairing for {a}, {b}")
    return int(val)


class ExcTriple(NamedTuple):
    entries: tuple  # three ChernPairs

    def ranks(self) -> tuple:
        return tuple(e.r for e in self.entries)


def exc_triple(e1: ChernPair, e2: ChernPair, e3: ChernPair) -> ExcTriple:
    r1, r2, r3 = e1.r, e2.r, e3.r
    if r1 * r1 + r2 * r2 + r3 * r3 != 3 * r1 * r2 * r3:
        raise ValueError(f"ranks {(r1, r2, r3)} violate the Markov equation")
    return ExcTriple((e1, e2, e3))


SEED = ExcTriple((ChernPair(1, 0), ChernPair(1, 1), ChernPair(1, 2)))

def _mutate_class(chi: int, a: ChernPair, b: ChernPair) -> ChernPair:
    """chi*[a] - [b], normalized to positive rank."""
    r, c = chi * a.r - b.r, chi * a.c - b.c
    if r < 0 or (r == 0 and c < 0):
        r, c = -r, -c
    if r == 0:
        raise AssertionError("mutation produced a rank-zero class")
    return chern_pair(r, c)


def mutate(t: ExcTriple, move: str) -> ExcTriple:
    """One mutation or twist of an exceptional triple."""
    e1, e2, e3 = t.entries
    if move == "left-12":
        return exc_triple(_mutate_class(euler_chi(e1, e2), e1, e2), e1, e3)
    if move == "right-12":
        return exc_triple(e2, _mutate_class(euler_chi(e1, e2), e2, e1), e3)
    if move == "left-23":
        return exc_triple(e1, _mutate_class(euler_chi(e2, e3), e2, e3), e2)
    if move == "right-23":
        return exc_triple(e1, e3, _mutate_class(euler_chi(e2, e3), e3, e2))
    if move == "twist":
        return ExcTriple(tuple(e.twist(3) for e in t.entries))
    raise ValueError(f"unknown move {move!r}")


def normalized_slope(e: ChernPair) -> Fraction:
    """Representative slope in [0, 1/2], reached by twisting and dualizing."""
    mu = e.slope % 1
    return min(mu, 1 - mu)


def _canonical_triple(t: ExcTriple) -> ExcTriple:
    """Twist the whole triple so the first slope lands in [0, 1)."""
    shift = -(t.entries[0].c // t.entries[0].r)
    return ExcTriple(tuple(e.twist(shift) for e in t.entries))


def generate_triples(max_rank: int) -> list:
    """Closure of the seed triple under mutations, pruned to ranks
    <= max_rank, modulo simultaneous twist."""
    if max_rank < 1:
        raise ValueError("need max_rank >= 1")
    start = _canonical_triple(SEED)
    seen = {start}
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        for move in ("left-12", "left-23", "right-12", "right-23"):
            img = _canonical_triple(mutate(cur, move))
            if img not in seen and max(img.ranks()) <= max_rank:
                seen.add(img)
                frontier.append(img)
    return sorted(seen)


def exceptional_slopes(max_rank: int) -> set:
    """Normalized slopes of all exceptional bundles of rank <= max_rank."""
    slopes = set()
    for t in generate_triples(max_rank):
        for e in t.entries:
            if e.r <= max_rank:
                slopes.add(normalized_slope(e))
    return slopes


def count_c(m: int, group: str = "full") -> int:
    """Number of rank-m exceptional-bundle classes: modulo the full group
    this is the number of residues of c mod m; modulo the Serre subgroup it
    is three times that."""
    if group not in ("serre", "full"):
        raise ValueError(f"unknown group {group!r}")
    if m not in markov_numbers(max(m, 1)):
        raise ValueError(f"{m} is not a Markov number")
    residues = set()
    for mu in exceptional_slopes(m):
        # coprimality makes the reduced denominator equal to the rank
        if mu.denominator == m:
            residues.add(mu.numerator % m)
            residues.add((-mu.numerator) % m)
    full = len(residues)
    return full if group == "full" else 3 * full


def tyurin_scan(max_rank: int) -> list:
    """Check rank-uniqueness of representative bundles: for every Markov
    number 2 < m <= max_rank the full-group count should be 2.

    Returns (m, count, ok) rows.
    """
    if max_rank < 3:
        raise ValueError("need max_rank >= 3")
    rows = []
    for m in markov_numbers(max_rank):
        if m <= 2:
            continue
        cnt = count_c(m, "full")
        rows.append((m, cnt, cnt == 2))
    return rows
