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

from math import gcd, log
from typing import TYPE_CHECKING, NamedTuple

from . import VerifyFailed, check_oracle
from .arith import closure

# Only the slope functions build a Fraction, and each imports the module
# itself: fractions loads decimal, which the integer counts, the CLI's
# slopes included, never need.
if TYPE_CHECKING:
    from fractions import Fraction

# Zagier, "On the number of Markoff numbers below a given bound" (Math.
# Comp. 1982): the sorted Markov triples with largest entry <= x number
# ZAGIER_C * (log 3x)^2 + O(log x (log log x)^2).
ZAGIER_C = 0.180717047
# The mutation closure holds about this many triples per Markov triple
# (58,012 against 9,670 up to 10^100).
CLOSURE_PER_TRIPLE = 6
# Both enumerations refuse up front to hold more triples than this.
MAX_TRIPLES = 100_000


def estimated_triples(limit: int) -> int:
    """Zagier's estimate of the number of sorted Markov triples with largest
    entry <= limit."""
    return round(ZAGIER_C * log(3 * limit) ** 2)


def _check_size(size: int, what: str, limit: int) -> None:
    if size > MAX_TRIPLES:
        raise ValueError(
            f"refusing to enumerate an estimated {size} {what} up to a "
            f"{len(str(limit))}-digit bound; the cap is {MAX_TRIPLES}"
        )


def markov_triples(limit: int) -> list:
    """All sorted Markov triples with largest entry <= limit, the closure of
    (1, 1, 1) under the three Vieta moves."""
    if limit < 1:
        raise ValueError("need limit >= 1")
    _check_size(estimated_triples(limit), "Markov triples", limit)

    def vieta(i):  # entry i goes to the other root of the equation in it
        return lambda t: tuple(sorted(
            (t[i - 1], t[i - 2], 3 * t[i - 1] * t[i - 2] - t[i])))

    triples = closure([(1, 1, 1)], *map(vieta, range(3)), keep=lambda t: t[2] <= limit)
    assert all(a * a + b * b + c * c == 3 * a * b * c for a, b, c in triples)
    triples.sort()
    return triples


def markov_numbers(limit: int) -> list:
    """All Markov numbers <= limit."""
    return sorted({x for t in markov_triples(limit) for x in t if x <= limit})


def rank_counts(limit: int) -> dict:
    """count_c(m, "full") for every Markov number m <= limit, from one pass
    over the Markov tree, in increasing m.

    Every Markov number is the largest entry of some sorted triple.  The
    residues +-c mod m of the rank-m bundles come one pair per triple with
    largest entry m (Frobenius' correspondence between Markov triples and
    square roots of -1 mod m), and the two residues of a pair differ unless
    m <= 2.  So the count is 1 for m <= 2 and otherwise twice the number of
    those triples; closure_counts is the independent check.
    """
    counts = {}
    for _, _, m in markov_triples(limit):
        counts[m] = 1 if m <= 2 else counts.get(m, 0) + 2
    return dict(sorted(counts.items()))


class ChernPair(NamedTuple):
    """K-theory class of an exceptional bundle: rank and first Chern class."""

    r: int
    c: int

    @property
    def ch2(self) -> "Fraction":
        """Second Chern character, pinned by chi(E, E) = 1."""
        from fractions import Fraction
        return Fraction(1 + self.c * self.c - self.r * self.r, 2 * self.r)

    @property
    def slope(self) -> "Fraction":
        from fractions import Fraction
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
    """Euler pairing chi(a, b) on the plane, via Riemann-Roch,

        chi = r_a r_b + 3/2 d + r_a ch2_b + ch2_a r_b - c_a c_b,
        d = r_a c_b - c_a r_b.

    Multiplied through by 2 r_a r_b, with ch2 = (1 + c^2 - r^2) / 2r, it
    reads 2 r_a r_b chi = r_a^2 + r_b^2 + 3 r_a r_b d + d^2, which is
    evaluated in integers.
    """
    d = a.r * b.c - a.c * b.r
    chi, rem = divmod(a.r * a.r + b.r * b.r + 3 * a.r * b.r * d + d * d, 2 * a.r * b.r)
    if rem:
        raise ValueError(f"non-integral pairing for {a}, {b}")
    return chi


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


def normalized_slope(e: ChernPair) -> "Fraction":
    """Representative slope in [0, 1/2], reached by twisting and dualizing."""
    mu = e.slope % 1
    return min(mu, 1 - mu)


def _canonical_triple(t: ExcTriple) -> ExcTriple:
    """Twist the whole triple so the first slope lands in [0, 1)."""
    shift = -(t.entries[0].c // t.entries[0].r)
    if shift == 0:
        return t
    return ExcTriple(tuple(e.twist(shift) for e in t.entries))


def generate_triples(max_rank: int) -> list:
    """The closure of the seed triple under the four mutations, each
    followed by _canonical_triple, so modulo simultaneous twist, kept to the
    triples of ranks <= max_rank; sorted."""
    if max_rank < 1:
        raise ValueError("need max_rank >= 1")
    _check_size(
        CLOSURE_PER_TRIPLE * estimated_triples(max_rank), "closure triples", max_rank
    )
    moves = (lambda t, m=m: _canonical_triple(mutate(t, m))
             for m in ("left-12", "left-23", "right-12", "right-23"))
    triples = closure([_canonical_triple(SEED)], *moves,
                      keep=lambda t: max(t.ranks()) <= max_rank)
    triples.sort()
    return triples


def _bundles(max_rank: int) -> set:
    """The classes of all exceptional bundles of rank <= max_rank, from one
    mutation closure."""
    return {e for t in generate_triples(max_rank) for e in t.entries}


def _slope_residues(max_rank: int) -> set:
    """(r, c) for the normalized slope c/r of each exceptional bundle of
    rank <= max_rank: c = min(c mod r, r - c mod r), on ints.  Each bundle
    has r and c coprime, so c/r is in lowest terms."""
    return {(r, min(c % r, r - c % r)) for r, c in _bundles(max_rank)}


def exceptional_slopes(max_rank: int) -> set:
    """Normalized slopes of all exceptional bundles of rank <= max_rank, as
    normalized_slope computes them on Fractions: one Fraction per residue
    of _slope_residues."""
    from fractions import Fraction
    return {Fraction(c, r) for r, c in _slope_residues(max_rank)}


def closure_counts(max_rank: int) -> dict:
    """count_c(r, "full") for every rank r <= max_rank, from one mutation
    closure: the number of residues +-c mod r of the rank-r bundles."""
    residues = {}
    for r, c in _bundles(max_rank):
        residues.setdefault(r, set()).update((c % r, -c % r))
    return {r: len(res) for r, res in residues.items()}


def count_c(m: int, group: str = "full") -> int:
    """Number of rank-m exceptional-bundle classes: modulo the full group
    this is the number of residues of c mod m; modulo the Serre subgroup it
    is three times that."""
    if group not in ("serre", "full"):
        raise ValueError(f"unknown group {group!r}")
    full = closure_counts(max(m, 1)).get(m)
    if full is None:
        raise ValueError(f"{m} is not a Markov number")
    return full if group == "full" else 3 * full


def tyurin_scan(max_rank: int) -> list:
    """Check rank-uniqueness of representative bundles: for every Markov
    number 2 < m <= max_rank the full-group count should be 2.

    Returns (m, count, ok) rows, counted in one pass over the Markov tree.
    """
    if max_rank < 3:
        raise ValueError("need max_rank >= 3")
    return [
        (m, cnt, cnt == 2) for m, cnt in rank_counts(max_rank).items() if m > 2
    ]


# --- the CLI handlers of the `markov` commands ----------------------------------


def _cmd_markov_table(args):
    return {"rows": [
        {"m": str(m), "count": str(full), "serre_count": str(3 * full)}
        for m, full in rank_counts(args.limit).items()
    ]}


def _cmd_markov_slopes(args):
    residues = sorted(_slope_residues(args.max_rank))
    return {
        "slopes": [f"{c}/{r}" for r, c in residues],
        "ranks": [str(r) for r, _ in residues],
    }


def _cmd_markov_tree(args):
    return {"triples": [list(map(str, t)) for t in markov_triples(args.limit)]}


def _cmd_markov_tyurin(args):
    rows = tyurin_scan(args.max_rank)
    if args.verify:
        # the tree counts against the residues of one mutation closure
        counts = {m: c for m, c, _ in rows}
        oracle = closure_counts(args.max_rank)
        for m in sorted(counts.keys() | {r for r in oracle if r > 2}):
            check_oracle(
                f"markov tyurin at m={m}", counts.get(m, 0), oracle.get(m, 0)
            )
    doc = {
        "rows": [{"m": str(m), "count": str(c), "ok": ok} for m, c, ok in rows],
        "all_ok": all(ok for _, _, ok in rows),
    }
    if args.verify and not doc["all_ok"]:
        raise VerifyFailed(doc=doc)
    return doc
