"""Small exact number-theory helpers, the orbit partition, the streamed
cycle walk and the brute-force cap shared by the counting modules."""

from functools import lru_cache

# The largest set a brute-force oracle may enumerate: sequences for the
# subcategory counts, ordered point pairs for the curve scan, necklace
# classes, and the ordered vertex pairs of a graph.  Beyond it an oracle
# refuses up front instead of exhausting time and memory.
MAX_ENUMERATION = 1_000_000


def check_enumeration(size: int, what: str) -> None:
    """Refuse a brute-force enumeration of more than MAX_ENUMERATION items."""
    if size > MAX_ENUMERATION:
        raise ValueError(
            f"refusing to enumerate {what} = {size}; "
            f"the brute-force cap is {MAX_ENUMERATION}"
        )


def divisors(x: int) -> list[int]:
    """Sorted list of positive divisors of x >= 1."""
    if x < 1:
        raise ValueError(f"divisors: need x >= 1, got {x}")
    small, large = [], []
    d = 1
    while d * d <= x:
        if x % d == 0:
            small.append(d)
            if d != x // d:
                large.append(x // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def prime_factors(x: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of x >= 1 as ((p, multiplicity), ...)."""
    if x < 1:
        raise ValueError(f"prime_factors: need x >= 1, got {x}")
    out = []
    p = 2
    while p * p <= x:
        if x % p == 0:
            e = 0
            while x % p == 0:
                x //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if x > 1:
        out.append((x, 1))
    return tuple(out)


def mobius(x: int) -> int:
    """Moebius function: (-1)^(#prime factors) on squarefree x, else 0."""
    out = 1
    for _, e in prime_factors(x):
        if e > 1:
            return 0
        out = -out
    return out


def euler_phi(x: int) -> int:
    """Euler totient."""
    out = x
    for p, _ in prime_factors(x):
        out = out // p * (p - 1)
    return out


def orbits(items, *steps) -> list:
    """Partition items into the orbits of the group generated by steps.

    Each step maps an item to an item and must permute every orbit it
    meets.  An orbit is a list that starts at its first member in items and
    lists the others in the order they are reached; orbits come in the
    order of their first members.  With no steps each item is its own orbit.
    """
    seen = set()
    parts = []
    for item in items:
        if item in seen:
            continue
        seen.add(item)
        orb = [item]
        for cur in orb:  # orb grows while it is walked
            for step in steps:
                img = step(cur)
                if img not in seen:
                    seen.add(img)
                    orb.append(img)
        parts.append(orb)
    return parts


def cycles(ranked, step, rank, size: int):
    """Stream the cycles of the permutation step, one list at a time.

    ranked yields (r, item) for every item of the permuted set, where
    r = rank(item) is a dense rank in range(size); the enumeration is never
    ranked, and each image of step is ranked at most once.  The cycles come
    as orbits(items, step) lists them.  Visited items are marked in a
    bytearray of size bytes, so besides the enumeration only the current
    cycle is held.
    """
    seen = bytearray(size)
    for r, item in ranked:
        if seen[r]:
            continue
        cyc = [item]
        img = step(item)
        while img != item:
            seen[rank(img)] = 1
            cyc.append(img)
            img = step(img)
        yield cyc
