"""Small exact number-theory helpers, the closure under moves and the orbit
partition built on it, the refusal caps shared by the counting modules
(MAX_ENUMERATION items walked, MAX_DIGITS digits counted) with their checks
and texts, and the integer check of the checked constructors."""

import sys
from functools import lru_cache
from math import comb, log
from typing import NoReturn

# The largest set a brute-force oracle may enumerate: sequences for the
# subcategory counts, ordered point pairs for the curve scan, necklace
# classes, and the ordered vertex pairs of a graph.  Beyond it an oracle
# refuses up front instead of exhausting time and memory.
MAX_ENUMERATION = 1_000_000

# The most digits a count may have, CPython's default int-to-string limit; a
# lower interpreter limit is honoured, and a lifted or missing one is this.
MAX_DIGITS = 4300


def check_enumeration(size: int, what: str) -> None:
    """Refuse a brute-force enumeration of more than MAX_ENUMERATION items."""
    if size > MAX_ENUMERATION:
        raise ValueError(
            f"refusing to enumerate {what} = {size}; "
            f"the brute-force cap is {MAX_ENUMERATION}"
        )


def refuse_walk(what: str) -> NoReturn:
    """Refuse a walk that would pass MAX_ENUMERATION items, named by what."""
    raise ValueError("refusing to enumerate more than the brute-force cap of "
                     f"{MAX_ENUMERATION} {what}")


def check_int(value, what: str) -> int:
    """Return value, refused unless it is an int other than a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} {value!r} is not an int")
    return value


def check_printable(m: int, s: int, count, what: str) -> int:
    """Return count(), a count between C(m, s)/m and C(m, s), unless it has
    more than MAX_DIGITS digits, or than a lower nonzero interpreter limit.

    ln C(m, s) is summed as ln((m - k + i)/i), k = min(s, m - s), only until
    C(m, s)/m passes the limit by a margin, and is then refused up front.
    Each term is at least ln 2, so that takes at most 3.33 terms per digit
    plus log2(m) + 2; logs of the ints stay accurate where lgamma loses its
    units (m past about 10^14) or overflows.  A count short of that is below
    e*m*10^limit, cheap to compute, and compared with the limit exactly.
    """
    limit = min(getattr(sys, "get_int_max_str_digits", int)() or MAX_DIGITS, MAX_DIGITS)
    k, ln, top = min(s, m - s), -log(m), limit * log(10) + 1
    for i in range(1, k + 1):
        ln += log(m - k + i) - log(i)
        if ln >= top:
            break
    else:
        value = count()
        if value < 10**limit:
            return value
    raise ValueError(f"refusing to count {what}: the count has more than {limit} "
                     "digits, past the limit for printing an int")


def check_binomial(m: int, s: int, what: str, per: int = 1) -> None:
    """check_enumeration of C(m, s) // per items, per 1 or m; check_printable
    refuses a binomial of more than MAX_DIGITS digits before it is built."""
    check_enumeration(check_printable(m, s, lambda: comb(m, s) // per, what), what)


def divisors(x: int) -> list[int]:
    """Sorted list of positive divisors of x >= 1."""
    if x < 1:
        raise ValueError(f"divisors: need x >= 1, got {x}")
    out = [1]
    for p, e in prime_factors(x):
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


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


def closure(seeds, *moves, keep=None) -> list:
    """The items reached from the seeds under the moves, breadth first, each
    listed once: the seeds in their order, then each move's image of each
    listed item in turn where keep(image) holds; keep is asked again where
    an image it refused recurs."""
    out = list(dict.fromkeys(seeds))
    seen = set(out)
    for cur in out:  # out grows while it is walked
        for move in moves:
            img = move(cur)
            if img not in seen and (keep is None or keep(img)):
                seen.add(img)
                out.append(img)
    return out


def orbits(items, *steps) -> list:
    """Partition items into the orbits of the group generated by steps.

    Each step maps an item to an item and must permute every orbit it
    meets.  An orbit is the closure of its first member in items; orbits
    come in the order of their first members.  With no steps each item is
    its own orbit.
    """
    seen = set()
    parts = []
    for item in items:
        if item not in seen:
            parts.append(closure([item], *steps))
            seen.update(parts[-1])
    return parts
