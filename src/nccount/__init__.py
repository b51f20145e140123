"""Exact counting of exceptional-collection subcategories ("noncommutative
curves") in the bounded derived categories of A_n and D_4 quivers, of two
affine quivers, and of the projective plane.

All arithmetic is exact (Python ints / fractions); counts that are infinite
are reported as the sentinel :data:`INFINITE`.
"""

from typing import NamedTuple


class _Infinite:
    """The sentinel for an infinite count; INFINITE is its one instance."""

    def __repr__(self):
        return "INFINITE"

    def __str__(self):
        return "infinite"


INFINITE = _Infinite()

class GenSet(NamedTuple):
    """The ordered generator list of a subcategory, printed <g1,g2,...>."""

    generators: tuple

    def __str__(self):
        return "<" + ",".join(map(str, self.generators)) + ">"


class VerifyFailed(Exception):
    """A --verify check that failed, raised by a CLI handler; the call exits
    1.  A closed form that disagrees with its oracle carries the line for
    stderr; a scan that reports its checks in its document carries the
    document, which is written as on success."""

    def __init__(self, message="", doc=None):
        super().__init__(message)
        self.doc = doc


def check_oracle(name, formula, oracle):
    """Raise VerifyFailed unless a closed form and its oracle agree."""
    if formula != oracle:
        raise VerifyFailed(
            f"verification failed for {name}: formula={formula}, oracle={oracle}"
        )


__all__ = ["INFINITE", "GenSet", "VerifyFailed", "check_oracle"]
