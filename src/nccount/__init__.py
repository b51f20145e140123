"""Exact counting of exceptional-collection subcategories ("noncommutative
curves") in the bounded derived categories of A_n and D_4 quivers, of two
affine quivers, and of the projective plane.

All arithmetic is exact (Python ints / fractions); counts that are infinite
are reported as the sentinel :data:`INFINITE`.
"""


class _Infinite:
    """Singleton sentinel for an infinite count."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"

    def __str__(self):
        return "infinite"


INFINITE = _Infinite()

# the categories whose incidence structures are drawn in the plane; defined
# here so that the CLI parser offers them without importing a backend
DRAWN = ("a3", "d4")

__all__ = ["DRAWN", "INFINITE"]
