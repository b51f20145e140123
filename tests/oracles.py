"""Root oracles that the tests share.

The census of subcategories walks perps on the pair rows and reads no
roots.  These oracles read them: the dimension vector of each object of the
aN and d4 records, the test whether a vector lies in the rational span of
roots, and the census found by grouping the exceptional sets by the lattice
their roots span.
"""

import re

from nccount import d4
from nccount.census import bits, exceptional_sets, pair_rows, subcategories
from nccount.interval import interval_mask


def interval_dim(iv, n: int) -> tuple:
    """Dimension vector of the interval object s_{i,j} over the vertices 0..n."""
    mask = interval_mask(iv, n)
    return tuple(mask >> v & 1 for v in range(n + 1))


def record_roots(cat):
    """The dimension vector of each object of a category record whose homs
    are read off a quiver's Euler form (aN, np0 = a2 and d4), else None."""
    if cat.name == "d4":
        return d4.DIMS
    m = re.fullmatch(r"a(\d+)|(np0)", cat.name)
    if m is None:
        return None
    n = int(m[1]) - 1 if m[1] else 1
    return {p: interval_dim(p, n) for p in cat.objects.values()}


def in_span(roots):
    """The test whether a vector lies in the rational span of the roots, by
    fraction-free elimination: the roots are reduced to rows with distinct
    pivots, each zero at the pivots of the rows before it, and a vector lies
    in their span iff reducing it by each row in turn leaves nothing.  The
    roots may be dependent, repeated or none.  The roots of an exceptional
    sequence span a saturated lattice, so this is also the test of that
    lattice, the K_0 of the subcategory the sequence generates."""
    rows = []

    def reduce(v):
        for p, row in rows:
            if v[p]:
                a, b = row[p], v[p]
                v = [a * x - b * y for x, y in zip(v, row)]
        return v

    for r in roots:
        r = reduce(r)
        if any(r):
            rows.append((next(i for i, x in enumerate(r) if x), r))
    return lambda v: not any(reduce(v))


def label_census(objects: dict, is_pair, rank: int) -> dict:
    """census.subcategories of rank 1..rank of the objects (by label) with
    the pair test is_pair, walked on the pair_rows of the sorted labels,
    each element as the frozenset of its labels, mapped to its rank."""
    labels = sorted(objects)
    ranks = subcategories(*pair_rows([objects[v] for v in labels], is_pair), rank)
    return {frozenset(labels[i] for i in bits(m)): k
            for k, masks in enumerate(ranks, 1) for m in masks}


def span_census(objects: dict, is_pair, dims: dict, rank: int) -> dict:
    """label_census by the spans of roots: the subcategories of rank
    1..rank of the objects (by label) with the pair test is_pair and the
    root dims[x] of each object x, each as the frozenset of its labels,
    mapped to its rank.

    The roots of an exceptional sequence span a saturated lattice in K_0,
    which fixes the subcategory the sequence generates (Ingalls-Thomas),
    and whose roots are those of that subcategory's objects.  So each
    exceptional set of k <= rank objects either lies in a rank-k
    subcategory already found, whose lattice its roots span, or generates a
    new one: the objects whose root lies in its span.
    """
    labels = sorted(objects)
    objs = [objects[v] for v in labels]
    root = [dims[x] for x in objs]
    out, home = {}, {}  # home[k, i]: the rank-k subcategories holding i
    for s in exceptional_sets(*pair_rows(objs, is_pair), rank - 1):
        k = len(s)
        if not any(sub.issuperset(s) for sub in home.get((k, s[0]), ())):
            inside = in_span(root[i] for i in s)
            sub = frozenset(i for i, r in enumerate(root) if inside(r))
            out[frozenset(labels[i] for i in sub)] = k
            for i in sub:
                home.setdefault((k, i), []).append(sub)
    return out
