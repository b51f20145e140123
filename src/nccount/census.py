"""The exceptional sets of a category and the census of its subcategories.

A category enters as the rows of pair_rows over its objects, is_pair(x, y)
holding iff every hom from y to x vanishes, and leaves as index tuples or
int masks over them, so labels stay with the caller.  The census is a walk
of perps on the rows, as are the graphs and complexes of the graph layer;
this module needs only `arith`, so `d4` and `incidence` skip that layer.
"""

from itertools import combinations, islice

from . import arith


def bits(mask):
    """The indices of the set bits of an int mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def pair_rows(objs, is_pair) -> tuple:
    """(out, into) for the list objs: bit j of out[i] and bit i of into[j]
    are set iff is_pair(objs[i], objs[j]).  Each unordered pair is tested
    once in each direction."""
    out, into = [0] * len(objs), [0] * len(objs)
    for (i, x), (j, y) in combinations(enumerate(objs), 2):
        if is_pair(x, y):
            out[i] |= 1 << j
            into[j] |= 1 << i
        if is_pair(y, x):
            out[j] |= 1 << i
            into[i] |= 1 << j
    return out, into


def _closes_cycle(one, members: int, succ: int, pred: int) -> bool:
    """True iff a path of one-sided edges inside the vertex mask members
    leads from a vertex of succ to one of pred; one[x] is the mask of the
    one-sided successors of x.  With succ and pred the one-sided successors
    and predecessors of a vertex w, that path closes a cycle through w."""
    back = pred & members
    front = seen = succ & members
    while front and back and not seen & back:
        reach = 0
        for x in bits(front):
            reach |= one[x]
        front = reach & members & ~seen
        seen |= front
    return bool(seen & back)


def exceptional_sets(out, into, max_dim: int):
    """The index sets of at most max_dim + 1 vertices of the rows (out,
    into) of pair_rows that admit a semi-orthogonal order, as sorted tuples,
    by size and then lexicographically.

    The sets are closed under subsets, so each set of size d + 2 is one of
    size d + 1 extended by a later vertex w joined to all of its members,
    which is exceptional unless w closes a cycle of one-sided edges.
    Layers of index tuples, each with its member mask and the mask of later
    vertices joined to every member, are grown in lexicographic order, by
    size, until one is empty.  Past arith.MAX_ENUMERATION sets it refuses.
    """
    if max_dim < 0:
        raise ValueError("need max_dim >= 0")
    n = len(out)
    one = [out[i] & ~into[i] for i in range(n)]
    one_in = [into[i] & ~out[i] for i in range(n)]
    later = [(out[i] | into[i]) >> (i + 1) << (i + 1) for i in range(n)]
    layer = [((i,), 1 << i, later[i]) for i in range(n)]
    yield from ((i,) for i in range(n))
    total = n
    for _ in range(max_dim):
        layer = list(islice((
            (sub + (w,), members | 1 << w, cand & later[w])
            for sub, members, cand in layer
            for w in bits(cand)
            if not (
                one_in[w] & members
                and _closes_cycle(one, members, one[w], one_in[w])
            )
        ), arith.MAX_ENUMERATION - total + 1))
        total += len(layer)
        if total > arith.MAX_ENUMERATION:
            arith.refuse_walk(f"exceptional sets to max_dim {max_dim}")
        if not layer:
            return
        yield from (sub for sub, _, _ in layer)


def subcategories(out, into, rank: int) -> list:
    """The subcategories of rank 1..rank of the category with the pair_rows
    (out, into), as int masks over its objects: one list per rank k at index
    k - 1, none past the rank of the category.

    The objects must be all the indecomposables of a category of finite
    type, each once.  Then every subcategory B is admissible and is the left
    perp of its right perp (Bondal), the objects with no homs to any object
    with no homs from B.  On the rows the left perp of a set is the AND of
    out[i] over its members, and the right perp of y is into[y].  The walk
    starts from the zero subcategory, whose right perp is every object.  For
    an element A of rank k with right perp rA and each y in the left perp of
    A, the subcategory B that A and y generate has the right perp
    rA & into[y], so B is its left perp, and every element of rank k + 1 is
    one such B.  Each y in B gives B again, so clearing B from A's
    candidates leaves one y per element that covers A.  Past
    arith.MAX_ENUMERATION elements the walk refuses.
    """
    every = (1 << len(out)) - 1

    def left(mask):
        perp = every
        for i in bits(mask):
            perp &= out[i]
        return perp

    # each layer maps the right perp of each element to the element, which
    # it fixes, so an element reached again is not rebuilt
    ranks, layer, total = [], {every: 0}, 0
    for _ in range(rank):
        found = {}
        for ra, a in layer.items():
            cand = left(a)
            while cand:
                r = ra & into[(cand & -cand).bit_length() - 1]
                b = found.get(r)
                if b is None:
                    if total == arith.MAX_ENUMERATION:
                        arith.refuse_walk(f"subcategories to rank {rank}")
                    total += 1
                    found[r] = b = left(r)
                cand &= ~b
        if not found:
            break
        ranks.append(list(found.values()))
        layer = found
    return ranks
