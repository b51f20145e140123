"""Acyclic quivers, dimension vectors and the Euler form.

For Dynkin quivers the Euler form of two exceptional dimension vectors
determines the full hom data: hom = max(<a,b>, 0) and hom^1 = max(-<a,b>, 0),
with all higher homs zero.  That dichotomy is the basis of the pair
classifiers used by the A_n and D_4 modules, and the Euler form also gives
the exceptional objects themselves (positive_roots) and the Serre functor
on them (serre_permutation).  An affine quiver has infinitely many real
roots, so positive_roots refuses it; the affine module reads the same Euler
form on a typed table of the roots of its exceptional objects.
"""

from collections.abc import Mapping, Sequence
from operator import add


class Quiver:
    """Finite acyclic quiver with an ordered vertex list."""

    def __init__(self, vertices, arrows):
        self.vertices = tuple(vertices)
        self.arrows = tuple((s, t) for s, t in arrows)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        index = {v: i for i, v in enumerate(self.vertices)}
        for s, t in self.arrows:
            if s not in index or t not in index:
                raise ValueError(f"arrow ({s},{t}) uses unknown vertex")
        self._index = index
        self._topological_order()  # raises on cycles

    def _topological_order(self):
        outs = {v: [] for v in self.vertices}
        indeg = {v: 0 for v in self.vertices}
        for s, t in self.arrows:
            outs[s].append(t)
            indeg[t] += 1
        ready = [v for v in self.vertices if indeg[v] == 0]
        order = []
        while ready:
            v = ready.pop()
            order.append(v)
            for w in outs[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
        if len(order) != len(self.vertices):
            raise ValueError("quiver has an oriented cycle")
        return order

    def __repr__(self):
        return f"Quiver(vertices={self.vertices!r}, arrows={self.arrows!r})"

    def index(self, v):
        return self._index[v]

    @property
    def is_dynkin(self) -> bool:
        """True iff the underlying diagram is of type A, D or E."""
        n = len(self.vertices)
        if n == 0 or len(self.arrows) != n - 1:
            return False
        adj = {v: set() for v in self.vertices}
        for s, t in self.arrows:
            if t in adj[s] or s == t:
                return False  # parallel arrows / loops
            adj[s].add(t)
            adj[t].add(s)
        # connectivity
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != n:
            return False
        degrees = sorted(len(adj[v]) for v in self.vertices)
        if degrees[-1] <= 2:
            return True  # type A
        if degrees[-1] > 3 or degrees.count(3) > 1:
            return False
        # one branch vertex: measure the three branch lengths
        center = next(v for v in self.vertices if len(adj[v]) == 3)
        lengths = []
        for start in adj[center]:
            ln, prev, cur = 1, center, start
            while True:
                nxt = [w for w in adj[cur] if w != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                ln += 1
            lengths.append(ln)
        a, b, c = sorted(lengths)
        if a == 1 and b == 1:
            return True  # type D
        return (a, b) == (1, 2) and c <= 4  # E6, E7, E8


def line_quiver(n: int) -> Quiver:
    """Equioriented A-type quiver with vertices 0..n (n+1 of them)."""
    if n < 0:
        raise ValueError("line_quiver: need n >= 0")
    return Quiver(range(n + 1), [(i, i + 1) for i in range(n)])


def d4_quiver() -> Quiver:
    """D_4 quiver, all arrows pointing into the central vertex 'o'."""
    return Quiver((1, 2, 3, "o"), [(1, "o"), (2, "o"), (3, "o")])


def as_dimension_vector(q: Quiver, a) -> tuple[int, ...]:
    """Coerce a mapping or sequence to a dense tuple over q's vertex order."""
    if isinstance(a, Mapping):
        if set(a) != set(q.vertices):
            raise ValueError("dimension vector domain differs from vertex set")
        vec = tuple(int(a[v]) for v in q.vertices)
    elif isinstance(a, Sequence):
        if len(a) != len(q.vertices):
            raise ValueError(
                f"dimension vector length {len(a)} != {len(q.vertices)} vertices"
            )
        vec = tuple(int(x) for x in a)
    else:
        raise TypeError(f"cannot interpret {a!r} as a dimension vector")
    if any(x < 0 for x in vec):
        raise ValueError("dimension vector entries must be non-negative")
    return vec


def euler_form(q: Quiver, a, b) -> int:
    """<a,b> = sum_v a(v)b(v) - sum_{x->y} a(x)b(y)."""
    va = as_dimension_vector(q, a)
    vb = as_dimension_vector(q, b)
    total = sum(x * y for x, y in zip(va, vb))
    for s, t in q.arrows:
        total -= va[q.index(s)] * vb[q.index(t)]
    return total


def positive_roots(q: Quiver) -> list:
    """Sorted dimension vectors of the indecomposables of a Dynkin quiver:
    by Gabriel's theorem its positive roots, the x >= 0 with <x, x> = 1.

    A non-simple positive root minus some simple root is again one, so the
    roots grow from the simple ones, one simple root at a time, while the
    form stays 1.  On an affine quiver that growth stops at the imaginary
    root (form 0) and misses the real roots above it, hence the refusal.
    """
    if not q.is_dynkin:
        raise ValueError("positive roots from the Tits form need a Dynkin quiver")
    n = len(q.vertices)
    simple = [tuple(int(v == w) for w in range(n)) for v in range(n)]
    roots, frontier = set(simple), simple
    while frontier:
        grown = {tuple(map(add, x, e)) for x in frontier for e in simple}
        frontier = [y for y in grown - roots if euler_form(q, y, y) == 1]
        roots.update(frontier)
    return sorted(roots)


def serre_permutation(euler: Mapping, labels) -> dict:
    """The Serre functor on the exceptional objects of a Dynkin quiver,
    label to label, from the Euler form tabled as euler[x, z] over labels
    that name each positive root once.  By Serre duality <x, z> = <z, Sx>,
    and Sx is an exceptional object up to shift, so x goes to the label y
    with <z, y> = <x, z> for every z, or = -<x, z> for every z."""
    labels = tuple(labels)
    columns = {tuple(euler[z, y] for z in labels): y for y in labels}
    perm = {}
    for x in labels:
        row = tuple(euler[x, z] for z in labels)
        y = columns.get(row, columns.get(tuple(-e for e in row)))
        if y is None:
            raise ValueError(f"no Serre image of {x!r} among the labels")
        perm[x] = y
    return perm


def third_point(dims: Mapping, a, b):
    """Third derived point of the genus-0 curve spanned by the hom-one pair
    {a, b}, where dims maps objects to their dimension vectors: the unique
    object whose vector is the sum or the difference of theirs."""
    da, db = dims[a], dims[b]
    cands = (
        tuple(x + y for x, y in zip(da, db)),
        tuple(abs(x - y) for x, y in zip(da, db)),
    )
    hits = [obj for obj, d in dims.items() if d in cands]
    if len(hits) != 1:
        raise ValueError(f"({a}, {b}) does not span a genus-0 curve")
    return hits[0]
