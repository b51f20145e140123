"""Acyclic quivers, dimension vectors and the hereditary rule of their
path algebras, read off the Euler form.

Hom and ext never both live on an exceptional pair (Happel-Ringel), so the
Euler form of two roots decides the pair and its homs (pair_rule), and the
Serre functor acts on K_0 as the Coxeter transformation up to sign
(coxeter).  The D_4 and affine modules read both off their roots; the aN
categories keep a bitmask form of the pair rule in `interval`.
positive_roots grows the roots of a Dynkin quiver; an affine quiver has
infinitely many, so the affine module tables those of its objects.
"""

from collections.abc import Mapping, Sequence
from enum import Enum
from operator import add, mul


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


class PairClass(Enum):
    """The class of an ordered pair of distinct exceptional objects."""

    NOT_EXCEPTIONAL = "not-exceptional"
    ORTHOGONAL = "orthogonal"
    HOM_ONE = "hom-one"
    HOM_TWO = "hom-two"


class _Table(dict):
    """f(x) for each key x, computed on the first lookup of x."""

    def __init__(self, f):
        self.f = f

    def __missing__(self, x):
        self[x] = value = self.f(x)
        return value


def pair_rule(arrows, root) -> tuple:
    """The pair test and the total hom of ordered pairs of exceptional
    objects of the quiver with the given arrows (source, target) on its
    vertices 0, 1, ..., where root(x) is the root of x up to sign: (x, y) is
    a pair iff <y, x> = 0, with |<x, y>| homs from x to y.  Each object's
    root and Euler row r, with <x, v> = sum(r[i] * v[i]), are kept from its
    first use, so every later test is one dot product."""

    def row(x):
        vec = roots[x]
        out = list(vec)
        for s, t in arrows:
            out[t] -= vec[s]
        return out

    roots, rows = _Table(root), _Table(row)
    return (
        lambda x, y: not sum(map(mul, rows[y], roots[x])),
        lambda x, y: abs(sum(map(mul, rows[x], roots[y]))),
    )


def pair_class(is_pair, total_hom, x, y) -> PairClass:
    """The class of the ordered pair (x, y) of distinct objects under the
    pair test and total hom of pair_rule."""
    if x == y:
        raise ValueError("pair classification needs two distinct objects")
    if not is_pair(x, y):
        return PairClass.NOT_EXCEPTIONAL
    return (PairClass.ORTHOGONAL, PairClass.HOM_ONE, PairClass.HOM_TWO)[total_hom(x, y)]


def coxeter(arrows, v) -> tuple:
    """Serre on K_0 at v: the s with E s = E^T v, E the Euler matrix of the
    quiver with the given arrows on its vertices 0, 1, ...  Serre duality
    <x, z> = <z, Sx> is E^T x = E Sx, so this is minus the Coxeter
    transformation -E^-1 E^T (Ringel, LNM 1099), and it sends the root of an
    exceptional object to that of its Serre image up to sign.  Each arrow
    s -> t must have s < t; then E is unitriangular, solved from the end."""
    if any(s >= t for s, t in arrows):
        raise ValueError("an arrow runs against the vertex order")
    out = [0] * len(v)
    for i in reversed(range(len(v))):
        out[i] = v[i] + sum(out[t] for s, t in arrows if s == i) - sum(
            v[s] for s, t in arrows if t == i)
    return tuple(out)


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
