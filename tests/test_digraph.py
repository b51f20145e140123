import json
from collections import Counter, defaultdict
from functools import lru_cache
from graphlib import CycleError, TopologicalSorter
from itertools import combinations, permutations
from math import comb, factorial
from operator import mul

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nccount.arith import closure
from nccount.category import Category, category
from nccount.d4 import ARROWS as D4
from nccount.digraph import (
    build_curve_graph,
    build_point_graph,
    complex_lines,
    export_lines,
    pair_graph,
    q1_pattern_subgraphs,
    sc_simplices,
)
from nccount.quiver import euler_form, line_quiver


def _hand_made(name, vertices, edges):
    """The graph on the vertices with the edges {(src, dst): weight}, built
    by pair_graph from a record whose pair test and hom read the edges."""
    return pair_graph(Category(
        name, {v: v for v in vertices},
        lambda x, y: (x, y) in edges, lambda x, y: edges[x, y],
    ))


def _edges(g):
    """Every edge of g, (src, dst) -> weight, in (src, dst) label order."""
    return g.induced(g.vertices)


def _one_sided(g):
    """The edges of g whose reverse is missing, with their weights."""
    edges = _edges(g)
    return {(s, t): w for (s, t), w in edges.items() if (t, s) not in edges}


def _double_sided(g):
    """The edges (a, b) of g with a < b whose reverse is present."""
    edges = _edges(g)
    return [(s, t) for s, t in edges if s < t and (t, s) in edges]


def _nx(g):
    """g as a networkx digraph, the oracle of degrees and components."""
    dg = nx.DiGraph()
    dg.add_nodes_from(g.vertices)
    dg.add_edges_from(_edges(g))
    return dg


def test_a3_point_graph_census():
    g = build_point_graph("a3")
    assert g.census() == (6, 12, 2)
    assert set(_double_sided(g)) == {("s0,0", "s2,2"), ("s0,2", "s1,1")}
    assert all(w == 1 for w in _one_sided(g).values())


def test_d4_point_graph_census():
    g = build_point_graph("d4")
    v, one, two = g.census()
    assert (v, one + two) == (12, 54)
    assert (one, two) == (45, 9)


def test_np_graphs():
    g = build_point_graph("np-1")
    assert g.census() == (2, 0, 1)
    g = build_point_graph("np0")
    assert g.census() == (3, 3, 0)
    assert all(w == 1 for w in _one_sided(g).values())
    assert g.category == "np0"
    for l in (1, 2, 5):
        g = build_point_graph(f"np{l}", window=(0, 6))
        assert g.census() == (7, 6, 0)
        edges = _edges(g)
        for i in range(6):
            assert edges[(f"s{i}", f"s{i + 1}")] == l + 1


def test_category_parsing():
    with pytest.raises(ValueError):
        build_point_graph("e6")
    with pytest.raises(ValueError):
        build_point_graph("q1")  # window required
    with pytest.raises(ValueError):
        build_point_graph("q1", window=(3, 1))
    with pytest.raises(ValueError):
        build_point_graph("np-2")
    with pytest.raises(ValueError, match="no curve graph for 'a3'"):
        build_curve_graph("a3")


def test_q1_window_weights():
    g = build_point_graph("q1", window=(0, 5))
    one = _one_sided(g)
    twos = {e for e, w in one.items() if w == 2}
    expected = {(f"a^{i}", f"a^{i + 1}") for i in range(5)}
    expected |= {(f"b^{i}", f"b^{i + 1}") for i in range(5)}
    assert twos == expected
    assert all(w in (1, 2) for w in one.values())
    assert not _double_sided(g)  # no orthogonal pairs on q1


def test_q2_window_weights_and_doubles():
    g = build_point_graph("q2", window=(0, 4))
    twos = {e for e, w in _one_sided(g).items() if w == 2}
    expected = {
        (f"{x}^{i}", f"{x}^{i + 1}") for x in "abcd" for i in range(4)
    }
    assert twos == expected
    doubles = set(_double_sided(g))
    assert ("F+", "F-") in doubles
    assert ("c^2", "d^2") in doubles
    assert ("a^1", "b^2") in doubles


def test_edge_criterion_matches_pair_classifier():
    # cross-module consistency: (a, b) is an edge iff the generators form
    # an exceptional pair under the Euler-form classifier
    from oracles import interval_dim

    from nccount import d4 as d4mod
    from nccount.interval import enum_points

    for vertices in range(1, 7):
        n = vertices - 1
        q = line_quiver(n)
        edges = _edges(build_point_graph(f"a{vertices}"))
        for x, y in combinations(enum_points(n), 2):
            for a, b in ((x, y), (y, x)):
                # all homs from b to a vanish
                expected = euler_form(q, interval_dim(b, n), interval_dim(a, n)) == 0
                assert ((str(a), str(b)) in edges) == expected
    q = d4mod.ARROWS
    edges = _edges(build_point_graph("d4"))
    for a, b in permutations(d4mod.LABELS, 2):
        expected = euler_form(q, d4mod.DIMS[b], d4mod.DIMS[a]) == 0
        assert ((a, b) in edges) == expected


_REGISTRY_GRAPHS = (
    [(f"a{n}", None, False) for n in range(1, 8)]
    + [("d4", None, False), ("np-1", None, False), ("np0", None, False)]
    + [(q, w, False) for q in ("q1", "q2") for w in ((-1, 1), (0, 3))]
    + [(f"np{l}", w, False) for l in range(1, 5) for w in ((-1, 1), (0, 3))]
    + [("d4", None, True)]
    + [(q, w, True) for q in ("q1", "q2") for w in ((-1, 1), (0, 3))]
)


@pytest.mark.parametrize("name, window, curves", _REGISTRY_GRAPHS)
def test_graph_matches_ordered_pair_definition(name, window, curves):
    # over ordered pairs: an edge (a, b) iff is_pair(a, b), weighted by
    # total_hom when (b, a) is no edge, and unweighted when it is
    cat = category(name, window)
    if curves:
        cat, g = cat.curves(), build_curve_graph(name, window)
    else:
        g = build_point_graph(name, window)
    want = {}
    for (a, x), (b, y) in permutations(cat.objects.items(), 2):
        if cat.is_pair(x, y):
            want[(a, b)] = None if cat.is_pair(y, x) else cat.total_hom(x, y)
    assert g.vertices == sorted(cat.objects)
    assert g.induced(g.vertices) == want


def test_point_graph_embeds_in_bigger_one():
    # the interval-relabelled inclusion preserves edges and weights
    for vertices in range(2, 7):
        small = build_point_graph(f"a{vertices}")
        big = build_point_graph(f"a{vertices + 1}")
        small_edges, big_edges = _edges(small), _edges(big)
        for x, y in permutations(small.vertices, 2):
            assert ((x, y) in small_edges) == ((x, y) in big_edges), (x, y)
            if (x, y) in small_edges:
                assert small_edges[(x, y)] == big_edges[(x, y)]


def test_d4_curve_graph_structure():
    g = build_curve_graph("d4")
    dg = _nx(g)
    assert len(g.vertices) == 24
    assert len(_one_sided(g)) == 24
    assert not _double_sided(g)
    for v in g.vertices:
        assert dg.out_degree(v) == 1
        assert dg.in_degree(v) == 1
    comps = list(nx.weakly_connected_components(dg))
    assert sorted(len(c) for c in comps) == [3, 3, 6, 6, 6]
    for comp in comps:
        genera = {g.genus[v] for v in comp}
        if len(comp) == 3:
            assert genera == {0}
        else:
            assert genera == {0, -1}
            # alternation: each step of the cycle flips the genus
            for v in comp:
                (w,) = dg.successors(v)
                assert g.genus[v] != g.genus[w]


def test_d4_curve_graph_rejects_window():
    with pytest.raises(ValueError, match="d4 takes no window"):
        build_curve_graph("d4", window=(0, 3))
    assert build_curve_graph("d4").census()[0] == 24


def test_q2_curve_graph_cycles():
    g = build_curve_graph("q2", window=(-2, 2))
    edges, dg = _edges(g), _nx(g)
    for cycle in (["C", "FG-", "D", "FG+"], ["A", "F+-", "B", "G+-"]):
        for i, v in enumerate(cycle):
            w = cycle[(i + 1) % 4]
            assert (v, w) in edges, (v, w)
            assert dg.out_degree(v) == 1 and dg.in_degree(v) == 1
    # genus alternates 1 / -1 around these squares
    assert g.genus["C"] == 1 and g.genus["FG-"] == -1
    # genus -1 chain: <d,c>^m -> <a,b>^m -> <d,c>^{m+1}
    assert ("CD^0", "AB^0") in edges
    assert ("AB^0", "CD^1") in edges
    # genus 0 chain from the classification of spanning pairs
    assert ("aF+^0", "cF-^1") in edges
    assert ("cF-^1", "bG-^2") in edges
    assert ("bG-^0", "dG+^0") in edges
    assert ("dG+^0", "aF+^0") in edges


def test_exactly_four_q1_patterns():
    subs = q1_pattern_subgraphs((0, 4))
    assert len(subs) == 4
    assert sorted(subs) == sorted(
        [
            sorted(("a", "c", "F+", "G-")),
            sorted(("b", "d", "F+", "G-")),
            sorted(("b", "c", "F-", "G+")),
            sorted(("a", "d", "F-", "G+")),
        ]
    )


def test_simplices_a3():
    g = build_point_graph("a3")
    simps = sc_simplices(g, 2)
    zero = [s for s in simps if len(s) == 1]
    assert len(zero) == len(g.vertices)
    # independent count of 2-simplices: semi-orthogonal chains grouped by set
    edges = _edges(g)
    chains = set()
    for p in permutations(g.vertices, 3):
        if all((p[i], p[j]) in edges for i in range(3) for j in range(i + 1, 3)):
            chains.add(tuple(sorted(p)))
    two = {s for s in simps if len(s) == 3}
    assert two == chains
    assert len(two) > 0


def test_simplices_d4_full_collections():
    g = build_point_graph("d4")
    three = [s for s in sc_simplices(g, 3) if len(s) == 4]
    # independent oracle: count semi-orthogonal 4-chains and group by set
    edges = _edges(g)
    by_set = defaultdict(int)
    for p in permutations(g.vertices, 4):
        if all((p[i], p[j]) in edges for i in range(4) for j in range(i + 1, 4)):
            by_set[tuple(sorted(p))] += 1
    assert set(three) == set(by_set)
    assert all(_is_simplex_by_orderings(g, s) for s in three)


def _arrows(name):
    """The arrows of the quiver of type name: a_N on N vertices, d4 as the
    d4 module has them, and for D_n (n >= 5) and E_n the path
    0 -> 1 -> ... -> n - 2 with vertex n - 1 joined to vertex n - 3 (D) or
    2 (E)."""
    n = int(name[1:])
    if name[0] == "a":
        return line_quiver(n - 1)
    if name == "d4":
        return D4
    branch = n - 3 if name[0] == "d" else 2
    return tuple((i, i + 1) for i in range(n - 2)) + ((branch, n - 1),)


def _sequences_by_mutation(name):
    """The complete exceptional sequences of a Dynkin quiver, by their roots:
    the closure of the simples in vertex order under left mutation of each
    adjacent pair, (E, F) -> (L_E F, E) with L_E F = |F - <E, F> E|.  The
    braid group acts transitively on complete exceptional sequences
    (Crawley-Boevey, "Exceptional sequences of representations of quivers",
    1993), and the sequences are finitely many, so the closure is the orbit.
    The Euler form <e, f> = sum e_v f_v - sum over arrows s -> t of e_s f_t
    is written out here."""
    arrows, n = _arrows(name), int(name[1:])

    @lru_cache(maxsize=None)
    def mutate(e, f):
        c = sum(map(mul, e, f)) - sum(e[s] * f[t] for s, t in arrows)
        return tuple(abs(b - c * a) for a, b in zip(e, f))

    def left(i):
        return lambda seq: seq[:i] + (mutate(seq[i], seq[i + 1]), seq[i]) + seq[i + 2:]

    simples = tuple(tuple(int(v == w) for w in range(n)) for v in range(n))
    return closure([simples], *map(left, range(n - 1)))


@pytest.mark.parametrize(
    "name, rank, h, weyl",
    [("d4", 4, 6, 192)] + [(f"a{n}", n, n + 1, factorial(n + 1)) for n in range(1, 6)],
)
def test_complete_exceptional_sequences(name, rank, h, weyl):
    # independent oracle: the semi-orthogonal orderings of the top simplices
    # are the complete exceptional sequences up to shift, which number
    # n! h^n / |W| for a Dynkin quiver of rank n, Coxeter number h and Weyl
    # group W (Deligne; Obaid, Nauman, Al-Shammakh, Fakieh and Ringel); the
    # closure under mutation counts them a second way
    g = build_point_graph(name)
    edges = _edges(g)
    top = [s for s in sc_simplices(g, rank - 1) if len(s) == rank]
    sequences = sum(
        all((p[i], p[j]) in edges for i, j in combinations(range(rank), 2))
        for s in top
        for p in permutations(s)
    )
    assert sequences == factorial(rank) * h**rank // weyl
    assert sequences == len(_sequences_by_mutation(name))
    if name == "d4":
        assert (len(top), sequences) == (87, 162)


@pytest.mark.parametrize(
    "name, count, h, weyl",
    [(f"a{n}", count, n + 1, factorial(n + 1))
     for n, count in zip(range(1, 6), (1, 3, 16, 125, 1296))]
    + [("d4", 162, 6, 192), ("d5", 2048, 8, 1920), ("d6", 31_250, 10, 23_040),
       ("e6", 41_472, 12, 51_840)],
)
def test_complete_exceptional_sequences_by_mutation(name, count, h, weyl):
    # n! h^n / |W| for rank n, Coxeter number h and Weyl group W; a sample of
    # the sequences are complete ones: every entry a positive root, and
    # <later, earlier> = 0
    n, arrows = int(name[1:]), _arrows(name)
    sequences = _sequences_by_mutation(name)
    assert len(sequences) == count == factorial(n) * h**n // weyl
    for seq in sequences[:: max(1, count // 500)]:
        assert all(min(x) >= 0 and euler_form(arrows, x, x) == 1 for x in seq)
        assert all(euler_form(arrows, seq[j], seq[i]) == 0
                   for i, j in combinations(range(n), 2))


@pytest.mark.parametrize("vertices", range(1, 8))
def test_simplices_of_an_count_noncrossing_forests(vertices):
    # independent oracle: s_{i,j} goes to the arc {i, j + 1} among n = N + 1
    # points on a circle, and the d-simplices of sc(a_N) are the noncrossing
    # forests of d + 1 arcs, k = n - d - 1 trees, which number
    # C(n, k - 1) C(3n - 2k - 1, n - k) / (2n - k) (Flajolet and Noy, 1999);
    # none has more than N arcs
    n = vertices + 1
    simps = sc_simplices(build_point_graph(f"a{vertices}"), vertices)
    want = {}
    for d in range(vertices):
        k = n - d - 1
        want[d + 1] = comb(n, k - 1) * comb(3 * n - 2 * k - 1, n - k) // (2 * n - k)
    assert Counter(map(len, simps)) == want


def test_simplex_walk_refuses_past_the_cap(monkeypatch, capsys):
    # sc(a5) has 1,082 simplices to full depth (the noncrossing forests):
    # exactly at the cap they are listed, one fewer and the walk is refused
    # with the cap and max_dim named, before the CLI writes anything
    from nccount import arith, cli

    g = build_point_graph("a5")
    monkeypatch.setattr(arith, "MAX_ENUMERATION", 1082)
    assert len(sc_simplices(g, 5)) == 1082
    monkeypatch.setattr(arith, "MAX_ENUMERATION", 1081)
    with pytest.raises(ValueError, match="cap of 1081 exceptional sets to max_dim 5$"):
        sc_simplices(g, 5)
    with pytest.raises(SystemExit) as exc:
        cli.run(["sc", "--category", "a5", "--max-dim", "5", "--format", "plain"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "cap of 1081 exceptional sets to max_dim 5" in captured.err


def _arc(label):
    # the vertex s_{i,j} of sc(a_N) goes to the arc {i, j + 1} among the N + 1
    # points 0..N on a circle
    i, j = map(int, label[1:].split(","))
    return i, j + 1


def _is_noncrossing_forest(arcs):
    # no two arcs cross (sharing an end is not crossing), and no cycle closes
    for (i, j), (k, m) in combinations(sorted(arcs), 2):
        if i < k < j < m:
            return False
    root = {}

    def find(v):
        while root.get(v, v) != v:
            v = root[v]
        return v

    for i, j in arcs:
        a, b = find(i), find(j)
        if a == b:
            return False
        root[a] = b
    return True


@pytest.mark.parametrize("vertices", range(1, 8))
def test_simplices_of_an_map_to_noncrossing_forests(vertices):
    # the arc map is injective on the N(N+1)/2 vertices, so onto all arcs,
    # and sends every simplex to a noncrossing forest; with the count of
    # noncrossing forests above, it is a bijection between the simplices and
    # the noncrossing forests
    g = build_point_graph(f"a{vertices}")
    assert len(set(map(_arc, g.vertices))) == len(g.vertices) == comb(vertices + 1, 2)
    for simplex in sc_simplices(g, vertices):
        assert _is_noncrossing_forest([_arc(v) for v in simplex]), simplex
    # the check itself: a crossing pair and a triangle are refused
    assert not _is_noncrossing_forest([(0, 2), (1, 3)])
    assert not _is_noncrossing_forest([(0, 1), (1, 2), (0, 2)])
    assert _is_noncrossing_forest([(0, 1), (1, 2), (0, 3)])


def test_simplex_validation():
    g = build_point_graph("a2")
    with pytest.raises(ValueError):
        sc_simplices(g, -1)


def test_export_dot():
    g = build_point_graph("np0")
    dot = "".join(export_lines(g, "dot"))
    assert dot.startswith("digraph G {")
    assert dot.endswith("}\n")
    assert '"s0,0" -> "s1,1" [label=1];' in dot
    g = build_point_graph("np-1")
    assert '"E1" -> "E2" [dir=both];' in "".join(export_lines(g, "dot"))
    with pytest.raises(ValueError):
        export_lines(g, "gml")
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        complex_lines(g, [], "xml")


def _reference_json(g):
    """The graph document built as one dict per edge, sorted by (src, dst)
    and serialized whole: the layout the streamed export must match."""
    edges = [
        {"src": s, "dst": t, "weight": w, "both": False}
        for (s, t), w in _one_sided(g).items()
    ]
    edges += [
        {"src": s, "dst": t, "weight": None, "both": True}
        for s, t in _double_sided(g)
    ]
    doc = {
        "category": g.category,
        "vertices": [{"id": v, "genus": g.genus.get(v)} for v in g.vertices],
        "edges": sorted(edges, key=lambda e: (e["src"], e["dst"])),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _reference_dot(g):
    quote = lambda s: '"' + s.replace('"', '\\"') + '"'  # noqa: E731
    lines = ["digraph G {"] + [f"  {quote(v)};" for v in g.vertices]
    for (s, t), w in _one_sided(g).items():
        label = f" [label={w}]" if w is not None else ""
        lines.append(f"  {quote(s)} -> {quote(t)}{label};")
    for s, t in _double_sided(g):
        lines.append(f"  {quote(s)} -> {quote(t)} [dir=both];")
    return "\n".join(lines + ["}"]) + "\n"


def _quoted_labels():
    # labels that JSON and DOT must escape, and a weight on a one-sided
    # edge next to an unweighted one
    return _hand_made('x"y', ['a"b', "\u00e9", "back\\slash", "plain"], {
        ('a"b', "\u00e9"): 7, ("\u00e9", 'a"b'): None,
        ("plain", "back\\slash"): None, ('a"b', "plain"): 2,
    })


# every category and curve graph: a1 has no edges, np-1 only a
# double-sided one, np3 weight-4 edges, and the q2 curves have genus
# -1, 0 and 1
_EXPORTED = [
    *((f"a{n}", None, False) for n in range(1, 6)),
    ("d4", None, False), ("np-1", None, False), ("np0", None, False),
    ("np1", (0, 4), False), ("np3", (-1, 3), False),
    ("q1", (0, 3), False), ("q2", (0, 3), False),
    ("d4", None, True), ("q1", (0, 2), True), ("q2", (0, 2), True),
    ("q2", (-1, 1), True),
]


def test_export_json_roundtrip():
    for name, window, curves in _EXPORTED:
        g = (build_curve_graph if curves else build_point_graph)(name, window)
        assert "".join(export_lines(g, "json")) == _reference_json(g), name
        assert "".join(export_lines(g, "dot")) == _reference_dot(g), name


def test_export_edge_cases():
    assert build_point_graph("a1").census() == (1, 0, 0)
    assert build_point_graph("np-1").census() == (2, 0, 1)
    doc = json.loads("".join(export_lines(build_point_graph("np3", (0, 3)), "json")))
    assert {e["weight"] for e in doc["edges"] if not e["both"]} == {4}
    genera = set(build_curve_graph("q2", (-1, 1)).genus.values())
    assert genera == {-1, 0, 1}
    for g in (_quoted_labels(), _hand_made("empty", [], {})):
        assert "".join(export_lines(g, "json")) == _reference_json(g)
        assert "".join(export_lines(g, "dot")) == _reference_dot(g)


def _complete(n):
    """n vertices, every pair joined: one-sided from the earlier vertex
    where the index sum is divisible by 3, double-sided otherwise, so the
    whole vertex set is a simplex of dimension n - 1."""
    vertices = [f"v{i:02d}" for i in range(n)]
    edges = {}
    for a, b in combinations(vertices, 2):
        edges[a, b] = 1
        if (int(a[1:]) + int(b[1:])) % 3:
            edges[b, a] = None
    return _hand_made("k", vertices, edges)


_COMPLEXES = {
    **{f"a{n}": (lambda n=n: build_point_graph(f"a{n}"), 7) for n in range(1, 6)},
    "d4": (lambda: build_point_graph("d4"), 9),
    "q1": (lambda: build_point_graph("q1", (0, 2)), 5),
    "q2": (lambda: build_point_graph("q2", (0, 1)), 4),
    "np2": (lambda: build_point_graph("np2", (0, 5)), 3),
    "np-1": (lambda: build_point_graph("np-1"), 2),
    # dimensions 10 and 11 sort before 2 as JSON keys
    "k12": (lambda: _complete(12), 11),
    "quoted": (_quoted_labels, 3),
    "empty": (lambda: _hand_made("empty", [], {}), 2),
}


@pytest.mark.parametrize("graph, max_dim", _COMPLEXES.values(), ids=_COMPLEXES)
@pytest.mark.parametrize("fmt", ["json", "plain"])
def test_complex_writer_matches_emit(capsys, graph, max_dim, fmt):
    # the sc document as the CLI built it whole and printed with _emit
    from nccount import cli

    g = graph()
    simps = sc_simplices(g, max_dim)
    by_dim = {}
    for s in simps:
        by_dim[len(s) - 1] = by_dim.get(len(s) - 1, 0) + 1
    doc = {
        "category": g.category,
        "simplices": [list(s) for s in simps],
        "counts_by_dim": {str(d): c for d, c in sorted(by_dim.items())},
    }
    cli._emit(doc, fmt)
    assert "".join(complex_lines(g, simps, fmt)) == capsys.readouterr().out


def test_export_deterministic():
    a = "".join(export_lines(build_point_graph("q2", window=(0, 3)), "json"))
    b = "".join(export_lines(build_point_graph("q2", window=(0, 3)), "json"))
    assert a == b


@lru_cache(maxsize=None)
def _graph(category, window=None):
    return build_point_graph(category, window)


def _is_simplex_by_orderings(g, subset):
    """Reference definition: some ordering of the subset is a chain in which
    every earlier vertex has an edge to every later one (k! orderings)."""
    edges = g.induced(subset)
    return any(
        all((p[i], p[j]) in edges for i in range(len(p)) for j in range(i + 1, len(p)))
        for p in permutations(subset)
    )


def _in_complex(g, subset):
    """True iff sc_simplices lists the subset among its simplices."""
    key = tuple(sorted(subset))  # vertices are indexed in label order
    return key in set(sc_simplices(g, len(subset) - 1))


@settings(deadline=None, max_examples=150)
@given(st.sampled_from([("a5", None), ("d4", None), ("q1", (0, 3))]), st.data())
def test_is_simplex_matches_ordering_search(graph, data):
    g = _graph(*graph)
    subset = data.draw(
        st.lists(st.sampled_from(g.vertices), min_size=1, max_size=6, unique=True)
    )
    assert _in_complex(g, subset) == _is_simplex_by_orderings(g, subset)


def _simplices_from_cliques(g, max_dim):
    """Independent oracle: networkx cliques of the joined-pair graph whose
    one-sided edges form a DAG (graphlib finds no cycle), sorted like
    sc_simplices."""
    joined = nx.Graph()
    joined.add_nodes_from(g.vertices)
    joined.add_edges_from(_edges(g))
    one_sided = _one_sided(g)
    out = []
    for clique in nx.enumerate_all_cliques(joined):
        if len(clique) > max_dim + 1:
            break
        preds = {v: [u for u in clique if (u, v) in one_sided] for v in clique}
        try:
            TopologicalSorter(preds).prepare()
        except CycleError:
            continue
        out.append(tuple(sorted(clique)))
    return sorted(out, key=lambda s: (len(s), s))


@pytest.mark.parametrize(
    "category, window, max_dim",
    [("a7", None, 5), ("d4", None, 8), ("q2", (0, 2), 8)],
)
def test_simplices_match_dag_cliques(category, window, max_dim):
    g = _graph(category, window)
    simps = sc_simplices(g, max_dim)
    assert simps == _simplices_from_cliques(g, max_dim)


def test_pair_graph_tests_distinct_objects_only():
    # a pair test that holds everywhere gives the complete double-sided
    # graph and no self-loop; its diagonal True breaks the record contract
    # on purpose, to show that pair_rows never reads the diagonal
    g = pair_graph(Category("all", {v: v for v in "xyz"}, lambda x, y: True,
                            lambda x, y: None))
    assert g.census() == (3, 0, 3)
    assert _edges(g) == {(a, b): None for a, b in permutations("xyz", 2)}


@st.composite
def random_digraphs(draw):
    """Up to 9 vertices, each pair unjoined, joined one way or both ways,
    so that one-sided cycles occur."""
    vertices = [f"v{i}" for i in range(draw(st.integers(0, 9)))]
    edges = {}
    for a, b in combinations(vertices, 2):
        kind = draw(st.sampled_from(("none", "ab", "ba", "both")))
        if kind in ("ab", "both"):
            edges[a, b] = draw(st.sampled_from((None, 1, 3)))
        if kind in ("ba", "both"):
            edges[b, a] = None
    return _hand_made("random", vertices, edges)


@settings(deadline=None, max_examples=300)
@given(random_digraphs(), st.integers(0, 8), st.data())
def test_simplices_of_random_digraphs(g, max_dim, data):
    simps = sc_simplices(g, max_dim)
    assert simps == _simplices_from_cliques(g, max_dim)
    assert all(_is_simplex_by_orderings(g, s) for s in simps)
    if g.vertices:  # sc_simplices lists no empty simplex
        subset = data.draw(
            st.lists(st.sampled_from(g.vertices), min_size=1, max_size=6, unique=True)
        )
        assert _in_complex(g, subset) == _is_simplex_by_orderings(g, subset)
