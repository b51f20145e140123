import json
from collections import defaultdict
from functools import lru_cache
from graphlib import CycleError, TopologicalSorter
from itertools import combinations, permutations
from math import factorial

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nccount.category import category
from nccount.digraph import (
    ValuedDigraph,
    build_curve_graph,
    build_point_graph,
    complex_lines,
    export,
    export_lines,
    q1_pattern_subgraphs,
    sc_simplices,
)


def test_a3_point_graph_census():
    g = build_point_graph("a3")
    assert g.census() == (6, 12, 2)
    assert set(g.double_sided_pairs()) == {("s0,0", "s2,2"), ("s0,2", "s1,1")}
    assert all(g.weight(s, t) == 1 for s, t in g.one_sided_edges())


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
    assert all(g.weight(s, t) == 1 for s, t in g.one_sided_edges())
    assert g.category == "np0"
    for l in (1, 2, 5):
        g = build_point_graph(f"np{l}", window=(0, 6))
        assert g.census() == (7, 6, 0)
        for i in range(6):
            assert g.weight(f"s{i}", f"s{i + 1}") == l + 1


def test_category_parsing():
    with pytest.raises(ValueError):
        build_point_graph("e6")
    with pytest.raises(ValueError):
        build_point_graph("q1")  # window required
    with pytest.raises(ValueError):
        build_point_graph("q1", window=(3, 1))
    with pytest.raises(ValueError):
        build_point_graph("np-2")


def test_q1_window_weights():
    g = build_point_graph("q1", window=(0, 5))
    twos = {(s, t) for s, t in g.one_sided_edges() if g.weight(s, t) == 2}
    expected = {(f"a^{i}", f"a^{i + 1}") for i in range(5)}
    expected |= {(f"b^{i}", f"b^{i + 1}") for i in range(5)}
    assert twos == expected
    assert all(
        g.weight(s, t) in (1, 2) for s, t in g.one_sided_edges()
    )
    assert not g.double_sided_pairs()  # no orthogonal pairs on q1


def test_q2_window_weights_and_doubles():
    g = build_point_graph("q2", window=(0, 4))
    twos = {(s, t) for s, t in g.one_sided_edges() if g.weight(s, t) == 2}
    expected = {
        (f"{x}^{i}", f"{x}^{i + 1}") for x in "abcd" for i in range(4)
    }
    assert twos == expected
    doubles = set(g.double_sided_pairs())
    assert ("F+", "F-") in doubles
    assert ("c^2", "d^2") in doubles
    assert ("a^1", "b^2") in doubles


def test_edge_criterion_matches_pair_classifier():
    # cross-module consistency: (a, b) is an edge iff the generators form
    # an exceptional pair under the Euler-form classifier
    from itertools import combinations

    from nccount.quiver import d4_quiver, euler_form, line_quiver
    from nccount import d4 as d4mod
    from nccount.typea import enum_points, interval_dim

    for vertices in range(1, 7):
        n = vertices - 1
        q = line_quiver(n)
        g = build_point_graph(f"a{vertices}")
        for x, y in combinations(enum_points(n), 2):
            for a, b in ((x, y), (y, x)):
                # all homs from b to a vanish
                expected = euler_form(q, interval_dim(b, n), interval_dim(a, n)) == 0
                assert g.has_edge(str(a), str(b)) == expected
    q = d4_quiver()
    g = build_point_graph("d4")
    for a, b in permutations(d4mod.LABELS, 2):
        expected = euler_form(q, d4mod.DIMS[b], d4mod.DIMS[a]) == 0
        assert g.has_edge(a, b) == expected


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
            weighted = not cat.is_pair(y, x) and cat.total_hom is not None
            want[(a, b)] = cat.total_hom(x, y) if weighted else None
    assert g.vertices == sorted(cat.objects)
    assert g.induced(g.vertices) == want


def test_point_graph_embeds_in_bigger_one():
    # the interval-relabelled inclusion preserves edges and weights
    for vertices in range(2, 7):
        small = build_point_graph(f"a{vertices}")
        big = build_point_graph(f"a{vertices + 1}")
        for x, y in permutations(small.vertices, 2):
            assert small.has_edge(x, y) == big.has_edge(x, y), (x, y)
            if small.has_edge(x, y):
                assert small.weight(x, y) == big.weight(x, y)


def test_d4_curve_graph_structure():
    g = build_curve_graph("d4")
    assert len(g.vertices) == 24
    assert len(g.one_sided_edges()) == 24
    assert not g.double_sided_pairs()
    for v in g.vertices:
        assert g.out_degree(v) == 1
        assert g.in_degree(v) == 1
    comps = g.undirected_components()
    assert sorted(len(c) for c in comps) == [3, 3, 6, 6, 6]
    for comp in comps:
        genera = {g.genus[v] for v in comp}
        if len(comp) == 3:
            assert genera == {0}
        else:
            assert genera == {0, -1}
            # alternation: each step of the cycle flips the genus
            for v in comp:
                (w,) = g.successors(v)
                assert g.genus[v] != g.genus[w]


def test_d4_curve_graph_rejects_window():
    with pytest.raises(ValueError, match="d4 takes no window"):
        build_curve_graph("d4", window=(0, 3))
    assert build_curve_graph("d4").census()[0] == 24


def test_q2_curve_graph_cycles():
    g = build_curve_graph("q2", window=(-2, 2))
    for cycle in (["C", "FG-", "D", "FG+"], ["A", "F+-", "B", "G+-"]):
        for i, v in enumerate(cycle):
            w = cycle[(i + 1) % 4]
            assert g.has_edge(v, w), (v, w)
            assert g.out_degree(v) == 1 and g.in_degree(v) == 1
    # genus alternates 1 / -1 around these squares
    assert g.genus["C"] == 1 and g.genus["FG-"] == -1
    # genus -1 chain: <d,c>^m -> <a,b>^m -> <d,c>^{m+1}
    assert g.has_edge("CD^0", "AB^0")
    assert g.has_edge("AB^0", "CD^1")
    # genus 0 chain from the classification of spanning pairs
    assert g.has_edge("aF+^0", "cF-^1")
    assert g.has_edge("cF-^1", "bG-^2")
    assert g.has_edge("bG-^0", "dG+^0")
    assert g.has_edge("dG+^0", "aF+^0")


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
    chains = set()
    for p in permutations(g.vertices, 3):
        if all(g.has_edge(p[i], p[j]) for i in range(3) for j in range(i + 1, 3)):
            chains.add(tuple(sorted(p)))
    two = {s for s in simps if len(s) == 3}
    assert two == chains
    assert len(two) > 0


def test_simplices_d4_full_collections():
    g = build_point_graph("d4")
    three = [s for s in sc_simplices(g, 3) if len(s) == 4]
    # independent oracle: count semi-orthogonal 4-chains and group by set
    by_set = defaultdict(int)
    for p in permutations(g.vertices, 4):
        if all(g.has_edge(p[i], p[j]) for i in range(4) for j in range(i + 1, 4)):
            by_set[tuple(sorted(p))] += 1
    assert set(three) == set(by_set)
    assert all(_is_simplex_by_orderings(g, s) for s in three)


@pytest.mark.parametrize(
    "name, rank, h, weyl",
    [("d4", 4, 6, 192)] + [(f"a{n}", n, n + 1, factorial(n + 1)) for n in range(1, 6)],
)
def test_complete_exceptional_sequences(name, rank, h, weyl):
    # independent oracle: the semi-orthogonal orderings of the top simplices
    # are the complete exceptional sequences up to shift, which number
    # n! h^n / |W| for a Dynkin quiver of rank n, Coxeter number h and Weyl
    # group W (Deligne; Obaid, Nauman, Al-Shammakh, Fakieh and Ringel)
    g = build_point_graph(name)
    top = [s for s in sc_simplices(g, rank - 1) if len(s) == rank]
    sequences = sum(
        all(g.has_edge(p[i], p[j]) for i, j in combinations(range(rank), 2))
        for s in top
        for p in permutations(s)
    )
    assert sequences == factorial(rank) * h**rank // weyl
    if name == "d4":
        assert (len(top), sequences) == (87, 162)


def test_simplex_validation():
    g = build_point_graph("a2")
    with pytest.raises(ValueError):
        sc_simplices(g, -1)


def test_export_dot():
    g = build_point_graph("np0")
    dot = export(g, "dot")
    assert dot.startswith("digraph G {")
    assert dot.endswith("}\n")
    assert '"s0,0" -> "s1,1" [label=1];' in dot
    g = build_point_graph("np-1")
    assert '"E1" -> "E2" [dir=both];' in export(g, "dot")
    with pytest.raises(ValueError):
        export(g, "gml")


def _reference_json(g):
    """The graph document built as one dict per edge, sorted by (src, dst)
    and serialized whole: the layout the streamed export must match."""
    edges = [
        {"src": s, "dst": t, "weight": g.weight(s, t), "both": False}
        for s, t in g.one_sided_edges()
    ]
    edges += [
        {"src": s, "dst": t, "weight": None, "both": True}
        for s, t in g.double_sided_pairs()
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
    for s, t in g.one_sided_edges():
        w = g.weight(s, t)
        label = f" [label={w}]" if w is not None else ""
        lines.append(f"  {quote(s)} -> {quote(t)}{label};")
    for s, t in g.double_sided_pairs():
        lines.append(f"  {quote(s)} -> {quote(t)} [dir=both];")
    return "\n".join(lines + ["}"]) + "\n"


def _quoted_labels():
    # labels that JSON and DOT must escape, and a weight on a one-sided
    # edge next to an unweighted one
    g = ValuedDigraph('x"y', ['a"b', "\u00e9", "back\\slash", "plain"])
    g.add_edge('a"b', "\u00e9", 7)
    g.add_edge("\u00e9", 'a"b')
    g.add_edge("plain", "back\\slash")
    g.add_edge('a"b', "plain", 2)
    return g


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
        doc = export(g, "json")
        assert doc == _reference_json(g), name
        assert export(g, "dot") == _reference_dot(g), name


def test_export_edge_cases():
    assert build_point_graph("a1").census() == (1, 0, 0)
    assert build_point_graph("np-1").census() == (2, 0, 1)
    np3 = build_point_graph("np3", (0, 3))
    assert {np3.weight(s, t) for s, t in np3.one_sided_edges()} == {4}
    genera = set(build_curve_graph("q2", (-1, 1)).genus.values())
    assert genera == {-1, 0, 1}
    for g in (_quoted_labels(), ValuedDigraph("empty", [])):
        assert export(g, "json") == _reference_json(g)
        assert export(g, "dot") == _reference_dot(g)
        assert "".join(export_lines(g, "json")) == export(g, "json")


def _complete(n):
    """n vertices, every pair joined: one-sided from the earlier vertex
    where the index sum is divisible by 3, double-sided otherwise, so the
    whole vertex set is a simplex of dimension n - 1."""
    g = ValuedDigraph("k", [f"v{i:02d}" for i in range(n)])
    for a, b in combinations(g.vertices, 2):
        g.add_edge(a, b, 1)
        if (int(a[1:]) + int(b[1:])) % 3:
            g.add_edge(b, a)
    return g


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
    "empty": (lambda: ValuedDigraph("empty", []), 2),
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
    a = export(build_point_graph("q2", window=(0, 3)), "json")
    b = export(build_point_graph("q2", window=(0, 3)), "json")
    assert a == b


@lru_cache(maxsize=None)
def _graph(category, window=None):
    return build_point_graph(category, window)


def _is_simplex_by_orderings(g, subset):
    """Reference definition: some ordering of the subset is a chain in which
    every earlier vertex has an edge to every later one (k! orderings)."""
    return any(
        all(g.has_edge(p[i], p[j]) for i in range(len(p)) for j in range(i + 1, len(p)))
        for p in permutations(subset)
    )


def _in_complex(g, subset):
    """True iff sc_simplices lists the subset among its simplices."""
    key = tuple(sorted(subset, key=g.index.get))
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
    joined.add_edges_from(g.one_sided_edges())
    joined.add_edges_from(g.double_sided_pairs())
    one_sided = set(g.one_sided_edges())
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


def test_adjacency_accessors_match_edge_scan():
    twice = ValuedDigraph("t", ["x", "y"])
    twice.add_edge("x", "y", 1)
    twice.add_edge("x", "y", 2)  # re-adding an edge only replaces its weight
    graphs = [
        twice,
        _graph("a4"),
        _graph("d4"),
        _graph("q2", (0, 3)),
        build_curve_graph("d4"),
        build_curve_graph("q2", window=(-1, 1)),
    ]
    for g in graphs:
        edges = g.induced(g.vertices)
        for v in g.vertices:
            assert g.out_degree(v) == sum(1 for s, _ in edges if s == v)
            assert g.in_degree(v) == sum(1 for _, t in edges if t == v)
            assert g.successors(v) == sorted(t for s, t in edges if s == v)


@st.composite
def random_digraphs(draw):
    """Up to 9 vertices, each pair unjoined, joined one way or both ways,
    so that one-sided cycles occur."""
    g = ValuedDigraph("random", [f"v{i}" for i in range(draw(st.integers(0, 9)))])
    for a, b in combinations(g.vertices, 2):
        kind = draw(st.sampled_from(("none", "ab", "ba", "both")))
        if kind in ("ab", "both"):
            g.add_edge(a, b, draw(st.sampled_from((None, 1, 3))))
        if kind in ("ba", "both"):
            g.add_edge(b, a)
    return g


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
