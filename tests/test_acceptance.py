"""Acceptance criteria, one test per criterion.

All arithmetic is exact, so every comparison is plain equality.  Each
criterion prints a PASS line when it goes through, visible under
``python3 -m pytest tests/test_acceptance.py -s``; a failure raises.
"""

from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations
from math import comb, gcd

import networkx as nx
from oracles import label_census

from nccount import (
    INFINITE, GenSet, affine, arith, d4, digraph, incidence, markov,
    necklace, typea,
)
from nccount.quiver import PairClass, pair_class


def _ok(num, text):
    print(f"ACCEPTANCE {num:>2} PASS: {text}")


def test_criterion_01_identity_counts():
    for vertices in range(1, 13):
        for k in range(1, vertices + 1):
            expected = comb(vertices + 1, k + 1)
            assert typea.count_id(k, vertices) == expected
            assert len(typea.enum_seqs(vertices - 1, k)) == expected
        assert typea.count_id(vertices, vertices) == 1
        for k in range(vertices + 1, vertices + 4):
            assert typea.count_id(k, vertices) == 0
    _ok(1, "identity-level counts are the binomial values (N <= 12)")


def test_criterion_02_moebius_formula_vs_brute():
    for vertices in range(1, 13):
        for k in range(1, vertices + 1):
            assert typea.count_orbits_formula(k, vertices) == typea.count_orbits_brute(
                k, vertices
            ), (k, vertices)
    assert typea.count_orbits_formula(2, 5) == 4
    assert typea.count_orbits_formula(3, 6) == 5
    _ok(2, "Moebius divisor-sum formula equals brute-force orbit counts")


def test_criterion_03_necklace_equivalence():
    for n in range(1, 13):
        for k in range(1, n + 1):
            assert necklace.count_subgon_classes(n + 2, k + 1) == (
                typea.count_orbits_brute(k, n + 1)
            ), (n, k)
            # the polygon bijection: the Serre orbits on X_n^k, partitioned
            # from the sequences themselves, are the rotation classes of
            # (k+1)-subsets of the (n+2)-gon
            assert len(arith.orbits(typea.enum_seqs(n, k), typea.serre_step)) == (
                necklace.count_subgon_classes(n + 2, k + 1)
            ), (n, k)
    assert necklace.count_subgon_classes(6, 3) == 4
    assert necklace.count_subgon_classes(7, 4) == 5
    for m in range(1, 25):
        for s in range(1, m + 1):
            assert necklace.count_subgon_classes_burnside(m, s) == (
                necklace.count_subgon_classes_brute(m, s)
            ), (m, s)
    _ok(3, "polygon rotation classes match orbit counts; Burnside == brute")


def test_criterion_04_serre_order_and_orbit_sizes():
    for n in range(1, 13):
        for k in range(1, n + 1):
            divs = typea.divisors_of_kn(k, n)
            for orb in typea.orbit_partition(n, k):
                first = orb[0]
                cur = first
                for _ in range(n + 2):
                    cur = typea.serre_step(cur)
                assert cur == first
                d_hits = [d for d in divs if d * (n + 2) == len(orb) * (k + 1)]
                assert len(d_hits) == 1, (n, k, len(orb))
                zeros = [s for s in orb if s.values[0] == 0]
                assert len(zeros) == d_hits[0]
    _ok(4, "Serre step has order n+2; orbit sizes d(n+2)/(k+1) with d zeros")


def test_criterion_05_d_additive_census():
    for n in range(1, 13):
        for k in range(1, n + 1):
            seqs = typea.enum_seqs(n, k)
            for d in typea.divisors_of_kn(k, n):
                count = sum(1 for s in seqs if typea.is_d_additive(s, d))
                assert count == comb(d * (n + 2) // (k + 1) - 1, d - 1), (n, k, d)
    _ok(5, "d-additive censuses equal their binomial closed forms")


def test_criterion_06_type_a_genus_counts():
    for vertices in range(1, 12):
        n = vertices - 1
        assert typea.count_genus(-1, vertices, "id") == 2 * comb(n + 2, 4)
        assert typea.count_genus(0, vertices, "id") == comb(n + 2, 3)
        # closed forms for the quotient counts
        if n % 2 == 1:
            expected_m1 = (n - 1) * n * (n + 1) // 12
        else:
            expected_m1 = n * (n * n + 2) // 12
        assert typea.count_genus(-1, vertices, "full") == expected_m1
        if (n - 1) % 3 != 0:
            expected_0 = (n + 1) * n // 6
        else:
            expected_0 = ((n + 1) * n + 4) // 6
        assert typea.count_genus(0, vertices, "full") == expected_0
        # brute-force orbit partitions agree: the orbit helper under the
        # Serre step on the sorted orthogonal pairs, each interval stepped as
        # its sequence of X_n^1
        def step(pair):
            seqs = (typea.MonotoneSeq(n, 1, tuple(iv)) for iv in pair.generators)
            images = (typea.Interval(*typea.serre_step(s).values) for s in seqs)
            return GenSet(tuple(sorted(images)))

        orbits = arith.orbits(typea.enum_genus_minus1(n), step)
        assert len(orbits) == expected_m1
        if vertices >= 2:
            assert typea.count_orbits_brute(2, vertices) == expected_0
        # orbit-size census: n/2 short orbits for even n, none for odd n
        sizes = sorted(len(o) for o in orbits)
        if n % 2 == 0:
            assert sizes.count(n // 2 + 1) == n // 2
            assert all(s == n + 2 for s in sizes if s != n // 2 + 1)
        else:
            assert all(s == n + 2 for s in sizes)
    _ok(6, "genus -1/0 counts: closed forms == brute orbits (N <= 11)")


def test_criterion_07_d4_tables():
    tables = d4.d4_tables()  # computed by orbit partition
    assert tables["points"] == {"id": 12, "kappa": 6, "serre": 4, "full": 2}
    assert tables["genusMinus1"] == {"id": 9, "kappa": 3, "serre": 3, "full": 1}
    assert tables["genus0"] == {"id": 15, "kappa": 5, "serre": 5, "full": 3}
    assert tables["triples-A3"] == {"id": 9, "kappa": 3, "serre": 3, "full": 1}
    assert tables["triples-A1cubed"] == {"id": 3, "kappa": 3, "serre": 1, "full": 1}
    _ok(7, "all five D4 orbit-count tables reproduced by orbit partition")


def test_criterion_08_d4_classifier_vs_tables():
    orthogonal = {frozenset((f"s{i}", f"s{j}")) for i, j in combinations("123", 2)}
    orthogonal |= {frozenset((f"s{i}o", f"s{j}o")) for i, j in combinations("123", 2)}
    orthogonal |= {
        frozenset((a, b)) for a, b in combinations(("s12", "s13", "s23"), 2)
    }
    hom_one = set()
    for i, j, k in permutations("123", 3):
        if i < j:
            sij = f"s{i}{j}"
            hom_one |= {("delta", sij), (sij, f"s{k}o"), (sij, "s123"), (f"s{k}", sij)}
    for i in "123":
        hom_one |= {
            (f"s{i}o", "delta"), ("s123", f"s{i}"),
            (f"s{i}", "so"), (f"s{i}o", f"s{i}"), ("so", f"s{i}o"),
        }
    for i, j in permutations("123", 2):
        sij = f"s{min(i, j)}{max(i, j)}"
        hom_one |= {(f"s{i}", f"s{j}o"), (sij, f"s{i}"), (f"s{j}o", sij)}
    assert len(orthogonal) == 9 and len(hom_one) == 45
    checked = 0
    d4_pair_class = partial(pair_class, *d4.RULE)
    for a, b in permutations(d4.LABELS, 2):
        got = d4_pair_class(a, b)
        if frozenset((a, b)) in orthogonal:
            assert got is PairClass.ORTHOGONAL, (a, b)
        elif (a, b) in hom_one:
            assert got is PairClass.HOM_ONE, (a, b)
        else:
            assert got is PairClass.NOT_EXCEPTIONAL, (a, b)
        checked += 1
    assert checked == 132
    _ok(8, "Euler-form classifier matches the transcribed lists on 132 pairs")


def test_criterion_09_affine_tables():
    expected = {
        ("q1", "genus-1"): (0, 0, 0),
        ("q1", "genus0"): (INFINITE, 3, 1),
        ("q1", "genus1"): (2, 1, 1),
        ("q2", "genus-1"): (INFINITE, 4, 2),
        ("q2", "genus0"): (INFINITE, 8, 1),
        ("q2", "genus1"): (4, 2, 1),
        ("q2", "triples-a3"): (INFINITE, 4, 1),
        ("q2", "triples-q1"): (4, 2, 1),
    }
    for (quiver, kind), row in expected.items():
        got = tuple(aff for aff in (
            affine.aff_count(quiver, kind, "id"),
            affine.aff_count(quiver, kind, "serre"),
            affine.aff_count(quiver, kind, "full"),
        ))
        assert got == row, (quiver, kind, got)
    # the infinite entries: windowed enumerations grow strictly and stay
    # injective / pairwise disjoint on every window
    for quiver, genus in [("q1", 0), ("q2", -1), ("q2", 0)]:
        prev = -1
        for w in range(1, 7):
            members = affine.aff_enum_curves(quiver, genus, (0, w - 1))
            assert len(set(members)) == len(members) > prev
            prev = len(members)
    _ok(9, "affine count tables, with windowed growth for infinite entries")


def test_criterion_10_markov_p2():
    assert markov.markov_numbers(200) == [1, 2, 5, 13, 29, 34, 89, 169, 194]
    expected_slopes = {
        Fraction(0, 1), Fraction(1, 2), Fraction(2, 5), Fraction(5, 13),
        Fraction(12, 29), Fraction(13, 34), Fraction(34, 89),
        Fraction(70, 169), Fraction(75, 194),
    }
    assert markov.exceptional_slopes(200) == expected_slopes
    counts = [markov.count_c(m, "full") for m in markov.markov_numbers(200)]
    assert counts == [1, 1, 2, 2, 2, 2, 2, 2, 2]
    for m in markov.markov_numbers(200):
        assert markov.count_c(m, "serre") == 3 * markov.count_c(m, "full")
    ranks = set()
    for t in markov.generate_triples(200):
        r1, r2, r3 = t.ranks()
        assert r1 * r1 + r2 * r2 + r3 * r3 == 3 * r1 * r2 * r3
        for e in t.entries:
            assert markov.euler_chi(e, e) == 1
            assert gcd(e.r, e.c) == 1
            ranks.add(e.r)
    # occupied genus levels are exactly 3m - 1 over the Markov numbers
    assert {3 * r - 1 for r in ranks} == {
        3 * m - 1 for m in markov.markov_numbers(200)
    }
    _ok(10, "Markov numbers, slope list, residue counts and invariants")


def _one_sided(g):
    """The edges of g whose reverse is missing, with their weights."""
    edges = g.induced(g.vertices)
    return {(s, t): w for (s, t), w in edges.items() if (t, s) not in edges}


def test_criterion_11_graph_censuses():
    assert digraph.build_point_graph("a3").census() == (6, 12, 2)
    g = digraph.build_point_graph("d4")
    assert g.census()[0] == 12
    assert g.census()[1] + g.census()[2] == 54
    assert digraph.build_point_graph("np-1").census() == (2, 0, 1)
    g = digraph.build_point_graph("np0")
    assert g.census() == (3, 3, 0)
    assert all(w == 1 for w in _one_sided(g).values())
    for l in (1, 2, 3):
        g = digraph.build_point_graph(f"np{l}", window=(0, 5))
        assert g.census() == (6, 5, 0)
        assert all(w == l + 1 for w in _one_sided(g).values())
    g = digraph.build_point_graph("q1", window=(0, 5))
    twos = {e for e, w in _one_sided(g).items() if w == 2}
    assert twos == {(f"a^{i}", f"a^{i + 1}") for i in range(5)} | {
        (f"b^{i}", f"b^{i + 1}") for i in range(5)
    }
    g = digraph.build_curve_graph("d4")
    dg = nx.DiGraph(list(g.induced(g.vertices)))
    assert sorted(dg) == g.vertices
    assert sorted(map(len, nx.weakly_connected_components(dg))) == [3, 3, 6, 6, 6]
    assert all(dg.in_degree(v) == 1 and dg.out_degree(v) == 1 for v in g.vertices)
    assert len(digraph.q1_pattern_subgraphs((0, 4))) == 4
    _ok(11, "all point- and curve-graph censuses match")


def test_criterion_12_incidence_structures():
    a3 = incidence.incidence_structure("a3")
    assert len(a3.points) == 6 and len(a3.lines) == 4
    assert len(a3.incidences()) == 12
    degree = Counter(p for _, pts in a3.lines for p in pts)
    assert all(degree[p] == 2 for p in a3.points)
    s = incidence.incidence_structure("d4")
    assert len(s.points) == 12 and len(s.lines) == 15
    assert len(s.incidences()) == 45
    degree = Counter(p for _, pts in s.lines for p in pts)
    assert {p for p in s.points if degree[p] == 3} == {"delta", "so", "s123"}
    for struct, cat in ((a3, "a3"), (s, "d4")):
        for (_, p1), (_, p2) in combinations(struct.lines, 2):
            assert len(set(p1) & set(p2)) <= 1
        for _, pts in struct.lines:
            assert len(pts) == 3
    # each pair of derived points regenerates its curve
    objects = {x: x for x in d4.LABELS}
    genus0_curves = [
        s for s in label_census(objects, d4.RULE[0], 2) if len(s) == 3]
    for curve in genus0_curves:
        for x, y in combinations(sorted(curve), 2):
            assert incidence.derived_points((x, y), "d4") == curve
    for seq in typea.enum_seqs(2, 2):
        triple = incidence.derived_points(typea.seq_to_subcategory(seq), "a3")
        for x, y in combinations(sorted(triple), 2):
            assert incidence.derived_points(GenSet((x, y)), "a3") == triple
    _ok(12, "A3 and D4 incidence structures, concurrency points included")


def test_criterion_13_functorial_embedding():
    for vertices in range(1, 7):
        small = digraph.build_point_graph(f"a{vertices}")
        big = digraph.build_point_graph(f"a{vertices + 1}")
        assert set(small.vertices) <= set(big.vertices)
        small_edges, big_edges = small.induced(small.vertices), big.induced(big.vertices)
        for x, y in permutations(small.vertices, 2):
            assert ((x, y) in small_edges) == ((x, y) in big_edges)
            if (x, y) in small_edges and (y, x) not in small_edges:
                assert small_edges[(x, y)] == big_edges[(x, y)]
    _ok(13, "point graphs embed fully with weights along A(N) in A(N+1)")

