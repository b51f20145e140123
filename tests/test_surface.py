"""The public library surface that no code in src/ calls.

A public top-level name that nothing in src/ references outside its own
definition is API reached only from tests or from outside.  Each such name
must be pinned below on purpose, so that a second code path cannot grow
back unnoticed: give a new name a caller in src/, or pin it here with its
reason.
"""

import ast
from pathlib import Path

import nccount

# named by the README or by the acceptance criteria
NAMED = {
    "affine.classify_generator_pair",
    "digraph.q1_pattern_subgraphs",
    "incidence.derived_points",
    "incidence.glb",
    "incidence.intersect_curves",
    "markov.count_c",
    "markov.markov_numbers",
    "necklace.count_subgon_classes",
    "typea.enum_seqs",
    "typea.genus_minus1_orbits",
    "typea.seq_to_subcategory",
    "typea.serre_step",
}
# results of the paper: the bijection to subgons, d-additive sequences and
# their periods, the affine vanishing classes, the A_N point orbits, and the
# Serre orbits on X_n^k as sequences, whose sizes and periods the tests read
# (the CLI counts the orbits of the value tuples, typea.seq_orbits)
RESULTS = {
    "affine.aff_vanishing",
    "necklace.seq_to_subgon",
    "typea.count_d_additive",
    "typea.orbit_partition",
    "typea.period",
    "typea.point_orbits",
}
# oracles and the inputs the tests build them from
ORACLES = {
    "markov.normalized_slope",
    "quiver.line_quiver",
    "typea.enum_genus_minus1",
}
# checked constructors of the value types, and a graph as one string
CONSTRUCTORS = {
    "affine.subcat",
    "digraph.export",
    "typea.monotone_seq",
}


def _defined_names(tree):
    """(name, node) for each public top-level function, class and
    assignment of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in targets if not name.startswith("_"))


def _referenced(node):
    """Every name a node reads, bare or as an attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        or isinstance(n, ast.Attribute)
    }


def callerless_names(src=Path(nccount.__file__).parent):
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    reads = [(node, _referenced(node)) for tree in trees.values() for node in tree.body]
    return {
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, own in _defined_names(tree)
        if not any(name in names for node, names in reads if node is not own)
    }


def test_callerless_public_names_are_pinned():
    assert callerless_names() == NAMED | RESULTS | ORACLES | CONSTRUCTORS


def test_scan_sees_a_callerless_name(tmp_path):
    # the scan itself: a name read only inside its own definition counts as
    # callerless, one read from elsewhere does not
    (tmp_path / "m.py").write_text(
        "def loop(n):\n    return loop(n - 1) if n else 0\n\n"
        "def used():\n    return 1\n\n"
        "X = used()\n"
    )
    assert callerless_names(tmp_path) == {"m.loop", "m.X"}
