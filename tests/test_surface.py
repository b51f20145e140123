"""The public library surface that no code in src/ calls.

A public top-level name that nothing in src/ references outside its own
definition, and a public method or property of a top-level class that
nothing in src/ reads as an attribute `.name` outside its own definition,
is API reached only from tests or from outside.  Each such name
(`module.name`) and member (`module.Class.name`) must be pinned below on
purpose, so that a second code path cannot grow back unnoticed: give a new
name or member a caller in src/, or pin it here with its reason.  A member
counts only attribute reads, so a local variable that shares its name is
no caller.  A private name stays inside its module: no module imports
another's.
"""

import ast
from collections import Counter
from pathlib import Path

import nccount

# named by the README or by the acceptance criteria
NAMED = {
    "affine.classify_generator_pair",
    "digraph.q1_pattern_subgraphs",
    "incidence.derived_points",
    "incidence.intersect_curves",
    "markov.count_c",
    "markov.exceptional_slopes",
    "markov.markov_numbers",
    "typea.enum_seqs",
    "typea.seq_to_subcategory",
}
# results of the paper: the bijection to subgons, the periods of d-additive
# sequences, the affine pair classes and vanishing classes (the affine
# graphs read the rule of aff_pair_class from affine.RULES, as the d4 record
# reads d4.RULE), and the paper's ch2 of a Chern pair, fixed by
# chi(E, E) = 1
RESULTS = {
    "affine.aff_pair_class",
    "affine.aff_vanishing",
    "markov.ChernPair.ch2",
    "necklace.seq_to_subgon",
    "typea.period",
}
# oracles and the inputs the tests build them from (quiver.line_quiver gives
# the arrows of the A_N quiver to tests/ and to bench/tests), and the
# brute-force least rotation of a subgon
ORACLES = {
    "markov.normalized_slope",
    "necklace.Subgon.canonical",
    "quiver.line_quiver",
    "typea.enum_genus_minus1",
}
# checked constructors of the value types
CONSTRUCTORS = {
    "affine.subcat",
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


def _trees(src):
    return {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}


def callerless_names(src=Path(nccount.__file__).parent):
    trees = _trees(src)
    reads = [(node, _referenced(node)) for tree in trees.values() for node in tree.body]
    return {
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, own in _defined_names(tree)
        if not any(name in names for node, names in reads if node is not own)
    }


def _members(tree):
    """(class name, node) for each public method and property of each
    top-level class of a module."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield cls.name, node


def _attribute_reads(node):
    """How often a node reads each attribute name, as `.name`."""
    return Counter(
        n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    )


def callerless_members(src=Path(nccount.__file__).parent):
    trees = _trees(src)
    reads = sum(map(_attribute_reads, trees.values()), Counter())
    return {
        f"{module}.{cls}.{node.name}"
        for module, tree in trees.items()
        for cls, node in _members(tree)
        if reads[node.name] == _attribute_reads(node)[node.name]
    }


def test_callerless_public_names_are_pinned():
    pinned = NAMED | RESULTS | ORACLES | CONSTRUCTORS
    assert callerless_names() | callerless_members() == pinned


def test_no_module_imports_a_private_name():
    # a private name is its module's own; every `from .m import _x`, at top
    # level or inside a function, reaches into another module
    reach_ins = {
        f"{module}: from {node.module} import {alias.name}"
        for module, tree in _trees(Path(nccount.__file__).parent).items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert not reach_ins


def test_scan_sees_a_callerless_name(tmp_path):
    # the scan itself: a name read only inside its own definition counts as
    # callerless, one read from elsewhere does not
    (tmp_path / "m.py").write_text(
        "def loop(n):\n    return loop(n - 1) if n else 0\n\n"
        "def used():\n    return 1\n\n"
        "X = used()\n"
    )
    assert callerless_names(tmp_path) == {"m.loop", "m.X"}


def test_scan_sees_a_callerless_member(tmp_path):
    # a method read only inside its own body counts as callerless, one read
    # as obj.method() from another function does not, and a local variable
    # that shares a method's name is no caller
    (tmp_path / "m.py").write_text(
        "class C:\n"
        "    def loop(self, n):\n        return self.loop(n - 1) if n else 0\n\n"
        "    def used(self):\n        return 1\n\n"
        "def f(obj):\n    loop = obj.used()\n    return loop\n"
    )
    assert callerless_members(tmp_path) == {"m.C.loop"}
