"""Every name the package defines is read somewhere in the package.

A module-level function, class or constant, or a class member, that nothing
in ``src/bergman_heat`` loads outside its own definition is dead code,
unless it is one of the test oracles, fixture constructors or result fields
that ROADMAP names.  Names are matched by their bare spelling, as a plain
name or as an attribute, across all modules.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bergman_heat"

ALLOWED = {"multiplication_matrix", "matrix_free_norm", "log_map",
           "geodesic_distance", "BergmanEvaluator.kernel",
           "fubini_study_form", "section_basis",
           "DecayProbe.min_distance", "NearDiagonalProbe.center_residual"}


def _assigned_names(node):
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _definitions(tree):
    """(qualified name, bare name, node) of every module-level function,
    class and constant, and of every method and field of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for name in _assigned_names(node):
                yield name, name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    names = [member.name]
                elif isinstance(member, (ast.Assign, ast.AnnAssign)):
                    names = _assigned_names(member)
                else:
                    continue
                for name in names:
                    yield f"{node.name}.{name}", name, member


def _loads(tree):
    """(bare name, line) of every name or attribute the module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            yield node.attr, node.lineno


def unused_names(src=SRC):
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))
             if path.name != "__init__.py"}
    readers = {}
    for module, tree in trees.items():
        for name, line in _loads(tree):
            readers.setdefault(name, []).append((module, line))
    unused = []
    for module, tree in trees.items():
        for qualified, name, node in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if all(other == module and node.lineno <= line <= node.end_lineno
                   for other, line in readers.get(name, [])):
                unused.append(qualified)
    return sorted(unused)


def test_every_name_has_a_reader():
    # an allowed name that gained a reader, or went away, leaves the list too
    unused = set(unused_names())
    assert unused == ALLOWED, (f"unread: {sorted(unused - ALLOWED)}, "
                               f"no longer unread: {sorted(ALLOWED - unused)}")
