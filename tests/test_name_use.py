"""Every name the package defines is read, and every option it offers is
set, somewhere in the package.

A module-level function, class or constant, or a class member, that nothing
in ``src/bergman_heat`` loads outside its own definition is dead code,
unless it is one of the test oracles, fixture constructors or result fields
that ROADMAP names.  Names are matched by their bare spelling, as a plain
name or as an attribute, across all modules.  Likewise a parameter with a
default that no call in the package passes is a constant that only tests
change, and a parameter that every call passes needs no default.
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


def _defaulted_parameters(tree):
    """(called name, parameter, positional index or None) of every parameter
    with a default of the module's functions and methods.  Calls reach a
    method by its bare name and ``__init__`` by its class name, without
    ``self``; a static method keeps its first parameter."""
    scopes = [(node, None) for node in tree.body]
    scopes += [(member, node.name) for node in tree.body
               if isinstance(node, ast.ClassDef) for member in node.body]
    for func, cls in scopes:
        if not isinstance(func, ast.FunctionDef):
            continue
        positional = func.args.posonlyargs + func.args.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in func.decorator_list)
        if cls is not None and not static:
            positional = positional[1:]
        called = cls if func.name == "__init__" else func.name
        first = len(positional) - len(func.args.defaults)
        for index, arg in enumerate(positional[first:], first):
            yield called, arg.arg, index
        for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
            if default is not None:
                yield called, arg.arg, None


def _passed(tree):
    """(called bare name, positional count or None, keywords) of every call;
    a starred argument counts as every position, ``**`` as every keyword."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {k.arg for k in node.keywords}
        yield name, None if starred else len(node.args), keywords


def _option_use(src):
    """(``called.parameter``, how many calls in the package pass it, how
    many calls it has) for every defaulted parameter, a class name standing
    for ``__init__``."""
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    calls = {}
    for tree in trees:
        for name, count, keywords in _passed(tree):
            calls.setdefault(name, []).append((count, keywords))
    for tree in trees:
        for called, param, index in _defaulted_parameters(tree):
            site = calls.get(called, [])
            passing = sum(count is None or None in keywords
                          or param in keywords
                          or (index is not None and index < count)
                          for count, keywords in site)
            yield f"{called}.{param}", passing, len(site)


def unset_options(src=SRC):
    """Every defaulted parameter that no call in the package passes,
    positionally or by keyword."""
    return {name for name, passing, _ in _option_use(src) if passing == 0}


def overridden_options(src=SRC):
    """Every defaulted parameter that every call in the package passes, so
    that only tests read its default."""
    return {name for name, passing, calls in _option_use(src)
            if passing == calls > 0}


def test_every_name_has_a_reader():
    # an allowed name that gained a reader, or went away, leaves the list too
    unused = set(unused_names())
    assert unused == ALLOWED, (f"unread: {sorted(unused - ALLOWED)}, "
                               f"no longer unread: {sorted(ALLOWED - unused)}")


def test_every_option_is_set_in_src():
    # a default only tests change is a constant; run's argv is the hook
    # through which tests drive the command line
    assert unset_options() == {"run.argv"}


def test_every_default_is_used_in_src():
    # a default that every call overrides states a run parameter twice: a
    # change to the caller's value leaves the tests on the old one.
    # VolumeForm's form_id keeps its default because the benchmark's
    # self-test (perfbench/selftest.py) builds forms without an id
    assert overridden_options() == {"VolumeForm.form_id"}
