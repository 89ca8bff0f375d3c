"""Every function, class and method that ``src/hdindex`` defines is used by
the package, the CLI entry point or the benchmark.

A module-level function or class, or a method of a module-level class,
counts as used when a module of ``src/hdindex`` refers to its name outside
its own definition, as a ``Name`` or as the attribute of an ``Attribute``.
Names are matched alone, not resolved, so a method counts as used when any
attribute of that name is read.  Exempt are dunder names, the ``cli.main``
entry point, the targets of the benchmark tracer (``TARGETS`` in
``perfbench/tracer.py``) and what the benchmark workloads call
(``perfbench/workloads.py``): a name read off ``mods.<module>``, and a
method called on any other value.  Both files are parsed, not
imported.  The check walks the syntax tree, so a name that only a docstring
or a comment mentions does not count.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hdindex"
DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(module, tree):
    """(qualified name, node, is a method) of each module-level function and
    class of ``tree`` and of each method of its classes."""
    for node in tree.body:
        if isinstance(node, DEFINITION):
            yield f"{module}.{node.name}", node, False
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, DEFINITION):
                        yield f"{module}.{node.name}.{sub.name}", sub, True


def unreferenced(sources, exempt=frozenset(), exempt_methods=frozenset()):
    """The qualified names of the definitions in ``sources`` (module name ->
    source text) that no module refers to outside the definition itself."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    refs = defaultdict(set)  # name -> ids of the nodes that refer to it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[node.id].add(id(node))
            elif isinstance(node, ast.Attribute):
                refs[node.attr].add(id(node))
    found = []
    for module, tree in trees.items():
        for qualname, node, method in definitions(module, tree):
            name = node.name
            if (
                name.startswith("__") and name.endswith("__")
                or qualname in exempt
                or method and name in exempt_methods
            ):
                continue
            if not refs[name] - {id(sub) for sub in ast.walk(node)}:
                found.append(qualname)
    return found


def package_sources():
    return {
        f"hdindex.{path.stem}".removesuffix(".__init__"): path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
    }


def tracer_targets():
    """``module.attribute`` of each entry of the tracer's ``TARGETS``."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    ]
    return {f"{module}.{attr}" for module, attr, _ in ast.literal_eval(value)}


def workload_calls():
    """What ``perfbench/workloads.py`` calls: the qualified names it reads off
    ``mods.<module>``, and the names of the methods it calls on other values."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    names, methods = set(), set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "mods"
        ):
            names.add(f"hdindex.{node.value.attr}.{node.attr}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            methods.add(node.func.attr)
    return names, methods


def exemptions():
    names, methods = workload_calls()
    return {"hdindex.cli.main", *tracer_targets(), *names}, methods


def test_every_package_definition_is_referenced():
    assert unreferenced(package_sources(), *exemptions()) == []


SEEDED = '''
class Box:
    def used(self):
        return self.size

    def unused(self):
        return self.unused()

    def __len__(self):
        return 0


def helper():
    """helper, in a docstring."""
    return Box().used()


def recursive(n):
    return recursive(n - 1)  # helper, in a comment


def entry():
    return helper()
'''


def test_unreferenced_flags_definitions_used_only_by_themselves():
    # a method or function that only calls itself is unused; ``entry`` is
    # exempt by name, and ``Box.unused`` too when unused methods are allowed
    assert unreferenced({"m": SEEDED}, {"m.entry"}) == ["m.Box.unused", "m.recursive"]
    assert unreferenced({"m": SEEDED}, {"m.entry"}, {"unused"}) == ["m.recursive"]


def test_a_seeded_unused_function_in_the_package_is_caught():
    sources = package_sources()
    sources["hdindex.domains"] += "\n\ndef _seeded_unused(d):\n    return _lattice(d)\n"
    assert unreferenced(sources, *exemptions()) == ["hdindex.domains._seeded_unused"]

