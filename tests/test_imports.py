"""No module of the package, the tests or the scripts imports a name it never uses,
no test module imports another, and importing one module of the package
loads only the package modules it imports.

A module-level import counts as used when its name appears anywhere in the
module as a ``Name`` (the base of every ``Attribute`` chain is one, and so
is a name inside an f-string expression) or inside a string annotation.
The check walks the syntax tree, so a name that only a comment or a plain
string mentions does not count.  A module under ``tests/`` that imports
a ``test_*`` module runs that module's setup and shares its state, so
what the tests share lives in ``tests/support.py`` instead.
"""

import ast
from pathlib import Path

import pytest

from support import run_python

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src/hdindex", "tests", "scripts")


def unused_imports(source):
    """(line, name) of each module-level import of ``source`` that is never used."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        for annotation in filter(None, annotations):
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    parsed = ast.parse(sub.value, mode="eval")
                    used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return [(line, name) for line, name in imported if name not in used]


SOURCE = '''
import os
import os.path as osp
import re
import sys
from json import dumps, loads
from typing import Optional

print(f"{re.escape('x')}", sys.argv)


def f(x: "Optional[int]") -> None:
    """dumps and osp, in a docstring."""
    return loads(x)  # os, in a comment
'''


def test_unused_imports_reads_fstrings_annotations_and_attribute_bases():
    assert unused_imports(SOURCE) == [(2, "os"), (3, "osp"), (6, "dumps")]


def test_no_module_has_an_unused_import():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for tree in TREES
        for path in sorted((ROOT / tree).rglob("*.py"))
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_no_test_module_imports_another():
    found = []
    for path in sorted((ROOT / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] if node.module else [a.name for a in node.names]
            else:
                continue
            found += [
                f"{path.relative_to(ROOT)}:{node.lineno}: {n}" for n in names if n.startswith("test_")
            ]
    assert found == []


# the package modules in import order: importing one in a fresh interpreter
# loads the package and the modules before it, none after it
ORDER = (
    "hdindex",
    "hdindex.diagram",
    "hdindex.domains",
    "hdindex.formulas",
    "hdindex.builder",
    "hdindex.harness",
    "hdindex.cli",
)


@pytest.mark.parametrize("n", range(1, len(ORDER)), ids=ORDER[1:])
def test_importing_a_module_loads_only_its_imports(n):
    code = (
        f"import sys, {ORDER[n]}; "
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'hdindex')))"
    )
    out = run_python(code)
    assert out.stdout.split() == sorted(ORDER[: n + 1])


def test_the_cli_starts_without_importlib_resources():
    # only ``check`` and the local crossing model read bundled data, so
    # ``load_bundled`` imports it on first call; ``-S`` keeps out a site
    # hook (a ``.pth`` file) that may import it before the package does
    code = (
        "import sys, hdindex.cli; "
        "print('importlib.resources' in sys.modules); "
        "from hdindex.diagram import load_bundled; "
        "print(load_bundled('torus_g1_1x.hd').genus)"
    )
    out = run_python(code, "-S")
    assert out.stdout.split() == ["False", "1"]
