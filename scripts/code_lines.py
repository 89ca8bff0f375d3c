"""Count code lines per Python module: blank lines, comments and docstrings excluded.

A line counts when a token other than a comment or a layout token starts
on it or a multi-line token (a string) spans it; docstrings (the leading
string of a module, class or function body) are dropped whole.

    python3 scripts/code_lines.py                 # every module under src/hdindex
    python3 scripts/code_lines.py FILE_OR_DIR ...

Prints one line per module and a total for each directory argument.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold code."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _shown(path: Path, root: Path) -> Path:
    path = path.resolve()
    return path.relative_to(root) if path.is_relative_to(root) else path


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    targets = [Path(a) for a in argv] or [root / "src" / "hdindex"]
    for target in targets:
        files = sorted(target.rglob("*.py")) if target.is_dir() else [target]
        total = 0
        for path in files:
            n = code_lines(path.read_text(encoding="utf-8"))
            total += n
            print(f"{n:6d}  {_shown(path, root)}")
        if target.is_dir():
            print(f"{total:6d}  total {_shown(target, root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
