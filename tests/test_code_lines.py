import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"


def load_script():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment


# a comment line
def f(x):
    """Function docstring."""
    text = """a multi-line
string that is code"""
    return (x,
            text)


class C:
    """Class docstring."""

    y = 1
'''


def test_counts_code_lines_only():
    # import, def, the two lines of the string, the two of the return,
    # class, y
    assert load_script().code_lines(SOURCE) == 8
