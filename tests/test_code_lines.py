from pathlib import Path

from support import load_module

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"


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
    assert load_module(SCRIPT, "code_lines").code_lines(SOURCE) == 8
