"""The code-line counter in tools/code_lines.py."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment

# a comment line
class A:
    """Class docstring."""

    x = """a string that is
not a docstring"""

    async def f(self):
        """Function docstring."""
        return (1 +
                2)
'''


def test_counts_code_lines_only():
    # import, class, both lines of x, def, both lines of the return
    assert code_lines.code_lines(SOURCE) == 7


def test_counts_every_package_module(capsys):
    assert code_lines.main() == 0
    rows = capsys.readouterr().out.splitlines()
    counts = [int(row.split()[0]) for row in rows]
    assert rows[-1].endswith("total") and counts[-1] == sum(counts[:-1]) > 0
