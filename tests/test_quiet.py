"""The library prints nothing from Python.

Each file under ``src/tlschwarz`` except ``cli.py``, whose output is the
command line's report, is parsed: none may name ``print`` or read
``sys.stdout`` or ``sys.stderr``.  What compiled code writes to file
descriptors 1 and 2 is checked where it happens, in ``tests/test_sparsemat.py``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for path in ROOT.glob("src/tlschwarz/*.py") if path.name != "cli.py")
STREAMS = ("stdout", "stderr")


def output_lines(source):
    """The lines of ``source`` that name ``print`` or read ``sys.stdout`` or
    ``sys.stderr``, in order."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if ((isinstance(node, ast.Name) and node.id == "print")
                or (isinstance(node, ast.Attribute) and node.attr in STREAMS
                    and isinstance(node.value, ast.Name) and node.value.id == "sys")
                or (isinstance(node, ast.ImportFrom) and node.module == "sys"
                    and any(alias.name in STREAMS for alias in node.names))):
            lines.append(node.lineno)
    return sorted(lines)


def test_scan_finds_output():
    source = ("import sys\nfrom sys import stderr\nprint(1)\nsys.stdout.write('x')\n"
              "log = print\nsys.argv\nx.stdout\n")
    assert output_lines(source) == [2, 3, 4, 5]


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_library_prints_nothing(path):
    assert output_lines(path.read_text()) == []
