"""No module imports a name it never reads.

Each file under ``src/tlschwarz`` and ``tests`` is parsed, and every name an
import binds must be read somewhere in it.  ``__init__.py`` is skipped: its
imports are the package's re-exports.  So is ``from __future__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for pattern in ("src/tlschwarz/*.py", "tests/*.py")
               for path in ROOT.glob(pattern) if path.name != "__init__.py")


def unused_imports(source):
    """The names ``source`` imports and never reads, in order of their lines."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_scan_finds_an_unused_name():
    source = ("from __future__ import annotations\nimport os\nimport numpy.linalg\n"
              "from a import b as c, d\nd(numpy)\n")
    assert unused_imports(source) == [(2, "os"), (4, "c")]


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
