"""Tooling: no module imports a name it never uses.

A stdlib ``ast`` scan over src/, tests/ and demos/.  Package ``__init__``
files are skipped (their imports are re-exports), and so are
``from __future__`` imports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted(
    path for folder in ("src", "tests", "demos")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read as a name."""
    imported = set()
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name
                            for alias in node.names if alias.name != "*")
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(imported - used)


def test_scanner_finds_unused_and_skips_future():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from math import inf, pi\n"
        "def f():\n"
        "    return os.path.join(str(pi))\n"
    )
    assert unused_imports(source) == ["inf", "np"]


def test_no_unused_imports():
    assert SCANNED
    offenders = {}
    for path in SCANNED:
        names = unused_imports(path.read_text(encoding="utf-8"))
        if names:
            offenders[str(path.relative_to(ROOT))] = names
    assert offenders == {}
