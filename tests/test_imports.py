"""Every name a module of the package imports is read in that module.

No linter is installed, so the check walks each module's syntax tree with
the standard library's ``ast``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "coreselect"

# (module, imported name): why the module imports a name it never reads
UNREAD = {
    ("bench.py", "numpy"): "`import numpy.random` loads numpy.random with the harness, "
                           "not inside the first replica's run",
    ("bench.py", "lmo"): "perfbench/spans.py wraps bench.lmo",
}


def unread_imports(path: Path) -> list[str]:
    """The names that the module at ``path`` binds by an import and never
    reads: neither as a name nor as the head of an attribute chain."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_every_imported_name_is_read():
    # __init__.py imports only to re-export
    unread = {(path.name, name) for path in sorted(SRC.glob("*.py"))
              if path.name != "__init__.py" for name in unread_imports(path)}
    assert unread == set(UNREAD)


def test_the_check_finds_an_unread_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\nimport os\nimport numpy.linalg\n"
                      "from math import pi, tau as turn\nprint(numpy.linalg.norm, pi)\n")
    assert unread_imports(module) == ["os", "turn"]
