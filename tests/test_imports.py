"""Every name a module of the package imports is read in that module,
every function and class a module defines is read somewhere, and the
README's layout table and CSV header match the package.

No linter is installed, so the checks walk the syntax trees with the
standard library's ``ast``.
"""

import ast
import re
from pathlib import Path

from coreselect import bench

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "coreselect"
# the code that may read a definition of the package
READERS = ("src", "tests", "perfbench")

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


def definitions(path: Path) -> set[str]:
    """The functions and classes that the module at ``path`` defines at its
    top level."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def read_names(paths) -> set[str]:
    """Every name that the modules at ``paths`` read, as a name or as an
    attribute."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def test_every_definition_is_read():
    # a re-export in __init__.py is an import, not a read
    read = read_names(path for folder in READERS for path in (ROOT / folder).rglob("*.py"))
    unread = {(path.name, name) for path in sorted(SRC.glob("*.py"))
              for name in definitions(path) - read}
    assert unread == set()


def test_the_check_finds_an_unread_definition(tmp_path):
    module, reader = tmp_path / "m.py", tmp_path / "r.py"
    module.write_text("X = 1\ndef called():\n    pass\nclass Held:\n    pass\n"
                      "def stored():\n    pass\nclass Left:\n    def called(self):\n"
                      "        pass\n")
    reader.write_text("from m import Left, called\nimport m\ncalled()\nprint(m.Held)\n"
                      "m.stored = None\n")
    assert definitions(module) - read_names([module, reader]) == {"Left", "stored"}


def test_the_readme_names_every_module_and_the_csv_header():
    # the layout table has a row for each module but __init__, and the CSV
    # header the README shows is the one the harness writes
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = set(re.findall(r"^\| `coreselect\.(\w+)` \|", readme, flags=re.M))
    assert rows == {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    assert f"\n```\n{bench.CSV_HEADER}\n```\n" in readme
