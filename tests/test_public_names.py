"""Every name the package exports has a caller: library code outside the
name's own definition, or a README quick start."""

import ast
import re
import types
from pathlib import Path

import coherework

PACKAGE = Path(coherework.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"


def _library_uses(package: Path = PACKAGE) -> set[str]:
    """Names and attributes read in the modules of ``package``, each outside
    the definitions of that same name; ``__init__``'s re-exports are not uses."""
    used = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name is not None and name not in enclosing:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            visit(ast.parse(path.read_text()), frozenset())
    return used


def _quick_start_words() -> set[str]:
    blocks = re.findall(r"^## Quick start[^\n]*\n+```\w*\n(.*?)^```", README.read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert blocks, "README has no quick-start code block"
    return {word for block in blocks for word in re.findall(r"\w+", block)}


def test_every_exported_name_has_a_caller():
    exported = [name for name in coherework.__all__
                if not isinstance(getattr(coherework, name), types.ModuleType)]
    callers = _library_uses() | _quick_start_words()
    assert exported and [name for name in exported if name not in callers] == []


def test_a_name_used_only_in_its_own_definition_has_no_caller(tmp_path):
    # the check itself: a recursive function calls only itself
    (tmp_path / "lonely.py").write_text("def lonely(n):\n    return lonely(n - 1) if n else 0\n")
    assert "lonely" not in _library_uses(tmp_path)
    (tmp_path / "caller.py").write_text("def other():\n    return lonely(3)\n")
    assert "lonely" in _library_uses(tmp_path)
