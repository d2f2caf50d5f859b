"""No module of the package imports a name it never uses."""

import ast
from pathlib import Path

import commentary

SOURCE = Path(commentary.__file__).parent

# Imported and not used: perfbench/tracing.py wraps these by their module's name.
KEPT = {("cli", "reference_from_srt_text"), ("strategies", "render_decision")}


def _bound_names(tree: ast.Module) -> set[str]:
    """The names the module's top-level imports bind, `from __future__` aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, string annotations such as `"hashlib._Hash"` included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                parsed = ast.walk(ast.parse(annotation.value))
                used.update(n.id for n in parsed if isinstance(n, ast.Name))
    return used


def test_no_module_imports_a_name_it_never_uses():
    unused = set()
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":  # it imports names to export them
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        unused.update((path.stem, name) for name in _bound_names(tree) - _used_names(tree))
    assert unused == KEPT
