"""No `lidarshape` module imports a name at top level that it never uses."""

import ast
from pathlib import Path

import lidarshape

SRC = Path(lidarshape.__file__).parent

# imported but not called: the benchmark's tracer wraps every module binding
# of a traced function, and its self-test requires these bindings in `cli`
KEPT = {
    ("cli", "build_octree"): "tracer binding site",
    ("cli", "exact_sd"): "tracer binding site",
    ("cli", "hsd"): "tracer binding site",
}


def unused_imports(source: str):
    """Top-level imported names that no other node of the module reads and
    that `__all__` does not export."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used)


def test_unused_imports_helper_finds_unused_names():
    source = "from __future__ import annotations\nimport os, sys\nfrom math import pi\nprint(sys)\n"
    assert unused_imports(source) == ["os", "pi"]


def test_no_module_has_an_unused_top_level_import():
    found = [
        (path.stem, name)
        for path in sorted(SRC.glob("*.py"))
        for name in unused_imports(path.read_text())
    ]
    assert sorted(set(found) - set(KEPT)) == []
    assert sorted(set(KEPT) - set(found)) == []  # an exception that is now used goes
