"""Only `lidarshape.core` opens files to write: every other module writes its
output through `core.write_table` or `core.write_pgm`."""

import ast
from pathlib import Path

import lidarshape

SRC = Path(lidarshape.__file__).parent


def file_writes(source: str):
    """Lines that call `open` with a mode that writes (or one that is not a
    string literal), `.write_text` or `.write_bytes`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes") and isinstance(func, ast.Attribute):
            lines.append(node.lineno)
        elif name == "open":
            # open(path, mode) as a builtin, path.open(mode) as a method
            at = 1 if isinstance(func, ast.Name) else 0
            mode = node.args[at] if len(node.args) > at else None
            mode = next((k.value for k in node.keywords if k.arg == "mode"), mode)
            if mode is None:
                continue  # reads text
            if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
                lines.append(node.lineno)
    return lines


def test_file_writes_helper_finds_each_kind_of_write():
    source = (
        'open(p)\nopen(p, "r")\nopen(p, "w")\nopen(p, mode="a")\nopen(p, m)\n'
        'p.open()\np.open("rb")\np.open("x")\np.write_text(s)\np.write_bytes(b)\n'
        'fh.write(s)\np.read_text()\nopen(p, "r+")\n'
    )
    assert file_writes(source) == [3, 4, 5, 8, 9, 10, 13]


def test_only_core_opens_files_to_write():
    found = {path.stem: file_writes(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert found.pop("core"), "the table writer's own open went unseen"
    assert {stem: lines for stem, lines in found.items() if lines} == {}
