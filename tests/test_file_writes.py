"""Only ``cli._write`` writes files: the package source is scanned for every
call that could open a file for writing, so a module that writes its own
file again (and a write error that escapes the one ``output error:`` line
with it) fails here."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "patternqa"
# modules whose ``open`` takes the file first and the mode (or flags) second
FILE_FIRST = {"builtins", "codecs", "io", "os"}


def _writes(call: ast.Call) -> bool:
    """Whether ``call`` writes a file: a ``write_text`` or ``write_bytes``,
    or an ``open`` whose mode holds w, a, x or + or is not a string
    constant. The builtin and the module functions take the mode second, a
    method such as ``Path.open`` first; a mode left out reads."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    file_first = isinstance(func, ast.Name) or (isinstance(func.value, ast.Name)
                                                and func.value.id in FILE_FIRST)
    positional = call.args[1 if file_first else 0:]
    mode = next((k.value for k in call.keywords if k.arg in ("mode", "flags")),
                positional[0] if positional else ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def file_writes(source: str, module: str) -> list[str]:
    """``<module>.<function>`` (dotted through nested functions, or
    ``<module>`` at top level) of each call in ``source`` that writes a
    file, in source order."""
    found = []

    def visit(node, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Call) and _writes(child):
                found.append(where)
            visit(child, where)

    visit(ast.parse(source), module)
    return found


def test_only_the_cli_writer_writes_a_file():
    found = [where for path in sorted(PACKAGE.glob("*.py"))
             for where in file_writes(path.read_text("utf-8"), path.stem)]
    assert found == ["cli._write"]


@pytest.mark.parametrize("source, writes", [
    ('open(p, "w")', True),
    ('open(p, mode="a", encoding="utf-8")', True),
    ('open(p, "r+b")', True),
    ("open(p, chosen)", True),
    ('io.open(p, "x")', True),
    ("os.open(p, os.O_WRONLY)", True),
    ('Path(p).open("w")', True),
    ('p.write_text("")', True),
    ('p.write_bytes(b"")', True),
    ("open(p)", False),
    ('open(p, "rb")', False),
    ('open(p, mode="r", encoding="utf-8")', False),
    ("p.open()", False),
    ('p.open("rb")', False),
    ('handle.write("")', False),
])
def test_the_scan_tells_writes_from_reads(source, writes):
    assert file_writes(f"def f():\n    {source}\n", "m") == (["m.f"] if writes else [])
