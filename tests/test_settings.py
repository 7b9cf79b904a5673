"""Each shipped table is loaded in one place: the package source is scanned
for every call of ``read_table`` or a shipped-table loader made inside a
function, so a stage that reloads a table on each call again (when its
caller leaves the table out) fails here. Such a call may be made at module
or class level, in a ``default_factory``, in ``default_config`` and in the
loaders themselves."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "patternqa"
LOADERS = {"read_table", "load_hint_table", "load_regex_rules", "load_tag_hierarchy",
           "load_gazetteer"}
ALLOWED = LOADERS | {"default_config"}


def _loads_a_table(call: ast.Call) -> bool:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name in LOADERS


def table_loads(source: str, module: str) -> list[str]:
    """``<module>.<function>`` (dotted through classes and nested functions)
    of each table-loading call in ``source`` made inside a function that is
    not in ``ALLOWED``, outside any ``default_factory``, in source order."""
    found = []

    def visit(node, where: str, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.keyword) and child.arg == "default_factory":
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name not in ALLOWED:
                    visit(child, f"{where}.{child.name}", True)
                continue
            if isinstance(child, ast.Lambda):
                visit(child, f"{where}.<lambda>", True)
                continue
            if isinstance(child, ast.ClassDef):
                visit(child, f"{where}.{child.name}", in_function)
                continue
            if in_function and isinstance(child, ast.Call) and _loads_a_table(child):
                found.append(where)
            visit(child, where, in_function)

    visit(ast.parse(source), module, False)
    return found


def test_no_function_reloads_a_shipped_table():
    found = [where for path in sorted(PACKAGE.glob("*.py"))
             for where in table_loads(path.read_text("utf-8"), path.stem)]
    assert found == []


@pytest.mark.parametrize("source, flagged", [
    ("def f():\n    load_gazetteer()", ["m.f"]),
    ('def f():\n    return read_table("hints.tsv")', ["m.f"]),
    ("def f(hints=None):\n    if hints is None:\n        hints = load_hint_table()", ["m.f"]),
    ("def f():\n    return extraction.load_regex_rules()", ["m.f"]),
    ("def f():\n    return State(gazetteer=load_gazetteer(), top_k=k)", ["m.f"]),
    ("class C:\n    def g(self):\n        return load_tag_hierarchy()", ["m.C.g"]),
    ("def f():\n    def g():\n        return load_gazetteer()\n    return g", ["m.f.g"]),
    ("def f():\n    return lambda: read_table('x')", ["m.f.<lambda>"]),
    ("F = lambda: load_gazetteer()", ["m.<lambda>"]),
    ('STOPWORDS = frozenset(w for w, _ in read_table("stopwords.txt"))', []),
    ("class S:\n    hints: dict = field(default_factory=load_hint_table)", []),
    ("class S:\n    rules: dict = field(default_factory=lambda: load_regex_rules())", []),
    ("def default_config():\n    return Config(load_tag_hierarchy())", []),
    ('def load_gazetteer(path=None):\n    return read_table("gazetteer.tsv", path)', []),
    ("def f(path):\n    return load_kb(path)", []),
    ("def f():\n    return load_gazetteer", []),
])
def test_the_scan_tells_table_loads_from_other_calls(source, flagged):
    assert table_loads(source, "m") == flagged
