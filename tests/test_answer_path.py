"""Extraction has one entry point: the package source is scanned for every
call of ``unify`` or ``extract_ner``, and ``pipeline.extract_candidates`` must
be the only function making one. So the exact pass, the decision to relax
only when it finds nothing, the NER pass and the one candidate check stay
in one place, and the benchmark's wrappers of ``pipeline.unify`` and
``pipeline.extract_ner`` see every extraction. A definition of either
function, and a reference to one that is not called, are not calls."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "patternqa"
EXTRACTORS = {"unify", "extract_ner"}
ALLOWED = {"pipeline.extract_candidates"}


def _calls_an_extractor(call: ast.Call) -> bool:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name in EXTRACTORS


def extractor_calls(source: str, module: str) -> list[str]:
    """``<module>.<function>`` (dotted through classes, nested functions and
    lambdas; the bare module name at module level) of each ``unify`` or
    ``extract_ner`` call in ``source`` made outside ``ALLOWED``, in source
    order."""
    found = []

    def visit(node, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Lambda):
                visit(child, f"{where}.<lambda>")
                continue
            if isinstance(child, ast.Call) and _calls_an_extractor(child) \
                    and where not in ALLOWED:
                found.append(where)
            visit(child, where)

    visit(ast.parse(source), module)
    return found


def test_only_extract_candidates_calls_unify_or_extract_ner():
    found = [where for path in sorted(PACKAGE.glob("*.py"))
             for where in extractor_calls(path.read_text("utf-8"), path.stem)]
    assert found == []


@pytest.mark.parametrize("source, module, flagged", [
    ("def f():\n    return unify(p, s, c)", "m", ["m.f"]),
    ("def f():\n    return unification.unify(p, s, c, d, i, memo)", "m", ["m.f"]),
    ("def f():\n    out = extract_ner(c, s, g, r)", "m", ["m.f"]),
    ("class C:\n    def g(self):\n        return unify(p, s, c)", "m", ["m.C.g"]),
    ("def f():\n    def g():\n        return unify(p, s, c)\n    return g", "m", ["m.f.g"]),
    ("def f():\n    return lambda: extract_ner(c, s, g, r)", "m", ["m.f.<lambda>"]),
    ("X = unify(p, s, c)", "m", ["m"]),
    ("def extract_candidates(state, record):\n    unify(p, s, c)\n    extract_ner(c, s, g, r)",
     "m", ["m.extract_candidates", "m.extract_candidates"]),
    ("def extract_candidates(state, record):\n    def each():\n        return unify(p, s, c)",
     "pipeline", ["pipeline.extract_candidates.each"]),
    ("def extract_candidates(state, record):\n    unify(p, s, c)\n    extract_ner(c, s, g, r)",
     "pipeline", []),
    ("def unify(p, s, c):\n    return _unify(p, s, c)", "unification", []),
    ("def f():\n    return unify", "m", []),
    ("def f():\n    return map(extract_ner, cs)", "m", []),
    ("def f():\n    return unify_all(p) or extract_ner_fast(c)", "m", []),
])
def test_the_scan_tells_extractor_calls_from_other_code(source, module, flagged):
    assert extractor_calls(source, module) == flagged
