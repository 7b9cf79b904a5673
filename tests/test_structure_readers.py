"""A document sentence's constituents are read only to align a pattern or to
learn one, and a run that does neither loads its documents without them
(``cli.cmd_run``, where a view's ``constituents`` is None). So the package
source is scanned for every use of a ``constituents`` attribute, and only
``treebank``, which builds it, ``classify``, which reads a question's (always
loaded in full), and ``knowledge`` and ``unification``, which learn and
align, may make one. A new reader elsewhere, in NER or retrieval say, would
meet None in a scenario-1 run."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "patternqa"
ALLOWED = {"treebank", "classify", "knowledge", "unification"}
ATTRIBUTE_READERS = {"getattr", "attrgetter"}


def _names_constituents(node) -> bool:
    """Whether ``node`` is a string naming the attribute, alone or in a dotted path."""
    return isinstance(node, ast.Constant) and isinstance(node.value, str) \
        and "constituents" in node.value.split(".")


def constituents_uses(source: str) -> list[int]:
    """The line of each use of a ``constituents`` attribute in ``source``, in
    order: ``x.constituents`` read, written or deleted, and a ``getattr`` or
    ``attrgetter`` call that names it in a string. A name, a parameter or a
    keyword argument called ``constituents`` is no use of the attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "constituents":
            found.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ATTRIBUTE_READERS and any(map(_names_constituents, node.args)):
                found.append(node.lineno)
    return sorted(found)


def test_only_aligning_learning_and_classifying_read_constituents():
    uses = {path.stem: constituents_uses(path.read_text("utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}
    assert {module for module, lines in uses.items() if lines} - ALLOWED == set()
    assert uses["unification"] and uses["knowledge"] and uses["classify"]


@pytest.mark.parametrize("source, lines", [
    ("view.constituents", [1]),
    ("x = 1\nstarts = record.view.constituents[0]", [2]),
    ("def f(s):\n    return [e for at in s.constituents for e in at]", [2]),
    ("view.constituents = None", [1]),
    ("del view.constituents", [1]),
    ("getattr(view, 'constituents')", [1]),
    ("getattr(view, 'constituents', None)", [1]),
    ("operator.attrgetter('view.constituents')(sentence)", [1]),
    ("f = attrgetter('tokens', 'constituents')", [1]),
    ("a.constituents\nb.constituents", [1, 2]),
    ("constituents = 1", []),
    ("def f(constituents):\n    return constituents", []),
    ("Sentence(tokens, lowered, stripped, constituents=None)", []),
    ("'constituents'", []),
    ("print('constituents')", []),
    ("getattr(view, 'tokens')", []),
    ("getattr(view, name)", []),
    ("view.constituent", []),
    ("view.constituents_count", []),
])
def test_the_scan_tells_uses_of_constituents_from_other_code(source, lines):
    assert constituents_uses(source) == lines
