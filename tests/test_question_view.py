"""Questions are read through the same analysed ``Sentence`` view as
document sentences. The view-based readers must equal the tree walks they
replaced (kept in ``oracles``), no module of the package may build a tree,
and only ``treebank.parse_sentence`` splits a parse into its items. The
package's structure is guarded the same way: only ``evaluation`` counts
running metrics."""

import ast
import random
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from patternqa.classify import Category, tagged_leaves
from patternqa.corpus import Question
from patternqa.knowledge import _question_phrases, question_signature
from patternqa.retrieval import content_words

from .oracles import (analyse, content_words_oracle, parse_bracketed, question_phrases_oracle,
                      random_tree, signature_oracle, tagged_leaves_oracle, trees)

SRC = Path(__file__).resolve().parents[1] / "src" / "patternqa"

LABELS = st.sampled_from(["SBARQ", "SQ", "S", "NP", "VP", "WHNP", "WP", "WRB", "NN", "DT", "."])
TOKENS = st.from_regex(r"[^()\s]{1,5}", fullmatch=True) | st.sampled_from(
    ["Who", "what", "How", "many", "the", "of", "is", "?", "3-0", "U.S."])
# a random_tree is drawn from one integer seed: one draw per example, where
# st.randoms() makes every call of the generator a draw of its own
QUESTION_TREES = trees(LABELS, TOKENS) | st.integers(0, 2**32 - 1).map(
    lambda seed: random_tree(random.Random(seed)))

UNARY_CHAINS = "(SBARQ (WHNP (WP Who)) (SQ (VP (VP (VB wrote)) (NP (NP (NN it))))) (. ?))"
BARE_LEAVES = "(SBARQ (WHNP Who (NN poet)) (SQ wrote (NP the (NN poem))) ?)"
DEEP = "(SBARQ (WHNP (WP Who)) " + "(S (NN x) " * 1500 + "(NN y)" + ")" * 1501


def assert_readers_match_tree_walks(tree):
    view = analyse(tree)
    question = Question(id="q", text=" ".join(view.tokens), parse=view)
    category = Category("HUM", "ind")
    assert tagged_leaves(view) == tagged_leaves_oracle(tree)
    assert question_signature(question, category) == signature_oracle(tree, category)
    assert _question_phrases(question) == question_phrases_oracle(tree)
    assert content_words(view) == content_words_oracle(tree)


@given(QUESTION_TREES)
@example(parse_bracketed(UNARY_CHAINS))
@example(parse_bracketed(BARE_LEAVES))
def test_question_readers_match_tree_walks(tree):
    assert_readers_match_tree_walks(tree)


def test_question_readers_match_tree_walks_on_a_deep_tree():
    assert_readers_match_tree_walks(parse_bracketed(DEEP))


def _names_called(path: Path) -> set[str]:
    """Names a module calls, directly or as a module attribute."""
    return {item.func.id if isinstance(item.func, ast.Name) else item.func.attr
            for item in ast.walk(ast.parse(path.read_text("utf-8")))
            if isinstance(item, ast.Call) and isinstance(item.func, (ast.Name, ast.Attribute))}


def _names_used(path: Path) -> set[str]:
    """Names a module imports from another, or reads as a module attribute."""
    names = set()
    for item in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(item, ast.ImportFrom):
            names.update(alias.name for alias in item.names)
        elif isinstance(item, ast.Attribute):
            names.add(item.attr)
    return names


TREE_NAMES = ("ParseTree", "parse_bracketed", "node_spans", "serialize", "analyse")


def _names_defined(path: Path) -> set[str]:
    """Names a module binds: its functions, classes and assigned names."""
    names = set()
    for item in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(item.name)
        elif isinstance(item, ast.Name) and isinstance(item.ctx, ast.Store):
            names.add(item.id)
    return names


def test_trees_do_not_outlive_loading():
    """No module of the package defines, imports or reads a tree type, the
    tree parser, walker or serializer, or the walk that analysed a tree (they
    are kept in ``oracles`` as the reference). Only ``treebank`` parses: it
    defines ``parse_sentence``, the one function named ``parse_*``."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        names = _names_defined(path) | _names_used(path)
        offenders.extend((path.stem, name) for name in TREE_NAMES if name in names)
        parsers = {name for name in _names_defined(path) if name.startswith("parse_")}
        if parsers != ({"parse_sentence"} if path.stem == "treebank" else set()):
            offenders.append((path.stem, sorted(parsers)))
    assert offenders == []


SPLITTERS = {"treebank.parse_sentence"}


def _pads_a_bracket(call: ast.Call) -> bool:
    """Whether ``call`` is a ``replace`` call that pads a bracket with
    whitespace, as ``text.replace("(", " ( ")`` or ``str.replace(text, ")", ") ")``."""
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "replace"):
        return False
    return any(isinstance(old, ast.Constant) and old.value in ("(", ")")
               and isinstance(new, ast.Constant) and isinstance(new.value, str)
               and new.value != old.value and new.value.strip() == old.value
               for old, new in zip(call.args, call.args[1:]))


def item_splits(source: str, module: str, allowed=SPLITTERS) -> list[str]:
    """``<module>.<function>`` (dotted through classes, nested functions and
    lambdas; the bare module name at module level) of each call in
    ``source`` that pads a bracket to split a parse into items, made outside
    ``allowed``, in source order."""
    found = []

    def visit(node, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Lambda):
                visit(child, f"{where}.<lambda>")
                continue
            if isinstance(child, ast.Call) and _pads_a_bracket(child) and where not in allowed:
                found.append(where)
            visit(child, where)

    visit(ast.parse(source), module)
    return found


def test_only_parse_sentence_splits_a_parse_into_items():
    """One reader reads a parse: no other function splits one into brackets
    and atoms, and ``parse_sentence`` itself does, so the scan sees it."""
    sources = {path.stem: path.read_text("utf-8") for path in sorted(SRC.glob("*.py"))}
    assert [where for module, source in sources.items()
            for where in item_splits(source, module)] == []
    assert item_splits(sources["treebank"], "treebank", allowed=set()) \
        == ["treebank.parse_sentence", "treebank.parse_sentence"]


SPLIT = 'text.replace("(", " ( ").replace(")", " ) ").split()'


@pytest.mark.parametrize("source, module, flagged", [
    (f"def read_leaves(text):\n    items = {SPLIT}", "treebank",
     ["treebank.read_leaves", "treebank.read_leaves"]),
    (f"def parse_sentence(text):\n    items = {SPLIT}", "corpus",
     ["corpus.parse_sentence", "corpus.parse_sentence"]),
    (f"ITEMS = {SPLIT}", "treebank", ["treebank", "treebank"]),
    ("def f(t):\n    return t.replace(')', ' ) ')", "m", ["m.f"]),
    ("def f(t):\n    return t.replace('(', ' (')", "m", ["m.f"]),
    ("def f(t):\n    return t.replace('(', '\\t(\\n')", "m", ["m.f"]),
    ("def f(t):\n    return str.replace(t, '(', ' ( ')", "m", ["m.f"]),
    ("class C:\n    def g(self, t):\n        return t.replace('(', ' ( ')", "m", ["m.C.g"]),
    ("def f(t):\n    return lambda: t.replace('(', ' ( ')", "m", ["m.f.<lambda>"]),
    ("def parse_sentence(text):\n    def inner():\n        return text.replace('(', ' ( ')",
     "treebank", ["treebank.parse_sentence.inner"]),
    (f"def parse_sentence(text):\n    items = {SPLIT}", "treebank", []),
    ("def f(t):\n    return t.replace('(', '')", "m", []),
    ("def f(t):\n    return t.replace('(', '-LRB-')", "m", []),
    ("def f(t):\n    return t.replace('(', '(')", "m", []),
    ("def f(t):\n    return t.replace('x', ' x ')", "m", []),
    ("def f(t, a, b):\n    return t.replace(a, b)", "m", []),
    ("def f(t):\n    return t.split()", "m", []),
    ("def replace(t):\n    return t", "m", []),
])
def test_the_scan_tells_item_splits_from_other_code(source, module, flagged):
    assert item_splits(source, module) == flagged


def test_only_evaluation_builds_metric_points():
    """``evaluation.running_metrics`` is the one accumulator of a run's P/R/F
    series: no other module imports or calls ``make_point`` or builds an
    ``EvalPoint``. The package ``__init__`` re-exports ``EvalPoint`` and
    builds none."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "evaluation":
            continue
        called, used = _names_called(path), _names_used(path)
        offenders.extend((path.stem, name) for name in ("make_point", "EvalPoint")
                         if name in called)
        if "make_point" in used:
            offenders.append((path.stem, "import make_point"))
    assert offenders == []
