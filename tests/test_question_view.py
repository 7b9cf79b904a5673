"""Questions are read through the same analysed ``Sentence`` view as
document sentences. The view-based readers must equal the tree walks they
replaced (kept in ``oracles``), and no module of the package may build a
tree. The package's structure is guarded the same way: only ``evaluation``
counts running metrics."""

import ast
import random
from pathlib import Path

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
