"""Questions are read through the same analysed ``Sentence`` view as
document sentences. The view-based readers must equal the tree walks they
replaced (kept in ``oracles``). That no module of the package builds a tree
is a rule of ``rules``."""

import random

from hypothesis import example, given, strategies as st

from patternqa.classify import Category, tagged_leaves
from patternqa.corpus import Question
from patternqa.knowledge import _question_phrases, question_signature
from patternqa.retrieval import content_words

from .oracles import (analyse, content_words_oracle, parse_bracketed, question_phrases_oracle,
                      random_tree, signature_oracle, tagged_leaves_oracle, trees)

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
