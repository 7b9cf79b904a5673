import random

import pytest
from hypothesis import example, given, settings, strategies as st

from patternqa.corpus import ARTICLES, normalize_answer
from patternqa.treebank import TreeFormatError, parse_sentence, strip_decorations

from .conftest import DANTE_SENTENCE_PARSE
from .oracles import (ParseTree, analyse, dfs_nodes, leaf, leaves, node_spans, parse_bracketed,
                      random_tree, serialize, trees)

DANTE_TOKENS = ["Dante", "has", "written", "The", "Divine", "Comedy"]


def test_parse_dante_sentence():
    tree = parse_bracketed(DANTE_SENTENCE_PARSE)
    assert tree.label == "S"
    assert leaves(tree) == DANTE_TOKENS


def test_parse_single_leaf_tree():
    tree = parse_bracketed("(NP (NNP Dante))")
    assert leaves(tree) == ["Dante"]


def test_unbalanced_input_offset():
    with pytest.raises(TreeFormatError) as err:
        parse_sentence("(S (NP")
    assert err.value.offset == 7


@pytest.mark.parametrize("bad", ["", "   ", "(S", "(S (NP x)", "((NP x))", "(S (NP x)) junk", "x"])
def test_malformed_inputs_raise(bad):
    with pytest.raises(TreeFormatError) as err:
        parse_sentence(bad)
    assert err.value.offset >= 1


def test_roundtrip_is_whitespace_normalized_identity():
    text = "(S   (NP (NNP Dante))\n  (VP (VBZ has)))"
    tree = parse_bracketed(text)
    assert serialize(tree) == "(S (NP (NNP Dante)) (VP (VBZ has)))"
    assert serialize(parse_bracketed(serialize(tree))) == serialize(tree)


def test_roundtrip_random_trees():
    rng = random.Random(7)
    for _ in range(50):
        tree = random_tree(rng)
        assert parse_bracketed(serialize(tree)) == tree


def test_decoration_stripping():
    tree = parse_bracketed("(NP-SBJ-1 (NNP Dante))")
    assert tree.label == "NP"
    assert strip_decorations("NP=2") == "NP"
    assert strip_decorations("-NONE-") == "-NONE-"
    assert strip_decorations("-LRB-") == "-LRB-"
    # tokens are never stripped
    scores = parse_bracketed("(NP (CD 3-0))")
    assert leaves(scores) == ["3-0"]


def test_dfs_preorder_labels():
    tree = parse_bracketed("(S (NP (NNP a)) (VP (VBZ b)))")
    nodes = dfs_nodes(tree)
    internal = [n.label for n in nodes if not n.is_leaf]
    assert internal == ["S", "NP", "NNP", "VP", "VBZ"]
    assert [n.label for n in nodes] == ["S", "NP", "NNP", "a", "VP", "VBZ", "b"]


def test_dfs_single_leaf():
    single = leaf("x")
    assert dfs_nodes(single) == [single]


def _bfs_count(tree):
    queue, count = [tree], 0
    while queue:
        cur = queue.pop(0)
        count += 1
        queue.extend(cur.children)
    return count


def test_dfs_visits_every_node_once():
    rng = random.Random(11)
    for _ in range(30):
        tree = random_tree(rng)
        nodes = dfs_nodes(tree)
        assert len(nodes) == len(set(map(id, nodes))) == _bfs_count(tree)
        position = {id(n): i for i, n in enumerate(nodes)}
        for parent in nodes:
            for child in parent.children:
                assert position[id(parent)] < position[id(child)]


def test_node_spans_cover_leaves():
    tree = parse_bracketed(DANTE_SENTENCE_PARSE)
    spans = {nd.label: (s, e) for nd, s, e in node_spans(tree) if not nd.is_leaf}
    assert spans["S"] == (0, 6)
    assert spans["VBN"] == (2, 3)


def test_invalid_node_construction():
    with pytest.raises(ValueError):
        ParseTree(label="S")  # neither token nor children
    with pytest.raises(ValueError):
        ParseTree(label="S", children=(leaf("x"),), token="x")


@given(st.text(alphabet="abcXYZ", min_size=1, max_size=8))
def test_leaf_label_is_token(token):
    assert leaf(token).label == token
    assert leaf(token).is_leaf


TOKENS = st.from_regex(r"[^()\s]{1,5}", fullmatch=True)  # what the parser reads as a token
LABELS = st.sampled_from(["S", "NP", "VP", "NN", "NNP", "DT", "-LRB-", "-NONE-"])
TREES = trees(LABELS, TOKENS)
DEEP = "(S " * 1500 + "(NN x)" + ")" * 1500


def test_analyse_dante_sentence():
    view = parse_sentence(DANTE_SENTENCE_PARSE)
    assert view.tokens == tuple(DANTE_TOKENS)
    assert view.lowered[3] == "the"
    assert view.constituents[0] == ((6, "S", False), (1, "NP", False), (1, "NNP", True))
    assert view.constituents[2] == ((6, "VP", False), (3, "VBN", True))
    assert view.constituents[5] == ((6, "NNP", True),)


@given(TREES)
def test_analyse_matches_tree_walks(tree):
    view = parse_sentence(serialize(tree))
    assert view.tokens == tuple(leaves(tree))
    assert view.lowered == tuple(token.lower() for token in view.tokens)
    # a token's stripped form is its normalize_answer, except for an article
    assert all(normalize_answer(token) == ("" if word in ARTICLES else word)
               for token, word in zip(view.tokens, view.stripped))
    flat = [(start, end, label, preterminal)
            for start, entries in enumerate(view.constituents)
            for end, label, preterminal in entries]
    internal = [(s, e, nd.label, nd.is_preterminal) for nd, s, e in node_spans(tree)
                if not nd.is_leaf]
    assert flat == sorted(internal, key=lambda item: item[0])  # stable: preorder within a start


def test_analyse_random_trees_and_deep_tree():
    rng = random.Random(13)
    for _ in range(50):
        tree = random_tree(rng)
        view = parse_sentence(serialize(tree))
        assert view.tokens == tuple(leaves(tree))
        assert sum(map(len, view.constituents)) == sum(1 for nd in dfs_nodes(tree)
                                                       if not nd.is_leaf)
    deep = parse_sentence(DEEP)
    assert deep.constituents[0][-1] == (1, "NN", True)


def reference_or_error(parse, text):
    """``parse(text)``, or the message and offset of its TreeFormatError."""
    try:
        return parse(text)
    except TreeFormatError as exc:
        return str(exc), exc.offset


DECORATIONS = ["", "", "", "-SBJ", "-1", "=2", "-SBJ-1", "-"]
WORDS = ["x", "Dante", "the", "3-0", "U.S.", "*T*-1", ",", "-", "=", "é"]
WHITESPACE = [" ", " ", "  ", "\n\t", "\x1c", "\u3000"]
PIECES = ["(", ")", "()", "(S)", "(S x)", "(-NONE- *T*-1)", "x", "-SBJ-1", " ", "\x1c"]


def random_parse(rng: random.Random) -> str:
    """A random tree written with decorated labels, bare leaves beside
    phrases and odd whitespace, then up to three times a character dropped
    or a piece inserted anywhere."""
    def write(tree):
        if tree.is_leaf:
            return tree.token
        children = [write(child) for child in tree.children]
        if not tree.is_preterminal and rng.random() < 0.3:
            children.insert(rng.randint(0, len(children)), rng.choice(WORDS))
        return f"({tree.label}{rng.choice(DECORATIONS)} {' '.join(children)})"

    text = write(random_tree(rng)).replace(" ", rng.choice(WHITESPACE))
    for _ in range(rng.randint(0, 3)):
        at = rng.randint(0, len(text))
        if rng.random() < 0.5:
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + rng.choice(PIECES) + text[at:]
    return text


# strings of brackets, atoms and whitespace, most of them no tree
BRACKET_SOUP = st.lists(st.sampled_from(["(", ")", "(", ")", "S", "NP", "x", "é", " ", "  ",
                                         "\n", "\x1c"]), max_size=14).map("".join)


@settings(max_examples=300, deadline=None)
@given(TREES.map(serialize) | st.randoms(use_true_random=True).map(random_parse) | BRACKET_SOUP)
@example("")
@example("(")
@example(")")
@example(") (S (NN x)")
@example("x")
@example("(NN x)")
@example("(NN x) (NN y)")
@example("(NN x) )")
@example("(S")
@example("(S )")  # a node without children, then the end of the input
@example("(S x y)")
@example("(S ( ))")
@example("(S ((")  # a bracket where a label belongs, then the end of the input
@example("(S (( x) y)")  # a bracket where a label belongs, balanced by the rest
@example("(S ( ) x ) y )")
@example(" \x1c\n ")
@example("()")
@example("(S)")
@example("(S (NP x) ())")
@example("x (S y)")
@example("(S x) y")
@example("(S x))")
@example("((S x))")
@example("(S (NP x)")
@example("(S (NP x) ( ")
@example("(S x (NP y))")
@example("(S (NP x) y (VP z))")
@example("(NP-SBJ-1 (-NONE- *T*-1) (NNP=2 Dante))")
@example("(S (VP (VP (VB go))))")
@example("\x1c(S\x1cx\x1c)\x1c")
@example("(S (NN a")
@example("(NN a")
@example("(S (NN a) b)")
@example("( NN  a )")
@example("(S (NN (")
@example("(S (NN a)) (")
@example(DEEP)
@example(DEEP[:-1])
def test_parse_sentence_matches_reference(text):
    """The one-pass parser returns the view the reference tree parser and
    walk give, or raises the same error at the same offset."""
    assert reference_or_error(parse_sentence, text) == \
        reference_or_error(lambda raw: analyse(parse_bracketed(raw)), text)
