import gc
import random

import pytest
from hypothesis import given, strategies as st

from patternqa.knowledge import Pattern, answer_slot, lexical, syntactic
from patternqa.treebank import parse_sentence
from patternqa.unification import (RELAX_BOTH, RELAX_LEXICAL, RELAX_NONE,
                                   RELAX_SYNTACTIC, RelaxConfig,
                                   default_config, levenshtein_distance,
                                   lexical_similarity, load_tag_hierarchy,
                                   tag_compatible, unify)

from .oracles import (TEST_SIGNATURE, analyse, brute_force_alignments,
                      brute_force_answer_spans, leaves, levenshtein_oracle, misspell,
                      random_pattern, random_tree)

DANTE_PATTERN = Pattern(
    (answer_slot("NP"), lexical("has"), syntactic("VBN"), syntactic("NP")),
    TEST_SIGNATURE,
    (("dante", "doc:0"),),
)

NN_SUBJECT_PARSE = ("(S (NN poet) (VP (VBZ has) (VP (VBN written) "
                    "(NP (DT The) (NNP Divine) (NNP Comedy)))))")


def test_levenshtein_wrote_written():
    assert levenshtein_distance("wrote", "written") == 3
    assert lexical_similarity("wrote", "written") == pytest.approx(1 - 3 / 7)


@pytest.mark.parametrize("measure", ["levenshtein", "overlap", "jaccard"])
def test_identical_strings_are_similarity_one(measure):
    assert lexical_similarity("dante", "dante", measure) == 1.0


def test_jaccard_disjoint_bigrams():
    assert lexical_similarity("ab", "cd", "jaccard") == 0.0


def test_empty_conventions():
    assert lexical_similarity("", "", "levenshtein") == 1.0
    assert lexical_similarity("a", "b", "overlap") == 1.0  # no bigrams on either side
    assert lexical_similarity("", "", "jaccard") == 1.0


def test_unknown_measure_rejected():
    with pytest.raises(ValueError):
        lexical_similarity("a", "b", "cosine")


@given(st.text(max_size=12), st.text(max_size=12))
def test_similarity_symmetric_and_bounded(a, b):
    for measure in ("levenshtein", "overlap", "jaccard"):
        s1 = lexical_similarity(a, b, measure)
        assert s1 == lexical_similarity(b, a, measure)
        assert 0.0 <= s1 <= 1.0


@given(st.text(max_size=10), st.text(max_size=10))
def test_distance_agrees_with_oracle(a, b):
    assert levenshtein_distance(a, b) == levenshtein_oracle(a, b)


@given(st.text(max_size=8), st.text(max_size=8), st.text(max_size=8))
def test_distance_triangle_inequality(a, b, c):
    assert levenshtein_distance(a, c) <= \
        levenshtein_distance(a, b) + levenshtein_distance(b, c)


@given(st.text(max_size=10))
def test_distance_identity(a):
    assert levenshtein_distance(a, a) == 0


HIERARCHY = load_tag_hierarchy()


def test_tag_compatibility_table():
    assert tag_compatible("NP", "NN", HIERARCHY)
    assert tag_compatible("VBN", "VBN", HIERARCHY)
    assert not tag_compatible("NN", "VB", HIERARCHY)


def test_tag_compatibility_reflexive_symmetric():
    tags = list(HIERARCHY) + ["XYZ", "PDT"]
    for a in tags:
        assert tag_compatible(a, a, HIERARCHY)
        for b in tags:
            assert tag_compatible(a, b, HIERARCHY) == tag_compatible(b, a, HIERARCHY)


def test_unify_dante_pattern_exact(dante_sentence):
    candidates = unify(DANTE_PATTERN, dante_sentence.view, default_config())
    assert [(c.text, c.span, c.relaxation_used) for c in candidates] == \
        [("Dante", (0, 1), RELAX_NONE)]
    assert candidates[0].strategy == "pattern"


def test_unify_leaves_no_reference_cycle(dante_sentence):
    """All that unification makes is freed by reference counting: with the
    cyclic collector off meanwhile, it finds nothing left to collect."""
    config = default_config()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert unify(DANTE_PATTERN, dante_sentence.view, config)
        assert unify(DANTE_PATTERN, parse_sentence(NN_SUBJECT_PARSE), config)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_unify_nn_subject_needs_syntactic_relaxation():
    view = parse_sentence(NN_SUBJECT_PARSE)
    exact = unify(DANTE_PATTERN, view, default_config().exact)
    assert exact == ()
    relaxed = unify(DANTE_PATTERN, view, default_config())
    assert [(c.text, c.relaxation_used) for c in relaxed] == [("poet", RELAX_SYNTACTIC)]


def test_unify_lexical_relaxation_for_typo():
    view = parse_sentence("(S (NP (NNP Dante)) (VP (VBZ haz) (VP (VBN written) "
                          "(NP (DT The) (NNP Divine) (NNP Comedy)))))")
    config = default_config(threshold=0.6)
    assert unify(DANTE_PATTERN, view, config.exact) == ()
    relaxed = unify(DANTE_PATTERN, view, config)
    assert [(c.text, c.relaxation_used) for c in relaxed] == [("Dante", RELAX_LEXICAL)]


def test_unify_both_relaxations():
    view = parse_sentence("(S (NN poet) (VP (VBZ haz) (VP (VBN written) "
                          "(NP (DT The) (NNP Divine) (NNP Comedy)))))")
    relaxed = unify(DANTE_PATTERN, view, default_config(threshold=0.6))
    assert [(c.text, c.relaxation_used) for c in relaxed] == [("poet", RELAX_BOTH)]


def test_unify_literal_matches_any_case():
    view = parse_sentence("(S (NP (NNP Dante)) (VP (VBZ HAS) (VP (VBN written) "
                          "(NP (DT The) (NNP Divine) (NNP Comedy)))))")
    exact = unify(DANTE_PATTERN, view, default_config().exact)
    assert [(c.text, c.relaxation_used) for c in exact] == [("Dante", RELAX_NONE)]


def test_unify_absent_literal_is_empty_unless_relaxed():
    view = parse_sentence("(S (NP (NNP Dante)) (VP (VBZ had) (VP (VBN written) "
                          "(NP (DT The) (NNP Divine) (NNP Comedy)))))")
    for config in (default_config().exact, default_config(enable_lexical=False)):
        assert unify(DANTE_PATTERN, view, config) == ()
    relaxed = unify(DANTE_PATTERN, view, default_config(threshold=0.6))
    assert [(c.text, c.relaxation_used) for c in relaxed] == [("Dante", RELAX_LEXICAL)]


def test_unify_incompatible_sentence_is_empty():
    view = parse_sentence("(S (NP (NN rain)) (VP (VBD fell)))")
    assert unify(DANTE_PATTERN, view, default_config()) == ()


def test_relaxation_disabled_flags():
    view = parse_sentence(NN_SUBJECT_PARSE)
    no_syn = default_config(enable_syntactic=False)
    assert unify(DANTE_PATTERN, view, no_syn) == ()
    no_lex = default_config(enable_lexical=False)
    assert [c.text for c in unify(DANTE_PATTERN, view, no_lex)] == ["poet"]


def test_candidates_are_contiguous_leaf_spans():
    rng = random.Random(23)
    config = default_config()
    for _ in range(100):
        tree = random_tree(rng)
        pattern = random_pattern(rng, tree)
        tokens = leaves(tree)
        for cand in unify(pattern, analyse(tree), config):
            start, end = cand.span
            assert 0 <= start < end <= len(tokens)
            assert cand.text == " ".join(tokens[start:end])


def test_exact_candidates_subset_of_relaxed():
    rng = random.Random(29)
    config = default_config(threshold=0.5)
    for _ in range(150):
        tree = random_tree(rng)
        pattern = random_pattern(rng, tree)
        exact = {c.span for c in unify(pattern, analyse(tree), config.exact)}
        relaxed = {c.span for c in unify(pattern, analyse(tree), config)}
        assert exact <= relaxed


def test_exact_unification_matches_brute_force_quick():
    rng = random.Random(31)
    config = default_config().exact
    for _ in range(60):
        tree = random_tree(rng)
        pattern = random_pattern(rng, tree)
        assert {c.span for c in unify(pattern, analyse(tree), config)} == \
            brute_force_answer_spans(pattern, tree)


@pytest.mark.parametrize("measure", ["levenshtein", "overlap", "jaccard"])
def test_relaxed_unification_matches_brute_force(measure):
    rng = random.Random(37)
    labels = set()
    for _ in range(1000):
        tree = random_tree(rng)
        pattern = misspell(rng, random_pattern(rng, tree))
        config = default_config(measure, threshold=rng.choice([None, 0.2, 0.5, 0.8]),
                                enable_lexical=rng.random() < 0.8,
                                enable_syntactic=rng.random() < 0.8)
        got = {c.span: c.relaxation_used for c in unify(pattern, analyse(tree), config)}
        assert got == brute_force_alignments(pattern, tree, config), pattern.render()
        labels.update(got.values())
    assert labels == {RELAX_NONE, RELAX_LEXICAL, RELAX_SYNTACTIC, RELAX_BOTH}


def test_relax_config_validation():
    with pytest.raises(ValueError):
        RelaxConfig(lexical_threshold=1.5)
    with pytest.raises(ValueError):
        RelaxConfig(lexical_measure="cosine")
    assert default_config("overlap").lexical_threshold == 0.6
    assert default_config("jaccard").lexical_threshold == 0.5
