import gc
import random
import string
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from patternqa import unification
from patternqa.knowledge import Pattern, answer_slot, lexical, syntactic
from patternqa.treebank import parse_sentence
from patternqa.unification import (RELAX_BOTH, RELAX_LEXICAL, RELAX_NONE,
                                   RELAX_SYNTACTIC, RelaxConfig,
                                   default_config, distance_limit,
                                   levenshtein_distance, levenshtein_reaches,
                                   lexical_similarity, load_tag_hierarchy,
                                   tag_compatible, unify)

from .oracles import (analyse, brute_force_alignments, brute_force_answer_spans, leaves,
                      levenshtein_oracle, misspell, random_pattern, random_tree,
                      similarity_oracle)

DANTE_PATTERN = Pattern(
    (answer_slot("NP"), lexical("has"), syntactic("VBN"), syntactic("NP")),
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


THRESHOLDS = st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(st.text("abcd", max_size=12), st.text("abcd", max_size=12), st.integers(0, 13))
@example("kitten", "sitting", 3)
@example("kitten", "sitting", 2)
@example("", "abc", 2)
@example("abc", "", 3)
@example("abcdef", "badcfe", 0)
def test_bounded_distance_is_exact_up_to_its_limit(a, b, limit):
    """With a limit, the distance is exact when it is at most the limit, and
    reads ``limit + 1`` when it is larger."""
    assert levenshtein_distance(a, b, limit) == min(levenshtein_oracle(a, b), limit + 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 60), THRESHOLDS)
@example(5, 0.8)  # 1 - 1/5 == 0.8 exactly
@example(10, 0.7)  # 1 - 3/10 < 0.7 in floats
@example(0, 1.0)
def test_distance_limit_is_the_largest_passing_distance(longest, threshold):
    passing = [d for d in range(longest + 1) if longest == 0 or 1.0 - d / longest >= threshold]
    assert distance_limit(longest, threshold) == max(passing)


@settings(max_examples=300, deadline=None)
@given(st.text("abcde", max_size=10), st.text("abcde", max_size=10), THRESHOLDS, st.booleans())
@example("wrote", "wrot", 0.8, False)  # similarity exactly 0.8, lengths 5 and 4
@example("abcde", "abcd", 0.8, False)
@example("ab", "a", 0.5, False)
@example("", "", 1.0, False)
@example("", "a", 0.0, False)
@example("", "a", 1.0, False)
def test_the_band_decides_as_the_similarity_does(a, b, threshold, at_similarity):
    """The banded test passes a pair exactly when its Levenshtein similarity
    reaches the threshold, a threshold equal to the similarity included."""
    similarity = similarity_oracle(a, b, "levenshtein")
    if at_similarity:
        threshold = similarity
    assert levenshtein_reaches(a, b, threshold) == (similarity >= threshold)


def test_the_band_fills_a_small_share_of_the_table(monkeypatch):
    """Two 4,000-character tokens have a 16,000,000-cell table. At the
    default threshold a pair passes within distance 800, so only cells at
    most 400 columns off the diagonal are filled, and two unrelated tokens
    exceed 800 in a whole row long before the last: under 10% of the table
    is filled. A pair within the threshold fills its whole band, at most
    ``limit + 1`` cells a row. The fill takes the least of three
    neighbours, once per cell, so counting those calls counts the cells."""
    cells = 0

    def counting_min(*args):
        nonlocal cells
        cells += len(args) == 3
        return min(*args)

    monkeypatch.setattr(unification, "min", counting_min, raising=False)
    rng = random.Random(4000)
    a, b = ("".join(rng.choices(string.ascii_lowercase, k=4000)) for _ in range(2))
    assert distance_limit(4000, 0.8) == 800
    assert not levenshtein_reaches(a, b, 0.8)
    assert 0 < cells < 0.1 * 4000 * 4000
    cells = 0
    close = "".join("z" if i % 10 == 0 else c for i, c in enumerate(a[:300]))
    assert levenshtein_reaches(a[:300], close, 0.8)
    assert cells <= 300 * (distance_limit(300, 0.8) + 1)


def test_relaxed_matching_runs_no_distance_that_lengths_rule_out(monkeypatch):
    """Only the token whose length is close enough to the literal's fills
    any cell of an edit-distance table; the match it finds is unchanged.
    The fill takes the least of three neighbours, once per cell, so
    counting those calls, each under the pair being compared, counts the
    cells each pair fills."""
    compared = []
    filled = Counter()

    def noting(a, b, limit=None):
        compared.append((a, b))
        return levenshtein_distance(a, b, limit)

    def counting_min(*args):
        if len(args) == 3:
            filled[compared[-1]] += 1
        return min(*args)

    monkeypatch.setattr(unification, "levenshtein_distance", noting)
    monkeypatch.setattr(unification, "min", counting_min, raising=False)
    pattern = Pattern((answer_slot("NP"), lexical("wrote"), syntactic("NP")), {("q", "doc:0")})
    view = parse_sentence("(S (NP (NNP Homer)) (VP (VBD wrot) (NP (NNP Odyssey))) "
                          "(PP (IN in) (NP (NNP Greece))) (CC and) (NP (NNS epics)) "
                          "(VP (VBD composed) (NP (NNP Iliad))))")
    found = unify(pattern, view, default_config())
    assert [(c.text, c.relaxation_used) for c in found] == [("Homer", RELAX_LEXICAL)]
    assert len(set(compared)) > 1  # other tokens are compared, and fill nothing
    assert set(filled) == {("wrot", "wrote")}


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
        assert got == brute_force_alignments(pattern, tree, config), pattern.rendered
        labels.update(got.values())
    assert labels == {RELAX_NONE, RELAX_LEXICAL, RELAX_SYNTACTIC, RELAX_BOTH}


def test_relax_config_validation():
    with pytest.raises(ValueError):
        default_config(threshold=1.5)
    with pytest.raises(ValueError):
        default_config("cosine")
    with pytest.raises(ValueError):
        default_config("cosine", threshold=0.5)
    assert default_config("overlap").lexical_threshold == 0.6
    assert default_config("jaccard").lexical_threshold == 0.5


def test_default_config_is_the_one_source_of_defaults():
    """A config has no defaults of its own: one built without a tag
    hierarchy is refused, not left unable to relax a tag."""
    with pytest.raises(TypeError):
        RelaxConfig(True, "levenshtein", 0.8, True)
    with pytest.raises(TypeError):
        RelaxConfig()
    config = default_config()
    assert (config.lexical_measure, config.lexical_threshold) == ("levenshtein", 0.8)
    assert config.tag_hierarchy == load_tag_hierarchy() and config.tag_hierarchy


def test_alignments_through_one_state_keep_each_answer_span():
    """From ``a`` and from ``b`` the pattern reaches ``d`` at its last element
    holding different answer spans: a state is told apart by its span, so
    skipping a state already explored loses neither."""
    view = parse_sentence("(S (NN a) (X (NN b) (X (NN c))) (NN d))")
    pattern = Pattern((answer_slot("NN"), syntactic("X"), syntactic("NN")), {("q", "d:0")})
    assert [c.span for c in unify(pattern, view, default_config().exact)] == [(0, 1), (1, 2)]


class _TooManyCalls(Exception):
    pass


def match_calls(pattern, view, config, cap: int) -> int:
    """How many times one ``unify`` call enters its inner ``match``, counted by
    a profile hook that raises once the count passes ``cap``, so that an
    exponential search fails at once instead of running for hours."""
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_name == "match" \
                and frame.f_code.co_filename == unification.__file__:
            count += 1
            if count > cap:
                raise _TooManyCalls(f"{pattern.rendered}: over {cap} match calls")

    sys.setprofile(hook)
    try:
        unify(pattern, view, config)
    finally:
        sys.setprofile(None)
    return count


def test_alignment_is_polynomial_on_stacked_constituents():
    """Each of 12 tokens sits under 8 NPs, so a pattern of k NP slots has
    8^k alignments at each start, and exploring each (about 4 * 10^8 calls
    at k = 12) would take hours. Each search state is explored once per
    pass, so the count of ``match`` calls stays within a polynomial bound in
    the sentence length, the pattern length and the stack depth, in the
    exact pass and in the relaxed one, where NN and NP share a superclass."""
    n, depth = 12, 8

    def stacked(i):
        tree = f"(NN w{i})"
        for _ in range(depth):
            tree = f"(NP {tree})"
        return tree

    view = parse_sentence(f"(S {' '.join(stacked(i) for i in range(n))})")
    for k in range(3, 13):
        pattern = Pattern((*[syntactic("NP")] * (k - 1), answer_slot("NP")), {("q", "d:0")})
        bound = 2 * (n + 1) * k * (depth + 1)
        for config in (default_config().exact, default_config()):
            assert match_calls(pattern, view, config, cap=bound) <= bound
            assert [c.span for c in unify(pattern, view, config)] == \
                [(i + k - 1, i + k) for i in range(n - k + 1)]
