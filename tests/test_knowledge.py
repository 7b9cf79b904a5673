import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from patternqa.classify import Category, classify
from patternqa.corpus import COARSE_CLASSES, Question, normalize_answer, tokenize
from patternqa.knowledge import (ANSWER_SLOT, LEXICAL, SYNTACTIC, KnowledgeBase, Pattern,
                                 PatternElement, Signature, _answer_span, answer_slot,
                                 learn_patterns, lexical, load_kb, question_signature,
                                 save_kb, syntactic)
from patternqa.retrieval import RetrievedSentence
from patternqa.treebank import parse_sentence
from patternqa.unification import default_config, unify

from .conftest import signature_of
from .oracles import (PHRASE_LABELS, PRETERM_LABELS, TEST_SIGNATURE, VOCAB, analyse,
                      answer_span_oracle, dfs_nodes, learn_patterns_oracle, leaf, leaves, node,
                      random_tree, trees)


def rsent(text, parse, doc_id="doc", position=0):
    return RetrievedSentence(text, parse_sentence(parse), 1.0, doc_id, position)


def test_worked_example_learns_expected_pattern(dante_question, dante_sentence):
    patterns = learn_patterns(dante_question, "Dante", [dante_sentence],
                              signature_of(dante_question))
    assert len(patterns) == 1
    assert [(e.kind, e.value) for e in patterns[0].elements] == [
        ("answer", "NP"), ("lexical", "has"), ("syntactic", "VBN"), ("syntactic", "NP"),
    ]
    assert patterns[0].render() == "NP_answer has VBN NP"


def test_slots_take_the_lowest_of_stacked_constituents(dante_question):
    """Where unary nodes stack over one span, the lowest phrase labels the
    slot, and a lone token's tag serves only when no phrase covers it."""
    stacked = rsent("Dante has written The Divine Comedy",
                    "(S (UCP (NX (NNP Dante))) (VP (VBZ has) (VP (VBN written) "
                    "(FRAG (NP (DT The) (NNP Divine) (NNP Comedy))))))")
    patterns = learn_patterns(dante_question, "Dante", [stacked], signature_of(dante_question))
    assert [p.render() for p in patterns] == ["NX_answer has VBN NP"]
    bare = rsent("Dante has written The Divine Comedy",
                 "(S (NNP Dante) (VP (VBZ has) (VP (VBN written) "
                 "(NP (DT The) (NNP Divine) (NNP Comedy)))))")
    patterns = learn_patterns(dante_question, "Dante", [bare], signature_of(dante_question))
    assert [p.render() for p in patterns] == ["NNP_answer has VBN NP"]


BARE_WROTE_PARSE = "(S (NP (NNP Dante)) wrote (NP (NNP Inferno)) (. .))"
INFERNO_QUESTION_PARSE = "(SBARQ (WHNP (WP Who)) (SQ (VP (VBD wrote) (NP (NNP Inferno)))) (. ?))"


def test_a_leaf_without_a_tag_stays_literal():
    """``wrote`` matches a question word but has no preterminal, so there is
    no tag for it to become: it is learned as the literal token."""
    question = Question(id="q1", text="Who wrote Inferno ?",
                        parse=parse_sentence(INFERNO_QUESTION_PARSE), answers=("Dante",))
    sentence = rsent("Dante wrote Inferno .", BARE_WROTE_PARSE, doc_id="d1")
    patterns = learn_patterns(question, "Dante", [sentence], signature_of(question))
    assert [p.render() for p in patterns] == ["NP_answer wrote NP"]
    assert patterns[0].provenances == {("q1", "d1:0")}


def test_empty_sentence_list(dante_question):
    assert learn_patterns(dante_question, "Dante", [], signature_of(dante_question)) == []


def test_answer_without_question_phrase_learns_nothing(dante_question):
    sentence = rsent(
        "Dante has composed many works",
        "(S (NP (NNP Dante)) (VP (VBZ has) (VP (VBN composed) (NP (JJ many) (NNS works)))))",
    )
    assert learn_patterns(dante_question, "Dante", [sentence], signature_of(dante_question)) == []


def test_signatures_shared_across_same_shape(dante_question, hamlet_question):
    cat = Category("HUM", "ind")
    assert question_signature(dante_question, cat) == question_signature(hamlet_question, cat)
    assert question_signature(dante_question, cat) == question_signature(dante_question, cat)


def test_signature_differs_for_other_shapes(dante_question):
    other = Question(
        id="when", text="When did Dante die?",
        parse=parse_sentence("(SBARQ (WHADVP (WRB When)) (SQ (VBD did) "
                             "(NP (NNP Dante)) (VP (VB die))) (. ?))"),
        answers=("1321",),
    )
    cat = Category("HUM", "ind")
    assert question_signature(dante_question, cat) != question_signature(other, cat)
    # same structure, different category also differs
    assert question_signature(dante_question, cat) != \
        question_signature(dante_question, Category("LOC", "other"))


def test_signature_ignores_deep_leaf_material(dante_question, hamlet_question):
    cat = classify(dante_question)
    sig_a = question_signature(dante_question, cat)
    sig_b = question_signature(hamlet_question, classify(hamlet_question))
    assert sig_a.structure_key == sig_b.structure_key == "who|SBARQ WHNP WP SQ VP ."


def make_pattern(*elements):
    return Pattern(tuple(elements), TEST_SIGNATURE, (("q", "d:0"),))


def test_kb_insert_idempotent():
    kb = KnowledgeBase()
    pattern = make_pattern(answer_slot("NP"), lexical("has"))
    assert kb.insert([pattern]) == 1
    assert kb.insert([pattern]) == 0
    assert len(kb.lookup(TEST_SIGNATURE)) == 1


def test_kb_insert_three_distinct():
    kb = KnowledgeBase()
    patterns = [
        make_pattern(answer_slot("NP"), lexical("has")),
        make_pattern(answer_slot("NP"), lexical("was")),
        make_pattern(answer_slot("NN"), syntactic("VBD")),
    ]
    assert kb.insert(patterns) == 3
    assert kb.lookup(TEST_SIGNATURE) == patterns


def test_same_elements_merge_provenance():
    kb = KnowledgeBase()
    a = Pattern((answer_slot("NP"), lexical("has")), TEST_SIGNATURE, (("q1", "d:0"),))
    b = Pattern((answer_slot("NP"), lexical("has")), TEST_SIGNATURE, (("q2", "d:1"),))
    assert kb.insert([a]) == 1
    assert kb.insert([b]) == 1  # fresh provenance on stored elements
    assert kb.insert([b]) == 0
    stored = kb.lookup(TEST_SIGNATURE)
    assert len(stored) == 1
    assert stored[0].provenances == {("q1", "d:0"), ("q2", "d:1")}
    assert stored[0].source_questions == {"q1", "q2"}


def test_lookup_unseen_signature():
    assert KnowledgeBase().lookup(TEST_SIGNATURE) == []


def test_lookup_does_not_cross_signatures(dante_question):
    kb = KnowledgeBase()
    kb.insert([make_pattern(answer_slot("NP"), lexical("has"))])
    other = question_signature(dante_question, Category("HUM", "ind"))
    assert kb.lookup(other) == []


def test_dante_pattern_applies_to_hamlet_lookup(dante_question, dante_sentence, hamlet_question):
    kb = KnowledgeBase()
    learned = learn_patterns(dante_question, "Dante", [dante_sentence],
                             signature_of(dante_question))
    kb.insert(learned)
    sig = question_signature(hamlet_question, classify(hamlet_question))
    assert kb.lookup(sig) == learned


def test_closure_learned_patterns_extract_their_answer(fixture_questions, fixture_docs):
    # every learnable (question, answer, sentence) triple in the fixture
    # groups satisfies: unifying the learned pattern against its source
    # sentence recovers the answer (exact mode)
    config = default_config()
    sentences = {
        (doc.doc_id, i): RetrievedSentence(text, view, 1.0, doc.doc_id, i)
        for doc in fixture_docs
        for i, (text, view) in enumerate(doc.sentences)
    }
    checked = 0
    for question in fixture_questions:
        answer = question.answers[0]
        for sentence in sentences.values():
            learned = learn_patterns(question, answer, [sentence], signature_of(question))
            for pattern in learned:
                candidates = unify(pattern, sentence.view, config.exact)
                assert any(normalize_answer(c.text) == normalize_answer(answer)
                           for c in candidates), (question.id, pattern.render())
                checked += 1
    assert checked >= 30


def test_learning_is_sentence_order_independent(dante_question, dante_sentence):
    other = rsent("Dante has written The Divine Comedy",
                  "(S (NP (NNP Dante)) (VP (VBZ has) (VP (VBN written) "
                  "(NP (DT The) (NNP Divine) (NNP Comedy)))))",
                  doc_id="other", position=3)
    forward = learn_patterns(dante_question, "Dante", [dante_sentence, other],
                             signature_of(dante_question))
    backward = learn_patterns(dante_question, "Dante", [other, dante_sentence],
                              signature_of(dante_question))
    assert forward == backward
    assert len(forward) == 1
    assert forward[0].provenances == {("dante", "doc:0"), ("dante", "other:3")}


def test_pattern_validation():
    with pytest.raises(ValueError):
        Pattern((lexical("has"), syntactic("NP")), TEST_SIGNATURE, ())  # no slot
    with pytest.raises(ValueError):
        Pattern((answer_slot("NP"), answer_slot("NN")), TEST_SIGNATURE, ())  # two slots
    with pytest.raises(ValueError):
        Pattern((answer_slot("NP"),), TEST_SIGNATURE, ())  # bare slot
    with pytest.raises(ValueError):
        PatternElement("bogus", "x")
    with pytest.raises(ValueError):
        PatternElement(ANSWER_SLOT, "")


def test_pattern_length_cap(dante_question):
    filler = " ".join(f"(NN w{i})" for i in range(11))
    too_long = rsent(
        "Dante " + " ".join(f"w{i}" for i in range(11)) + " The Divine Comedy",
        f"(S (NP (NNP Dante)) {filler} (NP (DT The) (NNP Divine) (NNP Comedy)))",
    )
    assert learn_patterns(dante_question, "Dante", [too_long], signature_of(dante_question)) == []
    filler_ok = " ".join(f"(NN w{i})" for i in range(9))
    long_but_ok = rsent(
        "Dante " + " ".join(f"w{i}" for i in range(9)) + " The Divine Comedy",
        f"(S (NP (NNP Dante)) {filler_ok} (NP (DT The) (NNP Divine) (NNP Comedy)))",
    )
    assert len(learn_patterns(dante_question, "Dante", [long_but_ok],
                              signature_of(dante_question))) == 1


def test_kb_monotone_lookup_never_shrinks():
    rng = random.Random(3)
    kb = KnowledgeBase()
    seen = 0
    for i in range(20):
        tag = rng.choice(["NP", "NN", "VP"])
        token = rng.choice(["has", "was", "did"])
        kb.insert([make_pattern(answer_slot(tag), lexical(token))])
        size = len(kb.lookup(TEST_SIGNATURE))
        assert size >= seen
        seen = size


def test_save_load_roundtrip(tmp_path, dante_question, dante_sentence):
    kb = KnowledgeBase()
    kb.insert(learn_patterns(dante_question, "Dante", [dante_sentence],
                             signature_of(dante_question)))
    kb.record_qa("dante", "Dante")
    path = tmp_path / "kb.json"
    save_kb(kb, path)
    loaded = load_kb(path)
    assert loaded.qa_pairs == kb.qa_pairs
    assert loaded.signatures() == kb.signatures()
    for sig in kb.signatures():
        assert loaded.lookup(sig) == kb.lookup(sig)
    # canonical dump: save(load(f)) is byte-identical to f
    second = tmp_path / "kb2.json"
    save_kb(loaded, second)
    assert second.read_bytes() == path.read_bytes()


def test_save_writes_provenance_sorted(tmp_path):
    entry = {"category": "HUM:ind", "structure_key": "who|S", "patterns": [{
        "elements": [{"kind": "answer", "value": "NP"}, {"kind": "lexical", "value": "has"}],
        "provenance": [["q2", "d:0"], ["q1", "d:5"], ["q1", "d:1"]]}]}
    path = tmp_path / "kb.json"
    path.write_text(json.dumps({"signatures": [entry], "qa_pairs": []}))
    save_kb(load_kb(path), path)
    saved = json.loads(path.read_text())["signatures"][0]["patterns"][0]["provenance"]
    assert saved == [["q1", "d:1"], ["q1", "d:5"], ["q2", "d:0"]]


TOKEN_POOL = ["alpha", "Alpha", "beta", "gamma", "GAMMA", "the", "has", "of", "a", ".", ",",
              "U.S.", "Zürich", "written", "writes"]


def _retoken(tree, rng):
    """``tree`` with each leaf replaced by a token drawn from TOKEN_POOL."""
    if tree.is_leaf:
        return leaf(rng.choice(TOKEN_POOL))
    return node(tree.label, [_retoken(child, rng) for child in tree.children])


def _taught_span(tokens, answer):
    """The first occurrence of the answer's tokens, compared lowercased, else
    of its normalized words among the tokens' normalized forms."""
    for hay, needle in (([t.lower() for t in tokens], [t.lower() for t in tokenize(answer)]),
                        ([normalize_answer(t) for t in tokens], normalize_answer(answer).split())):
        for start in range(len(hay) - len(needle) + 1):
            if needle and hay[start:start + len(needle)] == needle:
                return start, start + len(needle)
    return None


def test_learner_closure_on_random_sentences():
    """Every pattern learned from one sentence unifies exactly with that
    sentence's view and yields the span of the taught answer."""
    rng = random.Random(41)
    config = default_config().exact
    learned = 0
    for _ in range(600):
        tree = _retoken(random_tree(rng, max_leaves=10), rng)
        subtrees = [nd for nd in dfs_nodes(tree) if not nd.is_leaf]
        asked = [rng.choice(subtrees) for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.3:
            asked.append(_retoken(random_tree(rng, max_leaves=3), rng))
        parse = node("SBARQ", [node("WHNP", [node("WP", [leaf("Who")])]), node("SQ", asked)])
        question = Question(id="q", text=" ".join(leaves(parse)), parse=analyse(parse),
                            answers=("x",))
        answer = " ".join(leaves(rng.choice(subtrees)))
        if rng.random() < 0.2:
            answer = rng.choice(["The ", "", "a "]) + answer.upper() + rng.choice(["", "."])
        sentence = RetrievedSentence(" ".join(leaves(tree)), analyse(tree), 1.0, "doc", 3)
        for pattern in learn_patterns(question, answer, [sentence], TEST_SIGNATURE):
            span = _taught_span(sentence.view.tokens, answer)
            assert span in {c.span for c in unify(pattern, sentence.view, config)}, \
                (pattern.render(), answer, sentence.text)
            assert pattern.provenances == {("q", "doc:3")}
            learned += 1
    assert learned >= 150


def _exact_alignments(pattern, view, answer_span):
    """Every exact alignment of ``pattern`` onto ``view`` that puts its
    answer slot on ``answer_span``: one leaf span per element. A literal
    covers the one leaf it equals (lowercased); a tag or the slot covers a
    constituent starting where the previous element ended, with that label."""
    found = []

    def walk(k, at, spans):
        if k == len(pattern.elements):
            found.append(spans)
            return
        element = pattern.elements[k]
        if at >= len(view.tokens):
            return
        if element.kind == LEXICAL:
            if view.lowered[at] == element.value.lower():
                walk(k + 1, at + 1, spans + [(at, at + 1)])
            return
        for end, label, _ in view.constituents[at]:
            if label == element.value and (element.kind != ANSWER_SLOT
                                           or (at, end) == answer_span):
                walk(k + 1, end, spans + [(at, end)])

    for start in range(len(view.tokens)):
        walk(0, start, [])
    return found


TAGS = st.sampled_from(PHRASE_LABELS + PRETERM_LABELS)
WORDS = st.sampled_from(VOCAB + ["written", "writes", "the", "."])


def _phrases(tree):
    return [nd for nd in dfs_nodes(tree) if not nd.is_leaf]


@settings(max_examples=50, deadline=None)
@given(trees(TAGS, WORDS), st.lists(trees(TAGS, WORDS) | st.builds(leaf, WORDS), max_size=3),
       trees(TAGS, WORDS), TAGS, st.booleans(), st.data())
def test_learning_over_bare_leaves(taught, middle, asked, label, answer_first, data):
    """A sentence of the answer's subtree, the asked subtree and, between
    them, subtrees and leaves under no preterminal; the question asks a
    phrase of the asked subtree and some of the words between. Learning
    never raises, every learned pattern unifies exactly to the taught
    answer's span, and no tag stands for a leaf that has none."""
    parts = [taught, *middle, asked] if answer_first else [asked, *middle, taught]
    tree = node(label, parts)
    words = [leaf(token) for part in middle for token in leaves(part)]
    question_parts = [data.draw(st.sampled_from(_phrases(asked)))]
    if words:
        question_parts += data.draw(st.lists(st.sampled_from(words), max_size=2))
    parse = node("SBARQ", [node("WHNP", [node("WP", [leaf("Who")])]),
                           node("SQ", data.draw(st.permutations(question_parts)))])
    question = Question(id="q", text=" ".join(leaves(parse)), parse=analyse(parse),
                        answers=("x",))
    answer = " ".join(leaves(data.draw(st.sampled_from(_phrases(taught)))))
    sentence = RetrievedSentence(" ".join(leaves(tree)), analyse(tree), 1.0, "doc", 2)
    view = sentence.view
    learned = learn_patterns(question, answer, [sentence], TEST_SIGNATURE)
    assert learned == learn_patterns_oracle(question, answer, [sentence], TEST_SIGNATURE)
    untagged = {i for i, nodes in enumerate(view.constituents)
                if not any(is_preterminal for _, _, is_preterminal in nodes)}
    span = _taught_span(view.tokens, answer)
    for pattern in learned:
        assert span in {c.span for c in unify(pattern, view, default_config().exact)}
        witnesses = _exact_alignments(pattern, view, span)
        assert witnesses, pattern.render()
        for spans in witnesses:
            for element, (start, end) in zip(pattern.elements, spans):
                if end - start == 1 and start in untagged:
                    assert element == lexical(view.tokens[start]), pattern.render()


def test_learner_matches_the_per_sentence_oracle(fixture_questions, fixture_docs):
    """Patterns, signatures, provenances and their order equal those of the
    learner that built one Pattern per sentence, on the fixtures and on
    random sentences taught together."""
    sentences = [RetrievedSentence(text, view, 1.0, doc.doc_id, i)
                 for doc in fixture_docs for i, (text, view) in enumerate(doc.sentences)]
    learned = 0
    for question in fixture_questions:
        signature = signature_of(question)
        for answer in question.answers:
            patterns = learn_patterns(question, answer, sentences[::-1], signature)
            assert patterns == learn_patterns_oracle(question, answer, sentences, signature)
            learned += len(patterns)
    rng = random.Random(7)
    for _ in range(300):
        forest = [_retoken(random_tree(rng, max_leaves=8), rng) for _ in range(3)]
        batch = [RetrievedSentence(" ".join(leaves(t)), analyse(t), 1.0, f"d{i % 2}", i)
                 for i, t in enumerate(forest)]
        subtrees = [nd for t in forest for nd in dfs_nodes(t) if not nd.is_leaf]
        parse = node("SBARQ", [node("WHNP", [node("WP", [leaf("Who")])]),
                               node("SQ", [rng.choice(subtrees)])])
        question = Question(id="q", text=" ".join(leaves(parse)), parse=analyse(parse),
                            answers=("x",))
        answer = " ".join(leaves(rng.choice(subtrees)))
        patterns = learn_patterns(question, answer, batch, TEST_SIGNATURE)
        assert patterns == learn_patterns_oracle(question, answer, batch, TEST_SIGNATURE)
        learned += len(patterns)
    assert learned >= 100


ELEMENTS = st.builds(PatternElement, st.sampled_from([LEXICAL, SYNTACTIC]),
                     st.text(min_size=1, max_size=4))
SIGNATURES = st.builds(
    Signature,
    st.builds(Category, st.sampled_from(sorted(COARSE_CLASSES)), st.text(min_size=1, max_size=3)),
    st.text(max_size=8))


@st.composite
def knowledge_bases(draw):
    kb = KnowledgeBase()
    for _ in range(draw(st.integers(0, 8))):
        elements = draw(st.lists(ELEMENTS, min_size=1, max_size=5))
        elements.insert(draw(st.integers(0, len(elements))),
                        answer_slot(draw(st.text(min_size=1, max_size=3))))
        provenances = draw(st.sets(st.tuples(st.text(max_size=3), st.text(max_size=3)),
                                   min_size=1, max_size=4))
        kb.insert([Pattern(tuple(elements), draw(SIGNATURES), provenances)])
    for qid, answer in draw(st.lists(st.tuples(st.text(max_size=3), st.text(max_size=5)),
                                     max_size=4)):
        kb.record_qa(qid, answer)
    return kb


@settings(max_examples=60, deadline=None)
@given(knowledge_bases())
def test_save_load_round_trips_random_kbs(kb):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "kb.json", Path(tmp) / "kb2.json"
        save_kb(kb, first)
        loaded = load_kb(first)
        assert loaded.qa_pairs == kb.qa_pairs
        assert loaded.signatures() == kb.signatures()
        for signature in kb.signatures():
            assert loaded.lookup(signature) == kb.lookup(signature)
            assert [p.source_questions for p in loaded.lookup(signature)] == \
                [p.source_questions for p in kb.lookup(signature)]
        save_kb(loaded, second)
        assert second.read_bytes() == first.read_bytes()


# articles in any case, punctuation-only tokens, and words whose stripped
# form differs from their lowercased one
SPAN_TOKENS = st.sampled_from(["the", "The", "THE", "a", "A", "an", "An", "Dante", "dante",
                               "Dantes", "Dante's", "U.S.", "us", "wrote", "Inferno", "Inferno.",
                               "of", ".", ",", "--", "'s"])


@settings(max_examples=400, deadline=None)
@given(st.lists(SPAN_TOKENS, min_size=1, max_size=10), st.data())
def test_answer_span_matches_the_blanked_sentence_oracle(tokens, data):
    """An answer's span is where it is found among the sentence's tokens
    normalized one by one, articles blanked, whatever articles the answer
    holds in leading, inner or trailing places."""
    sentence = parse_sentence("(S " + " ".join(f"(X {t})" for t in tokens) + ")")
    start = data.draw(st.integers(0, len(tokens) - 1))
    end = data.draw(st.integers(start + 1, len(tokens)))
    around = st.lists(SPAN_TOKENS, max_size=2)
    words = data.draw(around) + tokens[start:end] + data.draw(around)
    answer = " ".join(data.draw(st.just(words) | st.lists(SPAN_TOKENS, min_size=1, max_size=4)))
    forms = (tuple(t.lower() for t in tokenize(answer)), tuple(normalize_answer(answer).split()))
    assert _answer_span(sentence, forms) == answer_span_oracle(sentence, forms)
