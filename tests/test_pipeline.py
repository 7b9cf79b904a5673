from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from patternqa.classify import Category, classify
from patternqa.corpus import Document, Question
from patternqa.evaluation import running_metrics
from patternqa.extraction import Gazetteer, extract_ner, load_gazetteer, load_regex_rules
from patternqa.knowledge import (KnowledgeBase, Pattern, answer_slot, lexical,
                                 question_signature, syntactic)
from patternqa.pipeline import (Interpretation, PipelineState, ScenarioConfig,
                                answer_question, apply_feedback, extract_candidates,
                                interpret, revise, run_sequence)
from patternqa.retrieval import RetrievedSentence, build_index
from patternqa.treebank import parse_sentence
from patternqa.unification import default_config, lexical_similarity, unify
from patternqa import pipeline as pipeline_module

from .conftest import DANTE_QUESTION_PARSE, HAMLET_QUESTION_PARSE, HINTS, signature_of
from .oracles import count_metrics_oracle, extract_candidates_oracle, naive_revise


def test_scenario_table():
    switches = {sid: (s.use_ner, s.use_patterns, s.reference_fallback)
                for sid in (1, 2, 3, 4) for s in [ScenarioConfig(sid)]}
    assert switches == {1: (True, False, False), 2: (False, True, True),
                        3: (True, True, False), 4: (True, True, True)}
    assert ScenarioConfig(2) == ScenarioConfig(2) != ScenarioConfig(4)
    with pytest.raises(ValueError):
        ScenarioConfig(5)
    with pytest.raises(ValueError):
        ScenarioConfig(0)


def points_of(result, fallback_as_answered=False):
    """The run's running metrics, rescued questions included."""
    return running_metrics(result.outcomes, result.revision)[fallback_as_answered]


def test_revision_checkpoints_strictly_below_total(fixture_questions, make_state):
    def checkpoints(interval):
        result = run_sequence(make_state(), fixture_questions, ScenarioConfig(1),
                              interval)
        return [report.checkpoint for report in result.revision]

    assert len(fixture_questions) == 30
    assert checkpoints(10) == [10, 20]
    assert checkpoints(5) == [5, 10, 15, 20, 25]
    assert checkpoints(30) == []
    with pytest.raises(ValueError):
        checkpoints(0)


def mini_state():
    docs = [Document("lit", (
        ("Dante has written The Divine Comedy.",
         parse_sentence("(S (NP (NNP Dante)) (VP (VBZ has) (VP (VBN written) "
                        "(NP (DT The) (NNP Divine) (NNP Comedy)))) (. .))")),
        ("Shakespeare has written Hamlet.",
         parse_sentence("(S (NP (NNP Shakespeare)) (VP (VBZ has) (VP (VBN written) "
                        "(NP (NNP Hamlet)))) (. .))")),
    ))]
    return PipelineState(kb=KnowledgeBase(), index=build_index(docs),
                         gazetteer=load_gazetteer())


def mini_questions():
    dante = Question(id="d", text="Who wrote The Divine Comedy?",
                     parse=parse_sentence(DANTE_QUESTION_PARSE), answers=("Dante",))
    hamlet = Question(id="h", text="Who wrote Hamlet?",
                      parse=parse_sentence(HAMLET_QUESTION_PARSE),
                      answers=("Shakespeare",))
    return dante, hamlet


def test_scenario2_learns_then_answers_structural_twin():
    state = mini_state()
    scenario = ScenarioConfig(2)
    dante, hamlet = mini_questions()

    first = answer_question(state, dante, scenario)
    assert not first.correct
    assert first.candidates == []
    assert first.fallback_used
    assert first.patterns_learned >= 1

    second = answer_question(state, hamlet, scenario)
    assert second.correct
    assert second.final.text == "Shakespeare"
    assert second.final.strategy == "pattern"
    assert not second.fallback_used
    assert second.patterns_learned >= 1


def test_scenario2_empty_kb_fallback_fires(dante_question, make_state):
    state = make_state()
    outcome = answer_question(state, dante_question, ScenarioConfig(2))
    assert outcome.candidates == []
    assert outcome.fallback_used
    assert not outcome.correct
    assert state.kb.qa_pairs == [("dante", "Dante")]


def test_scenario1_malcolm_x_is_unanswered(fixture_questions, make_state):
    state = make_state()
    malcolm = fixture_questions[0]
    assert malcolm.id == "q01"
    outcome = answer_question(state, malcolm, ScenarioConfig(1))
    assert outcome.candidates == []
    assert outcome.final is None
    assert not outcome.correct
    assert not outcome.fallback_used  # scenario 1 has no fallback
    assert outcome.patterns_learned == 0


def dante_record(question, sentence):
    return Interpretation(question, classify(question, HINTS), signature_of(question), (sentence,))


def pattern_extraction(question, patterns, sentences, memo=None):
    """What ``extract_candidates`` finds with patterns alone, under the
    default relax config, when the KB holds ``patterns`` under the
    question's signature."""
    state = PipelineState(kb=KnowledgeBase(), index=build_index([]), gazetteer=load_gazetteer(),
                          memo={} if memo is None else memo)
    record = Interpretation(question, classify(question, HINTS), signature_of(question),
                            tuple(sentences))
    state.kb.insert(record.signature, patterns)
    return extract_candidates(state, record, use_patterns=True, use_ner=False)


def test_apply_feedback_worked_example(dante_question, dante_sentence):
    state = PipelineState(kb=KnowledgeBase(), index=build_index([]),
                          gazetteer=load_gazetteer())
    record = dante_record(dante_question, dante_sentence)
    assert apply_feedback(state, record, "Dante") == 1
    assert apply_feedback(state, record, "Dante") == 0  # idempotent
    assert state.kb.qa_pairs == [("dante", "Dante"), ("dante", "Dante")]


def test_apply_feedback_without_answer_in_sentences(dante_question, dante_sentence):
    state = PipelineState(kb=KnowledgeBase(), index=build_index([]),
                          gazetteer=load_gazetteer())
    assert apply_feedback(state, dante_record(dante_question, dante_sentence), "Petrarch") == 0
    assert state.kb.qa_pairs == [("dante", "Petrarch")]


def test_run_sequence_empty():
    state = PipelineState(kb=KnowledgeBase(), index=build_index([]),
                          gazetteer=load_gazetteer())
    result = run_sequence(state, [], ScenarioConfig(2))
    assert result.outcomes == [] and points_of(result) == []


def test_recall_grows_with_signature_reuse(fixture_questions, make_state):
    result = run_sequence(make_state(), fixture_questions, ScenarioConfig(2))
    points = points_of(result)
    assert points[29].r > points[9].r
    # strictly increasing across the fixture's group boundaries
    boundary_recall = [points[i - 1].r for i in (6, 14, 22, 30)]
    assert all(b > a for a, b in zip(boundary_recall, boundary_recall[1:]))


def test_scenario3_recall_dominates_scenario1(fixture_questions, make_state):
    r1 = run_sequence(make_state(), fixture_questions, ScenarioConfig(1))
    r3 = run_sequence(make_state(), fixture_questions, ScenarioConfig(3))
    for p1, p3 in zip(points_of(r1), points_of(r3)):
        assert p3.r >= p1.r


def test_fallback_outcomes_are_never_correct(fixture_questions, make_state):
    for scenario_id in (2, 4):
        result = run_sequence(make_state(), fixture_questions,
                              ScenarioConfig(scenario_id))
        for outcome in result.outcomes:
            if outcome.fallback_used:
                assert not outcome.correct


def test_revision_rescues_group_teacher(fixture_questions, make_state):
    result = run_sequence(make_state(), fixture_questions, ScenarioConfig(2), 10)
    assert [r.checkpoint for r in result.revision] == [10, 20]
    assert "q07" in result.revision[0].newly_correct
    assert "q15" in result.revision[1].newly_correct
    # rescued questions count from the point after their checkpoint
    no_revision = run_sequence(make_state(), fixture_questions, ScenarioConfig(2))
    assert points_of(result)[-1].correct > points_of(no_revision)[-1].correct
    assert points_of(result)[9].correct == points_of(no_revision)[9].correct  # log unchanged at cp


def test_smaller_interval_rescues_at_least_as_many(fixture_questions, make_state):
    base = run_sequence(make_state(), fixture_questions, ScenarioConfig(2))
    by_interval = {}
    for interval in (5, 10):
        result = run_sequence(make_state(), fixture_questions, ScenarioConfig(2),
                              interval)
        by_interval[interval] = points_of(result)[-1].correct
    assert by_interval[5] >= by_interval[10] >= points_of(base)[-1].correct


def test_revision_learning_ablation_switch(fixture_questions, make_state):
    learning = run_sequence(make_state(), fixture_questions, ScenarioConfig(2),
                            10, learn_on_revision=True)
    frozen = run_sequence(make_state(), fixture_questions, ScenarioConfig(2),
                          10, learn_on_revision=False)
    # rescues are identical on this fixture; only checkpoint learning differs
    assert [r.newly_correct for r in learning.revision] == \
        [r.newly_correct for r in frozen.revision]
    assert all(r.patterns_learned == 0 for r in frozen.revision)


def test_self_taught_patterns_cannot_rescue(fixture_questions, make_state):
    state = make_state()
    result = run_sequence(state, fixture_questions, ScenarioConfig(2), 10)
    # q01 fallback-learned a pattern under its own unique signature...
    malcolm = fixture_questions[0]
    signature = question_signature(malcolm, classify(malcolm, state.hints))
    stored = state.kb.lookup(signature)
    assert stored and all(p.source_questions == {"q01"} for p in stored)
    # ...so it is retried at every checkpoint but never rescued
    for report in result.revision:
        assert "q01" in report.retried
        assert "q01" not in report.newly_correct


def test_a_question_whose_interpretation_raised_is_retried_but_never_rescued(
        monkeypatch, fixture_questions, make_state):
    """q07 is rescued at the first checkpoint of the scenario-2 run. When
    classifying it raises, it keeps no interpretation: its outcome is an
    error, the checkpoint lists it as retried but not rescued, and the run
    goes on."""
    real = pipeline_module.classify

    def classify_failing_q07(question, hints):
        if question.id == "q07":
            raise RuntimeError("no category")
        return real(question, hints)

    monkeypatch.setattr(pipeline_module, "classify", classify_failing_q07)
    state = make_state()
    result = run_sequence(state, fixture_questions, ScenarioConfig(2), 10)
    assert result.outcomes[6].error == "RuntimeError: no category"
    assert "q07" not in state.interpretations
    assert all("q07" in report.retried and "q07" not in report.newly_correct
               for report in result.revision)
    assert len(result.outcomes) == 30 and result.revision


def test_the_kb_stores_learned_patterns_without_copying_them(monkeypatch, fixture_questions,
                                                             make_state):
    """On the scenario-4 fixture run, every ``Pattern`` built is one the
    learner returned, and each stored pattern is one of those objects."""
    built, learned = [], []
    post_init = Pattern.__post_init__
    real_learn = pipeline_module.learn_patterns

    def counted_post_init(pattern):
        built.append(pattern)
        post_init(pattern)

    def recorded_learn(*args):
        patterns = real_learn(*args)
        learned.extend(patterns)
        return patterns

    monkeypatch.setattr(Pattern, "__post_init__", counted_post_init)
    monkeypatch.setattr(pipeline_module, "learn_patterns", recorded_learn)
    state = make_state()
    run_sequence(state, fixture_questions, ScenarioConfig(4))
    stored = [p for signature in state.kb.signatures() for p in state.kb.lookup(signature)]
    assert stored and len(built) == len(learned)
    assert {id(p) for p in stored} <= {id(p) for p in learned}


def kb_content(kb):
    return [(signature, kb.lookup(signature)) for signature in kb.signatures()]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_revision_matches_naive_retries(data, fixture_questions, fixture_docs):
    """Skipping retries changes no outcome, checkpoint report or learned
    pattern, with and without learning at checkpoints."""
    questions = data.draw(st.permutations(fixture_questions))[:data.draw(st.integers(2, 30))]
    scenario = ScenarioConfig(data.draw(st.sampled_from([2, 3, 4])))
    interval = data.draw(st.integers(1, 6))
    learn = data.draw(st.booleans())
    states = [PipelineState(kb=KnowledgeBase(), index=build_index(fixture_docs),
                            gazetteer=load_gazetteer()) for _ in range(2)]
    skipping = run_sequence(states[0], questions, scenario, interval, learn)
    with mock.patch.object(pipeline_module, "revise", naive_revise):
        naive = run_sequence(states[1], questions, scenario, interval, learn)
    assert skipping == naive
    assert kb_content(states[0].kb) == kb_content(states[1].kb)


def test_retry_reruns_only_when_its_signature_gains_a_pattern(monkeypatch):
    state = mini_state()
    _, hamlet = mini_questions()
    record = interpret(state, hamlet)
    state.interpretations[hamlet.id] = record
    calls = []
    original = pipeline_module.unify
    monkeypatch.setattr(pipeline_module, "unify",
                        lambda *args: calls.append(args[0]) or original(*args))

    def checkpoint():
        calls.clear()
        return revise(state, [hamlet.id], 1).newly_correct

    miss = Pattern((answer_slot("NP"), lexical("zzzz")), {("t1", "lit:0")})
    state.kb.insert(record.signature, [miss])
    assert checkpoint() == [] and calls  # the first retry always runs
    assert checkpoint() == [] and calls == []  # nothing new under the signature
    state.kb.insert(record.signature, [Pattern(miss.elements, {("t2", "lit:1")})])
    assert checkpoint() == [] and calls == []  # new provenance, no new pattern
    hit = Pattern((answer_slot("NP"), lexical("has"), syntactic("VBN"), syntactic("NP")),
                  {("t3", "lit:0")})
    state.kb.insert(record.signature, [hit])
    assert checkpoint() == ["h"]
    assert {pattern.rendered for pattern in calls} == {miss.rendered, hit.rendered}


def test_an_id_asked_again_is_retried_again():
    """One state asks one id twice, across a checkpoint. Asked first with a
    reference no pattern can find, its retry fails and is remembered; asked
    again with one they find, it is retried at the next checkpoint, though
    its signature holds no new pattern, and rescued."""
    state = mini_state()
    _, hamlet = mini_questions()
    scenario = ScenarioConfig(1)  # no pattern is learned on answering
    hit = Pattern((answer_slot("NP"), lexical("has"), syntactic("VBN"), syntactic("NP")),
                  {("t", "lit:0")})
    state.kb.insert(interpret(state, hamlet).signature, [hit])
    assert not answer_question(state, replace(hamlet, answers=("Marlowe",)), scenario).correct
    assert revise(state, [hamlet.id], 1).newly_correct == []
    answer_question(state, hamlet, scenario)
    assert revise(state, [hamlet.id], 2).newly_correct == [hamlet.id]


def test_monotone_learning_candidates_grow_with_kb(dante_question, dante_sentence,
                                                   hamlet_question):
    from patternqa.knowledge import learn_patterns

    learned = learn_patterns(dante_question, "Dante", [dante_sentence])
    sh_sentence = dante_sentence.__class__(
        text="Shakespeare has written Hamlet",
        view=parse_sentence("(S (NP (NNP Shakespeare)) (VP (VBZ has) "
                            "(VP (VBN written) (NP (NNP Hamlet)))))"),
        score=1.0, doc_id="doc", position=1)
    small = pattern_extraction(dante_question, learned, [sh_sentence])
    extra = learn_patterns(hamlet_question, "Shakespeare", [sh_sentence])
    large = pattern_extraction(dante_question, learned + extra, [sh_sentence])
    assert {(c.span, c.doc_id, c.position) for c in small} <= \
        {(c.span, c.doc_id, c.position) for c in large}


def test_extract_candidates_relax_only_when_nothing_matches_exactly(dante_question,
                                                                    dante_sentence):
    from patternqa.knowledge import learn_patterns

    learned = learn_patterns(dante_question, "Dante", [dante_sentence])
    flat_subject = dante_sentence.__class__(
        text="poet has written The Divine Comedy",
        view=parse_sentence("(S (NN poet) (VP (VBZ has) (VP (VBN written) "
                            "(NP (DT The) (NNP Divine) (NNP Comedy)))))"),
        score=1.0, doc_id="doc", position=1)
    # the exact pass covers every sentence before any relaxation is tried
    both = pattern_extraction(dante_question, learned, [flat_subject, dante_sentence])
    assert [(c.text, c.position, c.relaxation_used) for c in both] == [("Dante", 0, "none")]
    alone = pattern_extraction(dante_question, learned, [flat_subject])
    assert [(c.text, c.position, c.relaxation_used) for c in alone] == \
        [("poet", 1, "syntactic")]

def test_error_isolation(monkeypatch, fixture_questions, make_state):
    state = make_state()
    original = pipeline_module.retrieve
    calls = {"n": 0}

    def flaky(index, query, k):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("index corrupted")
        return original(index, query, k)

    monkeypatch.setattr(pipeline_module, "retrieve", flaky)
    result = run_sequence(state, fixture_questions[:4], ScenarioConfig(1))
    assert len(result.outcomes) == 4
    assert result.outcomes[1].error is not None
    assert not result.outcomes[1].correct
    assert result.outcomes[2].error is None


def test_determinism_across_runs(fixture_questions, make_state):
    a = run_sequence(make_state(), fixture_questions, ScenarioConfig(2))
    b = run_sequence(make_state(), fixture_questions, ScenarioConfig(2))
    assert [repr(o) for o in a.outcomes] == [repr(o) for o in b.outcomes]
    assert points_of(a) == points_of(b)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_revision_series_match_id_set_oracle(data, fixture_questions, fixture_docs):
    """The running metrics of a revised run, rescued questions included,
    equal the question-id sets counted by the oracle, under both answered
    conventions."""
    questions = data.draw(st.permutations(fixture_questions))[:data.draw(st.integers(1, 30))]
    scenario = ScenarioConfig(data.draw(st.sampled_from([2, 3, 4])))
    state = PipelineState(kb=KnowledgeBase(), index=build_index(fixture_docs),
                          gazetteer=load_gazetteer())
    result = run_sequence(state, questions, scenario, data.draw(st.integers(1, 6)))
    records = [{"id": o.question_id, "correct": o.correct, "candidates": o.candidates,
                "fallback_used": o.fallback_used} for o in result.outcomes]
    for fallback_as_answered in (False, True):
        series = [(point.i, point.p, point.r, point.correct, point.answered)
                  for point in points_of(result, fallback_as_answered)]
        assert series == count_metrics_oracle(records, result.revision, fallback_as_answered)


def test_relaxed_match_recorded_in_outcome(fixture_questions, make_state):
    result = run_sequence(make_state(), fixture_questions, ScenarioConfig(2))
    by_id = {o.question_id: o for o in result.outcomes}
    assert by_id["q10"].correct
    assert by_id["q10"].final.relaxation_used == "syntactic"


AUTHOR_QUESTION_PARSE = ("(SBARQ (WHNP (WP Who)) (SQ (VBZ is) (NP (NP (DT the) (NN author)) "
                         "(PP (IN of) (NP (NNP {}))))) (. ?))")


def test_lexical_relaxation_at_the_threshold_answers_and_rescues():
    """End to end at the Levenshtein boundary. Each question's only
    supporting sentence spells the literal the other one taught at
    similarity exactly the threshold and one letter shorter or longer
    (``wrot``/``wrote``), so relaxation answers the second question, and a
    revision retry rescues the first with the pattern the second taught."""
    docs = [Document("epics", (
        ("Homer wrot Odyssey.",
         parse_sentence("(S (NP (NNP Homer)) (VP (VBD wrot) (NP (NNP Odyssey))) (. .))")),
        ("Dante wrote Inferno.",
         parse_sentence("(S (NP (NNP Dante)) (VP (VBD wrote) (NP (NNP Inferno))) (. .))")),
    ))]
    state = PipelineState(kb=KnowledgeBase(), index=build_index(docs), gazetteer=load_gazetteer())
    homer, dante = (Question(id=name, text=f"Who is the author of {work} ?",
                             parse=parse_sentence(AUTHOR_QUESTION_PARSE.format(work)),
                             answers=(name,))
                    for name, work in (("Homer", "Odyssey"), ("Dante", "Inferno")))
    assert lexical_similarity("wrot", "wrote") == state.relax.lexical_threshold == 0.8
    scenario = ScenarioConfig(2)

    first = answer_question(state, homer, scenario)
    assert not first.correct and first.fallback_used  # it teaches "NP_answer wrot NP"
    second = answer_question(state, dante, scenario)
    assert (second.final.text, second.final.relaxation_used) == ("Dante", "lexical")
    assert second.patterns_learned == 1  # "NP_answer wrote NP"
    assert revise(state, ["Homer"], 2).newly_correct == ["Homer"]


@pytest.mark.parametrize("scenario_id, interval", [(1, None), (2, None), (3, None), (4, None),
                                                   (2, 5), (2, 10)])
def test_memoized_run_matches_unmemoized_oracle(fixture_questions, make_state, scenario_id,
                                                interval):
    """Every outcome and checkpoint report of a run is what it is when each
    unification and NER pass is computed afresh. Within one fixture run no
    (pattern, sentence, pass) or (label, sentence) pair comes up twice, so
    the corpus is asked a second time on the same state, against the grown
    knowledge base, and the memo must then serve repeated work."""
    scenario = ScenarioConfig(scenario_id)
    state, reference = make_state(), make_state()
    with mock.patch.object(pipeline_module, "unify", wraps=unify) as unified, \
            mock.patch.object(pipeline_module, "extract_ner", wraps=extract_ner) as ner:
        results = [run_sequence(state, fixture_questions, scenario, interval) for _ in range(2)]
    lookups = unified.call_count + sum(len(call.args[1]) for call in ner.call_args_list)
    assert 0 < len(state.memo) < lookups
    with mock.patch.object(pipeline_module, "extract_candidates", extract_candidates_oracle):
        expected = [run_sequence(reference, fixture_questions, scenario, interval)
                    for _ in range(2)]
    assert reference.memo == {}
    for result, oracle in zip(results, expected):
        assert result.outcomes == oracle.outcomes
        assert result.revision == oracle.revision


def test_memo_keeps_passes_labels_and_positions_apart(dante_question, dante_sentence):
    """One memo, as a run shares it: a pattern that unifies with a sentence
    only once relaxed, and NER on one document's sentences under two fine
    labels whose gazetteer forms differ, each get their own result."""
    from patternqa.knowledge import learn_patterns

    memo = {}
    learned = learn_patterns(dante_question, "Dante", [dante_sentence])
    flat_subject = RetrievedSentence(
        "poet has written The Divine Comedy",
        parse_sentence("(S (NN poet) (VP (VBZ has) (VP (VBN written) "
                       "(NP (DT The) (NNP Divine) (NNP Comedy)))))"), 1.0, "doc", 0)
    config = default_config()
    assert unify(learned[0], flat_subject.view, config.exact, "doc", 0, memo) == ()
    assert [c.text for c in unify(learned[0], flat_subject.view, config, "doc", 0, memo)] == \
        ["poet"]
    assert [(c.text, c.relaxation_used) for c in
            pattern_extraction(dante_question, learned, [flat_subject], memo)] == \
        [("poet", "syntactic")]

    sentences = [
        RetrievedSentence("he played the trumpet to a rabbit .",
                          parse_sentence("(S (NP (PRP he)) (VP (VBD played) (NP (DT the) "
                                         "(NN trumpet)) (PP (TO to) (NP (DT a) (NN rabbit)))) "
                                         "(. .))"), 1.0, "zoo", 0),
        RetrievedSentence("a rabbit ate .",
                          parse_sentence("(S (NP (DT a) (NN rabbit)) (VP (VBD ate)) (. .))"),
                          1.0, "zoo", 1),
    ]
    gazetteer = Gazetteer({"ENTY:instru": {"trumpet"}, "ENTY:animal": {"rabbit"}})
    rules = load_regex_rules()
    found = {}
    for fine in ("instru", "animal"):
        category = Category("ENTY", fine)
        found[fine] = [(c.position, c.text) for c in
                       extract_ner(category, sentences, gazetteer, rules, memo)]
        assert found[fine] == [(c.position, c.text) for c in
                               extract_ner(category, sentences, gazetteer, rules)]
    assert found == {"instru": [(0, "trumpet")], "animal": [(0, "rabbit"), (1, "rabbit")]}


def test_memo_keeps_a_syntactic_only_pass_apart(dante_question, dante_sentence):
    """A pass is keyed by both relaxation switches: with lexical relaxation
    off, the relaxed pass differs from the exact one in its syntactic switch
    alone, and still gets its own result."""
    from patternqa.knowledge import learn_patterns

    memo = {}
    learned = learn_patterns(dante_question, "Dante", [dante_sentence])
    view = parse_sentence("(S (NN poet) (VP (VBZ has) (VP (VBN written) "
                          "(NP (DT The) (NNP Divine) (NNP Comedy)))))")
    config = default_config(enable_lexical=False)
    assert unify(learned[0], view, config.exact, "doc", 0, memo) == ()
    assert [c.text for c in unify(learned[0], view, config, "doc", 0, memo)] == ["poet"]
