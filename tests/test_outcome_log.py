"""The ``outcomes.jsonl`` lines against their oracle: the record dict each
line was once built from, dumped by ``json.dumps`` with sorted keys."""

from hypothesis import given, settings, strategies as st

from patternqa.cli import _outcome_lines
from patternqa.pipeline import Outcome
from patternqa.unification import (RELAX_BOTH, RELAX_LEXICAL, RELAX_NONE, RELAX_SYNTACTIC,
                                   CandidateAnswer)

from .oracles import outcome_line_oracle

# any code point, lone surrogates included, then characters JSON escapes
ESCAPED = '"\\/\b\f\n\r\t\x00\x1f\x7f\x80 \xe9\u2028\ud800\udfff\U0001f600'
TEXT = st.tuples(st.text(st.characters(exclude_categories=()), max_size=4),
                 st.text(st.sampled_from(ESCAPED), max_size=4)).map("".join)
RELAXATIONS = st.sampled_from([RELAX_NONE, RELAX_LEXICAL, RELAX_SYNTACTIC, RELAX_BOTH])
INTEGERS = st.integers(-3, 3) | st.integers(-2**70, 2**70)


@st.composite
def outcome_logs(draw) -> list[Outcome]:
    """Outcomes drawing their candidates from one shared pool, as the run's
    memo shares them, with some taken as equal but distinct copies; some
    outcomes are errors, some have no final answer. Every string comes
    from a few drawn words, so distinct candidates often agree on some
    fields and differ in others."""
    word = st.sampled_from(draw(st.lists(TEXT, min_size=1, max_size=3)))
    nullable = st.none() | word
    pool = draw(st.lists(st.builds(CandidateAnswer, word, st.tuples(INTEGERS, st.integers(0, 1)),
                                   st.sampled_from(["pattern", "ner"]) | word, nullable,
                                   RELAXATIONS, nullable, st.none() | INTEGERS),
                         min_size=1, max_size=4))
    outcomes = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            outcomes.append(Outcome(draw(word), "", error=draw(word)))
            continue
        candidates = [pool[i] if draw(st.booleans()) else pool[i]._replace()
                      for i in draw(st.lists(st.integers(0, len(pool) - 1), max_size=4))]
        final = draw(st.none() | st.sampled_from(candidates)) if candidates else None
        outcomes.append(Outcome(draw(word), draw(word), candidates, final,
                                fallback_used=draw(st.booleans()),
                                patterns_learned=draw(INTEGERS), error=draw(nullable)))
    return outcomes


@settings(max_examples=150, deadline=None)
@given(outcomes=outcome_logs())
def test_outcome_lines_match_the_json_dumps_oracle(outcomes):
    assert "".join(_outcome_lines(outcomes)) == "".join(outcome_line_oracle(o) for o in outcomes)


def test_shared_and_equal_candidates_are_written_in_place():
    """A candidate shared by two outcomes, an equal copy of it, and copies
    that differ from it in one field each are all written where they
    appear, each with its own fields."""
    shared = CandidateAnswer('Dante "Alighieri"', (0, 2), "ner", None, RELAX_NONE, "d", 3)
    other = CandidateAnswer("caf\xe9", (1, 2), "pattern", "[answer NP]", RELAX_LEXICAL, None, None)
    variants = [shared._replace(**{name: value}) for name, value in [
        ("text", "Dante"), ("span", (0, 1)), ("strategy", "pattern"),
        ("pattern_provenance", "[answer NP]"), ("relaxation_used", RELAX_BOTH),
        ("doc_id", None), ("position", None)]]
    outcomes = [Outcome("q1", "HUM:ind", [shared, other], shared),
                Outcome("q2", "HUM:ind", [other, shared, shared._replace(), *variants]),
                Outcome("q3", "", error="ValueError: bad")]
    written = "".join(_outcome_lines(outcomes))
    assert written == "".join(outcome_line_oracle(o) for o in outcomes)
    assert '"text": "caf\\u00e9"' in written
