"""The hot-path value records (candidates, pattern elements, signatures,
categories and metric points) are tuples: built, hashed and compared by
``tuple`` itself, immutable, without a per-instance ``__dict__``, and
validated as before."""

import re

import pytest

from patternqa.classify import Category
from patternqa.evaluation import EvalPoint
from patternqa.extraction import extract_ner, load_gazetteer, load_regex_rules
from patternqa.knowledge import ANSWER_SLOT, PatternElement, Signature, lexical, load_kb, save_kb
from patternqa.pipeline import ScenarioConfig, run_sequence
from patternqa.treebank import parse_sentence
from patternqa.unification import CandidateAnswer, default_config, unify

from .conftest import DANTE_SENTENCE_PARSE
from .oracles import TEST_SIGNATURE
from .test_extraction import DANTE
from .test_unification import DANTE_PATTERN

CATEGORY = Category("HUM", "ind")


def candidates() -> tuple[CandidateAnswer, ...]:
    """Candidates as the pipeline builds them: by unification and by NER."""
    found = unify(DANTE_PATTERN, parse_sentence(DANTE_SENTENCE_PARSE), default_config(), "doc", 0)
    found += tuple(extract_ner(CATEGORY, [DANTE], load_gazetteer(), load_regex_rules()))
    assert {c.strategy for c in found} == {"pattern", "ner"}
    return found


@pytest.mark.parametrize("record", [PatternElement, Signature, Category, CandidateAnswer,
                                    EvalPoint])
def test_records_hash_and_compare_as_tuples(record):
    assert record.__hash__ is tuple.__hash__
    assert record.__eq__ is tuple.__eq__
    assert record.__ne__ is tuple.__ne__


def test_records_equal_plain_tuples_of_their_fields():
    assert lexical("has") == ("lexical", "has")
    assert hash(CATEGORY) == hash(("HUM", "ind"))
    assert TEST_SIGNATURE == (("ENTY", "other"), "test|S")


def test_no_record_has_an_instance_dict():
    records = [*candidates(), lexical("has"), CATEGORY, TEST_SIGNATURE]
    assert [r for r in records if hasattr(r, "__dict__")] == []


def test_record_fields_cannot_be_set():
    cand = candidates()[0]
    for record, name in [(cand, "text"), (cand, "doc_id"), (lexical("has"), "value"),
                         (CATEGORY, "coarse"), (TEST_SIGNATURE, "category")]:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        cand.score = 1.0  # no new attribute either


@pytest.mark.parametrize("build, message", [
    (lambda: PatternElement("bogus", "x"), "unknown element kind 'bogus'"),
    (lambda: PatternElement(ANSWER_SLOT, ""), "element value must be non-empty"),
    (lambda: Category("BOGUS", "x"), "unknown coarse class 'BOGUS'"),
    (lambda: Category.parse("BOGUS:x"), "unknown coarse class 'BOGUS'"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_learned_kb_survives_save_load_save(tmp_path, make_state, fixture_questions):
    """A knowledge base grown by a whole scenario-4 run on the fixtures is
    written, read back and written again byte-identical."""
    state = make_state()
    run_sequence(state, fixture_questions, ScenarioConfig.from_id(4))
    assert state.kb.pattern_count() > 0
    first, second = tmp_path / "kb.json", tmp_path / "kb2.json"
    save_kb(state.kb, first)
    loaded = load_kb(first)
    assert loaded.signatures() == state.kb.signatures()
    assert all(loaded.lookup(s) == state.kb.lookup(s) for s in state.kb.signatures())
    save_kb(loaded, second)
    assert second.read_bytes() == first.read_bytes()
