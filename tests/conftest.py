from pathlib import Path

import pytest

from patternqa.classify import classify, load_hint_table
from patternqa.corpus import Question, load_documents, load_qa_corpus
from patternqa.extraction import load_gazetteer
from patternqa.knowledge import KnowledgeBase, question_signature
from patternqa.pipeline import PipelineState
from patternqa.retrieval import RetrievedSentence, build_index
from patternqa.treebank import parse_sentence

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

DANTE_QUESTION_PARSE = (
    "(SBARQ (WHNP (WP Who)) (SQ (VP (VBD wrote) "
    "(NP (DT The) (NNP Divine) (NNP Comedy)))) (. ?))"
)
DANTE_SENTENCE_PARSE = (
    "(S (NP (NNP Dante)) (VP (VBZ has) (VP (VBN written) "
    "(NP (DT The) (NNP Divine) (NNP Comedy)))))"
)
HAMLET_QUESTION_PARSE = (
    "(SBARQ (WHNP (WP Who)) (SQ (VP (VBD wrote) (NP (NNP Hamlet)))) (. ?))"
)


HINTS = load_hint_table()


@pytest.fixture(autouse=True)
def cold_cache(tmp_path_factory, monkeypatch):
    """Every test starts with an empty load cache of its own, outside its
    ``tmp_path`` (which some tests list whole); processes a test starts
    inherit it. No test reads or writes the user's cache."""
    directory = tmp_path_factory.mktemp("cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(directory))
    return directory / "patternqa"


def signature_of(question):
    """The signature the pipeline files a question under, default hints."""
    return question_signature(question, classify(question, HINTS))


@pytest.fixture
def dante_question():
    return Question(
        id="dante",
        text="Who wrote The Divine Comedy?",
        parse=parse_sentence(DANTE_QUESTION_PARSE),
        answers=("Dante",),
    )


@pytest.fixture
def dante_sentence():
    return RetrievedSentence(
        text="Dante has written The Divine Comedy",
        view=parse_sentence(DANTE_SENTENCE_PARSE),
        score=1.0,
        doc_id="doc",
        position=0,
    )


@pytest.fixture
def hamlet_question():
    return Question(
        id="hamlet",
        text="Who wrote Hamlet?",
        parse=parse_sentence(HAMLET_QUESTION_PARSE),
        answers=("Shakespeare",),
    )


@pytest.fixture(scope="session")
def fixture_questions():
    return load_qa_corpus(FIXTURES / "qa30.jsonl")


@pytest.fixture(scope="session")
def fixture_docs():
    return load_documents(FIXTURES / "docs.jsonl")


@pytest.fixture
def make_state(fixture_docs):
    def factory(**kwargs):
        return PipelineState(
            kb=kwargs.pop("kb", KnowledgeBase()),
            index=build_index(fixture_docs),
            gazetteer=load_gazetteer(),
            **kwargs,
        )

    return factory
