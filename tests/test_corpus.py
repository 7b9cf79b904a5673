import json

import pytest
from hypothesis import example, given, settings, strategies as st

from patternqa.corpus import (DataError, json_text, load_documents, load_qa_corpus,
                              normalize_answer, tokenize)

from .conftest import DANTE_QUESTION_PARSE
from .oracles import tokenize_chunks_oracle, tokenize_oracle

GOOD_RECORD = {
    "id": "q1",
    "question": "Who wrote The Divine Comedy?",
    "parse": DANTE_QUESTION_PARSE,
    "category": "HUM:ind",
    "answers": ["Dante"],
}


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return path


def test_load_good_record(tmp_path):
    path = write_jsonl(tmp_path / "qa.jsonl", [GOOD_RECORD])
    questions = load_qa_corpus(path)
    assert len(questions) == 1
    q = questions[0]
    assert q.id == "q1"
    assert q.answers == ("Dante",)
    assert q.category == "HUM:ind"


def test_empty_file(tmp_path):
    path = tmp_path / "qa.jsonl"
    path.write_text("")
    assert load_qa_corpus(path) == []


def test_empty_answers_rejected(tmp_path):
    bad = dict(GOOD_RECORD, answers=[])
    path = write_jsonl(tmp_path / "qa.jsonl", [GOOD_RECORD | {"id": "q0"}, bad])
    with pytest.raises(DataError) as err:
        load_qa_corpus(path)
    assert err.value.line == 2


@pytest.mark.parametrize("answer, message", [
    (None, "answers must be a non-empty list of strings"),
    (5, "answers must be a non-empty list of strings"),
    (["Dante"], "answers must be a non-empty list of strings"),
    ("", "answer '' is empty once normalized"),
    ("The ...", "answer 'The ...' is empty once normalized"),
], ids=["null", "number", "list", "empty", "article-and-punctuation"])
def test_answer_without_a_normalized_form_rejected(tmp_path, answer, message):
    bad = dict(GOOD_RECORD, id="q2", answers=["Dante", answer])
    path = write_jsonl(tmp_path / "qa.jsonl", [GOOD_RECORD, bad])
    with pytest.raises(DataError) as err:
        load_qa_corpus(path)
    assert err.value.line == 2
    assert str(err.value) == f"{path}: line 2: {message}"


def test_duplicate_id_rejected(tmp_path):
    path = write_jsonl(tmp_path / "qa.jsonl", [GOOD_RECORD, GOOD_RECORD])
    with pytest.raises(DataError) as err:
        load_qa_corpus(path)
    assert err.value.line == 2


@pytest.mark.parametrize("category", ["BOGUS:x", "hum:ind", 5])
def test_unknown_gold_category_rejected(tmp_path, category):
    bad = dict(GOOD_RECORD, id="q2", category=category)
    path = write_jsonl(tmp_path / "qa.jsonl", [GOOD_RECORD, bad])
    with pytest.raises(DataError) as err:
        load_qa_corpus(path)
    assert err.value.line == 2


def test_malformed_json_names_line(tmp_path):
    path = tmp_path / "qa.jsonl"
    path.write_text(json.dumps(GOOD_RECORD) + "\n{broken\n")
    with pytest.raises(DataError) as err:
        load_qa_corpus(path)
    assert err.value.line == 2


def test_leaves_must_match_text(tmp_path):
    bad = dict(GOOD_RECORD, question="Who wrote Hamlet?")
    path = write_jsonl(tmp_path / "qa.jsonl", [bad])
    with pytest.raises(DataError):
        load_qa_corpus(path)


def test_leaves_match_text_up_to_case(tmp_path):
    lowered = dict(GOOD_RECORD, question="who wrote the divine comedy?")
    [question] = load_qa_corpus(write_jsonl(tmp_path / "qa.jsonl", [lowered]))
    assert question.parse.tokens[0] == "Who"


def test_one_load_shares_equal_constituents(tmp_path):
    """Equal entries, per-leaf tuples and whole ``constituents`` tuples of
    the views of one load are one object each."""
    sentences = [("Dante wrote.", "(S (NP (NNP Dante)) (VP (VBD wrote)) (. .))"),
                 ("Homer sang songs.", "(S (NP (NNP Homer)) (VP (VBD sang) (NP (NNS songs))) "
                                       "(. .))"),
                 ("Virgil wrote.", "(S (NP (NNP Virgil)) (VP (VBD wrote)) (. .))")]
    record = {"doc_id": "d1", "sentences": [{"text": t, "parse": p} for t, p in sentences]}
    docs = load_documents(write_jsonl(tmp_path / "docs.jsonl", [record]))
    first, second, third = (view.constituents for _, view in docs[0].sentences)
    assert third is first
    assert first[0] != second[0] and first[0][1:] == second[0][1:]
    assert all(a is b for a, b in zip(first[0][1:], second[0][1:]))  # (1, NP), (1, NNP)
    assert first[1][1] is second[1][1]  # (2, VBD, True)


def test_duplicate_doc_id_rejected(tmp_path):
    record = {"doc_id": "d1", "sentences": [
        {"text": "Dante wrote.", "parse": "(S (NP (NNP Dante)) (VP (VBD wrote)) (. .))"}]}
    path = write_jsonl(tmp_path / "docs.jsonl", [record, record | {"doc_id": "d2"}, record])
    with pytest.raises(DataError) as err:
        load_documents(path)
    assert str(err.value) == f"{path}: line 3: duplicate doc_id 'd1'"


def test_load_documents_roundtrip(tmp_path):
    record = {
        "doc_id": "d1",
        "sentences": [
            {"text": "Dante has written The Divine Comedy.",
             "parse": "(S (NP (NNP Dante)) (VP (VBZ has) (VP (VBN written) "
                      "(NP (DT The) (NNP Divine) (NNP Comedy)))) (. .))"}
        ],
    }
    docs = load_documents(write_jsonl(tmp_path / "docs.jsonl", [record]))
    assert docs[0].doc_id == "d1"
    assert len(docs[0].sentences) == 1


def test_loading_is_deterministic(tmp_path):
    path = write_jsonl(tmp_path / "qa.jsonl", [GOOD_RECORD])
    assert load_qa_corpus(path) == load_qa_corpus(path)


def test_tokenize_separates_terminal_punctuation():
    assert tokenize("Who wrote The Divine Comedy?") == \
        ["Who", "wrote", "The", "Divine", "Comedy", "?"]
    assert tokenize("Malcolm X.") == ["Malcolm", "X", "."]
    assert tokenize("It costs 3.5 units.") == ["It", "costs", "3.5", "units", "."]


# terminal punctuation, letters (final sigma among them), and whitespace
# that str.split() splits on: carriage return, file separator, ideographic
# space
TOKENIZE_TEXTS = st.text(alphabet=".,?!;:-'aZΣ \t\r\n\x1c\u3000", max_size=24) | st.text()


@example("?!. ,, ;:")
@example("...")
@example("a.b.")
@example("Σ")
@example("x\r.y")
@example("Bay\x1cPigs.")
@example("Tokyo\u3000Japan?")
@given(TOKENIZE_TEXTS)
def test_tokenize_matches_regex_split(text):
    assert tokenize(text) == tokenize_oracle(text)


@example("a.b.. ..c !? x\u3000y\x85z.")
@given(st.text())
def test_tokenize_matches_chunk_rule(text):
    """The one-regex tokenizer splits where ``str.split`` does: ``re``'s
    whitespace class and ``str.isspace`` agree on every code point."""
    assert tokenize(text) == tokenize_chunks_oracle(text)


@settings(max_examples=50)
@given(st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
                    lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                    max_leaves=12),
       st.booleans())
def test_json_text_matches_json_dumps(value, sort_keys):
    assert json_text(value, sort_keys) == json.dumps(value, indent=1, sort_keys=sort_keys)


@pytest.mark.parametrize("raw,expected", [
    ("The Divine Comedy", "divine comedy"),
    ("Brazil", "brazil"),
    ("  Malcolm  X. ", "malcolm x"),
    ("a rabbit", "rabbit"),
])
def test_normalize_answer(raw, expected):
    assert normalize_answer(raw) == expected


@given(st.text(max_size=40))
def test_normalize_idempotent(text):
    once = normalize_answer(text)
    assert normalize_answer(once) == once


@given(st.text(max_size=20), st.text(max_size=20))
def test_answer_match_symmetric(a, b):
    assert (normalize_answer(a) == normalize_answer(b)) == \
        (normalize_answer(b) == normalize_answer(a))


def test_match_is_exact_not_containment():
    assert normalize_answer("Dante Alighieri") != normalize_answer("Dante")
    assert normalize_answer("The Divine Comedy") == normalize_answer("divine comedy")


def test_fixture_parses_are_canonical(fixture_questions, fixture_docs):
    import json as _json
    from .conftest import FIXTURES
    from .oracles import analyse, parse_bracketed, serialize

    raw = {}
    for line in (FIXTURES / "qa30.jsonl").read_text().splitlines():
        record = _json.loads(line)
        raw[record["id"]] = record["parse"]
    for question in fixture_questions:
        assert serialize(parse_bracketed(raw[question.id])) == raw[question.id]
        assert question.parse == analyse(parse_bracketed(raw[question.id]))
    loaded = [view for doc in fixture_docs for _, view in doc.sentences]
    parses = [sentence["parse"] for line in (FIXTURES / "docs.jsonl").read_text().splitlines()
              for sentence in _json.loads(line)["sentences"]]
    assert len(loaded) == len(parses)
    for view, parse in zip(loaded, parses):
        assert serialize(parse_bracketed(parse)) == parse
        assert view == analyse(parse_bracketed(parse))
