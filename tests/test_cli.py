import contextlib
import functools
import gc
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from patternqa.cli import main
from patternqa.knowledge import KnowledgeBase, save_kb

from .conftest import (DANTE_QUESTION_PARSE, DANTE_SENTENCE_PARSE, FIXTURES,
                       HAMLET_QUESTION_PARSE, signature_of)

CORPUS = str(FIXTURES / "qa30.jsonl")
DOCS = str(FIXTURES / "docs.jsonl")


def run_cli(*argv):
    return main(list(argv))


def test_ingest_ok(capsys):
    assert run_cli("ingest", "--corpus", CORPUS, "--docs", DOCS) == 0
    out = capsys.readouterr().out
    assert "30 questions" in out
    assert "33 sentences" in out


def test_ingest_without_args_is_usage_error():
    assert run_cli("ingest") == 1


def test_ingest_bad_corpus_is_data_error(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "q1"}\n')
    assert run_cli("ingest", "--corpus", str(bad)) == 2


def test_missing_file_is_data_error(tmp_path):
    assert run_cli("ingest", "--corpus", str(tmp_path / "nope.jsonl")) == 2


def test_unknown_scenario_is_usage_error():
    assert run_cli("run", "--scenario", "5", "--corpus", CORPUS, "--docs", DOCS) == 1


def test_run_scenario2_outputs(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert run_cli("run", "--scenario", "2", "--corpus", CORPUS, "--docs", DOCS,
                   "--out-dir", str(out_dir)) == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["metadata.json", "outcomes.jsonl", "scenario2_metrics.csv"]
    lines = (out_dir / "outcomes.jsonl").read_text().splitlines()
    assert len(lines) == 30
    record = json.loads(lines[0])
    assert record["id"] == "q01"
    assert not record["correct"]


def test_run_with_revision_outputs(tmp_path):
    out_dir = tmp_path / "run"
    assert run_cli("run", "--scenario", "2", "--corpus", CORPUS, "--docs", DOCS,
                   "--revise-interval", "10", "--out-dir", str(out_dir)) == 0
    report = json.loads((out_dir / "revision_report.json").read_text())
    assert [c["checkpoint"] for c in report["checkpoints"]] == [10, 20]
    assert (out_dir / "revision_i10.csv").is_file()


def test_run_turns_the_collector_back_on(tmp_path, monkeypatch):
    """Loading pauses the cyclic collector; a run or tutor session that
    ends, well or on a bad docs line, leaves it on for the caller. What a
    successful load made is frozen; a failed load freezes nothing (the
    count may still fall, as frozen objects are freed)."""
    bad_docs = tmp_path / "docs.jsonl"
    bad_docs.write_text(Path(DOCS).read_text("utf-8") + '{"doc_id": "x", "sentences": [3]}\n',
                        "utf-8")
    monkeypatch.setattr(sys, "stdin", io.StringIO("quit\n"))
    for docs, code in ((DOCS, 0), (str(bad_docs), 2)):
        for argv in (["run", "--scenario", "1", "--corpus", CORPUS,
                      "--out-dir", str(tmp_path / f"out{code}")], ["tutor"]):
            assert gc.isenabled()
            frozen = gc.get_freeze_count()
            assert main([*argv, "--docs", docs]) == code
            assert gc.isenabled()
            assert (gc.get_freeze_count() > frozen) == (code == 0)


def test_runs_are_byte_identical(tmp_path):
    dirs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        assert run_cli("run", "--scenario", "3", "--corpus", CORPUS, "--docs", DOCS,
                       "--out-dir", str(out_dir)) == 0
        dirs.append(out_dir)
    for filename in ("outcomes.jsonl", "scenario3_metrics.csv", "metadata.json"):
        assert (dirs[0] / filename).read_bytes() == (dirs[1] / filename).read_bytes()


def test_rerun_from_metadata_reproduces_log(tmp_path):
    first = tmp_path / "first"
    assert run_cli("run", "--scenario", "4", "--corpus", CORPUS, "--docs", DOCS,
                   "--out-dir", str(first)) == 0
    second = tmp_path / "second"
    assert run_cli("run", "--from-metadata", str(first / "metadata.json"),
                   "--out-dir", str(second)) == 0
    assert (first / "outcomes.jsonl").read_bytes() == (second / "outcomes.jsonl").read_bytes()


@pytest.mark.parametrize("changed, old, new", [
    ("docs", b'"doc_id": "history"', b'"doc_id": "historz"'),
    ("corpus", b'"id": "q01"', b'"id": "q00"'),
    ("kb", b'"violin"', b'"violiN"'),
], ids=["docs", "corpus", "kb-in"])
def test_rerun_refuses_an_input_changed_since_the_run(tmp_path, capsys, changed, old, new):
    """``--from-metadata`` checks each recorded input digest; one changed
    byte in an input makes the re-run a one-line data error naming it."""
    inputs = {"docs": tmp_path / "docs.jsonl", "corpus": tmp_path / "qa.jsonl",
              "kb": tmp_path / "kb.json"}
    inputs["docs"].write_bytes(Path(DOCS).read_bytes())
    inputs["corpus"].write_bytes(Path(CORPUS).read_bytes())
    assert run_cli("run", "--scenario", "2", "--corpus", str(inputs["corpus"]),
                   "--docs", str(inputs["docs"]), "--out-dir", str(tmp_path / "kb-run"),
                   "--kb-out", str(inputs["kb"])) == 0
    first = tmp_path / "first"
    assert run_cli("run", "--scenario", "2", "--corpus", str(inputs["corpus"]),
                   "--docs", str(inputs["docs"]), "--kb-in", str(inputs["kb"]),
                   "--out-dir", str(first)) == 0
    recorded = json.loads((first / "metadata.json").read_text())["inputs"]
    assert sorted(recorded) == ["corpus_sha256", "docs_sha256", "kb_in_sha256"]
    assert run_cli("run", "--from-metadata", str(first / "metadata.json"),
                   "--out-dir", str(tmp_path / "same")) == 0
    content = inputs[changed].read_bytes()
    assert content.count(old) == 1
    inputs[changed].write_bytes(content.replace(old, new))
    capsys.readouterr()
    rerun = tmp_path / "rerun"
    assert run_cli("run", "--from-metadata", str(first / "metadata.json"),
                   "--out-dir", str(rerun)) == 2
    name = "kb_in" if changed == "kb" else changed
    assert capsys.readouterr().err == (
        f"data error: {first / 'metadata.json'}: {inputs[changed]} does not match the "
        f"recorded {name}_sha256; the input changed since the run\n")
    assert not rerun.exists()


def test_metadata_records_no_kb_digest_without_kb_in(tmp_path):
    assert run_cli("run", "--scenario", "2", "--corpus", CORPUS, "--docs", DOCS,
                   "--out-dir", str(tmp_path)) == 0
    recorded = json.loads((tmp_path / "metadata.json").read_text())["inputs"]
    assert sorted(recorded) == ["corpus_sha256", "docs_sha256"]


def test_metadata_inputs_not_an_object_is_data_error(tmp_path, capsys):
    meta = tmp_path / "metadata.json"
    meta.write_text(json.dumps({"config": RECORDED_CONFIG, "inputs": ["sha"]}))
    assert run_cli("run", "--from-metadata", str(meta), "--out-dir", str(tmp_path / "run")) == 2
    assert capsys.readouterr().err == f"data error: {meta}: inputs must be an object\n"


def test_kb_roundtrip_through_run(tmp_path):
    kb_path = tmp_path / "kb.json"
    out_dir = tmp_path / "run"
    assert run_cli("run", "--scenario", "2", "--corpus", CORPUS, "--docs", DOCS,
                   "--out-dir", str(out_dir), "--kb-out", str(kb_path)) == 0
    assert kb_path.is_file()
    payload = json.loads(kb_path.read_text())
    assert payload["signatures"]
    assert payload["qa_pairs"]


def test_stats_reports_counts(tmp_path, capsys):
    kb_path = tmp_path / "kb.json"
    out_dir = tmp_path / "run"
    run_cli("run", "--scenario", "2", "--corpus", CORPUS, "--docs", DOCS,
            "--out-dir", str(out_dir), "--kb-out", str(kb_path))
    capsys.readouterr()
    assert run_cli("stats", "--kb-in", str(kb_path),
                   "--outcomes", str(out_dir / "outcomes.jsonl")) == 0
    out = capsys.readouterr().out
    assert "qa pairs: 30" in out
    # exact + relaxed must sum to the pattern-extracted corrects in the log
    exact = relaxed = total = 0
    for line in (out_dir / "outcomes.jsonl").read_text().splitlines():
        record = json.loads(line)
        if record["correct"] and record["final_strategy"] == "pattern":
            total += 1
            if record["relaxation_used"] == "none":
                exact += 1
            else:
                relaxed += 1
    assert f"(exact: {exact}, relaxed: {relaxed})" in out
    assert exact + relaxed == total
    assert relaxed >= 1  # the flat-subject fixture question


def test_stats_empty_kb(tmp_path, capsys):
    kb_path = tmp_path / "kb.json"
    save_kb(KnowledgeBase(), kb_path)
    assert run_cli("stats", "--kb-in", str(kb_path)) == 0
    out = capsys.readouterr().out
    assert "patterns total: 0" in out
    assert "qa pairs: 0" in out


def test_stats_missing_kb():
    assert run_cli("stats", "--kb-in", "/nonexistent/kb.json") == 2


@pytest.mark.parametrize("argv", [
    ("ingest", "--corpus", ""),
    ("ingest", "--docs", ""),
    ("run", "--scenario", "2", "--corpus", CORPUS, "--docs", DOCS, "--kb-in", ""),
    ("run", "--from-metadata", ""),
    ("stats", "--kb-in", "{kb}", "--outcomes", ""),
    ("tutor", "--docs", DOCS, "--kb-in", ""),
], ids=["ingest-corpus", "ingest-docs", "run-kb-in", "run-from-metadata", "stats-outcomes",
        "tutor-kb-in"])
def test_empty_input_path_is_data_error(tmp_path, monkeypatch, capsys, argv):
    """An empty path names no file: it is checked like any other, not taken
    as the flag left out."""
    kb_path = tmp_path / "kb.json"
    save_kb(KnowledgeBase(), kb_path)
    monkeypatch.setattr(sys, "stdin", io.StringIO("quit\n"))
    out_dir = tmp_path / "run"
    extra = ("--out-dir", str(out_dir)) if argv[0] == "run" else ()
    assert run_cli(*(arg.format(kb=kb_path) for arg in argv), *extra) == 2
    err = capsys.readouterr().err
    assert err.startswith('data error: "": ') and err.endswith(" file not found\n")
    assert not out_dir.exists()


def _run_tutor(monkeypatch, capsys, transcript, *argv):
    monkeypatch.setattr(sys, "stdin", io.StringIO(transcript))
    code = main(["tutor", *argv])
    return code, capsys.readouterr().out


def test_tutor_quit_preserves_kb(tmp_path, monkeypatch, capsys, dante_question,
                                 dante_sentence):
    from patternqa.knowledge import learn_patterns

    kb = KnowledgeBase()
    kb.insert(learn_patterns(dante_question, "Dante", [dante_sentence],
                             signature_of(dante_question)))
    kb_in = tmp_path / "in.json"
    kb_out = tmp_path / "out.json"
    save_kb(kb, kb_in)
    code, _ = _run_tutor(monkeypatch, capsys, "quit\n",
                         "--docs", DOCS, "--kb-in", str(kb_in), "--kb-out", str(kb_out))
    assert code == 0
    assert kb_out.read_bytes() == kb_in.read_bytes()


def test_tutor_teaching_session(tmp_path, monkeypatch, capsys):
    kb_out = tmp_path / "kb.json"
    transcript = (
        f"ask {DANTE_QUESTION_PARSE}\n"
        "answer Dante\n"
        f"ask {HAMLET_QUESTION_PARSE}\n"
        "y\n"
        "quit\n"
    )
    code, out = _run_tutor(monkeypatch, capsys, transcript,
                           "--docs", DOCS, "--kb-out", str(kb_out))
    assert code == 0
    assert "no answer" in out
    assert "learned 1 new patterns" in out
    assert "answer: Shakespeare" in out
    payload = json.loads(kb_out.read_text())
    assert payload["signatures"][0]["patterns"]


def test_tutor_bad_parse_keeps_state(monkeypatch, capsys, tmp_path):
    code, out = _run_tutor(monkeypatch, capsys, "ask (S (NP\nquit\n", "--docs", DOCS)
    assert code == 0
    assert "cannot parse question" in out


def test_tutor_failed_ask_leaves_no_question_to_teach(tmp_path, monkeypatch, capsys):
    """After an ask whose parse fails, neither ``answer`` nor ``y`` teaches
    the question asked before it."""
    kb_out = tmp_path / "kb.json"
    transcript = (f"ask {HAMLET_QUESTION_PARSE}\nanswer Shakespeare\nask (S (NP\n"
                  "answer Cervantes\ny\nquit\n")
    code, out = _run_tutor(monkeypatch, capsys, transcript, "--docs", DOCS,
                           "--kb-out", str(kb_out))
    assert code == 0
    after = out.split("cannot parse question", 1)[1]
    assert "ask a question first" in after
    assert "nothing to confirm" in after
    assert "learned" not in after
    assert json.loads(kb_out.read_text())["qa_pairs"] == [["tutor-1", "Shakespeare"]]


def test_tutor_replay_is_deterministic(monkeypatch, capsys):
    transcript = (
        f"ask {DANTE_QUESTION_PARSE}\n"
        "answer Dante\n"
        f"ask {HAMLET_QUESTION_PARSE}\n"
        "y\n"
        "quit\n"
    )
    outputs = []
    for _ in range(2):
        code, out = _run_tutor(monkeypatch, capsys, transcript, "--docs", DOCS)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_tutor_learns_nothing_from_an_answer_without_a_word(tmp_path, monkeypatch, capsys):
    kb_out = tmp_path / "kb.json"
    transcript = f"ask {HAMLET_QUESTION_PARSE}\nanswer .\nanswer the\nquit\n"
    code, out = _run_tutor(monkeypatch, capsys, transcript, "--docs", DOCS,
                           "--kb-out", str(kb_out))
    assert code == 0
    assert "not learned: '.' has no word once normalized" in out
    assert "not learned: 'the' has no word once normalized" in out
    assert "learned 1" not in out
    payload = json.loads(kb_out.read_text())
    assert payload["signatures"] == [] and payload["qa_pairs"] == []


INFERNO_QUESTION_PARSE = "(SBARQ (WHNP (WP Who)) (SQ (VP (VBD wrote) (NP (NNP Inferno)))) (. ?))"
# "wrote" is a leaf under no POS tag
BARE_WROTE = {"text": "Dante wrote Inferno .",
              "parse": "(S (NP (NNP Dante)) wrote (NP (NNP Inferno)) (. .))"}
IN_EXILE = {"text": "Dante wrote Inferno in exile .",
            "parse": "(S (NP (NNP Dante)) (VP (VBD wrote) (NP (NNP Inferno)) "
                     "(PP (IN in) (NP (NN exile)))) (. .))"}
HAMLET = {"text": "Shakespeare wrote Hamlet .",
          "parse": "(S (NP (NNP Shakespeare)) (VP (VBD wrote) (NP (NNP Hamlet))) (. .))"}


def _write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


def test_run_learns_from_a_leaf_without_a_tag(tmp_path, capsys):
    """q1 is taught from a sentence whose "wrote" has no POS tag, first on
    its reference answer, then again when revision rescues it with q2's
    pattern. Neither turns into an error or a traceback."""
    corpus = _write_jsonl(tmp_path / "qa.jsonl", [
        {"id": "q1", "question": "Who wrote Inferno ?", "parse": INFERNO_QUESTION_PARSE,
         "answers": ["Dante"]},
        *({"id": qid, "question": "Who wrote Hamlet ?", "parse": HAMLET_QUESTION_PARSE,
           "answers": ["Shakespeare"]} for qid in ("q2", "q3"))])
    docs = _write_jsonl(tmp_path / "docs.jsonl", [
        {"doc_id": "d1", "sentences": [BARE_WROTE, IN_EXILE]},
        {"doc_id": "d2", "sentences": [HAMLET]}])
    out_dir = tmp_path / "run"
    assert run_cli("run", "--scenario", "2", "--corpus", corpus, "--docs", docs,
                   "--revise-interval", "2", "--out-dir", str(out_dir)) == 0
    report = json.loads((out_dir / "revision_report.json").read_text())
    assert "q1" in report["checkpoints"][0]["newly_correct"]
    outcomes = [json.loads(line) for line in
                (out_dir / "outcomes.jsonl").read_text().splitlines()]
    assert [o["id"] for o in outcomes] == ["q1", "q2", "q3"]
    assert all(o["error"] is None for o in outcomes)


def test_tutor_learns_from_a_leaf_without_a_tag(tmp_path, monkeypatch, capsys):
    docs = _write_jsonl(tmp_path / "docs.jsonl", [{"doc_id": "d1", "sentences": [BARE_WROTE]}])
    code, out = _run_tutor(monkeypatch, capsys,
                           f"ask {INFERNO_QUESTION_PARSE}\nanswer Dante\nquit\n", "--docs", docs)
    assert code == 0
    assert "learned 1 new patterns" in out


def test_run_dump_index(tmp_path):
    index_path = tmp_path / "index.json"
    assert run_cli("run", "--scenario", "1", "--corpus", CORPUS, "--docs", DOCS,
                   "--out-dir", str(tmp_path / "run"), "--dump-index", str(index_path)) == 0
    payload = json.loads(index_path.read_text())
    assert payload["N"] == 33
    assert "postings" in payload


def test_run_writes_into_the_out_dir_it_creates(tmp_path):
    out = tmp_path / "new" / "run"
    assert run_cli("run", "--scenario", "1", "--corpus", CORPUS, "--docs", DOCS,
                   "--out-dir", str(out), "--dump-index", str(out / "index.json"),
                   "--kb-out", str(out / "kb.json")) == 0
    assert json.loads((out / "index.json").read_text())["N"] == 33
    assert (out / "kb.json").is_file()


def test_tutor_use_ner_lists_each_span_once(monkeypatch, capsys):
    transcript = (
        f"ask {DANTE_QUESTION_PARSE}\n"
        "answer Dante\n"
        f"ask {HAMLET_QUESTION_PARSE}\n"
        "quit\n"
    )
    code, out = _run_tutor(monkeypatch, capsys, transcript, "--docs", DOCS, "--use-ner")
    assert code == 0
    assert "answer: Shakespeare" in out
    assert out.count("candidate: Shakespeare [") == 1
    assert "candidate: Shakespeare [pattern, none]" in out


def test_deep_parse_ingests_and_runs(tmp_path):
    deep = "(S " * 1200 + DANTE_SENTENCE_PARSE + ")" * 1200
    record = {"doc_id": "deep",
              "sentences": [{"text": "Dante has written The Divine Comedy", "parse": deep}]}
    docs = tmp_path / "docs.jsonl"
    docs.write_text((FIXTURES / "docs.jsonl").read_text() + json.dumps(record) + "\n")
    kb_path = tmp_path / "kb.json"
    assert run_cli("ingest", "--docs", str(docs)) == 0
    assert run_cli("run", "--scenario", "4", "--corpus", CORPUS, "--docs", str(docs),
                   "--out-dir", str(tmp_path / "run"), "--kb-out", str(kb_path)) == 0
    assert '"deep:0"' in kb_path.read_text()  # a pattern was learned from the deep tree


BARE_SLOT = [{"kind": "answer", "value": "NP"}]
UNKNOWN_KIND = [{"kind": "answer", "value": "NP"}, {"kind": "wildcard", "value": "x"}]
NP_HAS = [{"kind": "answer", "value": "NP"}, {"kind": "lexical", "value": "has"}]


@pytest.mark.parametrize("entry, named", [
    ({"category": "BOGUS:x", "structure_key": "who|S", "patterns": []},
     "signature BOGUS:x | who|S"),
    ({"category": "HUM:ind", "structure_key": "who|S",
      "patterns": [{"elements": BARE_SLOT, "provenance": [["q", "d:0"]]}]},
     f"pattern {json.dumps(BARE_SLOT)} under signature HUM:ind | who|S"),
    ({"category": "HUM:ind", "structure_key": "who|S",
      "patterns": [{"elements": UNKNOWN_KIND, "provenance": [["q", "d:0"]]}]},
     f"pattern {json.dumps(UNKNOWN_KIND)} under signature HUM:ind | who|S"),
    ({"category": "HUM:ind", "structure_key": "who|S",
      "patterns": [{"elements": NP_HAS, "provenance": [["q", "d:0"], [1, "d:1"]]}]},
     f"pattern {json.dumps(NP_HAS)} under signature HUM:ind | who|S"),
], ids=["unknown-category", "bare-answer-slot", "unknown-element-kind",
        "provenance-not-string-pairs"])
def test_stats_invalid_kb_entry_is_data_error(tmp_path, capsys, entry, named):
    kb_path = tmp_path / "kb.json"
    kb_path.write_text(json.dumps({"signatures": [entry], "qa_pairs": []}))
    assert run_cli("stats", "--kb-in", str(kb_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize("pairs", [[["q", 5]], [[1, "a"]], ["qa"], [["q"]], [["q", "a", "b"]],
                                   [None]],
                         ids=["answer-not-a-string", "id-not-a-string", "pair-a-string",
                              "one-element", "three-elements", "null"])
def test_stats_rejects_qa_pairs_that_are_not_string_pairs(tmp_path, capsys, pairs):
    kb_path = tmp_path / "kb.json"
    kb_path.write_text(json.dumps({"signatures": [], "qa_pairs": pairs}))
    assert run_cli("stats", "--kb-in", str(kb_path)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"data error: {kb_path}: qa_pairs: ")
    assert captured.err.count("\n") == 1
    assert "qa pairs:" not in captured.out


@pytest.mark.parametrize("payload, message", [
    ([], "top level must be an object"),
    ({"signatures": {}}, "top level: signatures must be a list"),
    ({"qa_pairs": "qa"}, "top level: qa_pairs must be a list"),
    ({"signatures": [5]}, "top level: signature entry 0 must be an object"),
    ({"signatures": [{"category": "HUM:ind", "structure_key": "who|S", "patterns": 5}]},
     "signature HUM:ind | who|S: patterns must be a list"),
    ({"signatures": [{"category": "HUM:ind", "structure_key": "who|S", "patterns": [[]]}]},
     "signature HUM:ind | who|S: pattern entry 0 must be an object"),
    ({"signatures": [{"category": "HUM:ind", "structure_key": "who|S",
                      "patterns": [{"elements": "NP", "provenance": []}]}]},
     'pattern "NP" under signature HUM:ind | who|S: elements must be a list of '
     '{"kind": string, "value": string} objects'),
    ({"signatures": [{"category": 7, "structure_key": "who|S", "patterns": []}]},
     "signature 7 | who|S: category must be a string"),
    ({"signatures": [{"category": "HUM:ind", "structure_key": ["who"], "patterns": []}]},
     "signature HUM:ind | ['who']: structure_key must be a string"),
    ({"signatures": [{"category": "HUM:ind", "structure_key": "who|S",
                      "patterns": [{"elements": [{"kind": "answer", "value": "NP"},
                                                 {"kind": "lexical", "value": 7}],
                                    "provenance": [["q", "d:0"]]}]}]},
     'pattern [{"kind": "answer", "value": "NP"}, {"kind": "lexical", "value": 7}] under '
     'signature HUM:ind | who|S: elements must be a list of {"kind": string, "value": string} '
     'objects'),
    ({"signatures": [{"category": "HUM:ind", "structure_key": "who|S",
                      "patterns": [{"elements": [{"kind": None, "value": "NP"},
                                                 {"kind": "lexical", "value": "has"}],
                                    "provenance": [["q", "d:0"]]}]}]},
     'pattern [{"kind": null, "value": "NP"}, {"kind": "lexical", "value": "has"}] under '
     'signature HUM:ind | who|S: elements must be a list of {"kind": string, "value": string} '
     'objects'),
    ({"signatures": [{"category": "HUM:ind", "structure_key": "who|S",
                      "patterns": [{"elements": NP_HAS}]}]},
     f"pattern {json.dumps(NP_HAS)} under signature HUM:ind | who|S: "
     "provenance must be [question id, sentence] string pairs"),
], ids=["top-level-a-list", "signatures-not-a-list", "qa-pairs-not-a-list",
        "signature-not-an-object", "patterns-not-a-list", "pattern-not-an-object",
        "elements-not-a-list", "category-not-a-string", "structure-key-not-a-string",
        "element-value-not-a-string", "element-kind-not-a-string", "provenance-missing"])
def test_stats_names_the_expected_kb_shape(tmp_path, capsys, payload, message):
    kb_path = tmp_path / "kb.json"
    kb_path.write_text(json.dumps(payload))
    assert run_cli("stats", "--kb-in", str(kb_path)) == 2
    assert capsys.readouterr().err == f"data error: {kb_path}: {message}\n"


def test_kb_with_numeric_lexical_values_is_rejected_before_running(tmp_path, monkeypatch, capsys):
    """The scenario-2 fixture KB with every lexical value set to 7: ``run``
    and ``tutor`` refuse it at load, before answering anything."""
    kb_path = tmp_path / "kb.json"
    assert run_cli("run", "--scenario", "2", "--corpus", CORPUS, "--docs", DOCS,
                   "--out-dir", str(tmp_path / "first"), "--kb-out", str(kb_path)) == 0
    payload = json.loads(kb_path.read_text())
    lexical = [element for signature in payload["signatures"] for pattern in signature["patterns"]
               for element in pattern["elements"] if element["kind"] == "lexical"]
    assert len(lexical) == 17
    for element in lexical:
        element["value"] = 7
    kb_path.write_text(json.dumps(payload))
    capsys.readouterr()
    out_dir = tmp_path / "second"
    assert run_cli("run", "--scenario", "2", "--corpus", CORPUS, "--docs", DOCS,
                   "--out-dir", str(out_dir), "--kb-in", str(kb_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {kb_path}: pattern ") and err.count("\n") == 1
    assert "elements must be a list of" in err
    assert not out_dir.exists()
    code, _ = _run_tutor(monkeypatch, capsys, "quit\n", "--docs", DOCS, "--kb-in", str(kb_path))
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (("run", "--scenario", "2", "--relax-threshold", "1.5"), "--relax-threshold"),
    (("run", "--scenario", "2", "--relax-threshold", "-0.1"), "--relax-threshold"),
    (("run", "--scenario", "2", "--top-k", "0"), "--top-k"),
    (("tutor", "--top-k", "-3"), "--top-k"),
], ids=["threshold-above-1", "threshold-below-0", "run-top-k-0", "tutor-top-k-negative"])
def test_out_of_range_flags_are_usage_errors(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.setattr(sys, "stdin", io.StringIO("quit\n"))
    extra = ("--corpus", CORPUS, "--out-dir", str(tmp_path)) if argv[0] == "run" else ()
    assert run_cli(*argv, "--docs", DOCS, *extra) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {message} ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (("run", "--out-dir", "{file}"), "--out-dir {file} is not a directory"),
    (("run", "--out-dir", "{file}/sub"), "--out-dir {file}/sub: {file} is not a directory"),
    (("run", "--out-dir", "{out}", "--kb-out", "{dir}"), "--kb-out {dir} is a directory"),
    (("run", "--out-dir", "{out}", "--kb-out", "{file}/kb.json"),
     "--kb-out {file}/kb.json: {file} is not a directory"),
    (("run", "--out-dir", "{out}", "--dump-index", "{dir}"), "--dump-index {dir} is a directory"),
    (("run", "--from-metadata", "{meta}", "--out-dir", "{file}"),
     "--out-dir {file} is not a directory"),
    (("tutor", "--kb-out", "{dir}"), "--kb-out {dir} is a directory"),
    (("tutor", "--kb-out", "{dir}/nodir/kb.json"),
     "--kb-out {dir}/nodir/kb.json: directory {dir}/nodir does not exist"),
    (("run", "--out-dir", "{out}", "--dump-index", "{dir}/missing/idx.json"),
     "--dump-index {dir}/missing/idx.json: directory {dir}/missing does not exist"),
    (("run", "--out-dir", "{out}", "--kb-out", "{dir}/other/kb.json"),
     "--kb-out {dir}/other/kb.json: directory {dir}/other does not exist"),
], ids=["run-out-dir-is-a-file", "run-out-dir-under-a-file", "run-kb-out-is-a-directory",
        "run-kb-out-under-a-file", "run-dump-index-is-a-directory",
        "rerun-out-dir-is-a-file", "tutor-kb-out-is-a-directory",
        "tutor-kb-out-parent-missing", "run-dump-index-parent-missing",
        "run-kb-out-parent-missing"])
def test_unwritable_output_path_is_usage_error_before_loading(tmp_path, monkeypatch, capsys,
                                                              argv, message):
    """A bad output path is reported before any input is read: the inputs
    named here do not exist, so reading one would be a data error."""
    paths = {"file": tmp_path / "file", "dir": tmp_path, "out": tmp_path / "run",
             "meta": tmp_path / "metadata.json"}
    paths["file"].write_text("")
    paths["meta"].write_text(json.dumps({"config": {**RECORDED_CONFIG, "corpus": "missing.jsonl",
                                                    "docs": "missing.jsonl"}}))
    monkeypatch.setattr(sys, "stdin", io.StringIO("quit\n"))
    inputs = () if "--from-metadata" in argv else (
        ("--scenario", "2", "--corpus", "missing.jsonl", "--docs", "missing.jsonl")
        if argv[0] == "run" else ("--docs", "missing.jsonl"))
    assert run_cli(*(arg.format(**paths) for arg in argv), *inputs) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: {message.format(**paths)}\n"
    assert not paths["out"].exists()


def test_default_out_dir_below_a_file_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").write_text("")
    assert run_cli("run", "--scenario", "2", "--corpus", CORPUS, "--docs", DOCS) == 1
    assert capsys.readouterr().err == "usage error: --out-dir out is not a directory\n"


RECORDED_CONFIG = {"scenario": 2, "corpus": CORPUS, "docs": DOCS, "top_k": 20,
                   "relax_measure": "levenshtein", "relax_threshold": 0.8, "lexical_relax": True,
                   "syntactic_relax": True, "revise_interval": 10, "learn_on_revision": True,
                   "kb_in": None}


@pytest.mark.parametrize("entry, named", [
    ({"scenario": 7}, "--scenario"),
    ({"scenario": "2x"}, "--scenario"),
    ({"top_k": "x"}, "--top-k"),
    ({"top_k": 0}, "--top-k"),
    ({"relax_measure": "cosine"}, "--relax-measure"),
    ({"relax_threshold": 1.5}, "--relax-threshold"),
    ({"revise_interval": 0}, "--revise-interval"),
    ({"corpus": None}, "--corpus"),
    ({"learn_on_revision": "no"}, "learn_on_revision"),
    ([], "top level must be an object"),
    ({"config": []}, "config must be an object"),
], ids=["scenario-7", "scenario-not-a-number", "top-k-not-a-number", "top-k-0",
        "unknown-measure", "threshold-above-1", "interval-0", "corpus-null",
        "switch-not-a-boolean", "top-level-a-list", "config-a-list"])
def test_bad_recorded_config_value_is_data_error(tmp_path, capsys, entry, named):
    """Recorded values pass the checks the run flags pass; a bad one is the
    metadata file's fault, so a data error. An ``entry`` holding ``config``,
    or not an object, is the whole metadata file."""
    meta = tmp_path / "metadata.json"
    whole = not isinstance(entry, dict) or "config" in entry
    meta.write_text(json.dumps(entry if whole else {"config": {**RECORDED_CONFIG, **entry}}))
    assert run_cli("run", "--from-metadata", str(meta), "--out-dir", str(tmp_path / "run")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {meta}: ") and err.count("\n") == 1
    assert named in err


def test_recorded_config_round_trips(tmp_path):
    config = {**RECORDED_CONFIG, "lexical_relax": False, "learn_on_revision": False}
    meta = tmp_path / "metadata.json"
    meta.write_text(json.dumps({"config": config}))
    out_dir = tmp_path / "run"
    assert run_cli("run", "--from-metadata", str(meta), "--out-dir", str(out_dir)) == 0
    rerun = json.loads((out_dir / "metadata.json").read_text())["config"]
    assert {key: rerun[key] for key in config} == config


QA_RECORD = json.loads((FIXTURES / "qa30.jsonl").read_text().splitlines()[0])
DOC_RECORD = json.loads((FIXTURES / "docs.jsonl").read_text().splitlines()[0])
NOT_UTF8 = (json.dumps(QA_RECORD) + "\n").encode() + '{"id": "caf\xe9"}\n'.encode("latin-1")
DEEP_JSON = b"[" * 200_000 + b"\n"
BOM = b"\xef\xbb\xbf"


def _jsonl(record) -> bytes:
    return (json.dumps(record) + "\n").encode()


@pytest.mark.parametrize("command, content", [
    (("ingest", "--docs"), _jsonl({**DOC_RECORD, "sentences": 5})),
    (("ingest", "--docs"), _jsonl({**DOC_RECORD, "sentences": [3]})),
    (("ingest", "--docs"), _jsonl({**DOC_RECORD, "doc_id": ["d"]})),
    (("ingest", "--docs"),
     _jsonl({**DOC_RECORD, "sentences": [{**DOC_RECORD["sentences"][0], "text": 5}]})),
    (("ingest", "--corpus"), _jsonl({**QA_RECORD, "id": ["q"]})),
    (("ingest", "--corpus"), _jsonl({**QA_RECORD, "question": 5})),
    (("ingest", "--corpus"), NOT_UTF8),
    (("ingest", "--corpus"), _jsonl({**QA_RECORD, "category": "BOGUS:x"})),
    (("run", "--scenario", "2", "--docs", DOCS, "--out-dir", "{out}", "--corpus"),
     _jsonl({**QA_RECORD, "category": "BOGUS:x"})),
    (("stats", "--kb-in", "{kb}", "--outcomes"), b"[1]\n"),
    (("run", "--from-metadata"), b"{}\n"),
    (("ingest", "--corpus"), _jsonl({**QA_RECORD, "answers": [None]})),
    (("ingest", "--corpus"), _jsonl({**QA_RECORD, "answers": [""]})),
    (("ingest", "--corpus"), DEEP_JSON),
    (("ingest", "--docs"), DEEP_JSON),
    (("stats", "--kb-in"), DEEP_JSON),
    (("stats", "--kb-in", "{kb}", "--outcomes"), DEEP_JSON),
    (("run", "--out-dir", "{out}", "--from-metadata"), DEEP_JSON),
    (("run", "--scenario", "2", "--corpus", CORPUS, "--docs", DOCS, "--out-dir", "{out}",
      "--kb-in"), None),
    (("tutor", "--docs", DOCS, "--kb-in"), None),
    (("stats", "--kb-in"), b'{"signatures": [}\n'),
    (("stats", "--kb-in"), b'{"qa_pairs": [["q1", "caf\xe9"]]}\n'),
    (("stats", "--kb-in", "{kb}", "--outcomes"), _jsonl({"correct": True}) + b"{correct\n"),
    (("ingest", "--corpus"), BOM + _jsonl(QA_RECORD)),
    (("run", "--scenario", "2", "--corpus", CORPUS, "--docs", DOCS, "--out-dir", "{out}",
      "--kb-in"), BOM + b'{"signatures": [], "qa_pairs": []}\n'),
], ids=["sentences-not-a-list", "sentence-not-an-object", "doc-id-not-a-string",
        "sentence-text-not-a-string", "id-not-a-string", "question-not-a-string",
        "corpus-not-utf8", "ingest-unknown-category", "run-unknown-category",
        "outcome-not-an-object", "metadata-without-config", "answer-null", "answer-empty",
        "corpus-nested-too-deeply", "docs-nested-too-deeply", "kb-nested-too-deeply",
        "outcomes-nested-too-deeply", "metadata-nested-too-deeply", "run-kb-in-a-directory",
        "tutor-kb-in-a-directory", "kb-malformed", "kb-not-utf8", "outcome-line-malformed",
        "corpus-with-bom", "kb-with-bom"])
def test_malformed_input_is_one_line_data_error(tmp_path, capsys, command, content):
    """``content`` None makes the input a directory. The one line names the
    input, and a JSON Lines input's line."""
    kb_path = tmp_path / "kb.json"
    save_kb(KnowledgeBase(), kb_path)
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    argv = [arg.format(kb=kb_path, out=tmp_path / "run") for arg in command]
    capsys.readouterr()
    assert run_cli(*argv, str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: ") and err.count("\n") == 1
    lines = content.count(b"\n") if content else 0
    if lines > 1:  # a JSON Lines input, at fault on its last line
        assert err.startswith(f"data error: {path}: line {lines}: ")


GOOD_OUTCOME = {"correct": True, "final_strategy": "pattern", "relaxation_used": "none"}


@pytest.mark.parametrize("record, key", [
    ({"correct": "no", "final_strategy": "pattern", "relaxation_used": "sideways"}, "correct"),
    ({"correct": 1, "final_strategy": "pattern"}, "correct"),
    ({"correct": None}, "correct"),
    ({**GOOD_OUTCOME, "final_strategy": 3}, "final_strategy"),
    ({**GOOD_OUTCOME, "final_strategy": ["pattern"]}, "final_strategy"),
    ({**GOOD_OUTCOME, "relaxation_used": "sideways"}, "relaxation_used"),
    ({**GOOD_OUTCOME, "relaxation_used": None}, "relaxation_used"),
    ({**GOOD_OUTCOME, "relaxation_used": ["none"]}, "relaxation_used"),
], ids=["correct-string", "correct-integer", "correct-null", "strategy-integer", "strategy-list",
        "relaxation-unknown", "relaxation-null", "relaxation-list"])
def test_stats_rejects_mistyped_outcome_fields(tmp_path, capsys, record, key):
    kb_path = tmp_path / "kb.json"
    save_kb(KnowledgeBase(), kb_path)
    outcomes = tmp_path / "outcomes.jsonl"
    outcomes.write_bytes(_jsonl(GOOD_OUTCOME) + _jsonl(record))
    capsys.readouterr()
    assert run_cli("stats", "--kb-in", str(kb_path), "--outcomes", str(outcomes)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"data error: {outcomes}: line 2: {key} must be ")
    assert captured.err.count("\n") == 1
    assert "pattern-extracted" not in captured.out


def test_stats_reads_outcomes_without_the_checked_keys(tmp_path, capsys):
    kb_path = tmp_path / "kb.json"
    save_kb(KnowledgeBase(), kb_path)
    outcomes = tmp_path / "outcomes.jsonl"
    outcomes.write_bytes(_jsonl({"id": "q1"}) + _jsonl(GOOD_OUTCOME)
                         + _jsonl({"correct": True, "final_strategy": "pattern"})
                         + _jsonl({**GOOD_OUTCOME, "final_strategy": None}))
    capsys.readouterr()
    assert run_cli("stats", "--kb-in", str(kb_path), "--outcomes", str(outcomes)) == 0
    assert "pattern-extracted correct answers: 2 (exact: 1, relaxed: 1)" in capsys.readouterr().out


QA_LINES = (FIXTURES / "qa30.jsonl").read_text().splitlines()[:6]
DOC_LINES = (FIXTURES / "docs.jsonl").read_text().splitlines()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=5)


@st.composite
def mutated_record(draw, record: dict) -> str:
    """One fixture record, broken in one way: a field or list item, at any
    depth, set to any JSON value or dropped; a parse (the record's, or its
    first sentence's) nested deeply or left unbalanced; a record that is
    not an object; or truncated JSON."""
    trees = [d for d in (record, *record.get("sentences", [])[:1]) if "parse" in d]
    target = record
    while True:
        inner = [value for value in (target.values() if isinstance(target, dict) else target)
                 if isinstance(value, (dict, list)) and value]
        if not inner or not draw(st.booleans()):
            break
        target = draw(st.sampled_from(inner))
    if isinstance(target, dict):
        key = draw(st.sampled_from(sorted(target)) | st.text(max_size=4))
    else:
        key = draw(st.integers(0, len(target) - 1))
    kind = draw(st.sampled_from([kind for kind in ("set", "drop", "deep", "not-object", "truncate")
                                 if trees or kind != "deep"]))
    if kind == "set":
        target[key] = draw(JSON_VALUES)
    elif kind == "drop" and (isinstance(target, list) or key in target):
        del target[key]
    elif kind == "deep":
        opened, closed = draw(st.integers(0, 1500)), draw(st.integers(0, 1500))
        tree = draw(st.sampled_from(trees))
        tree["parse"] = "(S " * opened + tree["parse"] + ")" * closed
    elif kind == "not-object":
        record = draw(JSON_VALUES.filter(lambda value: not isinstance(value, dict)))
    line = json.dumps(record)
    if kind == "truncate":
        line = line[:draw(st.integers(0, len(line) - 1))]
    return line


@functools.cache
def _fixture_run_files() -> tuple[str, tuple[str, ...]]:
    """The ``--kb-out`` file and the ``outcomes.jsonl`` lines of a scenario-2
    run over the fixtures."""
    with tempfile.TemporaryDirectory() as tmp:
        kb, out_dir = Path(tmp) / "kb.json", Path(tmp) / "run"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", "--scenario", "2", "--corpus", CORPUS, "--docs", DOCS,
                         "--out-dir", str(out_dir), "--kb-out", str(kb)]) == 0
        return kb.read_text(), tuple((out_dir / "outcomes.jsonl").read_text().splitlines())


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_kb_and_outcome_records_never_print_a_traceback(data):
    """A fixture KB broken in one place, read by ``stats`` and ``run
    --kb-in``, or a fixture outcome log with one line broken, read by
    ``stats --outcomes``: each command exits 0, or with one error line that
    names the broken file."""
    kb_text, outcome_lines = _fixture_run_files()
    with tempfile.TemporaryDirectory() as tmp:
        kb, outcomes = Path(tmp) / "kb.json", Path(tmp) / "outcomes.jsonl"
        lines = list(outcome_lines)
        if data.draw(st.booleans()):
            broken = kb
            kb_text = data.draw(mutated_record(json.loads(kb_text))) + "\n"
            commands = [["stats", "--kb-in", str(kb)],
                        ["run", "--scenario", "2", "--corpus", CORPUS, "--docs", DOCS,
                         "--kb-in", str(kb), "--out-dir", str(Path(tmp) / "run")]]
        else:
            broken = outcomes
            at = data.draw(st.integers(0, len(lines) - 1))
            lines[at] = data.draw(mutated_record(json.loads(lines[at])))
            commands = [["stats", "--kb-in", str(kb), "--outcomes", str(outcomes)]]
        kb.write_text(kb_text)
        outcomes.write_text("\n".join(lines) + "\n")
        for argv in commands:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert "Traceback" not in err.getvalue()
            assert code in (0, 1, 2)
            if code:
                assert err.getvalue().startswith((f"data error: {broken}: ", "usage error: "))
                assert err.getvalue().count("\n") == 1


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_fixture_records_never_print_a_traceback(data):
    """Ingest and run never let an exception escape (which would print a
    traceback): bad data exits 2 with one ``data error:`` line."""
    qa_lines, doc_lines = list(QA_LINES), list(DOC_LINES)
    lines = doc_lines if data.draw(st.booleans()) else qa_lines
    at = data.draw(st.integers(0, len(lines) - 1))
    lines[at] = data.draw(mutated_record(json.loads(lines[at])))
    with tempfile.TemporaryDirectory() as tmp:
        corpus, docs = Path(tmp) / "qa.jsonl", Path(tmp) / "docs.jsonl"
        corpus.write_text("\n".join(qa_lines) + "\n")
        docs.write_text("\n".join(doc_lines) + "\n")
        for argv in (["ingest", "--corpus", str(corpus), "--docs", str(docs)],
                     ["run", "--scenario", "4", "--revise-interval", "2", "--corpus", str(corpus),
                      "--docs", str(docs), "--out-dir", str(Path(tmp) / "run")]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert "Traceback" not in err.getvalue()
            assert code in (0, 2)
            if code == 2:
                assert err.getvalue().startswith("data error: ")
                assert err.getvalue().count("\n") == 1
