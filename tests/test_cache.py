"""The load cache: a hit gives what a fresh load gives, shared as a fresh
load shares it; a run writes the same bytes cold and warm; every scenario
shares one collection entry; a damaged or foreign entry is a miss that is
written again; and a cache that cannot be used changes nothing a run
writes or prints. Every test starts with an empty cache of its own
(``conftest.cold_cache``)."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from patternqa import cache, cli
from patternqa.cli import main
from patternqa.corpus import load_documents, load_qa_corpus
from patternqa.retrieval import build_index

from .conftest import FIXTURES

CORPUS = str(FIXTURES / "qa30.jsonl")
DOCS = str(FIXTURES / "docs.jsonl")


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _loads() -> dict:
    """Each cached load of the fixtures, by name, as ``(the load through the
    cache, given the function that loads afresh, that function)``."""
    def questions(load):
        return cache.questions(_digest(CORPUS), load)

    def index(load):
        return cache.collection(_digest(DOCS), load)

    return {"questions": (questions, lambda: load_qa_corpus(CORPUS)),
            "index": (index, lambda: build_index(load_documents(DOCS)))}


def _fresh_only():
    raise AssertionError("a hit must not load")


def _index_fields(index):
    return (index.sentences, index.postings, index.bounds, index.ranks, index.avg_length)


def _shared_objects(values) -> tuple[int, int]:
    """How many objects, and how many distinct objects, ``values`` holds."""
    values = list(values)
    return len(values), len({id(value) for value in values})


def _sharing(index) -> dict:
    """How the views and postings of ``index`` share objects."""
    constituents = [s.view.constituents for s in index.sentences]
    return {
        "constituents": _shared_objects(constituents),
        "at": _shared_objects(at for c in constituents for at in c),
        "entries": _shared_objects(e for c in constituents for at in c for e in at),
        "weights": _shared_objects(w for m in index.postings.values() for w in m.values()),
        "maps": _shared_objects(index.postings.values()),
    }


def test_a_hit_equals_a_fresh_load():
    """A hit gives the questions, and the indexed sentences (each document's
    views), postings, bounds, ranks and average length, that a fresh load
    gives."""
    cache.collection(_digest(DOCS), lambda: build_index(load_documents(DOCS)))
    hit = cache.collection(_digest(DOCS), _fresh_only)
    assert _index_fields(hit) == _index_fields(build_index(load_documents(DOCS)))
    assert [(s.doc_id, s.position, s.text, s.view) for s in hit.sentences] == [
        (doc.doc_id, position, text, view) for doc in load_documents(DOCS)
        for position, (text, view) in enumerate(doc.sentences)]
    cache.questions(_digest(CORPUS), lambda: load_qa_corpus(CORPUS))
    assert cache.questions(_digest(CORPUS), _fresh_only) == load_qa_corpus(CORPUS)


def test_a_hit_shares_what_a_fresh_load_shares():
    """After a hit, tokens and labels are interned, equal ``constituents``
    tuples, per-leaf tuples and entries are each one object, and the index
    shares weights and one-sentence maps, as after a fresh load."""
    cache.collection(_digest(DOCS), lambda: build_index(load_documents(DOCS)))
    hit = cache.collection(_digest(DOCS), _fresh_only)
    fresh = build_index(load_documents(DOCS))
    assert _sharing(hit) == _sharing(fresh)
    counts = _sharing(hit)["constituents"]
    assert counts[1] < counts[0]  # the fixtures repeat parse shapes
    cache.questions(_digest(CORPUS), lambda: load_qa_corpus(CORPUS))
    # a load shares within itself, so the documents and the questions apart
    for views in ([s.view for s in hit.sentences],
                  [q.parse for q in cache.questions(_digest(CORPUS), _fresh_only)]):
        strings = [t for v in views for t in (*v.tokens, *v.lowered, *v.stripped)]
        strings += [label for v in views for at in v.constituents for _, label, _ in at]
        assert all(sys.intern(s) is s for s in strings)
        assert len({v.constituents for v in views}) == len({id(v.constituents) for v in views})


RUNS = [("--scenario", str(n)) for n in (1, 2, 3, 4)] + [
    ("--scenario", "4", "--revise-interval", "5")]


def _run(out_dir: Path, argv) -> dict[str, bytes]:
    """The files a run over the fixtures writes, by name, ``--kb-out``
    included as ``kb.json``."""
    assert main(["run", *argv, "--corpus", CORPUS, "--docs", DOCS,
                 "--out-dir", str(out_dir), "--kb-out", str(out_dir / "kb.json")]) == 0
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("argv", RUNS, ids=" ".join)
def test_a_warm_run_writes_what_a_cold_run_writes(tmp_path, monkeypatch, argv):
    cold = _run(tmp_path / "cold", argv)
    for name in ("load_qa_corpus", "load_documents", "build_index"):
        monkeypatch.setattr(cli, name, _fresh_only)
    warm = _run(tmp_path / "warm", argv)
    assert warm == cold
    assert "metadata.json" in warm and "kb.json" in warm
    assert ("revision_report.json" in warm) == ("--revise-interval" in argv)


def test_every_scenario_shares_one_collection_entry(tmp_path, monkeypatch, cold_cache):
    """A scenario-1 run, which aligns and learns nothing, leaves the one
    collection entry, and a scenario-2 run over the same documents then
    loads them from it and writes what a cold scenario-2 run writes."""
    heuristics, patterns = ("--scenario", "1"), ("--scenario", "2")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "other"))
    cold = _run(tmp_path / "cold", patterns)
    monkeypatch.setenv("XDG_CACHE_HOME", str(cold_cache.parent))
    _run(tmp_path / "heuristics", heuristics)
    assert {p.name for p in cold_cache.iterdir()} == {
        f"{_digest(CORPUS)}-questions.marshal", f"{_digest(DOCS)}-index.marshal"}
    for name in ("load_documents", "build_index"):
        monkeypatch.setattr(cli, name, _fresh_only)
    assert _run(tmp_path / "patterns", patterns) == cold


def _damaged(entry: bytes, how: str) -> bytes:
    if how == "truncated":
        return entry[:len(entry) // 2]
    if how == "payload-byte":
        return entry[:-1] + bytes([entry[-1] ^ 1])
    if how == "other-code":
        return bytes(32) + entry[32:]
    if how == "undecodable":  # digests that match a payload marshal cannot read
        payload = b"\xff" + entry[65:]
        return entry[:32] + hashlib.sha256(payload).digest() + payload
    assert how == "empty"
    return b""


@pytest.mark.parametrize("name", ["questions", "index"])
@pytest.mark.parametrize("how", ["truncated", "payload-byte", "other-code", "undecodable",
                                 "empty"])
def test_a_damaged_or_foreign_entry_is_a_miss_and_is_written_again(cold_cache, how, name):
    through_cache, fresh = _loads()[name]
    expected = through_cache(fresh)
    [entry] = cold_cache.iterdir()
    good = entry.read_bytes()
    entry.write_bytes(_damaged(good, how))
    loaded = []

    def load():
        loaded.append(fresh())
        return loaded[-1]

    assert through_cache(load) == expected
    assert len(loaded) == 1
    assert through_cache(_fresh_only) == expected
    assert [p.name for p in cold_cache.iterdir()] == [entry.name]


@pytest.mark.parametrize("flag", ["--corpus", "--docs"])
def test_a_bad_input_is_a_data_error_and_leaves_no_entry(tmp_path, cold_cache, capsys, flag):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(Path(DOCS).read_bytes() + b"{}\n")
    paths = {"--corpus": CORPUS, "--docs": DOCS, flag: str(bad)}
    for _ in range(2):
        assert main(["run", "--scenario", "2", *(a for item in paths.items() for a in item),
                     "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad}: line ") and err.count("\n") == 1
    assert not any(_digest(bad) in p.name for p in cold_cache.parent.rglob("*"))


def test_a_cache_directory_that_is_a_file_changes_no_output(tmp_path, monkeypatch, capsys):
    expected = _run(tmp_path / "usable", RUNS[-1])
    printed = capsys.readouterr()
    blocked = tmp_path / "blocked"
    blocked.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))
    for name in ("first", "second"):
        assert _run(tmp_path / name, RUNS[-1]) == expected
        again = capsys.readouterr()
        assert again.err == printed.err == ""
        assert again.out.splitlines()[0] == printed.out.splitlines()[0]
    assert blocked.read_text() == ""


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_a_rerun_refuses_a_changed_corpus_before_any_lookup(tmp_path, capsys, warm):
    """The recorded digest is checked before the cache is looked up, so a
    corpus changed since the run is refused even when the cache holds it."""
    corpus = tmp_path / "qa.jsonl"
    original = Path(CORPUS).read_bytes()
    changed = original.replace(b'"id": "q01"', b'"id": "q00"')
    corpus.write_bytes(original)
    first = tmp_path / "first"
    assert main(["run", "--scenario", "2", "--corpus", str(corpus), "--docs", DOCS,
                 "--out-dir", str(first)]) == 0
    corpus.write_bytes(changed)
    if warm:  # the changed corpus is cached too
        assert main(["run", "--scenario", "2", "--corpus", str(corpus), "--docs", DOCS,
                     "--out-dir", str(tmp_path / "changed")]) == 0
    capsys.readouterr()
    meta = first / "metadata.json"
    assert json.loads(meta.read_text())["inputs"]["corpus_sha256"] == \
        hashlib.sha256(original).hexdigest()
    assert main(["run", "--from-metadata", str(meta), "--out-dir", str(tmp_path / "rerun")]) == 2
    assert capsys.readouterr().err == (
        f"data error: {meta}: {corpus} does not match the recorded corpus_sha256; "
        "the input changed since the run\n")
    assert not (tmp_path / "rerun").exists()
