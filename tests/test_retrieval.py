import os
import subprocess
import sys
from pathlib import Path

from patternqa.corpus import Document
from patternqa.retrieval import (STOPWORDS, build_index, content_words,
                                 retrieve, serialize_index)
from patternqa.treebank import analyse, parse_bracketed

from .conftest import DANTE_QUESTION_PARSE


def sent(text, parse):
    return (text, analyse(parse_bracketed(parse)))


DOCS = [
    Document("a", (
        sent("Dante has written The Divine Comedy.",
             "(S (NP (NNP Dante)) (VP (VBZ has) (VP (VBN written) (NP (DT The) (NNP Divine) (NNP Comedy)))) (. .))"),
        sent("Rain fell across the valley.",
             "(S (NP (NN Rain)) (VP (VBD fell) (PP (IN across) (NP (DT the) (NN valley)))) (. .))"),
    )),
    Document("b", (
        sent("The museum opens before noon.",
             "(S (NP (DT The) (NN museum)) (VP (VBZ opens) (PP (IN before) (NP (NN noon)))) (. .))"),
    )),
]


def test_index_counts():
    index = build_index(DOCS)
    assert index.size == 3
    assert len(index.postings["dante"]) == 1


def test_rebuild_is_byte_identical():
    assert serialize_index(build_index(DOCS)) == serialize_index(build_index(DOCS))


def test_dante_query_ranks_supporting_sentence_first():
    index = build_index(DOCS)
    query = content_words(analyse(parse_bracketed(DANTE_QUESTION_PARSE)))
    assert query == ["wrote", "divine", "comedy"]
    results = retrieve(index, query, 5)
    assert results
    assert results[0].text.startswith("Dante")


def test_unknown_terms_yield_empty():
    index = build_index(DOCS)
    assert retrieve(index, ["zebra"], 5) == []


def test_k_zero_yields_empty():
    index = build_index(DOCS)
    assert retrieve(index, ["dante"], 0) == []


def test_empty_corpus():
    index = build_index([])
    assert index.size == 0
    assert retrieve(index, ["x"], 5) == []


def test_tie_break_by_doc_and_position():
    docs = [
        Document("b", (sent("alpha beta", "(S (NN alpha) (NN beta))"),)),
        Document("a", (sent("alpha beta", "(S (NN alpha) (NN beta))"),)),
    ]
    results = retrieve(build_index(docs), ["alpha"], 5)
    assert [r.doc_id for r in results] == ["a", "b"]
    assert results[0].score == results[1].score


def test_scores_non_increasing_and_non_negative():
    index = build_index(DOCS)
    results = retrieve(index, ["dante", "museum", "rain"], 10)
    scores = [r.score for r in results]
    assert scores == sorted(scores, reverse=True)
    assert all(s >= 0.0 for s in scores)


def test_retrieve_k_is_prefix_of_k_plus_1():
    index = build_index(DOCS)
    query = ["dante", "museum", "rain", "valley"]
    for k in range(0, 4):
        shorter = retrieve(index, query, k)
        longer = retrieve(index, query, k + 1)
        assert longer[:k] == shorter


def test_rank_stability_when_avg_length_held_constant():
    index = build_index(DOCS)
    query = ["dante", "rain"]
    before = [(r.doc_id, r.position) for r in retrieve(index, query, 10)]
    # the added sentence has exactly the average term count, so ranks are
    # only rescaled, never reordered
    avg = int(index.avg_length)
    filler_tokens = " ".join(f"(NN filler{i})" for i in range(avg))
    extra = Document("z", (sent(" ".join(f"filler{i}" for i in range(avg)),
                                f"(S {filler_tokens})"),))
    after = [(r.doc_id, r.position) for r in retrieve(build_index(DOCS + [extra]), query, 10)]
    assert before == after


def test_stopwords_filtered_from_content_words():
    tree = parse_bracketed("(S (DT The) (NN cat) (VBD sat) (. .))")
    assert content_words(analyse(tree)) == ["cat", "sat"]
    assert "the" in STOPWORDS


HASH_SEED_SCRIPT = """
from patternqa.corpus import Document
from patternqa.retrieval import build_index, retrieve
from patternqa.treebank import analyse, parse_bracketed

words = [f"w{i}" for i in range(9)]
sentences = []
for i in range(9):
    kept = [w for j, w in enumerate(words) if (i + 1) % (j + 2) or i == j]
    parse = "(S " + " ".join(f"(NN {w})" for w in kept) + ")"
    sentences.append((" ".join(kept), analyse(parse_bracketed(parse))))
index = build_index([Document("d", tuple(sentences))])
print([(r.position, r.score.hex()) for r in retrieve(index, words, 9)])
"""


def test_scores_do_not_depend_on_the_hash_seed(tmp_path):
    """Query terms are summed in sorted order. Float addition is not
    associative, so summed in set order a score's last bits, and with them
    the order of tied sentences, would follow PYTHONHASHSEED."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = set()
    for seed in range(8):
        done = subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT], capture_output=True,
                              text=True, timeout=60,
                              env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1
