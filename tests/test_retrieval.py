import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from patternqa.corpus import Document
from patternqa.retrieval import (STOPWORDS, build_index, content_words,
                                 retrieve, serialize_index)
from patternqa.treebank import parse_sentence

from .conftest import DANTE_QUESTION_PARSE
from .oracles import bm25_oracle


def sent(text, parse):
    return (text, parse_sentence(parse))


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
    query = content_words(parse_sentence(DANTE_QUESTION_PARSE))
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
    view = parse_sentence("(S (DT The) (NN cat) (VBD sat) (. .))")
    assert content_words(view) == ["cat", "sat"]
    assert "the" in STOPWORDS


HASH_SEED_SCRIPT = """
from patternqa.corpus import Document
from patternqa.retrieval import build_index, retrieve
from patternqa.treebank import parse_sentence

words = [f"w{i}" for i in range(9)]
sentences = []
for i in range(9):
    kept = [w for j, w in enumerate(words) if (i + 1) % (j + 2) or i == j]
    parse = "(S " + " ".join(f"(NN {w})" for w in kept) + ")"
    sentences.append((" ".join(kept), parse_sentence(parse)))
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


def flat(words):
    """A one-level sentence over ``words``."""
    return (" ".join(words), parse_sentence("(S " + " ".join(f"(NN {w})" for w in words) + ")"))


BM25_WORDS = ["alpha", "beta", "gamma", "delta", "kappa", "sigma", "omega", "the", "of"]


@st.composite
def bm25_cases(draw):
    """A collection of a few sentence shapes, each used a drawn number of
    times, so document frequencies differ, equal scores are common and
    often straddle the k-th place. Words repeat within a sentence (tf of 2
    and more) and sentences differ in length. The query mixes case and
    repeats terms, and may hold stopwords and terms the index does not
    know."""
    shapes = draw(st.lists(st.lists(st.sampled_from(BM25_WORDS), min_size=1, max_size=8),
                           min_size=1, max_size=6))
    copies = draw(st.lists(st.integers(1, 12), min_size=len(shapes), max_size=len(shapes)))
    sentences = draw(st.permutations([words for words, c in zip(shapes, copies)
                                      for _ in range(c)]))
    n_docs = draw(st.integers(1, 4))
    # doc ids that do not sort in document order
    docs = [Document(f"d{(d * 7) % 5}{d}", tuple(flat(words) for words in sentences[d::n_docs]))
            for d in range(n_docs)]
    query = [case(word) for word, case in draw(st.lists(st.tuples(
        st.sampled_from(BM25_WORDS + ["zeta", "a"]),
        st.sampled_from([str.lower, str.upper, str.capitalize])), max_size=8))]
    # a small k makes the loop stop early more often
    return docs, query, draw(st.integers(0, 3) | st.integers(0, len(sentences) + 1))


# the middle sentence's score, summed in descending-idf order, differs from
# the sorted-order sum in its last bit
@example(([Document("d", (flat(["beta"]), flat(["beta", "delta", "gamma"]), flat(["beta"])))],
          ["gamma", "Beta", "delta"], 3))
@settings(max_examples=300)
@given(bm25_cases())
def test_retrieve_equals_brute_force_bm25(case):
    """Same ranks and bit-identical scores as scoring every sentence."""
    docs, query, k = case
    got = [(r.doc_id, r.position, r.score) for r in retrieve(build_index(docs), query, k)]
    assert got == bm25_oracle(docs, query, k)


class Unscorable:
    """Stands in for a sentence that retrieval must never score."""

    def __getattr__(self, name):
        raise AssertionError("scored a sentence that the bound rules out")


def rare_and_common_index():
    """60 sentences: 3 hold the rare term, and the others hold two common
    terms each shared by about 50 sentences. Every sentence without the rare
    term is made unscorable."""
    sentences = [flat(["rare", "common", "usual"]) for _ in range(3)]
    sentences += [flat(["common", "usual"]) for _ in range(45)]
    sentences += [flat(["usual", "filler"]) for _ in range(6)]
    sentences += [flat(["common", "filler"]) for _ in range(6)]
    docs = [Document("d", tuple(sentences))]
    index = build_index(docs)
    for sid, sent in enumerate(index.sentences):
        if "rare" not in sent.view.lowered:
            index.sentences[sid] = Unscorable()
    return docs, index


def test_pruned_loop_stops_after_the_rare_term():
    """The three rare-term sentences outscore anything the two common terms
    could add, so with k up to 3 no other sentence is scored."""
    docs, index = rare_and_common_index()
    query = ["usual", "rare", "common"]
    for k in (1, 2, 3):
        got = [(r.doc_id, r.position, r.score) for r in retrieve(index, query, k)]
        assert got == bm25_oracle(docs, query, k)
    with pytest.raises(AssertionError, match="bound rules out"):
        retrieve(index, query, 4)  # a fourth sentence needs the common lists


def test_pruned_loop_reaches_a_sentence_at_the_bound():
    """The shortest sentence holds the common term at the index's largest
    tf, so its score is the common term's bound. The two rare-term
    sentences score just under it: the loop must go on to the common list,
    and a bound 1% too small would stop it before."""
    sentences = [flat(["rare", "word0", "word1", "word2"]) for _ in range(2)]
    sentences += [flat(["common"] * 3)]
    sentences += [flat(["common", "plain", "quiet", "still"]) for _ in range(5)]
    sentences += [flat(["plain", "quiet", "still", "calm", "mild"]) for _ in range(24)]
    docs = [Document("d", tuple(sentences))]
    query = ["rare", "common"]
    got = [(r.doc_id, r.position, r.score) for r in retrieve(build_index(docs), query, 2)]
    assert got == bm25_oracle(docs, query, 2)
    assert got[0][1] == 2
    rare_score = bm25_oracle(docs, ["rare"], 1)[0][2]
    assert 0.99 * got[0][2] < rare_score < got[0][2]
