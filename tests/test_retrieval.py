import hashlib
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from patternqa.corpus import Document, load_documents
from patternqa.retrieval import (BM25_B, BM25_K1, STOPWORDS, build_index, content_words,
                                 retrieve, serialize_index)
from patternqa.treebank import parse_sentence

from .conftest import DANTE_QUESTION_PARSE, FIXTURES
from .oracles import bm25_oracle, is_content_word


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


def test_stopwords_are_the_shipped_words_one_per_line():
    text = resources.files("patternqa").joinpath("data/stopwords.txt").read_text("utf-8")
    assert STOPWORDS == frozenset(line.strip() for line in text.splitlines() if line.strip())


def test_stopwords_filtered_from_content_words():
    view = parse_sentence("(S (DT The) (NN cat) (VBD sat) (. .))")
    assert content_words(view) == ["cat", "sat"]
    assert "the" in STOPWORDS


# tokens that a parse can hold: no whitespace and no parentheses
TOKENS = st.text(st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs"),
                               blacklist_characters="()"), min_size=1, max_size=5)


@example(["The", "a-b", "--", "x\u0301", "\u0301", "\u00b2", "\u00bd", "_", "U.S.", "OF"])
@settings(max_examples=200)
@given(st.lists(TOKENS | st.sampled_from(sorted(STOPWORDS)), min_size=1, max_size=12))
def test_content_words_follow_the_character_rule(tokens):
    """The ``str.isalnum`` shortcut keeps exactly the tokens that the
    character-by-character rule keeps."""
    view = parse_sentence("(S " + " ".join(f"(X {t})" for t in tokens) + ")")
    assert content_words(view) == [low for low in view.lowered if is_content_word(low)]


def test_dump_counts_every_term():
    """``serialize_index`` writes each term's postings as ``[sentence id,
    tf]`` pairs in sentence order, with each sentence's term count, as a
    brute-force count gives them, on the fixture documents and on sentences
    that repeat terms; and the fixture dump stays byte for byte what it was
    when the index stored those pairs."""
    fixture_docs = load_documents(FIXTURES / "docs.jsonl")
    repeating = [Document("r", (flat(["alpha", "alpha", "beta", "of"]), flat(["beta"] * 3),
                                flat(["the", "a"]))), Document("q", (flat(["gamma", "alpha"]),))]
    for docs in (fixture_docs, repeating):
        payload = json.loads(serialize_index(build_index(docs)))
        words = [[w for w in (t.lower() for t in view.tokens) if is_content_word(w)]
                 for doc in docs for _, view in doc.sentences]
        postings = {}
        for sid, ws in enumerate(words):
            for term in sorted(set(ws)):
                postings.setdefault(term, []).append([sid, ws.count(term)])
        assert payload["postings"] == postings
        assert payload["doc_lengths"] == [len(ws) for ws in words]
        assert payload["N"] == len(words)
    dump = serialize_index(build_index(fixture_docs)) + "\n"  # as ``run --dump-index`` writes it
    assert hashlib.sha256(dump.encode("utf-8")).hexdigest() == FIXTURE_DUMP_SHA256


# ``run --dump-index`` on the fixture documents, as written before the index
# stored weights in place of term frequencies
FIXTURE_DUMP_SHA256 = "71a05f4f16eee025d1ed187568c5de085133153c7d2a6b994efd1c66019e53d5"


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


class Unscorable(dict):
    """A term's postings in which the weights of the ``ruled_out`` sentences
    must never be read: retrieval reads a sentence's weights only to score
    it."""

    def __init__(self, weights, ruled_out):
        super().__init__(weights)
        self.ruled_out = ruled_out

    def _check(self, sid):
        if sid in self.ruled_out:
            raise AssertionError("scored a sentence that the bound rules out")

    def __getitem__(self, sid):
        self._check(sid)
        return super().__getitem__(sid)

    def get(self, sid, default=None):
        self._check(sid)
        return super().get(sid, default)


def rule_out(index, keep):
    """Make every sentence whose lowered tokens hold none of ``keep``
    unscorable, in every term's postings."""
    ruled_out = {sid for sid, sent in enumerate(index.sentences)
                 if not keep & set(sent.view.lowered)}
    for term, weights in index.postings.items():
        index.postings[term] = Unscorable(weights, ruled_out)


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
    rule_out(index, {"rare"})
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


def global_bound(sentences):
    """The bound that one factor gave every term, before each term had its
    own: ``(k1 + 1) * T / (T + min_norm)``, with ``T`` the collection's
    largest term frequency and ``min_norm`` its smallest ``k1_norm``, times
    a term's idf."""
    words = [[w for w in (t.lower() for t in view.tokens) if is_content_word(w)]
             for _, view in sentences]
    avg = sum(map(len, words)) / len(words)
    top = max(max(map(ws.count, ws)) for ws in words if ws)
    min_norm = min(BM25_K1 * (1.0 - BM25_B + BM25_B * len(ws) / avg) for ws in words)
    return (BM25_K1 + 1.0) * top / (top + min_norm)


def idf(n, df):
    return math.log(1.0 + (n - df + 0.5) / (df + 0.5))


def test_per_term_bounds_keep_the_long_lists_unscored():
    """The shape of a ``search`` query: one term in 1 sentence, one in 160,
    two in 800 each, among 4,000. Each of the 160 sentences holds the mid
    term and one long term, and outscores the two long terms' own bounds,
    so for k up to 160 no sentence reached only through the long lists is
    scored. The one bound for all terms, set by a short sentence that
    repeats a word, would have gone on into the long lists."""
    sentences = [flat(["solo", "mid", "longa", "longb", "seen", "there"])]
    sentences += [flat(["mid", "longa" if i % 2 else "longb", f"name{i % 7}", f"spot{i}",
                        "plain"]) for i in range(159)]
    for term, count in (("longa", 720), ("longb", 719)):
        sentences += [flat([term, f"name{i % 7}", f"town{i}", "plain", "calm"])
                      for i in range(count)]
    sentences += [flat(["echo"] * 6), flat(["mark"])]
    sentences += [flat([f"noun{i % 12}", f"verb{i % 12}", f"site{i}", "quiet"])
                  for i in range(4000 - len(sentences))]
    docs = [Document(f"d{d:02d}", tuple(sentences[d::40])) for d in range(40)]
    index = build_index(docs)
    assert [len(index.postings[t]) for t in ("solo", "mid", "longa", "longb")] == [1, 160, 800, 800]
    rule_out(index, {"solo", "mid"})
    query = ["longa", "mid", "longb", "solo"]
    old_rest = 2 * idf(index.size, 800) * global_bound(sentences)
    for k in (1, 20, 160):
        got = [(r.doc_id, r.position, r.score) for r in retrieve(index, query, k)]
        assert got == bm25_oracle(docs, query, k)
        if k > 1:  # the k-th best is a mid sentence, which the old bound did not clear
            assert got[-1][2] <= old_rest
    with pytest.raises(AssertionError, match="bound rules out"):
        retrieve(index, query, 161)  # a 161st sentence needs the long lists


def test_pruned_loop_reaches_a_sentence_at_the_bound():
    """The common term's bound is set by a short sentence that repeats it,
    so that term is visited first. The second-best common sentence scores
    just under the rare term's bound, which is what the two rare-term
    sentences score: the loop must go on to the rare list, and a rare bound
    1% too small would stop it before."""
    sentences = [flat(["rare", "word0", "word1", "word2"]) for _ in range(2)]
    sentences += [flat(["common"] * 3), flat(["common", "common", "pad0", "pad1"])]
    sentences += [flat(["common", "plain", "quiet", "still", "calm", "mild"]) for _ in range(2)]
    sentences += [flat(["plain", "quiet", "still", "calm", "mild"]) for _ in range(18)]
    docs = [Document("d", tuple(sentences))]
    index = build_index(docs)
    assert index.bounds["common"] > index.bounds["rare"]
    query = ["rare", "common"]
    got = [(r.doc_id, r.position, r.score) for r in retrieve(index, query, 2)]
    assert got == bm25_oracle(docs, query, 2)
    assert [position for _, position, _ in got] == [2, 0]
    second_common = bm25_oracle(docs, ["common"], 2)[1][2]
    assert 0.99 * got[1][2] < second_common < got[1][2]


def test_one_sentence_terms_keep_their_own_postings():
    """Most terms occur in one sentence only, and equal one-sentence
    postings share one map; every such term still finds its own sentence
    and scores as brute force scores it."""
    sentences = [flat(["alpha", "beta", "gamma"]), flat(["delta", "delta", "kappa"]),
                 flat(["sigma", "alpha"]), flat(["omega", "tau", "tau", "rho", "phi"])]
    docs = [Document("b", tuple(sentences[:2])), Document("a", tuple(sentences[2:]))]
    index = build_index(docs)
    assert index.postings["beta"] is index.postings["gamma"]
    assert index.postings["delta"] is not index.postings["kappa"]  # tf 2 and tf 1
    words = sorted({w for _, view in sentences for w in view.lowered})
    for query in [[w] for w in words] + [list(pair) for pair in zip(words, words[1:])]:
        for k in range(len(sentences) + 1):
            got = [(r.doc_id, r.position, r.score) for r in retrieve(index, query, k)]
            assert got == bm25_oracle(docs, query, k)
