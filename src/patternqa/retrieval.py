"""Sentence-level passage retrieval over the document collection.

A plain inverted index with BM25 scoring (k1=1.2, b=0.75) stands in for a
full search engine; the unit of retrieval is the sentence because pattern
unification operates on single sentences. The index holds each sentence's
analysed :class:`~patternqa.treebank.Sentence` view, which retrieval hands
on to extraction and learning. Questions and documents are analysed the
same way at load, so one rule, :func:`content_words` over a view's
lowercased tokens, gives both the query terms and the index terms.

Retrieval takes the exact top k with MaxScore-style pruning (Turtle and
Flood, 1995). A term adds ``idf * tf * (k1 + 1) / (tf + k1_norm)`` to a
sentence's score, which grows with ``tf`` and shrinks with ``k1_norm``, so
no term can add more than ``idf * (k1 + 1) * T / (T + min_norm)``, where
``T`` is the index's largest term frequency and ``min_norm`` its smallest
``k1_norm``; the bound is widened by a relative 1e-9 to cover rounding.
Every idf is positive, since a document frequency never exceeds the
number of sentences. :func:`retrieve` stops once the k-th best score is
strictly above the summed bounds of the terms it has not visited.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from importlib import resources

from .corpus import Document
from .treebank import Sentence

BM25_K1 = 1.2
BM25_B = 0.75


def _load_stopwords() -> frozenset[str]:
    text = resources.files("patternqa").joinpath("data/stopwords.txt").read_text("utf-8")
    return frozenset(line.strip() for line in text.splitlines() if line.strip())


STOPWORDS = _load_stopwords()


def content_words(sentence: Sentence) -> list[str]:
    """Lowercased tokens of a sentence that are not stopwords and hold a
    letter or digit: the query and index term rule."""
    return [low for low in sentence.lowered
            if low not in STOPWORDS and any(c.isalnum() for c in low)]


@dataclass(frozen=True, slots=True)
class IndexedSentence:
    doc_id: str
    position: int  # sentence offset within its document
    text: str
    view: Sentence
    k1_norm: float  # BM25_K1 * the length normalization of this sentence


@dataclass
class Index:
    sentences: list[IndexedSentence] = field(default_factory=list)
    postings: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    doc_lengths: list[int] = field(default_factory=list)
    avg_length: float = 0.0
    max_tf: int = 0  # the largest term frequency in any posting
    min_k1_norm: float = 0.0  # the smallest k1_norm of any sentence

    @property
    def size(self) -> int:
        return len(self.sentences)


@dataclass(frozen=True, slots=True)
class RetrievedSentence:
    text: str
    view: Sentence
    score: float
    doc_id: str
    position: int


def build_index(docs: list[Document]) -> Index:
    """Index lowercased, stopword-filtered sentence terms. Deterministic:
    the same documents always produce the same index."""
    index = Index()
    entries = []
    for doc in docs:
        for position, (text, view) in enumerate(doc.sentences):
            sid = len(entries)
            entries.append((doc.doc_id, position, text, view))
            terms = content_words(view)
            index.doc_lengths.append(len(terms))
            counts: dict[str, int] = {}
            for term in terms:
                counts[term] = counts.get(term, 0) + 1
            for term, tf in counts.items():
                index.postings.setdefault(term, []).append((sid, tf))
            index.max_tf = max(index.max_tf, max(counts.values(), default=0))
    if index.doc_lengths:
        index.avg_length = sum(index.doc_lengths) / len(index.doc_lengths)
    # an average of 0 means no sentence has a term, so no norm is ever read
    avg = index.avg_length or 1.0
    index.sentences = [
        IndexedSentence(*entry, BM25_K1 * (1.0 - BM25_B + BM25_B * length / avg))
        for entry, length in zip(entries, index.doc_lengths)
    ]
    index.min_k1_norm = min((sent.k1_norm for sent in index.sentences), default=0.0)
    return index


def retrieve(index: Index, query_terms: list[str], k: int = 20) -> list[RetrievedSentence]:
    """Top-k sentences by BM25; ties broken by (doc_id, position) ascending.
    k=0 yields an empty list; fewer than k are returned when fewer match.

    Terms are visited in descending order of their score bound (see the
    module docstring), and each sentence is scored in full when one of them
    first meets it: the terms visited before add nothing to it, and every
    other query term is counted in its lowercased tokens. Before each term
    the loop stops once k sentences are scored and the k-th best score is
    strictly above the summed bounds of the terms not yet visited: a
    sentence not yet met holds none of the visited terms, so it scores at
    most that sum and cannot reach the top k, not even by the tie-break.
    Every score is summed over the query terms in sorted order, so it does
    not depend on the hash seed or the visiting order (float addition is
    not associative), and the result equals scoring every sentence.
    """
    if k <= 0 or index.size == 0:
        return []
    n = index.size
    terms = []
    for term in sorted({t.lower() for t in query_terms}):
        plist = index.postings.get(term)
        if plist:
            df = len(plist)
            terms.append((term, math.log(1.0 + (n - df + 0.5) / (df + 0.5)), plist))
    k1_plus_1 = BM25_K1 + 1.0
    # every term's bound is its idf times one factor, so descending idf is
    # descending bound; rest[i] sums the bounds from the i-th visited term on
    bound = k1_plus_1 * index.max_tf / (index.max_tf + index.min_k1_norm) * (1.0 + 1e-9)
    visiting = sorted(terms, key=lambda entry: -entry[1])
    rest = [0.0] * (len(visiting) + 1)
    for i in range(len(visiting) - 1, -1, -1):
        rest[i] = rest[i + 1] + visiting[i][1] * bound
    sentences = index.sentences
    # sentence id -> (-score, doc_id, position, sentence id): the rank order
    scored: dict[int, tuple[float, str, int, int]] = {}
    unvisited = {term for term, _, _ in terms}
    for i, (current, _, plist) in enumerate(visiting):
        if len(scored) >= k and -heapq.nsmallest(k, scored.values())[-1][0] > rest[i]:
            break
        # a sentence first met here holds no term visited before
        counted = [(term, idf) for term, idf, _ in terms if term in unvisited]
        unvisited.discard(current)
        for sid, _ in plist:
            if sid in scored:
                continue
            sent = sentences[sid]
            lowered, norm = sent.view.lowered, sent.k1_norm
            score = 0.0
            for term, idf in counted:
                tf = lowered.count(term)  # the posting tf: index terms filter lowered
                if tf:
                    score += idf * tf * k1_plus_1 / (tf + norm)
            scored[sid] = (-score, sent.doc_id, sent.position, sid)
    out = []
    for negated, _, _, sid in heapq.nsmallest(k, scored.values()):
        sent = sentences[sid]
        out.append(RetrievedSentence(sent.text, sent.view, -negated, sent.doc_id, sent.position))
    return out


def serialize_index(index: Index) -> str:
    """Canonical JSON rendering, mainly for inspection and determinism checks."""
    payload = {
        "N": index.size,
        "avg_length": index.avg_length,
        "doc_lengths": index.doc_lengths,
        "sentences": [
            {"doc_id": s.doc_id, "position": s.position, "text": s.text}
            for s in index.sentences
        ],
        "postings": {term: index.postings[term] for term in sorted(index.postings)},
    }
    return json.dumps(payload, sort_keys=True)
