"""Sentence-level passage retrieval over the document collection.

A plain inverted index with BM25 scoring (k1=1.2, b=0.75) stands in for a
full search engine; the unit of retrieval is the sentence because pattern
unification operates on single sentences. The index holds each sentence's
analysed :class:`~patternqa.treebank.Sentence` view, which retrieval hands
on to extraction and learning. Questions and documents are analysed the
same way at load, so one rule, :func:`content_words` over a view's
lowercased tokens, gives both the query terms and the index terms.
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
    if index.doc_lengths:
        index.avg_length = sum(index.doc_lengths) / len(index.doc_lengths)
    # an average of 0 means no sentence has a term, so no norm is ever read
    avg = index.avg_length or 1.0
    index.sentences = [
        IndexedSentence(*entry, BM25_K1 * (1.0 - BM25_B + BM25_B * length / avg))
        for entry, length in zip(entries, index.doc_lengths)
    ]
    return index


def retrieve(index: Index, query_terms: list[str], k: int = 20) -> list[RetrievedSentence]:
    """Top-k sentences by BM25; ties broken by (doc_id, position) ascending.
    k=0 yields an empty list; fewer than k are returned when fewer match.
    Query terms are summed in sorted order, so a score does not depend on
    the hash seed (float addition is not associative)."""
    if k <= 0 or index.size == 0:
        return []
    n = index.size
    sentences = index.sentences
    scores: dict[int, float] = {}
    for term in sorted({t.lower() for t in query_terms}):
        plist = index.postings.get(term)
        if not plist:
            continue
        df = len(plist)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        for sid, tf in plist:
            norm = sentences[sid].k1_norm
            scores[sid] = scores.get(sid, 0.0) + idf * tf * (BM25_K1 + 1.0) / (tf + norm)
    ranked = heapq.nsmallest(
        k, scores.items(),
        key=lambda item: (-item[1], sentences[item[0]].doc_id, sentences[item[0]].position),
    )
    out = []
    for sid, score in ranked:
        sent = sentences[sid]
        out.append(RetrievedSentence(sent.text, sent.view, score, sent.doc_id, sent.position))
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
