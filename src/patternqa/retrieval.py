"""Sentence-level passage retrieval over the document collection.

A plain inverted index with BM25 scoring (k1=1.2, b=0.75) stands in for a
full search engine; the unit of retrieval is the sentence because pattern
unification operates on single sentence trees.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources

from .corpus import Document
from .treebank import ParseTree, leaves

BM25_K1 = 1.2
BM25_B = 0.75


def _load_stopwords() -> frozenset[str]:
    text = resources.files("patternqa").joinpath("data/stopwords.txt").read_text("utf-8")
    return frozenset(line.strip() for line in text.splitlines() if line.strip())


STOPWORDS = _load_stopwords()


def content_words(tree: ParseTree) -> list[str]:
    """Non-stopword leaves of a parse, lowercased; the query-formulation rule."""
    out = []
    for tok in leaves(tree):
        low = tok.lower()
        if low in STOPWORDS or not any(c.isalnum() for c in low):
            continue
        out.append(low)
    return out


@dataclass(frozen=True)
class IndexedSentence:
    doc_id: str
    position: int  # sentence offset within its document
    text: str
    tree: ParseTree


@dataclass
class Index:
    sentences: list[IndexedSentence] = field(default_factory=list)
    postings: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    doc_lengths: list[int] = field(default_factory=list)
    avg_length: float = 0.0

    @property
    def size(self) -> int:
        return len(self.sentences)


@dataclass(frozen=True)
class RetrievedSentence:
    text: str
    tree: ParseTree
    score: float
    doc_id: str
    position: int


def build_index(docs: list[Document]) -> Index:
    """Index lowercased, stopword-filtered sentence terms. Deterministic:
    the same documents always produce the same index."""
    index = Index()
    for doc in docs:
        for position, (text, tree) in enumerate(doc.sentences):
            sid = len(index.sentences)
            index.sentences.append(IndexedSentence(doc.doc_id, position, text, tree))
            terms = content_words(tree)
            index.doc_lengths.append(len(terms))
            counts: dict[str, int] = {}
            for term in terms:
                counts[term] = counts.get(term, 0) + 1
            for term, tf in counts.items():
                index.postings.setdefault(term, []).append((sid, tf))
    if index.doc_lengths:
        index.avg_length = sum(index.doc_lengths) / len(index.doc_lengths)
    return index


def retrieve(index: Index, query_terms: list[str], k: int = 20) -> list[RetrievedSentence]:
    """Top-k sentences by BM25; ties broken by (doc_id, position) ascending.
    k=0 yields an empty list; fewer than k are returned when fewer match."""
    if k <= 0 or index.size == 0:
        return []
    n = index.size
    scores: dict[int, float] = {}
    for term in set(t.lower() for t in query_terms):
        plist = index.postings.get(term)
        if not plist:
            continue
        df = len(plist)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        for sid, tf in plist:
            length_norm = 1.0 - BM25_B + BM25_B * index.doc_lengths[sid] / index.avg_length
            scores[sid] = scores.get(sid, 0.0) + idf * tf * (BM25_K1 + 1.0) / (tf + BM25_K1 * length_norm)
    ranked = sorted(
        scores.items(),
        key=lambda item: (-item[1], index.sentences[item[0]].doc_id, index.sentences[item[0]].position),
    )
    out = []
    for sid, score in ranked[:k]:
        sent = index.sentences[sid]
        out.append(RetrievedSentence(sent.text, sent.tree, score, sent.doc_id, sent.position))
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
