"""Sentence-level passage retrieval over the document collection.

A plain inverted index with BM25 scoring (k1=1.2, b=0.75) stands in for a
full search engine; the unit of retrieval is the sentence because pattern
unification operates on single sentences. The index holds each sentence's
analysed :class:`~patternqa.treebank.Sentence` view, which retrieval hands
on to extraction and learning. Questions and documents are analysed the
same way at load, so one rule, :func:`content_words` over a view's
lowercased tokens, gives both the query terms and the index terms.

Retrieval takes the exact top k with MaxScore pruning (Turtle and Flood,
1995) over precomputed impacts (Anh and Moffat, 2002). A term adds
``idf * tf * (k1 + 1) / (tf + k1_norm)`` to the score of a sentence that
holds it, and every factor of that weight is fixed once the collection is
indexed, so :func:`build_index` computes each weight once: a term's
postings map each sentence that holds it to its weight. Each term also
gets its own bound, its largest weight widened by a relative 1e-9 to cover
rounding. :func:`retrieve` visits the query terms in descending bound
order and stops once the k-th best score is strictly above the summed
bounds of the terms it has not visited. Every idf is positive, since a document frequency never exceeds
the number of sentences, so every weight and every score is positive.
Ties go to the lower ``(doc_id, position)``; the index keeps each
sentence's place in that order, so a tie is settled by one integer.

A precomputed weight is the very float that scoring computed on the fly,
from the same expression and the same idf, and each score is still summed
from 0.0 over the query terms in sorted order. So ranks and scores are
bit-identical to scoring every sentence, whatever the visiting order.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from operator import add
from typing import NamedTuple

from .corpus import Document, read_table
from .treebank import Sentence

BM25_K1 = 1.2
BM25_B = 0.75


STOPWORDS = frozenset(word for word, _ in read_table("stopwords.txt"))


def content_words(sentence: Sentence) -> list[str]:
    """Lowercased tokens of a sentence that are not stopwords and hold a
    letter or digit: the query and index term rule. ``str.isalnum`` settles
    most tokens in one call; only the others are looked at character by
    character."""
    return [low for low in sentence.lowered
            if low not in STOPWORDS and (low.isalnum() or any(c.isalnum() for c in low))]


@dataclass(frozen=True, slots=True)
class IndexedSentence:
    doc_id: str
    position: int  # sentence offset within its document
    text: str
    view: Sentence


@dataclass
class Index:
    sentences: list[IndexedSentence] = field(default_factory=list)
    # term -> {sentence id: the term's BM25 weight in that sentence}
    postings: dict[str, dict[int, float]] = field(default_factory=dict)
    # term -> its largest weight, widened by a relative 1e-9
    bounds: dict[str, float] = field(default_factory=dict)
    # sentence id -> its place in (doc_id, position, sentence id) order
    ranks: list[int] = field(default_factory=list)
    avg_length: float = 0.0

    @property
    def size(self) -> int:
        return len(self.sentences)


class RetrievedSentence(NamedTuple):
    text: str
    view: Sentence
    score: float
    doc_id: str
    position: int


def build_index(docs: list[Document]) -> Index:
    """Index lowercased, stopword-filtered sentence terms with their BM25
    weights. Deterministic: the same documents always produce the same
    index."""
    index = Index()
    sentences, postings = index.sentences, index.postings
    sids, lengths = [], []
    for doc in docs:
        for position, (text, view) in enumerate(doc.sentences):
            sid = len(sentences)
            sids.append(sid)
            sentences.append(IndexedSentence(doc.doc_id, position, text, view))
            terms = content_words(view)
            lengths.append(len(terms))
            for term in terms:  # term frequencies, turned into weights below
                weights = postings.get(term)
                if weights is None:
                    weights = postings[term] = {}
                weights[sid] = weights.get(sid, 0) + 1
    n = len(sentences)
    if n:
        index.avg_length = sum(lengths) / n
    # an average of 0 means no sentence has a term, so no norm is ever read
    avg = index.avg_length or 1.0
    norms = [BM25_K1 * (1.0 - BM25_B + BM25_B * length / avg) for length in lengths]
    k1_plus_1 = BM25_K1 + 1.0
    # the index is read-only once built, so equal weights share one float,
    # and a one-sentence map equal to the one before (most terms occur in
    # one sentence only, next to the other such terms of that sentence)
    # shares its dict
    floats: dict[float, float] = {}
    single: dict[int, float] = {}
    for term, weights in postings.items():
        df = len(weights)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        for sid, tf in weights.items():
            weight = idf * tf * k1_plus_1 / (tf + norms[sid])
            weights[sid] = floats.setdefault(weight, weight)
        if df == 1:
            if weights == single:
                postings[term] = weights = single
            single = weights
        bound = max(weights.values()) * (1.0 + 1e-9)
        index.bounds[term] = floats.setdefault(bound, bound)
    order = sorted(sids, key=lambda sid: (sentences[sid].doc_id, sentences[sid].position))
    index.ranks = [0] * n
    for rank, sid in zip(sids, order):  # a rank is the int object of an equal id
        index.ranks[sid] = rank
    return index


def retrieve(index: Index, query_terms: list[str], k: int = 20) -> list[RetrievedSentence]:
    """Top-k sentences by BM25; ties broken by (doc_id, position) ascending.
    k=0 yields an empty list; fewer than k are returned when fewer match.

    Terms are visited in descending order of their bound (see the module
    docstring). The sentences that a term meets first are scored in full
    there: the terms visited before hold none of them. Before each term the
    loop stops once k sentences are scored and the k-th best score is
    strictly above the summed bounds of the terms not yet visited: a
    sentence not yet met holds none of the visited terms, so it scores at
    most that sum and cannot reach the top k, not even by the tie-break.
    Every score is summed from 0.0 over the query terms in sorted order, a
    term the sentence lacks adding 0.0, which leaves a positive sum
    unchanged. So a score does not depend on the hash seed or the visiting
    order (float addition is not associative), and the result equals
    scoring every sentence.
    """
    if k <= 0:
        return []
    postings = index.postings
    terms = [term for term in sorted({t.lower() for t in query_terms}) if term in postings]
    maps = [postings[term] for term in terms]  # summed in this order
    bounds = [index.bounds[term] for term in terms]
    visiting = sorted(range(len(terms)), key=lambda i: -bounds[i])
    # rest[i] sums the bounds from the i-th visited term on
    rest = [0.0] * (len(visiting) + 1)
    for i in range(len(visiting) - 1, -1, -1):
        rest[i] = rest[i + 1] + bounds[visiting[i]]
    scores: dict[int, float] = {}
    for i, current in enumerate(visiting):
        if len(scores) >= k and sorted(scores.values())[-k] > rest[i]:
            break
        fresh = list(maps[current].keys() - scores.keys())
        # 0.0, plus each term's weight (0.0 where it lacks the term), in term order
        column = repeat(0.0)
        for weights in maps:
            column = map(add, column, map(weights.get, fresh, repeat(0.0)))
        scores.update(zip(fresh, column))
    ranks = index.ranks
    top = list(scores)
    if len(top) > k:  # all above the k-th best score, then the first ties at it
        cut = sorted(scores.values())[-k]
        top = [sid for sid, score in scores.items() if score > cut]
        tied = sorted((sid for sid, score in scores.items() if score == cut), key=ranks.__getitem__)
        top += tied[:k - len(top)]
    top.sort(key=lambda sid: (-scores[sid], ranks[sid]))
    out = []
    for sid in top:
        sent = index.sentences[sid]
        out.append(RetrievedSentence(sent.text, sent.view, scores[sid], sent.doc_id, sent.position))
    return out


def serialize_index(index: Index) -> str:
    """Canonical JSON rendering, mainly for inspection and determinism checks.
    Postings are written as ``[sentence id, term frequency]`` pairs, counted
    again from each sentence's view."""
    lengths = []
    postings: dict[str, list[tuple[int, int]]] = {}
    for sid, sent in enumerate(index.sentences):
        terms = content_words(sent.view)
        lengths.append(len(terms))
        for term, tf in Counter(terms).items():
            postings.setdefault(term, []).append((sid, tf))
    payload = {
        "N": index.size,
        "avg_length": index.avg_length,
        "doc_lengths": lengths,
        "sentences": [
            {"doc_id": s.doc_id, "position": s.position, "text": s.text}
            for s in index.sentences
        ],
        "postings": postings,
    }
    return json.dumps(payload, sort_keys=True)
