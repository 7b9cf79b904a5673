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
bounds of the terms it has not visited. A sentence first met at a term
holds none of the terms visited before; if it holds none of the terms
still to visit either, its score is exactly its weight for that term, at
most the term's bound. So at each term the sentences that also hold a
later term are scored first, and the rest are dropped unscored when k
sentences already score strictly above that bound: none of them can enter
the top k, not even by the tie-break, since the k-th best score only grows
as sentences are scored, and none is met again. Which of them hold a later
term is read from the later terms' postings, or, where the term meets
fewer sentences than there are terms still to visit, from those
sentences' own words; so the search costs the sentences met, not their
number times the query's length.
Every idf is positive, since a document frequency never exceeds the number
of sentences, so every weight and every score is positive.
Ties go to the lower ``(doc_id, position)``; the index keeps each
sentence's place in that order, so the scored sentences are sorted by
their places and then, stably, by descending score.

A precomputed weight is the very float that scoring computed on the fly,
from the same expression and the same idf, and each score is still summed
from 0.0 over the query terms in sorted order. So ranks and scores are
bit-identical to scoring every sentence, whatever the visiting order.

The top k of a query depends only on the index, k, and the query's sorted,
distinct terms that the index holds. So :func:`retrieve` can keep the ids
and scores of each top k in a memo under those terms, and answer the same
terms again from it with no scoring. A run keeps one memo in its state,
and the load cache (:mod:`patternqa.cache`) keeps it from run to run.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from operator import add
from typing import NamedTuple

from .corpus import Document, read_table
from .treebank import Sentence

BM25_K1 = 1.2
BM25_B = 0.75
TOP_K = 20  # the default retrieval depth of runs and tutor sessions


STOPWORDS = frozenset(word for word, _ in read_table("stopwords.txt"))


def content_words(sentence: Sentence) -> list[str]:
    """Lowercased tokens of a sentence that are not stopwords and hold a
    letter or digit: the query and index term rule. ``str.isalnum`` settles
    most tokens in one call; only the others are looked at character by
    character."""
    return [low for low in sentence.lowered
            if low not in STOPWORDS and (low.isalnum() or any(c.isalnum() for c in low))]


class IndexedSentence(NamedTuple):
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
    idfs: dict[int, float] = {}  # by document frequency
    for term, weights in postings.items():
        df = len(weights)
        idf = idfs.get(df)
        if idf is None:
            idf = idfs[df] = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
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


def retrieve(index: Index, query_terms: list[str], k: int,
             memo: dict | None = None) -> list[RetrievedSentence]:
    """Top-k sentences by BM25; ties broken by (doc_id, position) ascending.
    k=0 yields an empty list; fewer than k are returned when fewer match.

    With ``memo``, the ids and scores of the top k are kept there under the
    sorted, distinct query terms that the index holds, and a later query with
    those terms is answered from it with no scoring: the same sentences and
    the same floats in the same order. A memo serves one index and one k.
    """
    if k <= 0:
        return []
    postings = index.postings
    terms = tuple([term for term in sorted({t.lower() for t in query_terms}) if term in postings])
    top = None if memo is None else memo.get(terms)
    if top is None:
        top = _top(index, terms, k)
        if memo is not None:
            memo[terms] = top
    sentences = index.sentences
    out = []
    for sid, score in zip(*top):
        sent = sentences[sid]
        out.append(RetrievedSentence(sent.text, sent.view, score, sent.doc_id, sent.position))
    return out


def _top(index: Index, terms: tuple[str, ...], k: int) -> tuple[tuple[int, ...],
                                                                 tuple[float, ...]]:
    """The ids and scores of the top k sentences for ``terms``, best first.

    Terms are visited in descending order of their bound (see the module
    docstring). The sentences that a term meets first are scored in full
    there, or never: the terms visited before hold none of them. Before each
    term the loop stops once k sentences are scored and the k-th best score
    is strictly above the summed bounds of the terms not yet visited: a
    sentence not yet met holds none of the visited terms, so it scores at
    most that sum and cannot reach the top k, not even by the tie-break.
    Those met at a term that hold no later term are scored last there, and
    only while the k-th best score is not strictly above the term's bound.
    Every score is summed from 0.0 over the query terms in sorted order, a
    term the sentence lacks adding 0.0, which leaves a positive sum
    unchanged. So a score does not depend on the hash seed or the visiting
    order (float addition is not associative), and the result equals
    scoring every sentence.
    """
    maps = [index.postings[term] for term in terms]  # summed in this order
    bounds = [index.bounds[term] for term in terms]
    # reverse=True keeps equal bounds in term order
    visiting = sorted(range(len(terms)), key=bounds.__getitem__, reverse=True)
    # rest[i] sums the bounds from the i-th visited term on, added smallest first
    rest = list(accumulate(sorted(bounds)))[::-1]
    sentences = index.sentences
    unvisited = set(terms)
    scores: dict[int, float] = {}
    best: list[float] = []  # the k best scores so far, ascending
    for i, current in enumerate(visiting):
        if len(best) == k and best[0] > rest[i]:
            break
        unvisited.remove(terms[current])
        keys = maps[current].keys()
        # where more than k may be scored, first those that hold a later term,
        # found through the fewer of the sentences' words and the later terms
        if unvisited and len(scores) + len(keys) > k:
            if len(keys) < len(unvisited):
                held = {sid for sid in keys if sid not in scores
                        and not unvisited.isdisjoint(sentences[sid].view.lowered)}
            else:
                held = set().union(*[keys & maps[j].keys()
                                     for j in visiting[i + 1:]]).difference(scores)
            best = _score(maps, held, scores, best, k)
            # each one left scores at most bounds[current]
            if len(best) == k and best[0] > bounds[current]:
                continue
        best = _score(maps, keys - scores.keys(), scores, best, k)
    ranks = index.ranks
    top = sorted(scores, key=ranks.__getitem__)
    top.sort(key=scores.__getitem__, reverse=True)  # stable: ties stay in rank order
    del top[k:]
    return tuple(top), tuple(map(scores.__getitem__, top))


def _score(maps: list[dict[int, float]], sids: set[int], scores: dict[int, float],
           best: list[float], k: int) -> list[float]:
    """Score ``sids`` in full into ``scores``: 0.0, plus each term's weight
    (0.0 where the sentence lacks the term), in term order. Returns the k
    best of ``best`` and the new scores, ascending."""
    if not sids:
        return best
    sids = list(sids)
    column = repeat(0.0)
    for weights in maps:
        column = map(add, column, map(weights.get, sids, repeat(0.0)))
    new = list(column)
    scores.update(zip(sids, new))
    new += best
    new.sort()
    return new[-k:]


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
