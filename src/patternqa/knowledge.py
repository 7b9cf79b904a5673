"""Pattern learning from Q/A pairs, and the signature-indexed pattern store.

A pattern is a flat sequence of elements aligned to contiguous sentence
units: literal tokens, syntactic-category slots, and exactly one answer
slot. Learning takes a question, its known answer, and supporting
sentences; from each sentence that contains the answer plus at least one
question phrase it derives one pattern over the minimal covering span:

  * the answer span becomes an AnswerSlot labeled by its lowest exactly
    covering constituent (preterminal tag when the span is one token with
    no phrasal cover);
  * each matched question phrase becomes a Syntactic slot labeled the same
    way from the sentence's constituents;
  * leftover tokens whose stem matches a question content-word stem become
    Syntactic slots over their POS tag, except a leaf without a POS tag
    (no preterminal above it), which stays Lexical;
  * every other token stays Lexical.

The answer is found at its lowercased tokens, else (when it holds no
article) at its normalized words. Either search can match only at a start
holding its first word, so the learner first drops every sentence that
holds neither first word; such a sentence teaches nothing, and the rest
are learned from in the same order, so the patterns are the same.

The knowledge base stores patterns per question signature (semantic
category + wh-word + depth-limited label sequence), the one place a
pattern's signature is kept, with set-union, provenance-merging insertion.
It is single-writer: the pipeline mutates it only between questions, so
extraction always sees a frozen snapshot. A KB file is the text
:func:`kb_text` renders, written by the command line and read back by
:func:`load_kb`.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .classify import Category, tagged_leaves, wh_word
from .corpus import (ARTICLES, Question, check, json_text, normalize_answer, read_json,
                     tokenize)
from .retrieval import RetrievedSentence, content_words
from .stem import stem
from .treebank import Sentence

MAX_PATTERN_ELEMENTS = 12
SIGNATURE_DEPTH = 2

LEXICAL = "lexical"
SYNTACTIC = "syntactic"
ANSWER_SLOT = "answer"


class _Element(NamedTuple):
    kind: str
    value: str


class PatternElement(_Element):
    """One element of a pattern. A tuple: element sequences key the
    knowledge base and the extraction memo, and are hashed and compared as
    tuples of strings, so an element also equals the plain tuple
    ``(kind, value)``."""

    __slots__ = ()

    def __new__(cls, kind: str, value: str):
        if kind not in (LEXICAL, SYNTACTIC, ANSWER_SLOT):
            raise ValueError(f"unknown element kind {kind!r}")
        if not value:
            raise ValueError("element value must be non-empty")
        return tuple.__new__(cls, (kind, value))

    def render(self) -> str:
        if self.kind == ANSWER_SLOT:
            return f"{self.value}_answer"
        if self.kind == SYNTACTIC:
            return self.value
        return self.value.lower()


def lexical(token: str) -> PatternElement:
    return PatternElement(LEXICAL, token)


def syntactic(tag: str) -> PatternElement:
    return PatternElement(SYNTACTIC, tag)


def answer_slot(tag: str) -> PatternElement:
    return PatternElement(ANSWER_SLOT, tag)


class Signature(NamedTuple):
    """The key patterns are filed under. A tuple, like its category."""

    category: Category
    structure_key: str


@dataclass
class Pattern:
    """Its elements identify a pattern; the knowledge base files it under a
    signature. Its provenance is a set of (question id, sentence identifier)
    pairs, copied from the argument; the knowledge base grows a stored
    pattern's set in place, and ``source_questions`` (the question ids) with
    it. The elements are never changed, so the forms derived from them are
    made once, when first read."""

    elements: tuple[PatternElement, ...]
    provenances: set[tuple[str, str]]
    source_questions: set[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        slots = [e for e in self.elements if e.kind == ANSWER_SLOT]
        if len(slots) != 1:
            raise ValueError("a pattern has exactly one answer slot")
        if len(self.elements) < 2:
            raise ValueError("a bare answer slot matches anything and is forbidden")
        self.provenances = set(self.provenances)
        self.source_questions = {qid for qid, _ in self.provenances}

    @cached_property
    def rendered(self) -> str:
        """The pattern as text: the provenance its candidates carry."""
        return " ".join(e.render() for e in self.elements)

    @cached_property
    def lowered(self) -> tuple[tuple[str, str], ...]:
        """``(kind, value)`` per element, a literal's value lowercased, as
        it is compared with a sentence's lowercased tokens."""
        return tuple((kind, value.lower() if kind == LEXICAL else value)
                     for kind, value in self.elements)

    @cached_property
    def literals(self) -> tuple[str, ...]:
        """The lowercased literal values: an exact alignment needs each of
        them among the sentence's lowercased tokens."""
        return tuple(value for kind, value in self.lowered if kind == LEXICAL)


def question_signature(question: Question, category: Category) -> Signature:
    """Signature = category + wh-word lemma + preorder labels of internal
    nodes at depth <= 2. Insensitive to all leaf tokens except the wh-word."""
    wh, _ = wh_word(tagged_leaves(question.parse))
    labels = []
    open_ends: list[int] = []  # ends of the nodes enclosing the current one
    for start, entries in enumerate(question.parse.constituents):
        while open_ends and open_ends[-1] <= start:
            open_ends.pop()
        for end, label, _ in entries:  # preorder: each node encloses the next
            if len(open_ends) <= SIGNATURE_DEPTH:  # the node's depth
                labels.append(label)
            open_ends.append(end)
    return Signature(category=category, structure_key=f"{wh}|{' '.join(labels)}")


def _find_subsequence(haystack: tuple[str, ...], needle: tuple[str, ...],
                      blocked: tuple[int, int] | None) -> tuple[int, int] | None:
    """First ``(start, end)`` at which ``needle`` occurs in ``haystack``
    without overlapping ``blocked``."""
    if not needle or len(needle) > len(haystack):
        return None
    size = len(needle)
    last = len(haystack) - size  # the last start at which the needle fits
    start = -1
    while True:
        try:
            start = haystack.index(needle[0], start + 1, last + 1)
        except ValueError:
            return None
        end = start + size
        if haystack[start:end] != needle:
            continue
        if blocked and not (end <= blocked[0] or start >= blocked[1]):
            continue
        return (start, end)


def _covering_label(sentence: Sentence, start: int, end: int) -> str | None:
    """Label of the lowest non-preterminal constituent exactly covering
    [start, end); preterminal tag as fallback for single-token spans."""
    constituent = None
    preterminal = None
    # preorder: later hits are deeper
    for e, label, is_preterminal in sentence.constituents[start]:
        if e != end:
            continue
        if is_preterminal:
            preterminal = label
        else:
            constituent = label
    if constituent is not None:
        return constituent
    if preterminal is not None and end - start == 1:
        return preterminal
    return None


def _question_phrases(question: Question) -> list[tuple[str, ...]]:
    """Lowercased token sequences of question constituents (non-preterminal
    internal nodes) that contain at least one content word, first
    occurrence of each in preorder."""
    content = set(content_words(question.parse))
    lowered = question.parse.lowered
    phrases: dict[tuple[str, ...], None] = {}
    for s, entries in enumerate(question.parse.constituents):
        for e, _, is_preterminal in entries:
            tokens = lowered[s:e]
            if not is_preterminal and not content.isdisjoint(tokens):
                phrases.setdefault(tokens)
    return list(phrases)


def _answer_span(sentence: Sentence, forms) -> tuple[int, int] | None:
    """First occurrence of the answer's lowercased tokens, else of its
    normalized words; ``forms`` holds the two."""
    raw, normalized = forms
    span = _find_subsequence(sentence.lowered, raw, None)
    if span is not None or not ARTICLES.isdisjoint(normalized):
        return span
    # a token normalizes to its stripped form, "" when that is an article:
    # words holding an article never match, and words holding none match
    # exactly where they match the stripped forms
    return _find_subsequence(sentence.stripped, normalized, None)


def _pattern_elements(sentence: Sentence, answer_forms, phrases: list[tuple[str, ...]],
                      content_stems: set[str]) -> tuple[PatternElement, ...] | None:
    """The element sequence one sentence teaches, or None."""
    ans = _answer_span(sentence, answer_forms)
    ans_label = None if ans is None else _covering_label(sentence, *ans)
    if ans_label is None:
        return None
    matched = []
    for phrase in phrases:
        hit = _find_subsequence(sentence.lowered, phrase, ans)
        label = None if hit is None else _covering_label(sentence, *hit)
        if label is not None:
            matched.append((hit, label))
    # keep maximal non-overlapping phrase spans, longest first; then the
    # answer span, which no phrase span overlaps: start -> (end, element)
    matched.sort(key=lambda item: (-(item[0][1] - item[0][0]), item[0][0]))
    regions: dict[int, tuple[int, PatternElement]] = {}
    for (s, e), label in matched:
        if all(e <= ks or s >= ke for ks, (ke, _) in regions.items()):
            regions[s] = (e, syntactic(label))
    if not regions:
        return None
    regions[ans[0]] = (ans[1], answer_slot(ans_label))
    elements = []
    i = min(regions)
    end = max(e for e, _ in regions.values())
    while i < end:
        region = regions.get(i)
        if region is not None:
            i, element = region
            elements.append(element)
            continue
        token = sentence.tokens[i]
        tag = None
        if stem(token) in content_stems:  # a leaf without a preterminal has no tag
            tag = next((label for _, label, is_preterminal in sentence.constituents[i]
                        if is_preterminal), None)
        elements.append(lexical(token) if tag is None else syntactic(tag))
        i += 1
    return tuple(elements) if len(elements) <= MAX_PATTERN_ELEMENTS else None


def learn_patterns(question: Question, answer: str,
                   sentences: Sequence[RetrievedSentence]) -> list[Pattern]:
    """One pattern per element sequence the sentences teach, every teaching
    sentence in its provenance; order is irrelevant. An answer without a
    word teaches nothing."""
    raw, normalized = answer_forms = (tuple(t.lower() for t in tokenize(answer)),
                                      tuple(normalize_answer(answer).split()))
    # _answer_span matches only at a start holding the first word of a form
    # it searches, so a sentence holding neither first word teaches nothing
    first = raw[0] if raw else None
    first_normalized = normalized[0] if normalized and ARTICLES.isdisjoint(normalized) else None
    sentences = [s for s in sentences
                 if first in s.view.lowered or first_normalized in s.view.stripped]
    if not sentences:
        return []
    phrases = _question_phrases(question)
    content_stems = {stem(w) for w in content_words(question.parse)}
    by_elements: dict[tuple, list[tuple[str, str]]] = {}
    for sentence in sorted(sentences, key=lambda s: (s.doc_id, s.position)):
        elements = _pattern_elements(sentence.view, answer_forms, phrases, content_stems)
        if elements is not None:
            by_elements.setdefault(elements, []).append(
                (question.id, f"{sentence.doc_id}:{sentence.position}"))
    return [Pattern(elements, provs) for elements, provs in by_elements.items()]


class KnowledgeBase:
    """Signature-indexed pattern store plus the source Q/A pairs."""

    def __init__(self):
        self._patterns: dict[Signature, dict[tuple[PatternElement, ...], Pattern]] = {}
        self.qa_pairs: list[tuple[str, str]] = []

    def insert(self, signature: Signature, patterns: list[Pattern]) -> int:
        """Set-union insertion under ``signature``. A pattern with a fresh
        element sequence is stored as given, not copied, so later merges grow
        its provenance; a same-element pattern merges its provenance into the
        stored one, at a cost linear in the new provenance only. Returns how
        many of ``patterns`` told the KB something new, either a fresh
        element sequence or fresh provenance on a stored one."""
        learned = 0
        for pattern in patterns:
            bucket = self._patterns.setdefault(signature, {})
            stored = bucket.get(pattern.elements)
            if stored is None:
                bucket[pattern.elements] = pattern
            else:
                fresh = pattern.provenances - stored.provenances
                if not fresh:
                    continue
                stored.provenances |= fresh
                stored.source_questions.update(qid for qid, _ in fresh)
            learned += 1
        return learned

    def lookup(self, signature: Signature) -> list[Pattern]:
        """Patterns under one signature, in insertion order; [] when unseen."""
        return list(self._patterns.get(signature, {}).values())

    def count(self, signature: Signature) -> int:
        """How many element sequences are stored under one signature. It
        only grows: insertion appends and merges, never removes."""
        return len(self._patterns.get(signature, ()))

    def signatures(self) -> list[Signature]:
        return list(self._patterns)

    def pattern_count(self) -> int:
        return sum(len(bucket) for bucket in self._patterns.values())


def kb_text(kb: KnowledgeBase) -> str:
    """The text of a KB file holding ``kb``: JSON with one-space indents,
    each pattern's provenance sorted, and a final line break."""
    payload = {
        "signatures": [
            {
                "category": str(signature.category),
                "structure_key": signature.structure_key,
                "patterns": [
                    {
                        "elements": [e._asdict() for e in p.elements],
                        "provenance": [list(pair) for pair in sorted(p.provenances)],
                    }
                    for p in kb.lookup(signature)
                ],
            }
            for signature in kb.signatures()
        ],
        "qa_pairs": [list(pair) for pair in kb.qa_pairs],
    }
    return json_text(payload) + "\n"


def load_kb(path, raw: bytes | None = None) -> KnowledgeBase:
    """The knowledge base in the KB file ``path`` (its bytes ``raw``, when
    read already), written from :func:`kb_text`. Raises
    :class:`~patternqa.corpus.DataError` naming the file and the first
    signature or pattern that does not validate."""
    return read_json(path, _kb_from_json, raw)


def _kb_from_json(payload: dict) -> KnowledgeBase:
    """The knowledge base a decoded KB file holds; a ``ValueError`` names
    the entry at fault."""
    kb = KnowledgeBase()
    where = "top level"
    try:
        signatures = check(payload.get("signatures", []), list, "a list", "signatures")
        qa_pairs = check(payload.get("qa_pairs", []), list, "a list", "qa_pairs")
        for n, entry in enumerate(signatures):
            check(entry, dict, "an object", f"signature entry {n}")
            category, key = entry.get("category"), entry.get("structure_key")
            named = where = f"signature {category} | {key}"
            signature = Signature(Category.parse(check(category, str, "a string", "category")),
                                  check(key, str, "a string", "structure_key"))
            for m, item in enumerate(check(entry.get("patterns", []), list, "a list", "patterns")):
                check(item, dict, "an object", f"pattern entry {m}")
                elements = item.get("elements")
                where = f"pattern {json.dumps(elements)} under {named}"
                check(elements, [{"kind": str, "value": str}],
                      'a list of {"kind": string, "value": string} objects', "elements")
                provenances = check(item.get("provenance"), [(str, str)],
                                    "[question id, sentence] string pairs", "provenance")
                elements = tuple(PatternElement(e["kind"], e["value"]) for e in elements)
                kb.insert(signature, [Pattern(elements, {tuple(pair) for pair in provenances})])
        where = "qa_pairs"
        for n, pair in enumerate(qa_pairs):
            kb.qa_pairs.append(tuple(check(pair, (str, str), "a [question id, answer] string pair",
                                           f"pair {n}")))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc
    return kb
