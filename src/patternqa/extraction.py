"""Baseline non-pattern answer extraction: regexes, gazetteer lookup, and a
capitalized-sequence entity heuristic, dispatched on the question category.

The heuristics intentionally reproduce the failure structure of a typed
recognizer rather than chase accuracy: a misclassified question routes to
the wrong extractor and misses its answer (DESC questions have no strategy
at all), which is exactly the behavior the pattern strategy has to recover
from.
"""

from __future__ import annotations

import re

from .classify import Category
from .corpus import ARTICLES, normalize_answer, read_table
from .retrieval import RetrievedSentence, STOPWORDS
from .unification import RELAX_NONE, CandidateAnswer

MAX_GAZETTEER_SPAN = 5


class Gazetteer:
    """Per-category surface-form sets; forms are pre-normalized. The
    lookups NER reads are built once, here: each label's forms, the first
    words of those forms, each form's coarse classes, and ``words``, the
    words of every form."""

    def __init__(self, table: dict[str, set[str]]):
        self._forms = {label: frozenset(forms) for label, forms in table.items()}
        self._first_words = {label: frozenset(form.split(" ", 1)[0] for form in forms)
                             for label, forms in table.items()}
        classes: dict[str, set[str]] = {}
        for label, forms in table.items():
            for form in forms:
                classes.setdefault(form, set()).add(label.split(":")[0])
        self._classes = {form: frozenset(coarse) for form, coarse in classes.items()}
        # tokens whose stripped forms are all outside ``words`` normalize to
        # no form: a non-empty form's words are all here, and the form ""
        # (of a table form of articles and punctuation only) is met only by
        # tokens that are articles or punctuation
        words = {word for form in classes for word in form.split()}
        if "" in classes:
            words |= ARTICLES | {""}
        self.words = frozenset(words)

    def forms(self, label: str) -> frozenset[str]:
        return self._forms.get(label, frozenset())

    def first_words(self, label: str) -> frozenset[str]:
        """The words that open one of the label's forms."""
        return self._first_words.get(label, frozenset())

    def coarse_classes_of(self, form: str) -> frozenset[str]:
        """The coarse classes of the labels holding ``form``, a normalized
        form (see :func:`normalized_form`)."""
        return self._classes.get(form, frozenset())


def load_gazetteer(path=None) -> Gazetteer:
    """"coarse:fine<TAB>surface form" lines."""
    table: dict[str, set[str]] = {}
    for label, form in read_table("gazetteer.tsv", path):
        table.setdefault(label, set()).add(normalize_answer(form))
    return Gazetteer(table)


def load_regex_rules(path=None) -> dict[str, list[re.Pattern]]:
    """"coarse:fine<TAB>pattern" lines; several patterns per class allowed."""
    rules: dict[str, list[re.Pattern]] = {}
    for label, pattern in read_table("ner_regex.tsv", path):
        rules.setdefault(label, []).append(re.compile(pattern))
    return rules


def _keep_maximal(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Leftmost-longest non-overlapping selection."""
    kept: list[tuple[int, int]] = []
    for span in sorted(spans, key=lambda sp: (sp[0], -(sp[1] - sp[0]))):
        if kept and span[0] < kept[-1][1]:
            continue
        kept.append(span)
    return kept


def _regex_spans(tokens: tuple[str, ...], patterns: list[re.Pattern]) -> list[tuple[int, int]]:
    joined = " ".join(tokens)
    starts, ends = {}, {}
    offset = 0
    for i, token in enumerate(tokens):
        starts[offset] = i
        ends[offset + len(token)] = i + 1
        offset += len(token) + 1
    spans = []
    for pattern in patterns:
        for match in pattern.finditer(joined):
            begin, stop = match.span()
            if begin in starts and stop in ends:  # token-aligned matches only
                spans.append((starts[begin], ends[stop]))
    return _keep_maximal(spans)


def normalized_form(stripped: tuple[str, ...]) -> str:
    """``normalize_answer`` of the text of the tokens whose stripped forms
    (lowercased, punctuation removed) are ``stripped``: the non-empty ones,
    leading articles dropped, joined by spaces."""
    words = [word for word in stripped if word]
    start = 0
    while start < len(words) and words[start] in ARTICLES:
        start += 1
    return " ".join(words[start:])


def _capitalized_runs(tokens: tuple[str, ...]) -> list[tuple[int, int]]:
    """Maximal runs of capitalized tokens; a sentence-initial stopword
    ("The ...") does not start a run."""
    spans = []
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if token[:1].isupper() and not (i == 0 and token.lower() in STOPWORDS):
            j = i + 1
            while j < len(tokens) and tokens[j][:1].isupper():
                j += 1
            spans.append((i, j))
            i = j
        else:
            i += 1
    return spans


def _gazetteer_spans(stripped: tuple[str, ...], forms: frozenset[str],
                     first_words: frozenset[str]) -> list[tuple[int, int]]:
    """Shortest known form from each start, over windows of at most
    MAX_GAZETTEER_SPAN tokens that neither open nor close on an article or
    punctuation. ``stripped`` holds the tokens lowercased, punctuation
    removed; joining a window's non-empty ones is ``normalize_answer`` of
    its text, since its first token is no article. Tokens hold no
    whitespace, so a window can equal a form only if its first token is in
    ``first_words``, the first words of ``forms``."""
    if first_words.isdisjoint(stripped):
        return []
    spans = []
    n = len(stripped)
    for start in range(n):
        first = stripped[start]
        if first not in first_words or not first or first in ARTICLES:
            continue
        words = []
        for end in range(start + 1, min(n, start + MAX_GAZETTEER_SPAN) + 1):
            word = stripped[end - 1]
            if not word:
                continue
            words.append(word)
            if word not in ARTICLES and " ".join(words) in forms:
                spans.append((start, end))
                break
    return _keep_maximal(spans)


_OPEN_PARENS = {"(", "-LRB-"}
_CLOSE_PARENS = {")", "-RRB-"}


def _abbreviation_spans(tokens: tuple[str, ...]) -> list[tuple[int, int]]:
    """Runs of uppercase tokens enclosed in parentheses."""
    spans = []
    for i, token in enumerate(tokens):
        if token not in _OPEN_PARENS:
            continue
        j = i + 1
        while (j < len(tokens) and tokens[j] not in _CLOSE_PARENS
               and len(tokens[j]) >= 2 and tokens[j].isupper()):
            j += 1
        if j > i + 1 and j < len(tokens) and tokens[j] in _CLOSE_PARENS:
            spans.append((i + 1, j))
    return _keep_maximal(spans)


def extract_ner(category: Category, sentences: list[RetrievedSentence],
                gazetteer: Gazetteer, regex_rules: dict[str, list[re.Pattern]],
                memo: dict | None = None) -> list[CandidateAnswer]:
    """Category-dispatched extraction over the retrieved sentences.

    NUM uses the regex inventory for its fine class; HUM/LOC/ENTY use
    gazetteer hits for the fine class plus capitalized-token sequences
    (suppressed when the gazetteer knows the span under a different coarse
    class); ABBR finds parenthesized uppercase runs; DESC has no strategy.
    Output is deterministic, ordered by (sentence index, span start). The
    tables are those :func:`load_gazetteer` and :func:`load_regex_rules` load.

    With a ``memo``, a dict the caller owns, each sentence's candidates are
    looked up under ``(label, doc_id, position)`` and computed only when
    absent. One memo may therefore serve one index, gazetteer and rule set.
    """
    label = str(category)
    forms, first_words = gazetteer.forms(label), gazetteer.first_words(label)
    words = gazetteer.words
    out: list[CandidateAnswer] = []
    for sentence in sentences:
        key = (label, sentence.doc_id, sentence.position)
        found = None if memo is None else memo.get(key)
        if found is not None:
            out += found
            continue
        tokens, stripped = sentence.view.tokens, sentence.view.stripped
        spans: list[tuple[int, int]] = []
        if category.coarse == "NUM":
            spans = _regex_spans(tokens, regex_rules.get(label, []))
        elif category.coarse in ("HUM", "LOC", "ENTY"):
            runs = []
            for start, end in _capitalized_runs(tokens):
                run = stripped[start:end]
                if not words.isdisjoint(run):  # else its normalized form is no form
                    others = gazetteer.coarse_classes_of(normalized_form(run))
                    if others and category.coarse not in others:
                        continue
                runs.append((start, end))
            spans = _gazetteer_spans(stripped, forms, first_words)
            # runs are disjoint and in order, as is each other kind of span
            spans = sorted(set(spans + runs)) if spans else runs
        elif category.coarse == "ABBR":
            spans = _abbreviation_spans(tokens)
        # DESC: no specific strategy
        found = tuple(CandidateAnswer(" ".join(tokens[span[0]:span[1]]), span, "ner", None,
                                      RELAX_NONE, sentence.doc_id, sentence.position)
                      for span in spans)
        if memo is not None:
            memo[key] = found
        out += found
    return out
