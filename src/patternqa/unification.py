"""Pattern/sentence unification with lexical and syntactic relaxation.

A pattern is aligned against consecutive units of a sentence parse, read
from its analysed :class:`~patternqa.treebank.Sentence` view: a Lexical
element consumes one leaf whose token matches it, a Syntactic or
AnswerSlot element consumes a preterminal or constituent carrying a
matching label. Candidate alignments are explored top-down, left-to-right,
depth-first; every leaf offset at which the remaining sentence is long
enough is tried. Relaxation (string-similarity token matching,
superclass-compatible tags) applies only as far as the given config
enables it; when to relax is decided by the caller. Without lexical
relaxation a pattern whose literal tokens are not all in the sentence
cannot align, which is tested before any alignment is tried.

The module holds no state. Its functions are pure over immutable inputs
(patterns, views and configs), except that :func:`unify` may be handed a
memo, a dict its caller owns: each result is then computed once under the
pattern's elements, the sentence's ``(doc_id, position)`` and the pass's
two relaxation switches, and shared as a tuple of candidates, each itself
an immutable tuple. Since a sentence is keyed by its place, not its view,
and a pass by its switches, not its whole config, one memo may serve calls
over one index only, under one relax config and its
:attr:`RelaxConfig.exact` pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

from .corpus import read_table
from .knowledge import ANSWER_SLOT, LEXICAL, Pattern
from .treebank import Sentence

RELAX_NONE = "none"
RELAX_LEXICAL = "lexical"
RELAX_SYNTACTIC = "syntactic"
RELAX_BOTH = "both"

DEFAULT_THRESHOLDS = {"levenshtein": 0.8, "overlap": 0.6, "jaccard": 0.5}


def levenshtein_distance(a: str, b: str) -> int:
    """Classic edit distance over characters (insert/delete/substitute)."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        current = [i]
        for j, cb in enumerate(b, 1):
            current.append(min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (ca != cb),
            ))
        previous = current
    return previous[-1]


def _bigrams(s: str) -> set[str]:
    return {s[i : i + 2] for i in range(len(s) - 1)}


def lexical_similarity(a: str, b: str, measure: str = "levenshtein") -> float:
    """Similarity in [0, 1]; symmetric, 1.0 on identical inputs.

    levenshtein: 1 - d/max(|a|,|b|); overlap: |A&B|/min over character
    bigrams (1.0 when either set is empty); jaccard: |A&B|/|A|B| union
    (1.0 when both empty).
    """
    if measure == "levenshtein":
        longest = max(len(a), len(b))
        if longest == 0:
            return 1.0
        return 1.0 - levenshtein_distance(a, b) / longest
    if measure == "overlap":
        ga, gb = _bigrams(a), _bigrams(b)
        if not ga or not gb:
            return 1.0
        return len(ga & gb) / min(len(ga), len(gb))
    if measure == "jaccard":
        ga, gb = _bigrams(a), _bigrams(b)
        if not ga and not gb:
            return 1.0
        return len(ga & gb) / len(ga | gb)
    raise ValueError(f"unknown measure {measure!r}")


def load_tag_hierarchy(path=None) -> dict[str, str]:
    """Tag -> superclass map, one "tag<TAB>superclass" per line."""
    return {tag: superclass.strip() for tag, superclass in read_table("tag_hierarchy.tsv", path)}


def tag_compatible(a: str, b: str, hierarchy: dict[str, str]) -> bool:
    """True iff the tags are equal or share a superclass. Unknown tags are
    their own singleton class, so this stays reflexive and symmetric."""
    if a == b:
        return True
    return hierarchy.get(a, a) == hierarchy.get(b, b)


@dataclass(frozen=True)
class RelaxConfig:
    enable_lexical: bool = True
    lexical_measure: str = "levenshtein"
    lexical_threshold: float = 0.8
    enable_syntactic: bool = True
    tag_hierarchy: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.lexical_threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        if self.lexical_measure not in DEFAULT_THRESHOLDS:
            raise ValueError(f"unknown measure {self.lexical_measure!r}")

    @cached_property
    def exact(self) -> "RelaxConfig":
        """This config's exact pass, one object per config."""
        return replace(self, enable_lexical=False, enable_syntactic=False)


def default_config(measure: str = "levenshtein", threshold: float | None = None,
                   enable_lexical: bool = True, enable_syntactic: bool = True) -> RelaxConfig:
    if threshold is None:
        threshold = DEFAULT_THRESHOLDS[measure]
    return RelaxConfig(
        enable_lexical=enable_lexical,
        lexical_measure=measure,
        lexical_threshold=threshold,
        enable_syntactic=enable_syntactic,
        tag_hierarchy=load_tag_hierarchy(),
    )


class CandidateAnswer(NamedTuple):
    """One extracted answer. A tuple: immutable, hashed and compared as its
    fields, so it also equals a plain tuple holding the same values."""

    text: str
    span: tuple[int, int]  # half-open leaf indices within the sentence
    strategy: str  # "pattern" or "ner"
    pattern_provenance: str | None = None
    relaxation_used: str = RELAX_NONE
    doc_id: str | None = None
    position: int | None = None


_RELAXATION = {
    (False, False): RELAX_NONE,
    (True, False): RELAX_LEXICAL,
    (False, True): RELAX_SYNTACTIC,
    (True, True): RELAX_BOTH,
}


def unify(pattern: Pattern, sentence: Sentence, config: RelaxConfig,
          doc_id: str | None = None, position: int | None = None,
          memo: dict | None = None) -> tuple[CandidateAnswer, ...]:
    """Extract candidate answers for one pattern against one analysed
    sentence, in one alignment pass under ``config`` (exact when it enables
    no relaxation). A span keeps the relaxation of the first alignment that
    reached it. Results are deduplicated by span and ordered by position,
    and carry the sentence's ``doc_id`` and ``position``. With a ``memo``,
    the result is looked up under ``(pattern.elements, doc_id, position,
    config.enable_lexical, config.enable_syntactic)`` and computed only when
    absent (see the module docstring).
    """
    if memo is None:
        return _unify(pattern, sentence, config, doc_id, position)
    key = (pattern.elements, doc_id, position, config.enable_lexical, config.enable_syntactic)
    found = memo.get(key)
    if found is None:
        found = memo[key] = _unify(pattern, sentence, config, doc_id, position)
    return found


def _unify(pattern: Pattern, sentence: Sentence, config: RelaxConfig,
           doc_id: str | None, position: int | None) -> tuple[CandidateAnswer, ...]:
    lowered = sentence.lowered
    elements = [(e.kind, e.value.lower() if e.kind == LEXICAL else e.value)
                for e in pattern.elements]
    lexical_on = config.enable_lexical
    if not lexical_on and any(kind == LEXICAL and value not in lowered
                              for kind, value in elements):
        return ()
    constituents = sentence.constituents
    hierarchy = config.tag_hierarchy if config.enable_syntactic else None
    n, size = len(lowered), len(elements)
    found: dict[tuple[int, int], str] = {}

    # depth-first over the elements from leaf offset ``pos``; an alignment
    # of all of them records its answer span
    def match(idx, pos, captured, lex_used, syn_used):
        if idx == size:
            if captured is not None and captured not in found:
                found[captured] = _RELAXATION[lex_used, syn_used]
            return
        if n - pos < size - idx:
            return
        kind, value = elements[idx]
        if kind == LEXICAL:
            token = lowered[pos]
            if token == value:
                match(idx + 1, pos + 1, captured, lex_used, syn_used)
            elif lexical_on and lexical_similarity(
                token, value, config.lexical_measure
            ) >= config.lexical_threshold:
                match(idx + 1, pos + 1, captured, True, syn_used)
            return
        for end, label, _ in constituents[pos]:
            if label == value:
                relaxed = False
            elif hierarchy is not None and tag_compatible(label, value, hierarchy):
                relaxed = True
            else:
                continue
            match(idx + 1, end, (pos, end) if kind == ANSWER_SLOT else captured,
                  lex_used, syn_used or relaxed)

    for start in range(n - size + 1):
        match(0, start, None, False, False)
    match = None  # ``match`` refers to itself through its cell: unlink it, so no cycle is left
    if not found:
        return ()
    tokens = sentence.tokens
    provenance = pattern.render()
    return tuple(CandidateAnswer(" ".join(tokens[span[0] : span[1]]), span, "pattern",
                                 provenance, found[span], doc_id, position)
                 for span in sorted(found))
