"""Pattern/sentence unification with lexical and syntactic relaxation.

A pattern is aligned against consecutive units of a sentence parse, read
from its analysed :class:`~patternqa.treebank.Sentence` view: a Lexical
element consumes one leaf whose token matches it, a Syntactic or
AnswerSlot element consumes a preterminal or constituent carrying a
matching label. Candidate alignments are explored top-down, left-to-right,
depth-first; every leaf offset at which the remaining sentence is long
enough is tried. A search state at a Syntactic or AnswerSlot element, the
only ones that branch, is explored once per pass, as its completions
depend on it alone (memoized backtracking, as in packrat parsing): deep
stacks of same-label constituents cost polynomial, not exponential, time.
Relaxation (string-similarity token matching, superclass-compatible tags)
applies only as far as the given config enables it; when to relax is
decided by :func:`~patternqa.pipeline.extract_candidates`.

Two exact pre-tests skip work that cannot succeed. Without lexical
relaxation a pattern whose literal tokens are not all in the sentence
cannot align, which is tested before any alignment is tried. With
Levenshtein relaxation a token is compared with a literal only up to the
largest edit distance that still passes (:func:`levenshtein_reaches`): a
pair whose lengths differ by more is rejected before any cell is filled,
since the distance is at least the length difference, and for the others
only the diagonal band of that distance is filled. A pattern's lowercased
elements, its literals and its rendered text are made once per
:class:`~patternqa.knowledge.Pattern`.

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

from dataclasses import dataclass, replace
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


def levenshtein_distance(a: str, b: str, limit: int | None = None) -> int:
    """Edit distance over characters (insert/delete/substitute). With a
    ``limit``, the distance when it is at most ``limit``, else ``limit + 1``.

    Only the cells through which a path of cost at most ``limit`` can pass
    are filled, and the fill stops once a whole row exceeds it (Ukkonen,
    1985). A cell ``j - i`` columns off the diagonal, in a table whose last
    cell lies ``len(a) - len(b)`` off it, lies on no such path when the two
    offsets add up to more than ``limit``: the distance so far is at least
    the first, and the rest at least the difference. Without a limit, it is
    the longer length, which no distance exceeds."""
    if len(a) < len(b):
        a, b = b, a
    n, m = len(a), len(b)
    if limit is None:
        limit = n
    over = limit + 1
    if n - m > limit:
        return over
    # the band: from ``below`` columns left of the diagonal to ``above`` right of it
    below, above = (limit + n - m) // 2, (limit - n + m) // 2
    # row 0; a cell right of every band filled so far keeps its row-0 value,
    # its column number, which no distance to it exceeds
    row = list(range(m + 1))
    for i, ca in enumerate(a, 1):
        first, last = i - below, min(m, i + above)
        if first > 1:
            diagonal, left = row[first - 1], over  # the cell left of the band lies outside it
        else:
            first, diagonal, left = 0, row[0], i
            row[0] = i
        for j in range(max(first, 1), last + 1):
            up = row[j]
            row[j] = left = min(up + 1, left + 1, diagonal + (ca != b[j - 1]))
            diagonal = up
        if min(row[first : last + 1]) > limit:
            return over
    return min(row[m], over)


def distance_limit(longest: int, threshold: float) -> int:
    """The largest edit distance ``d`` between two strings, the longer
    ``longest`` characters long, whose Levenshtein similarity
    ``1.0 - d / longest``, the float expression :func:`lexical_similarity`
    computes, reaches ``threshold`` (in [0, 1]). That expression never
    rises as ``d`` grows, so a pair passes exactly when its distance is at
    most this."""
    if longest == 0:
        return 0
    limit = min(longest, int((1.0 - threshold) * longest) + 1)
    while 1.0 - limit / longest < threshold:
        limit -= 1
    return limit


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


def levenshtein_reaches(a: str, b: str, threshold: float) -> bool:
    """``lexical_similarity(a, b, "levenshtein") >= threshold``, filling only
    the band of the largest distance that passes (:func:`distance_limit`).
    A pair whose lengths alone differ by more than that distance is
    rejected before any cell is filled (the length filter of Gravano et
    al., 2001)."""
    limit = distance_limit(max(len(a), len(b)), threshold)
    return levenshtein_distance(a, b, limit) <= limit


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
    """A pass's relaxation settings, without defaults: :func:`default_config` has them."""

    enable_lexical: bool
    lexical_measure: str
    lexical_threshold: float
    enable_syntactic: bool
    tag_hierarchy: dict[str, str]

    def __post_init__(self):
        # the measure first: an unknown one has no default threshold
        if self.lexical_measure not in DEFAULT_THRESHOLDS:
            raise ValueError(f"unknown measure {self.lexical_measure!r}")
        if not 0.0 <= self.lexical_threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")

    @cached_property
    def exact(self) -> "RelaxConfig":
        """This config's exact pass, one object per config."""
        return replace(self, enable_lexical=False, enable_syntactic=False)


def default_config(measure: str = "levenshtein", threshold: float | None = None,
                   enable_lexical: bool = True, enable_syntactic: bool = True) -> RelaxConfig:
    """A config under ``measure``, at ``threshold`` or else the measure's
    default, with the shipped tag hierarchy. An unknown measure, or a
    threshold outside [0, 1], is a ``ValueError``."""
    if threshold is None:
        threshold = DEFAULT_THRESHOLDS.get(measure)
    return RelaxConfig(enable_lexical, measure, threshold, enable_syntactic, load_tag_hierarchy())


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
    lexical_on = config.enable_lexical
    if not lexical_on and not all(map(lowered.__contains__, pattern.literals)):
        return ()
    elements = pattern.lowered
    measure, threshold = config.lexical_measure, config.lexical_threshold
    bounded = measure == "levenshtein"
    constituents = sentence.constituents
    hierarchy = config.tag_hierarchy if config.enable_syntactic else None
    n, size = len(lowered), len(elements)
    found: dict[tuple[int, int], str] = {}
    tried: set[tuple] = set()

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
            elif lexical_on and (levenshtein_reaches(token, value, threshold) if bounded
                                 else lexical_similarity(token, value, measure) >= threshold):
                match(idx + 1, pos + 1, captured, True, syn_used)
            return
        state = (idx, pos, captured, lex_used, syn_used)
        if state in tried:  # its completions are in ``found`` already
            return
        tried.add(state)
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
    provenance = pattern.rendered
    return tuple(CandidateAnswer(" ".join(tokens[span[0] : span[1]]), span, "pattern",
                                 provenance, found[span], doc_id, position)
                 for span in sorted(found))
