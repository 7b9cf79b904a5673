"""Semantic question classification (Li & Roth style coarse:fine labels).

A gold label from the corpus always wins. Otherwise ordered wh-word rules
apply, with a head-noun hint table for what/which questions. The rules are
deliberately fallible: "Who did France beat for the World Cup?" comes out
HUM:ind even though the true answer is a country, and downstream strategies
must cope with that.
"""

from __future__ import annotations

from typing import NamedTuple

from .corpus import COARSE_CLASSES, Question, read_table
from .treebank import Sentence

WH_TAGS = frozenset({"WP", "WP$", "WDT", "WRB"})
WH_WORDS = frozenset({"who", "whom", "whose", "what", "which", "when", "where", "why", "how"})


class _Label(NamedTuple):
    coarse: str
    fine: str


class Category(_Label):
    """A coarse:fine label. A tuple, so it also equals the plain tuple
    ``(coarse, fine)``."""

    __slots__ = ()

    def __new__(cls, coarse: str, fine: str):
        if coarse not in COARSE_CLASSES:
            raise ValueError(f"unknown coarse class {coarse!r}")
        return tuple.__new__(cls, (coarse, fine))

    def __str__(self) -> str:
        return f"{self.coarse}:{self.fine}"

    @classmethod
    def parse(cls, text: str) -> "Category":
        coarse, _, fine = text.partition(":")
        return cls(coarse, fine or "other")


def load_hint_table(path=None) -> dict[str, Category]:
    """Head-noun hints, one "head_noun<TAB>coarse:fine" per line."""
    return {noun.lower(): Category.parse(label.strip())
            for noun, label in read_table("head_noun_hints.tsv", path)}


def tagged_leaves(sentence: Sentence) -> list[tuple[str, str]]:
    """``(token, POS tag)`` of each preterminal, left to right."""
    return [(sentence.tokens[start], label)
            for start, entries in enumerate(sentence.constituents)
            for _, label, is_preterminal in entries if is_preterminal]


def wh_word(tagged: list[tuple[str, str]]) -> tuple[str, int]:
    """First wh-word (lowercased) in ``tagged`` and its leaf position; ("", -1) if none."""
    for i, (token, tag) in enumerate(tagged):
        low = token.lower()
        if tag in WH_TAGS or low in WH_WORDS:
            return low, i
    return "", -1


def _head_noun(tagged: list[tuple[str, str]], wh_index: int) -> str | None:
    after = tagged[wh_index + 1 :] if wh_index >= 0 else tagged
    for token, tag in after:
        if tag in ("NN", "NNS"):
            return token.lower()
    for token, tag in after:
        if tag in ("NNP", "NNPS"):
            return token.lower()
    return None


def classify(question: Question, hints: dict[str, Category] | None = None) -> Category:
    """Total function; deterministic for a given question text/parse."""
    if question.category:
        return Category.parse(question.category)
    if hints is None:
        hints = load_hint_table()
    tagged = tagged_leaves(question.parse)
    wh, wh_index = wh_word(tagged)
    follower = tagged[wh_index + 1][0].lower() if 0 <= wh_index + 1 < len(tagged) else ""
    if wh in ("who", "whom"):
        return Category("HUM", "ind")
    if wh == "where":
        return Category("LOC", "other")
    if wh == "when":
        return Category("NUM", "date")
    if wh == "how" and follower in ("many", "much"):
        return Category("NUM", "count")
    if wh == "how":
        return Category("DESC", "manner")
    if wh == "why":
        return Category("DESC", "reason")
    if wh in ("what", "which", "whose"):
        noun = _head_noun(tagged, wh_index)
        if noun and noun in hints:
            return hints[noun]
    return Category("ENTY", "other")
