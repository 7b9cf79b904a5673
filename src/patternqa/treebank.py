"""Penn-bracketed constituency parses, read straight into the analysed
:class:`Sentence` view.

Labels are opaque text; no fixed tagset is imposed here (the tag hierarchy
used for relaxed matching lives in :mod:`patternqa.unification`).

Every sentence, question or document, is analysed once, when it is loaded:
:func:`parse_sentence` reads its bracketed parse in a single pass and keeps
only what the later layers read (tokens in three spellings and the
constituents by start offset). No tree object is built, and this is the
only module that reads a parse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from sys import intern


class TreeFormatError(ValueError):
    """Malformed bracketed-tree input. ``offset`` is the 1-based character
    position at which the problem was detected."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


# Functional tag suffixes ("-SBJ") and numeric indices ("=2", "-1") are
# parser decoration; patterns must generalize across them. Labels that
# *start* with "-" (-NONE-, -LRB-) are left alone.
def strip_decorations(label: str) -> str:
    if len(label) > 1 and label[0] not in "-=":
        head = re.split(r"[-=]", label, maxsplit=1)[0]
        if head:
            return head
    return label


@lru_cache(maxsize=4096)
def _label(raw: str) -> str:
    return intern(strip_decorations(raw))


# what answer normalization strips from a lowercased token
PUNCTUATION = re.compile(r"[^\w\s]")

# a bracket, or an atom (label or token); whitespace separates atoms
_ITEM = re.compile(r"[()]|[^()\s]+")


@dataclass(frozen=True, slots=True)
class Sentence:
    """A sentence parse, analysed once. Position ``i`` of each token tuple is
    leaf ``i``: ``tokens`` verbatim, ``lowered`` lowercased, ``stripped``
    lowercased with punctuation removed ("" for a punctuation-only token).
    ``constituents[i]`` lists the internal nodes whose span starts at leaf
    ``i`` as ``(end, label, is_preterminal)``, in preorder, so a node comes
    before the nodes below it."""

    tokens: tuple[str, ...]
    lowered: tuple[str, ...]
    stripped: tuple[str, ...]
    constituents: tuple[tuple[tuple[int, str, bool], ...], ...]


def _fail(text: str, message: str, item: int | None, after: int = 0):
    """Raise :class:`TreeFormatError` at item number ``item`` of ``text``
    (``after`` characters past its start), or at the end of the input when
    ``item`` is None."""
    if item is None:
        raise TreeFormatError(message, len(text) + 1)
    match = next(islice(_ITEM.finditer(text), item, None))
    raise TreeFormatError(message, match.start() + after + 1)


def parse_sentence(text: str) -> Sentence:
    """The :class:`Sentence` view of one bracketed parse, e.g.
    ``(NP (NNP Dante))``, read in one pass. Labels lose their decorations;
    tokens and labels are interned, so the views of a collection share their
    strings.

    Raises :class:`TreeFormatError` (with a 1-based character offset) on
    unbalanced parentheses, a missing label after ``(``, a node without
    children, text around the tree, or empty input.
    """
    items = _ITEM.findall(text)
    if not items:
        _fail(text, "empty input", None)
    if items[0] != "(":
        _fail(text, "expected '('", 0)
    last = len(items) - 1
    tokens: list[str] = []
    by_start: list[list] = []  # the constituents starting at each leaf so far
    starting: list = []  # the constituents starting at the next leaf
    # An explicit stack of open nodes, so nesting depth is bounded by memory,
    # not by the interpreter's recursion limit. ``children`` is the open
    # node's: 0 none yet, 1 one leaf, 2 anything else.
    open_nodes: list[tuple[list, int, str, int]] = []
    children = 0
    i = 0
    while True:
        item = items[i]
        if item == "(":
            if i == last:
                _fail(text, "unexpected end of input", None)
            i += 1
            if items[i] in "()":
                _fail(text, "empty label", i)
            open_nodes.append((starting, len(starting), _label(items[i]), 2))
            starting.append(None)  # filled in when the node closes
            children = 0
        elif item == ")":
            entries, slot, label, parent_children = open_nodes.pop()
            if not children:
                _fail(text, "node without children", i, 1)
            entries[slot] = (len(tokens), label, children == 1)
            if not open_nodes:
                break
            children = parent_children
        else:
            tokens.append(intern(item))
            by_start.append(starting)
            starting = []
            children = 2 if children else 1
        if i == last:
            _fail(text, "unexpected end of input", None)
        i += 1
    if i < last:
        _fail(text, "trailing characters after tree", i + 1)
    lowered = tuple(intern(token.lower()) for token in tokens)
    return Sentence(
        tokens=tuple(tokens),
        lowered=lowered,
        stripped=tuple(intern(PUNCTUATION.sub("", low)) for low in lowered),
        constituents=tuple(map(tuple, by_start)),
    )
