"""Penn-bracketed constituency parses, read straight into the analysed
:class:`Sentence` view.

Labels are opaque text; no fixed tagset is imposed here (the tag hierarchy
used for relaxed matching lives in :mod:`patternqa.unification`).

Every sentence, question or document, is analysed once, when it is loaded:
:func:`parse_sentence` reads its bracketed parse in a single pass and keeps
only what the later layers read (tokens in three spellings and the
constituents by start offset). No tree object is built, and this is the
only module that reads a parse.

The pass splits the parse into brackets and atoms with ``str`` methods and
reads a preterminal, ``(TAG token)``, in one step. Views are read-only, so
the views of one load share what is equal: tokens and labels are interned
strings, and a load passes one table to all its parses, through which
equal constituent entries, equal per-leaf entry tuples and equal
``constituents`` tuples become one object. Where a collection repeats
parse shapes, most of its views hold a ``constituents`` tuple built once.
The table is dropped when the load returns, so nothing kept grows with
the input. Every :class:`TreeFormatError`, its message and its offset,
comes from this one pass.
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
        raise TreeFormatError(message, len(text) + 1) from None
    match = next(islice(_ITEM.finditer(text), item, None))
    raise TreeFormatError(message, match.start() + after + 1) from None


def _interned(constituents: tuple, table: dict) -> tuple:
    """``constituents``, or the equal tuple already in ``table``. A tuple
    new to ``table`` enters it with each of its per-leaf tuples and entries
    replaced by the equal one already there, or entered itself."""
    found = table.get(constituents)
    if found is None:
        share = table.setdefault
        found = tuple([share(at, at) for at in
                       (tuple([share(entry, entry) for entry in at]) for at in constituents)])
        table[found] = found
    return found


def parse_sentence(text: str, shared: dict | None = None) -> Sentence:
    """The :class:`Sentence` view of one bracketed parse, e.g.
    ``(NP (NNP Dante))``, read in one pass. Labels lose their decorations;
    tokens and labels are interned, so the views of a collection share their
    strings. Equal constituent entries, equal per-leaf entry tuples and
    equal ``constituents`` tuples become one object through ``shared``, a
    table that the caller passes to every parse of one collection and drops
    afterwards (by default a fresh one per call).

    Raises :class:`TreeFormatError` (with a 1-based character offset) on
    unbalanced parentheses, a missing label after ``(``, a node without
    children, text around the tree, or empty input.
    """
    # the items of ``_ITEM.findall(text)``: str.split and re's \s agree on
    # what is whitespace
    items = text.replace("(", " ( ").replace(")", " ) ").split()
    if not items:
        _fail(text, "empty input", None)
    if items[0] != "(":
        _fail(text, "expected '('", 0)
    leaves: list[str] = []
    by_start: list[list] = []  # the constituents starting at each leaf so far
    starting: list = []  # the constituents starting at the next leaf
    # Open nodes are kept on an explicit stack, so nesting depth is bounded
    # by memory, not by the interpreter's recursion limit. A node with one
    # leaf child is a preterminal, always read in one step, so a node that
    # closes here has other children.
    open_nodes: list[tuple[list, int, str]] = []
    has_child = False  # whether the innermost open node has a child yet
    i = 0
    try:  # an item read past the last one means the input ends inside the tree
        while True:
            item = items[i]
            if item == "(":
                label = items[i + 1]
                if label in "()":
                    _fail(text, "empty label", i + 1)
                token = items[i + 2]
                if token not in "()" and items[i + 3] == ")":
                    # a preterminal, ``( TAG token )``, in one step
                    leaves.append(token)
                    starting.append((len(leaves), _label(label), True))
                    by_start.append(starting)
                    starting = []
                    i += 4
                    if not open_nodes:
                        break
                    has_child = True
                else:
                    open_nodes.append((starting, len(starting), label))
                    starting.append(None)  # filled in when the node closes
                    has_child = False
                    i += 2
            elif item == ")":
                if not has_child:
                    _fail(text, "node without children", i, 1)
                entries, slot, label = open_nodes.pop()
                entries[slot] = (len(leaves), _label(label), False)
                i += 1
                if not open_nodes:
                    break
                has_child = True
            else:
                leaves.append(item)
                by_start.append(starting)
                starting = []
                has_child = True
                i += 1
    except IndexError:
        _fail(text, "unexpected end of input", None)
    if i < len(items):
        _fail(text, "trailing characters after tree", i)
    tokens = tuple(map(intern, leaves))
    # a lowercase token is its own lowercase form, and an alphanumeric one
    # holds no punctuation to strip
    lowered = tuple([token if token.islower() else intern(token.lower()) for token in tokens])
    stripped = tuple([low if low.isalnum() else intern(PUNCTUATION.sub("", low))
                      for low in lowered])
    return Sentence(tokens, lowered, stripped, _interned(tuple(map(tuple, by_start)),
                                                         {} if shared is None else shared))
