"""Penn-bracketed constituency trees: parsing, serialization, and the
analysed :class:`Sentence` view.

Trees are immutable after construction. Labels are opaque text; no fixed
tagset is imposed here (the tag hierarchy used for relaxed matching lives
in :mod:`patternqa.unification`).

Every sentence, question or document, is analysed once, when it is loaded:
:func:`analyse` walks its tree a single time and keeps only what the later
layers read (tokens in three spellings and the constituents by start
offset). The tree itself is not kept, and this is the only module that
walks one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from sys import intern


class TreeFormatError(ValueError):
    """Malformed bracketed-tree input. ``offset`` is the 1-based character
    position at which the problem was detected."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@dataclass(frozen=True, slots=True)
class ParseTree:
    """A constituency tree node.

    A node carries a ``token`` iff it has no children (leaves store their
    surface form verbatim; their ``label`` equals the token). A preterminal
    is a node whose single child is a leaf (e.g. ``(NNP Dante)``).
    """

    label: str
    children: tuple["ParseTree", ...] = ()
    token: str | None = None

    def __post_init__(self):
        if (self.token is None) == (len(self.children) == 0):
            raise ValueError("a node has a token iff it has zero children")

    @property
    def is_leaf(self) -> bool:
        return self.token is not None

    @property
    def is_preterminal(self) -> bool:
        return len(self.children) == 1 and self.children[0].is_leaf


def leaf(token: str) -> ParseTree:
    return ParseTree(label=token, token=token)


def node(label: str, children) -> ParseTree:
    return ParseTree(label=label, children=tuple(children))


# Functional tag suffixes ("-SBJ") and numeric indices ("=2", "-1") are
# parser decoration; patterns must generalize across them. Labels that
# *start* with "-" (-NONE-, -LRB-) are left alone.
def strip_decorations(label: str) -> str:
    if len(label) > 1 and label[0] not in "-=":
        head = re.split(r"[-=]", label, maxsplit=1)[0]
        if head:
            return head
    return label


# what answer normalization strips from a lowercased token
PUNCTUATION = re.compile(r"[^\w\s]")

_ATOM = re.compile(r"[^()\s]+")


def parse_bracketed(text: str) -> ParseTree:
    """Parse one bracketed tree, e.g. ``(NP (NNP Dante))``.

    Raises :class:`TreeFormatError` (with a 1-based character offset) on
    unbalanced parentheses, a missing label after ``(``, or empty input.
    """
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def fail(message):
        raise TreeFormatError(message, pos + 1)

    def read_atom():
        nonlocal pos
        m = _ATOM.match(text, pos)
        if m is None:
            fail("expected a label or token")
        pos = m.end()
        return m.group()

    skip_ws()
    if pos >= n:
        fail("empty input")
    if text[pos] != "(":
        fail("expected '('")
    # An explicit stack of open nodes, so nesting depth is bounded by memory,
    # not by the interpreter's recursion limit.
    open_nodes: list[tuple[str, list[ParseTree]]] = []
    while True:
        ch = text[pos]
        if ch == "(":
            pos += 1
            skip_ws()
            if pos >= n:
                fail("unexpected end of input")
            if text[pos] in "()":
                fail("empty label")
            open_nodes.append((strip_decorations(read_atom()), []))
        elif ch == ")":
            pos += 1
            label, children = open_nodes.pop()
            if not children:
                fail("node without children")
            if not open_nodes:
                tree = node(label, children)
                break
            open_nodes[-1][1].append(node(label, children))
        else:
            open_nodes[-1][1].append(leaf(read_atom()))
        skip_ws()
        if pos >= n:
            fail("unexpected end of input")
    skip_ws()
    if pos < n:
        fail("trailing characters after tree")
    return tree


def serialize(tree: ParseTree) -> str:
    """Inverse of :func:`parse_bracketed`, modulo whitespace."""
    if tree.is_leaf:
        return tree.token
    inner = " ".join(serialize(c) for c in tree.children)
    return f"({tree.label} {inner})"


def node_spans(tree: ParseTree) -> list[tuple[ParseTree, int, int]]:
    """Preorder list of ``(node, start, end)`` half-open leaf spans."""
    out: list = []
    count = 0  # leaves seen so far
    open_nodes = []  # (node, its entry in out, start, iterator over the rest of its children)
    cur = tree
    while True:
        if cur.token is not None:  # is_leaf, without a property call on this hot path
            out.append((cur, count, count + 1))
            count += 1
        else:
            open_nodes.append((cur, len(out), count, iter(cur.children)))
            out.append(None)
        while open_nodes:
            nd, entry, start, rest = open_nodes[-1]
            cur = next(rest, None)
            if cur is not None:
                break
            open_nodes.pop()
            out[entry] = (nd, start, count)
        else:
            return out


@dataclass(frozen=True, slots=True)
class Sentence:
    """A sentence tree, analysed once. Position ``i`` of each token tuple is
    leaf ``i``: ``tokens`` verbatim, ``lowered`` lowercased, ``stripped``
    lowercased with punctuation removed ("" for a punctuation-only token).
    ``constituents[i]`` lists the internal nodes whose span starts at leaf
    ``i`` as ``(end, label, is_preterminal)``, in preorder, so a node comes
    before the nodes below it."""

    tokens: tuple[str, ...]
    lowered: tuple[str, ...]
    stripped: tuple[str, ...]
    constituents: tuple[tuple[tuple[int, str, bool], ...], ...]


def analyse(tree: ParseTree) -> Sentence:
    """The :class:`Sentence` view of ``tree``, from one walk. Tokens and
    labels are interned, so the views of a collection share their strings."""
    spans = node_spans(tree)
    tokens = tuple(intern(nd.token) for nd, _, _ in spans if nd.token is not None)
    lowered = tuple(intern(token.lower()) for token in tokens)
    by_start: list[list[tuple[int, str, bool]]] = [[] for _ in tokens]
    for nd, start, end in spans:
        if nd.token is None:
            by_start[start].append((end, intern(nd.label), nd.is_preterminal))
    return Sentence(
        tokens=tokens,
        lowered=lowered,
        stripped=tuple(intern(PUNCTUATION.sub("", low)) for low in lowered),
        constituents=tuple(map(tuple, by_start)),
    )
