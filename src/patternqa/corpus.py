"""Q/A corpus and pre-parsed document collection: loading, validation,
answer normalization; and the one reader path every input file takes.

File formats (JSON Lines, UTF-8):
  questions: {"id", "question", "parse", "category"?, "answers": [...]}
    (``answers`` lists acceptable reference strings, each non-empty once
    normalized)
  documents: {"doc_id", "sentences": [{"text", "parse"}, ...]}

Every parse, a question's or a document sentence's, is read once, straight
into a :class:`~patternqa.treebank.Sentence` view with its tokens and its
constituents; no tree is built.

Every JSON input, these two and the knowledge base, outcome log and run
metadata read elsewhere, is checked and read whole by :func:`read_bytes`
and decoded by :func:`read_json` (a whole file) or :func:`read_jsonl` (one
value per line), which hand each decoded object to a builder. Builders
validate with :func:`check`, whose ``ValueError`` the reader turns into a
:class:`DataError` naming the file and, for JSON Lines, the line. A caller
that has read an input's bytes already, to hash them as ``run`` does,
passes them on as ``raw``, so the bytes it hashed are the bytes parsed and
the file is opened once.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from importlib import resources
from io import BytesIO
from itertools import repeat
from pathlib import Path
from types import UnionType

from .treebank import PUNCTUATION, Sentence, TreeFormatError, parse_sentence


# the Li & Roth coarse question classes; a gold category is "coarse:fine"
COARSE_CLASSES = frozenset({"ABBR", "DESC", "ENTY", "HUM", "LOC", "NUM"})


class DataError(ValueError):
    """Input file content that does not validate. The message reads
    ``<path>: [line <n>: ]<what>``; ``line`` is the 1-based line at fault
    (always known in a JSON Lines file), else None."""

    def __init__(self, path, what: str, line: int | None = None):
        super().__init__(f"{path}: {what}" if line is None else f"{path}: line {line}: {what}")
        self.line = line


@dataclass(frozen=True)
class Question:
    id: str
    text: str
    parse: Sentence  # the analysed parse
    category: str | None = None  # gold "coarse:fine" label, when present
    answers: tuple[str, ...] = ()


@dataclass(frozen=True)
class Document:
    doc_id: str
    sentences: tuple[tuple[str, Sentence], ...]  # (text, analysed parse)


# a word (a run of non-space characters up to its last one that is not
# terminal punctuation), or one terminal punctuation character
_TOKEN = re.compile(r"\S*[^\s.,?!;:]|[.,?!;:]")


def tokenize(text: str) -> list[str]:
    """Whitespace split with terminal punctuation separated into its own
    tokens ("Comedy?" -> ["Comedy", "?"]). Fixtures are authored to agree
    with parse leaves under this rule."""
    return _TOKEN.findall(text)


ARTICLES = frozenset({"a", "an", "the"})


def normalize_answer(text: str) -> str:
    """Lowercase, drop leading articles, strip punctuation, collapse
    whitespace. Idempotent; answer matching is exact on normalized forms."""
    text = PUNCTUATION.sub("", text.lower())
    tokens = text.split()
    while tokens and tokens[0] in ARTICLES:
        tokens = tokens[1:]
    return " ".join(tokens)


def read_table(name: str, path=None) -> list[tuple[str, str]]:
    """``(key, value)`` rows of a ``key<TAB>value`` table: the file ``path``,
    or the table ``name`` shipped in ``patternqa/data``. Blank lines and
    ``#`` comments are skipped. Keys are stripped; values are returned as
    written, since a regular expression may begin or end with a space."""
    if path is None:
        text = resources.files("patternqa").joinpath("data", name).read_text("utf-8")
    else:
        text = Path(path).read_text("utf-8")
    rows = []
    for line in text.splitlines():
        line = line.lstrip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("\t")
        rows.append((key.rstrip(), value))
    return rows


def _fits(value, shape) -> bool:
    """Whether the decoded JSON ``value`` has ``shape``: a type, or union of
    types, it is an instance of; ``[item]``, a list of values of shape
    ``item``; ``(first, second, ...)``, a list of one value of each shape;
    ``{key: item, ...}``, an object whose value at each key (None when
    absent) has that key's shape; or else a test that accepts it."""
    if isinstance(shape, (type, UnionType)):
        return isinstance(value, shape)
    if isinstance(shape, list):
        return isinstance(value, list) and all(map(_fits, value, repeat(shape[0])))
    if isinstance(shape, tuple):
        return (isinstance(value, list) and len(value) == len(shape)
                and all(map(_fits, value, shape)))
    if isinstance(shape, dict):
        return isinstance(value, dict) and all(map(_fits, map(value.get, shape), shape.values()))
    return shape(value)


def check(value, shape, what: str, name: str):
    """``value``, if it has ``shape`` (see :func:`_fits`); else a
    ``ValueError`` reading ``<name> must be <what>``."""
    if not _fits(value, shape):
        raise ValueError(f"{name} must be {what}")
    return value


def _decoded(path, raw: bytes, build, line: int | None = None):
    """``build`` of the JSON object in the UTF-8 bytes ``raw``, all of the
    file ``path`` or its line ``line``. Bytes that are not UTF-8, JSON that
    is malformed, nested too deeply or not an object, and a ``ValueError``
    from ``build`` raise :class:`DataError`."""
    try:
        value = json.loads(raw.decode("utf-8"))
        return build(check(value, dict, "an object", "top level" if line is None else "record"))
    except json.JSONDecodeError as exc:  # ``exc.lineno`` is 1 on a JSON Lines line
        raise DataError(path, f"malformed JSON: {exc.msg}", line or exc.lineno) from exc
    except RecursionError as exc:
        raise DataError(path, "JSON nested too deeply", line) from exc
    except ValueError as exc:  # not UTF-8 (a UnicodeDecodeError), or rejected by ``build``
        raise DataError(path, str(exc), line) from exc


def read_bytes(path) -> bytes:
    """The bytes of the input file ``path``: the one way an input is read.
    A path naming no regular file (missing, empty, too long, a directory,
    a device or pipe: tested before opening, so a pipe is not blocked on)
    and an ``OSError`` opening or reading the file, such as a permission
    denied, raise :class:`DataError`."""
    if not os.path.isfile(path):
        raise DataError(path or '""', "file not found")
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise DataError(path, exc.strerror or str(exc)) from exc


def read_json(path, build, raw: bytes | None = None):
    """``build(value)`` of the JSON object in the file ``path``, whose
    bytes are ``raw`` when the caller has read them already."""
    return _decoded(path, read_bytes(path) if raw is None else raw, build)


def read_jsonl(path, build, raw: bytes | None = None) -> list:
    """``build(record)`` of the JSON object on each non-blank line of the
    JSON Lines file ``path`` (its bytes ``raw`` when read already), in file
    order. Lines end at each newline byte, as a binary file iterates."""
    lines = BytesIO(read_bytes(path) if raw is None else raw)
    return [_decoded(path, line, build, number)
            for number, line in enumerate(lines, 1) if line.strip()]


def json_text(value, sort_keys: bool = False, indent: str = "\n") -> str:
    """``json.dumps(value, indent=1, sort_keys=sort_keys)`` of a JSON value
    whose objects have string keys; ``indent`` is the line break and margin
    of the level ``value`` sits at. With an indent, ``json`` encodes
    through closures that form reference cycles, left for the cyclic
    collector to free; this leaves none."""
    inner = indent + " "
    if isinstance(value, dict) and value:
        items = sorted(value.items()) if sort_keys else value.items()
        return "{" + ",".join(f"{inner}{json.dumps(key)}: {json_text(item, sort_keys, inner)}"
                              for key, item in items) + indent + "}"
    if isinstance(value, (list, tuple)) and value:
        return "[" + ",".join(inner + json_text(item, sort_keys, inner)
                              for item in value) + indent + "]"
    return json.dumps(value)


def _analysed_parse(raw: str, text: str, what: str, shared: dict) -> Sentence:
    """The :class:`Sentence` view of the bracketed parse ``raw``, whose
    leaves must be the tokens of ``text`` up to case; ``shared`` is the
    load's sharing table (see :func:`~patternqa.treebank.parse_sentence`)."""
    try:
        view = parse_sentence(raw, shared)
    except TreeFormatError as exc:
        raise ValueError(f"bad parse: {exc}") from exc
    words = tokenize(text)
    # leaves equal to the words are equal up to case without lowering them
    if words != list(view.tokens) and [w.lower() for w in words] != list(view.lowered):
        raise ValueError(f"parse leaves do not match {what}")
    return view


def load_qa_corpus(path, raw: bytes | None = None) -> list[Question]:
    """Load questions in file order (order matters for running metrics),
    each parse read into a :class:`Sentence` view. ``raw`` is the file's
    bytes, when the caller has read them already."""
    seen = set()
    shared: dict = {}

    def question(record: dict) -> Question:
        qid = check(record.get("id"), str, "a string", "id")
        if qid in seen:
            raise ValueError(f"duplicate id {qid!r}")
        seen.add(qid)
        text = check(record.get("question"), str, "a string", "question")
        parse = check(record.get("parse"), str, "a string", "parse")
        # an empty list fails the shape as a missing one does
        answers = check(record.get("answers") or None, [str], "a non-empty list of strings",
                        "answers")
        for answer in answers:
            if not normalize_answer(answer):
                raise ValueError(f"answer {answer!r} is empty once normalized")
        category = check(record.get("category"), str | None, "a string", "category")
        if category and category.partition(":")[0] not in COARSE_CLASSES:
            raise ValueError(f"unknown coarse class in category {category!r}")
        view = _analysed_parse(parse, text, "tokenized question", shared)
        return Question(id=qid, text=text, parse=view, category=category, answers=tuple(answers))

    return read_jsonl(path, question, raw)


def load_documents(path, raw: bytes | None = None) -> list[Document]:
    """Load documents in file order, each sentence's parse read into a
    :class:`Sentence` view. ``raw`` is the file's bytes, when read already."""
    seen = set()
    shared: dict = {}

    def document(record: dict) -> Document:
        doc_id = check(record.get("doc_id"), str, "a string", "doc_id")
        if doc_id in seen:
            raise ValueError(f"duplicate doc_id {doc_id!r}")
        seen.add(doc_id)
        sentences = check(record.get("sentences"), [{"text": str, "parse": str}],
                          'a list of {"text": string, "parse": string} objects', "sentences")
        return Document(doc_id=doc_id, sentences=tuple(
            (s["text"], _analysed_parse(s["parse"], s["text"], "sentence text", shared))
            for s in sentences))

    return read_jsonl(path, document, raw)
