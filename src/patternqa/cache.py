"""The load cache: what a run loads from an input file, kept on disk under
the SHA-256 of the file's bytes, so a run over a collection loaded before
skips parsing and indexing it.

Three loads are kept, which every command that reads the file shares:
the question corpus (:func:`questions`) and the document collection with
its BM25 index (:func:`collection`), one entry each, and the top k that
:func:`~patternqa.retrieval.retrieve` found for each query over that
collection (:func:`retrieved`), one entry per depth k, so that a rerun
over the collection scores nothing. Entries live in
``$XDG_CACHE_HOME/patternqa/``, or ``~/.cache/patternqa/`` when that is
unset or not absolute, one file each, named by the input digest and the
load. An entry holds a header, the digest of this package's code and
tables with the Python version (:func:`_code_digest`) and the SHA-256 of
the payload, then the payload: a :mod:`marshal` dump of plain tuples,
lists and dicts. ``marshal`` keeps interned strings interned and an object
met twice one object, so a hit shares what a fresh load shares.

An entry that is missing, truncated, written by other code or Python, or
whose payload does not match its digest or does not decode is a miss: the
load runs as without the cache, and its result is written as the entry,
best effort (a temporary file, then :func:`os.replace`). A top-k memo
starts empty on a miss, and is written at the end of a session only when
it gained a key there, so a warm run writes nothing. A cache that cannot
be read or written changes nothing but the time a run takes; outputs never
depend on it, and deleting the directory is always safe.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import sys
from collections.abc import Callable
from functools import cache
from pathlib import Path

from .corpus import Question
from .retrieval import Index, IndexedSentence
from .treebank import Sentence

PACKAGE = Path(__file__).resolve().parent


@cache
def _code_digest() -> bytes:
    """The SHA-256 of the Python version and of the name and bytes of each
    module and shipped table of the package: what decides an entry."""
    digest = hashlib.sha256(sys.version.encode())
    for path in sorted([*PACKAGE.glob("*.py"), *(PACKAGE / "data").iterdir()]):
        content = path.read_bytes()
        digest.update(b"%s\0%d\0%s" % (path.name.encode(), len(content), content))
    return digest.digest()


def _entry(digest: str, load: str) -> Path | None:
    """The entry file of ``load`` from the input whose SHA-256 is ``digest``;
    None when no cache directory can be named."""
    home = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(home):
        home = os.path.expanduser("~/.cache")
        if not os.path.isabs(home):
            return None
    return Path(home, "patternqa", f"{digest}-{load}.marshal")


def _read(path: Path | None):
    """The payload of the entry ``path``, or None on a miss."""
    if path is None:
        return None
    try:
        with open(path, "rb") as handle:
            entry = handle.read()
    except OSError:
        return None
    payload = memoryview(entry)[64:]
    if entry[:64] != _code_digest() + hashlib.sha256(payload).digest():
        return None
    try:
        return marshal.loads(payload)
    except (EOFError, ValueError, TypeError):
        return None


def _store(path: Path | None, payload) -> None:
    """Write the entry ``path`` for ``payload()``, which is made only once the
    entry's temporary file is open. An ``OSError`` leaves no entry."""
    if path is None:
        return
    temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(temporary, "wb") as handle:
            data = marshal.dumps(payload())
            handle.write(_code_digest() + hashlib.sha256(data).digest())
            handle.write(data)
        os.replace(temporary, path)
    except OSError:
        try:
            os.remove(temporary)
        except OSError:
            pass


def _fields(view: Sentence) -> tuple:
    return view.tokens, view.lowered, view.stripped, view.constituents


def questions(digest: str, load) -> list[Question]:
    """The questions of the corpus file whose bytes have the SHA-256
    ``digest``: from its entry, or ``load()``, which is then entered."""
    path = _entry(digest, "questions")
    rows = _read(path)
    if rows is not None:
        return [Question(qid, text, Sentence(*view), category, answers)
                for qid, text, view, category, answers in rows]
    loaded = load()
    _store(path, lambda: [(q.id, q.text, _fields(q.parse), q.category, q.answers)
                          for q in loaded])
    return loaded


def collection(digest: str, load) -> Index:
    """The index of the document file whose bytes have the SHA-256
    ``digest``: from its entry, or ``load()``, which is then entered."""
    path = _entry(digest, "index")
    entry = _read(path)
    if entry is not None:
        rows, postings, bounds, ranks, avg_length = entry
        return Index([IndexedSentence(doc_id, position, text, Sentence(*view))
                      for doc_id, position, text, view in rows],
                     postings, bounds, ranks, avg_length)
    index = load()
    _store(path, lambda: ([(s.doc_id, s.position, s.text, _fields(s.view))
                           for s in index.sentences],
                          index.postings, index.bounds, index.ranks, index.avg_length))
    return index


def retrieved(digest: str, k: int) -> tuple[dict, Callable[[], None]]:
    """The memo of :func:`~patternqa.retrieval.retrieve`'s top ``k`` over
    the document file whose bytes have the SHA-256 ``digest``: the entry's,
    or an empty one. Also returns the function that, once a session has
    retrieved, enters the memo if it has gained a key since."""
    path = _entry(digest, f"top{k}")
    memo = _read(path) or {}
    known = len(memo)

    def keep() -> None:
        if len(memo) > known:
            _store(path, lambda: memo)

    return memo, keep
