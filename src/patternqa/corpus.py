"""Q/A corpus and pre-parsed document collection: loading, validation,
answer normalization.

File formats (JSON Lines, UTF-8):
  questions: {"id", "question", "parse", "category"?, "answers": [...]}
    (``answers`` lists acceptable reference strings, each non-empty once
    normalized)
  documents: {"doc_id", "sentences": [{"text", "parse"}, ...]}

Every parse, a question's or a document sentence's, is read once, straight
into a :class:`~patternqa.treebank.Sentence` view; no tree is built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .treebank import PUNCTUATION, Sentence, TreeFormatError, parse_sentence


# the Li & Roth coarse question classes; a gold category is "coarse:fine"
COARSE_CLASSES = frozenset({"ABBR", "DESC", "ENTY", "HUM", "LOC", "NUM"})


class CorpusError(ValueError):
    """Invalid corpus content; ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
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


def tokenize(text: str) -> list[str]:
    """Whitespace split with terminal punctuation separated into its own
    tokens ("Comedy?" -> ["Comedy", "?"]). Fixtures are authored to agree
    with parse leaves under this rule."""
    out = []
    for chunk in text.split():
        word = chunk.rstrip(".,?!;:")
        if word:
            out.append(word)
        out.extend(chunk[len(word):])
    return out


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


def _require_fields(record: dict, lineno: int, **kinds) -> None:
    for key, kind in kinds.items():
        if key not in record:
            raise CorpusError(f"missing field {key!r}", lineno)
        if not isinstance(record[key], kind):
            raise CorpusError(f"{key} must be a {'string' if kind is str else 'list'}", lineno)


def _analysed_parse(raw, text: str, lineno: int, what: str) -> Sentence:
    """The :class:`Sentence` view of the bracketed parse ``raw``, whose
    leaves must be the tokens of ``text`` up to case."""
    try:
        view = parse_sentence(raw)
    except TreeFormatError as exc:
        raise CorpusError(f"bad parse: {exc}", lineno) from exc
    if list(view.lowered) != [t.lower() for t in tokenize(text)]:
        raise CorpusError(f"parse leaves do not match {what}", lineno)
    return view


def read_jsonl(path):
    """``(line number, record)`` for each non-blank line of a JSON Lines
    file; raises :class:`CorpusError` on a line that is not a JSON object,
    or that nests too deeply to decode."""
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"malformed JSON: {exc.msg}", lineno) from exc
            except RecursionError as exc:
                raise CorpusError("JSON nested too deeply", lineno) from exc
            if not isinstance(record, dict):
                raise CorpusError("record must be a JSON object", lineno)
            yield lineno, record


def load_qa_corpus(path) -> list[Question]:
    """Load questions in file order (order matters for running metrics),
    each parse read into a :class:`Sentence` view."""
    questions = []
    seen = set()
    for lineno, record in read_jsonl(path):
        _require_fields(record, lineno, id=str, question=str, parse=str, answers=list)
        qid, text = record["id"], record["question"]
        if qid in seen:
            raise CorpusError(f"duplicate id {qid!r}", lineno)
        seen.add(qid)
        answers = record["answers"]
        if not answers:
            raise CorpusError("answers must be a non-empty list", lineno)
        for answer in answers:
            if not isinstance(answer, str):
                raise CorpusError(f"answers must be strings, got {json.dumps(answer)}", lineno)
            if not normalize_answer(answer):
                raise CorpusError(f"answer {answer!r} is empty once normalized", lineno)
        view = _analysed_parse(record["parse"], text, lineno, "tokenized question")
        category = record.get("category")
        if category is not None and not isinstance(category, str):
            raise CorpusError("category must be a string", lineno)
        if category and category.partition(":")[0] not in COARSE_CLASSES:
            raise CorpusError(f"unknown coarse class in category {category!r}", lineno)
        questions.append(
            Question(
                id=qid,
                text=text,
                parse=view,
                category=category,
                answers=tuple(answers),
            )
        )
    return questions


def load_documents(path) -> list[Document]:
    """Load documents in file order, each sentence's parse read into a
    :class:`Sentence` view."""
    docs = []
    seen = set()
    for lineno, record in read_jsonl(path):
        _require_fields(record, lineno, doc_id=str, sentences=list)
        doc_id = record["doc_id"]
        if doc_id in seen:
            raise CorpusError(f"duplicate doc_id {doc_id!r}", lineno)
        seen.add(doc_id)
        sentences = []
        for sent in record["sentences"]:
            if not isinstance(sent, dict):
                raise CorpusError("sentence must be a JSON object", lineno)
            _require_fields(sent, lineno, text=str, parse=str)
            text = sent["text"]
            sentences.append((text, _analysed_parse(sent["parse"], text, lineno,
                                                    "sentence text")))
        docs.append(Document(doc_id=doc_id, sentences=tuple(sentences)))
    return docs
