"""Correctness checks of one benchmark run against the generator's ground
truth (never against stored output). Each check returns a list of problems;
an empty list means it passed."""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path

BM25_K1 = 1.2
BM25_B = 0.75
_PUNCT = re.compile(r"[^\w\s]")


def normalize(text: str) -> str:
    """Lowercase, strip punctuation, drop leading articles."""
    tokens = _PUNCT.sub("", text.lower()).split()
    while tokens and tokens[0] in ("a", "an", "the"):
        tokens = tokens[1:]
    return " ".join(tokens)


def read_outcomes(pass_dir: Path) -> list[dict]:
    with open(pass_dir / "outcomes.jsonl", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def rescued_ids(pass_dir: Path) -> list[str]:
    report = pass_dir / "revision_report.json"
    if not report.is_file():
        return []
    checkpoints = json.loads(report.read_text("utf-8"))["checkpoints"]
    return [qid for c in checkpoints for qid in c["newly_correct"]]


def check_outcomes(outcomes: list[dict], rescued: list[str], truth) -> list[str]:
    """Correct outcomes cite a span that spells the reference in its
    supporting sentence; wrong ones have no matching candidate; unanswerable
    questions stay wrong, revision included."""
    problems = []
    if [o["id"] for o in outcomes] != truth.order:
        return ["outcome ids differ from the generated question order"]
    for outcome in outcomes:
        qid = outcome["id"]
        expected = truth.questions[qid]
        reference = normalize(expected["answer"])
        matching = [c for c in outcome["candidates"] if normalize(c["text"]) == reference]
        if outcome["correct"]:
            if normalize(outcome["final"] or "") != reference:
                problems.append(f"{qid}: final {outcome['final']!r} is not the reference")
                continue
            cited = matching[0]
            tokens = truth.sentences.get((cited["doc_id"], cited["position"]))
            start, end = cited["span"]
            if tokens is None or normalize(" ".join(tokens[start:end])) != reference:
                problems.append(f"{qid}: cited span does not spell the answer")
            if [cited["doc_id"], cited["position"]] != expected["support"]:
                problems.append(f"{qid}: cited sentence is not the supporting sentence")
        elif matching:
            problems.append(f"{qid}: wrong outcome holds a matching candidate")
        if expected["role"] == "unanswerable" and (outcome["correct"] or qid in rescued):
            problems.append(f"{qid}: unanswerable question counted correct")
    return problems


def check_revision(outcomes: list[dict], rescued: list[str], pass_dir: Path) -> list[str]:
    """Rescued questions were wrong on their first pass, each is rescued
    once, and the report's final count is first-pass correct + rescued."""
    problems = []
    first_pass = {o["id"]: o["correct"] for o in outcomes}
    if len(set(rescued)) != len(rescued):
        problems.append("a question was rescued twice")
    problems += [f"{qid}: rescued but correct on its first pass"
                 for qid in rescued if first_pass.get(qid, True)]
    report = json.loads((pass_dir / "revision_report.json").read_text("utf-8"))
    expected = sum(first_pass.values()) + len(rescued)
    if report["final_correct"] != expected:
        problems.append(f"final_correct {report['final_correct']} != first-pass correct "
                        f"+ rescued ({expected})")
    return problems


def _content_words(tokens, stopwords) -> list[str]:
    out = []
    for token in tokens:
        low = token.lower()
        if low not in stopwords and any(c.isalnum() for c in low):
            out.append(low)
    return out


def brute_force_top_k(docs: dict[tuple[str, int], list[str]], query: list[str],
                      k: int) -> list[tuple]:
    """BM25 (k1=1.2, b=0.75) over every sentence's content words, ties broken
    by (doc_id, position): ``[(doc_id, position, score), ...]``."""
    n = len(docs)
    avg = sum(len(words) for words in docs.values()) / n
    terms = set(query)
    df = {t: sum(1 for words in docs.values() if t in words) for t in terms}
    scored = []
    for (doc_id, position), words in docs.items():
        score = 0.0
        for term in terms:
            tf = words.count(term)
            if not tf:
                continue
            idf = math.log(1.0 + (n - df[term] + 0.5) / (df[term] + 0.5))
            norm = 1.0 - BM25_B + BM25_B * len(words) / avg
            score += idf * tf * (BM25_K1 + 1.0) / (tf + BM25_K1 * norm)
        if score > 0.0:
            scored.append((doc_id, position, score))
    scored.sort(key=lambda item: (-item[2], item[0], item[1]))
    return scored[:k]


def check_retrieval(truth, corpus_path: Path, docs_path: Path, stopwords_path: Path,
                    seed: int, sample: int = 20, k: int = 20) -> list[str]:
    """``retrieval.retrieve``'s top-k for a seeded sample of questions equals
    brute-force BM25 (same ranks; scores within 1e-9 relative)."""
    from patternqa.corpus import load_documents, load_qa_corpus
    from patternqa.retrieval import build_index, content_words, retrieve

    stopwords = {line.strip() for line in stopwords_path.read_text("utf-8").splitlines()
                 if line.strip()}
    docs = {key: _content_words(tokens, stopwords) for key, tokens in truth.sentences.items()}
    index = build_index(load_documents(docs_path))
    questions = {q.id: q for q in load_qa_corpus(corpus_path)}
    problems = []
    for qid in random.Random(seed).sample(truth.order, min(sample, len(truth.order))):
        got = retrieve(index, content_words(questions[qid].parse), k)
        want = brute_force_top_k(docs, _content_words(truth.questions[qid]["tokens"], stopwords), k)
        if [(s.doc_id, s.position) for s in got] != [(d, p) for d, p, _ in want] or any(
                not math.isclose(s.score, w[2], rel_tol=1e-9) for s, w in zip(got, want)):
            problems.append(f"{qid}: retrieve top-{k} differs from brute-force BM25")
    return problems
