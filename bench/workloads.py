"""Seeded workload generator for the benchmark (standard library only).

Each workload is one generated collection: questions and documents in the
corpus formats that ``patternqa.corpus`` loads, plus a ground-truth record
per question (reference answer, supporting sentence or none, role). The
seed draws every word. The make-up and the layout (how many questions of
each role, their order, how many sentences of each shape and where they
sit) depend on the workload alone, so every seed asks the same work of
every layer.

Question roles:
  teacher     first question of a signature-sharing group; nothing answers
              it, so fallback feedback teaches the group's pattern
  member      a later question of the group; ``same_shape`` says whether its
              supporting sentence has its teacher's shape (then the teacher's
              pattern answers it by exact unification)
  variant     a group member asked with a verb whose stem differs from the
              sentence verb; the pattern it learns keeps that verb literal and
              carries no teacher provenance, so it can rescue the teacher at
              a revision checkpoint
  ner         answerable by the capitalized-run heuristic ("Where ...?")
  unanswerable  the answer occurs in no sentence

All answers are distinct pseudo-words, so a reference matches exactly one
span of the collection (or none). Parse trees are at most six levels deep.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# hint noun (question head), question verb, sentence verb (same stem),
# variant question verb (different stem). The hint nouns map to ENTY
# classes in the classifier's hint table, and the generated answers are
# lowercase, so the NER heuristics never find a group answer.
GROUP_FRAMES = (
    ("instrument", "play", "played", "master"),
    ("food", "cook", "cooked", "prepare"),
    ("animal", "train", "trained", "tame"),
    ("sport", "coach", "coached", "lead"),
)


@dataclass(frozen=True)
class Spec:
    """Make-up of one workload. Counts are per pass."""

    scenario: int
    revise_interval: int | None
    groups: int  # signature-sharing groups (one teacher each)
    members: int  # reusing members per group, teacher excluded
    passive_share: float  # share of grow members whose sentence has the other shape
    variants: int  # variant members per group
    ner: int  # NER-findable questions
    unanswerable: int
    unanswerable_bio: int  # sentences about each unanswerable question's subject
    distractors: int  # sentences that support no question
    first_names: int  # pool of first names shared by group and NER sentences
    search_terms: int  # pool size of the nouns and of the verbs in "Where ...?" items
    adjective_every: int  # every n-th "Where ...?" sentence gets an adjective (0: none)
    doc_size: int  # sentences per document


SPECS = {
    # Exact unification, pattern learning (provenance lists grow with every
    # member) and NER on a narrow retrieval.
    "grow": Spec(scenario=4, revise_interval=None, groups=2, members=500, passive_share=0.1,
                 variants=0, ner=100, unanswerable=60, unanswerable_bio=2, distractors=0,
                 first_names=120, search_terms=40, adjective_every=0, doc_size=20),
    # BM25 over long posting lists and NER; no KB, no learning.
    "search": Spec(scenario=1, revise_interval=None, groups=0, members=0, passive_share=0.0,
                   variants=0, ner=1000, unanswerable=100, unanswerable_bio=0, distractors=9000,
                   first_names=60, search_terms=12, adjective_every=3, doc_size=25),
    # Revision checkpoints retrying a growing list of unanswerable questions,
    # nearly all of them through the relaxed pass.
    "revise": Spec(scenario=2, revise_interval=15, groups=4, members=215, passive_share=0.0,
                   variants=4, ner=0, unanswerable=160, unanswerable_bio=2, distractors=0,
                   first_names=120, search_terms=40, adjective_every=0, doc_size=20),
}


@dataclass
class Truth:
    """Ground truth of one generated collection."""

    questions: dict[str, dict] = field(default_factory=dict)  # id -> record
    sentences: dict[tuple[str, int], list[str]] = field(default_factory=dict)  # tokens
    order: list[str] = field(default_factory=list)

    @property
    def same_shape_members(self) -> int:
        return sum(1 for q in self.questions.values()
                   if q["role"] == "member" and q["same_shape"])


_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "dr", "gr", "kr", "tr", "st", "sk", "pl", "vl")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")
_CODAS = ("", "", "n", "r", "l", "s", "k", "m", "th")


class _Words:
    """Distinct pseudo-words; every call returns a word never returned before."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def __call__(self, syllables: int = 3) -> str:
        while True:
            word = "".join(self.rng.choice(_ONSETS) + self.rng.choice(_VOWELS)
                           for _ in range(syllables)) + self.rng.choice(_CODAS)
            if word not in self.used:
                self.used.add(word)
                return word


def _np(*tagged: tuple[str, str]) -> str:
    return "(NP " + " ".join(f"({tag} {tok})" for tag, tok in tagged) + ")"


def _name(first: str, last: str) -> str:
    return _np(("NNP", first), ("NNP", last))


def _group_question(hint, verb, first, last):
    text = f"What {hint} did {first} {last} {verb}?"
    parse = (f"(SBARQ (WHNP (WDT What) (NN {hint})) (SQ (VBD did) {_name(first, last)} "
             f"(VP (VB {verb}))) (. ?))")
    return text, parse


def _active_sentence(first, last, verb, obj):
    text = f"{first} {last} {verb} the {obj}."
    parse = f"(S {_name(first, last)} (VP (VBD {verb}) {_np(('DT', 'the'), ('NN', obj))}) (. .))"
    return text, parse


def _passive_sentence(first, last, verb, obj):
    text = f"The {obj} was {verb} by {first} {last}."
    parse = (f"(S {_np(('DT', 'The'), ('NN', obj))} (VP (VBD was) (VP (VBN {verb}) "
             f"(PP (IN by) {_name(first, last)}))) (. .))")
    return text, parse


def _where_question(noun, verb, first, last):
    text = f"Where was the {noun} {verb} by {first} {last}?"
    parse = (f"(SBARQ (WHADVP (WRB Where)) (SQ (VBD was) {_np(('DT', 'the'), ('NN', noun))} "
             f"(VP (VBN {verb}) (PP (IN by) {_name(first, last)}))) (. ?))")
    return text, parse


def _where_sentence(first, last, verb, noun, place, adjective=None):
    obj = [("DT", "the")] + ([("JJ", adjective)] if adjective else []) + [("NN", noun)]
    text = f"{first} {last} {verb} {' '.join(tok for _, tok in obj)} in {place}."
    parse = (f"(S {_name(first, last)} (VP (VBD {verb}) {_np(*obj)} "
             f"(PP (IN in) {_np(('NNP', place))})) (. .))")
    return text, parse


def _bio_sentence(first, last, place, kind):
    if kind % 2 == 0:
        text = f"{first} {last} was born in {place}."
        parse = (f"(S {_name(first, last)} (VP (VBD was) (VP (VBN born) "
                 f"(PP (IN in) {_np(('NNP', place))}))) (. .))")
    else:
        text = f"{first} {last} moved to {place}."
        parse = f"(S {_name(first, last)} (VP (VBD moved) (PP (IN to) {_np(('NNP', place))})) (. .))"
    return text, parse


def _tokens(text: str) -> list[str]:
    """The corpus tokenizer's rule: whitespace split, trailing punctuation
    split off into tokens of its own."""
    out = []
    for chunk in text.split():
        word = chunk.rstrip(".,?!;:")
        if word:
            out.append(word)
        out.extend(chunk[len(word):])
    return out


def _interleave(rng: random.Random, streams: list[list]) -> list:
    """Random merge that keeps each stream's own order (so a group's
    teacher stays ahead of its members)."""
    streams = [list(reversed(s)) for s in streams if s]
    out = []
    while streams:
        weights = [len(s) for s in streams]
        pick = rng.choices(range(len(streams)), weights=weights)[0]
        out.append(streams[pick].pop())
        if not streams[pick]:
            streams.pop(pick)
    return out


def generate(workload: str, seed: int, out_dir: Path) -> tuple[Spec, Truth]:
    """Write questions.jsonl and docs.jsonl for one workload into
    ``out_dir`` and return the spec and the ground truth.

    The seed draws the words. The layout (question order, which members
    have the other sentence shape, where each sentence sits) and how often
    each pooled word is used come from the workload name alone, so every
    seed asks the same amount of work of every layer."""
    spec = SPECS[workload]
    layout = random.Random(workload)
    word = _Words(random.Random(f"{workload}:{seed}"))
    cap = lambda: word().capitalize()  # noqa: E731

    firsts = [cap() for _ in range(spec.first_names)]
    nouns = [word(2) for _ in range(spec.search_terms)]
    verbs = [word(2) + "ed" for _ in range(spec.search_terms)]
    adjectives = [word(2) for _ in range(spec.search_terms)] if spec.adjective_every else []
    drawn = iter(range(10**9))

    def pooled() -> tuple[str, str, str]:
        """First name, noun and verb, each pool used round-robin."""
        i = next(drawn)
        return (firsts[i % len(firsts)], nouns[i % len(nouns)],
                verbs[(i // len(nouns)) % len(verbs)])

    sentences: list[tuple[str, str]] = []  # (text, parse)
    items: list[dict] = []  # question records before interleaving
    streams: list[list[int]] = []

    def add_sentence(pair) -> int:
        sentences.append(pair)
        return len(sentences) - 1

    def where_sentence(first, last, verb, noun, place):
        """Some get an adjective, so sentence lengths differ and BM25's
        length normalization matters. (On a learning workload, each literal
        adjective would make a pattern of its own.)"""
        n = len(sentences)
        adjective = None
        if spec.adjective_every and n % spec.adjective_every == 0:
            adjective = adjectives[n % len(adjectives)]
        return _where_sentence(first, last, verb, noun, place, adjective)

    for g in range(spec.groups):
        hint, qverb, sverb, vverb = GROUP_FRAMES[g % len(GROUP_FRAMES)]
        n = 1 + spec.members + spec.variants
        passive = set(layout.sample(range(1, 1 + spec.members),
                                    round(spec.passive_share * spec.members)))
        variant_at = set(layout.sample(range(1, n), spec.variants))
        stream = []
        member = 0
        for k in range(n):
            first, last, answer = pooled()[0], cap(), word()
            if k == 0:
                role, asked, shape = "teacher", qverb, "active"
            elif k in variant_at:
                role, asked, shape = "variant", vverb, "active"
            else:
                member += 1
                role, asked = "member", qverb
                shape = "passive" if member in passive else "active"
            make = _active_sentence if shape == "active" else _passive_sentence
            sid = add_sentence(make(first, last, sverb, answer))
            text, parse = _group_question(hint, asked, first, last)
            items.append({"text": text, "parse": parse, "answer": answer, "role": role,
                          "same_shape": role == "member" and shape == "active", "support": sid})
            stream.append(len(items) - 1)
        streams.append(stream)

    ner_stream = []
    for _ in range(spec.ner):
        first, noun, verb = pooled()
        last, place = cap(), cap()
        sid = add_sentence(where_sentence(first, last, verb, noun, place))
        text, parse = _where_question(noun, verb, first, last)
        items.append({"text": text, "parse": parse, "answer": place, "role": "ner",
                      "same_shape": False, "support": sid})
        ner_stream.append(len(items) - 1)
    streams.append(ner_stream)

    none_stream = []
    for u in range(spec.unanswerable):
        # a subject of its own, so its sentences match no group pattern exactly
        first, last = cap(), cap()
        for b in range(spec.unanswerable_bio):
            add_sentence(_bio_sentence(first, last, cap(), b))
        if spec.groups:
            hint, qverb, _, _ = GROUP_FRAMES[u % min(spec.groups, len(GROUP_FRAMES))]
            text, parse = _group_question(hint, qverb, first, last)
            answer = word()
        else:
            _, noun, verb = pooled()
            text, parse = _where_question(noun, verb, first, last)
            answer = cap()
        items.append({"text": text, "parse": parse, "answer": answer, "role": "unanswerable",
                      "same_shape": False, "support": None})
        none_stream.append(len(items) - 1)
    streams.append(none_stream)

    for _ in range(spec.distractors):
        first, noun, verb = pooled()
        add_sentence(where_sentence(first, cap(), verb, noun, cap()))

    # scatter the sentences over documents
    placement = list(range(len(sentences)))
    layout.shuffle(placement)
    location: dict[int, tuple[str, int]] = {}
    docs = []
    for d in range(0, len(placement), spec.doc_size):
        doc_id = f"d{d // spec.doc_size:05d}"
        chunk = placement[d:d + spec.doc_size]
        for pos, sid in enumerate(chunk):
            location[sid] = (doc_id, pos)
        docs.append({"doc_id": doc_id,
                     "sentences": [{"text": sentences[s][0], "parse": sentences[s][1]}
                                   for s in chunk]})

    truth = Truth()
    for sid, (doc_id, pos) in location.items():
        truth.sentences[(doc_id, pos)] = _tokens(sentences[sid][0])
    records = []
    for n, i in enumerate(_interleave(layout, streams), 1):
        item = items[i]
        qid = f"q{n:05d}"
        support = item["support"]
        truth.order.append(qid)
        truth.questions[qid] = {
            "answer": item["answer"],
            "role": item["role"],
            "same_shape": item["same_shape"],
            "support": list(location[support]) if support is not None else None,
            "tokens": _tokens(item["text"]),
        }
        records.append({"id": qid, "question": item["text"], "parse": item["parse"],
                        "answers": [item["answer"]]})

    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "questions.jsonl", "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    with open(out_dir / "docs.jsonl", "w", encoding="utf-8") as handle:
        for doc in docs:
            handle.write(json.dumps(doc, sort_keys=True) + "\n")
    (out_dir / "truth.json").write_text(json.dumps(
        {qid: truth.questions[qid] for qid in truth.order}, indent=0, sort_keys=True) + "\n",
        "utf-8")
    return spec, truth
