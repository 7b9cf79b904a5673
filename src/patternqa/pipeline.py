"""Question-answering pipeline: interpret, retrieve, extract, learn, revise.

Questions are processed strictly sequentially; the knowledge base grows
only between questions (and at revision checkpoints), so extraction for
any one question sees a frozen snapshot. Each question is interpreted
once, into an :class:`Interpretation` (category, signature, retrieved
sentences) that extraction, learning and revision share, which keeps runs
deterministic and makes the provenance-exclusion rule testable. A run
yields outcomes and checkpoint reports and scores neither:
:func:`~patternqa.evaluation.running_metrics` does.

Extraction results are computed once per run. :attr:`PipelineState.memo`
holds the result of each unification, keyed by the pattern's elements, the
sentence's ``(doc_id, position)`` and the pass's two relaxation switches,
and each sentence's NER candidates, keyed by the fine category label and the
sentence's ``(doc_id, position)``. Both are tuples of candidates, which are
themselves immutable tuples, shared by every question, retry and tutor turn
that meets the pair again.
The memo lives as long as the state, whose index, gazetteer, rules and
relax config are set once. No entry depends on which patterns the
knowledge base holds, so no insertion, or later pruning, makes one stale.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from .classify import Category, classify, load_hint_table
from .corpus import Question, normalize_answer
from .extraction import Gazetteer, extract_ner, load_regex_rules
from .knowledge import KnowledgeBase, Pattern, Signature, learn_patterns, question_signature
from .retrieval import Index, RetrievedSentence, content_words, retrieve
from .unification import CandidateAnswer, RelaxConfig, default_config, unify


@dataclass(frozen=True)
class ScenarioConfig:
    id: int
    use_ner: bool
    use_patterns: bool
    reference_fallback: bool

    _TABLE = {
        1: (True, False, False),
        2: (False, True, True),
        3: (True, True, False),
        4: (True, True, True),
    }

    def __post_init__(self):
        if self._TABLE.get(self.id) != (self.use_ner, self.use_patterns, self.reference_fallback):
            raise ValueError(f"flags do not match scenario {self.id}")

    @classmethod
    def from_id(cls, scenario_id: int) -> "ScenarioConfig":
        if scenario_id not in cls._TABLE:
            raise ValueError(f"scenario must be 1..4, got {scenario_id}")
        ner, patterns, fallback = cls._TABLE[scenario_id]
        return cls(scenario_id, ner, patterns, fallback)


@dataclass
class Outcome:
    """One question's result. ``final`` is the candidate oracle selection
    chose, or None; the question is correct iff there is one. The chosen
    answer's text, strategy and relaxation are read from it."""

    question_id: str
    category: str
    candidates: list[CandidateAnswer] = field(default_factory=list)
    final: CandidateAnswer | None = None
    fallback_used: bool = False
    patterns_learned: int = 0
    error: str | None = None

    @property
    def correct(self) -> bool:
        return self.final is not None

    @property
    def answered(self) -> bool:
        return bool(self.candidates)


@dataclass
class PipelineState:
    kb: KnowledgeBase
    index: Index
    gazetteer: Gazetteer
    hints: dict[str, Category] = field(default_factory=load_hint_table)
    regex_rules: dict = field(default_factory=load_regex_rules)
    relax: RelaxConfig = field(default_factory=default_config)
    top_k: int = 20
    interpretations: dict[str, "Interpretation"] = field(default_factory=dict)
    # question id -> patterns under its signature at its last failed retry
    retry_counts: dict[str, int] = field(default_factory=dict)
    # unify and extract_ner results of this run, keyed as the module says
    memo: dict[tuple, tuple[CandidateAnswer, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class Interpretation:
    """A question as interpreted once: its category, signature and retrieved sentences."""

    question: Question
    category: Category
    signature: Signature
    sentences: tuple[RetrievedSentence, ...]


def interpret(state: PipelineState, question: Question) -> Interpretation:
    """Classify, sign and retrieve: the question's share of the answer path."""
    category = classify(question, state.hints)
    sentences = retrieve(state.index, content_words(question.parse), state.top_k)
    return Interpretation(question, category, question_signature(question, category),
                          tuple(sentences))


def pattern_candidates(patterns: list[Pattern], sentences: Sequence[RetrievedSentence],
                       config: RelaxConfig, memo: dict | None = None) -> list[CandidateAnswer]:
    """Union of pattern extractions over the sentences, deduplicated on
    (doc_id, position, span).

    This is the one place that decides when to relax. The exact pass runs
    first, over every (sentence, pattern) pair; relaxation (string-similarity
    token matching, superclass-compatible tags) applies only when exact
    unification produced nothing anywhere, which is precisely its trigger.
    ``memo`` is handed to every :func:`unify` call.
    """

    def collect(cfg: RelaxConfig) -> list[CandidateAnswer]:
        found = []
        seen = set()
        for sentence in sentences:
            for pattern in patterns:
                for cand in unify(pattern, sentence.view, cfg, sentence.doc_id, sentence.position,
                                  memo):
                    key = (sentence.doc_id, sentence.position, cand.span)
                    if key in seen:
                        continue
                    seen.add(key)
                    found.append(cand)
        return found

    exact = collect(config.exact)
    if exact or not (config.enable_lexical or config.enable_syntactic):
        return exact
    return collect(config)


def extract_candidates(state: PipelineState, record: Interpretation, use_patterns: bool,
                       use_ner: bool, exclude_own: bool = False) -> list[CandidateAnswer]:
    """The extraction step shared by batch runs, revision and the tutor:
    pattern candidates first, then the NER candidates not already found at
    the same (doc_id, position, span). With ``exclude_own``, patterns whose
    provenance includes the question itself are skipped."""
    candidates: list[CandidateAnswer] = []
    if use_patterns:
        applicable = state.kb.lookup(record.signature)
        if exclude_own:
            applicable = [p for p in applicable if record.question.id not in p.source_questions]
        candidates = pattern_candidates(applicable, record.sentences, state.relax, state.memo)
    if use_ner:
        ner = extract_ner(record.category, record.sentences, state.gazetteer, state.regex_rules,
                          state.memo)
        if candidates:
            seen = {(c.doc_id, c.position, c.span) for c in candidates}
            ner = [c for c in ner if (c.doc_id, c.position, c.span) not in seen]
        candidates += ner
    return candidates


def oracle_select(candidates: list[CandidateAnswer], references) -> CandidateAnswer | None:
    """Flawless final-answer selection: the first candidate matching any
    reference answer, or nothing."""
    normalized = {normalize_answer(r) for r in references}
    for cand in candidates:
        if normalize_answer(cand.text) in normalized:
            return cand
    return None


def apply_feedback(state: PipelineState, record: Interpretation, answer: str) -> int:
    """Positive-feedback learning: derive patterns from the question's
    retrieved sentences, insert them, record the Q/A pair. Returns the
    number of learned patterns that told the KB anything new (see
    :meth:`KnowledgeBase.insert`); repeating identical feedback yields 0.
    """
    learned = state.kb.insert(learn_patterns(record.question, answer, record.sentences,
                                             record.signature))
    state.kb.record_qa(record.question.id, answer)
    return learned


def answer_question(state: PipelineState, question: Question,
                    scenario: ScenarioConfig) -> Outcome:
    """Classify, retrieve, extract, oracle-select, then learn. Errors never
    abort the sequence; they yield an unanswered outcome."""
    try:
        record = interpret(state, question)
        state.interpretations[question.id] = record
        state.retry_counts.pop(question.id, None)  # an id asked again may teach again
        candidates = extract_candidates(state, record, scenario.use_patterns, scenario.use_ner)
        outcome = Outcome(question.id, str(record.category), candidates,
                          oracle_select(candidates, question.answers))
        if outcome.correct and scenario.use_patterns:
            outcome.patterns_learned = apply_feedback(state, record, outcome.final.text)
        elif not outcome.correct and scenario.reference_fallback:
            outcome.patterns_learned = apply_feedback(state, record, question.answers[0])
            outcome.fallback_used = True
        return outcome
    except Exception as exc:  # noqa: BLE001 - per-question fault isolation
        return Outcome(question.id, "", error=f"{type(exc).__name__}: {exc}")


@dataclass
class CheckpointReport:
    checkpoint: int
    retried: list[str]
    newly_correct: list[str]
    patterns_learned: int = 0


@dataclass
class RunResult:
    outcomes: list[Outcome]
    revision: list[CheckpointReport]


def revise(state: PipelineState, pending: list[str], checkpoint: int,
           learn_on_revision: bool = True) -> CheckpointReport:
    """Retry previously wrong or unsolved questions against the current KB,
    excluding every pattern whose provenance includes the question itself
    (a question must not be rescued by what it taught). A question whose
    interpretation raised has no record and cannot be rescued.

    A retry is skipped while the question's signature holds as many patterns
    as at its last failed retry, as it would fail again (semi-naive
    evaluation). Patterns are only ever added, and the question's own id
    joins a provenance only through its own feedback, never while it is
    pending. The report still lists every pending id as retried."""
    report = CheckpointReport(checkpoint=checkpoint, retried=list(pending), newly_correct=[])
    for qid in pending:
        record = state.interpretations.get(qid)
        if record is None:
            continue
        known = state.kb.count(record.signature)
        if state.retry_counts.get(qid) == known:
            continue
        candidates = extract_candidates(state, record, use_patterns=True, use_ner=False,
                                        exclude_own=True)
        final = oracle_select(candidates, record.question.answers)
        if final is None:
            state.retry_counts[qid] = known
            continue
        report.newly_correct.append(qid)
        if learn_on_revision:
            report.patterns_learned += apply_feedback(state, record, final.text)
    return report


def run_sequence(state: PipelineState, questions: list[Question], scenario: ScenarioConfig,
                 revise_interval: int | None = None,
                 learn_on_revision: bool = True) -> RunResult:
    """Process the corpus in order, emitting one outcome per question. With a
    revision interval n, the questions not yet correct are retried at every
    multiple of n strictly below the corpus size; the checkpoint reports are
    returned with the outcomes, and
    :func:`~patternqa.evaluation.running_metrics` scores the two together."""
    if revise_interval is not None and revise_interval < 1:
        raise ValueError("revise_interval must be >= 1")
    outcomes: list[Outcome] = []
    reports: list[CheckpointReport] = []
    correct_ids: set[str] = set()
    for i, question in enumerate(questions, 1):
        outcome = answer_question(state, question, scenario)
        outcomes.append(outcome)
        if outcome.correct:
            correct_ids.add(question.id)
        if revise_interval and i % revise_interval == 0 and i < len(questions):
            pending = [q.id for q in questions[:i] if q.id not in correct_ids]
            report = revise(state, pending, i, learn_on_revision)
            reports.append(report)
            correct_ids.update(report.newly_correct)
    return RunResult(outcomes, reports)
