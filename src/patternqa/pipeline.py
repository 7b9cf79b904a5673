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

from dataclasses import dataclass, field

from .classify import Category, classify, load_hint_table
from .corpus import Question, normalize_answer
from .extraction import Gazetteer, extract_ner, load_gazetteer, load_regex_rules
from .knowledge import KnowledgeBase, Signature, learn_patterns, question_signature
from .retrieval import TOP_K, Index, RetrievedSentence, content_words, retrieve
from .unification import CandidateAnswer, RelaxConfig, default_config, unify


# the paper's four scenarios: id -> (use_ner, use_patterns, reference_fallback)
SCENARIOS = {
    1: (True, False, False),
    2: (False, True, True),
    3: (True, True, False),
    4: (True, True, True),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario, named by its id; its switches are read from :data:`SCENARIOS`."""

    id: int

    def __post_init__(self):
        if self.id not in SCENARIOS:
            raise ValueError(f"scenario must be 1..4, got {self.id}")

    use_ner = property(lambda self: SCENARIOS[self.id][0])
    use_patterns = property(lambda self: SCENARIOS[self.id][1])
    reference_fallback = property(lambda self: SCENARIOS[self.id][2])


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
    """What a run or tutor session answers with; its defaults load each shipped table."""

    kb: KnowledgeBase
    index: Index
    gazetteer: Gazetteer = field(default_factory=load_gazetteer)
    hints: dict[str, Category] = field(default_factory=load_hint_table)
    regex_rules: dict = field(default_factory=load_regex_rules)
    relax: RelaxConfig = field(default_factory=default_config)
    top_k: int = TOP_K
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


def extract_candidates(state: PipelineState, record: Interpretation, use_patterns: bool,
                       use_ner: bool, exclude_own: bool = False) -> list[CandidateAnswer]:
    """The extraction step shared by batch runs, revision and the tutor:
    pattern candidates first, then NER candidates, each kept only when no
    earlier one was found at the same (doc_id, position, span). With
    ``exclude_own``, patterns whose provenance includes the question itself
    are skipped.

    This is the one place that decides when to relax. The exact pass runs
    first, over every (sentence, pattern) pair; relaxation (string-similarity
    token matching, superclass-compatible tags) applies only when exact
    unification produced nothing anywhere, which is precisely its trigger.
    Every :func:`unify` and :func:`extract_ner` call shares the run's memo.
    """
    found: list[CandidateAnswer] = []
    seen: set[tuple] = set()
    if use_patterns:
        patterns = state.kb.lookup(record.signature)
        if exclude_own:
            patterns = [p for p in patterns if record.question.id not in p.source_questions]
        relax = state.relax
        for config in (relax.exact, relax):
            for sentence in record.sentences:
                for pattern in patterns:
                    for cand in unify(pattern, sentence.view, config, sentence.doc_id,
                                      sentence.position, state.memo):
                        key = (sentence.doc_id, sentence.position, cand.span)
                        if key not in seen:
                            seen.add(key)
                            found.append(cand)
            if found or not (relax.enable_lexical or relax.enable_syntactic):
                break
    if use_ner:
        ner = extract_ner(record.category, record.sentences, state.gazetteer, state.regex_rules,
                          state.memo)
        if not found:  # nothing to deduplicate against: no per-candidate keys
            return ner
        found += [c for c in ner if (c.doc_id, c.position, c.span) not in seen]
    return found


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
    learned = state.kb.insert(record.signature,
                              learn_patterns(record.question, answer, record.sentences))
    state.kb.qa_pairs.append((record.question.id, answer))
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
