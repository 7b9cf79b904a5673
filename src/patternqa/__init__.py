"""patternqa: a self-learning question-answering engine that learns
lexico-syntactic answer-extraction patterns from answered questions and
applies them to new ones via relaxed parse-tree unification."""

from .classify import Category, classify
from .corpus import Document, Question, load_documents, load_qa_corpus, normalize_answer
from .evaluation import EvalPoint, f_measure, running_metrics
from .knowledge import (KnowledgeBase, Pattern, PatternElement, Signature,
                        learn_patterns, question_signature)
from .pipeline import (Interpretation, Outcome, PipelineState, ScenarioConfig,
                       answer_question, apply_feedback, interpret, run_sequence)
from .retrieval import Index, RetrievedSentence, build_index, retrieve
from .treebank import Sentence, parse_sentence
from .unification import (CandidateAnswer, RelaxConfig, default_config,
                          lexical_similarity, tag_compatible, unify)

__all__ = [
    "Category", "classify",
    "Document", "Question", "load_documents", "load_qa_corpus", "normalize_answer",
    "EvalPoint", "f_measure", "running_metrics",
    "KnowledgeBase", "Pattern", "PatternElement", "Signature",
    "learn_patterns", "question_signature",
    "Interpretation", "Outcome", "PipelineState", "ScenarioConfig",
    "answer_question", "apply_feedback", "interpret", "run_sequence",
    "Index", "RetrievedSentence", "build_index", "retrieve",
    "Sentence", "parse_sentence",
    "CandidateAnswer", "RelaxConfig", "default_config",
    "lexical_similarity", "tag_compatible", "unify",
]
