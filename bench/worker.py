"""One pass of one workload: ``patternqa run`` called in-process, in a fresh
single-threaded interpreter, timed from outside the package.

Usage: python3 worker.py '<json config>'

The config names the source tree, the CLI arguments, the pass directory
and whether to trace. The pass writes ``result.json`` (and, when traced,
``spans.jsonl``) into its directory and prints nothing else of use.

Untraced, only ``pipeline.answer_question`` is wrapped, to time each
question. Traced, every layer is wrapped at the call sites that
``patternqa.cli`` and ``patternqa.pipeline`` use, and each call becomes a
span (name, start, end, parent) kept in memory and written after the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter_ns as now, thread_time_ns


class Tracer:
    """Spans in call order: ``[name, start_ns, end_ns, parent_index, info]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, module, attr: str, name, info=None):
        """Replace ``module.attr`` by a traced wrapper. ``name`` is a string
        or a function of the call's arguments; ``info`` maps
        ``(args, result)`` to a value stored with the span."""
        inner = getattr(module, attr)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name if isinstance(name, str) else name(args, kwargs), 0, 0,
                    stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = now()
            try:
                result = inner(*args, **kwargs)
            finally:
                span[2] = now()
                stack.pop()
            if info is not None:
                span[4] = info(args, result)
            return result

        setattr(module, attr, traced)

    def self_times(self) -> list[int]:
        """Each span's duration minus the durations of its child spans."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, info in self.spans:
                handle.write(json.dumps([name, start, end, parent, info]) + "\n")


def _unify_name(args, kwargs) -> str:
    config = args[2] if len(args) > 2 else kwargs["config"]
    relaxing = config.enable_lexical or config.enable_syntactic
    return "unification.relaxed" if relaxing else "unification.exact"


def _install_tracer(tracer: Tracer, cli, pipeline, captured: dict) -> None:
    def keep_state(args, result):
        captured["state"] = args[0]
        return None

    tracer.wrap(cli, "load_qa_corpus", "corpus.load")
    tracer.wrap(cli, "load_documents", "corpus.load",
                lambda a, r: sum(len(d.sentences) for d in r))
    tracer.wrap(cli, "build_index", "retrieval.build_index")
    tracer.wrap(cli, "run_sequence", "pipeline.run_sequence", keep_state)
    tracer.wrap(pipeline, "answer_question", "pipeline.answer")
    tracer.wrap(pipeline, "classify", "classify.classify")
    tracer.wrap(pipeline, "retrieve", "retrieval.retrieve", lambda a, r: len(r))
    tracer.wrap(pipeline, "question_signature", "knowledge.signature")
    tracer.wrap(pipeline, "unify", _unify_name, lambda a, r: bool(r))
    tracer.wrap(pipeline, "extract_ner", "extraction.ner", lambda a, r: len(r))
    tracer.wrap(pipeline, "apply_feedback", "knowledge.learn", lambda a, r: r)
    tracer.wrap(pipeline, "revise", "pipeline.revise",
                lambda a, r: [len(r.retried), len(r.newly_correct)])


def _layer_metrics(tracer: Tracer, state, command_end: int) -> dict[str, float]:
    """Per-layer figures of one traced pass. Times are self times in ms."""
    own = tracer.self_times()
    ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    info: dict[str, list] = {}
    end_of = {}
    for (name, _, end, _, extra), self_ns in zip(tracer.spans, own):
        ms[name] = ms.get(name, 0.0) + self_ns / 1e6
        calls[name] = calls.get(name, 0) + 1
        info.setdefault(name, []).append(extra)
        end_of[name] = end
    revise_total = sum(end - start for name, start, end, _, _ in tracer.spans
                       if name == "pipeline.revise") / 1e6

    def ratio(part, whole):
        return part / whole if whole else 0.0

    exact_hits = sum(1 for x in info.get("unification.exact", []) if x)
    relaxed_hits = sum(1 for x in info.get("unification.relaxed", []) if x)
    retried = sum(x[0] for x in info.get("pipeline.revise", []))
    rescued = sum(x[1] for x in info.get("pipeline.revise", []))
    patterns = [p for sig in state.kb.signatures() for p in state.kb.lookup(sig)]
    return {
        "corpus.load_ms": ms.get("corpus.load", 0.0),
        "corpus.sentences": sum(x for x in info.get("corpus.load", []) if x),
        "retrieval.build_index_ms": ms.get("retrieval.build_index", 0.0),
        "retrieval.retrieve_ms": ms.get("retrieval.retrieve", 0.0),
        "retrieval.retrieve_calls": calls.get("retrieval.retrieve", 0),
        "retrieval.sentences_returned": sum(info.get("retrieval.retrieve", [])),
        "classify.classify_ms": ms.get("classify.classify", 0.0),
        "classify.calls": calls.get("classify.classify", 0),
        "knowledge.signature_ms": ms.get("knowledge.signature", 0.0),
        "knowledge.signature_calls": calls.get("knowledge.signature", 0),
        "knowledge.learn_ms": ms.get("knowledge.learn", 0.0),
        "knowledge.learn_calls": calls.get("knowledge.learn", 0),
        "knowledge.patterns_learned": sum(info.get("knowledge.learn", [])),
        "knowledge.kb_patterns": len(patterns),
        "knowledge.kb_provenances": sum(len(p.provenances) for p in patterns),
        "unification.exact_ms": ms.get("unification.exact", 0.0),
        "unification.exact_calls": calls.get("unification.exact", 0),
        "unification.exact_yield": ratio(exact_hits, calls.get("unification.exact", 0)),
        "unification.relaxed_ms": ms.get("unification.relaxed", 0.0),
        "unification.relaxed_calls": calls.get("unification.relaxed", 0),
        "unification.relaxed_yield": ratio(relaxed_hits, calls.get("unification.relaxed", 0)),
        "extraction.ner_ms": ms.get("extraction.ner", 0.0),
        "extraction.ner_calls": calls.get("extraction.ner", 0),
        "extraction.ner_candidates": sum(info.get("extraction.ner", [])),
        "pipeline.answer_self_ms": ms.get("pipeline.answer", 0.0),
        "pipeline.revise_ms": ms.get("pipeline.revise", 0.0),
        "pipeline.revise_total_ms": revise_total,
        "pipeline.revise_retried": retried,
        "pipeline.revise_rescued": rescued,
        "pipeline.revise_yield": ratio(rescued, retried),
        "cli.write_ms": (command_end - end_of["pipeline.run_sequence"]) / 1e6,
    }


def main() -> int:
    start = now()  # the run command starts here, before the package is imported
    config = json.loads(sys.argv[1])
    pass_dir = Path(config["pass_dir"])
    sys.path.insert(0, config["src"])
    from patternqa import cli, pipeline

    loaded_from = Path(cli.__file__).resolve().parent.parent
    if loaded_from != Path(config["src"]).resolve():
        raise SystemExit(f"patternqa imported from {loaded_from}, not {config['src']}")

    tracer = Tracer() if config["trace"] else None
    captured: dict = {}
    if tracer:
        _install_tracer(tracer, cli, pipeline, captured)

    # wall and thread CPU time of each question; the first start ends set-up
    answer = pipeline.answer_question
    durations: list[int] = []
    cpu_durations: list[int] = []
    first_start = [0]

    def timed_answer(*args, **kwargs):
        began, cpu_began = now(), thread_time_ns()
        if not first_start[0]:
            first_start[0] = began
        result = answer(*args, **kwargs)
        cpu_durations.append(thread_time_ns() - cpu_began)
        durations.append(now() - began)
        return result

    pipeline.answer_question = timed_answer
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(config["argv"])
    end = now()
    if code != 0:
        raise SystemExit(f"patternqa run exited with {code}")

    result = {
        "setup_s": (first_start[0] - start) / 1e9,
        "questions": len(durations),
        "questions_wall_s": (end - first_start[0]) / 1e9,
        "question_ns": durations,
        "question_cpu_ns": cpu_durations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["layers"] = _layer_metrics(tracer, captured["state"], end)
        tracer.write(pass_dir / "spans.jsonl")
    (pass_dir / "result.json").write_text(json.dumps(result), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
