"""Command-line interface: corpus validation, experiment runs, revision
runs, KB inspection, and an interactive tutor loop.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import sys
import time
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path

from .corpus import (DataError, Question, check, load_documents, load_qa_corpus,
                     normalize_answer, read_json, read_jsonl)
from .evaluation import export_series, running_metrics
from .extraction import load_gazetteer
from .knowledge import MAX_PATTERN_ELEMENTS, SIGNATURE_DEPTH, KnowledgeBase, load_kb, save_kb
from .pipeline import (PipelineState, ScenarioConfig, apply_feedback, extract_candidates,
                       interpret, run_sequence)
from .retrieval import build_index, serialize_index
from .treebank import TreeFormatError, parse_sentence
from .unification import RELAX_BOTH, RELAX_LEXICAL, RELAX_NONE, RELAX_SYNTACTIC, default_config


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="patternqa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="validate corpora")
    ingest.add_argument("--corpus")
    ingest.add_argument("--docs")

    run = sub.add_parser("run", help="run an experiment scenario")
    run.add_argument("--scenario", type=int, choices=(1, 2, 3, 4))
    run.add_argument("--corpus")
    run.add_argument("--docs")
    run.add_argument("--revise-interval", type=int, default=None)
    run.add_argument("--no-learn-on-revision", action="store_true")
    run.add_argument("--kb-in", default=None)
    run.add_argument("--kb-out", default=None)
    run.add_argument("--top-k", type=int, default=20)
    run.add_argument("--relax-measure", choices=("levenshtein", "overlap", "jaccard"),
                     default="levenshtein")
    run.add_argument("--relax-threshold", type=float, default=None)
    run.add_argument("--no-lexical-relax", action="store_true")
    run.add_argument("--no-syntactic-relax", action="store_true")
    run.add_argument("--out-dir", default=None)
    run.add_argument("--dump-index", default=None,
                     help="also write the inverted index as JSON for inspection")
    run.add_argument("--from-metadata", default=None,
                     help="re-run a previous experiment from its metadata file")

    tutor = sub.add_parser("tutor", help="interactive teaching loop")
    tutor.add_argument("--docs", required=True)
    tutor.add_argument("--kb-in", default=None)
    tutor.add_argument("--kb-out", default=None)
    tutor.add_argument("--use-ner", action="store_true")
    tutor.add_argument("--top-k", type=int, default=20)

    stats = sub.add_parser("stats", help="inspect a knowledge base / outcome log")
    stats.add_argument("--kb-in", required=True)
    stats.add_argument("--outcomes", default=None)
    return parser


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _require_file(path, what) -> Path:
    p = Path(path)
    if not p.is_file():
        raise DataError(path or '""', f"{what} file not found")
    return p


def cmd_ingest(args) -> int:
    if args.corpus is None and args.docs is None:
        raise UsageError("nothing to ingest; pass --corpus and/or --docs")
    if args.corpus is not None:
        questions = load_qa_corpus(_require_file(args.corpus, "corpus"))
        print(f"corpus ok: {len(questions)} questions")
    if args.docs is not None:
        docs = load_documents(_require_file(args.docs, "docs"))
        sentences = sum(len(d.sentences) for d in docs)
        print(f"docs ok: {len(docs)} documents, {sentences} sentences")
    return 0


_BOOL = {False: "false", True: "true"}


def _nullable(text) -> str:
    return "null" if text is None else _string(text)


def _candidate_json(cand) -> str:
    position = "null" if cand.position is None else cand.position
    return (f'{{"doc_id": {_nullable(cand.doc_id)}, '
            f'"pattern": {_nullable(cand.pattern_provenance)}, "position": {position}, '
            f'"relaxation": {_string(cand.relaxation_used)}, '
            f'"span": [{cand.span[0]}, {cand.span[1]}], "strategy": {_string(cand.strategy)}, '
            f'"text": {_string(cand.text)}}}')


def _write_outcomes(outcomes, handle) -> None:
    """Write one line per outcome: its record exactly as
    ``json.dumps(record, sort_keys=True)`` writes it (keys sorted,
    ASCII-escaped), assembled straight from the outcome. The run's memo
    shares candidates between questions, so each candidate object is
    encoded once per call; the outcomes keep every candidate alive until
    the call returns, so no object id is reused while it is a key."""
    encoded: dict[int, str] = {}
    for outcome in outcomes:
        parts = []
        for cand in outcome.candidates:
            text = encoded.get(id(cand))
            if text is None:
                text = encoded[id(cand)] = _candidate_json(cand)
            parts.append(text)
        final = outcome.final
        handle.write(
            f'{{"answered": {_BOOL[outcome.answered]}, "candidates": [{", ".join(parts)}], '
            f'"category": {_string(outcome.category)}, "correct": {_BOOL[outcome.correct]}, '
            f'"error": {_nullable(outcome.error)}, '
            f'"fallback_used": {_BOOL[outcome.fallback_used]}, '
            f'"final": {"null" if final is None else _string(final.text)}, '
            f'"final_strategy": {"null" if final is None else _string(final.strategy)}, '
            f'"id": {_string(outcome.question_id)}, '
            f'"patterns_learned": {outcome.patterns_learned}, '
            f'"relaxation_used": '
            f'{_string(RELAX_NONE if final is None else final.relaxation_used)}}}\n')


# metadata.json config entries that ``run`` records and ``run --from-metadata``
# restores: each value of _RECORDED is given to its ``run`` flag, each false
# switch becomes its ``--no-`` flag
_RECORDED = ("scenario", "corpus", "docs", "top_k", "relax_measure", "relax_threshold",
             "revise_interval", "kb_in")
_SWITCHES = ("lexical_relax", "syntactic_relax", "learn_on_revision")
# input files whose digests metadata.json records, as inputs.<name>_sha256
_INPUTS = ("corpus", "docs", "kb_in")


def _check_output_path(flag: str, path, directory: bool = False, created=None) -> None:
    """Reject an output path that cannot be written, before any input is
    loaded: a file path that is a directory, a directory path that is a
    file, a path below an existing file, or a file path whose parent
    directory neither exists nor is ``created``, the directory the command
    makes before writing."""
    if path is None:
        return
    target = Path(path)
    existing = next(p for p in (target, *target.parents) if p.exists())
    if existing == target and target.is_dir() != directory:
        raise UsageError(f"{flag} {path} is {'not ' if directory else ''}a directory")
    if existing != target and not existing.is_dir():
        raise UsageError(f"{flag} {path}: {existing} is not a directory")
    if not directory and existing not in (target, target.parent) and target.parent != created:
        raise UsageError(f"{flag} {path}: directory {target.parent} does not exist")


def _check_run_args(args) -> None:
    for required in ("scenario", "corpus", "docs"):
        if getattr(args, required) is None:
            raise UsageError(f"--{required} is required")
    if args.revise_interval is not None and args.revise_interval < 1:
        raise UsageError("--revise-interval must be >= 1")
    if args.top_k < 1:
        raise UsageError("--top-k must be >= 1")
    if args.relax_threshold is not None and not 0.0 <= args.relax_threshold <= 1.0:
        raise UsageError("--relax-threshold must be in [0, 1]")
    _check_output_path("--out-dir", args.out_dir or "out", directory=True)  # out/<time> by default
    out_dir = Path(args.out_dir) if args.out_dir else None
    _check_output_path("--kb-out", args.kb_out, created=out_dir)
    _check_output_path("--dump-index", args.dump_index, created=out_dir)


def _restore_from_metadata(args) -> dict[str, str]:
    """Set the run arguments recorded in ``args.from_metadata`` and return
    the input digests it records, by input name."""
    recorded, inputs = read_json(_require_file(args.from_metadata, "from-metadata"),
                                 _recorded_run)
    for key in _RECORDED + tuple(f"no_{switch}" for switch in _SWITCHES):
        setattr(args, key, getattr(recorded, key))
    return {name: inputs[f"{name}_sha256"] for name in _INPUTS
            if getattr(args, name) is not None and f"{name}_sha256" in inputs}


def _recorded_run(meta: dict):
    """The run arguments a metadata file records, and its input digests.
    The recorded values pass through the same parser and checks as flags;
    an entry they reject, or that is absent where a flag is required, is
    the file's fault (a ``ValueError``)."""
    config = check(meta.get("config"), dict, "an object", "config")
    argv = ["run"]
    for key in _RECORDED:
        if config.get(key) is not None:
            argv.append(f"--{key.replace('_', '-')}={config[key]}")
    try:
        for switch in _SWITCHES:
            if not check(config.get(switch), bool, "true or false", switch):
                argv.append(f"--no-{switch.replace('_', '-')}")
        recorded = _build_parser().parse_args(argv)
        _check_run_args(recorded)
    except (UsageError, ValueError) as exc:
        raise ValueError(f"config: {exc}") from exc
    return recorded, check(meta.get("inputs", {}), dict, "an object", "inputs")


def _check_digests(args, digests: dict[str, str]) -> None:
    """Refuse to re-run on an input that differs from the one recorded."""
    for name, digest in digests.items():
        path = getattr(args, name)
        if _sha256(_require_file(path, name.replace("_", "-"))) != digest:
            raise DataError(args.from_metadata, f"{path} does not match the recorded "
                            f"{name}_sha256; the input changed since the run")


@contextmanager
def _loading():
    """Loading makes many objects that all live on, so the cyclic collector
    would only walk them again and again: it is off while loading and back
    on however loading ends, and once loading succeeds what it made is
    frozen, out of the collector's reach for the rest of the command."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
        gc.freeze()
    finally:
        if enabled:
            gc.enable()


def _session(args, **settings) -> PipelineState:
    """The state a command answers in: the ``--docs`` collection indexed,
    the ``--kb-in`` knowledge base or an empty one, and ``settings``."""
    docs = load_documents(_require_file(args.docs, "docs"))
    kb = KnowledgeBase() if args.kb_in is None else load_kb(_require_file(args.kb_in, "kb-in"))
    return PipelineState(kb=kb, index=build_index(docs), gazetteer=load_gazetteer(),
                         top_k=args.top_k, **settings)


def cmd_run(args) -> int:
    digests = {} if args.from_metadata is None else _restore_from_metadata(args)
    _check_run_args(args)
    _check_digests(args, digests)
    scenario = ScenarioConfig.from_id(args.scenario)
    relax = default_config(
        measure=args.relax_measure,
        threshold=args.relax_threshold,
        enable_lexical=not args.no_lexical_relax,
        enable_syntactic=not args.no_syntactic_relax,
    )
    with _loading():
        questions = load_qa_corpus(_require_file(args.corpus, "corpus"))
        state = _session(args, relax=relax)
    # made before any output is written: --dump-index and --kb-out may lie in it
    out_dir = Path(args.out_dir) if args.out_dir else Path("out") / time.strftime("%Y%m%d-%H%M%S")
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.dump_index:
        Path(args.dump_index).write_text(serialize_index(state.index) + "\n", "utf-8")
    result = run_sequence(state, questions, scenario, args.revise_interval,
                          learn_on_revision=not args.no_learn_on_revision)

    with open(out_dir / "outcomes.jsonl", "w", encoding="utf-8") as handle:
        _write_outcomes(result.outcomes, handle)

    series = [(f"scenario{scenario.id}_metrics.csv", ())]
    if args.revise_interval:  # the run's score then counts the rescued questions
        series.append((f"revision_i{args.revise_interval}.csv", result.revision))
    for name, revision in series:
        points, alt_points = running_metrics(result.outcomes, revision)
        export_series(points, out_dir / name, alt_points)
        final = points[-1] if points else None  # the last point of the last series
        del points, alt_points  # freed before the next series is counted
    if args.revise_interval:
        report = {
            "interval": args.revise_interval,
            "checkpoints": [vars(r) for r in result.revision],
            "final_correct": 0 if final is None else final.correct,
        }
        (out_dir / "revision_report.json").write_text(
            json.dumps(report, indent=1, sort_keys=True) + "\n", "utf-8")

    config = {key: getattr(args, key) for key in _RECORDED}
    config.update({switch: not getattr(args, f"no_{switch}") for switch in _SWITCHES})
    config.update(
        relax_threshold=relax.lexical_threshold,  # the measure's default when not given
        max_pattern_elements=MAX_PATTERN_ELEMENTS,
        signature_depth=SIGNATURE_DEPTH,
        oracle_tie_break="first candidate in (pattern-before-ner, sentence rank, span) order",
    )
    metadata = {
        "config": config,
        "inputs": {f"{name}_sha256": _sha256(getattr(args, name))
                   for name in _INPUTS if getattr(args, name) is not None},
    }
    (out_dir / "metadata.json").write_text(
        json.dumps(metadata, indent=1, sort_keys=True) + "\n", "utf-8")

    if args.kb_out:
        save_kb(state.kb, args.kb_out)

    if final is not None:
        print(f"scenario {scenario.id}: {len(questions)} questions, "
              f"P={final.p:.4f} R={final.r:.4f} F={final.f:.4f} "
              f"(correct={final.correct}, answered={final.answered})")
    print(f"outputs in {out_dir}")
    return 0


def cmd_tutor(args) -> int:
    if args.top_k < 1:
        raise UsageError("--top-k must be >= 1")
    _check_output_path("--kb-out", args.kb_out)
    with _loading():
        state = _session(args)
    counter = 0
    last = None
    last_answer: str | None = None

    def prompt():
        print("> ", end="", flush=True)

    def teach(answer):
        # the rule load_qa_corpus applies to reference answers
        if normalize_answer(answer):
            print(f"learned {apply_feedback(state, last, answer)} new patterns")
        else:
            print(f"not learned: {answer!r} has no word once normalized")

    print("tutor ready. commands: ask <bracketed parse> | y | n | answer <text> | quit")
    prompt()
    for raw in sys.stdin:
        line = raw.strip()
        if not line:
            prompt()
            continue
        if line == "quit":
            break
        if line.startswith("ask "):
            counter += 1
            try:
                view = parse_sentence(line[4:].strip())
            except TreeFormatError as exc:
                last = last_answer = None  # nothing to confirm or teach until the next ask
                print(f"cannot parse question: {exc}")
                prompt()
                continue
            last = interpret(state, Question(id=f"tutor-{counter}",
                                             text=" ".join(view.tokens), parse=view))
            candidates = extract_candidates(state, last, use_patterns=True, use_ner=args.use_ner)
            last_answer = candidates[0].text if candidates else None
            print(f"category: {last.category}")
            if last_answer is None:
                print("no answer")
            else:
                print(f"answer: {last_answer}")
            for cand in candidates:
                print(f"  candidate: {cand.text} [{cand.strategy}, {cand.relaxation_used}]")
        elif line == "y":
            if last is None or last_answer is None:
                print("nothing to confirm")
            else:
                teach(last_answer)
        elif line == "n":
            print("marked wrong (use 'answer <text>' to teach the correct one)")
        elif line.startswith("answer "):
            if last is None:
                print("ask a question first")
            else:
                teach(line[len("answer "):].strip())
        else:
            print("commands: ask <bracketed parse> | y | n | answer <text> | quit")
        prompt()
    print()
    if args.kb_out:
        save_kb(state.kb, args.kb_out)
        print(f"kb saved to {args.kb_out} "
              f"({state.kb.pattern_count()} patterns, {len(state.kb.qa_pairs)} qa pairs)")
    return 0


RELAXATIONS = (RELAX_NONE, RELAX_LEXICAL, RELAX_SYNTACTIC, RELAX_BOTH)

# (key, shape, what the shape accepts) for the outcome fields `stats` counts;
# a record without the key is read as before, so older logs still load
OUTCOME_FIELDS = (
    ("correct", bool, "a boolean"),
    ("final_strategy", str | None, "a string or null"),
    ("relaxation_used", RELAXATIONS.__contains__, "one of " + ", ".join(RELAXATIONS)),
)


def _exact_pattern_answer(record: dict) -> bool | None:
    """Whether an outcome record's correct pattern answer was found by the
    exact pass; None when the record holds no correct pattern answer."""
    for key, shape, what in OUTCOME_FIELDS:
        if key in record:
            check(record[key], shape, what, key)
    if record.get("correct") and record.get("final_strategy") == "pattern":
        return record.get("relaxation_used") == RELAX_NONE
    return None


def cmd_stats(args) -> int:
    kb = load_kb(_require_file(args.kb_in, "kb-in"))
    print(f"signatures: {len(kb.signatures())}")
    for signature in kb.signatures():
        print(f"  {signature.category} | {signature.structure_key}: "
              f"{len(kb.lookup(signature))} patterns")
    print(f"patterns total: {kb.pattern_count()}")
    print(f"qa pairs: {len(kb.qa_pairs)}")
    if args.outcomes is not None:
        found = read_jsonl(_require_file(args.outcomes, "outcomes"), _exact_pattern_answer)
        exact, relaxed = found.count(True), found.count(False)
        print(f"pattern-extracted correct answers: {exact + relaxed} "
              f"(exact: {exact}, relaxed: {relaxed})")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "ingest": cmd_ingest,
            "run": cmd_run,
            "tutor": cmd_tutor,
            "stats": cmd_stats,
        }[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
