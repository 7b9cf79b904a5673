"""Command-line interface: corpus validation, experiment runs, revision
runs, KB inspection, and an interactive tutor loop.

Exit codes: 0 success, 1 usage error, 2 data error, 3 output error. Input
paths are checked where :func:`~patternqa.corpus.read_bytes` reads them;
every output file is written by :func:`_write`, from text the modules
render.

``run`` and ``tutor`` read each input once (:func:`_input`): the bytes
hashed for ``metadata.json`` and checked against a ``--from-metadata``
digest are the bytes parsed. The question corpus and the indexed document
collection then come from the load cache (:mod:`patternqa.cache`), keyed by
those digests; on a miss they are loaded through this module's
``load_qa_corpus``, ``load_documents`` and ``build_index``. Every command
loads a collection alike, so ``run`` in any scenario and ``tutor`` share
its one entry. ``ingest`` validates without the cache.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import os
import sys
import time
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path

from . import cache
from .corpus import (DataError, Question, check, json_text, load_documents, load_qa_corpus,
                     normalize_answer, read_bytes, read_json, read_jsonl)
from .evaluation import running_metrics, series_lines
from .knowledge import MAX_PATTERN_ELEMENTS, SIGNATURE_DEPTH, KnowledgeBase, kb_text, load_kb
from .pipeline import (SCENARIOS, PipelineState, ScenarioConfig, apply_feedback,
                       extract_candidates, interpret, run_sequence)
from .retrieval import TOP_K, build_index, serialize_index
from .treebank import TreeFormatError, parse_sentence
from .unification import (DEFAULT_THRESHOLDS, RELAX_BOTH, RELAX_LEXICAL, RELAX_NONE,
                          RELAX_SYNTACTIC, default_config)


class UsageError(Exception):
    pass


class OutputError(Exception):
    """An output that could not be written: ``<path>: <the system's reason>``."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


@functools.cache
def _parser() -> _Parser:
    """The one parser of the process: building one leaves reference cycles
    that only the cyclic collector frees, and parsing leaves it as it was."""
    parser = _Parser(prog="patternqa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="validate corpora")
    ingest.add_argument("--corpus")
    ingest.add_argument("--docs")

    run = sub.add_parser("run", help="run an experiment scenario")
    run.add_argument("--scenario", type=int, choices=tuple(SCENARIOS))
    run.add_argument("--corpus")
    run.add_argument("--docs")
    run.add_argument("--revise-interval", type=int, default=None)
    run.add_argument("--no-learn-on-revision", action="store_true")
    run.add_argument("--kb-in", default=None)
    run.add_argument("--kb-out", default=None)
    run.add_argument("--top-k", type=int, default=TOP_K)
    run.add_argument("--relax-measure", choices=tuple(DEFAULT_THRESHOLDS), default="levenshtein")
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
    tutor.add_argument("--top-k", type=int, default=TOP_K)

    stats = sub.add_parser("stats", help="inspect a knowledge base / outcome log")
    stats.add_argument("--kb-in", required=True)
    stats.add_argument("--outcomes", default=None)
    return parser


def cmd_ingest(args) -> int:
    if args.corpus is None and args.docs is None:
        raise UsageError("nothing to ingest; pass --corpus and/or --docs")
    if args.corpus is not None:
        questions = load_qa_corpus(args.corpus)
        print(f"corpus ok: {len(questions)} questions")
    if args.docs is not None:
        docs = load_documents(args.docs)
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


def _outcome_lines(outcomes):
    """One line per outcome: its record exactly as
    ``json.dumps(record, sort_keys=True)`` writes it (keys sorted,
    ASCII-escaped), assembled straight from the outcome. The run's memo
    shares candidates between questions, so each candidate object is
    encoded once per walk; the outcomes keep every candidate alive until
    the walk ends, so no object id is reused while it is a key."""
    encoded: dict[int, str] = {}
    for outcome in outcomes:
        parts = []
        for cand in outcome.candidates:
            text = encoded.get(id(cand))
            if text is None:
                text = encoded[id(cand)] = _candidate_json(cand)
            parts.append(text)
        final = outcome.final
        yield (
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


def _check_output_path(flag: str, path, directory: bool = False, created=None) -> None:
    """Reject an output path that cannot be written, before any input is
    loaded: an empty path, one the system refuses to look up, a file path
    that is a directory, a directory path that is a file, a path below an
    existing file, or a file path whose parent directory neither exists nor
    is ``created``, the directory the command makes before writing."""
    if path is None:
        return
    if not path:
        raise UsageError(f'{flag} "" names no {"directory" if directory else "file"}')
    target = Path(path)
    try:
        existing = next(p for p in (target, *target.parents) if p.exists())
    except OSError as exc:  # a name too long, or a directory that may not be searched
        raise UsageError(f"{flag} {path}: {exc.strerror or exc}") from exc
    if existing == target and target.is_dir() != directory:
        raise UsageError(f"{flag} {path} is {'not ' if directory else ''}a directory")
    if existing != target and not existing.is_dir():
        raise UsageError(f"{flag} {path}: {existing} is not a directory")
    if not directory and existing not in (target, target.parent) and target.parent != created:
        raise UsageError(f"{flag} {path}: directory {target.parent} does not exist")


def _check_run_values(args) -> None:
    """Reject run arguments that are missing or out of range."""
    for required in ("scenario", "corpus", "docs"):
        if getattr(args, required) is None:
            raise UsageError(f"--{required} is required")
    if args.revise_interval is not None and args.revise_interval < 1:
        raise UsageError("--revise-interval must be >= 1")
    _check_top_k(args)
    if args.relax_threshold is not None and not 0.0 <= args.relax_threshold <= 1.0:
        raise UsageError("--relax-threshold must be in [0, 1]")


def _check_top_k(args) -> None:
    """The retrieval depth check of ``run`` and ``tutor``."""
    if args.top_k < 1:
        raise UsageError("--top-k must be >= 1")


def _check_run_outputs(args) -> None:
    """Reject run output paths that cannot be written, a ``--kb-out`` or
    ``--dump-index`` path that resolves to the other's or to a file the run
    writes in ``--out-dir``, which one output would overwrite with another,
    and an output that would overwrite an input."""
    default = args.out_dir is None  # out/<time> then
    _check_output_path("--out-dir", "out" if default else args.out_dir, directory=True)
    out_dir = None if default else Path(args.out_dir)
    _check_output_path("--kb-out", args.kb_out, created=out_dir)
    _check_output_path("--dump-index", args.dump_index, created=out_dir)
    names = ["outcomes.jsonl", f"scenario{args.scenario}_metrics.csv", "metadata.json"]
    if args.revise_interval:
        names += [f"revision_i{args.revise_interval}.csv", "revision_report.json"]
    # os.path.realpath, unlike Path.resolve, does not raise on a symlink loop
    written = {} if default else {
        os.path.realpath(out_dir / name): f"the {name} the run writes in --out-dir"
        for name in names}
    for flag, path in (("--dump-index", args.dump_index), ("--kb-out", args.kb_out)):
        if path is not None:
            target = os.path.realpath(path)
            if target in written:
                raise UsageError(f"{flag} {path} is also {written[target]}")
            written[target] = f"the {flag} path"
    _check_inputs_kept(args, written)


# the one output each input may be: the file it was read from, rewritten in place
_REWRITES = {"--kb-in": "the --kb-out path",
             "--from-metadata": "the metadata.json the run writes in --out-dir"}


def _check_inputs_kept(args, written: dict) -> None:
    """Reject an input path that resolves to an output, which the command
    would overwrite, save the rewrites in ``_REWRITES``. ``written`` maps
    each output's real path to what the output is."""
    for flag in ("--corpus", "--docs", "--kb-in", "--from-metadata"):
        path = getattr(args, flag[2:].replace("-", "_"), None)
        if path is None:
            continue
        try:
            output = written.get(os.path.realpath(path))
        except ValueError:  # a NUL byte, read from a metadata file: no output holds one
            continue
        if output is not None and output != _REWRITES.get(flag):
            raise UsageError(f"{flag} {path} is also {output}")


def _restore_from_metadata(args) -> dict:
    """Set the run arguments recorded in ``args.from_metadata`` and return
    the input digests it records, as ``<input>_sha256`` entries."""
    recorded, inputs = read_json(args.from_metadata, _recorded_run)
    for key in _RECORDED + tuple(f"no_{switch}" for switch in _SWITCHES):
        setattr(args, key, getattr(recorded, key))
    return inputs


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
        recorded = _parser().parse_args(argv)
        _check_run_values(recorded)  # output paths are not recorded
    except (UsageError, ValueError) as exc:
        raise ValueError(f"config: {exc}") from exc
    return recorded, check(meta.get("inputs", {}), dict, "an object", "inputs")


@contextlib.contextmanager
def _output(path):
    """The out-dir is made, and every file written, in this block: ``path``
    is the directory or file. An ``OSError`` there, such as a full disk or
    a denied write, becomes an :class:`OutputError` naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"{path}: {exc.strerror or exc}") from exc


def _write(path, chunks) -> None:
    """Write the strings ``chunks`` to the file ``path``, as they come and
    as given, line breaks included: the one way a command writes a file."""
    with _output(path), open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(chunks)


def _collector_off(command):
    """``command`` run with the cyclic collector off, and back on however it
    ends. A command loads many objects that all live on and then makes no
    reference cycles, so collections would only walk the collection again
    and again and find nothing to free; what the command made is freed by
    reference counting when its frame ends, still inside the pause."""
    @functools.wraps(command)
    def paused(args) -> int:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return command(args)
        finally:
            if enabled:
                gc.enable()
    return paused


def _input(args, name: str, inputs: dict, recorded: dict) -> tuple[bytes, str]:
    """The bytes of the input ``name`` (the ``--<name>`` path), read once,
    and their SHA-256, which ``inputs`` records as ``<name>_sha256``. Bytes
    whose digest differs from the one ``recorded`` for them are refused."""
    path, key = getattr(args, name), f"{name}_sha256"
    raw = read_bytes(path)
    digest = inputs[key] = hashlib.sha256(raw).hexdigest()
    if recorded.get(key, digest) != digest:
        raise DataError(args.from_metadata, f"{path} does not match the recorded {key}; "
                        "the input changed since the run")
    return raw, digest


def _session(args, inputs: dict, recorded: dict, **settings) -> PipelineState:
    """The state a command answers in: the ``--docs`` collection indexed,
    the ``--kb-in`` knowledge base or an empty one, and ``settings``.
    Inputs are read by :func:`_input`."""
    raw, digest = _input(args, "docs", inputs, recorded)
    index = cache.collection(digest, lambda: build_index(load_documents(args.docs, raw=raw)))
    kb = KnowledgeBase()
    if args.kb_in is not None:
        kb = load_kb(args.kb_in, raw=_input(args, "kb_in", inputs, recorded)[0])
    return PipelineState(kb=kb, index=index, top_k=args.top_k, **settings)


@_collector_off
def cmd_run(args) -> int:
    recorded = {} if args.from_metadata is None else _restore_from_metadata(args)
    _check_run_values(args)
    _check_run_outputs(args)
    inputs: dict[str, str] = {}  # metadata.json's input digests
    scenario = ScenarioConfig(args.scenario)
    relax = default_config(args.relax_measure, args.relax_threshold,
                           enable_lexical=not args.no_lexical_relax,
                           enable_syntactic=not args.no_syntactic_relax)
    raw, digest = _input(args, "corpus", inputs, recorded)
    questions = cache.questions(digest, lambda: load_qa_corpus(args.corpus, raw=raw))
    state = _session(args, inputs, recorded, relax=relax)
    # made before any output is written: --dump-index and --kb-out may lie in it
    out_dir = (Path("out") / time.strftime("%Y%m%d-%H%M%S") if args.out_dir is None
               else Path(args.out_dir))
    with _output(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    if args.dump_index is not None:
        _write(args.dump_index, (serialize_index(state.index), "\n"))
    result = run_sequence(state, questions, scenario, args.revise_interval,
                          learn_on_revision=not args.no_learn_on_revision)

    _write(out_dir / "outcomes.jsonl", _outcome_lines(result.outcomes))

    series = [(f"scenario{scenario.id}_metrics.csv", ())]
    if args.revise_interval:  # the run's score then counts the rescued questions
        series.append((f"revision_i{args.revise_interval}.csv", result.revision))
    for name, revision in series:
        points, alt_points = running_metrics(result.outcomes, revision)
        _write(out_dir / name, series_lines(points, alt_points))
        final = points[-1] if points else None  # the last point of the last series
        del points, alt_points  # freed before the next series is counted
    if args.revise_interval:
        report = {
            "interval": args.revise_interval,
            "checkpoints": [vars(r) for r in result.revision],
            "final_correct": 0 if final is None else final.correct,
        }
        _write(out_dir / "revision_report.json", (json_text(report, sort_keys=True), "\n"))

    config = {key: getattr(args, key) for key in _RECORDED}
    config.update({switch: not getattr(args, f"no_{switch}") for switch in _SWITCHES})
    config.update(
        relax_threshold=relax.lexical_threshold,  # the measure's default when not given
        max_pattern_elements=MAX_PATTERN_ELEMENTS,
        signature_depth=SIGNATURE_DEPTH,
        oracle_tie_break="first candidate in (pattern-before-ner, sentence rank, span) order",
    )
    metadata = {"config": config, "inputs": inputs}
    _write(out_dir / "metadata.json", (json_text(metadata, sort_keys=True), "\n"))
    if args.kb_out is not None:
        _write(args.kb_out, (kb_text(state.kb),))

    if final is not None:
        print(f"scenario {scenario.id}: {len(questions)} questions, "
              f"P={final.p:.4f} R={final.r:.4f} F={final.f:.4f} "
              f"(correct={final.correct}, answered={final.answered})")
    print(f"outputs in {out_dir}")
    return 0


@_collector_off
def cmd_tutor(args) -> int:
    _check_top_k(args)
    _check_output_path("--kb-out", args.kb_out)
    _check_inputs_kept(args, {} if args.kb_out is None
                       else {os.path.realpath(args.kb_out): "the --kb-out path"})
    state = _session(args, {}, {})
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
    if args.kb_out is not None:
        _write(args.kb_out, (kb_text(state.kb),))
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
    kb = load_kb(args.kb_in)
    print(f"signatures: {len(kb.signatures())}")
    for signature in kb.signatures():
        print(f"  {signature.category} | {signature.structure_key}: "
              f"{len(kb.lookup(signature))} patterns")
    print(f"patterns total: {kb.pattern_count()}")
    print(f"qa pairs: {len(kb.qa_pairs)}")
    if args.outcomes is not None:
        found = read_jsonl(args.outcomes, _exact_pattern_answer)
        exact, relaxed = found.count(True), found.count(False)
        print(f"pattern-extracted correct answers: {exact + relaxed} "
              f"(exact: {exact}, relaxed: {relaxed})")
    return 0


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
