#!/usr/bin/env python3
"""The repository benchmark: one command, every metric, correctness checked.

    python3 bench/run.py --workload grow --seed 1 --seconds 30 --trace 0

For the chosen workload it generates a seeded collection, then runs whole
passes of ``patternqa run`` over it, each in a fresh single-threaded
interpreter (``bench/worker.py``), until ``--seconds`` have passed (and at
least three passes). It checks every pass's outputs against the generator's
ground truth and prints, as the last line of standard output, one JSON
object: ``correct``, ``attempted`` and ``failed`` (questions, over all
passes) and ``metrics``. With ``--trace 0`` the metrics are the end-to-end
ones, medians over the passes. With ``--trace 1`` untraced and traced passes
alternate and the metrics are the per-layer ones, medians over the traced
passes, plus the tracing overhead.

``python3 bench/run.py --write-spec`` rewrites BENCHMARK.json from SPEC.

Generated inputs and pass outputs go to ``bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / "bench_out"

sys.path.insert(0, str(BENCH_DIR))
import checks  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
PASS_TIMEOUT_S = 150
RUN_LIMIT_S = 150  # no pass starts after this, so a run ends well within 180 s

SPEC = {
    "command": ["python3", "bench/run.py"],
    "paths": ["bench"],
    "run_seconds": 36,
    "workloads": [
        {"name": "grow", "why": "scenario 4 from an empty KB: long interleaved signature groups "
                                "make exact unification, pattern learning and NER do the work"},
        {"name": "search", "why": "scenario 1 over 10^4 sentences with long posting lists: tree "
                                  "loading, index build, BM25 and NER; no pattern work at all"},
        {"name": "revise", "why": "scenario 2, revision every 15 questions: a growing pending "
                                  "list retried through the relaxed pass, read-mostly KB"},
    ],
    # Bounds: 3 x the largest spread (quartile distance / median) or shift of
    # the median seen between two sets of ten runs on any workload, capped at
    # 0.25 and at least 0.01; see README.md.
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "questions_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "question_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "question_cpu_ms_p99", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
        {"name": "answers_correct", "unit": "count", "better": "higher", "bound": 0.01},
    ],
    "per_layer": [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in [
            ("corpus.load_ms", "ms", "lower"),
            ("corpus.sentences", "count", "higher"),
            ("retrieval.build_index_ms", "ms", "lower"),
            ("retrieval.retrieve_ms", "ms", "lower"),
            ("retrieval.retrieve_calls", "count", "lower"),
            ("retrieval.sentences_returned", "count", "lower"),
            ("classify.classify_ms", "ms", "lower"),
            ("classify.calls", "count", "lower"),
            ("knowledge.signature_ms", "ms", "lower"),
            ("knowledge.signature_calls", "count", "lower"),
            ("knowledge.learn_ms", "ms", "lower"),
            ("knowledge.learn_calls", "count", "lower"),
            ("knowledge.patterns_learned", "count", "higher"),
            ("knowledge.kb_patterns", "count", "lower"),
            ("knowledge.kb_provenances", "count", "lower"),
            ("unification.exact_ms", "ms", "lower"),
            ("unification.exact_calls", "count", "lower"),
            ("unification.exact_yield", "ratio", "higher"),
            ("unification.relaxed_ms", "ms", "lower"),
            ("unification.relaxed_calls", "count", "lower"),
            ("unification.relaxed_yield", "ratio", "higher"),
            ("extraction.ner_ms", "ms", "lower"),
            ("extraction.ner_calls", "count", "lower"),
            ("extraction.ner_candidates", "count", "lower"),
            ("pipeline.answer_self_ms", "ms", "lower"),
            ("pipeline.revise_ms", "ms", "lower"),
            ("pipeline.revise_total_ms", "ms", "lower"),
            ("pipeline.revise_retried", "count", "lower"),
            ("pipeline.revise_rescued", "count", "higher"),
            ("pipeline.revise_yield", "ratio", "higher"),
            ("cli.write_ms", "ms", "lower"),
            ("trace.questions_per_s", "1/s", "higher"),
            ("trace.overhead_pct", "%", "lower"),
        ]
    ],
}
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def percentile(values: list[int], q: float) -> int:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_pass(run_dir: Path, number: int, argv: list[str], trace: bool) -> tuple[Path, dict]:
    pass_dir = run_dir / f"pass{number:02d}"
    pass_dir.mkdir()
    config = {"src": str(SRC), "pass_dir": str(pass_dir), "trace": trace,
              "argv": argv + ["--out-dir", str(pass_dir)]}
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(config)],
                   env=env, check=True, timeout=PASS_TIMEOUT_S, stdout=subprocess.DEVNULL)
    return pass_dir, json.loads((pass_dir / "result.json").read_text("utf-8"))


def end_to_end(results: list[dict]) -> dict[str, float]:
    """Medians over the passes; the percentiles pool every pass's questions."""
    durations = [d for result in results for d in result["question_ns"]]
    cpu_durations = [d for result in results for d in result["question_cpu_ns"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "questions_per_s": statistics.median(r["questions"] / r["questions_wall_s"]
                                             for r in results),
        "question_ms_p50": percentile(durations, 50) / 1e6,
        "question_cpu_ms_p99": percentile(cpu_durations, 99) / 1e6,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from SPEC and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(SPEC, indent=2) + "\n", "utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "patternqa" / "cli.py").is_file():
        print(f"error: no patternqa source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import patternqa.cli  # noqa: F401 - compiles the package once, before any timed pass

    run_dir = OUT / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    spec, truth = workloads.generate(args.workload, args.seed, run_dir / "input")
    argv_run = ["run", "--scenario", str(spec.scenario),
                "--corpus", str(run_dir / "input" / "questions.jsonl"),
                "--docs", str(run_dir / "input" / "docs.jsonl")]
    if spec.revise_interval:
        argv_run += ["--revise-interval", str(spec.revise_interval)]

    problems: list[str] = []
    if args.workload == "search":
        problems += checks.check_retrieval(truth, run_dir / "input" / "questions.jsonl",
                                           run_dir / "input" / "docs.jsonl",
                                           SRC / "patternqa" / "data" / "stopwords.txt",
                                           args.seed)

    untraced: list[dict] = []
    traced: list[dict] = []
    digests: set[str] = set()
    answers_correct: set[int] = set()
    attempted = failed = 0
    started = time.monotonic()
    number = 0
    pass_s: list[float] = []
    while True:
        elapsed = time.monotonic() - started
        enough = len(untraced) >= MIN_PASSES if not args.trace else len(traced) >= 2
        # start a pass only if it should end within the run's time
        due = elapsed + max(pass_s, default=0.0)
        if enough and (due > args.seconds or elapsed >= RUN_LIMIT_S):
            break
        trace = bool(args.trace) and number % 2 == 1
        number += 1
        began = time.monotonic()
        pass_dir, result = run_pass(run_dir, number, argv_run, trace)
        pass_s.append(time.monotonic() - began)
        (traced if trace else untraced).append(result)
        print(f"pass {number}{' traced' if trace else ''}: setup {result['setup_s']:.3f} s, "
              f"{result['questions'] / result['questions_wall_s']:.1f} questions/s",
              file=sys.stderr)

        outcomes = checks.read_outcomes(pass_dir)
        rescued = checks.rescued_ids(pass_dir)
        digest = hashlib.sha256((pass_dir / "outcomes.jsonl").read_bytes()).hexdigest()
        if not digests:
            problems += checks.check_outcomes(outcomes, rescued, truth)
            if spec.revise_interval:
                problems += checks.check_revision(outcomes, rescued, pass_dir)
        digests.add(digest)
        answers_correct.add(sum(o["correct"] for o in outcomes) + len(rescued))
        attempted += len(outcomes)
        failed += sum(1 for o in outcomes if o["error"])
        if number > 2:
            shutil.rmtree(pass_dir)  # the first two passes (one traced, if any) stay

    if len(digests) != 1:
        problems.append(f"outcomes.jsonl differs between passes ({len(digests)} versions)")
    if len(answers_correct) != 1:
        problems.append(f"answers_correct differs between passes: {sorted(answers_correct)}")
    correct_count = min(answers_correct)
    if args.workload == "grow" and correct_count < truth.same_shape_members:
        problems.append(f"answers_correct {correct_count} < construction bound "
                        f"{truth.same_shape_members}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        rows = [result["layers"] for result in traced]
        metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
        metrics["trace.questions_per_s"] = end_to_end(traced)["questions_per_s"]
        metrics["trace.overhead_pct"] = (end_to_end(untraced)["questions_per_s"]
                                         / metrics["trace.questions_per_s"] - 1.0) * 100
    else:
        metrics = end_to_end(untraced)
        metrics["answers_correct"] = correct_count
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
