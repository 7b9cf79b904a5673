"""The benchmark's three workloads, pinned: each is generated with seed 1 by
``bench/workloads.py`` (imported, never edited) and run in-process through
``cli.main`` with the arguments ``bench/run.py`` gives ``patternqa run``,
plus ``--kb-out`` on the two workloads that learn patterns. Every output but
``metadata.json`` (it records the input paths) must reproduce these digests
byte for byte, and the run must pass the ground-truth checks of
``bench/checks.py`` (imported too) that ``bench/run.py`` applies.

The digests were recorded from the code before the split-based parser and
load-wide sharing of constituents; the ``outcomes.jsonl`` ones equal those
that ``BENCH_16.json`` and ``BENCH_17.json`` record. The ``kb.json`` ones
were recorded from the code before the learner skipped sentences without
the answer's first word. A change that alters any of them changes what the
benchmark measures and must say so, and why, before they are re-recorded.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from patternqa.cli import main

ROOT = Path(__file__).resolve().parents[1]

PINNED = {
    "grow": {
        "outcomes.jsonl": "5a9be0c77cc1efedff176706d99c6ce5ce6a705e63436ab7aa9a3740060abb0f",
        "kb.json": "a6978a77066ab3d06cdf837df3daa75d5cf29c9da3552cb6afa7598a8c6a3bc6",
        "scenario4_metrics.csv": "b8efa4833547bb96e0d51ac2b45c67e42fc754bb3e02776ef08926c948a4706c",
    },
    "revise": {
        "kb.json": "5d37881bb6ccb4262c4b6ab2a447f4a189775d2ce2a6fc4ead2cb79a51fafd35",
        "outcomes.jsonl": "f69f176e6d7eda0d516ead5df222796e4c4951218d337240d249c755edb2ca21",
        "revision_i15.csv": "fcfa678515a030ae997dfda27f035961a9039ac265e46176244bcb5c51af1371",
        "revision_report.json": "9bbae17b2190524935c3b0cacab118a136da611fcefb0cec1c514ce09aa459ad",
        "scenario2_metrics.csv": "9c740adc4a488abb55c1442f2dab77a3ae21a1defbde10498cb0427bf08188c1",
    },
    "search": {
        "outcomes.jsonl": "2c643eb2bcc85135ea32e782826cd17016712bc1ec951d4c916f6f5557120d8a",
        "scenario1_metrics.csv": "6a0b67b24ed7568f2f1e037bd8fbe8681c175a226eeb4e32a9081f11e6242aff",
    },
}


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _load_bench("workloads")
checks = _load_bench("checks")


@pytest.mark.parametrize("name", sorted(PINNED))
def test_workload_outputs_match_pinned_digests(tmp_path, capsys, name):
    inputs, out_dir = tmp_path / "input", tmp_path / "out"
    spec, truth = workloads.generate(name, 1, inputs)
    argv = ["run", "--scenario", str(spec.scenario),
            "--corpus", str(inputs / "questions.jsonl"), "--docs", str(inputs / "docs.jsonl")]
    if spec.revise_interval:
        argv += ["--revise-interval", str(spec.revise_interval)]
    if "kb.json" in PINNED[name]:
        argv += ["--kb-out", str(out_dir / "kb.json")]
    assert main(argv + ["--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    produced = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(out_dir.iterdir()) if path.name != "metadata.json"}
    assert produced == PINNED[name]
    outcomes, rescued = checks.read_outcomes(out_dir), checks.rescued_ids(out_dir)
    problems = checks.check_outcomes(outcomes, rescued, truth)
    if spec.revise_interval:
        problems += checks.check_revision(outcomes, rescued, out_dir)
    if name == "search":
        problems += checks.check_retrieval(truth, inputs / "questions.jsonl", inputs / "docs.jsonl",
                                           ROOT / "src" / "patternqa" / "data" / "stopwords.txt", 1)
    assert problems == []
