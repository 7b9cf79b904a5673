"""The benchmark measures each layer by wrapping, by attribute, the names
that ``patternqa.cli`` and ``patternqa.pipeline`` call. This runs its
worker traced on the fixture revision run, so a call site that moves or
starts re-deriving per-question facts shows up here, not first in a
benchmark comparison. It reads ``bench/`` and changes nothing there."""

import json
import subprocess
import sys
from pathlib import Path

from .conftest import FIXTURES

ROOT = Path(__file__).resolve().parents[1]


def traced_layers(tmp_path, scenario: str) -> dict:
    """Per-layer figures of one traced worker pass over the fixtures, with
    revision every 10 questions."""
    config = {
        "src": str(ROOT / "src"),
        "pass_dir": str(tmp_path),
        "trace": True,
        "argv": ["run", "--scenario", scenario, "--revise-interval", "10",
                 "--corpus", str(FIXTURES / "qa30.jsonl"), "--docs", str(FIXTURES / "docs.jsonl"),
                 "--out-dir", str(tmp_path / "run")],
    }
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "worker.py"), json.dumps(config)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads((tmp_path / "result.json").read_text("utf-8"))["layers"]


def test_traced_worker_interprets_each_question_once(tmp_path):
    layers = traced_layers(tmp_path, "2")
    assert layers["classify.calls"] == 30
    assert layers["knowledge.signature_calls"] == 30
    assert layers["retrieval.retrieve_calls"] == 30


def test_traced_worker_counts_every_unify_ner_and_learn_call(tmp_path):
    """Each unification of a (pattern, sentence) pair is one ``pipeline.unify``
    call, a pair rejected by its literal tokens included, so traced call
    counts stay comparable across versions."""
    layers = traced_layers(tmp_path, "4")
    assert layers["unification.exact_calls"] == 45
    assert layers["unification.relaxed_calls"] == 2
    assert layers["extraction.ner_calls"] == 30
    assert layers["extraction.ner_candidates"] == 52
    assert layers["knowledge.learn_calls"] == 30
    assert layers["knowledge.patterns_learned"] == 30
