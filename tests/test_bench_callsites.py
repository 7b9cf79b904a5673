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


def test_traced_worker_interprets_each_question_once(tmp_path):
    config = {
        "src": str(ROOT / "src"),
        "pass_dir": str(tmp_path),
        "trace": True,
        "argv": ["run", "--scenario", "2", "--revise-interval", "10",
                 "--corpus", str(FIXTURES / "qa30.jsonl"), "--docs", str(FIXTURES / "docs.jsonl"),
                 "--out-dir", str(tmp_path / "run")],
    }
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "worker.py"), json.dumps(config)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    layers = json.loads((tmp_path / "result.json").read_text("utf-8"))["layers"]
    assert layers["classify.calls"] == 30
    assert layers["knowledge.signature_calls"] == 30
    assert layers["retrieval.retrieve_calls"] == 30
