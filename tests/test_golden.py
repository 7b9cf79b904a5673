"""Golden outputs: the six ``scripts/run_experiments.py`` runs on the shipped
fixtures must reproduce these files byte for byte.

The digests were recorded from the code before the single-answer-path
refactor. A change that alters any of them changes the reproduction's
behaviour and must say so, and why, before the digests are re-recorded.
``metadata.json`` is left out: it records the input paths.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

GOLDEN = {
    "scenario1/kb.json": "ece46435e4eaeb55a3f6efcb9c775aadd50f4975bfbf8a3e50ffd6dbc8b5ca12",
    "scenario1/outcomes.jsonl": "db205c6c33a81f512b8bbcf57cb11f2a40c0927f27d9d0715715ec3d221a99ef",
    "scenario1/scenario1_metrics.csv": "4a7a272ccb1c6aedad340d9b053aad0d7259497b3267912b014580344edc31bf",
    "scenario2/kb.json": "9c83c27a200d0626f9dc256fa604e93059f4d0c8a8599d4f49d57929cb0b539d",
    "scenario2/outcomes.jsonl": "ffca14ab0174970d45521f0aa49bf062d3ba90f61c717876a73e62db9581c0c0",
    "scenario2/scenario2_metrics.csv": "dfebef9169a1ed02ae7960255d35aa0a0fa0208f82153fbb07c9ab619c059f43",
    "scenario2_revise10/outcomes.jsonl": "ffca14ab0174970d45521f0aa49bf062d3ba90f61c717876a73e62db9581c0c0",
    "scenario2_revise10/revision_i10.csv": "f92a761ab71b01e28eac0e44dd7905660d279e3e25425d23abfaea1564af21d3",
    "scenario2_revise10/revision_report.json": "a3de19167e0bd57056bcb639424d96a3d218935fe8476f8ff96c47e3f11b9e3b",
    "scenario2_revise10/scenario2_metrics.csv": "dfebef9169a1ed02ae7960255d35aa0a0fa0208f82153fbb07c9ab619c059f43",
    "scenario2_revise5/outcomes.jsonl": "ffca14ab0174970d45521f0aa49bf062d3ba90f61c717876a73e62db9581c0c0",
    "scenario2_revise5/revision_i5.csv": "3e572d6721a8a58542466524516d8b4ea35f69b2ad9e7b8a59ee70529f48eeb6",
    "scenario2_revise5/revision_report.json": "e3a963b74803e130f58fa85a75acd764c3ab695cffde0126b73ab0b7688180cf",
    "scenario2_revise5/scenario2_metrics.csv": "dfebef9169a1ed02ae7960255d35aa0a0fa0208f82153fbb07c9ab619c059f43",
    "scenario3/kb.json": "75dfa33b0f7821943c5102d983bf4d573c45d892602a16ee33de3be572dff71d",
    "scenario3/outcomes.jsonl": "f0a2e2d8feb17aa55ccd39913f126ef125ec52c87e33d6d21e9505b0c18a0a0b",
    "scenario3/scenario3_metrics.csv": "307268cd3e970bd2606c234457d8f4f120fea9aea5a7809bd872b50c3178ed63",
    "scenario4/kb.json": "9c83c27a200d0626f9dc256fa604e93059f4d0c8a8599d4f49d57929cb0b539d",
    "scenario4/outcomes.jsonl": "18016aa383eeac47e1b480f3e0d64dc9a277478ca322d1838ddfe00618d1700e",
    "scenario4/scenario4_metrics.csv": "911461130c270de22930027d564e908ce9f3eb01f577b0232b5197fdfbb6c0f8",
}


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "run_experiments", ROOT / "scripts" / "run_experiments.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_experiment_outputs_match_recorded_digests(tmp_path, monkeypatch, capsys):
    script = _load_script()
    monkeypatch.setattr(sys, "argv", ["run_experiments.py", "--out", str(tmp_path)])
    script.main()
    capsys.readouterr()
    produced = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file() and path.name != "metadata.json"
    }
    assert produced == GOLDEN
