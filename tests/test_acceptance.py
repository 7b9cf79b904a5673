"""Acceptance suite: one test per shipped acceptance criterion, each
printing a PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py``
to see them).

Note on the arithmetic anchors: the seven fixed (P, R, F) reference rows
are encoded exactly as published. One row, (0.799, 0.464, 0.578), is
internally inconsistent -- the balanced F of P=0.799 and R=0.464 is 0.587,
9 tenths of a point away from the row's F -- so its check fails by design
rather than loosening the tolerance that validates the other six rows.
"""

import json
import random
import subprocess
import sys

from patternqa.classify import classify
from patternqa.corpus import normalize_answer
from patternqa.evaluation import f_measure, running_metrics
from patternqa.knowledge import learn_patterns, question_signature
from patternqa.pipeline import ScenarioConfig, run_sequence
from patternqa.treebank import parse_sentence
from patternqa.unification import (default_config, levenshtein_distance,
                                   unify)

from .conftest import DANTE_QUESTION_PARSE, FIXTURES, HAMLET_QUESTION_PARSE
from .oracles import (analyse, brute_force_answer_spans, levenshtein_oracle, parse_bracketed,
                      random_pattern, random_tree)


def report(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: {status}{suffix}")
    return ok


def test_worked_example_fidelity(dante_question, dante_sentence):
    patterns = learn_patterns(dante_question, "Dante", [dante_sentence])
    expected = [("answer", "NP"), ("lexical", "has"),
                ("syntactic", "VBN"), ("syntactic", "NP")]
    got = [[(e.kind, e.value) for e in p.elements] for p in patterns]
    shape_ok = got == [expected]
    closure = unify(patterns[0], dante_sentence.view, default_config().exact) if patterns else []
    closure_ok = any(normalize_answer(c.text) == "dante" for c in closure)
    assert report("worked-example-fidelity", shape_ok and closure_ok,
                  f"learned {got}, closure {[c.text for c in closure]}")


def test_relaxation_fidelity(dante_question, dante_sentence):
    pattern = learn_patterns(dante_question, "Dante", [dante_sentence])[0]
    nn_subject = parse_sentence(
        "(S (NN poet) (VP (VBZ has) (VP (VBN written) "
        "(NP (DT The) (NNP Divine) (NNP Comedy)))))")
    exact = unify(pattern, nn_subject, default_config().exact)
    relaxed = unify(pattern, nn_subject, default_config())
    ok = (exact == ()
          and [c.text for c in relaxed] == ["poet"]
          and relaxed[0].relaxation_used == "syntactic")
    assert report("relaxation-fidelity", ok,
                  f"exact={len(exact)} relaxed={[(c.text, c.relaxation_used) for c in relaxed]}")


def test_oracle_equivalence_exact_unification(make_state, fixture_questions):
    rng = random.Random(2024)
    config = default_config().exact
    pairs = 0
    mismatches = []
    while pairs < 250:
        tree = random_tree(rng, max_leaves=12)
        pattern = random_pattern(rng, tree)
        pairs += 1
        mine = {c.span for c in unify(pattern, analyse(tree), config)}
        oracle = brute_force_answer_spans(pattern, tree)
        if mine != oracle:
            mismatches.append((pattern.rendered, mine, oracle))
    # also on every fixture tree against every pattern a fixture run learns
    state = make_state()
    run_sequence(state, fixture_questions, ScenarioConfig(2))
    learned = [p for sig in state.kb.signatures() for p in state.kb.lookup(sig)]
    for line in (FIXTURES / "docs.jsonl").read_text().splitlines():
        for sentence in json.loads(line)["sentences"]:
            tree = parse_bracketed(sentence["parse"])
            for pattern in learned:
                pairs += 1
                mine = {c.span for c in unify(pattern, analyse(tree), config)}
                if mine != brute_force_answer_spans(pattern, tree):
                    mismatches.append((pattern.rendered, tree, mine))
    assert report("oracle-equivalence", not mismatches,
                  f"{pairs} pattern/tree pairs, {len(mismatches)} mismatches")


def test_similarity_oracles():
    rng = random.Random(99)
    alphabet = "abcdefgh"
    failures = 0
    for _ in range(1000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        if levenshtein_distance(a, b) != levenshtein_oracle(a, b):
            failures += 1
    metamorphic = True
    for _ in range(300):
        a, b, c = ("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
                   for _ in range(3))
        metamorphic &= levenshtein_distance(a, b) == levenshtein_distance(b, a)
        metamorphic &= levenshtein_distance(a, a) == 0
        metamorphic &= (levenshtein_distance(a, c)
                        <= levenshtein_distance(a, b) + levenshtein_distance(b, c))
    assert report("similarity-oracles", failures == 0 and metamorphic,
                  f"1000 oracle pairs ({failures} disagreements), "
                  f"symmetry/identity/triangle on 300 triples")


# the seven published endpoint rows (P, R, F), Tables of the reference
# experiments; tolerance is +/- 0.1 percentage points on F
ANCHOR_ROWS = [
    (0.792, 0.451, 0.575),
    (0.435, 0.127, 0.197),
    (0.799, 0.464, 0.578),  # internally inconsistent: f(P, R) = 0.587
    (0.772, 0.475, 0.588),
    (0.478, 0.177, 0.258),
    (0.463, 0.168, 0.247),
    (0.454, 0.152, 0.228),
]


def test_metric_arithmetic_anchors():
    bad = [(p, r, f, f_measure(p, r)) for p, r, f in ANCHOR_ROWS
           if abs(f_measure(p, r) - f) > 0.001]
    detail = "; ".join(f"({p}, {r}): computed {got:.4f}, published {f}"
                       for p, r, f, got in bad) or "all 7 rows within 0.1pp"
    assert report("metric-arithmetic-anchors", not bad, detail)


def _fixture_runs(make_state, fixture_questions):
    runs = {}
    for sid in (1, 2, 3):
        runs[sid] = run_sequence(make_state(), fixture_questions,
                                 ScenarioConfig(sid))
    return runs


def test_learning_curve_property(make_state, fixture_questions):
    runs = _fixture_runs(make_state, fixture_questions)
    boundaries = [6, 14, 22, 30]
    points = {sid: running_metrics(run.outcomes)[0] for sid, run in runs.items()}
    recall_at = [points[2][i - 1].r for i in boundaries]
    strictly_up = all(b > a for a, b in zip(recall_at, recall_at[1:]))
    dominated = all(p3.r >= p1.r for p1, p3 in zip(points[1], points[3]))
    assert report("learning-curve", strictly_up and dominated,
                  f"scenario-2 recall at boundaries {[round(r, 4) for r in recall_at]}; "
                  f"scenario-3 >= scenario-1 everywhere: {dominated}")


def test_revision_properties(make_state, fixture_questions):
    base = run_sequence(make_state(), fixture_questions, ScenarioConfig(2))
    ten_state = make_state()
    ten = run_sequence(ten_state, fixture_questions, ScenarioConfig(2), 10)
    five = run_sequence(make_state(), fixture_questions, ScenarioConfig(2), 5)
    final = {name: running_metrics(run.outcomes, run.revision)[0][-1].correct
             for name, run in (("base", base), ("ten", ten), ("five", five))}
    rescued_ten = sum(len(r.newly_correct) for r in ten.revision)
    ordering = final["five"] >= final["ten"] >= final["base"]
    # self-exclusion: q01's only applicable pattern came from itself
    malcolm = fixture_questions[0]
    signature = question_signature(malcolm, classify(malcolm, ten_state.hints))
    stored = ten_state.kb.lookup(signature)
    blocked = (bool(stored)
               and [p for p in stored if "q01" not in p.source_questions] == []
               and all("q01" not in r.newly_correct for r in ten.revision)
               and all("q01" in r.retried for r in ten.revision))
    assert report(
        "revision-properties", rescued_ten >= 1 and ordering and blocked,
        f"interval-10 rescued {rescued_ten}; corrects no-rev/10/5 = "
        f"{final['base']}/{final['ten']}/{final['five']}; "
        f"self-exclusion blocked: {blocked}")


def test_determinism_end_to_end(tmp_path):
    from patternqa.cli import main

    digests = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        code = main(["run", "--scenario", "2",
                     "--corpus", str(FIXTURES / "qa30.jsonl"),
                     "--docs", str(FIXTURES / "docs.jsonl"),
                     "--revise-interval", "10",
                     "--out-dir", str(out_dir)])
        assert code == 0
        digests.append(tuple(
            (f.name, f.read_bytes())
            for f in sorted(out_dir.iterdir()) if f.suffix in (".jsonl", ".csv")
        ))
    ok = digests[0] == digests[1]
    assert report("determinism", ok,
                  f"{len(digests[0])} files compared byte-for-byte")


def test_tutor_repl_transcript(tmp_path):
    kb_out = tmp_path / "kb.json"
    transcript = (
        f"ask {DANTE_QUESTION_PARSE}\n"
        "answer Dante\n"
        f"ask {HAMLET_QUESTION_PARSE}\n"
        "y\n"
        "quit\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "patternqa.cli", "tutor",
         "--docs", str(FIXTURES / "docs.jsonl"), "--kb-out", str(kb_out)],
        input=transcript, capture_output=True, text=True, timeout=60,
    )
    taught = "learned 1 new patterns" in proc.stdout
    answered = "answer: Shakespeare" in proc.stdout
    kb = json.loads(kb_out.read_text()) if kb_out.is_file() else {}
    kb_ok = bool(kb.get("signatures") and kb["signatures"][0]["patterns"])
    ok = proc.returncode == 0 and taught and answered and kb_ok
    assert report("tutor-repl-transcript", ok,
                  f"taught={taught} answered={answered} kb_patterns={kb_ok}")
