import csv

import pytest
from hypothesis import example, given, settings, strategies as st

from patternqa.evaluation import EvalPoint, f_measure, make_point, running_metrics, series_lines
from patternqa.pipeline import CheckpointReport, Outcome
from patternqa.unification import CandidateAnswer

from .oracles import count_metrics_oracle, series_csv_oracle

HEADER = "i,P,R,F,correct,answered,P_fallback_answered,F_fallback_answered,answered_fallback\r\n"


def read_series(lines) -> list[EvalPoint]:
    """The primary columns of the CSV lines that ``series_lines`` renders."""
    return [
        EvalPoint(i=int(row["i"]), p=float(row["P"]), r=float(row["R"]), f=float(row["F"]),
                  correct=int(row["correct"]), answered=int(row["answered"]))
        for row in csv.DictReader(lines)
    ]


def outcome(qid, correct, answered, fallback=False):
    return Outcome(
        question_id=qid,
        category="ENTY:other",
        candidates=[object()] * (1 if answered else 0),
        final=CandidateAnswer("x", (0, 1), "pattern") if correct else None,
        fallback_used=fallback,
        patterns_learned=0,
    )


def test_all_correct_gives_ones():
    outcomes = [outcome(f"q{i}", True, True) for i in range(5)]
    for point in running_metrics(outcomes)[0]:
        assert point.p == point.r == point.f == 1.0


def test_published_endpoint_arithmetic():
    assert f_measure(0.435, 0.127) == pytest.approx(0.1966, abs=5e-5)
    assert f_measure(0.792, 0.451) == pytest.approx(0.5747, abs=5e-5)
    assert f_measure(0.0, 0.0) == 0.0


def test_series_against_counting_oracle():
    flags = [True, False, True, True, False, False, True] * 4 + [False, True]
    outcomes = []
    for i, correct in enumerate(flags[:30]):
        answered = correct or i % 3 == 0
        outcomes.append(outcome(f"q{i}", correct, answered))
    points = running_metrics(outcomes)[0]
    records = [{"id": o.question_id, "correct": o.correct, "candidates": o.candidates,
                "fallback_used": o.fallback_used} for o in outcomes]
    for point, (i, p, r, _, _) in zip(points, count_metrics_oracle(records)):
        assert point.i == i
        assert point.p == pytest.approx(p)
        assert point.r == pytest.approx(r)


def test_fallback_not_counted_as_answered():
    outcomes = [outcome("q1", False, False, fallback=True), outcome("q2", True, True)]
    points, alt = running_metrics(outcomes)
    assert points[0].answered == 0 and points[0].p == 1.0
    assert points[1].answered == 1 and points[1].p == 1.0
    assert alt[0].answered == 1 and alt[0].p == 0.0
    assert alt[1].answered == 2 and alt[1].p == 0.5


def test_fallback_is_never_correct_in_series():
    # pipeline invariant mirrored in counting: a fallback outcome always has
    # correct=False, so the correct count cannot include it
    outcomes = [outcome("q1", False, False, fallback=True)] * 3
    assert running_metrics(outcomes)[0][-1].correct == 0


def test_rescued_questions_count_from_the_point_after_their_checkpoint():
    outcomes = [outcome("q1", False, False, fallback=True), outcome("q2", False, True),
                outcome("q3", True, True), outcome("q4", False, False), outcome("q5", True, True)]
    revision = [CheckpointReport(2, ["q1", "q2"], ["q1", "q2"]),
                CheckpointReport(4, ["q1", "q4"], ["q4"])]

    def counts(points):
        return [(point.correct, point.answered) for point in points]

    assert counts(running_metrics(outcomes)[0]) == [(0, 0), (0, 1), (1, 2), (1, 2), (2, 3)]
    assert counts(running_metrics(outcomes, revision)[0]) == \
        [(0, 0), (0, 1), (3, 3), (3, 3), (5, 5)]
    # q1's fallback and q2's candidates already count as answered: not twice
    assert counts(running_metrics(outcomes, revision)[1]) == \
        [(0, 1), (0, 2), (3, 3), (3, 3), (5, 5)]


def test_precision_at_least_recall():
    flags = [(True, True), (False, True), (False, False), (True, True), (False, True)]
    outcomes = [outcome(f"q{i}", c, a) for i, (c, a) in enumerate(flags)]
    for point in running_metrics(outcomes)[0]:
        assert point.p >= point.r


@given(st.floats(0, 1), st.floats(0, 1))
def test_f_between_min_and_max(p, r):
    f = f_measure(p, r)
    if p + r > 0:
        assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12
    else:
        assert f == 0.0


def test_make_point_zero_answered_convention():
    point = make_point(3, 0, 0)
    assert point.p == 1.0
    assert point.r == 0.0
    assert point.answered == 0  # the exported flag for the convention


def test_export_roundtrip():
    points = [make_point(1, 1, 1), make_point(2, 1, 2), make_point(3, 2, 3)]
    lines = list(series_lines(points, points))
    parsed = read_series(lines)
    assert len(parsed) == 3
    assert lines[0] == HEADER
    for original, loaded in zip(points, parsed):
        assert loaded.i == original.i
        assert loaded.correct == original.correct
        assert loaded.answered == original.answered
        assert loaded.p == pytest.approx(original.p, abs=5e-5)
        assert loaded.r == pytest.approx(original.r, abs=5e-5)
        assert loaded.f == pytest.approx(original.f, abs=5e-5)


def test_export_three_points_is_four_lines():
    points = [make_point(1, 0, 0), make_point(2, 1, 1), make_point(3, 1, 2)]
    assert len(list(series_lines(points, points))) == 4


def test_export_with_alternate_series():
    points = [make_point(1, 0, 0)]
    alt = [make_point(1, 0, 1)]
    header, row = "".join(series_lines(points, alt)).splitlines()
    assert header.startswith("i,P,R,F,correct,answered")
    assert "P_fallback_answered" in header
    assert row.split(",")[6] == "0.0000"


@st.composite
def series_pairs(draw) -> tuple[list[EvalPoint], list[EvalPoint]]:
    """A series and its alternate, as ``running_metrics`` counts them: at
    each point no more correct than answered, and the alternate answered
    count at least the plain one; the answered count is often 0."""
    points, alt_points = [], []
    for i in range(1, draw(st.integers(0, 8)) + 1):
        answered = draw(st.integers(0, i))
        correct = draw(st.integers(0, answered))
        points.append(make_point(i, correct, answered))
        alt_points.append(make_point(i, correct, draw(st.integers(answered, i))))
    return points, alt_points


@settings(max_examples=60, deadline=None)
@given(series_pairs())
@example(([make_point(1, 0, 0)], [make_point(1, 0, 0)]))
@example(([make_point(20000, 19999, 20000)], [make_point(20000, 1, 3)]))  # rounds up to 1.0000
def test_series_lines_match_the_csv_writer_oracle(pair):
    points, alt_points = pair
    assert "".join(series_lines(points, alt_points)) == series_csv_oracle(points, alt_points)
