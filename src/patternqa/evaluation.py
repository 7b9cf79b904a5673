"""Running precision/recall/F-measure over an outcome sequence, with or
without the questions rescued at revision checkpoints, and CSV export of
the resulting series."""

from __future__ import annotations

import csv
from typing import NamedTuple


class EvalPoint(NamedTuple):
    i: int  # 1-based question index
    p: float
    r: float
    f: float
    correct: int
    answered: int


def f_measure(p: float, r: float) -> float:
    """Balanced F1; 0 when both inputs are 0."""
    if p + r == 0.0:
        return 0.0
    return 2.0 * p * r / (p + r)


def make_point(i: int, correct: int, answered: int) -> EvalPoint:
    # P is 1.0 by convention while nothing has been answered (answered == 0
    # in the exported row flags the convention).
    p = correct / answered if answered else 1.0
    r = correct / i
    return EvalPoint(i, p, r, f_measure(p, r), correct, answered)


def running_metrics(outcomes, revision=()) -> tuple[list[EvalPoint], list[EvalPoint]]:
    """One point per prefix of the outcome sequence under each answered
    convention, both counted in one walk: the one place a run's P/R/F
    series are counted. Returns the plain series, then the alternate one.

    A question counts as answered when the system produced any candidate
    (:attr:`Outcome.answered`); tutor-supplied fallback answers are not
    system answers. The alternate convention (fallback as answered) also
    counts fallback questions in the precision denominator.

    ``revision`` holds the run's checkpoint reports. A question rescued at
    checkpoint ``c`` counts as correct, and as answered unless its outcome
    already counts, from point ``c + 1`` on.
    """
    rescued: dict[int, list[str]] = {}
    for report in revision:
        rescued.setdefault(report.checkpoint + 1, []).extend(report.newly_correct)
    seen = {}  # question id -> its outcome, up to the current point
    points, alt_points = [], []
    correct = answered = alt_answered = 0
    for i, outcome in enumerate(outcomes, 1):
        for qid in rescued.get(i, ()):
            earlier = seen[qid]
            correct += 1
            answered += not earlier.answered
            alt_answered += not (earlier.answered or earlier.fallback_used)
        seen[outcome.question_id] = outcome
        correct += bool(outcome.correct)
        answered += outcome.answered
        alt_answered += outcome.answered or outcome.fallback_used
        points.append(make_point(i, correct, answered))
        alt_points.append(make_point(i, correct, alt_answered))
    return points, alt_points


def export_series(points: list[EvalPoint], path, alt_points: list[EvalPoint] | None = None) -> None:
    """CSV with header i,P,R,F,correct,answered; reals at 4 decimal places.
    When the alternate (fallback-as-answered) series is given, it is
    appended as extra columns of the same file."""
    header = ["i", "P", "R", "F", "correct", "answered"]
    if alt_points is not None:
        header += ["P_fallback_answered", "F_fallback_answered", "answered_fallback"]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for idx, point in enumerate(points):
            row = [point.i, f"{point.p:.4f}", f"{point.r:.4f}", f"{point.f:.4f}",
                   point.correct, point.answered]
            if alt_points is not None:
                alt = alt_points[idx]
                row += [f"{alt.p:.4f}", f"{alt.f:.4f}", alt.answered]
            writer.writerow(row)

