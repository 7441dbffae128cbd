"""Rank-based AUC, standard errors, raw accuracy, and evaluation reports."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import BadValueError, EmptyListError, SingleClassError


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x; tied values share the mean of the ranks they span."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    edges = np.empty(len(xs) + 1, dtype=bool)  # where a tie run starts, and the end
    edges[0] = edges[-1] = True
    np.not_equal(xs[1:], xs[:-1], out=edges[1:-1])
    bounds = np.flatnonzero(edges)
    starts, ends = bounds[:-1], bounds[1:]
    ranks = np.empty(len(xs))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def auc_values(scores, labels) -> float:
    """Probability that a random positive outscores a random negative.

    Mann-Whitney form: mid-ranks handle ties with half credit, so the result
    equals exhaustive pair counting in O(n log n).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise BadValueError("scores and labels must be aligned 1-D arrays")
    if not np.all(np.isfinite(scores)):
        raise BadValueError("scores must be finite")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError(
            f"AUC undefined with {n_pos} positives and {n_neg} negatives"
        )
    ranks = _midranks(scores)
    rank_sum = float(np.sum(ranks[labels == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def sem(values: Sequence[float]) -> float:
    """Standard error of the mean: sample std (n-1 denominator) over sqrt(n)."""
    values = np.asarray(list(values), dtype=np.float64)
    if len(values) == 0:
        raise EmptyListError("sem of an empty list")
    if len(values) == 1 or np.all(values == values[0]):
        return 0.0
    return float(values.std(ddof=1) / np.sqrt(len(values)))


def raw_accuracy(scores, labels, threshold: float = 0.5) -> float:
    """Fraction of students where [score >= threshold] equals the label."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise BadValueError("scores and labels must be aligned 1-D arrays")
    return float(np.mean((scores >= threshold).astype(int) == labels))


@dataclass(frozen=True)
class EvalRow:
    """AUC for one (paradigm, course, week) cell."""

    paradigm: str
    course_id: str
    week: int
    auc: float
    n_students: int
    n_positives: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.auc <= 1.0):
            raise BadValueError(f"auc {self.auc} outside [0, 1]")
        if self.n_positives > self.n_students:
            raise BadValueError(
                f"n_positives {self.n_positives} exceeds n_students {self.n_students}"
            )


@dataclass(frozen=True)
class EvalAggregate:
    """Across-course mean AUC with its standard error for one (paradigm, week)."""

    paradigm: str
    week: int
    mean_auc: float
    sem: float
    n_courses: int

    def __post_init__(self) -> None:
        if self.sem < 0:
            raise BadValueError(f"sem {self.sem} must be >= 0")


def aggregate(rows: Iterable[EvalRow]) -> tuple[EvalAggregate, ...]:
    """Group rows by (paradigm, week) and average AUC across courses."""
    groups: dict[tuple[str, int], list[float]] = {}
    for r in rows:
        groups.setdefault((r.paradigm, r.week), []).append(r.auc)
    out = []
    for (paradigm, week) in sorted(groups):
        vals = groups[(paradigm, week)]
        out.append(EvalAggregate(paradigm, week, float(np.mean(vals)), sem(vals), len(vals)))
    return tuple(out)


@dataclass(frozen=True)
class EvalReport:
    """All cell results of one experiment plus their weekly aggregates.

    skipped records cells that produced no AUC (a single-class week, or no
    source course to transfer from) as (paradigm, course_id, week, reason);
    they are excluded from aggregates rather than imputed. Each
    (paradigm, course_id, week) cell appears once, as a row or as skipped.
    """

    rows: tuple[EvalRow, ...]
    aggregates: tuple[EvalAggregate, ...]
    skipped: tuple[tuple[str, str, int, str], ...] = field(default_factory=tuple)

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[EvalRow],
        skipped: Iterable[tuple[str, str, int, str]] = (),
    ) -> "EvalReport":
        ordered = tuple(sorted(rows, key=lambda r: (r.paradigm, r.course_id, r.week)))
        skipped = tuple(sorted(skipped))
        seen: set[tuple[str, str, int]] = set()
        for cell in [(r.paradigm, r.course_id, r.week) for r in ordered] + [s[:3] for s in skipped]:
            if cell in seen:
                raise BadValueError(f"cell (paradigm, course_id, week) {cell} is listed twice")
            seen.add(cell)
        return cls(ordered, aggregate(ordered), skipped)


ROWS_COLUMNS = ("paradigm", "course_id", "week", "auc", "n_students", "n_positives")
SKIPPED_COLUMNS = ("paradigm", "course_id", "week", "reason")


def _fmt(v: float) -> str:
    return repr(float(v))


def emit_report(report: EvalReport, out_dir: str | Path) -> dict[str, Path]:
    """Write rows.csv, skipped.csv, aggregate.csv, and a fixed-width summary grid.

    Byte-deterministic for a fixed report: stable ordering, repr floats, no
    timestamps. skipped.csv is header-only when no cell was skipped.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "rows": out / "rows.csv",
        "skipped": out / "skipped.csv",
        "aggregate": out / "aggregate.csv",
        "summary": out / "summary.txt",
    }
    with open(paths["rows"], "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(ROWS_COLUMNS)
        for r in report.rows:
            w.writerow((r.paradigm, r.course_id, r.week, _fmt(r.auc), r.n_students, r.n_positives))
    with open(paths["skipped"], "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(SKIPPED_COLUMNS)
        w.writerows(report.skipped)
    with open(paths["aggregate"], "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(("paradigm", "week", "mean_auc", "sem", "n_courses"))
        for a in report.aggregates:
            w.writerow((a.paradigm, a.week, _fmt(a.mean_auc), _fmt(a.sem), a.n_courses))
    paths["summary"].write_text(render_summary(report), encoding="utf-8")
    return paths


def render_summary(report: EvalReport) -> str:
    """Paradigm-by-week grid of mean AUC (SEM in parentheses)."""
    weeks = sorted({a.week for a in report.aggregates})
    paradigms = sorted({a.paradigm for a in report.aggregates})
    cell = {(a.paradigm, a.week): a for a in report.aggregates}
    name_w = max([len("paradigm")] + [len(p) for p in paradigms])
    col_w = 17
    lines = ["Mean AUC by paradigm and week (SEM in parentheses)", ""]
    header = "paradigm".ljust(name_w) + "".join(f"w{w:+d}".rjust(col_w) for w in weeks)
    lines.append(header)
    lines.append("-" * len(header))
    for p in paradigms:
        row = p.ljust(name_w)
        for w in weeks:
            a = cell.get((p, w))
            row += ("-".rjust(col_w) if a is None
                    else f"{a.mean_auc:.4f} ({a.sem:.4f})".rjust(col_w))
        lines.append(row)
    lines.append("")
    lines.append(f"rows: {len(report.rows)}   skipped cells: {len(report.skipped)}")
    for paradigm, course_id, week, reason in report.skipped:
        lines.append(f"  skipped {paradigm} {course_id} w{week:+d}: {reason}")
    return "\n".join(lines) + "\n"
