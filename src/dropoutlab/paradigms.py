"""Training paradigms and the weekly prediction schedule.

Week indexing is anchored to each course's T100% date (week 0); negative
weeks count backward toward launch. Four paradigms plus two baselines score
every enrolled student at each eligible week:

  post_hoc     train and score the target course with its own end-of-course
               labels (optimistic upper bound, unusable live)
  same_field   train on the largest same-field course, deploy cross-course
  multi_course train on every other course, average the hyperplanes
  in_situ      train during the course itself on persistence proxy labels;
               certification labels are structurally out of reach
  baseline1    demographics-only logistic regression
  baseline2    recency ranking, no learning

A paradigm's source courses are never passed in: source_courses derives
them from (corpus, kind, target), and run_paradigm(corpus, kind, target_id, w)
scores one cell as two arrays in one row order, (scores, labels), so
auc_values(*run_paradigm(...)) is its AUC. post_hoc with holdout > 0 scores
only the students that features.holdout_split holds out, against their labels.

run_experiment first plans the run: each cell's model keys, derived once by
_cell_keys, are a (course, date) model for post_hoc at holdout 0 and for each
same_field and multi_course source, and one baseline1 model per course; a
cell with no source course is recorded as skipped before any fit. Two phases
of one task per course follow. A course's fit task fits its keys once, in
date order over one walk of its snapshots, into a table that holds models
only, never a feature matrix. A target's score task walks its eligible weeks
once: a week's snapshot is built once and z-scored at most once, and every
cell scored that week reads it with its keys' models. in_situ and post_hoc
with holdout > 0 train inside their cells and read no key. With jobs > 1, one
process pool runs the fit tasks and then the score tasks. A cell is skipped
too when a training set, or the labels it is ranked against, hold one class.
"""

from __future__ import annotations

import datetime
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

from .dataset import CLICKSTREAM_FEATURES, ActivityTable, CourseData, CourseMeta, Roster
from .errors import (
    BadValueError,
    BeforeLaunchError,
    InvalidParadigmError,
    SingleClassError,
    WindowOutOfRangeError,
)
from .evaluate import EvalReport, EvalRow, auc_values
from .features import (
    FeatureMatrix,
    apply_zscore,
    build_matrix,
    holdout_split,
    normalize,
    percentile_within,
    snapshots,
)
from .linear import (
    LinearModel,
    average_hyperplanes,
    baseline_demographics,
    baseline_recency,
    predict_proba,
    score_demographics,
    train_logreg,
)

PARADIGMS: tuple[str, ...] = (
    "post_hoc", "same_field", "multi_course", "in_situ", "baseline1", "baseline2",
)

# Minimum days of data since launch before a paradigm can produce a model:
# post_hoc wants the first week of activity on record; in_situ wants a week of
# activity before its proxy window, the 7 days before week_date(w). The week-w
# snapshot in_situ trains on runs through that window.
_MIN_DAYS: dict[str, int] = {
    "post_hoc": 7,
    "same_field": 0,
    "multi_course": 0,
    "in_situ": 14,
    "baseline1": 0,
    "baseline2": 0,
}


def week_date(meta: CourseMeta, w: int) -> datetime.date:
    """Calendar date of week w: t100_date + 7*w days (week 0 = T100%)."""
    d = meta.t100_date + datetime.timedelta(days=7 * w)
    if d < meta.launch_date:
        raise BeforeLaunchError(
            f"course {meta.course_id!r}: week {w} falls on {d}, "
            f"before launch {meta.launch_date}"
        )
    return d


def prediction_weeks(meta: CourseMeta, kind: str) -> list[int]:
    """Eligible week indices for a paradigm, earliest first, ending at 0."""
    if kind not in PARADIGMS:
        raise InvalidParadigmError(f"unknown paradigm {kind!r} (expected one of {PARADIGMS})")
    gap = (meta.t100_date - meta.launch_date).days
    min_days = _MIN_DAYS[kind]
    if gap < min_days:
        return []
    w_lo = -((gap - min_days) // 7)
    return list(range(w_lo, 1))


def proxy_labels(course: CourseData, w: int) -> np.ndarray:
    """Persistence labels in student-id order: 1.0 for activity (nevents > 0)
    in the 7 days before week w, else 0.0.

    The window [week_date(w)-7, week_date(w)-1] must lie inside
    [launch_date, t100_date].
    """
    meta = course.meta
    wd = meta.t100_date + datetime.timedelta(days=7 * w)
    lo = wd - datetime.timedelta(days=7)
    hi = wd - datetime.timedelta(days=1)
    if lo < meta.launch_date or hi > meta.t100_date:
        raise WindowOutOfRangeError(
            f"course {meta.course_id!r}: proxy window [{lo}, {hi}] not inside "
            f"[{meta.launch_date}, {meta.t100_date}]"
        )
    lo_off, hi_off = course.day_offset(lo), course.day_offset(hi)
    table = course.activity
    nevents = table.values[:, CLICKSTREAM_FEATURES.index("nevents")]
    mask = (table.day >= lo_off) & (table.day <= hi_off) & (nevents > 0)
    active = np.zeros(course.n_students)
    active[table.student_index[mask]] = 1.0
    return active


def _corpus_index(corpus: Sequence[CourseData]) -> dict[str, CourseData]:
    by_id = {c.meta.course_id: c for c in corpus}
    if len(by_id) != len(corpus):
        raise BadValueError("corpus contains duplicate course ids")
    return by_id


def largest_same_field_source(corpus: Sequence[CourseData], target_id: str) -> str | None:
    """The biggest other course sharing the target's field; ties go to the
    lexicographically smaller course_id. None when the field is unique."""
    by_id = _corpus_index(corpus)
    target = by_id[target_id]
    candidates = [
        c for c in corpus
        if c.meta.course_id != target_id and c.meta.field == target.meta.field
    ]
    if not candidates:
        return None
    best = min(candidates, key=lambda c: (-c.n_students, c.meta.course_id))
    return best.meta.course_id


def source_courses(corpus: Sequence[CourseData], kind: str, target_id: str) -> tuple[str, ...]:
    """The courses a paradigm trains on for a given target: the largest other
    same-field course for same_field, every other course (sorted) for
    multi_course, none for the rest."""
    by_id = _corpus_index(corpus)
    if kind not in PARADIGMS:
        raise InvalidParadigmError(f"unknown paradigm {kind!r}")
    if target_id not in by_id:
        raise InvalidParadigmError(f"target course {target_id!r} not in corpus")
    if kind == "same_field":
        source = largest_same_field_source(corpus, target_id)
        if source is None:
            raise InvalidParadigmError(
                f"no other {by_id[target_id].meta.field} course to train same_field "
                f"for {target_id!r}"
            )
        return (source,)
    if kind == "multi_course":
        sources = tuple(sorted(cid for cid in by_id if cid != target_id))
        if not sources:
            raise InvalidParadigmError("multi_course needs at least one other course")
        return sources
    return ()


def fit_course_model(
    course: CourseData, m: FeatureMatrix, C: float = 1.0
) -> tuple[LinearModel, FeatureMatrix]:
    """Logistic model on a snapshot of the course, z-scored, and the course's own labels.

    m is the course's feature matrix at some date (build_matrix, or one step
    of snapshots). Returns the model (carrying the zscore stats) and the
    z-scored matrix it was fit on.
    """
    if m.student_ids != course.roster.student_ids:
        raise BadValueError(f"the snapshot's rows are not the roster of {course.meta.course_id!r}")
    stats, (z,) = normalize(m, [m], "zscore")
    return train_logreg(z, course.certified, C, norm=stats), z


def _source_date(meta: CourseMeta, w: int) -> datetime.date:
    """A source course's own week-w date, clamped to its launch."""
    return max(meta.t100_date + datetime.timedelta(days=7 * w), meta.launch_date)


def insitu_scores(
    meta: CourseMeta,
    roster: Roster,
    activity: ActivityTable,
    w: int,
    C: float = 1.0,
    snapshot: FeatureMatrix | None = None,
) -> np.ndarray:
    """Score a live course at week w using only data available at week w.

    Takes the course apart on purpose: no grade table is accepted, so
    certification labels cannot influence this path. snapshot is the week-w
    feature matrix when the caller has built it (a run builds each week's
    once for every paradigm); it holds features only. Without it, the
    snapshot is built from the roster and activity. The model is trained on
    that snapshot, percentile-normalized against itself, with the persistence
    proxy labels of the 7 days before week w; the snapshot contains the
    proxy window. The same snapshot is then scored, one score per student.
    """
    shadow = CourseData(meta, roster, activity, {})
    wd = week_date(meta, w)
    if snapshot is None:
        snapshot = build_matrix(shadow, wd)
    elif snapshot.as_of != wd or snapshot.student_ids != roster.student_ids:
        raise BadValueError(f"course {meta.course_id!r}: the snapshot is not the roster's at {wd}")
    p = percentile_within(snapshot)
    return predict_proba(train_logreg(p, proxy_labels(shadow, w), C), p)


# A model-table key: (course_id, as_of) names the course's logistic model on
# its z-scored snapshot at as_of, (course_id, None) its baseline1 model.
ModelKey = tuple[str, datetime.date | None]


def _cell_keys(
    corpus: Sequence[CourseData], kind: str, target_id: str, w: int, holdout: float
) -> tuple[ModelKey, ...]:
    """The model-table keys one cell reads, in the order it reads them.

    Checks the cell first, so an unknown paradigm or target, a missing source
    course or an ineligible week raises before any model is fit. in_situ,
    baseline2 and post_hoc with holdout > 0 read no key.
    """
    sources = source_courses(corpus, kind, target_id)
    by_id = _corpus_index(corpus)
    target = by_id[target_id]
    if w not in prediction_weeks(target.meta, kind):
        raise WindowOutOfRangeError(f"week {w} not eligible for {kind} on {target_id!r}")
    if kind == "post_hoc" and holdout <= 0.0:
        return ((target_id, week_date(target.meta, w)),)
    if kind == "baseline1":
        return ((target_id, None),)
    return tuple((cid, _source_date(by_id[cid].meta, w)) for cid in sources)


def _kept(fit: Callable[[], LinearModel]) -> LinearModel | SingleClassError:
    """fit(), or its single-class error without the traceback that would hold
    the fit's feature matrices."""
    try:
        return fit()
    except SingleClassError as e:
        return e.with_traceback(None)


def _fit_course_keys(
    course: CourseData, dates: Sequence[datetime.date | None], C: float
) -> dict[ModelKey, LinearModel | SingleClassError]:
    """The models of one course's table keys, (course_id, as_of) for as_of in dates.

    None names the baseline1 model. The dated models are fit in ascending
    date order over one walk of the course's snapshots.
    """
    cid = course.meta.course_id
    models: dict[ModelKey, LinearModel | SingleClassError] = {}
    if None in dates:
        models[cid, None] = _kept(lambda: baseline_demographics(course, C))
    for m in snapshots(course, sorted(d for d in dates if d is not None)):
        models[cid, m.as_of] = _kept(lambda: fit_course_model(course, m, C)[0])
    return models


class _Week:
    """One target week's raw snapshot (None where no cell reads one) and,
    computed on first use, its own z-score."""

    def __init__(self, m: FeatureMatrix | None):
        self.m = m

    @cached_property
    def z(self) -> FeatureMatrix:
        return normalize(self.m, [self.m], "zscore")[1][0]


def _score_cell(
    kind: str,
    target: CourseData,
    w: int,
    fitted: Sequence[LinearModel | SingleClassError],
    C: float,
    holdout: float,
    seed: int,
    week: _Week,
) -> tuple[np.ndarray, np.ndarray]:
    """Score one cell; returns (scores, labels), a score and a certification
    label per student scored, in one row order: every student of the target,
    in student-id order, but for post_hoc with holdout > 0, the held-out ones.

    fitted holds the models of the cell's _cell_keys in key order, and week
    the target's week-w snapshot; the first model whose fit failed re-raises
    its error.
    """
    for model in fitted:
        if isinstance(model, SingleClassError):
            raise model.with_traceback(None)
    y = target.certified

    if kind == "post_hoc" and holdout <= 0.0:
        # the course model's z-score stats were fit on this very snapshot,
        # so the week's own z-score has the bits of applying them
        return predict_proba(fitted[0], week.z), y

    if kind == "same_field":
        # one course model, deployed with the z-score stats it was fit with
        (model,) = fitted
        return predict_proba(model, apply_zscore(week.m, model.norm)), y

    if kind == "post_hoc":  # holdout > 0: only the held-out students are scored
        stats, z_train, y_train, z_test, y_test = holdout_split(week.m, y, holdout, seed, "zscore")
        return predict_proba(train_logreg(z_train, y_train, C, norm=stats), z_test), y_test

    if kind == "multi_course":
        return predict_proba(average_hyperplanes(fitted), week.z), y

    if kind == "in_situ":
        return insitu_scores(target.meta, target.roster, target.activity, w, C, week.m), y

    if kind == "baseline1":
        return score_demographics(fitted[0], target), y

    if kind == "baseline2":
        return baseline_recency(week.m), y

    raise InvalidParadigmError(f"unknown paradigm {kind!r}")


def run_paradigm(
    corpus: Sequence[CourseData],
    kind: str,
    target_id: str,
    w: int,
    C: float = 1.0,
    holdout: float = 0.0,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Score the target course's students at week w under one paradigm, as
    _score_cell's (scores, labels); auc_values(*run_paradigm(...)) is its AUC.

    The source courses follow from (corpus, kind, target_id); see
    source_courses. holdout (post_hoc only) trains on a seeded (1 - holdout)
    fraction and scores the held-out students alone; 0 keeps the literal
    same-population regime. Only the models of this one cell's keys are fit,
    and it is scored as run_experiment scores its cells.
    """
    by_id = _corpus_index(corpus)
    fitted = [_fit_course_keys(by_id[cid], [as_of], C)[cid, as_of]
              for cid, as_of in _cell_keys(corpus, kind, target_id, w, holdout)]
    target = by_id[target_id]
    week = _Week(None if kind == "baseline1" else build_matrix(target, week_date(target.meta, w)))
    return _score_cell(kind, target, w, fitted, C, holdout, seed, week)


# ---------------------------------------------------------------------------
# Experiment harness
# ---------------------------------------------------------------------------

_WORKER_CORPUS: list[CourseData] | None = None


def _init_worker(corpus: list[CourseData] | None) -> None:
    global _WORKER_CORPUS
    _WORKER_CORPUS = corpus


@contextmanager
def _corpus_map(corpus: list[CourseData], jobs: int):
    """A map(fn, items) over workers that hold the corpus: one process pool
    when jobs > 1, this process otherwise. The corpus is dropped on exit."""
    if jobs > 1:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(corpus,)
        ) as pool:
            yield lambda fn, items: list(pool.map(fn, items))
        return
    _init_worker(corpus)
    try:
        yield lambda fn, items: [fn(item) for item in items]
    finally:
        _init_worker(None)


def _fit_course_entry(args) -> dict[ModelKey, LinearModel | SingleClassError]:
    course_id, dates, C = args
    return _fit_course_keys(_corpus_index(_WORKER_CORPUS)[course_id], dates, C)


# One target course's share of a run's plan: its cells that can be scored, as
# (week, paradigm, model keys) in week order, paradigms in run order within a week.
_Cells = list[tuple[int, str, tuple[ModelKey, ...]]]


def _score_course(args) -> tuple[list[tuple], list[tuple]]:
    """The rows and skipped records of one target's planned cells, each given
    with its keys' models. One walk over the weeks where some paradigm reads a
    snapshot builds each week's snapshot once, for every cell of that week.
    """
    target_id, cells, C, holdout, seed = args
    target = _corpus_index(_WORKER_CORPUS)[target_id]
    read = sorted({w for w, kind, _ in cells if kind != "baseline1"})
    walk = snapshots(target, [week_date(target.meta, w) for w in read])
    rows: list[tuple] = []
    skipped: list[tuple] = []
    for w, week_cells in groupby(cells, key=itemgetter(0)):
        week = _Week(next(walk) if w in read else None)
        for _, kind, fitted in week_cells:
            try:
                scores, y = _score_cell(kind, target, w, fitted, C, holdout, seed, week)
                rows.append((kind, target_id, w, auc_values(scores, y), len(y), int(y.sum())))
            except SingleClassError as e:
                skipped.append((kind, target_id, w, str(e)))
    return rows, skipped


def run_experiment(
    corpus: Sequence[CourseData],
    paradigm_kinds: Sequence[str] = PARADIGMS,
    C: float = 1.0,
    holdout: float = 0.0,
    seed: int = 0,
    jobs: int = 1,
) -> EvalReport:
    """Every course x paradigm x eligible week, scored against true labels.

    One plan, then two phases of one task per course. The plan holds each
    cell's model keys, derived once; a cell with no source course is recorded
    as skipped before any fit. The fit phase fits the union of the plan's
    keys: a course's task fits its keys once, in date order over one walk of
    its snapshots, into a table of models (no feature matrices). A key whose
    training set has a single class keeps its error, and every cell that
    reads it is skipped with that reason. The score phase walks each target
    course's weeks once and scores every planned cell of a week from one
    snapshot, z-scored at most once, and its keys' models. jobs > 1 runs both
    phases on one process pool: first the fit tasks, then the score tasks.
    The table lives only for this call, and the report sorts rows and skipped
    cells, so it is identical for any jobs value. A kind listed twice is
    rejected: its rows would enter every aggregate twice.
    """
    if len(corpus) == 0:
        raise BadValueError("corpus must be non-empty")
    for i, kind in enumerate(paradigm_kinds):
        if kind not in PARADIGMS:
            raise InvalidParadigmError(f"unknown paradigm {kind!r}")
        if kind in paradigm_kinds[:i]:
            raise InvalidParadigmError(f"paradigm {kind!r} is listed more than once")
    corpus = list(corpus)
    by_id = _corpus_index(corpus)
    plan: dict[str, _Cells] = {}
    skipped: list[tuple] = []
    for cid in sorted(by_id):
        cells: _Cells = []
        for kind in paradigm_kinds:
            for w in prediction_weeks(by_id[cid].meta, kind):
                try:
                    cells.append((w, kind, _cell_keys(corpus, kind, cid, w, holdout)))
                except InvalidParadigmError as e:  # e.g. no same-field source
                    skipped.append((kind, cid, w, str(e)))
        plan[cid] = sorted(cells, key=itemgetter(0))  # stable: run order within a week
    dates: dict[str, list[datetime.date | None]] = {}
    for cid, as_of in dict.fromkeys(key for cells in plan.values() for *_, keys in cells
                                    for key in keys):
        dates.setdefault(cid, []).append(as_of)
    with _corpus_map(corpus, jobs) as corpus_map:
        table: dict[ModelKey, LinearModel | SingleClassError] = {}
        for models in corpus_map(_fit_course_entry, [(cid, dates[cid], C) for cid in sorted(dates)]):
            table.update(models)
        results = corpus_map(_score_course, [
            (cid, [(w, kind, [table[key] for key in keys]) for w, kind, keys in cells],
             C, holdout, seed)
            for cid, cells in plan.items()
        ])
    return EvalReport.from_rows([EvalRow(*r) for rows, _ in results for r in rows],
                                skipped + [s for _, skips in results for s in skips])
