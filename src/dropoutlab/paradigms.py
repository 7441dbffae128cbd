"""The experiment harness: the paradigms' weekly schedule and cells, and run_experiment.

Weeks are dataset.week_date's, anchored to each course's T100% date (week 0);
negative weeks count backward toward launch. The paradigms, named in
settings.PARADIGMS, are four plus two baselines that score every enrolled
student at each eligible week:

  post_hoc     train and score the target course with its own end-of-course
               labels (optimistic upper bound, unusable live)
  same_field   train on the largest same-field course, deploy cross-course
  multi_course train on every other course, average the hyperplanes
  in_situ      train during the course itself on persistence proxy labels;
               certification labels are structurally out of reach
  baseline1    demographics-only logistic regression, trained on the target's
               own certification labels: a post-hoc-regime baseline like
               post_hoc, unusable live
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
once: a week's snapshot is built once, and every cell scored that week reads
it with its keys' models, a course model through the stats it carries
(apply_norm), multi_course through the snapshot's own z-score, computed at
most once. in_situ and post_hoc with holdout > 0 train inside their cells and
read no key. With jobs > 1, the workers of settings.forked run the fit
tasks, and then workers forked from the complete table run the score tasks.
A cell is skipped too when a training set, or the labels it is ranked
against, hold one class.
"""

from __future__ import annotations

import datetime
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

from .dataset import CLICKSTREAM_FEATURES, CourseData, CourseMeta, week_date
from .errors import (BadValueError, BeforeLaunchError, InvalidParadigmError, SingleClassError,
                     WindowOutOfRangeError)
from .evaluate import EvalReport, EvalRow, auc_values
from .features import (
    FeatureMatrix,
    _test_size,
    apply_norm,
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
    fit_course_model,
    predict_proba,
    score_demographics,
    train_logreg,
)
from .settings import PARADIGMS, check_paradigms, forked

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
    [launch_date, t100_date], else WindowOutOfRangeError; a week past the
    calendar's last day raises week_date's BadValueError. Both name the
    course and the week.
    """
    meta = course.meta
    try:
        wd = week_date(meta, w)
    except BeforeLaunchError as e:
        raise WindowOutOfRangeError(f"{e}, and so does its proxy window") from None
    lo = course.day_offset(wd) - 7  # an offset, as wd - 7 days may precede date.min
    if lo < 0 or wd > meta.t100_date:
        raise WindowOutOfRangeError(
            f"course {meta.course_id!r}: the proxy window of week {w}, the 7 days before {wd}, "
            f"is not inside [{meta.launch_date}, {meta.t100_date}]"
        )
    table = course.activity
    nevents = table.columns[CLICKSTREAM_FEATURES.index("nevents")]
    mask = (table.day >= lo) & (table.day < lo + 7) & (nevents > 0)
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


def _source_date(meta: CourseMeta, w: int) -> datetime.date:
    """A source course's own week-w date, clamped to its launch."""
    try:
        return week_date(meta, w)
    except BeforeLaunchError:
        return meta.launch_date


def insitu_scores(snapshot: FeatureMatrix, proxy: np.ndarray, C: float = 1.0) -> np.ndarray:
    """Score a live course from what it has by its week-w snapshot: that
    snapshot and the persistence labels proxy_labels gives for week w.

    Nothing else reaches the fit, so certification labels cannot influence
    this path. The model is trained on the snapshot, percentile-normalized
    against itself, with proxy; the snapshot contains the proxy window. The
    same rows are then scored, one score per student.
    """
    p = percentile_within(snapshot)
    return predict_proba(train_logreg(p, proxy, C), p)


# A model-table key: (course_id, as_of) names the course's logistic model on
# its z-scored snapshot at as_of, (course_id, None) its baseline1 model.
ModelKey = tuple[str, datetime.date | None]


def _cell_keys(
    corpus: Sequence[CourseData], kind: str, target_id: str, w: int, holdout: float
) -> tuple[ModelKey, ...]:
    """The model-table keys one cell reads, in the order it reads them.

    Checks the cell first, so an unknown paradigm or target, a missing source
    course, an ineligible week or a holdout that leaves a side of post_hoc's
    split empty raises before any model is fit. in_situ, baseline2 and
    post_hoc with holdout > 0 read no key.
    """
    sources = source_courses(corpus, kind, target_id)
    by_id = _corpus_index(corpus)
    target = by_id[target_id]
    if w not in prediction_weeks(target.meta, kind):
        raise WindowOutOfRangeError(f"week {w} not eligible for {kind} on {target_id!r}")
    if kind == "post_hoc" and holdout <= 0.0:
        return ((target_id, week_date(target.meta, w)),)
    if kind == "post_hoc":  # holdout > 0: the split needs students on both sides
        _test_size(len(target.roster), holdout, f"course {target_id!r}: ")
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
        models[cid, m.as_of] = _kept(lambda: fit_course_model(course, m, C))
    return models


class _Week:
    """One target week's raw snapshot and, on first use, its own z-score (multi_course's)."""

    def __init__(self, m: FeatureMatrix):
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

    if kind == "same_field" or (kind == "post_hoc" and holdout <= 0.0):
        # one course model, the target's own or its source's, deployed
        # through the normalization stats it was fit with
        (model,) = fitted
        return predict_proba(model, apply_norm(week.m, model.norm)), y

    if kind == "post_hoc":  # holdout > 0: only the held-out students are scored
        stats, z_train, y_train, z_test, y_test = holdout_split(week.m, y, holdout, seed, "zscore")
        return predict_proba(train_logreg(z_train, y_train, C, norm=stats), z_test), y_test

    if kind == "multi_course":
        return predict_proba(average_hyperplanes(fitted), week.z), y

    if kind == "in_situ":
        return insitu_scores(week.m, proxy_labels(target, w), C), y

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
    week = _Week(build_matrix(target, week_date(target.meta, w)))
    return _score_cell(kind, target, w, fitted, C, holdout, seed, week)


# ---------------------------------------------------------------------------
# Experiment harness
# ---------------------------------------------------------------------------

# One target course's share of a run's plan: its cells that can be scored, as
# (week, paradigm, model keys) in week order, paradigms in run order within a week.
_Cells = list[tuple[int, str, tuple[ModelKey, ...]]]


def _score_course(target: CourseData, cells: _Cells, C: float, holdout: float, seed: int,
                  table: dict[ModelKey, LinearModel | SingleClassError],
                  ) -> tuple[list[tuple], list[tuple]]:
    """The rows and skipped records of one target's planned cells, each scored
    with its keys' models from table. One walk over the cells' weeks builds
    each week's snapshot once, for every cell of that week.
    """
    target_id = target.meta.course_id
    weeks = dict.fromkeys(w for w, _, _ in cells)  # in week order, as the cells are
    walk = snapshots(target, [week_date(target.meta, w) for w in weeks])
    rows: list[tuple] = []
    skipped: list[tuple] = []
    for w, week_cells in groupby(cells, key=itemgetter(0)):
        week = _Week(next(walk))
        for _, kind, keys in week_cells:
            try:
                scores, y = _score_cell(kind, target, w, [table[key] for key in keys], C,
                                        holdout, seed, week)
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
    snapshot and its keys' models. jobs > 1 runs each phase on its own
    forked workers, at most one per course (no phase has more tasks). The
    score workers are forked once the table is complete, so they inherit it:
    a task of either phase is sent as its course id alone.
    The table lives only for this call, and the report sorts rows and skipped
    cells, so it is identical for any jobs value. A kind listed twice is
    rejected: its rows would enter every aggregate twice.
    """
    if len(corpus) == 0:
        raise BadValueError("corpus must be non-empty")
    check_paradigms(paradigm_kinds)
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
    processes = min(jobs, len(plan)) if jobs > 1 else 0
    table: dict[ModelKey, LinearModel | SingleClassError] = {}
    with forked(lambda cid: _fit_course_keys(by_id[cid], dates[cid], C), processes) as submit:
        for models in [submit(cid) for cid in sorted(dates)]:
            table.update(models())
    # forked once the table is complete, each score worker inherits it
    with forked(lambda cid: _score_course(by_id[cid], plan[cid], C, holdout, seed, table),
                processes) as submit:
        results = [result() for result in [submit(cid) for cid in plan]]
    return EvalReport.from_rows([EvalRow(*r) for rows, _ in results for r in rows],
                                skipped + [s for _, skips in results for s in skips])
