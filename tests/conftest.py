"""Shared course builders, reference implementations, trainer wrappers and corpus fixtures."""

import csv
import datetime
import math
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np
import pytest

from dropoutlab.dataset import (
    CLICKSTREAM_FEATURES,
    CONTINENTS,
    GENDERS,
    LOE_LEVELS,
    ActivityTable,
    CorpusConfig,
    CourseData,
    CourseMeta,
    Roster,
    SynthConfig,
    _BASE_RATES,
    _HIGHER_ED,
    _synth_roster,
    load_course_meta,
    load_demographics,
    synthesize_corpus,
)
from dropoutlab.deepnet import _batch_targets, _flat_copy, _layer_views, _step, _step_buffers
from dropoutlab.errors import (
    BadDateError,
    BadValueError,
    DuplicateStudentDayError,
    MissingColumnError,
    NegativeCounterError,
    NonFiniteLossError,
    UnknownStudentError,
)
from dropoutlab.features import FEATURE_NAMES, FeatureMatrix, check_as_of, norm_stats_from_dict
from dropoutlab.linear import _grad, _loss, _sigmoid
from dropoutlab.settings import read_csv, read_json

LAUNCH = datetime.date(2014, 1, 6)


# Row-level course builders: tests write a course as one Student per roster row
# and one Record per (student, day) of activity, and make_course turns them
# into the columns CourseData holds.

class Student(NamedTuple):
    """One roster row; None marks a non-response."""

    student_id: str
    yob: int | None = None
    loe: str | None = None
    gender: str | None = None
    continent: str | None = None
    took_precourse_survey: bool = False


class Record(NamedTuple):
    """One student's clickstream counters for one calendar day."""

    student_id: str
    date: datetime.date
    counters: Mapping[str, float]


def make_roster(students):
    """A Roster of Student rows in any order; an unknown category name raises ValueError."""
    def codes(levels, values):
        return [len(levels) if v is None else levels.index(v) for v in values]

    # a yob is converted as a demographics.csv cell is read: an int beyond the
    # float range becomes +-inf, which the Roster clamps like any other yob
    return Roster(
        [s.student_id for s in students],
        [np.nan if s.yob is None else float(str(s.yob)) for s in students],
        codes(LOE_LEVELS, [s.loe for s in students]),
        codes(GENDERS, [s.gender for s in students]),
        codes(CONTINENTS, [s.continent for s in students]),
        [s.took_precourse_survey for s in students],
    )


def make_course(meta, students, records=(), final_grade=None):
    """A CourseData from a Roster (or Student rows) and Record rows.

    A record of a student not on the roster gets an out-of-range student
    index, so CourseData's own check rejects it.
    """
    roster = students if isinstance(students, Roster) else make_roster(students)
    index = {sid: i for i, sid in enumerate(roster.student_ids)}
    table = ActivityTable(
        np.array([index.get(r.student_id, len(index)) for r in records], dtype=np.int32),
        np.array([(r.date - meta.launch_date).days for r in records], dtype=np.int32),
        np.array([[r.counters[k] for r in records] for k in CLICKSTREAM_FEATURES],
                 dtype=np.float64).reshape(len(CLICKSTREAM_FEATURES), len(records)),
    )
    return CourseData(meta, roster, table, dict(final_grade or {}))


def records_of(course):
    """The Record rows of a course's activity table, sorted by student id, then date."""
    table = course.activity
    return [
        Record(course.roster.student_ids[i], course.meta.launch_date + datetime.timedelta(days=d),
               dict(zip(CLICKSTREAM_FEATURES, row)))
        for i, d, row in zip(table.student_index.tolist(), table.day.tolist(),
                             counter_values(table).tolist())
    ]


def assert_same_counters(a, b):
    """Tables a and b hold each counter in the same width, with the same bytes."""
    assert len(a.columns) == len(b.columns) == len(CLICKSTREAM_FEATURES)
    for name, x, y in zip(CLICKSTREAM_FEATURES, a.columns, b.columns):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def counter_values(table):
    """A table's counters as one (rows x counters) float64 array, the exact
    float64 value of each stored column side by side."""
    return np.stack(table.columns, axis=1, dtype=np.float64)


def counters(**overrides):
    """All 31 clickstream counters at zero, with named overrides."""
    c = {k: 0.0 for k in CLICKSTREAM_FEATURES}
    for k, v in overrides.items():
        assert k in c, k
        c[k] = float(v)
    return c


def make_meta(course_id="TSTx", launch=LAUNCH, weeks_to_t100=8, weeks_total=10,
              threshold=0.7, field="STEM"):
    return CourseMeta(
        course_id=course_id,
        launch_date=launch,
        end_date=launch + datetime.timedelta(days=7 * weeks_total),
        t100_date=launch + datetime.timedelta(days=7 * weeks_to_t100),
        cert_threshold=threshold,
        field=field,
    )


def day(offset, launch=LAUNCH):
    return launch + datetime.timedelta(days=offset)


def cumulative_all(course, off):
    """Cumulative counters and recency for every student at day offset off, built
    from nothing: the per-date reference for every step of features.snapshots.

    Each counter is one bincount over the rows kept at off: it adds a student's
    rows in row order from 0.0, the order and bits of a scatter-add
    (np.add.reduceat does not: it adds the pairwise sum of a segment's other
    rows to its first). Rows are sorted by (student, day), so each student's
    kept rows form one run, and recency is the day of the run's last row with
    nevents > 0; a student without one gets off + 1.
    """
    n = course.n_students
    table = course.activity
    kept = table.day <= off
    idx = table.student_index[kept]
    cum = np.column_stack([np.bincount(idx, weights=column[kept], minlength=n)
                           for column in table.columns])
    acted = table.columns[CLICKSTREAM_FEATURES.index("nevents")][kept] > 0
    ran, day = idx[acted], table.day[kept][acted]
    last = np.flatnonzero(np.diff(ran, append=-1))  # the last acted row of each run
    dsla = np.full(n, off + 1.0)
    dsla[ran[last]] = off - day[last]
    return cum, dsla


# Per-student oracles for the whole-course snapshot (build_matrix, baseline_recency):
# one student's activity rows, read straight from the table.

def cumulative_clickstream(course, student_id, as_of):
    """Sum each counter over every activity day with date <= as_of."""
    off = check_as_of(course, as_of)
    table = course.activity
    mask = (table.student_index == course.roster.student_ids.index(student_id)) & (table.day <= off)
    return counter_values(table)[mask].sum(axis=0)


def days_since_last_action(course, student_id, as_of):
    """Whole days since the latest day with nevents > 0, at or before as_of.

    A student with no qualifying activity gets days-since-launch + 1, which is
    strictly staler than any student who acted on launch day.
    """
    off = check_as_of(course, as_of)
    table = course.activity
    nevents = table.columns[CLICKSTREAM_FEATURES.index("nevents")]
    mask = ((table.student_index == course.roster.student_ids.index(student_id))
            & (table.day <= off) & (nevents > 0))
    if not np.any(mask):
        return float(off + 1)
    return float(off - table.day[mask].max())


# Per-student label oracles for CourseData.certified and paradigms.proxy_labels.

def certification_labels(course):
    """{student_id: 0/1}: 1 iff the final grade (0.0 when absent) >= cert_threshold."""
    thr = course.meta.cert_threshold
    return {sid: int(course.final_grade.get(sid, 0.0) >= thr) for sid in course.roster.student_ids}


def persistence_labels(course, w):
    """{student_id: 0/1}: 1 iff the student has a day with nevents > 0 in the 7 days
    before week w (t100_date + 7w), read one student at a time."""
    wd = course.day_offset(course.meta.t100_date) + 7 * w
    table = course.activity
    nevents = table.columns[CLICKSTREAM_FEATURES.index("nevents")]
    out = {}
    for i, sid in enumerate(course.roster.student_ids):
        days = table.day[(table.student_index == i) & (nevents > 0)]
        out[sid] = int(any(wd - 7 <= d <= wd - 1 for d in days.tolist()))
    return out


def as_vector(labels, course):
    """An oracle's {student_id: 0/1} as a float64 vector in roster order."""
    return np.array([labels[sid] for sid in course.roster.student_ids], dtype=np.float64)


# Reference course CSV writer and loader: one row and one cell at a time, as
# dataset.write_course and dataset.load_course worked before they became
# column-wise. The column-wise code must write the same bytes and load the
# same arrays, and raise the same error for a file with one fault.

_REF_LEVELS = {"loe": LOE_LEVELS, "gender": GENDERS, "continent": CONTINENTS}
_REF_ACTIVITY = ("student_id", "date") + CLICKSTREAM_FEATURES


def _ref_fmt_number(v):
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def reference_write_course(course, out_dir):
    """The four course CSV files, formatted one cell at a time."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta, r = course.meta, course.roster
    with open(out / "course_meta.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(("course_id", "launch_date", "end_date", "t100_date", "cert_threshold", "field"))
        w.writerow([meta.course_id, meta.launch_date.isoformat(), meta.end_date.isoformat(),
                    meta.t100_date.isoformat(), _ref_fmt_number(meta.cert_threshold), meta.field])
    with open(out / "demographics.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(("student_id", "yob", "loe", "gender", "continent", "precourse_survey"))
        for i, sid in enumerate(r.student_ids):
            yob = r.yob[i]
            w.writerow([sid, "" if math.isnan(yob) else _ref_fmt_number(yob)]
                       + [(levels + ("",))[getattr(r, name)[i]]
                          for name, levels in _REF_LEVELS.items()]
                       + [int(r.took_precourse_survey[i])])
    with open(out / "activity.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(_REF_ACTIVITY)
        table = course.activity
        for i in range(len(table)):
            sid = r.student_ids[table.student_index[i]]
            date = meta.launch_date + datetime.timedelta(days=int(table.day[i]))
            w.writerow([sid, date.isoformat()]
                       + [_ref_fmt_number(column[i]) for column in table.columns])
    with open(out / "grades.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(("student_id", "final_grade"))
        for sid in r.student_ids:
            w.writerow([sid, _ref_fmt_number(course.final_grade.get(sid, 0.0))])


def _ref_rows(path, expected):
    """(line number, cells in expected order) of each non-blank row after the header.

    A row with more or fewer cells than the header is rejected.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumnError(f"{path}: empty file, expected header {list(expected)}") from None
        for col in expected:
            if col not in header:
                raise MissingColumnError(f"{path}: missing column {col!r}")
        pos = [header.index(c) for c in expected]
        for raw in reader:
            if not raw:
                continue
            if len(raw) != len(header):
                raise BadValueError(
                    f"{path}:{reader.line_num}: expected {len(header)} cells, got {len(raw)}")
            yield reader.line_num, [raw[p] for p in pos]


def _ref_date(cell, where):
    """A date written as 4, 2 and 2 ASCII digits joined by dashes, and nothing else."""
    parts = cell.split("-")
    try:
        if [len(p) for p in parts] != [4, 2, 2] or not all(p.isascii() and p.isdigit()
                                                          for p in parts):
            raise ValueError
        return datetime.date(*map(int, parts))
    except ValueError:
        raise BadDateError(f"{where}: bad date {cell!r} (expected YYYY-MM-DD)") from None


def reference_load_course(course_dir):
    """A course directory read one row and one cell at a time, every check in file order."""
    d = Path(course_dir)
    meta = load_course_meta(d / "course_meta.csv")
    roster = load_demographics(d / "demographics.csv")
    index = {sid: i for i, sid in enumerate(roster.student_ids)}
    activity_path, grades_path = d / "activity.csv", d / "grades.csv"
    sidx, days, values, seen = [], [], [], set()
    for lineno, row in _ref_rows(activity_path, _REF_ACTIVITY):
        sid = row[0]
        if sid not in index:
            raise UnknownStudentError(f"{activity_path}:{lineno}: student {sid!r} not in demographics")
        date = _ref_date(row[1], f"{activity_path}:{lineno} date")
        off = (date - meta.launch_date).days
        if off < 0 or date > meta.end_date:
            raise BadDateError(
                f"{activity_path}:{lineno}: date {date} outside [{meta.launch_date}, {meta.end_date}]")
        key = (index[sid], off)
        if key in seen:
            raise DuplicateStudentDayError(f"{activity_path}:{lineno}: duplicate record for ({sid}, {date})")
        seen.add(key)
        sidx.append(key[0])
        days.append(off)
        for name, cell in zip(CLICKSTREAM_FEATURES, row[2:]):
            try:
                v = float(cell)
            except ValueError:
                raise BadValueError(
                    f"{activity_path}:{lineno}: column {name!r}: not a number: {cell!r}") from None
            if not math.isfinite(v) or v < 0:
                raise NegativeCounterError(f"{activity_path}:{lineno}: column {name!r}: "
                                           f"value {cell} must be finite and >= 0")
            values.append(v)
    grades = {}
    for lineno, (sid, cell) in _ref_rows(grades_path, ("student_id", "final_grade")):
        if sid not in index:
            raise UnknownStudentError(f"{grades_path}:{lineno}: student {sid!r} not in demographics")
        if sid in grades:
            raise BadValueError(f"{grades_path}:{lineno}: duplicate record for student {sid!r}")
        try:
            g = float(cell)
        except ValueError:
            raise BadValueError(f"{grades_path}:{lineno}: bad final_grade {cell!r}") from None
        if not (0.0 <= g <= 1.0):
            raise BadValueError(f"{grades_path}:{lineno}: final_grade {g} not in [0, 1]")
        grades[sid] = g
    table = ActivityTable(np.array(sidx, dtype=np.int32), np.array(days, dtype=np.int32),
                          np.array(values, dtype=np.float64).reshape(-1, len(CLICKSTREAM_FEATURES)).T)
    return CourseData(meta, roster, table, grades)


# dataset.synthesize_course as it drew before it drew blocks of students:
# whole (student x day) arrays of uniform and Poisson draws, each counter kept
# as a float64 column. The block draws must give the same courses, bit for bit.

def reference_synthesis(config, seed):
    """(student_index, day, counter columns, final_grade) of synthesize_course(config, seed)."""
    rng = np.random.default_rng(seed)
    n = config.n_students
    roster = _synth_roster(config, rng)
    e0 = rng.beta(config.engagement_alpha, config.engagement_beta, n)
    edu = np.isin(roster.loe, [LOE_LEVELS.index(v) for v in _HIGHER_ED])
    age = 2012 - roster.yob
    prime_age = (25 <= age) & (age < 50)
    e0 = np.clip(e0 + config.education_boost * edu + config.age_boost * prime_age
                 + config.survey_boost * roster.took_precourse_survey, 0.0, 1.0)
    jitter = rng.uniform(1.0 - config.decay_spread, 1.0 + config.decay_spread, n)
    retention = (1.0 - config.daily_decay) ** jitter
    n_days = 7 * config.weeks_total
    t = np.arange(n_days)
    engagement = e0[:, None] * retention[:, None] ** t[None, :]
    active = rng.random((n, n_days)) < engagement
    rows = np.nonzero(active)
    rates = _BASE_RATES.copy()
    rates[CLICKSTREAM_FEATURES.index("nproblems_answered")] = config.problems_per_day
    columns = [rng.poisson(rate * engagement, size=(n, n_days))[rows].astype(np.float64)
               for rate in rates]
    columns[CLICKSTREAM_FEATURES.index("nevents")] += 1.0
    answered = np.bincount(rows[0], weights=columns[CLICKSTREAM_FEATURES.index(
        "nproblems_answered")], minlength=n)
    grade = np.clip(answered / config.problems_for_full_grade, 0.0, 1.0)
    return (rows[0].astype(np.int32), rows[1].astype(np.int32), columns,
            dict(zip(roster.student_ids, grade.tolist())))


# Readers of the files features writes, which no command reads back: the
# round-trip oracles of features.write_matrix and features.save_norm_stats.

def load_matrix(path, as_of):
    """The FeatureMatrix write_matrix wrote to path, at the given as_of date.
    settings.read_csv names the file, and the line of a row of the wrong length."""
    rows = read_csv(path)
    assert next(rows)[1] == ["student_id", *FEATURE_NAMES]
    cells = [row for _, row in rows]
    return FeatureMatrix(tuple(row[0] for row in cells),
                         np.array([[float(v) for v in row[1:]] for row in cells])
                         .reshape(len(cells), len(FEATURE_NAMES)),
                         as_of)


def load_norm_stats(path):
    """The NormStats save_norm_stats wrote to path, checked against the feature
    layout by norm_stats_from_dict, the check a model file's norm goes through."""
    return read_json(path, norm_stats_from_dict)


# The loss and gradient each trainer steps on, called as training calls them,
# so a gradient check differentiates the code that trains.

def logreg_loss_and_grad(w, b, X, y, C):
    """(loss, grad_w, grad_b) of the logistic objective at weights w and intercept b,
    from linear._loss and linear._grad, the functions linear._minimize uses."""
    n, p = X.shape
    Xa = np.column_stack([X, np.ones(n)])
    theta = np.append(w, b)
    z = Xa @ theta
    g = _grad(Xa, y, _sigmoid(z), np.append(np.full(p, 1.0 / C), 0.0), theta)
    return _loss(z, y, theta, C), g[:-1], float(g[-1])


def batch_loss_and_grads(m, Xb, yb, class_w):
    """Mean weighted cross-entropy of one batch and its (dW, db) per layer.

    Runs deepnet._step, the step train_sgd takes, into freshly allocated
    buffers. yb holds 0/1 labels. Raises NonFiniteLossError when the loss is
    not finite.
    """
    Xb = np.ascontiguousarray(Xb, dtype=np.float64)
    yb = np.asarray(yb, dtype=np.float64)
    flat = _flat_copy(m)
    grads = _layer_views(np.empty_like(flat), m)
    loss = _step(_layer_views(flat, m), grads, _step_buffers(m, len(yb)), Xb,
                 *_batch_targets(yb, class_w, len(yb)))
    if not math.isfinite(loss):
        raise NonFiniteLossError("batch loss is not finite")
    return loss, grads


@pytest.fixture
def tiny_course():
    """Six students with hand-checkable activity and grades.

    s00 certifies (active days 0, 2, 9), s01 drops out early (day 0 only),
    s02 never acts, s03 certifies exactly at threshold, s04 has no grade row,
    s05 is active late but fails.
    """
    meta = make_meta(weeks_to_t100=4, weeks_total=5)
    students = [
        Student("s00", yob=1990, loe="Bachelor", gender="Female",
                continent="Europe", took_precourse_survey=True),
        Student("s01", yob=1997, loe="HighSchool", gender="Male",
                continent="Asia"),
        Student("s02"),
        Student("s03", yob=1955, loe="Master", gender="Other",
                continent="SouthAmerica", took_precourse_survey=True),
        Student("s04", yob=2005, loe="Elementary", gender="Female",
                continent="Africa"),
        Student("s05", yob=1980, loe="Professional", gender="Male",
                continent="NorthAmerica"),
    ]
    records = [
        Record("s00", day(0), counters(nevents=10, nvideo=3, nproblems_answered=4, sum_dt=120)),
        Record("s00", day(2), counters(nevents=5, nforum_posts=1, nproblems_answered=2)),
        Record("s00", day(9), counters(nevents=7, nvideo=2, max_dt=300)),
        Record("s01", day(0), counters(nevents=2, nshow_answer=1)),
        Record("s03", day(1), counters(nevents=4, nproblems_answered=3)),
        Record("s03", day(20), counters(nevents=6, nproblems_answered=5)),
        Record("s04", day(3), counters(nevents=1)),
        Record("s05", day(27), counters(nevents=9, nvideo=4)),
    ]
    grades = {"s00": 0.91, "s01": 0.05, "s02": 0.0, "s03": 0.7, "s05": 0.42}
    return make_course(meta, students, records, grades)


@pytest.fixture
def separable_course():
    """20 persistently active certifiers vs 20 silent dropouts."""
    meta = make_meta(course_id="SEPx", weeks_to_t100=8, weeks_total=10, threshold=0.5)
    students, records, grades = [], [], {}
    for i in range(40):
        sid = f"p{i:03d}"
        students.append(Student(sid, yob=1985))
        if i < 20:
            for d in range(0, 56, 3):
                records.append(Record(sid, day(d), counters(nevents=5 + i % 3,
                                                            nproblems_answered=2)))
            grades[sid] = 0.9
        else:
            grades[sid] = 0.1
    return make_course(meta, students, records, grades)


def _corpus_config(n_courses, n_students, fields):
    courses = []
    for i in range(n_courses):
        courses.append(SynthConfig(
            course_id=f"C{i + 1}x",
            field=fields[i % len(fields)],
            n_students=n_students,
            launch=LAUNCH + datetime.timedelta(days=28 * i),
            weeks_to_t100=6 + i % 3,
            weeks_total=8 + i % 3,
            cert_threshold=0.6 + 0.05 * (i % 3),
        ))
    return CorpusConfig(courses=tuple(courses))


@pytest.fixture(scope="session")
def small_corpus():
    """Four synthesized courses, two per field, 150 students each."""
    config = _corpus_config(4, 150, ("STEM", "Hum", "STEM", "Hum"))
    return synthesize_corpus(config, 2024)
