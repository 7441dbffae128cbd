"""Course/student/activity data model, CSV ingestion, and the synthetic generator."""

from __future__ import annotations

import csv
import datetime
import math
from array import array
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    BadConfigError,
    BadDateError,
    BadValueError,
    DuplicateCourseIdError,
    DuplicateStudentDayError,
    MissingColumnError,
    NegativeCounterError,
    UnknownStudentError,
)

# Per-day clickstream counters, in canonical column order. Durations (*_dt) are seconds.
CLICKSTREAM_FEATURES: tuple[str, ...] = (
    "avg_dt", "sdv_dt", "max_dt", "n_dt", "sum_dt", "nevents",
    "nprogcheck", "nshow_answer", "nvideo", "nproblem_check", "nforum",
    "ntranscript", "nseq_goto", "nseek_video", "npause_video",
    "nvideos_viewed", "nvideos_watched_sec", "nforum_reads", "nforum_posts",
    "nforum_threads", "nproblems_answered", "nproblems_attempted",
    "nproblems_multiplechoice", "nproblems_choice", "problems_numerical",
    "nproblems_option", "problems_custom", "nproblems_string",
    "problems_mixed", "nproblems_formula", "problems_other",
)
CLICKSTREAM_INDEX: dict[str, int] = {name: k for k, name in enumerate(CLICKSTREAM_FEATURES)}

FIELDS: tuple[str, ...] = ("SocialSci", "Hum", "STEM", "HealthSci")
LOE_LEVELS: tuple[str, ...] = (
    "Elementary", "JuniorHigh", "HighSchool", "Associate",
    "Bachelor", "Master", "Professional",
)
GENDERS: tuple[str, ...] = ("Male", "Female", "Other")
CONTINENTS: tuple[str, ...] = (
    "Europe", "Oceania", "Africa", "Asia", "Americas",
    "NorthAmerica", "SouthAmerica",
)


@dataclass(frozen=True)
class CourseMeta:
    """Course identity and calendar anchors.

    launch_date is the day instruction begins; t100_date is the earliest day a
    student could have accrued full certification points; end_date closes the
    course. cert_threshold is the grade fraction required to certify.
    """

    course_id: str
    launch_date: datetime.date
    end_date: datetime.date
    t100_date: datetime.date
    cert_threshold: float
    field: str

    def __post_init__(self) -> None:
        if not (self.launch_date < self.t100_date <= self.end_date):
            raise BadConfigError(
                f"course {self.course_id!r}: need launch < t100 <= end, got "
                f"{self.launch_date} / {self.t100_date} / {self.end_date}"
            )
        if not (0.0 < self.cert_threshold <= 1.0):
            raise BadConfigError(
                f"course {self.course_id!r}: cert_threshold {self.cert_threshold} not in (0, 1]"
            )
        if self.field not in FIELDS:
            raise BadConfigError(
                f"course {self.course_id!r}: unknown field {self.field!r} (expected one of {FIELDS})"
            )


@dataclass(frozen=True)
class StudentDemographics:
    """Self-reported demographics; None marks a non-response, distinct from any category."""

    student_id: str
    yob: int | None = None
    loe: str | None = None
    gender: str | None = None
    continent: str | None = None
    took_precourse_survey: bool = False

    def __post_init__(self) -> None:
        if self.loe is not None and self.loe not in LOE_LEVELS:
            raise BadValueError(f"student {self.student_id!r}: unknown loe {self.loe!r}")
        if self.gender is not None and self.gender not in GENDERS:
            raise BadValueError(f"student {self.student_id!r}: unknown gender {self.gender!r}")
        if self.continent is not None and self.continent not in CONTINENTS:
            raise BadValueError(f"student {self.student_id!r}: unknown continent {self.continent!r}")


@dataclass(frozen=True)
class ActivityDay:
    """One student's clickstream counters for one calendar day."""

    student_id: str
    date: datetime.date
    counters: Mapping[str, float]

    def __post_init__(self) -> None:
        missing = [k for k in CLICKSTREAM_FEATURES if k not in self.counters]
        if missing:
            raise MissingColumnError(
                f"activity record ({self.student_id}, {self.date}): missing counter {missing[0]!r}"
            )
        for name in CLICKSTREAM_FEATURES:
            v = self.counters[name]
            if not np.isfinite(v) or v < 0:
                raise NegativeCounterError(
                    f"activity record ({self.student_id}, {self.date}): "
                    f"counter {name!r} = {v} must be finite and >= 0"
                )


class ActivityTable:
    """Columnar store for per-day activity records.

    Rows are sorted by (student index, day offset); student indices refer to the
    owning course's lexicographically sorted student-id list, day offsets count
    from the course launch date. Arrays are read-only once built.
    """

    __slots__ = ("student_index", "day", "values")

    def __init__(self, student_index: np.ndarray, day: np.ndarray, values: np.ndarray):
        n = len(student_index)
        if len(day) != n or values.shape != (n, len(CLICKSTREAM_FEATURES)):
            raise BadValueError("activity table arrays are inconsistent")
        order = np.lexsort((day, student_index))
        self.student_index = np.ascontiguousarray(student_index[order], dtype=np.int32)
        self.day = np.ascontiguousarray(day[order], dtype=np.int32)
        self.values = np.ascontiguousarray(values[order], dtype=np.float64)
        if n > 1:
            same = (self.student_index[1:] == self.student_index[:-1]) & (
                self.day[1:] == self.day[:-1]
            )
            if np.any(same):
                pos = int(np.nonzero(same)[0][0])
                raise DuplicateStudentDayError(
                    f"duplicate activity record for student index {self.student_index[pos]} "
                    f"on day offset {self.day[pos]}"
                )
        for arr in (self.student_index, self.day, self.values):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.day)


@dataclass(frozen=True)
class CourseData:
    """Everything known about one course: metadata, roster, activity, final grades.

    The roster is also held as read-only columns in student-id order (the row
    order of every feature matrix), derived once when the course is built:
    yob (float64, NaN for a non-response), loe, gender and continent (intp
    index into LOE_LEVELS, GENDERS and CONTINENTS, or len(levels) for a
    non-response) and took_precourse_survey (float64 0/1). certified
    (float64 0/1) is the certification label: 1 iff the final grade reaches
    cert_threshold, where a student with no grade counts as grade 0.
    """

    meta: CourseMeta
    students: tuple[StudentDemographics, ...]
    activity: ActivityTable
    final_grade: Mapping[str, float]
    student_ids: tuple[str, ...] = field(init=False)
    yob: np.ndarray = field(init=False, repr=False, compare=False)
    loe: np.ndarray = field(init=False, repr=False, compare=False)
    gender: np.ndarray = field(init=False, repr=False, compare=False)
    continent: np.ndarray = field(init=False, repr=False, compare=False)
    took_precourse_survey: np.ndarray = field(init=False, repr=False, compare=False)
    certified: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        roster = sorted(self.students, key=lambda s: s.student_id)
        ids = [s.student_id for s in roster]
        if len(set(ids)) != len(ids):
            dup = next(a for a, b in zip(ids, ids[1:]) if a == b)
            raise BadValueError(f"course {self.meta.course_id!r}: duplicate student_id {dup!r}")
        object.__setattr__(self, "student_ids", tuple(ids))
        # clamping yob into [0, 4024] keeps every age bin and makes any int a finite float
        columns = {
            "yob": np.array([np.nan if s.yob is None else s.yob if 0 <= s.yob <= 4024
                             else 4024 * (s.yob > 0) for s in roster], dtype=np.float64),
            "took_precourse_survey": np.array([s.took_precourse_survey for s in roster],
                                              dtype=np.float64),
            "certified": np.array([self.final_grade.get(sid, 0.0) >= self.meta.cert_threshold
                                   for sid in ids], dtype=np.float64),
        }
        for attr, levels in (("loe", LOE_LEVELS), ("gender", GENDERS), ("continent", CONTINENTS)):
            index = {v: k for k, v in enumerate(levels)}  # None falls through to the null slot
            columns[attr] = np.array([index.get(getattr(s, attr), len(levels)) for s in roster],
                                     dtype=np.intp)
        for attr, column in columns.items():
            column.flags.writeable = False
            object.__setattr__(self, attr, column)
        if len(self.activity) and (
            self.activity.student_index.min() < 0
            or self.activity.student_index.max() >= len(ids)
        ):
            raise UnknownStudentError(
                f"course {self.meta.course_id!r}: activity references an unknown student index"
            )
        span = (self.meta.end_date - self.meta.launch_date).days
        if len(self.activity) and (self.activity.day.min() < 0 or self.activity.day.max() > span):
            raise BadDateError(
                f"course {self.meta.course_id!r}: activity date outside [launch, end]"
            )

    @property
    def n_students(self) -> int:
        return len(self.students)

    def day_offset(self, date: datetime.date) -> int:
        return (date - self.meta.launch_date).days

    def activity_days(self) -> Iterator[ActivityDay]:
        """Materialize row-level activity records (sorted by student id, then date)."""
        for i in range(len(self.activity)):
            sid = self.student_ids[self.activity.student_index[i]]
            date = self.meta.launch_date + datetime.timedelta(days=int(self.activity.day[i]))
            row = self.activity.values[i]
            yield ActivityDay(sid, date, dict(zip(CLICKSTREAM_FEATURES, row.tolist())))


def course_from_records(
    meta: CourseMeta,
    students: Sequence[StudentDemographics],
    records: Sequence[ActivityDay],
    final_grade: Mapping[str, float],
) -> CourseData:
    """Assemble a CourseData from row-level pieces, validating all invariants."""
    ids = sorted(s.student_id for s in students)
    index = {sid: i for i, sid in enumerate(ids)}
    sidx = np.zeros(len(records), dtype=np.int32)
    day = np.zeros(len(records), dtype=np.int32)
    values = np.zeros((len(records), len(CLICKSTREAM_FEATURES)))
    for r, rec in enumerate(records):
        if rec.student_id not in index:
            raise UnknownStudentError(
                f"activity record ({rec.student_id}, {rec.date}): student not in demographics"
            )
        sidx[r] = index[rec.student_id]
        day[r] = (rec.date - meta.launch_date).days
        values[r] = [rec.counters[k] for k in CLICKSTREAM_FEATURES]
    return CourseData(meta, tuple(students), ActivityTable(sidx, day, values), dict(final_grade))


# ---------------------------------------------------------------------------
# CSV ingestion (person_course / person_course_day style tables)
# ---------------------------------------------------------------------------

_META_COLUMNS = ("course_id", "launch_date", "end_date", "t100_date", "cert_threshold", "field")
_DEMO_COLUMNS = ("student_id", "yob", "loe", "gender", "continent", "precourse_survey")
_ACTIVITY_COLUMNS = ("student_id", "date") + CLICKSTREAM_FEATURES
_GRADE_COLUMNS = ("student_id", "final_grade")


def _read_rows(path: str | Path, expected: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, cells in expected order) for each non-blank row after the header."""
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
            if len(raw) < len(header):
                raise BadValueError(
                    f"{path}:{reader.line_num}: expected {len(header)} cells, got {len(raw)}")
            yield reader.line_num, [raw[p] for p in pos]


def _parse_date(cell: str, where: str) -> datetime.date:
    try:
        return datetime.date.fromisoformat(cell)
    except ValueError:
        raise BadDateError(f"{where}: bad date {cell!r} (expected YYYY-MM-DD)") from None


def load_course_meta(path: str | Path) -> CourseMeta:
    rows = list(_read_rows(path, _META_COLUMNS))
    if len(rows) != 1:
        raise BadValueError(f"{path}: expected exactly one course row, got {len(rows)}")
    lineno, (cid, launch, end, t100, thr, fld) = rows[0]
    try:
        threshold = float(thr)
    except ValueError:
        raise BadValueError(f"{path}:{lineno}: bad cert_threshold {thr!r}") from None
    return CourseMeta(
        course_id=cid,
        launch_date=_parse_date(launch, f"{path}:{lineno} launch_date"),
        end_date=_parse_date(end, f"{path}:{lineno} end_date"),
        t100_date=_parse_date(t100, f"{path}:{lineno} t100_date"),
        cert_threshold=threshold,
        field=fld,
    )


def _parse_optional_int(cell: str) -> int | None:
    cell = cell.strip()
    if not cell:
        return None
    try:
        return int(cell)
    except ValueError:
        return None


def _parse_enum(cell: str, allowed: Sequence[str]) -> str | None:
    cell = cell.strip()
    return cell if cell in allowed else None


def load_demographics(path: str | Path) -> list[StudentDemographics]:
    out = []
    for lineno, (sid, yob, loe, gender, continent, survey) in _read_rows(path, _DEMO_COLUMNS):
        survey = survey.strip()
        if survey not in ("0", "1"):
            raise BadValueError(f"{path}:{lineno}: precourse_survey must be 0 or 1, got {survey!r}")
        out.append(
            StudentDemographics(
                student_id=sid,
                yob=_parse_optional_int(yob),
                loe=_parse_enum(loe, LOE_LEVELS),
                gender=_parse_enum(gender, GENDERS),
                continent=_parse_enum(continent, CONTINENTS),
                took_precourse_survey=survey == "1",
            )
        )
    return out


def load_course(
    meta_path: str | Path,
    demographics_path: str | Path,
    activity_path: str | Path,
    grades_path: str | Path,
) -> CourseData:
    """Load one course from its four CSV tables.

    Raises MissingColumnError / BadDateError / NegativeCounterError /
    DuplicateStudentDayError with the offending file, row, and column named;
    a grades.csv row for an unknown or already graded student is rejected too.
    """
    meta = load_course_meta(meta_path)
    students = load_demographics(demographics_path)
    ids = sorted(s.student_id for s in students)
    index = {sid: i for i, sid in enumerate(ids)}

    # parsed straight into packed arrays: no list of every row's cells is kept
    sidx, day, values = array("i"), array("i"), array("d")
    seen: set[tuple[int, int]] = set()
    for lineno, row in _read_rows(activity_path, _ACTIVITY_COLUMNS):
        sid = row[0]
        if sid not in index:
            raise UnknownStudentError(
                f"{activity_path}:{lineno}: student {sid!r} not in demographics"
            )
        date = _parse_date(row[1], f"{activity_path}:{lineno} date")
        d = (date - meta.launch_date).days
        if d < 0 or date > meta.end_date:
            raise BadDateError(
                f"{activity_path}:{lineno}: date {date} outside [{meta.launch_date}, {meta.end_date}]"
            )
        key = (index[sid], d)
        if key in seen:
            raise DuplicateStudentDayError(
                f"{activity_path}:{lineno}: duplicate record for ({sid}, {date})"
            )
        seen.add(key)
        sidx.append(key[0])
        day.append(d)
        for name, cell in zip(CLICKSTREAM_FEATURES, row[2:]):
            try:
                v = float(cell)
            except ValueError:
                raise BadValueError(
                    f"{activity_path}:{lineno}: column {name!r}: not a number: {cell!r}"
                ) from None
            if not math.isfinite(v) or v < 0:
                raise NegativeCounterError(f"{activity_path}:{lineno}: column {name!r}: "
                                           f"value {cell} must be finite and >= 0")
            values.append(v)

    grades: dict[str, float] = {}
    for lineno, (sid, cell) in _read_rows(grades_path, _GRADE_COLUMNS):
        if sid not in index:
            raise UnknownStudentError(
                f"{grades_path}:{lineno}: student {sid!r} not in demographics"
            )
        if sid in grades:
            raise BadValueError(f"{grades_path}:{lineno}: duplicate record for student {sid!r}")
        try:
            g = float(cell)
        except ValueError:
            raise BadValueError(f"{grades_path}:{lineno}: bad final_grade {cell!r}") from None
        if not (0.0 <= g <= 1.0):
            raise BadValueError(f"{grades_path}:{lineno}: final_grade {g} not in [0, 1]")
        grades[sid] = g

    table = ActivityTable(np.asarray(sidx), np.asarray(day),
                          np.asarray(values).reshape(-1, len(CLICKSTREAM_FEATURES)))
    return CourseData(meta, tuple(students), table, grades)


def _fmt_number(v: float) -> str:
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def write_course(course: CourseData, out_dir: str | Path) -> dict[str, Path]:
    """Write the four canonical CSV tables for a course into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = course.meta
    paths = {
        "meta": out / "course_meta.csv",
        "demographics": out / "demographics.csv",
        "activity": out / "activity.csv",
        "grades": out / "grades.csv",
    }
    with open(paths["meta"], "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(_META_COLUMNS)
        w.writerow([
            meta.course_id, meta.launch_date.isoformat(), meta.end_date.isoformat(),
            meta.t100_date.isoformat(), _fmt_number(meta.cert_threshold), meta.field,
        ])
    with open(paths["demographics"], "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(_DEMO_COLUMNS)
        for s in sorted(course.students, key=lambda s: s.student_id):
            w.writerow([
                s.student_id,
                "" if s.yob is None else s.yob,
                "" if s.loe is None else s.loe,
                "" if s.gender is None else s.gender,
                "" if s.continent is None else s.continent,
                int(s.took_precourse_survey),
            ])
    with open(paths["activity"], "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(_ACTIVITY_COLUMNS)
        table = course.activity
        for i in range(len(table)):
            sid = course.student_ids[table.student_index[i]]
            date = meta.launch_date + datetime.timedelta(days=int(table.day[i]))
            w.writerow([sid, date.isoformat()] + [_fmt_number(v) for v in table.values[i]])
    with open(paths["grades"], "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(_GRADE_COLUMNS)
        for sid in course.student_ids:
            w.writerow([sid, _fmt_number(course.final_grade.get(sid, 0.0))])
    return paths


def load_course_dir(course_dir: str | Path) -> CourseData:
    """Load a course from a directory holding the four canonical CSV files."""
    d = Path(course_dir)
    return load_course(
        d / "course_meta.csv", d / "demographics.csv", d / "activity.csv", d / "grades.csv"
    )


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    """Parameters for one synthetic course.

    A student draws a latent engagement e0 ~ Beta(engagement_alpha,
    engagement_beta), nudged upward by weak demographic effects, then decays
    geometrically each day at a per-student jittered rate. Each day the student
    is active with probability e_t; active days draw Poisson counters whose
    rates scale with e_t. The final grade is cumulative problems answered
    divided by problems_for_full_grade (capped at 1), so persistence genuinely
    drives certification.
    """

    course_id: str
    field: str = "SocialSci"
    n_students: int = 400
    launch: datetime.date = datetime.date(2014, 1, 6)
    weeks_to_t100: int = 8
    weeks_total: int = 10
    cert_threshold: float = 0.7
    engagement_alpha: float = 1.6
    engagement_beta: float = 4.0
    daily_decay: float = 0.03
    decay_spread: float = 0.5
    survey_rate: float = 0.3
    survey_boost: float = 0.04
    education_boost: float = 0.05
    age_boost: float = 0.03
    problems_per_day: float = 8.0
    problems_for_full_grade: float = 60.0

    def validate(self) -> None:
        if not self.course_id:
            raise BadConfigError("course_id must be non-empty")
        if self.field not in FIELDS:
            raise BadConfigError(f"unknown field {self.field!r}")
        if self.n_students < 0:
            raise BadConfigError(f"n_students {self.n_students} must be >= 0")
        if not isinstance(self.launch, datetime.date):
            raise BadConfigError(f"launch {self.launch!r} is not a date")
        if self.weeks_to_t100 < 1 or self.weeks_total < self.weeks_to_t100:
            raise BadConfigError(
                f"need 1 <= weeks_to_t100 <= weeks_total, got {self.weeks_to_t100}/{self.weeks_total}"
            )
        if not (0.0 < self.cert_threshold <= 1.0):
            raise BadConfigError(f"cert_threshold {self.cert_threshold} not in (0, 1]")
        if not (0.0 <= self.daily_decay < 1.0):
            raise BadConfigError(f"daily_decay {self.daily_decay} not in [0, 1)")
        if self.engagement_alpha <= 0 or self.engagement_beta <= 0:
            raise BadConfigError("engagement Beta parameters must be positive")
        if not (0.0 <= self.decay_spread <= 1.0):
            raise BadConfigError(f"decay_spread {self.decay_spread} not in [0, 1]")
        if self.problems_per_day < 0 or self.problems_for_full_grade <= 0:
            raise BadConfigError("problem-rate parameters must be positive")

    @property
    def meta(self) -> CourseMeta:
        return CourseMeta(
            course_id=self.course_id,
            launch_date=self.launch,
            end_date=self.launch + datetime.timedelta(days=7 * self.weeks_total),
            t100_date=self.launch + datetime.timedelta(days=7 * self.weeks_to_t100),
            cert_threshold=self.cert_threshold,
            field=self.field,
        )


@dataclass(frozen=True)
class CorpusConfig:
    """A list of per-course synthesis configs sharing one master seed."""

    courses: tuple[SynthConfig, ...]

    def validate(self) -> None:
        ids = [c.course_id for c in self.courses]
        if len(set(ids)) != len(ids):
            dup = next(i for i in ids if ids.count(i) > 1)
            raise DuplicateCourseIdError(f"duplicate course_id {dup!r} in corpus config")
        for c in self.courses:
            c.validate()


# Mean per-day counter values for a fully engaged student, in CLICKSTREAM_FEATURES
# order; nevents gets +1 on active days so activity is always visible to recency.
_BASE_RATES = np.array([
    240.0, 90.0, 480.0, 7.0, 1500.0, 35.0,
    2.0, 1.5, 5.0, 4.0, 1.5,
    0.8, 3.0, 1.5, 2.5,
    2.5, 800.0, 3.0, 0.4,
    0.2, 4.0, 5.0,
    1.5, 0.8, 0.7,
    0.5, 0.2, 0.4,
    0.3, 0.3, 0.1,
])
_HIGHER_ED = ("Bachelor", "Master", "Professional")


def _synth_demographics(cfg: SynthConfig, rng: np.random.Generator) -> list[StudentDemographics]:
    n = cfg.n_students
    width = max(5, len(str(max(n - 1, 0))))
    yob_null = rng.random(n) < 0.12
    age = np.clip(np.rint(rng.normal(32.0, 11.0, n)), 8, 80).astype(int)
    loe_pick = rng.choice(len(LOE_LEVELS) + 1, size=n,
                          p=[0.02, 0.03, 0.20, 0.10, 0.33, 0.20, 0.04, 0.08])
    gender_pick = rng.choice(len(GENDERS) + 1, size=n, p=[0.46, 0.41, 0.03, 0.10])
    cont_pick = rng.choice(len(CONTINENTS) + 1, size=n,
                           p=[0.20, 0.03, 0.07, 0.25, 0.05, 0.22, 0.08, 0.10])
    survey = rng.random(n) < cfg.survey_rate
    out = []
    for i in range(n):
        out.append(StudentDemographics(
            student_id=f"s{i:0{width}d}",
            yob=None if yob_null[i] else int(2012 - age[i]),
            loe=None if loe_pick[i] == len(LOE_LEVELS) else LOE_LEVELS[loe_pick[i]],
            gender=None if gender_pick[i] == len(GENDERS) else GENDERS[gender_pick[i]],
            continent=None if cont_pick[i] == len(CONTINENTS) else CONTINENTS[cont_pick[i]],
            took_precourse_survey=bool(survey[i]),
        ))
    return out


def synthesize_course(config: SynthConfig, seed: int) -> CourseData:
    """Generate one deterministic synthetic course for (config, seed)."""
    config.validate()
    rng = np.random.default_rng(seed)
    meta = config.meta
    n = config.n_students
    students = _synth_demographics(config, rng)

    # Latent engagement: Beta draw plus weak demographic nudges, clipped to [0, 1].
    e0 = rng.beta(config.engagement_alpha, config.engagement_beta, n) if n else np.zeros(0)
    edu = np.array([s.loe in _HIGHER_ED for s in students], dtype=float)
    prime_age = np.array(
        [s.yob is not None and 25 <= 2012 - s.yob < 50 for s in students], dtype=float
    )
    survey = np.array([s.took_precourse_survey for s in students], dtype=float)
    e0 = np.clip(
        e0 + config.education_boost * edu + config.age_boost * prime_age
        + config.survey_boost * survey,
        0.0, 1.0,
    )
    jitter = rng.uniform(1.0 - config.decay_spread, 1.0 + config.decay_spread, n)
    retention = (1.0 - config.daily_decay) ** jitter

    n_days = 7 * config.weeks_total
    t = np.arange(n_days)
    engagement = e0[:, None] * retention[:, None] ** t[None, :]
    active = rng.random((n, n_days)) < engagement

    rows = np.nonzero(active)
    n_rec = len(rows[0])
    values = np.zeros((n_rec, len(CLICKSTREAM_FEATURES)))
    rates = _BASE_RATES.copy()
    rates[CLICKSTREAM_INDEX["nproblems_answered"]] = config.problems_per_day
    for k in range(len(CLICKSTREAM_FEATURES)):
        draw = rng.poisson(rates[k] * engagement, size=(n, n_days))
        values[:, k] = draw[rows]
    values[:, CLICKSTREAM_INDEX["nevents"]] += 1.0  # active days always register an event

    answered = np.zeros((n, n_days))
    answered[rows] = values[:, CLICKSTREAM_INDEX["nproblems_answered"]]
    grade = np.clip(answered.sum(axis=1) / config.problems_for_full_grade, 0.0, 1.0)
    final_grade = {students[i].student_id: float(grade[i]) for i in range(n)}

    table = ActivityTable(rows[0].astype(np.int32), rows[1].astype(np.int32), values)
    return CourseData(meta, tuple(students), table, final_grade)


def synthesize_corpus(config: CorpusConfig, seed: int) -> list[CourseData]:
    """Generate every course in the corpus, each from its own derived seed."""
    config.validate()
    out = []
    for i, course_cfg in enumerate(config.courses):
        child = int(np.random.SeedSequence((seed, i)).generate_state(1)[0])
        out.append(synthesize_course(course_cfg, child))
    return out


def default_corpus_config(
    n_courses: int = 4,
    n_students: int = 400,
    start: datetime.date = datetime.date(2014, 1, 6),
) -> CorpusConfig:
    """A corpus covering all four academic fields with staggered calendars.

    Course lengths, certification thresholds, and engagement parameters vary
    across courses within plausible MOOC ranges.
    """
    if n_courses < 1:
        raise BadConfigError(f"n_courses {n_courses} must be >= 1")
    weeks = (8, 6, 9, 7)
    thresholds = (0.7, 0.6, 0.75, 0.65)
    decays = (0.03, 0.04, 0.025, 0.035)
    alphas = (1.6, 1.4, 1.8, 1.5)
    denominators = (60.0, 45.0, 75.0, 55.0)
    courses = []
    for i in range(n_courses):
        j = i % 4
        courses.append(SynthConfig(
            course_id=f"SYN{i + 1}x",
            field=FIELDS[j],
            n_students=n_students,
            launch=start + datetime.timedelta(days=35 * i),
            weeks_to_t100=weeks[j],
            weeks_total=weeks[j] + 2,
            cert_threshold=thresholds[j],
            daily_decay=decays[(i + i // 4) % 4],
            engagement_alpha=alphas[(i + 1) % 4],
            problems_for_full_grade=denominators[(i + 2) % 4],
        ))
    return CorpusConfig(tuple(courses))


# --- JSON round-trip for corpus configs (CLI manifests reference these) ---

def corpus_config_to_dict(config: CorpusConfig) -> dict:
    courses = []
    for c in config.courses:
        d = {f.name: getattr(c, f.name) for f in dc_fields(c)}
        d["launch"] = c.launch.isoformat()
        courses.append(d)
    return {"courses": courses}


def corpus_config_from_dict(doc: dict) -> CorpusConfig:
    if not isinstance(doc, dict) or "courses" not in doc:
        raise BadConfigError("corpus config must be an object with a 'courses' list")
    known = {f.name for f in dc_fields(SynthConfig)}
    courses = []
    for entry in doc["courses"]:
        if not isinstance(entry, dict):
            raise BadConfigError("each corpus config entry must be an object")
        unknown = set(entry) - known
        if unknown:
            raise BadConfigError(f"unknown corpus config key {sorted(unknown)[0]!r}")
        entry = dict(entry)
        if "launch" in entry:
            entry["launch"] = _parse_date(str(entry["launch"]), "corpus config launch")
        try:
            courses.append(SynthConfig(**entry))
        except TypeError as e:
            raise BadConfigError(f"bad corpus config entry: {e}") from None
    cfg = CorpusConfig(tuple(courses))
    cfg.validate()
    return cfg
