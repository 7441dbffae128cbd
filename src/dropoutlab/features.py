"""Fixed-width per-student feature matrices and their normalization.

Every student becomes a 66-column row: 33 demographic dummy variables (age,
level of education, gender, continent, each with an explicit null slot), the
31 clickstream counters accumulated through the as-of date, a 0/1 pre-course
survey flag, and a recency column (days since last action). This one layout
is a set of module constants: FEATURE_NAMES (WIDTH of them), BLOCKS (block
name -> column range, in order) and PERCENTILE_COLUMNS. Matrices and stats
carry no layout of their own; norm_stats_from_dict, which reads the stats a
model file carries, checks them against it.

A snapshot does no per-student Python work. The demographic dummies and the
survey flag come from the course's Roster columns (yob, loe, gender,
continent, took_precourse_survey, in student-id order); the counters and
recency come from a walk over the activity rows (snapshots). A walk yields
one course's snapshots at ascending dates and reads each row once, so a
caller that needs several dates of one course pays for one pass over its
activity; build_matrix is the walk's one-date case.

normalize fits NormStats of a kind, zscore or percentile, and apply_norm
applies stats by their own kind, so a model is deployed through the stats it
carries; percentile_within is in_situ's faster rank of a matrix against itself.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .dataset import (
    CLICKSTREAM_FEATURES,
    CONTINENTS,
    GENDERS,
    LOE_LEVELS,
    ActivityTable,
    CourseData,
)
from .errors import (
    BadDateError,
    BadValueError,
    EmptyMatrixError,
    SchemaMismatchError,
)
from .evaluate import _midranks
from .settings import write_csv, write_json

_AGE_EDGES = np.arange(10, 61, 5)  # 10, 15, ..., 60; ages are as of 2012
_AGE_NAMES = (
    ("age_lt10",)
    + tuple(f"age_{lo}_{lo + 5}" for lo in range(10, 60, 5))
    + ("age_ge60", "age_null")
)
_LOE_NAMES = tuple(f"loe_{v.lower()}" for v in LOE_LEVELS) + ("loe_null",)
_GENDER_NAMES = tuple(f"gender_{v.lower()}" for v in GENDERS) + ("gender_null",)
_CONTINENT_NAMES = tuple(f"continent_{v.lower()}" for v in CONTINENTS) + ("continent_null",)


def _layout() -> tuple[tuple[str, ...], dict[str, range]]:
    names: list[str] = []
    blocks: dict[str, range] = {}
    for block, cols in (
        ("age_dummies", _AGE_NAMES),
        ("loe_dummies", _LOE_NAMES),
        ("gender_dummies", _GENDER_NAMES),
        ("continent_dummies", _CONTINENT_NAMES),
        ("clickstream_cumulative", tuple(f"cum_{c}" for c in CLICKSTREAM_FEATURES)),
        ("precourse_survey", ("precourse_survey",)),
        ("days_since_last_action", ("days_since_last_action",)),
    ):
        blocks[block] = range(len(names), len(names) + len(cols))
        names.extend(cols)
    return tuple(names), blocks


# The one feature layout: ordered column names and the named blocks that partition them.
FEATURE_NAMES, BLOCKS = _layout()
WIDTH = len(FEATURE_NAMES)
DEMOGRAPHIC_BLOCKS = ("age_dummies", "loe_dummies", "gender_dummies", "continent_dummies")
# Columns eligible for percentile normalization: the counters and the recency column.
PERCENTILE_COLUMNS = (tuple(BLOCKS["clickstream_cumulative"])
                      + tuple(BLOCKS["days_since_last_action"]))


@dataclass(frozen=True)
class FeatureMatrix:
    """Feature rows for one course snapshot; rows follow sorted student ids."""

    student_ids: tuple[str, ...]
    values: np.ndarray
    as_of: datetime.date

    def __post_init__(self) -> None:
        expected = (len(self.student_ids), WIDTH)
        if self.values.shape != expected:
            raise BadValueError(f"matrix shape {self.values.shape} != {expected}")
        if self.values.size and not np.all(np.isfinite(self.values)):
            raise BadValueError("feature matrix contains non-finite values")

    @property
    def n_rows(self) -> int:
        return len(self.student_ids)

    def take(self, rows: np.ndarray) -> "FeatureMatrix":
        """The matrix of the given row indices, in that order, ids kept aligned."""
        return FeatureMatrix(tuple(self.student_ids[i] for i in rows), self.values[rows],
                             self.as_of)


def _test_size(n: int, test_fraction: float, where: str = "") -> int:
    """The test side's row count of split_rows; BadValueError, its message after
    where, if a side would be empty."""
    n_test = int(round(test_fraction * n))
    if not (0 < n_test < n):
        raise BadValueError(f"{where}test fraction {test_fraction} leaves an empty side for n={n}")
    return n_test


def split_rows(n: int, test_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (train_rows, test_rows) of range(n), each sorted.

    round(test_fraction * n) rows go to the test side, drawn by one
    default_rng(seed).permutation(n); a side left empty is an error.
    """
    n_test = _test_size(n, test_fraction)
    order = np.random.default_rng(seed).permutation(n)
    return np.sort(order[n_test:]), np.sort(order[:n_test])


def demographic_dummies(course: CourseData) -> np.ndarray:
    """One-hot demographics of every student, shape (n_students, 33), rows in id order.

    Reads the course's roster columns. Each block carries an explicit null
    slot, so every block contributes exactly one 1 per row regardless of
    non-response.
    """
    r = course.roster
    age = np.where(np.isnan(r.yob), len(_AGE_NAMES) - 1,
                   np.searchsorted(_AGE_EDGES, 2012 - r.yob, side="right"))
    out = np.zeros((len(r), BLOCKS[DEMOGRAPHIC_BLOCKS[-1]].stop))
    rows = np.arange(len(r))
    for block, slot in zip(DEMOGRAPHIC_BLOCKS, (age, r.loe, r.gender, r.continent)):
        out[rows, BLOCKS[block].start + slot] = 1.0
    return out


def check_as_of(course: CourseData, as_of: datetime.date) -> int:
    if not (course.meta.launch_date <= as_of <= course.meta.end_date):
        raise BadDateError(
            f"course {course.meta.course_id!r}: as_of {as_of} outside course window "
            f"[{course.meta.launch_date}, {course.meta.end_date}]"
        )
    return course.day_offset(as_of)


_NEVENTS = CLICKSTREAM_FEATURES.index("nevents")


def snapshots(course: CourseData, dates: Sequence[datetime.date]) -> Iterator[FeatureMatrix]:
    """The course's feature matrix at each date of an ascending sequence, from one walk.

    Every date is checked, and a date earlier than the one before it is a
    BadValueError, before the first matrix is built. The walk keeps each
    student's cumulative counters and last active day; each step adds only
    the activity rows since the previous date, one np.add.at per counter.
    Rows are sorted by (student, day), so a student's sum receives the same
    additions in the same order, from 0.0, as a single scatter over every row
    kept at the date: each matrix has the bits of a one-date build.
    """
    offs = [check_as_of(course, d) for d in dates]
    for prev, off, d in zip(offs, offs[1:], dates[1:]):
        if off < prev:
            raise BadValueError(f"snapshot dates must ascend: {d} follows a later date")
    return _walk(course, dates, offs)


def _walk(
    course: CourseData, dates: Sequence[datetime.date], offs: list[int]
) -> Iterator[FeatureMatrix]:
    n = course.n_students
    base = np.zeros((n, WIDTH))
    base[:, :BLOCKS[DEMOGRAPHIC_BLOCKS[-1]].stop] = demographic_dummies(course)
    base[:, BLOCKS["precourse_survey"].start] = course.roster.took_precourse_survey
    counters = BLOCKS["clickstream_cumulative"]
    recency = BLOCKS["days_since_last_action"].start
    table = course.activity
    cum = np.zeros((len(CLICKSTREAM_FEATURES), n))  # one contiguous row per counter
    last = np.full(n, -1)  # the last day with nevents > 0, -1 for none yet
    done = -1  # the last day offset whose rows are added
    for as_of, off in zip(dates, offs):
        _add_rows(table, np.flatnonzero((table.day > done) & (table.day <= off)), cum, last)
        done = off
        m = base.copy()
        m[:, counters.start:counters.stop] = cum.T
        m[:, recency] = np.where(last >= 0, off - last, off + 1)  # never active: off + 1
        yield FeatureMatrix(course.roster.student_ids, m, as_of)


def _add_rows(table: ActivityTable, rows: np.ndarray, cum: np.ndarray, last: np.ndarray) -> None:
    """Add activity rows, later than every row added before, to the running
    counters (one np.add.at per counter) and last active days of a walk.

    Each counter column's rows are converted to float64 (exactly) just before
    they are added, whatever width the table stores the column in: np.add.at
    of a narrower operand into float64 sums leaves numpy's fast path and takes
    several times as long, and a float64 copy of every column at once would
    take up to eight times the stored bytes."""
    idx = table.student_index[rows]
    for total, column in zip(cum, table.columns):
        np.add.at(total, idx, column[rows].astype(np.float64))
    acted = table.columns[_NEVENTS][rows] > 0
    ran, day = idx[acted], table.day[rows][acted]
    end = np.flatnonzero(np.diff(ran, append=-1))  # each student's last acted row
    last[ran[end]] = day[end]


def build_matrix(course: CourseData, as_of: datetime.date) -> FeatureMatrix:
    """Assemble the full 66-column matrix for every enrolled student: the one-date walk."""
    return next(snapshots(course, [as_of]))


@dataclass(frozen=True)
class NormStats:
    """Normalization parameters fit on training rows only.

    kind "zscore": per-column mean and population standard deviation, WIDTH
    finite values each. kind "percentile": one non-empty, sorted, finite
    vector of training values per PERCENTILE_COLUMNS entry (the counters and
    recency); other columns pass through.
    """

    kind: str
    mean: np.ndarray | None = None
    std: np.ndarray | None = None
    references: tuple[np.ndarray, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == "zscore":
            if self.mean is None or self.std is None:
                raise BadValueError("zscore stats need mean and std")
            for key, v in (("mean", self.mean), ("std", self.std)):
                if v.shape != (WIDTH,) or not np.all(np.isfinite(v)):
                    raise BadValueError(f"zscore {key} must be {WIDTH} finite values, "
                                        f"got shape {v.shape}")
            if np.any(self.std < 0):
                raise BadValueError("standard deviations must be >= 0")
        elif self.kind == "percentile":
            if self.references is None:
                raise BadValueError("percentile stats need references")
            if len(self.references) != len(PERCENTILE_COLUMNS):
                raise BadValueError(f"percentile stats need {len(PERCENTILE_COLUMNS)} "
                                    f"references, got {len(self.references)}")
            for ref in self.references:
                if ref.ndim != 1 or not len(ref) or not np.all(np.isfinite(ref)):
                    raise BadValueError("percentile references must be non-empty finite vectors")
                if np.any(np.diff(ref) < 0):
                    raise BadValueError("percentile references must be sorted")
        else:
            raise BadValueError(f"unknown normalization kind {self.kind!r}")


def _require_rows(m: FeatureMatrix) -> None:
    if m.n_rows == 0:
        raise EmptyMatrixError("cannot fit normalization statistics on an empty matrix")


def normalize(train: FeatureMatrix, targets: Sequence[FeatureMatrix], kind: str):
    """(stats, [apply_norm(t, stats) for t in targets]), stats of the given kind fit on train."""
    _require_rows(train)
    if kind == "zscore":
        stats = NormStats(kind="zscore", mean=train.values.mean(axis=0),
                          std=train.values.std(axis=0))
    elif kind == "percentile":
        stats = NormStats(kind="percentile",
                          references=tuple(np.sort(train.values[:, j]) for j in PERCENTILE_COLUMNS))
    else:
        raise BadValueError(f"unknown normalization kind {kind!r}")
    return stats, [apply_norm(t, stats) for t in targets]


def apply_norm(m: FeatureMatrix, stats: NormStats) -> FeatureMatrix:
    """m normalized by stats, as their kind says.

    zscore standardizes every column, a zero-variance column to 0, with no
    clipping. percentile maps each count-like value to its mid-rank against
    the training reference, (count below + half the count equal) / reference
    size, which is monotone in the raw value and lands in [0, 1]; the other
    columns pass through.
    """
    if stats.kind == "zscore":
        safe = np.where(stats.std > 0, stats.std, 1.0)
        values = (m.values - stats.mean) / safe
        values[:, stats.std == 0] = 0.0
    else:
        values = m.values.copy()
        for j, ref in zip(PERCENTILE_COLUMNS, stats.references):
            lo = np.searchsorted(ref, values[:, j], side="left")
            hi = np.searchsorted(ref, values[:, j], side="right")
            values[:, j] = (lo + 0.5 * (hi - lo)) / len(ref)
    return FeatureMatrix(m.student_ids, values, m.as_of)


def percentile_within(m: FeatureMatrix) -> FeatureMatrix:
    """normalize(m, [m], "percentile")'s matrix, bit for bit: each row ranked
    against its own matrix, in under half the time.

    Against its own column, a value's count below plus half its count equal
    is its mid-rank less one half, so each count-like column becomes
    (mid-rank - 0.5) / n from one rank pass, the one AUC uses.
    """
    _require_rows(m)
    values = m.values.copy()
    for j in PERCENTILE_COLUMNS:
        values[:, j] = (_midranks(values[:, j]) - 0.5) / m.n_rows
    return FeatureMatrix(m.student_ids, values, m.as_of)


def holdout_split(
    m: FeatureMatrix, y: np.ndarray, test_fraction: float, seed: int, kind: str
) -> tuple[NormStats, FeatureMatrix, np.ndarray, FeatureMatrix, np.ndarray]:
    """(stats, train, y_train, test, y_test): m's rows and their labels y split by
    split_rows, both sides normalized with stats of the given kind fit on train.
    y must hold one label per row of m."""
    if len(y) != m.n_rows:
        raise BadValueError(f"{len(y)} labels do not align with {m.n_rows} rows")
    train_rows, test_rows = split_rows(m.n_rows, test_fraction, seed)
    m_train = m.take(train_rows)
    stats, (train, test) = normalize(m_train, [m_train, m.take(test_rows)], kind)
    return stats, train, y[train_rows], test, y[test_rows]


# ---------------------------------------------------------------------------
# Serialization: norm_stats_from_dict is where stats are checked against the layout
# ---------------------------------------------------------------------------

def write_matrix(m: FeatureMatrix, path: str | Path) -> None:
    """Write a feature matrix as CSV: student_id column, then the FEATURE_NAMES columns."""
    # a float is written as its repr, formatted once per distinct value of a
    # column; values are told apart by their bits, so -0.0 keeps its own text
    cells = np.empty((m.n_rows, WIDTH + 1), dtype=object)
    cells[:, 0] = m.student_ids
    for j, column in enumerate(m.values.T, start=1):
        bits, inverse = np.unique(column.view(np.uint64), return_inverse=True)
        cells[:, j] = np.array([repr(v) for v in bits.view(np.float64).tolist()],
                               dtype=object)[inverse]
    write_csv(path, ("student_id",) + FEATURE_NAMES, cells.tolist())


def norm_stats_to_dict(stats: NormStats) -> dict:
    doc: dict = {"kind": stats.kind, "names": list(FEATURE_NAMES)}
    if stats.kind == "zscore":
        doc["mean"] = stats.mean.tolist()
        doc["std"] = stats.std.tolist()
    else:
        doc["columns"] = list(PERCENTILE_COLUMNS)
        doc["references"] = [r.tolist() for r in stats.references]
    return doc


_NORM_KEYS = {"zscore": ("names", "mean", "std"), "percentile": ("names", "columns", "references")}


def norm_stats_from_dict(doc: dict) -> NormStats:
    """Stats from norm_stats_to_dict's form, checked against the feature layout.

    The names must be FEATURE_NAMES and a percentile file's columns
    PERCENTILE_COLUMNS (else SchemaMismatchError); missing keys and values
    of the wrong length or kind raise BadValueError.
    """
    if not isinstance(doc, dict):
        raise BadValueError("normalization stats must be a JSON object")
    kind = doc.get("kind")
    if kind not in _NORM_KEYS:
        raise BadValueError(f"unknown normalization kind {kind!r}")
    for key in _NORM_KEYS[kind]:
        if key not in doc:
            raise BadValueError(f"{kind} stats need {key!r}")
    if doc["names"] != list(FEATURE_NAMES):
        raise SchemaMismatchError("normalization stats name other columns than the feature layout")
    if kind == "zscore":
        return NormStats(kind="zscore", mean=np.asarray(doc["mean"], dtype=np.float64),
                         std=np.asarray(doc["std"], dtype=np.float64))
    if doc["columns"] != list(PERCENTILE_COLUMNS):
        raise SchemaMismatchError("percentile columns must be the counters and recency "
                                  f"columns {PERCENTILE_COLUMNS[0]}..{PERCENTILE_COLUMNS[-1]}")
    return NormStats(kind="percentile",
                     references=tuple(np.asarray(r, dtype=np.float64) for r in doc["references"]))


def save_norm_stats(stats: NormStats, path: str | Path) -> None:
    """JSON sidecar for normalization stats, keyed by kind."""
    write_json(path, norm_stats_to_dict(stats))
