"""Fixed-width per-student feature matrices and the two normalization schemes.

Every student becomes a 66-column row: 33 demographic dummy variables (age,
level of education, gender, continent, each with an explicit null slot), the
31 clickstream counters accumulated through the as-of date, a 0/1 pre-course
survey flag, and a recency column (days since last action).

A snapshot does no per-student Python work. The demographic dummies and the
survey flag come from the course's Roster columns (yob, loe, gender,
continent, took_precourse_survey, in student-id order); the counters and
recency come from one pass over the activity rows kept at the as-of date
(cumulative_all).
"""

from __future__ import annotations

import csv
import datetime
import json
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .dataset import (
    CLICKSTREAM_FEATURES,
    CONTINENTS,
    GENDERS,
    LOE_LEVELS,
    CourseData,
)
from .errors import (
    BadDateError,
    BadValueError,
    EmptyMatrixError,
    MissingColumnError,
    SchemaMismatchError,
)

_AGE_EDGES = np.arange(10, 61, 5)  # 10, 15, ..., 60; ages are as of 2012
_AGE_NAMES = (
    ("age_lt10",)
    + tuple(f"age_{lo}_{lo + 5}" for lo in range(10, 60, 5))
    + ("age_ge60", "age_null")
)
_LOE_NAMES = tuple(f"loe_{v.lower()}" for v in LOE_LEVELS) + ("loe_null",)
_GENDER_NAMES = tuple(f"gender_{v.lower()}" for v in GENDERS) + ("gender_null",)
_CONTINENT_NAMES = tuple(f"continent_{v.lower()}" for v in CONTINENTS) + ("continent_null",)


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered column names plus the partition of columns into named blocks."""

    names: tuple[str, ...]
    blocks: Mapping[str, range]

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise BadValueError("feature names must be unique")
        covered = sorted(i for r in self.blocks.values() for i in r)
        if covered != list(range(len(self.names))):
            raise BadValueError("blocks must partition the columns exactly")

    @property
    def width(self) -> int:
        return len(self.names)


def _build_default_schema() -> FeatureSchema:
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
    return FeatureSchema(tuple(names), blocks)


DEFAULT_SCHEMA: FeatureSchema = _build_default_schema()

# Columns eligible for percentile normalization: counts and the recency column.
_PERCENTILE_BLOCKS = ("clickstream_cumulative", "days_since_last_action")
DEMOGRAPHIC_BLOCKS = ("age_dummies", "loe_dummies", "gender_dummies", "continent_dummies")


@dataclass(frozen=True)
class FeatureMatrix:
    """Feature rows for one course snapshot; rows follow sorted student ids."""

    schema: FeatureSchema
    student_ids: tuple[str, ...]
    values: np.ndarray
    as_of: datetime.date

    def __post_init__(self) -> None:
        expected = (len(self.student_ids), self.schema.width)
        if self.values.shape != expected:
            raise BadValueError(f"matrix shape {self.values.shape} != {expected}")
        if self.values.size and not np.all(np.isfinite(self.values)):
            raise BadValueError("feature matrix contains non-finite values")

    @property
    def n_rows(self) -> int:
        return len(self.student_ids)

    def take(self, rows: np.ndarray) -> "FeatureMatrix":
        """The matrix of the given row indices, in that order, ids kept aligned."""
        return FeatureMatrix(self.schema, tuple(self.student_ids[i] for i in rows),
                             self.values[rows], self.as_of)


def split_rows(n: int, test_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (train_rows, test_rows) of range(n), each sorted.

    round(test_fraction * n) rows go to the test side, drawn by one
    default_rng(seed).permutation(n); a side left empty is an error.
    """
    n_test = int(round(test_fraction * n))
    if not (0 < n_test < n):
        raise BadValueError(f"test fraction {test_fraction} leaves an empty side for n={n}")
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
    out = np.zeros((len(r), DEFAULT_SCHEMA.blocks[DEMOGRAPHIC_BLOCKS[-1]].stop))
    rows = np.arange(len(r))
    for block, slot in zip(DEMOGRAPHIC_BLOCKS, (age, r.loe, r.gender, r.continent)):
        out[rows, DEFAULT_SCHEMA.blocks[block].start + slot] = 1.0
    return out


def check_as_of(course: CourseData, as_of: datetime.date) -> int:
    if not (course.meta.launch_date <= as_of <= course.meta.end_date):
        raise BadDateError(
            f"as_of {as_of} outside course window "
            f"[{course.meta.launch_date}, {course.meta.end_date}]"
        )
    return course.day_offset(as_of)


def cumulative_all(course: CourseData, off: int) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative counters and recency for every student at day offset off.

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
    values = table.values[kept]
    cum = np.column_stack([np.bincount(idx, weights=column, minlength=n) for column in values.T])
    acted = values[:, CLICKSTREAM_FEATURES.index("nevents")] > 0
    ran, day = idx[acted], table.day[kept][acted]
    last = np.flatnonzero(np.diff(ran, append=-1))  # the last acted row of each run
    dsla = np.full(n, off + 1.0)
    dsla[ran[last]] = off - day[last]
    return cum, dsla


def build_matrix(course: CourseData, as_of: datetime.date) -> FeatureMatrix:
    """Assemble the full 66-column matrix for every enrolled student."""
    off = check_as_of(course, as_of)
    n = course.n_students
    schema = DEFAULT_SCHEMA
    values = np.zeros((n, schema.width))
    demo = demographic_dummies(course)
    values[:, :demo.shape[1]] = demo
    values[:, schema.blocks["precourse_survey"].start] = course.roster.took_precourse_survey
    cum, dsla = cumulative_all(course, off)
    r = schema.blocks["clickstream_cumulative"]
    values[:, r.start:r.stop] = cum
    values[:, schema.blocks["days_since_last_action"].start] = dsla
    return FeatureMatrix(schema, course.roster.student_ids, values, as_of)


@dataclass(frozen=True)
class NormStats:
    """Normalization parameters fit on training rows only.

    kind "zscore": per-column mean and population standard deviation.
    kind "percentile": sorted training reference values for the count-like
    columns (clickstream block and recency); other columns pass through.
    """

    kind: str
    names: tuple[str, ...]
    mean: np.ndarray | None = None
    std: np.ndarray | None = None
    norm_columns: tuple[int, ...] | None = None
    references: tuple[np.ndarray, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == "zscore":
            if self.mean is None or self.std is None:
                raise BadValueError("zscore stats need mean and std")
            if np.any(self.std < 0):
                raise BadValueError("standard deviations must be >= 0")
        elif self.kind == "percentile":
            if self.norm_columns is None or self.references is None:
                raise BadValueError("percentile stats need reference columns")
            for ref in self.references:
                if np.any(np.diff(ref) < 0):
                    raise BadValueError("percentile references must be sorted")
        else:
            raise BadValueError(f"unknown normalization kind {self.kind!r}")


def _require_rows(m: FeatureMatrix) -> None:
    if m.n_rows == 0:
        raise EmptyMatrixError("cannot fit normalization statistics on an empty matrix")


def _require_schema(m: FeatureMatrix, stats: NormStats, kind: str) -> None:
    if stats.kind != kind:
        raise SchemaMismatchError(f"expected {kind} stats, got {stats.kind}")
    if stats.names != m.schema.names:
        raise SchemaMismatchError("normalization stats were fit on a different schema")


def fit_zscore(train: FeatureMatrix) -> NormStats:
    """Per-column mean and population standard deviation of the training rows."""
    _require_rows(train)
    return NormStats(
        kind="zscore",
        names=train.schema.names,
        mean=train.values.mean(axis=0),
        std=train.values.std(axis=0),
    )


def apply_zscore(m: FeatureMatrix, stats: NormStats) -> FeatureMatrix:
    """Standardize every column; zero-variance columns map to 0 (no clipping)."""
    _require_schema(m, stats, "zscore")
    safe = np.where(stats.std > 0, stats.std, 1.0)
    values = (m.values - stats.mean) / safe
    values[:, stats.std == 0] = 0.0
    return FeatureMatrix(m.schema, m.student_ids, values, m.as_of)


def percentile_columns(schema: FeatureSchema) -> tuple[int, ...]:
    cols: list[int] = []
    for block in _PERCENTILE_BLOCKS:
        cols.extend(schema.blocks[block])
    return tuple(cols)


def fit_percentile(train: FeatureMatrix) -> NormStats:
    """Record sorted training values for the count-like columns."""
    _require_rows(train)
    cols = percentile_columns(train.schema)
    refs = tuple(np.sort(train.values[:, j]) for j in cols)
    return NormStats(
        kind="percentile", names=train.schema.names, norm_columns=cols, references=refs
    )


def apply_percentile(m: FeatureMatrix, stats: NormStats) -> FeatureMatrix:
    """Mid-rank percentile of each value against its training reference.

    value' = (count below + half the count equal) / reference size, which is
    monotone in the raw value and lands in [0, 1].
    """
    _require_schema(m, stats, "percentile")
    values = m.values.copy()
    for j, ref in zip(stats.norm_columns, stats.references):
        lo = np.searchsorted(ref, values[:, j], side="left")
        hi = np.searchsorted(ref, values[:, j], side="right")
        values[:, j] = (lo + 0.5 * (hi - lo)) / len(ref)
    return FeatureMatrix(m.schema, m.student_ids, values, m.as_of)


def normalize(train: FeatureMatrix, targets: Sequence[FeatureMatrix], kind: str):
    """Fit stats of the given kind on train and apply to each target matrix."""
    if kind == "zscore":
        stats = fit_zscore(train)
        return stats, [apply_zscore(t, stats) for t in targets]
    if kind == "percentile":
        stats = fit_percentile(train)
        return stats, [apply_percentile(t, stats) for t in targets]
    raise BadValueError(f"unknown normalization kind {kind!r}")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def write_matrix(m: FeatureMatrix, path: str | Path) -> None:
    """Write a feature matrix as CSV: student_id column, then schema columns."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(("student_id",) + m.schema.names)
        # csv.writer writes a float as its repr; a row at a time keeps few floats alive
        w.writerows([sid, *row.tolist()] for sid, row in zip(m.student_ids, m.values))


def load_matrix(path: str | Path, as_of: datetime.date) -> FeatureMatrix:
    """Read a matrix written by write_matrix; as_of is supplied by the caller."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumnError(f"{path}: empty file") from None
        if header[:1] != ["student_id"]:
            raise MissingColumnError(f"{path}: first column must be student_id")
        if tuple(header[1:]) != DEFAULT_SCHEMA.names:
            raise SchemaMismatchError(f"{path}: columns do not match the feature schema")
        ids = []
        values = array("d")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise BadValueError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
            ids.append(row[0])
            try:
                values.extend(map(float, row[1:]))
            except ValueError:
                raise BadValueError(f"{path}:{lineno}: non-numeric feature value") from None
    return FeatureMatrix(DEFAULT_SCHEMA, tuple(ids),
                         np.array(values).reshape(len(ids), DEFAULT_SCHEMA.width), as_of)


def norm_stats_to_dict(stats: NormStats) -> dict:
    doc: dict = {"kind": stats.kind, "names": list(stats.names)}
    if stats.kind == "zscore":
        doc["mean"] = stats.mean.tolist()
        doc["std"] = stats.std.tolist()
    else:
        doc["columns"] = list(stats.norm_columns)
        doc["references"] = [r.tolist() for r in stats.references]
    return doc


_NORM_KEYS = {"zscore": ("mean", "std"), "percentile": ("columns", "references")}


def norm_stats_from_dict(doc: dict) -> NormStats:
    kind = doc.get("kind")
    if kind not in _NORM_KEYS:
        raise BadValueError(f"unknown normalization kind {kind!r}")
    for key in _NORM_KEYS[kind]:
        if key not in doc:
            raise BadValueError(f"{kind} stats need {key!r}")
    names = tuple(doc.get("names", ()))
    if kind == "zscore":
        return NormStats(
            kind="zscore",
            names=names,
            mean=np.asarray(doc["mean"], dtype=np.float64),
            std=np.asarray(doc["std"], dtype=np.float64),
        )
    return NormStats(
        kind="percentile",
        names=names,
        norm_columns=tuple(int(c) for c in doc["columns"]),
        references=tuple(np.asarray(r, dtype=np.float64) for r in doc["references"]),
    )


def save_norm_stats(stats: NormStats, path: str | Path) -> None:
    """JSON sidecar for normalization stats, keyed by kind."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(norm_stats_to_dict(stats), f, indent=1)
        f.write("\n")


def load_norm_stats(path: str | Path) -> NormStats:
    """Read stats written by save_norm_stats (the .norm.json beside a features matrix)."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    try:
        return norm_stats_from_dict(doc)
    except BadValueError as e:
        raise BadValueError(f"{path}: {e}") from None
