"""Course/student/activity data model, CSV ingestion, and the synthetic generator."""

from __future__ import annotations

import datetime
import io
import math
from array import array
from dataclasses import dataclass, field, fields as dc_fields
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    BadConfigError,
    BadDateError,
    BadValueError,
    BeforeLaunchError,
    DuplicateCourseIdError,
    DuplicateStudentDayError,
    MissingColumnError,
    NegativeCounterError,
    UnknownStudentError,
)
from .settings import parse_date, read_csv, usable_cores, write_csv

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


def week_date(meta: CourseMeta, w: int) -> datetime.date:
    """Calendar date of week w: t100_date + 7*w days (week 0 = T100%).

    A week before launch raises BeforeLaunchError, and one past the calendar's
    last day BadValueError; both name the course and the week.
    """
    days = 7 * w  # compared in whole days, which cannot overflow as a date can
    if days > (datetime.date.max - meta.t100_date).days:
        raise BadValueError(f"course {meta.course_id!r}: week {w} falls past {datetime.date.max}")
    if days < (meta.launch_date - meta.t100_date).days:
        raise BeforeLaunchError(
            f"course {meta.course_id!r}: week {w} falls before launch {meta.launch_date}")
    return meta.t100_date + datetime.timedelta(days=days)


# The levels of each categorical roster column; the column holds each
# student's index into its levels, or len(levels) for a non-response.
_LEVELS: dict[str, tuple[str, ...]] = {
    "loe": LOE_LEVELS, "gender": GENDERS, "continent": CONTINENTS,
}


class Roster:
    """The self-reported demographics of one course, as read-only columns.

    Rows follow sorted student ids, the row order of every feature matrix:
    the columns may be given in any student order and are sorted together.
    yob is float64, NaN for a non-response, else a whole year clamped into
    [0, 4024] so that every age bin stays reachable; a finite fractional year
    is rejected, as demographics.csv reads only whole years back. loe, gender
    and continent are intp indices into LOE_LEVELS, GENDERS and CONTINENTS,
    len(levels) for a non-response; took_precourse_survey is float64 0/1.
    """

    __slots__ = ("student_ids", "yob", "loe", "gender", "continent", "took_precourse_survey")

    def __init__(self, student_ids: Sequence[str], yob, loe, gender, continent,
                 took_precourse_survey):
        ids = tuple(student_ids)
        order = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
        self.student_ids = tuple(ids[i] for i in order)
        dup = next((a for a, b in zip(self.student_ids, self.student_ids[1:]) if a == b), None)
        if dup is not None:
            raise BadValueError(f"duplicate student_id {dup!r}")
        given = (yob, loe, gender, continent, took_precourse_survey)
        for name, values in zip(self.__slots__[1:], given):
            column = np.asarray(values, dtype=np.intp if name in _LEVELS else np.float64)
            if column.shape != (len(ids),):
                raise BadValueError(f"roster column {name!r} has shape {column.shape}, "
                                    f"expected ({len(ids)},)")
            column = column[order]
            if name == "yob":
                # a written roster reads back one NaN, and +0.0 for -0.0
                column = np.where(np.isnan(column), np.nan, column)
                fractional = np.isfinite(column) & (column != np.floor(column))
                if fractional.any():
                    k = int(np.argmax(fractional))
                    raise BadValueError(
                        f"student {self.student_ids[k]!r}: yob {column[k]} is not a whole year")
                column = np.clip(column, 0.0, 4024.0) + 0.0
            else:
                n_codes = len(_LEVELS[name]) + 1 if name in _LEVELS else 2  # the survey is 0/1
                ok = np.isin(column, np.arange(n_codes))
                if not ok.all():
                    k = int(np.argmin(ok))
                    raise BadValueError(
                        f"student {self.student_ids[k]!r}: bad {name} {column[k]}")
            column.flags.writeable = False
            setattr(self, name, column)

    def __len__(self) -> int:
        return len(self.student_ids)


# The widths a counter column is stored in, narrowest first
_WIDTHS = (np.dtype(np.uint8), np.dtype(np.uint16), np.dtype(np.float64))


def _widths(block: np.ndarray) -> list[np.dtype]:
    """The stored dtype of each row of block (counters x values): uint8 when
    each of its values is whole and below 2**8, uint16 below 2**16, else
    float64. A few whole-block numpy calls decide every counter, and no value
    is cast, so a NaN, an inf or a negative value warns of nothing."""
    if not block.shape[1]:
        return [_WIDTHS[0]] * len(block)
    # min() is NaN if any value is, and NaN fails both comparisons
    top = block.max(axis=1)
    fits = (block.min(axis=1) >= 0) & (top < 2**16)
    if block.dtype.kind == "f" and fits.any():
        fits &= (block == np.floor(block)).all(axis=1)
    return [_WIDTHS[int(t >= 2**8)] if f else _WIDTHS[2]
            for f, t in zip(fits.tolist(), top.tolist())]


def _stored_counters(column: np.ndarray) -> np.ndarray:
    """column in the width _widths gives all its values, decided _SCAN_ROWS
    values at a time, so that no temporary the size of the column is made. The
    decision stops at the first part that needs the column's own dtype, and
    such a column is returned as it is."""
    width = _WIDTHS[0]
    for lo in range(0, len(column), _SCAN_ROWS):
        if width == column.dtype:
            break
        width = np.promote_types(width, _widths(column[None, lo:lo + _SCAN_ROWS])[0])
    return np.ascontiguousarray(column, dtype=width)


def _put_counters(columns: list[np.ndarray], at, block: np.ndarray) -> None:
    """Store row k of block (counters x values) at columns[k][at], for each k.
    A column that cannot hold its counters of the block exactly is first
    replaced in the list by a copy in the width that can.

    Columns filled block by block this way end in the width _widths gives
    each whole column, as each width holds every value a narrower one does.
    The block is read in C order, one copy of it made if it is not: numpy
    reduces and copies each counter's values fastest when they are adjacent.
    """
    block = np.ascontiguousarray(block)
    for k, width in enumerate(_widths(block)):
        if np.promote_types(columns[k].dtype, width) != columns[k].dtype:
            columns[k] = columns[k].astype(width)
        columns[k][at] = block[k]


def _bad_rows(columns: Sequence[np.ndarray]) -> np.ndarray:
    """The rows holding a counter that is not finite and >= 0, ascending."""
    bad = np.zeros(len(columns[0]), dtype=bool)
    for column in columns:
        if column.dtype.kind == "f":  # a whole width holds only such counters
            bad |= ~((column >= 0.0) & (column < np.inf))  # NaN fails both
    return np.flatnonzero(bad)


class ActivityTable:
    """Columnar store for per-day activity records.

    Rows are sorted by (student index, day offset); student indices refer to the
    owning course's roster, day offsets count from the course launch date.
    columns holds one array per CLICKSTREAM_FEATURES counter, in that order,
    with one value per row, every one finite and >= 0. Arrays are read-only
    once built.

    Each column is stored in the narrowest width that holds all its values
    exactly: uint8 (1 byte) when each is a whole count below 2**8, uint16
    (2 bytes) below 2**16, else float64 (a -0.0 is stored as 0). Readers that
    compute with a column convert it to float64, exactly.

    columns may be any sequence of 31 1-D arrays; a (rows x counters) array
    is given as its transpose. Input already in (student, day) order, as
    synthesized and loaded tables are, is kept rather than copied: an array
    that is contiguous and of its stored dtype (int32 indices and days, a
    column in its own width) becomes the table's own and is made read-only in
    place, and deciding a column's width copies none of it. Other input is
    sorted, converted or narrowed into new arrays.
    """

    __slots__ = ("student_index", "day", "columns")

    def __init__(self, student_index: np.ndarray, day: np.ndarray,
                 columns: Sequence[np.ndarray]):
        n = len(student_index)
        if len(columns) != len(CLICKSTREAM_FEATURES):
            raise MissingColumnError(f"activity has {len(columns)} counter columns, "
                                     f"expected {len(CLICKSTREAM_FEATURES)}")
        columns = [np.asarray(c) for c in columns]
        if len(day) != n or any(c.shape != (n,) for c in columns):
            raise BadValueError("activity table arrays are inconsistent")
        student_index, day = np.asarray(student_index), np.asarray(day)
        s, d = student_index[1:], day[1:]
        ordered = np.all((student_index[:-1] < s)
                         | ((student_index[:-1] == s) & (day[:-1] <= d)))
        if not ordered:  # lexsort is stable, so it leaves ordered input as it is
            order = np.lexsort((day, student_index))
            student_index, day = student_index[order], day[order]
            columns = [c[order] for c in columns]
        self.student_index = np.ascontiguousarray(student_index, dtype=np.int32)
        self.day = np.ascontiguousarray(day, dtype=np.int32)
        columns = [c if c.dtype in _WIDTHS else c.astype(np.float64) for c in columns]
        bad = _bad_rows(columns)
        if len(bad):
            pos = bad[0]
            k = next(k for k, c in enumerate(columns) if not 0.0 <= c[pos] < np.inf)
            raise NegativeCounterError(
                f"activity row (student index {self.student_index[pos]}, day offset "
                f"{self.day[pos]}): counter {CLICKSTREAM_FEATURES[k]!r} = {columns[k][pos]} "
                f"must be finite and >= 0"
            )
        self.columns = tuple(map(_stored_counters, columns))
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
        for arr in (self.student_index, self.day, *self.columns):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.day)


@dataclass(frozen=True)
class CourseData:
    """Everything known about one course: metadata, roster, activity, final grades.

    certified (float64 0/1, read-only, in roster order) is the certification
    label, derived once when the course is built: 1 iff the final grade
    reaches cert_threshold, where a student with no grade counts as grade 0.
    """

    meta: CourseMeta
    roster: Roster
    activity: ActivityTable
    final_grade: Mapping[str, float]
    certified: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        on_roster = set(self.roster.student_ids)
        for sid, g in self.final_grade.items():  # what grades.csv can hold
            if sid not in on_roster:
                raise UnknownStudentError(f"course {self.meta.course_id!r}: student {sid!r} "
                                          "has a grade but is not on the roster")
            if not 0.0 <= g <= 1.0:
                raise BadValueError(f"course {self.meta.course_id!r}: student {sid!r}: "
                                    f"final_grade {g} not in [0, 1]")
        certified = np.array([self.final_grade.get(sid, 0.0) >= self.meta.cert_threshold
                              for sid in self.roster.student_ids], dtype=np.float64)
        certified.flags.writeable = False
        object.__setattr__(self, "certified", certified)
        if len(self.activity) and (
            self.activity.student_index.min() < 0
            or self.activity.student_index.max() >= len(self.roster)
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
        return len(self.roster)

    def day_offset(self, date: datetime.date) -> int:
        return (date - self.meta.launch_date).days


# ---------------------------------------------------------------------------
# CSV ingestion (person_course / person_course_day style tables)
# ---------------------------------------------------------------------------

_META_COLUMNS = ("course_id", "launch_date", "end_date", "t100_date", "cert_threshold", "field")
_DEMO_COLUMNS = ("student_id", "yob", "loe", "gender", "continent", "precourse_survey")
_ACTIVITY_COLUMNS = ("student_id", "date") + CLICKSTREAM_FEATURES
_GRADE_COLUMNS = ("student_id", "final_grade")


def _read_rows(path: str | Path, expected: Sequence[str]) -> Iterator[tuple[int, Sequence[str]]]:
    """Yield (line number, cells in expected order) for each non-blank row after the header.

    A row with more or fewer cells than the header, or a file that is not UTF-8, is rejected.
    """
    path = Path(path)
    rows = read_csv(path)
    _, header = next(rows, (0, None))
    if header is None:
        raise MissingColumnError(f"{path}: empty file, expected header {list(expected)}")
    for col in expected:
        if col not in header:
            raise MissingColumnError(f"{path}: missing column {col!r}")
    pick = itemgetter(*(header.index(c) for c in expected))
    for lineno, raw in rows:
        yield lineno, pick(raw)


def _parse_date(cell: str, where: str) -> datetime.date:
    try:
        return parse_date(cell)
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


def _parse_yob(cell: str) -> float:
    """An integer year of birth as a float; NaN (a non-response) if the cell is no integer.

    float() of an integer too large for a float is +-inf, which the Roster clamps.
    """
    try:
        int(cell)
    except ValueError:
        return math.nan
    return float(cell)


def load_demographics(path: str | Path) -> Roster:
    """The roster of a demographics table; an unknown category is a non-response."""
    lines: dict[str, int] = {}
    yob, survey = [], []
    codes: dict[str, list[int]] = {name: [] for name in _LEVELS}
    for lineno, (sid, y, *cells, took) in _read_rows(path, _DEMO_COLUMNS):
        took = took.strip()
        if took not in ("0", "1"):
            raise BadValueError(f"{path}:{lineno}: precourse_survey must be 0 or 1, got {took!r}")
        if sid in lines:
            raise BadValueError(f"{path}:{lineno}: duplicate student_id {sid!r} "
                                f"(first on line {lines[sid]})")
        lines[sid] = lineno
        yob.append(_parse_yob(y.strip()))
        for (name, levels), cell in zip(_LEVELS.items(), cells):
            cell = cell.strip()
            codes[name].append(levels.index(cell) if cell in levels else len(levels))
        survey.append(took == "1")
    return Roster(list(lines), yob, took_precourse_survey=survey, **codes)


def _activity_day(cell: str, meta: CourseMeta, where: str) -> int:
    """The day offset of an activity date cell inside [launch, end]."""
    date = _parse_date(cell, f"{where} date")
    if date < meta.launch_date or date > meta.end_date:
        raise BadDateError(f"{where}: date {date} outside [{meta.launch_date}, {meta.end_date}]")
    return (date - meta.launch_date).days


def _cell(path: str | Path, lineno: int, column: int) -> str:
    """The text of one cell, re-read from the file; only error messages need it."""
    return next(row for n, row in _read_rows(path, _ACTIVITY_COLUMNS) if n == lineno)[column]


def _count_lines(path: str | Path) -> int:
    """The lines of a file, a last one without a line end included, read a chunk at a time."""
    n, last = 0, b"\n"
    with open(path, "rb") as f:
        while chunk := f.read(1 << 16):
            n, last = n + chunk.count(b"\n"), chunk[-1:]
    return n + (last != b"\n")


def _line_blocks(f, size: int) -> Iterator[str]:
    """The rest of text file f in blocks of whole lines, of about size characters each.

    Only the last block may end without a line end. Every other block ends
    with a line that holds no '"', so that no quoted cell runs on from one
    block into the next.
    """
    text = ""
    while chunk := f.read(size):
        text += chunk
        end = text.rfind("\n") + 1
        while end and '"' in text[text.rfind("\n", 0, end - 1) + 1:end]:
            end = text.rfind("\n", 0, end - 1) + 1
        if end:
            yield text[:end]
            text = text[end:]
    if text:
        yield text


_HEADER_LINES = {",".join(_ACTIVITY_COLUMNS) + end for end in ("\r\n", "\n", "")}
# activity.csv text per np.loadtxt call, about 1,100 synthesized rows: blocks of
# 128 KiB left the heap of a grow run 0.4 MB higher after the load
_BLOCK_CHARS = 96 * 1024
# activity.csv rows the row scan parses before it stores their counters
_SCAN_ROWS = 1024
# np.loadtxt takes these in a number as space, and a NUL ends its text cells; float() and csv do not
_LOADTXT_ONLY = "\x00\x1c\x1d\x1e\x1f"


def _read_activity(path: str | Path, meta: CourseMeta, index: Mapping[str, int]
                   ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]] | None:
    """(student indices, day offsets, counter columns) of activity.csv, read by np.loadtxt
    a block of rows at a time; None for a file that the row scan might read
    otherwise, or that has a fault, which the scan then raises with its line.

    Where each line of a block is one row, np.loadtxt splits and unquotes its
    cells as csv does, and reads a subset of the numbers float() reads, to the
    same values. An id cell is read one character longer than the longest
    roster id and a date cell 11 characters long, so that a longer cell is
    cut and is no roster id and no date.
    """
    width = max(map(len, index), default=0) + 1
    dtype = np.dtype([("id", f"U{width}"), ("date", "U11"),
                      ("values", "f8", (len(CLICKSTREAM_FEATURES),))])
    offsets: dict[str, int] = {}  # each distinct date cell is parsed and checked once
    lo = 0
    with open(path, newline="", encoding="utf-8") as f:
        try:
            if f.readline() not in _HEADER_LINES:
                return None
            n = _count_lines(path) - 1
            students, days = np.empty(n, dtype=np.int32), np.empty(n, dtype=np.int32)
            # uint8, each column widened at the first block whose counters it cannot
            # hold: no float64 copy of the table is made that a narrowing would drop
            columns = [np.empty(n, dtype=_WIDTHS[0]) for _ in CLICKSTREAM_FEATURES]
            for text in _line_blocks(f, _BLOCK_CHARS):
                if text.isspace() or any(c in text for c in _LOADTXT_ONLY):
                    return None  # np.loadtxt warns of a block with no rows
                block = np.loadtxt(io.StringIO(text), dtype=dtype, delimiter=",",
                                   comments=None, quotechar='"', ndmin=1)
                hi = lo + len(block)
                dates = block["date"].tolist()
                for cell in set(dates).difference(offsets):
                    offsets[cell] = _activity_day(cell, meta, str(path))
                students[lo:hi] = np.fromiter(map(index.__getitem__, block["id"].tolist()),
                                              dtype=np.int32, count=len(block))
                days[lo:hi] = np.fromiter(map(offsets.__getitem__, dates),
                                          dtype=np.int32, count=len(block))
                _put_counters(columns, slice(lo, hi), block["values"].T)
                lo = hi
        except (ValueError, KeyError, BadDateError):  # UnicodeDecodeError is a ValueError
            return None
    # np.loadtxt reads no more rows than a block has lines, and fewer where a
    # line is blank or a quoted cell holds a line end
    if lo != n or len(_bad_rows(columns)) or len(_repeated_rows(students, days, meta)):
        return None
    return students, days, columns


def _repeated_rows(students: np.ndarray, days: np.ndarray, meta: CourseMeta) -> np.ndarray:
    """The rows whose (student, day) an earlier row has, ascending."""
    keys = students.astype(np.int64) * ((meta.end_date - meta.launch_date).days + 1) + days
    repeat = np.ones(len(keys), dtype=bool)
    repeat[np.unique(keys, return_index=True)[1]] = False
    return np.flatnonzero(repeat)


def _scan_activity(path: str | Path, meta: CourseMeta, roster: Roster,
                   index: Mapping[str, int]) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """(student indices, day offsets, counter columns) of activity.csv, read one
    row at a time by csv and float(); every fault is raised with its line.

    The counters of each _SCAN_ROWS rows are stored as the block reader
    stores a block's, into columns sized by the file's lines."""
    sidx, day, lines, values = array("i"), array("i"), array("q"), array("d")
    columns = [np.empty(_count_lines(path), dtype=_WIDTHS[0]) for _ in CLICKSTREAM_FEATURES]
    offsets: dict[str, int] = {}  # each distinct date cell is parsed and checked once

    def store() -> None:
        nonlocal values
        hi = len(lines)
        lo = hi - len(values) // len(CLICKSTREAM_FEATURES)
        if hi > len(columns[0]):  # a lone carriage return ends a row, and is no counted line
            for k, column in enumerate(columns):
                columns[k] = np.empty(max(hi, 2 * len(column)), dtype=column.dtype)
                columns[k][:lo] = column[:lo]
        _put_counters(columns, slice(lo, hi),
                      np.frombuffer(values).reshape(hi - lo, len(CLICKSTREAM_FEATURES)).T)
        values = array("d")

    for lineno, row in _read_rows(path, _ACTIVITY_COLUMNS):
        i = index.get(row[0])
        if i is None:
            raise UnknownStudentError(f"{path}:{lineno}: student {row[0]!r} not in demographics")
        d = offsets.get(row[1])
        if d is None:
            d = offsets[row[1]] = _activity_day(row[1], meta, f"{path}:{lineno}")
        sidx.append(i)
        day.append(d)
        lines.append(lineno)
        try:
            values.extend(map(float, row[2:]))
        except ValueError:
            k, cell = next((k, c) for k, c in enumerate(row[2:]) if not _is_number(c))
            raise BadValueError(f"{path}:{lineno}: column {CLICKSTREAM_FEATURES[k]!r}: "
                                f"not a number: {cell!r}") from None
        if len(values) == _SCAN_ROWS * len(CLICKSTREAM_FEATURES):
            store()
    store()

    # the spare rows of the header and blank lines stay behind
    columns = [column[:len(lines)] for column in columns]
    students, days = np.frombuffer(sidx, dtype=np.int32), np.frombuffer(day, dtype=np.int32)
    bad, repeat = _bad_rows(columns), _repeated_rows(students, days, meta)
    if len(repeat) and (not len(bad) or repeat[0] <= bad[0]):
        r = repeat[0]
        date = meta.launch_date + datetime.timedelta(days=int(days[r]))
        raise DuplicateStudentDayError(f"{path}:{lines[r]}: duplicate record for "
                                       f"({roster.student_ids[students[r]]}, {date})")
    if len(bad):
        r = bad[0]
        k = next(k for k, c in enumerate(columns) if not 0.0 <= c[r] < np.inf)
        cell = _cell(path, lines[r], 2 + k)
        raise NegativeCounterError(f"{path}:{lines[r]}: column "
                                   f"{CLICKSTREAM_FEATURES[k]!r}: value {cell} must be finite and >= 0")
    return students, days, columns


def load_course(
    meta_path: str | Path,
    demographics_path: str | Path,
    activity_path: str | Path,
    grades_path: str | Path,
) -> CourseData:
    """Load one course from its four CSV tables.

    activity.csv is read by np.loadtxt, a block of about 1,100 rows at a
    time, into arrays sized by a first count of the file's lines. The whole
    file goes to a row scan instead (csv and float(), one row at a time),
    which accepts it or raises the error below, when the block read could
    differ from the scan's or meets a fault:
    - the header is not the canonical columns in their order;
    - np.loadtxt rejects a block, or reads fewer rows than the file has lines
      (a blank or whitespace-only line, a carriage return or a quoted line
      end inside a row);
    - the file holds a NUL, or one of U+001C..U+001F, which np.loadtxt takes
      as space around a number and float() does not;
    - an id not on the roster, a date that is not YYYY-MM-DD or is outside
      the course, a counter that np.loadtxt does not read (it rejects some
      that float() takes, such as 1_000) or that is not finite and >= 0, or a
      repeated (student, day).

    Raises MissingColumnError / BadDateError / NegativeCounterError /
    DuplicateStudentDayError with the offending file, row, and column named;
    a grades.csv row for an unknown or already graded student is rejected too.

    When activity.csv has several faults, the per-row ones (a short or long
    row, an unknown student, a bad or out-of-range date, a counter that is not
    a number) are raised in file order as the scan meets them. A counter that
    is not finite and >= 0 and a repeated (student, day) are found after the
    scan; of those two, the one on the earlier line is raised, the repeat when
    both are on one line.
    """
    meta = load_course_meta(meta_path)
    roster = load_demographics(demographics_path)
    index = {sid: i for i, sid in enumerate(roster.student_ids)}
    activity = (_read_activity(activity_path, meta, index)
                or _scan_activity(activity_path, meta, roster, index))

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

    return CourseData(meta, roster, ActivityTable(*activity), grades)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


# The text of each integral value in [0, 1024), looked up instead of formatted.
_SMALL_INTS = np.array([str(i) for i in range(1024)], dtype=object)
_WRITE_BLOCK = 256  # activity rows formatted at a time: few cell objects are alive at once


def _format_numbers(values: np.ndarray) -> np.ndarray:
    """The CSV cells of an array of numbers, as an object array for write_csv.

    An integral value becomes its decimal text: from a table when small, else
    a Python int (by int64 below 2**63 in magnitude). Every other value stays
    a Python float, which write_csv writes as its repr.
    """
    ints = (np.abs(values) < 2.0**63) & (values == np.floor(values))
    small = ints & (values >= 0.0) & (values < len(_SMALL_INTS))
    cells = np.empty(values.shape, dtype=object)
    cells[small] = _SMALL_INTS[values[small].astype(np.intp)]
    rest = ints & ~small
    cells[rest] = values[rest].astype(np.int64)
    cells[~ints] = values[~ints]
    huge = np.isfinite(values) & (np.abs(values) >= 2.0**63)
    cells[huge] = [int(v) for v in values[huge].tolist()]
    return cells


def _activity_rows(course: CourseData) -> Iterator[list]:
    """The rows of course's activity.csv, their cells formatted _WRITE_BLOCK rows at a time."""
    meta, table = course.meta, course.activity
    ids = np.array(course.roster.student_ids, dtype=object)
    span = (meta.end_date - meta.launch_date).days
    dates = np.array([(meta.launch_date + datetime.timedelta(days=d)).isoformat()
                      for d in range(span + 1)], dtype=object)
    block = np.empty((_WRITE_BLOCK, len(_ACTIVITY_COLUMNS)), dtype=object)
    for lo in range(0, len(table), _WRITE_BLOCK):
        rows = block[:min(_WRITE_BLOCK, len(table) - lo)]
        hi = lo + len(rows)
        rows[:, 0] = ids[table.student_index[lo:hi]]
        rows[:, 1] = dates[table.day[lo:hi]]
        rows[:, 2:] = _format_numbers(
            np.stack([column[lo:hi] for column in table.columns], axis=1, dtype=np.float64))
        yield from rows.tolist()


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
    r = course.roster
    write_csv(paths["meta"], _META_COLUMNS, [(
        meta.course_id, meta.launch_date.isoformat(), meta.end_date.isoformat(),
        meta.t100_date.isoformat(), *_format_numbers(np.array([meta.cert_threshold])), meta.field,
    )])
    yob = _format_numbers(r.yob)
    yob[np.isnan(r.yob)] = ""
    write_csv(paths["demographics"], _DEMO_COLUMNS, zip(
        r.student_ids, yob.tolist(),
        *(np.array(levels + ("",), dtype=object)[getattr(r, name)]
          for name, levels in _LEVELS.items()),
        r.took_precourse_survey.astype(int).tolist(),
    ))
    write_csv(paths["activity"], _ACTIVITY_COLUMNS, _activity_rows(course))
    grades = np.array([course.final_grade.get(sid, 0.0) for sid in r.student_ids],
                      dtype=np.float64)
    write_csv(paths["grades"], _GRADE_COLUMNS,
              zip(r.student_ids, _format_numbers(grades).tolist()))
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
        """Raise BadConfigError naming the course and its first bad parameter."""
        if not self.course_id:
            raise BadConfigError("course_id must be non-empty")
        for bad, problem in (
            (self.field not in FIELDS, f"unknown field {self.field!r}"),
            (self.n_students < 1, f"n_students {self.n_students} must be >= 1"),
            (not isinstance(self.launch, datetime.date), f"launch {self.launch!r} is not a date"),
            (not 1 <= self.weeks_to_t100 <= self.weeks_total, "need 1 <= weeks_to_t100 <= "
             f"weeks_total, got {self.weeks_to_t100}/{self.weeks_total}"),
            (isinstance(self.launch, datetime.date)
             and 7 * self.weeks_total > (datetime.date.max - self.launch).days,
             f"weeks_total {self.weeks_total} ends past {datetime.date.max}"),
            (not 0.0 < self.cert_threshold <= 1.0,
             f"cert_threshold {self.cert_threshold} not in (0, 1]"),
            (not 0.0 <= self.daily_decay < 1.0, f"daily_decay {self.daily_decay} not in [0, 1)"),
            (self.engagement_alpha <= 0 or self.engagement_beta <= 0,
             "engagement Beta parameters must be positive"),
            (not 0.0 <= self.decay_spread <= 1.0,
             f"decay_spread {self.decay_spread} not in [0, 1]"),
            (self.problems_per_day < 0 or self.problems_for_full_grade <= 0,
             "problem-rate parameters must be positive"),
        ):
            if bad:
                raise BadConfigError(f"{self.course_id!r}: {problem}")

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
        if not self.courses:
            raise BadConfigError("corpus config lists no course")
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


def _synth_roster(cfg: SynthConfig, rng: np.random.Generator) -> Roster:
    """Draw the roster; zero-padded ids keep the draw order sorted."""
    n = cfg.n_students
    width = max(5, len(str(n - 1)))
    yob_null = rng.random(n) < 0.12
    age = np.clip(np.rint(rng.normal(32.0, 11.0, n)), 8, 80)
    loe = rng.choice(len(LOE_LEVELS) + 1, size=n,
                     p=[0.02, 0.03, 0.20, 0.10, 0.33, 0.20, 0.04, 0.08])
    gender = rng.choice(len(GENDERS) + 1, size=n, p=[0.46, 0.41, 0.03, 0.10])
    continent = rng.choice(len(CONTINENTS) + 1, size=n,
                           p=[0.20, 0.03, 0.07, 0.25, 0.05, 0.22, 0.08, 0.10])
    survey = rng.random(n) < cfg.survey_rate
    return Roster([f"s{i:0{width}d}" for i in range(n)], np.where(yob_null, np.nan, 2012 - age),
                  loe, gender, continent, survey)


# (student, day) cells per draw: each counter is drawn a block of about this
# many students' days at a time, into buffers reused from block to block
_DRAW_CELLS = 1 << 14


def synthesize_course(config: SynthConfig, seed: int) -> CourseData:
    """Generate one deterministic synthetic course for (config, seed).

    The activity mask, and then each counter in turn, is drawn over blocks of
    students, in student order. numpy's Generator takes its stream element
    by element in C order, so these are the draws of whole (student x day)
    arrays, and no such array of draws is made. Each counter is stored in its
    own column, straight from the draws, in the narrowest width the table
    keeps it in: the column starts as uint8 and is widened, to uint16 or to
    float64, at the first block of draws it cannot hold (problems_per_day
    can drive a count past 2**16).
    """
    config.validate()
    rng = np.random.default_rng(seed)
    meta = config.meta
    n = config.n_students
    roster = _synth_roster(config, rng)

    # Latent engagement: Beta draw plus weak demographic nudges, clipped to [0, 1].
    e0 = rng.beta(config.engagement_alpha, config.engagement_beta, n)
    edu = np.isin(roster.loe, [LOE_LEVELS.index(v) for v in _HIGHER_ED])
    age = 2012 - roster.yob  # NaN, a non-response, fails both comparisons
    prime_age = (25 <= age) & (age < 50)
    e0 = np.clip(
        e0 + config.education_boost * edu + config.age_boost * prime_age
        + config.survey_boost * roster.took_precourse_survey,
        0.0, 1.0,
    )
    jitter = rng.uniform(1.0 - config.decay_spread, 1.0 + config.decay_spread, n)
    retention = (1.0 - config.daily_decay) ** jitter

    n_days = 7 * config.weeks_total
    t = np.arange(n_days)
    engagement = e0[:, None] * retention[:, None] ** t[None, :]
    size = max(1, _DRAW_CELLS // n_days)
    blocks = [slice(lo, min(lo + size, n)) for lo in range(0, n, size)]
    drawn = np.empty((size, n_days))  # one block's uniform draws, then its Poisson rates
    active = np.empty((n, n_days), dtype=bool)
    for b in blocks:
        np.less(rng.random(out=drawn[:b.stop - b.start]), engagement[b], out=active[b])
    cells = np.flatnonzero(active)  # in (student, day) order, which the table keeps
    del active
    # block i fills rows first[i]:first[i + 1] of the table
    first = np.searchsorted(cells, [b.start * n_days for b in blocks] + [n * n_days])

    columns: list[np.ndarray] = []
    rates = _BASE_RATES.copy()
    rates[CLICKSTREAM_INDEX["nproblems_answered"]] = config.problems_per_day
    for k, rate in enumerate(rates):
        column = [np.empty(len(cells), dtype=_WIDTHS[0])]
        for b, lo, hi in zip(blocks, first, first[1:]):
            lam = np.multiply(rate, engagement[b], out=drawn[:b.stop - b.start])
            draw = rng.poisson(lam).take(cells[lo:hi] - b.start * n_days)
            if k == CLICKSTREAM_INDEX["nevents"]:
                draw += 1  # active days always register an event
            _put_counters(column, slice(lo, hi), draw[None])
        columns += column
    del engagement, drawn
    student, day = np.divmod(cells, n_days)

    # whole counts (below 2**53) sum exactly in any order, so per-student sums match a row sum
    answered = np.bincount(student, weights=columns[CLICKSTREAM_INDEX["nproblems_answered"]],
                           minlength=n)
    grade = np.clip(answered / config.problems_for_full_grade, 0.0, 1.0)
    final_grade = dict(zip(roster.student_ids, grade.tolist()))

    table = ActivityTable(student.astype(np.int32), day.astype(np.int32), columns)
    return CourseData(meta, roster, table, final_grade)


def synthesize_corpus(config: CorpusConfig, seed: int) -> list[CourseData]:
    """Generate every course in the corpus, in config order.

    Course i is synthesize_course(config.courses[i], child seed i), a pure
    function of its own SeedSequence((seed, i)) child seed, so the courses are
    built on one thread per usable core (at most one per course) and come out
    the same whatever the thread count. numpy releases the GIL while it draws
    the Poisson counters that are most of a course's time. Every thread has
    ended when this returns, so a process pool forked afterwards starts from a
    single-threaded parent.
    """
    from concurrent.futures import ThreadPoolExecutor
    config.validate()
    seeds = [int(np.random.SeedSequence((seed, i)).generate_state(1)[0])
             for i in range(len(config.courses))]
    with ThreadPoolExecutor(max_workers=min(usable_cores(), len(seeds))) as pool:
        return list(pool.map(synthesize_course, config.courses, seeds))


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


# The JSON types each SynthConfig field takes, by its annotation, as errors name
# them; a bool or a non-finite number fits no field.
_JSON_VALUES = {"str": (str, "a string"), "datetime.date": (str, "a YYYY-MM-DD string"),
                "int": (int, "an integer"), "float": ((int, float), "a finite number")}


def corpus_config_from_dict(doc: dict) -> CorpusConfig:
    """The checked CorpusConfig of a JSON document. An entry's errors name its
    course_id, or its position in the courses list when it has no string course_id."""
    if not isinstance(doc, dict) or not isinstance(doc.get("courses"), list):
        raise BadConfigError("corpus config must be an object with a 'courses' list")
    json_values = {f.name: _JSON_VALUES[f.type] for f in dc_fields(SynthConfig)}
    courses = []
    for i, entry in enumerate(doc["courses"]):
        where = f"corpus config courses[{i}]"
        if not isinstance(entry, dict):
            raise BadConfigError(f"{where} must be an object")
        if isinstance(entry.get("course_id"), str):
            where = f"corpus config {entry['course_id']!r}"
        elif "course_id" not in entry:
            raise BadConfigError(f"{where}: missing course_id")
        for key, value in sorted(entry.items()):
            if key not in json_values:
                raise BadConfigError(f"{where}: unknown key {key!r}")
            types, expected = json_values[key]
            if (isinstance(value, bool) or not isinstance(value, types)
                    or isinstance(value, float) and not math.isfinite(value)):
                raise BadConfigError(f"{where}: {key} must be {expected}, got {value!r}")
        entry = dict(entry)
        if "launch" in entry:
            entry["launch"] = _parse_date(entry["launch"], f"{where}: launch")
        courses.append(SynthConfig(**entry))
    cfg = CorpusConfig(tuple(courses))
    cfg.validate()
    return cfg
