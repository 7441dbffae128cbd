"""Course CSV files against the row-at-a-time reference writer and loader in conftest."""

import csv
import io
import sys
import tracemalloc

import numpy as np
import pytest

from dropoutlab import dataset
from dropoutlab.dataset import (
    CLICKSTREAM_FEATURES,
    CLICKSTREAM_INDEX,
    SynthConfig,
    default_corpus_config,
    load_course_dir,
    synthesize_corpus,
    synthesize_course,
    write_course,
)
from dropoutlab.errors import BadDateError, DropoutLabError, NegativeCounterError

from conftest import (
    Record,
    Student,
    assert_same_counters,
    counters,
    day,
    make_course,
    make_meta,
    reference_load_course,
    reference_write_course,
)

_FILES = ("course_meta.csv", "demographics.csv", "activity.csv", "grades.csv")


def _assert_same_files(a, b):
    for name in _FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def _assert_same_course(a, b):
    assert a.meta == b.meta
    assert a.roster.student_ids == b.roster.student_ids
    for x, y in ((a.activity.student_index, b.activity.student_index),
                 (a.activity.day, b.activity.day),
                 (a.certified, b.certified)):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    assert_same_counters(a.activity, b.activity)
    assert a.final_grade == b.final_grade


def _raised(load, course_dir):
    """(exception class, message) of loading course_dir, or None if it loads."""
    try:
        load(course_dir)
    except DropoutLabError as e:
        return type(e), str(e)
    return None


@pytest.mark.parametrize("seed", [3, 11])
def test_write_matches_reference_on_corpus(tmp_path, seed):
    for course in synthesize_corpus(default_corpus_config(3, 300), seed):
        cid = course.meta.course_id
        write_course(course, tmp_path / "new" / cid)
        reference_write_course(course, tmp_path / "ref" / cid)
        _assert_same_files(tmp_path / "new" / cid, tmp_path / "ref" / cid)
        _assert_same_course(load_course_dir(tmp_path / "new" / cid),
                            reference_load_course(tmp_path / "ref" / cid))


# Values whose text takes each branch of the formatter: fractions, subnormals,
# integral floats either side of 2**53 and 2**63, the largest float, and -0.0.
_EDGE_VALUES = (0.5, 1e-300, 5e-324, 2.0**53 + 2, 2.0**63 - 1024, 2.0**63, 2.0**64, 1e300,
                sys.float_info.max, -0.0, 1023.0, 1024.0, 7.0, 0.1)


@pytest.fixture
def edge_course():
    """Ids that need quoting or keep a leading space, and counters of every formatter branch."""
    students = [Student("a,b", yob=1990), Student('q"x'), Student(" lead", yob=0)]
    names = CLICKSTREAM_FEATURES
    records = [
        Record("a,b", day(0), counters(**dict(zip(names, _EDGE_VALUES)))),
        Record('q"x', day(3), counters(**dict(zip(names[len(_EDGE_VALUES):], _EDGE_VALUES)))),
        Record(" lead", day(69), counters(**{k: v for k, v in zip(reversed(names), _EDGE_VALUES)})),
    ]
    return make_course(make_meta(), students, records, {"a,b": 0.5, 'q"x': 1.0, " lead": -0.0})


def test_write_matches_reference_on_edge_values(tmp_path, edge_course):
    write_course(edge_course, tmp_path / "new")
    reference_write_course(edge_course, tmp_path / "ref")
    _assert_same_files(tmp_path / "new", tmp_path / "ref")
    text = (tmp_path / "new" / "activity.csv").read_bytes().decode("utf-8")
    assert text.startswith('student_id,date,') and '\r\n"a,b",2014-01-06,0.5,1e-300,5e-324,' in text
    assert ",9007199254740994,9223372036854774784,9223372036854775808,18446744073709551616," in text
    # every float from 2**53 up is integral, so 1e300 and the largest float are written as ints
    assert f",{int(1e300)},{int(sys.float_info.max)},0,1023,1024,7,0.1," in text
    assert '\r\n"q""x",2014-01-09,' in text and "\r\n lead,2014-03-16," in text
    grades = (tmp_path / "new" / "grades.csv").read_bytes().decode("utf-8")
    assert grades == 'student_id,final_grade\r\n lead,0\r\n"a,b",0.5\r\n"q""x",1\r\n'
    _assert_same_course(load_course_dir(tmp_path / "new"), reference_load_course(tmp_path / "ref"))


def test_exact_fractions_and_counts_round_trip_as_float64(tmp_path):
    """Columns of exact binary fractions, and of a count of 2**24, are stored
    as float64 beside whole counts in uint8 and uint16, written as their
    values are, and loaded back with the same bytes."""
    records = [Record("s0", day(0), counters(nevents=3, avg_dt=0.5, sdv_dt=0.25, sum_dt=1500,
                                             nforum=2.0**24)),
               Record("s1", day(5), counters(nevents=1, max_dt=1 / 1024, nvideo=7))]
    course = make_course(make_meta(), [Student("s0"), Student("s1")], records,
                         {"s0": 0.75, "s1": 0.0})
    widths = {"avg_dt": np.float64, "sdv_dt": np.float64, "max_dt": np.float64,
              "nforum": np.float64, "sum_dt": np.uint16}
    assert [c.dtype for c in course.activity.columns] == [
        np.dtype(widths.get(name, np.uint8)) for name in CLICKSTREAM_FEATURES]
    write_course(course, tmp_path / "new")
    reference_write_course(course, tmp_path / "ref")
    _assert_same_files(tmp_path / "new", tmp_path / "ref")
    _assert_same_course(load_course_dir(tmp_path / "new"), course)


def test_write_load_write_is_a_fixed_point(tmp_path):
    course = synthesize_course(default_corpus_config(2, 300).courses[1], 5)
    write_course(course, tmp_path / "a")
    write_course(load_course_dir(tmp_path / "a"), tmp_path / "b")
    _assert_same_files(tmp_path / "a", tmp_path / "b")


_HEADER = "student_id,date," + ",".join(CLICKSTREAM_FEATURES)


def _row(sid="s0", date="2014-01-20", cells=None):
    return ",".join([sid, date] + list(cells or ["0"] * len(CLICKSTREAM_FEATURES)))


def _course_dir(tmp_path, activity_rows):
    """A one-course directory with students s0 and s1, whose activity.csv holds the rows."""
    (tmp_path / "course_meta.csv").write_text(
        "course_id,launch_date,end_date,t100_date,cert_threshold,field\r\n"
        "Tx,2014-01-06,2014-03-17,2014-03-03,0.7,STEM\r\n")
    (tmp_path / "demographics.csv").write_text(
        "student_id,yob,loe,gender,continent,precourse_survey\r\n"
        "s0,1990,Bachelor,Female,Europe,1\r\ns1,,,,,0\r\n")
    (tmp_path / "activity.csv").write_text(
        _HEADER + "\r\n" + "".join(r + "\r\n" for r in activity_rows), encoding="utf-8")
    (tmp_path / "grades.csv").write_text("student_id,final_grade\r\ns0,0.8\r\n")
    return tmp_path


def _with_cell(cell, column=5):
    cells = ["1"] * len(CLICKSTREAM_FEATURES)
    cells[column] = cell
    return cells


def test_float_cells_load_like_float(tmp_path):
    """The loader accepts exactly what float() accepts, and reads the same value."""
    accepted = [" 3 ", "1_000", "1e3", "-0", "0.1", "３", "٣", "+7", "0001.50"]
    d = _course_dir(tmp_path, [_row(date=f"2014-01-{7 + k:02d}", cells=_with_cell(cell, k))
                               for k, cell in enumerate(accepted)])
    new, ref = load_course_dir(d), reference_load_course(d)
    _assert_same_course(new, ref)
    got = [new.activity.columns[k][k] for k in range(len(accepted))]
    # the column of "-0" holds only whole counts, so it stores -0.0 as 0
    assert np.array([3.0, 1000.0, 1000.0, 0.0, 0.1, 3.0, 3.0, 7.0, 1.5]).tobytes() \
        == np.array(got, dtype=np.float64).tobytes()


_GOOD = [_row("s0", "2014-01-07"), "", _row("s1", "2014-01-07")]


@pytest.mark.parametrize("rows", [
    pytest.param(_GOOD + [_row("sX")], id="unknown-student"),
    pytest.param(_GOOD + [_row(date="07/01/2014")], id="bad-date"),
    pytest.param(_GOOD + [_row(date="20140120")], id="basic-form-date"),
    pytest.param(_GOOD + [_row(date="2014-W04-1")], id="week-form-date"),
    pytest.param(_GOOD + [_row(date="2014-01-05")], id="date-before-launch"),
    pytest.param(_GOOD + [_row(date="2014-03-18")], id="date-after-end"),
    pytest.param(_GOOD + [_row(date="2014-03-17"), _row(date="2014-03-18")], id="late-date-repeated"),
    pytest.param(_GOOD + [_row(cells=_with_cell("abc"))], id="not-a-number"),
    pytest.param(_GOOD + [_row(cells=_with_cell(""))], id="empty-cell"),
    pytest.param(_GOOD + [_row(cells=_with_cell("0x10"))], id="hex"),
    pytest.param(_GOOD + [_row(cells=_with_cell("1__0"))], id="double-underscore"),
    pytest.param(_GOOD + [_row(cells=_with_cell("½"))], id="vulgar-fraction"),
    pytest.param(_GOOD + [_row(cells=_with_cell("nan"))], id="nan"),
    pytest.param(_GOOD + [_row(cells=_with_cell("inf"))], id="inf"),
    pytest.param(_GOOD + [_row(cells=_with_cell("-Infinity"))], id="minus-infinity"),
    pytest.param(_GOOD + [_row(cells=_with_cell("1e999"))], id="overflow"),
    pytest.param(_GOOD + [_row(cells=_with_cell("-1"))], id="negative"),
    pytest.param(_GOOD + [_row(cells=_with_cell("-1e-300", 30))], id="negative-last-column"),
    pytest.param(_GOOD + [_row("s1", "2014-01-08"), _row("s1", "2014-01-08")], id="duplicate-day"),
    # only YYYY-MM-DD is a date, so another spelling of a day is a bad date, not a repeat
    pytest.param(_GOOD + [_row("s1", "2014-01-08"), _row("s1", "20140108")], id="duplicate-other-spelling"),
    pytest.param(_GOOD + [_row()[: _row().rindex(",")]], id="short-row"),
    pytest.param(_GOOD + [_row() + ",999"], id="long-row"),
    pytest.param(_GOOD + ['"s0,x",2014-01-20'], id="quoted-id-short-row"),
])
def test_single_fault_raises_like_reference(tmp_path, rows):
    d = _course_dir(tmp_path, rows)
    expected = _raised(reference_load_course, d)
    assert expected is not None
    assert _raised(load_course_dir, d) == expected


def test_good_file_loads_like_reference(tmp_path):
    d = _course_dir(tmp_path, _GOOD + [_row("s1", "2014-03-17", _with_cell("2.5", 30))])
    _assert_same_course(load_course_dir(d), reference_load_course(d))


class TestWhichFaultWins:
    """Per-row faults in file order; counter and repeat faults after the scan."""

    def test_per_row_fault_beats_earlier_counter_fault(self, tmp_path):
        d = _course_dir(tmp_path, [_row(cells=_with_cell("-1")), _row("s1", "bad")])
        with pytest.raises(BadDateError, match=r"activity\.csv:3 date: bad date 'bad'"):
            load_course_dir(d)
        # the row-at-a-time reference stops at the first line instead
        with pytest.raises(NegativeCounterError, match=r"activity\.csv:2"):
            reference_load_course(d)

    def test_earlier_line_wins_between_counter_and_repeat(self, tmp_path):
        d = _course_dir(tmp_path, [_row(), _row("s1", cells=_with_cell("nan")), _row()])
        with pytest.raises(NegativeCounterError, match=r"activity\.csv:3: column 'nevents': value nan"):
            load_course_dir(d)

    def test_repeat_wins_on_its_own_line(self, tmp_path):
        d = _course_dir(tmp_path, [_row(), _row(cells=_with_cell("-1"))])
        assert _raised(load_course_dir, d) == _raised(reference_load_course, d)
        assert "activity.csv:3: duplicate record for (s0, 2014-01-20)" in _raised(load_course_dir, d)[1]


# The block reader (np.loadtxt) against the row scan it falls back to.

# Roster ids that csv quotes (a comma, a quote), that keep a space, that are not
# ASCII, or that another id extends; and two whose quoted cell holds a line end.
_ODD_IDS = ("a,b", 'q"x', " lead", "é", "s1", "s10")
_LINE_END_IDS = ("n\nl", "c\rr")
# Counter cells: float() and np.loadtxt both read the first row, only float()
# the second, and the third neither; the last row is read but not finite and >= 0.
_ODD_CELLS = (" 3 ", "+.5", "1e-400", "2.5E1", "0007", "-0", "1e308", "\t2\x0c",
              "1_000", "３", "٣", "1e1_0",
              "0x10", "", "1 1", "\x1c1", "1\x00", "½", "1e",
              "nan", "inf", "-1", "1e999")
_ODD_DATES = ("2014-01-07 ", "2014-1-7", "2014-01-05", "2014-03-18", "20140107", "2014-03-17")


def _scan_only(monkeypatch, load, course_dir):
    """load(course_dir) with the block reader turned off, so that the row scan reads activity.csv."""
    with monkeypatch.context() as m:
        m.setattr(dataset, "_read_activity", lambda *args: None)
        return load(course_dir)


def _outcome(course_dir):
    """The loaded arrays' bytes, or the class and message of the error."""
    try:
        c = load_course_dir(course_dir)
    except Exception as e:  # whatever the scan raises, the block reader must raise too
        return type(e), str(e)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in
            (c.activity.student_index, c.activity.day, *c.activity.columns, c.certified)]


def _mutate(rng, rows):
    """The text of activity.csv rows after one to three seeded mutations."""
    rows = [list(r) for r in rows]
    quoting, text_edits = csv.QUOTE_MINIMAL, []
    for _ in range(rng.integers(1, 4)):
        kind = int(rng.integers(15))
        r = int(rng.integers(1, len(rows))) if len(rows) > 1 else 0
        if kind in (0, 1) and r:
            rows[r][int(rng.integers(2, len(rows[r])))] = str(rng.choice(_ODD_CELLS))
        elif kind == 2 and r:
            rows[r][1] = str(rng.choice(_ODD_DATES))
        elif kind == 3 and r:
            rows[r][0] = str(rng.choice([rows[r][0] + "x", rows[r][0][:-1], *_LINE_END_IDS]))
        elif kind == 4:
            i, j = rng.choice(np.arange(2, len(rows[0])), 2, replace=False)
            rows[0][i], rows[0][j] = rows[0][j], rows[0][i]
        elif kind == 5:
            rows.insert(int(rng.integers(1, len(rows) + 1)), list(rows[r]))  # a repeat
        elif kind == 6 and r:
            rows[r] = rows[r][:-1] if rng.random() < 0.5 else rows[r] + ["0"]
        elif kind == 7:
            rows = rows[:1]
        elif kind == 8:
            head, body = rows[:1], rows[1:]
            rng.shuffle(body)
            rows = head + body
        elif kind == 9:
            quoting = csv.QUOTE_ALL
        else:
            text_edits.append(kind)
    out = io.StringIO(newline="")
    csv.writer(out, quoting=quoting).writerows(rows)
    text = out.getvalue()
    for kind in text_edits:
        at = int(rng.integers(len(text) + 1))
        line_start = text.rfind("\n", 0, at) + 1
        if kind == 10:
            text = text[:line_start] + str(rng.choice(["\r\n", "  \r\n", "\t\n"])) + text[line_start:]
        elif kind == 11:
            text = text[:at] + str(rng.choice(["\r", "\n", '"', "\x00", "\x1c", ","])) + text[at:]
        elif kind == 12:
            text = "\ufeff" + text
        elif kind == 13:
            text = text.removesuffix("\r\n")
        else:
            text = text.replace("\r\n", "\n")
    return text


def test_block_reader_loads_like_the_row_scan(tmp_path, monkeypatch):
    """Seeded mutations of a good activity.csv: the block reader's arrays or error
    are those of the row scan alone, also with blocks of a few lines."""
    rng = np.random.default_rng(23)
    records = [Record(sid, day(int(d)), counters(nevents=1 + int(d), nforum=float(k) / 4,
                                                  avg_dt=float(rng.integers(0, 10**6))))
               for k, sid in enumerate(_ODD_IDS)
               for d in sorted(rng.choice(70, 4, replace=False))]
    students = [Student(s) for s in _ODD_IDS + _LINE_END_IDS]
    write_course(make_course(make_meta(), students, records, {"a,b": 0.8}), tmp_path / "base")
    with open(tmp_path / "base" / "activity.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    read = dataset._read_activity
    accepted = []
    monkeypatch.setattr(dataset, "_read_activity",
                        lambda *args: accepted.append(read(*args)) or accepted[-1])
    for case in range(150):
        d = tmp_path / str(case)
        d.mkdir()
        for name in _FILES:
            if name != "activity.csv":
                (d / name).write_bytes((tmp_path / "base" / name).read_bytes())
        (d / "activity.csv").write_text(_mutate(rng, rows), encoding="utf-8", newline="")
        monkeypatch.setattr(dataset, "_BLOCK_CHARS", int(rng.choice([1, 40, 200, 1 << 20])))
        assert _outcome(d) == _scan_only(monkeypatch, _outcome, d), case
    # both ways were taken: the block reader read some mutated files and left others to the scan
    n_read = sum(a is not None for a in accepted)
    assert 25 <= n_read <= len(accepted) - 25, n_read


@pytest.mark.parametrize("cell", ["nan", "inf", "-1", "-0.5"])
def test_bad_counter_has_one_message_on_both_readers(tmp_path, monkeypatch, cell):
    d = _course_dir(tmp_path, [_row("s0"), _row("s1", cells=_with_cell(cell))])
    expected = (NegativeCounterError, f"{d / 'activity.csv'}:3: column 'nevents': "
                                      f"value {cell} must be finite and >= 0")
    assert _raised(load_course_dir, d) == expected
    assert _scan_only(monkeypatch, lambda p: _raised(load_course_dir, p), d) == expected


@pytest.mark.parametrize("size", [1, 1 << 20])
@pytest.mark.parametrize("second", [_row('"s1"', "2014-01-21"), '"'], ids=["row", "quote"])
def test_quoted_line_end_is_read_across_blocks(tmp_path, monkeypatch, size, second):
    """A last cell that opens a quote runs on into the next line: with a row
    there, the two lines are one long row; with a lone quote, one good row."""
    monkeypatch.setattr(dataset, "_BLOCK_CHARS", size)
    d = _course_dir(tmp_path, [_row("s0", "2014-01-20", ["0"] * 30 + ['"5']), second])
    assert _raised(load_course_dir, d) == _raised(reference_load_course, d)
    if second == '"':
        _assert_same_course(load_course_dir(d), reference_load_course(d))


def _no_scan(*args):
    raise AssertionError("the row scan ran")


def test_synthesized_course_loads_without_the_row_scan(tmp_path, monkeypatch):
    """A written course is read by the block reader alone, in blocks of the
    default size, in one block, and in blocks of about ten rows."""
    course = synthesize_course(default_corpus_config(2, 300).courses[1], 9)
    write_course(course, tmp_path)
    expected = _scan_only(monkeypatch, load_course_dir, tmp_path)
    monkeypatch.setattr(dataset, "_scan_activity", _no_scan)
    for size in (dataset._BLOCK_CHARS, 1 << 20, 999):
        monkeypatch.setattr(dataset, "_BLOCK_CHARS", size)
        _assert_same_course(load_course_dir(tmp_path), expected)
    _assert_same_course(expected, course)


def _assert_both_readers_agree(monkeypatch, course_dir):
    """The course both readers load from course_dir, in blocks of the default
    sizes and in blocks of about ten rows, each time the same dtypes and bytes."""
    for rows, chars in ((dataset._SCAN_ROWS, dataset._BLOCK_CHARS), (10, 999)):
        monkeypatch.setattr(dataset, "_SCAN_ROWS", rows)
        monkeypatch.setattr(dataset, "_BLOCK_CHARS", chars)
        scanned = _scan_only(monkeypatch, load_course_dir, course_dir)
        with monkeypatch.context() as m:
            m.setattr(dataset, "_scan_activity", _no_scan)
            _assert_same_course(scanned, load_course_dir(course_dir))
    return scanned


@pytest.mark.parametrize("problems_per_day,dtype", [
    (8.0, np.uint16), (1e5, np.float64), (2.0**30, np.float64),
])
def test_scan_stores_counters_as_the_block_reader_does(tmp_path, monkeypatch,
                                                       problems_per_day, dtype):
    """Both readers give one file's counters the same widths and bytes; dtype
    is the widest column's."""
    cfg = SynthConfig(course_id="Sx", n_students=60, problems_per_day=problems_per_day)
    write_course(synthesize_course(cfg, 2), tmp_path)
    scanned = _assert_both_readers_agree(monkeypatch, tmp_path)
    assert max((c.dtype for c in scanned.activity.columns), key=lambda t: t.itemsize) == dtype


@pytest.mark.parametrize("value,dtype", [
    ("255", np.uint8), ("256", np.uint16), ("65535", np.uint16), ("65536", np.float64),
])
def test_both_readers_widen_a_column_at_its_last_row(tmp_path, monkeypatch, value, dtype):
    """A column of ones whose last row holds value, read in blocks of about
    ten rows and of the default sizes: the block that holds it widens the
    column, which keeps every value; the other columns stay uint8."""
    rows = [_row(sid, f"2014-02-{d:02d}", _with_cell("1")) for sid in ("s0", "s1")
            for d in range(1, 29)]
    rows[-1] = _row("s1", "2014-03-01", _with_cell(value))
    course = _assert_both_readers_agree(monkeypatch, _course_dir(tmp_path, rows))
    for k, column in enumerate(course.activity.columns):
        assert column.dtype == (dtype if k == 5 else np.uint8), CLICKSTREAM_FEATURES[k]
        expected = np.ones(len(rows))
        expected[-1] = float(value) if k == 5 else 1.0
        assert column.astype(np.float64).tobytes() == expected.tobytes()


@pytest.mark.parametrize("rows", [7, 100])
def test_rows_ended_by_lone_carriage_returns_outgrow_the_counted_lines(tmp_path, monkeypatch,
                                                                       rows):
    """A file whose rows end in a lone \\r has one counted line, so the scan
    grows its table as it meets rows, and loads what the reference does."""
    monkeypatch.setattr(dataset, "_SCAN_ROWS", rows)
    course = synthesize_course(default_corpus_config(1, 30).courses[0], 8)
    write_course(course, tmp_path)
    path = tmp_path / "activity.csv"
    path.write_bytes(path.read_bytes().replace(b"\r\n", b"\r"))
    assert path.read_bytes().count(b"\n") == 0 and len(course.activity) > 2 * rows
    _assert_same_course(load_course_dir(tmp_path), reference_load_course(tmp_path))
    _assert_same_course(load_course_dir(tmp_path), course)


def test_scan_holds_no_float64_copy_of_the_counters(tmp_path, monkeypatch):
    """The row scan's peak of traced memory, roster and grades included, is
    below the bytes of the counter table in float64: it stores each block of
    rows in the table's dtype as it goes."""
    write_course(synthesize_course(default_corpus_config(1, 2000).courses[0], 7), tmp_path)
    tracemalloc.start()
    try:
        course = _scan_only(monkeypatch, load_course_dir, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(course.activity) * len(CLICKSTREAM_FEATURES)


# The columns a default 2000-student course stores in uint16; the other 28 are uint8
_UINT16_COLUMNS = ("max_dt", "sum_dt", "nvideos_watched_sec")


def test_synthesized_and_loaded_counters_take_their_pinned_widths(tmp_path, monkeypatch):
    """A default 2000-student course (seed 7) holds 28 counters as uint8 and 3
    as uint16, 34 bytes a row, and so does its copy read back by the block
    reader."""
    course = synthesize_course(default_corpus_config(1, 2000).courses[0], 7)
    write_course(course, tmp_path)
    monkeypatch.setattr(dataset, "_scan_activity", _no_scan)
    for c in (course, load_course_dir(tmp_path)):
        assert [column.dtype for column in c.activity.columns] == [
            np.dtype(np.uint16 if name in _UINT16_COLUMNS else np.uint8)
            for name in CLICKSTREAM_FEATURES]
        assert sum(column.nbytes for column in c.activity.columns) == 34 * len(c.activity)


def test_default_4x2000_corpus_stores_112_of_124_columns_as_uint8():
    """The corpus of `synth --courses 4 --students 2000 --seed 7`."""
    corpus = synthesize_corpus(default_corpus_config(4, 2000), 7)
    widths = [column.dtype for c in corpus for column in c.activity.columns]
    assert (widths.count(np.uint8), widths.count(np.uint16)) == (112, 12)
