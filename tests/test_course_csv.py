"""Course CSV files against the row-at-a-time reference writer and loader in conftest."""

import sys

import numpy as np
import pytest

from dropoutlab.dataset import (
    CLICKSTREAM_FEATURES,
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
                 (a.activity.values, b.activity.values),
                 (a.certified, b.certified)):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
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
    got = [new.activity.values[k, k] for k in range(len(accepted))]
    assert np.array([3.0, 1000.0, 1000.0, -0.0, 0.1, 3.0, 3.0, 7.0, 1.5]).tobytes() \
        == np.array(got).tobytes()


_GOOD = [_row("s0", "2014-01-07"), "", _row("s1", "2014-01-07")]


@pytest.mark.parametrize("rows", [
    pytest.param(_GOOD + [_row("sX")], id="unknown-student"),
    pytest.param(_GOOD + [_row(date="07/01/2014")], id="bad-date"),
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
