"""Course containers, CSV round-trips, and the synthetic generator."""

import datetime
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

from dropoutlab import dataset
from dropoutlab.dataset import (
    ActivityTable,
    CLICKSTREAM_FEATURES,
    CLICKSTREAM_INDEX,
    CONTINENTS,
    GENDERS,
    LOE_LEVELS,
    CorpusConfig,
    CourseData,
    CourseMeta,
    Roster,
    SynthConfig,
    corpus_config_from_dict,
    corpus_config_to_dict,
    default_corpus_config,
    load_course_dir,
    load_course_meta,
    load_demographics,
    synthesize_corpus,
    synthesize_course,
    write_course,
)
from dropoutlab.errors import (
    BadConfigError,
    BadDateError,
    BadValueError,
    DuplicateCourseIdError,
    DuplicateStudentDayError,
    MissingColumnError,
    NegativeCounterError,
    UnknownStudentError,
)

from conftest import (
    LAUNCH,
    Record,
    Student,
    as_vector,
    assert_same_counters,
    certification_labels,
    counter_values,
    counters,
    day,
    make_course,
    make_meta,
    records_of,
    reference_synthesis,
)

_ROSTER_COLUMNS = ("yob", "loe", "gender", "continent", "took_precourse_survey")


def _assert_same_roster(a, b):
    assert a.student_ids == b.student_ids
    for name in _ROSTER_COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True), name


def _one_row_table(**overrides):
    """An ActivityTable of one row whose counters are counters(**overrides)."""
    c = counters(**overrides)
    return ActivityTable(np.array([0]), np.array([0]),
                         np.array([[c[k]] for k in CLICKSTREAM_FEATURES]))


class TestCourseMeta:
    def test_valid(self):
        m = make_meta()
        assert m.t100_date == LAUNCH + datetime.timedelta(days=56)

    def test_date_order_enforced(self):
        with pytest.raises(BadConfigError):
            CourseMeta("Xx", LAUNCH, LAUNCH + datetime.timedelta(days=70),
                       LAUNCH, 0.7, "STEM")  # t100 == launch
        with pytest.raises(BadConfigError):
            CourseMeta("Xx", LAUNCH, LAUNCH + datetime.timedelta(days=7),
                       LAUNCH + datetime.timedelta(days=14), 0.7, "STEM")  # t100 > end

    def test_threshold_range(self):
        with pytest.raises(BadConfigError):
            make_meta(threshold=0.0)
        with pytest.raises(BadConfigError):
            make_meta(threshold=1.5)
        make_meta(threshold=1.0)  # inclusive top

    def test_unknown_field(self):
        with pytest.raises(BadConfigError):
            make_meta(field="Astrology")


def _null_roster(**codes):
    """A one-student roster of non-responses, with the given column values."""
    columns = dict(yob=[np.nan], loe=[len(LOE_LEVELS)], gender=[len(GENDERS)],
                   continent=[len(CONTINENTS)], took_precourse_survey=[0.0])
    columns.update({name: [v] for name, v in codes.items()})
    return Roster(["s0"], **columns)


class TestRoster:
    def test_codes_validated(self):
        for name, levels in (("loe", LOE_LEVELS), ("gender", GENDERS), ("continent", CONTINENTS)):
            for code in (-1, len(levels) + 1):
                with pytest.raises(BadValueError, match=rf"'s0': bad {name} {code}"):
                    _null_roster(**{name: code})

    def test_survey_must_be_binary(self):
        with pytest.raises(BadValueError, match="took_precourse_survey"):
            _null_roster(took_precourse_survey=0.5)

    def test_all_null_is_fine(self):
        r = _null_roster()
        assert np.isnan(r.yob[0]) and r.loe[0] == len(LOE_LEVELS)
        assert r.took_precourse_survey[0] == 0.0 and len(r) == 1

    def test_columns_must_align(self):
        with pytest.raises(BadValueError, match="'gender'"):
            Roster(["a", "b"], [1990, 1991], [0, 0], [0], [0, 0], [0, 0])

    def test_duplicate_student_rejected(self):
        with pytest.raises(BadValueError, match="'a'"):
            Roster(["a", "b", "a"], [np.nan] * 3, [0] * 3, [0] * 3, [0] * 3, [0] * 3)

    def test_fractional_yob_rejected(self):
        with pytest.raises(BadValueError, match="'s1': yob 1990.5 is not a whole year"):
            Roster(["s0", "s1"], [1991.0, 1990.5], [0, 0], [0, 0], [0, 0], [0, 0])

    @pytest.mark.parametrize("yob", [
        1990.0, 1990.5, 0.0, -0.0, -3.0, -2.5, 0.25, 5e-324, 2012.999999, 4024.0, 4024.5,
        5000.0, 2.0 ** 52 + 1, 1e300, -1e300, np.inf, -np.inf, np.nan, -np.nan,
        np.array([0x7FF0000000000001], dtype=np.uint64).view(np.float64)[0],  # a NaN payload
    ])
    def test_every_accepted_yob_survives_write_and_load(self, yob, tmp_path):
        try:
            roster = Roster(["s0", "s1"], [yob, 1991.0], [0, 0], [0, 0], [0, 0], [0, 0])
        except BadValueError as e:
            assert np.isfinite(yob) and yob != np.floor(yob)
            assert "'s0'" in str(e)
            return
        assert not (np.isfinite(yob) and yob != np.floor(yob))
        empty = ActivityTable(np.zeros(0, np.int32), np.zeros(0, np.int32),
                              np.zeros((len(CLICKSTREAM_FEATURES), 0)))
        write_course(CourseData(make_meta(), roster, empty, {}), tmp_path)
        back = load_demographics(tmp_path / "demographics.csv")
        assert back.yob.tobytes() == roster.yob.tobytes()


class TestActivityRecords:
    def test_missing_counter(self):
        c = counters()
        values = np.array([[c[k] for k in CLICKSTREAM_FEATURES]])
        with pytest.raises(MissingColumnError):
            ActivityTable(np.array([0]), np.array([0]),
                          np.delete(values, CLICKSTREAM_INDEX["nvideo"], axis=1).T)

    def test_negative_counter(self):
        with pytest.raises(NegativeCounterError, match="'nforum'"):
            _one_row_table(nforum=-1)

    def test_non_finite_counter(self):
        with pytest.raises(NegativeCounterError, match="'sum_dt'"):
            _one_row_table(sum_dt=float("nan"))
        with pytest.raises(NegativeCounterError, match="'sum_dt'"):
            _one_row_table(sum_dt=float("inf"))

    def test_counter_check_names_the_row(self):
        values = np.zeros((3, len(CLICKSTREAM_FEATURES)))
        values[0, CLICKSTREAM_INDEX["nvideo"]] = -2.0  # the row of (student 1, day 4)
        with pytest.raises(NegativeCounterError,
                           match=r"student index 1, day offset 4\): counter 'nvideo' = -2\.0"):
            ActivityTable(np.array([1, 0, 0]), np.array([4, 1, 2]), values.T)

    def test_negative_zero_is_zero(self):
        assert len(_one_row_table(nvideo=-0.0)) == 1

    def test_table_sorts_rows(self):
        given = (np.array([1, 0, 0], dtype=np.int32), np.array([5, 9, 2], dtype=np.int32),
                 [np.arange(3, dtype=np.uint8) + k for k in range(len(CLICKSTREAM_FEATURES))])
        t = ActivityTable(*given)
        assert t.student_index.tolist() == [0, 0, 1]
        assert t.day.tolist() == [2, 9, 5]
        assert t.columns[0].tolist() == [2, 1, 0]  # row for (1, 5) was input row 0
        for kept, arr in zip((t.student_index, t.day, *t.columns), (*given[:2], *given[2])):
            assert not np.shares_memory(kept, arr) and arr.flags.writeable

    def test_table_rejects_duplicates(self):
        with pytest.raises(DuplicateStudentDayError):
            ActivityTable(np.array([0, 0]), np.array([3, 3]),
                          np.zeros((len(CLICKSTREAM_FEATURES), 2)))

    def test_table_is_read_only(self):
        t = ActivityTable(np.array([0]), np.array([1]),
                          np.zeros((len(CLICKSTREAM_FEATURES), 1)))
        with pytest.raises(ValueError):
            t.columns[0][0] = 5

    def test_table_keeps_sorted_input(self):
        # columns already in their width: uint8, uint16 that uint8 cannot
        # hold, and float64 that uint16 cannot hold
        rows = np.arange(3)
        columns = ([(rows + k).astype(np.uint8) for k in range(10)]
                   + [(rows + 254 + k).astype(np.uint16) for k in range(10)]
                   + [rows + k + 0.5 for k in range(5)] + [rows + k + 0.1 for k in range(5)]
                   + [rows + 65534.0])
        given = (np.array([0, 0, 1], dtype=np.int32), np.array([2, 9, 5], dtype=np.int32),
                 columns)
        t = ActivityTable(*given)
        assert [c.dtype for c in t.columns] == [c.dtype for c in columns]
        for kept, arr in zip((t.student_index, t.day, *t.columns), (*given[:2], *columns)):
            assert np.shares_memory(kept, arr)
            assert not kept.flags.writeable and not arr.flags.writeable
        with pytest.raises(ValueError):
            t.day[0] = 1


def _fix_poisson(monkeypatch, draws):
    """Make every cell of synthesis's i-th Poisson call draw draws[i], cycling
    through draws; the activity mask and engagement keep their seeded draws."""
    class Fixed:
        def __init__(self, rng):
            self.rng, self.calls = rng, 0

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def poisson(self, lam):
            self.calls += 1
            return np.full(lam.shape, draws[(self.calls - 1) % len(draws)])
    make = np.random.default_rng
    monkeypatch.setattr(dataset.np.random, "default_rng", lambda seed: Fixed(make(seed)))


class TestStoredDtype:
    """Each counter column is stored as uint8 exactly when each of its values
    is whole and below 2**8, as uint16 when each is whole and below 2**16, else
    as float64; no cast warns (pytest turns warnings into errors)."""

    @pytest.mark.parametrize("value,dtype", [
        (0.0, np.uint8), (255.0, np.uint8), (256.0, np.uint16),
        (65535.0, np.uint16), (65536.0, np.float64), (0.5, np.float64),
        (2.0**24, np.float64), (0.1, np.float64), (2.0**24 + 1, np.float64), (1e300, np.float64),
    ])
    def test_dtype_of_one_value(self, value, dtype):
        t = _one_row_table(nvideo=value, nevents=3)
        assert [c.dtype for c in t.columns] == [
            np.dtype(dtype) if k == CLICKSTREAM_INDEX["nvideo"] else np.dtype(np.uint8)
            for k in range(len(CLICKSTREAM_FEATURES))]
        assert counter_values(t).tobytes() == np.array(
            [[counters(nvideo=value, nevents=3)[k] for k in CLICKSTREAM_FEATURES]]).tobytes()

    def test_negative_zero_is_stored_as_zero(self):
        """uint8 has no -0.0; the 0 stored for it equals it, and reads back as +0.0."""
        t = _one_row_table(nvideo=-0.0, nevents=3)
        assert t.columns[CLICKSTREAM_INDEX["nvideo"]].dtype == np.uint8
        assert counter_values(t).tobytes() == np.array(
            [[counters(nvideo=0.0, nevents=3)[k] for k in CLICKSTREAM_FEATURES]]).tobytes()

    @pytest.mark.parametrize("drawn,dtype", [
        (254, np.uint8), (255, np.uint16), (65534, np.uint16), (65535, np.float64),
    ])
    def test_nevents_draw_widens_before_its_one_is_added(self, monkeypatch, drawn, dtype):
        """With every Poisson draw fixed, nevents is the draw + 1: 255 from a
        draw of 254 is stored as uint8, 256 from a draw of 255 widens its
        column to uint16, 65535 from a draw of 65534 is stored as uint16, and
        65536 from a draw of 65535 widens its column to float64. The other
        counters keep the width of the draw itself."""
        _fix_poisson(monkeypatch, [drawn])
        c = synthesize_course(SynthConfig(course_id="Sx", n_students=40), 3)
        others = np.uint8 if drawn < 2**8 else np.uint16
        assert len(c.activity)
        for k, column in enumerate(c.activity.columns):
            nevents = k == CLICKSTREAM_INDEX["nevents"]
            assert column.dtype == (dtype if nevents else others), CLICKSTREAM_FEATURES[k]
            assert (column == drawn + nevents).all(), CLICKSTREAM_FEATURES[k]

    @pytest.mark.parametrize("draws,dtype", [
        ((255, 0, 255), np.uint8), ((0, 256, 1), np.uint16), ((255, 65535, 0), np.uint16),
        ((0, 0, 65536), np.float64), ((256, 65536, 255), np.float64),
    ])
    def test_a_column_widens_at_its_first_block_past_its_width(self, monkeypatch, draws, dtype):
        """A course of three draw blocks whose i-th block draws draws[i] for
        every counter: each column keeps the values of the blocks before the
        one that widens it, and ends in the width of its largest value."""
        size = dataset._DRAW_CELLS // 70  # students per draw block of a 10-week course
        _fix_poisson(monkeypatch, draws)
        c = synthesize_course(SynthConfig(course_id="Sx", n_students=2 * size + 5), 3)
        block = c.activity.student_index // size
        assert set(block.tolist()) == {0, 1, 2}
        for k, column in enumerate(c.activity.columns):
            nevents = k == CLICKSTREAM_INDEX["nevents"]
            expected = np.array(draws, dtype=np.float64)[block] + nevents
            assert column.astype(np.float64).tobytes() == expected.tobytes()
            if not nevents:
                assert column.dtype == dtype, CLICKSTREAM_FEATURES[k]

    def test_one_inexact_value_keeps_its_column_float64(self):
        columns = [np.ones(4) for _ in CLICKSTREAM_FEATURES]
        columns[7][3] = 0.1
        t = ActivityTable(np.arange(4), np.zeros(4), columns)
        assert t.columns[7].dtype == np.float64 and np.shares_memory(t.columns[7], columns[7])
        assert all(c.dtype == np.uint8 for k, c in enumerate(t.columns) if k != 7)

    @pytest.mark.parametrize("value,text", [
        (float("nan"), "nan"), (float("inf"), "inf"), (-1.0, "-1.0"), (-0.5, "-0.5"),
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bad_counter_rejected_before_narrowing(self, value, text, dtype):
        values = np.zeros((2, len(CLICKSTREAM_FEATURES)), dtype=dtype)
        values[1, CLICKSTREAM_INDEX["nforum"]] = value
        with pytest.raises(NegativeCounterError, match=re.escape(
                f"activity row (student index 0, day offset 8): counter 'nforum' = {text} "
                "must be finite and >= 0")):
            ActivityTable(np.array([0, 0]), np.array([4, 8]), values.T)

    def test_reader_built_columns_are_kept_without_a_copy(self):
        """Building a table from columns already in their widths, uint16 and
        fractional float64 ones among them, allocates no more than a quarter
        of a uint8 column beyond what the checks of the indices and days take
        (the peak with uint8 columns alone): no column is cast, or compared
        whole, to decide its width."""
        n = 1 << 17
        rows = np.arange(n)
        narrow = [(rows % 256).astype(np.uint8)] * len(CLICKSTREAM_FEATURES)
        columns = narrow[3:] + [(rows % 65536).astype(np.uint16)] * 2 + [rows / 8.0]
        student, day = np.arange(n, dtype=np.int32), np.zeros(n, dtype=np.int32)
        peaks = []
        for given in (narrow, columns):
            tracemalloc.start()
            try:
                t = ActivityTable(student, day, given)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert all(kept is column for kept, column in zip(t.columns, given))
        assert peaks[1] - peaks[0] < n // 4, peaks


class TestCourseData:
    def test_student_ids_sorted(self, tiny_course):
        assert list(tiny_course.roster.student_ids) == sorted(tiny_course.roster.student_ids)

    def test_duplicate_student_rejected(self):
        meta = make_meta()
        with pytest.raises(BadValueError):
            make_course(meta, [Student("a"), Student("a")],
                        [], {})

    def test_activity_must_reference_roster(self):
        meta = make_meta()
        rec = Record("ghost", LAUNCH, counters(nevents=1))
        with pytest.raises(UnknownStudentError):
            make_course(meta, [Student("a")], [rec], {})

    def test_activity_date_range_enforced(self):
        meta = make_meta(weeks_to_t100=1, weeks_total=2)
        late = Record("a", day(15), counters(nevents=1))
        with pytest.raises(BadDateError):
            make_course(meta, [Student("a")], [late], {})

    def test_roster_columns_in_id_order(self):
        students = [  # the two extreme yob values are clamped into [0, 4024]
            Student("b", yob=1990, loe="Master", gender="Female",
                    continent="Asia", took_precourse_survey=True),
            Student("a"),
            Student("c", yob=-10**400, loe="Elementary", gender="Male",
                    continent="Europe"),
            Student("d", yob=10**400),
        ]
        r = make_course(make_meta(), students, [], {}).roster
        assert r.student_ids == ("a", "b", "c", "d")
        assert np.isnan(r.yob[0]) and r.yob[1:].tolist() == [1990.0, 0.0, 4024.0]
        assert r.loe.tolist() == [len(LOE_LEVELS), LOE_LEVELS.index("Master"), 0,
                                  len(LOE_LEVELS)]
        assert r.gender.tolist() == [len(GENDERS), GENDERS.index("Female"), 0,
                                     len(GENDERS)]
        assert r.continent.tolist() == [len(CONTINENTS), CONTINENTS.index("Asia"), 0,
                                        len(CONTINENTS)]
        assert r.took_precourse_survey.tolist() == [0.0, 1.0, 0.0, 0.0]
        assert r.yob.dtype == np.float64 and r.loe.dtype == np.intp
        with pytest.raises(ValueError):
            r.loe[0] = 0

    @pytest.mark.parametrize("grade", [1.5, -0.25, float("nan")])
    def test_grade_outside_unit_interval_rejected(self, grade):
        with pytest.raises(BadValueError,
                           match=rf"course 'Tx': student 'b': final_grade {grade} not in \[0, 1\]"):
            make_course(make_meta(course_id="Tx"), [Student("a"), Student("b")], [],
                        {"a": 0.5, "b": grade})

    def test_grade_of_student_off_the_roster_rejected(self):
        with pytest.raises(UnknownStudentError,
                           match="course 'Tx': student 'ghost' has a grade but is not on the roster"):
            make_course(make_meta(course_id="Tx"), [Student("a")], [], {"a": 0.5, "ghost": 0.9})

    def test_records_round_trip(self, tiny_course):
        days = records_of(tiny_course)
        assert len(days) == 8
        first = days[0]
        assert first.student_id == "s00" and first.date == day(0)
        assert first.counters["nevents"] == 10.0
        rebuilt = make_course(tiny_course.meta, tiny_course.roster, days, tiny_course.final_grade)
        assert_same_counters(rebuilt.activity, tiny_course.activity)


class TestLabels:
    def test_threshold_inclusive(self, tiny_course):
        labels = dict(zip(tiny_course.roster.student_ids, tiny_course.certified.tolist()))
        assert labels == {"s00": 1, "s01": 0, "s02": 0, "s03": 1, "s04": 0, "s05": 0}

    def test_missing_grade_is_dropout(self, tiny_course):
        # s04 has no grades row at all
        assert tiny_course.certified[tiny_course.roster.student_ids.index("s04")] == 0

    def test_vector_alignment(self, tiny_course):
        ids = tiny_course.roster.student_ids
        v = tiny_course.certified[[ids.index(sid) for sid in ("s03", "s00", "s01")]]
        assert v.tolist() == [1.0, 1.0, 0.0]

    def test_certified_matches_per_student_oracle(self, tiny_course, small_corpus):
        for course in (tiny_course, *small_corpus):
            expect = as_vector(certification_labels(course), course)
            assert course.certified.tobytes() == expect.tobytes()
            assert course.certified.dtype == np.float64
        with pytest.raises(ValueError):
            tiny_course.certified[0] = 1.0


class TestCsvRoundTrip:
    def test_course_round_trip(self, tiny_course, tmp_path):
        write_course(tiny_course, tmp_path)
        loaded = load_course_dir(tmp_path)
        assert loaded.meta == tiny_course.meta
        _assert_same_roster(loaded.roster, tiny_course.roster)
        assert_same_counters(loaded.activity, tiny_course.activity)
        assert np.array_equal(loaded.activity.day, tiny_course.activity.day)
        # absent grade rows load back as the 0.0 they imply
        for sid in tiny_course.roster.student_ids:
            assert loaded.final_grade[sid] == tiny_course.final_grade.get(sid, 0.0)
        assert loaded.certified.tobytes() == tiny_course.certified.tobytes()

    def test_write_is_byte_deterministic(self, tiny_course, tmp_path):
        p1 = write_course(tiny_course, tmp_path / "a")
        p2 = write_course(tiny_course, tmp_path / "b")
        for k in p1:
            assert p1[k].read_bytes() == p2[k].read_bytes()

    def test_integral_floats_written_as_ints(self, tiny_course, tmp_path):
        paths = write_course(tiny_course, tmp_path)
        text = paths["activity"].read_text()
        assert "10.0," not in text and ",10," in text

    def test_missing_column_named(self, tmp_path):
        self._write_course_files(tmp_path, [])
        (tmp_path / "grades.csv").write_text("student_id\r\ns0\r\n")
        with pytest.raises(MissingColumnError, match="final_grade"):
            load_course_dir(tmp_path)

    def _write_course_files(self, tmp_path, activity_rows):
        header = "student_id,date," + ",".join(CLICKSTREAM_FEATURES)
        (tmp_path / "course_meta.csv").write_text(
            "course_id,launch_date,end_date,t100_date,cert_threshold,field\r\n"
            "Tx,2014-01-06,2014-03-17,2014-03-03,0.7,STEM\r\n")
        (tmp_path / "demographics.csv").write_text(
            "student_id,yob,loe,gender,continent,precourse_survey\r\n"
            "s0,1990,Bachelor,Female,Europe,1\r\n")
        (tmp_path / "activity.csv").write_text(
            header + "\r\n" + "".join(r + "\r\n" for r in activity_rows))
        (tmp_path / "grades.csv").write_text("student_id,final_grade\r\ns0,0.8\r\n")

    def _row(self, sid, date, **overrides):
        c = counters(**overrides)
        return ",".join([sid, date] + [str(c[k]) for k in CLICKSTREAM_FEATURES])

    def test_bad_date_names_file_and_line(self, tmp_path):
        self._write_course_files(tmp_path, [self._row("s0", "06/01/2014")])
        with pytest.raises(BadDateError, match=r"activity\.csv:2"):
            load_course_dir(tmp_path)

    # ISO 8601 forms other than YYYY-MM-DD that date.fromisoformat also reads
    _OTHER_DATE_FORMS = ["20140107", "2014-W02-2", "2014W022", "2014-W02"]

    @pytest.mark.parametrize("cell", _OTHER_DATE_FORMS)
    def test_activity_date_must_be_yyyy_mm_dd(self, tmp_path, cell):
        self._write_course_files(tmp_path, [self._row("s0", cell)])
        with pytest.raises(BadDateError,
                           match=rf"activity\.csv:2 date: bad date '{cell}' \(expected YYYY-MM-DD\)"):
            load_course_dir(tmp_path)

    @pytest.mark.parametrize("column", ["launch_date", "end_date", "t100_date"])
    @pytest.mark.parametrize("cell", _OTHER_DATE_FORMS)
    def test_meta_dates_must_be_yyyy_mm_dd(self, tmp_path, column, cell):
        dates = {"launch_date": "2014-01-06", "end_date": "2014-03-17", "t100_date": "2014-03-03"}
        dates[column] = cell
        p = tmp_path / "course_meta.csv"
        p.write_text("course_id,launch_date,end_date,t100_date,cert_threshold,field\r\n"
                     f"Tx,{dates['launch_date']},{dates['end_date']},{dates['t100_date']},0.7,STEM\r\n")
        with pytest.raises(BadDateError, match=rf"course_meta\.csv:2 {column}: bad date '{cell}'"):
            load_course_meta(p)

    def test_out_of_range_date_rejected(self, tmp_path):
        self._write_course_files(tmp_path, [self._row("s0", "2014-06-01")])
        with pytest.raises(BadDateError, match="outside"):
            load_course_dir(tmp_path)

    def test_negative_counter_names_column(self, tmp_path):
        self._write_course_files(tmp_path, [self._row("s0", "2014-01-07", nvideo=-2)])
        with pytest.raises(NegativeCounterError, match=r"activity\.csv:2.*nvideo"):
            load_course_dir(tmp_path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_counter_named(self, tmp_path, cell):
        row = self._row("s0", "2014-01-07", nevents=1, nvideo=7).replace(",7.0,", f",{cell},")
        self._write_course_files(tmp_path, [self._row("s0", "2014-01-06"), row])
        with pytest.raises(NegativeCounterError,
                           match=rf"activity\.csv:3: column 'nvideo': value {cell} "):
            load_course_dir(tmp_path)

    def test_meta_error_line_counts_blank_lines(self, tmp_path):
        p = tmp_path / "course_meta.csv"
        p.write_text("course_id,launch_date,end_date,t100_date,cert_threshold,field\r\n\r\n"
                     "Tx,2014-01-06,2014-03-17,2014-03-03,high,STEM\r\n")
        with pytest.raises(BadValueError, match=r"course_meta\.csv:3: bad cert_threshold"):
            load_course_meta(p)

    def test_demographics_error_line_counts_blank_lines(self, tmp_path):
        p = tmp_path / "demographics.csv"
        p.write_text("student_id,yob,loe,gender,continent,precourse_survey\r\n\r\n"
                     "s0,1990,Bachelor,Female,Europe,1\r\n\r\n\r\n"
                     "s1,1990,Bachelor,Female,Europe,yes\r\n")
        with pytest.raises(BadValueError, match=r"demographics\.csv:6: precourse_survey"):
            load_demographics(p)

    def test_activity_error_line_counts_blank_lines(self, tmp_path):
        self._write_course_files(tmp_path, ["", self._row("s0", "2014-01-07"), "",
                                            self._row("s0", "06/01/2014")])
        with pytest.raises(BadDateError, match=r"activity\.csv:5 date"):
            load_course_dir(tmp_path)

    def test_grades_error_line_counts_blank_lines(self, tmp_path):
        self._write_course_files(tmp_path, [])
        (tmp_path / "grades.csv").write_text("student_id,final_grade\r\n\r\ns0,1.5\r\n")
        with pytest.raises(BadValueError, match=r"grades\.csv:3: final_grade 1\.5"):
            load_course_dir(tmp_path)

    def test_short_row_line_counts_blank_lines(self, tmp_path):
        self._write_course_files(tmp_path, [])
        (tmp_path / "grades.csv").write_text("student_id,final_grade\r\n\r\ns0\r\n")
        with pytest.raises(BadValueError, match=r"grades\.csv:3: expected 2 cells, got 1"):
            load_course_dir(tmp_path)

    def test_long_meta_row_rejected(self, tmp_path):
        p = tmp_path / "course_meta.csv"
        p.write_text("course_id,launch_date,end_date,t100_date,cert_threshold,field\r\n"
                     "Tx,2014-01-06,2014-03-17,2014-03-03,0.7,STEM,extra\r\n")
        with pytest.raises(BadValueError, match=r"course_meta\.csv:2: expected 6 cells, got 7"):
            load_course_meta(p)

    def test_long_demographics_row_rejected(self, tmp_path):
        p = tmp_path / "demographics.csv"
        p.write_text("student_id,yob,loe,gender,continent,precourse_survey\r\n"
                     "s0,1990,Bachelor,Female,Europe,1\r\ns1,1990,,,,0,\r\n")
        with pytest.raises(BadValueError, match=r"demographics\.csv:3: expected 6 cells, got 7"):
            load_demographics(p)

    def test_long_activity_row_rejected(self, tmp_path):
        self._write_course_files(tmp_path, [self._row("s0", "2014-01-07"), "",
                                            self._row("s0", "2014-01-08") + ",999"])
        with pytest.raises(BadValueError, match=r"activity\.csv:4: expected 33 cells, got 34"):
            load_course_dir(tmp_path)

    def test_long_grades_row_rejected(self, tmp_path):
        self._write_course_files(tmp_path, [])
        (tmp_path / "grades.csv").write_text("student_id,final_grade\r\ns0,0.8,extra\r\n")
        with pytest.raises(BadValueError, match=r"grades\.csv:2: expected 2 cells, got 3"):
            load_course_dir(tmp_path)

    def test_reordered_columns_load(self, tiny_course, tmp_path):
        """A table whose columns come in another order loads the same course."""
        write_course(tiny_course, tmp_path)
        for name in ("course_meta.csv", "demographics.csv", "activity.csv", "grades.csv"):
            p = tmp_path / name
            rows = [line.split(",") for line in p.read_text().splitlines()]
            p.write_text("".join(",".join(row[::-1]) + "\n" for row in rows))
        loaded = load_course_dir(tmp_path)
        assert loaded.meta == tiny_course.meta
        _assert_same_roster(loaded.roster, tiny_course.roster)
        assert_same_counters(loaded.activity, tiny_course.activity)
        assert loaded.certified.tobytes() == tiny_course.certified.tobytes()

    def test_non_numeric_counter(self, tmp_path):
        row = self._row("s0", "2014-01-07").replace(",0.0", ",abc", 1)
        self._write_course_files(tmp_path, [row])
        with pytest.raises(BadValueError, match="not a number"):
            load_course_dir(tmp_path)

    def test_duplicate_student_day(self, tmp_path):
        self._write_course_files(tmp_path, [
            self._row("s0", "2014-01-07", nevents=1),
            self._row("s0", "2014-01-07", nevents=2),
        ])
        with pytest.raises(DuplicateStudentDayError, match=":3"):
            load_course_dir(tmp_path)

    def test_unknown_activity_student(self, tmp_path):
        self._write_course_files(tmp_path, [self._row("sX", "2014-01-07")])
        with pytest.raises(UnknownStudentError, match="sX"):
            load_course_dir(tmp_path)

    @pytest.mark.parametrize("name", ["grades.csv", "activity.csv"])
    def test_file_not_utf8_rejected(self, tmp_path, name):
        self._write_course_files(tmp_path, [self._row("s0", "2014-01-06")])
        p = tmp_path / name
        p.write_bytes(b"\xff" + p.read_bytes())
        with pytest.raises(BadValueError, match=rf"{name}: not UTF-8 text .*0xff"):
            load_course_dir(tmp_path)

    def test_grade_range_checked(self, tmp_path):
        self._write_course_files(tmp_path, [])
        (tmp_path / "grades.csv").write_text("student_id,final_grade\r\ns0,1.2\r\n")
        with pytest.raises(BadValueError, match=r"grades\.csv:2"):
            load_course_dir(tmp_path)

    def test_repeated_grade_row_rejected(self, tmp_path):
        self._write_course_files(tmp_path, [])
        (tmp_path / "grades.csv").write_text("student_id,final_grade\r\ns0,0.08\r\ns0,0.99\r\n")
        with pytest.raises(BadValueError, match=r"grades\.csv:3.*s0"):
            load_course_dir(tmp_path)

    def test_unknown_grade_student_rejected(self, tmp_path):
        self._write_course_files(tmp_path, [])
        (tmp_path / "grades.csv").write_text("student_id,final_grade\r\ns0,0.8\r\nsX,0.9\r\n")
        with pytest.raises(UnknownStudentError, match=r"grades\.csv:3.*sX"):
            load_course_dir(tmp_path)

    def test_survey_must_be_binary(self, tmp_path):
        p = tmp_path / "demographics.csv"
        p.write_text("student_id,yob,loe,gender,continent,precourse_survey\r\n"
                     "s0,1990,Bachelor,Female,Europe,yes\r\n")
        with pytest.raises(BadValueError, match="precourse_survey"):
            load_demographics(p)

    def test_unknown_enum_cells_become_null(self, tmp_path):
        p = tmp_path / "demographics.csv"
        p.write_text("student_id,yob,loe,gender,continent,precourse_survey\r\n"
                     "s0,n/a,PhD,female,Mars,0\r\n")
        r = load_demographics(p)
        assert np.isnan(r.yob[0]) and r.loe[0] == len(LOE_LEVELS)
        assert r.gender[0] == len(GENDERS) and r.continent[0] == len(CONTINENTS)

    def test_yob_clamped_on_load(self, tmp_path):
        p = tmp_path / "demographics.csv"
        cells = ["-" + "9" * 400, "-5", "0", "1990", "4024", "4025", "1" + "0" * 400, "19.5"]
        p.write_text("student_id,yob,loe,gender,continent,precourse_survey\r\n" + "".join(
            f"s{k},{cell},,,,0\r\n" for k, cell in enumerate(cells)))
        r = load_demographics(p)
        assert r.yob[:7].tolist() == [0.0, 0.0, 0.0, 1990.0, 4024.0, 4024.0, 4024.0]
        assert np.isnan(r.yob[7])  # not an integer: a non-response

    def test_loaded_yob_written_clamped(self, tiny_course, tmp_path):
        write_course(tiny_course, tmp_path)
        p = tmp_path / "demographics.csv"
        p.write_text(p.read_text().replace("s00,1990,", "s00,99999,"))
        write_course(load_course_dir(tmp_path), tmp_path / "again")
        assert "s00,4024," in (tmp_path / "again" / "demographics.csv").read_text()

    def test_duplicate_student_names_line(self, tmp_path):
        p = tmp_path / "demographics.csv"
        p.write_text("student_id,yob,loe,gender,continent,precourse_survey\r\n"
                     "s0,,,,,0\r\ns1,,,,,0\r\ns0,,,,,1\r\n")
        with pytest.raises(BadValueError, match=r"demographics\.csv:4: duplicate student_id 's0'"):
            load_demographics(p)


# One bad SynthConfig value per check of validate, and the problem its error names.
_SYNTH_PROBLEMS = [
    ("field", "Art", "unknown field 'Art'"),
    ("n_students", 0, "n_students 0 must be >= 1"),
    ("launch", "2014-01-06", "launch '2014-01-06' is not a date"),
    ("weeks_to_t100", 0, "need 1 <= weeks_to_t100 <= weeks_total, got 0/10"),
    ("cert_threshold", 0.0, "cert_threshold 0.0 not in (0, 1]"),
    ("daily_decay", 1.0, "daily_decay 1.0 not in [0, 1)"),
    ("engagement_beta", 0.0, "engagement Beta parameters must be positive"),
    ("decay_spread", 2.0, "decay_spread 2.0 not in [0, 1]"),
    ("problems_for_full_grade", 0.0, "problem-rate parameters must be positive"),
]


class TestSynthConfig:
    def test_defaults_valid(self):
        SynthConfig(course_id="Ax").validate()

    @pytest.mark.parametrize("key,value,problem", _SYNTH_PROBLEMS,
                             ids=[key for key, _, _ in _SYNTH_PROBLEMS])
    def test_every_error_names_the_course(self, key, value, problem):
        with pytest.raises(BadConfigError, match=re.escape(f"'Bx': {problem}")):
            SynthConfig(course_id="Bx", **{key: value}).validate()

    def test_bad_values_rejected(self):
        with pytest.raises(BadConfigError):
            SynthConfig(course_id="Ax", n_students=-1).validate()
        with pytest.raises(BadConfigError):
            SynthConfig(course_id="Ax", weeks_to_t100=0).validate()
        with pytest.raises(BadConfigError):
            SynthConfig(course_id="Ax", weeks_total=3, weeks_to_t100=5).validate()
        with pytest.raises(BadConfigError):
            SynthConfig(course_id="Ax", daily_decay=1.5).validate()

    def test_empty_corpus_rejected(self):
        with pytest.raises(BadConfigError, match="no course"):
            corpus_config_from_dict({"courses": []})
        with pytest.raises(BadConfigError, match="no course"):
            synthesize_corpus(CorpusConfig(courses=()), 0)

    def test_duplicate_course_ids(self):
        with pytest.raises(DuplicateCourseIdError):
            CorpusConfig(courses=(SynthConfig(course_id="Ax"),
                                  SynthConfig(course_id="Ax"))).validate()

    def test_config_dict_round_trip(self):
        config = default_corpus_config(5, n_students=50)
        doc = corpus_config_to_dict(config)
        back = corpus_config_from_dict(doc)
        assert back == config

    def test_config_dict_rejects_unknown_keys(self):
        doc = corpus_config_to_dict(default_corpus_config(2))
        doc["courses"][0]["surprise"] = 1
        with pytest.raises(BadConfigError, match="surprise"):
            corpus_config_from_dict(doc)


class TestSynthesis:
    _SIZE = dataset._DRAW_CELLS // 70  # students per draw block of a 10-week course

    @staticmethod
    def _assert_drawn_as_whole_arrays(cfg, seed):
        """Each column has the reference's values, in the narrowest width that
        holds them; returns the widest column's width."""
        got = synthesize_course(cfg, seed)
        student_index, day, columns, grade = reference_synthesis(cfg, seed)
        for name, column, expected in zip(CLICKSTREAM_FEATURES, got.activity.columns, columns):
            assert column.astype(np.float64).tobytes() == expected.tobytes(), name
            top = expected.max(initial=0.0)
            assert column.dtype == (np.uint8 if top < 2**8 else np.uint16 if top < 2**16
                                    else np.float64), name
        assert got.activity.student_index.tobytes() == student_index.tobytes()
        assert got.activity.day.tobytes() == day.tobytes()
        assert list(got.final_grade.items()) == list(grade.items())
        return max((c.dtype for c in got.activity.columns), key=lambda dtype: dtype.itemsize)

    @pytest.mark.parametrize("n,problems_per_day,dtype", [
        (1, 8.0, np.uint16), (_SIZE - 1, 8.0, np.uint16), (_SIZE, 8.0, np.uint16),
        (2 * _SIZE + 5, 8.0, np.uint16), (_SIZE + 3, 1e5, np.float64),
        (_SIZE + 3, 2.0**30, np.float64),
    ])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_block_draws_are_the_whole_array_draws(self, n, problems_per_day, dtype, seed):
        cfg = SynthConfig(course_id="Bx", n_students=n, problems_per_day=problems_per_day)
        assert self._assert_drawn_as_whole_arrays(cfg, seed) == dtype

    @pytest.mark.parametrize("cells", [1, 56, 57, 300])
    def test_any_block_size_draws_the_same_course(self, monkeypatch, cells):
        """Blocks of one student of an 8-week course (a buffer of less than a
        row of 56 days, of one row, of a row and a cell) and of five students
        draw what whole arrays do."""
        monkeypatch.setattr(dataset, "_DRAW_CELLS", cells)
        cfg = default_corpus_config(2, 37).courses[1]
        assert cfg.weeks_total == 8
        self._assert_drawn_as_whole_arrays(cfg, 5)

    def test_same_seed_same_course(self):
        cfg = SynthConfig(course_id="Sx", n_students=60)
        a = synthesize_course(cfg, 7)
        b = synthesize_course(cfg, 7)
        assert a.roster.student_ids == b.roster.student_ids
        assert_same_counters(a.activity, b.activity)
        assert a.final_grade == b.final_grade
        _assert_same_roster(a.roster, b.roster)

    def test_different_seeds_differ(self):
        cfg = SynthConfig(course_id="Sx", n_students=60)
        a = synthesize_course(cfg, 7)
        b = synthesize_course(cfg, 8)
        assert not np.array_equal(counter_values(a.activity), counter_values(b.activity))

    def test_student_ids_shape(self):
        c = synthesize_course(SynthConfig(course_id="Sx", n_students=30), 0)
        assert c.n_students == 30
        assert c.roster.student_ids[0] == "s00000"
        assert all(len(s) == len(c.roster.student_ids[0]) for s in c.roster.student_ids)

    def test_grades_in_unit_interval(self):
        c = synthesize_course(SynthConfig(course_id="Sx", n_students=80), 3)
        g = np.array(list(c.final_grade.values()))
        assert np.all((g >= 0) & (g <= 1))

    def test_activity_inside_course_window(self):
        c = synthesize_course(SynthConfig(course_id="Sx", n_students=80), 3)
        span = (c.meta.end_date - c.meta.launch_date).days
        assert len(c.activity) > 0
        assert c.activity.day.min() >= 0 and c.activity.day.max() <= span

    def test_activity_implies_events(self):
        # every stored row is an active day, so nevents >= 1
        c = synthesize_course(SynthConfig(course_id="Sx", n_students=50), 5)
        k = CLICKSTREAM_FEATURES.index("nevents")
        assert c.activity.columns[k].min() >= 1

    def test_some_students_certify_and_some_drop(self, small_corpus):
        for course in small_corpus:
            y = course.certified
            assert 0 < y.sum() < len(y)

    def test_corpus_courses_use_child_seeds(self):
        # a serial oracle, for one course and for more courses than threads
        for n_courses in (1, (os.cpu_count() or 1) + 3):
            config = default_corpus_config(n_courses, n_students=60)
            corpus = synthesize_corpus(config, 99)
            assert len(corpus) == n_courses
            for i, (got, course_cfg) in enumerate(zip(corpus, config.courses)):
                child = int(np.random.SeedSequence((99, i)).generate_state(1)[0])
                want = synthesize_course(course_cfg, child)
                assert got.meta == want.meta
                _assert_same_roster(got.roster, want.roster)
                for name in ("student_index", "day"):
                    x, y = getattr(got.activity, name), getattr(want.activity, name)
                    assert x.dtype == y.dtype and np.array_equal(x, y), name
                assert_same_counters(got.activity, want.activity)
                assert list(got.final_grade.items()) == list(want.final_grade.items())
                assert np.array_equal(got.certified, want.certified)

    def test_corpus_threads_end_before_return(self):
        before = threading.active_count()
        synthesize_corpus(default_corpus_config(3, n_students=30), 4)
        assert threading.active_count() == before

    def test_grade_is_problems_answered_over_denominator(self):
        cfg = SynthConfig(course_id="Sx", n_students=70, problems_for_full_grade=9.0)
        c = synthesize_course(cfg, 12)
        answered = c.activity.columns[CLICKSTREAM_INDEX["nproblems_answered"]]
        for i, sid in enumerate(c.roster.student_ids):
            total = sum(answered[c.activity.student_index == i].tolist())
            assert c.final_grade[sid] == min(total / 9.0, 1.0)

    def test_counts_from_2_24_keep_float64_and_round_trip(self, tmp_path):
        c = synthesize_course(SynthConfig(course_id="Sx", n_students=30,
                                          problems_per_day=2.0**30), 4)
        answered = c.activity.columns[CLICKSTREAM_INDEX["nproblems_answered"]]
        assert answered.dtype == np.float64 and answered.max() > 2**24
        assert not np.array_equal(answered.astype(np.float32), answered)
        write_course(c, tmp_path)
        back = load_course_dir(tmp_path)
        assert back.activity.columns[CLICKSTREAM_INDEX["nproblems_answered"]].dtype == np.float64
        assert_same_counters(back.activity, c.activity)
        assert back.final_grade == c.final_grade

    def test_default_corpus_config_shape(self):
        config = default_corpus_config(8, n_students=25)
        ids = [c.course_id for c in config.courses]
        assert len(set(ids)) == 8
        fields = {c.field for c in config.courses}
        assert len(fields) == 4  # every field appears twice at n=8
        launches = [c.launch for c in config.courses]
        assert launches == sorted(launches)
