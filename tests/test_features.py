"""Feature layout, demographic encoding, cumulative counters, normalization."""

import datetime
import itertools
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from dropoutlab.dataset import (
    CLICKSTREAM_FEATURES,
    CONTINENTS,
    GENDERS,
    LOE_LEVELS,
    ActivityTable,
    CourseData,
    Roster,
)
from dropoutlab.errors import BadDateError, BadValueError, EmptyMatrixError, SchemaMismatchError
from dropoutlab.features import (
    BLOCKS,
    FEATURE_NAMES,
    PERCENTILE_COLUMNS,
    WIDTH,
    FeatureMatrix,
    apply_norm,
    build_matrix,
    check_as_of,
    demographic_dummies,
    holdout_split,
    norm_stats_to_dict,
    normalize,
    percentile_within,
    save_norm_stats,
    snapshots,
    split_rows,
    write_matrix,
)

from conftest import (
    LAUNCH,
    Student,
    counters,
    counter_values,
    cumulative_all,
    cumulative_clickstream,
    day,
    days_since_last_action,
    load_matrix,
    load_norm_stats,
    make_course,
    make_meta,
    make_roster,
    records_of,
)


class TestSchema:
    def test_width_and_blocks(self):
        assert len(FEATURE_NAMES) == WIDTH == 66
        widths = {b: len(ix) for b, ix in BLOCKS.items()}
        assert widths == {
            "age_dummies": 13, "loe_dummies": 8, "gender_dummies": 4,
            "continent_dummies": 8, "clickstream_cumulative": 31,
            "precourse_survey": 1, "days_since_last_action": 1,
        }

    def test_blocks_partition_columns(self):
        seen = sorted(i for ix in BLOCKS.values() for i in ix)
        assert seen == list(range(66))

    def test_names_unique(self):
        assert len(set(FEATURE_NAMES)) == len(FEATURE_NAMES)

    def test_cumulative_names_prefixed(self):
        cum = [FEATURE_NAMES[i] for i in BLOCKS["clickstream_cumulative"]]
        assert all(n.startswith("cum_") for n in cum)
        assert cum[0] == "cum_avg_dt" and cum[-1] == "cum_problems_other"

    def test_percentile_constant_is_counters_plus_recency(self):
        expected = tuple(BLOCKS["clickstream_cumulative"]) + tuple(
            BLOCKS["days_since_last_action"])
        assert PERCENTILE_COLUMNS == tuple(sorted(expected)) == tuple(range(33, 64)) + (65,)


def _dummy_name(v):
    return FEATURE_NAMES[int(np.argmax(v))]


def _one_student_dummies(s):
    """The 33 dummies of one student: demographic_dummies of a one-student course."""
    return demographic_dummies(make_course(make_meta(), [s], [], {}))[0]


def _reference_dummies(s):
    """Per-student loop encoding of the 33 dummies, the reference for demographic_dummies."""
    v = np.zeros(33)
    if s.yob is None:
        v[12] = 1.0
    else:
        age = 2012 - s.yob
        v[0 if age < 10 else 11 if age >= 60 else 1 + (age - 10) // 5] = 1.0
    for off, value, levels in ((13, s.loe, LOE_LEVELS), (21, s.gender, GENDERS),
                               (25, s.continent, CONTINENTS)):
        v[off + (len(levels) if value is None else levels.index(value))] = 1.0
    return v


def _cum(course, sid, as_of):
    """One student's cumulative counters: their clickstream columns of build_matrix."""
    m = build_matrix(course, as_of)
    return m.values[m.student_ids.index(sid), list(BLOCKS["clickstream_cumulative"])]


def _recency(course, sid, as_of):
    """One student's days since last action: their recency column of build_matrix."""
    m = build_matrix(course, as_of)
    return m.values[m.student_ids.index(sid), BLOCKS["days_since_last_action"].start]


class TestAgeBinning:
    def test_reference_ages(self):
        # 2012 - 1990 = 22 falls in [20, 25)
        v = _one_student_dummies(Student("s", yob=1990))
        assert _dummy_name(v[:13] * 1.0) == "age_20_25"
        # 2012 - 1997 = 15 falls in [15, 20)
        v = _one_student_dummies(Student("s", yob=1997))
        assert _dummy_name(v[:13]) == "age_15_20"

    def test_bin_edges_half_open(self):
        cases = {2003: "age_lt10", 2002: "age_10_15", 1998: "age_10_15",
                 1997: "age_15_20", 1953: "age_55_60", 1952: "age_ge60",
                 1900: "age_ge60"}
        for yob, name in cases.items():
            v = _one_student_dummies(Student("s", yob=yob))
            assert _dummy_name(v[:13]) == name, yob

    def test_null_yob(self):
        v = _one_student_dummies(Student("s"))
        assert _dummy_name(v[:13]) == "age_null"


class TestDemographicEncoding:
    def test_each_group_one_hot(self):
        for s in (
            Student("s"),
            Student("s", yob=1985, loe="Associate", gender="Other",
                    continent="Oceania", took_precourse_survey=True),
            Student("s", loe="JuniorHigh", gender="Female"),
        ):
            v = _one_student_dummies(s)
            assert v.shape == (33,)
            assert v[:13].sum() == 1.0
            assert v[13:21].sum() == 1.0
            assert v[21:25].sum() == 1.0
            assert v[25:33].sum() == 1.0
            assert set(np.unique(v)) <= {0.0, 1.0}

    def test_named_slots(self):
        s = Student("s", yob=1980, loe="Master", gender="Male",
                    continent="SouthAmerica")
        v = _one_student_dummies(s)
        names = {FEATURE_NAMES[i] for i in np.nonzero(v)[0]}
        assert names == {"age_30_35", "loe_master", "gender_male",
                         "continent_southamerica"}

    def test_matches_per_student_reference(self):
        yobs = (None, -10**400, 1700, 1900, 1952, 1953, 1980, 1997, 1998, 2002, 2003, 2020,
                10**400)
        students = [Student(f"s{k:04d}", yob=y, loe=l, gender=g, continent=c)
                    for k, (y, l, g, c) in enumerate(itertools.product(
                        yobs, (None,) + LOE_LEVELS, (None,) + GENDERS, (None,) + CONTINENTS))]
        course = make_course(make_meta(), students[::-1], [], {})
        expect = np.array([_reference_dummies(s) for s in students])  # ids ascend with k
        assert np.array_equal(demographic_dummies(course), expect)


class TestCumulativeCounters:
    def test_inclusive_prefix_sum(self, tiny_course):
        # s00 active on days 0, 2, 9
        c0 = _cum(tiny_course, "s00", day(0))
        c2 = _cum(tiny_course, "s00", day(2))
        c9 = _cum(tiny_course, "s00", day(9))
        k = list(counters())
        assert c0[k.index("nevents")] == 10.0
        assert c2[k.index("nevents")] == 15.0
        assert c9[k.index("nevents")] == 22.0
        assert c2[k.index("nproblems_answered")] == 6.0
        # day 1 sits between activity days: same totals as day 0
        c1 = _cum(tiny_course, "s00", day(1))
        assert np.array_equal(c1, c0)

    def test_later_activity_excluded(self, tiny_course):
        c = _cum(tiny_course, "s03", day(5))
        k = list(counters())
        assert c[k.index("nproblems_answered")] == 3.0  # day 20 row not yet visible

    def test_inactive_student_all_zero(self, tiny_course):
        c = _cum(tiny_course, "s02", day(30))
        assert np.all(c == 0.0)

    def test_monotone_in_time(self, tiny_course):
        prev = None
        for off in range(0, 35, 7):
            c = _cum(tiny_course, "s00", day(off))
            if prev is not None:
                assert np.all(c >= prev)
            prev = c


_NEVENTS = CLICKSTREAM_FEATURES.index("nevents")


def _scatter_reference(course, off):
    """Counters by np.add.at and recency by np.maximum.at: the bitwise reference."""
    table = course.activity
    cum = np.zeros((course.n_students, len(CLICKSTREAM_FEATURES)))
    last = np.full(course.n_students, -np.inf)
    mask = table.day <= off
    idx = table.student_index[mask]
    np.add.at(cum, idx, counter_values(table)[mask])
    acted = table.columns[_NEVENTS][mask] > 0
    np.maximum.at(last, idx[acted], table.day[mask][acted])
    return cum, np.where(np.isfinite(last), off - last, off + 1).astype(np.float64)


def _random_course(seed, n_students=30, first_day=3):
    """Runs of up to 68 days per student, from first_day on, with non-integer counters.

    Student 0 has no rows, every row of student 1 has nevents == 0, other rows
    have nevents == 0 at random, and some counters are -0.0.
    """
    rng = np.random.default_rng(seed)
    end = make_meta().end_date
    n_days = (end - LAUNCH).days + 1
    pool = np.arange(first_day, n_days)
    runs = [[]] + [np.sort(rng.choice(pool, size=int(rng.integers(1, len(pool) + 1)),
                                      replace=False)) for _ in range(n_students - 1)]
    sidx = np.repeat(np.arange(n_students), [len(r) for r in runs])
    days = np.concatenate([np.asarray(r, dtype=np.int64) for r in runs])
    values = rng.random((len(days), len(CLICKSTREAM_FEATURES)))
    values *= 10.0 ** rng.uniform(-3, 6, values.shape)
    values[rng.random(values.shape) < 0.05] = -0.0
    values[(rng.random(len(days)) < 0.3) | (sidx == 1), _NEVENTS] = 0.0
    roster = make_roster([Student(f"s{k:03d}") for k in range(n_students)])
    return CourseData(make_meta(), roster, ActivityTable(sidx, days, values.T),
                      np.zeros(n_students))


_COUNTERS = BLOCKS["clickstream_cumulative"]
_RECENCY = BLOCKS["days_since_last_action"].start


def _walked(m):
    """A snapshot's counter block and recency column, as contiguous arrays."""
    return (np.ascontiguousarray(m.values[:, _COUNTERS.start:_COUNTERS.stop]),
            np.ascontiguousarray(m.values[:, _RECENCY]))


class TestCumulativeAllOracle:
    """build_matrix's counters and recency have the bits of the per-date oracle
    cumulative_all, which has the bits of the np.add.at scatter."""

    def _assert_bitwise(self, course, off):
        cum, dsla = _walked(build_matrix(course, day(off)))
        oracle_cum, oracle_dsla = cumulative_all(course, off)
        ref_cum, ref_dsla = _scatter_reference(course, off)
        assert cum.tobytes() == oracle_cum.tobytes() == ref_cum.tobytes()
        assert dsla.tobytes() == oracle_dsla.tobytes() == ref_dsla.tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_random_runs(self, seed):
        course = _random_course(seed)
        span = (course.meta.end_date - course.meta.launch_date).days
        lengths = np.bincount(course.activity.student_index, minlength=course.n_students)
        assert lengths[0] == 0 and len(set(lengths[1:].tolist())) > 5
        assert np.all(course.activity.columns[_NEVENTS][course.activity.student_index == 1] == 0)
        for off in (0, 2, 3, 17, 40, span - 1, span):  # 0 and 2 keep no row
            self._assert_bitwise(course, off)
        cum, dsla = _walked(build_matrix(course, day(2)))
        assert not cum.any() and np.all(dsla == 3.0)

    def test_one_row_table(self):
        values = np.full((1, len(CLICKSTREAM_FEATURES)), 0.1)
        roster = make_roster([Student(f"s{k}") for k in range(3)])
        course = CourseData(make_meta(), roster,
                            ActivityTable(np.array([1]), np.array([4]), values.T), np.zeros(3))
        for off in (0, 3, 4, 70):
            self._assert_bitwise(course, off)
        cum, dsla = _walked(build_matrix(course, day(9)))
        assert cum[1].tolist() == values[0].tolist() and dsla.tolist() == [10.0, 5.0, 10.0]

    def test_empty_table(self):
        roster = make_roster([Student("s0")])
        course = CourseData(make_meta(), roster,
                            ActivityTable(np.zeros(0, np.int32), np.zeros(0, np.int32),
                                          np.zeros((len(CLICKSTREAM_FEATURES), 0))), [0.0])
        self._assert_bitwise(course, 5)


class TestSnapshotWalk:
    """Every step of one walk has the bits of the per-date oracles at its date."""

    def _assert_walk(self, course, offs):
        dates = [day(off) for off in offs]
        walk = list(snapshots(course, dates))
        assert [m.as_of for m in walk] == dates
        for off, m in zip(offs, walk):
            cum, dsla = _walked(m)
            oracle_cum, oracle_dsla = cumulative_all(course, off)
            ref_cum, ref_dsla = _scatter_reference(course, off)
            assert cum.tobytes() == oracle_cum.tobytes() == ref_cum.tobytes()
            assert dsla.tobytes() == oracle_dsla.tobytes() == ref_dsla.tobytes()
            assert m.values.tobytes() == build_matrix(course, day(off)).values.tobytes()
            assert m.student_ids == course.roster.student_ids
        return walk

    @pytest.mark.parametrize("seed", range(5))
    def test_random_runs(self, seed):
        # counters over nine decades, -0.0, rows with nevents == 0, a student
        # without rows; the walk starts before the first activity (day 3),
        # repeats a date and ends on the last day
        course = _random_course(seed)
        span = (course.meta.end_date - course.meta.launch_date).days
        self._assert_walk(course, (0, 2, 2, 3, 17, 40, 41, span - 1, span, span))
        self._assert_walk(course, (5, span))
        self._assert_walk(course, range(span + 1))

    @pytest.mark.parametrize("seed", range(3))
    def test_fractional_table_walks_like_its_float64_values(self, seed):
        """Multiples of 1/8 below 2**21, -0.0 among them, are stored as float64;
        every step has the bits of the oracle run on the float64 values given."""
        given = _random_course(seed).activity
        values = np.round(counter_values(given) * 8.0) / 8.0
        course = CourseData(make_meta(), _random_course(seed).roster,
                            ActivityTable(given.student_index, given.day, values.T), np.zeros(30))
        assert all(c.dtype == np.float64 for c in course.activity.columns)
        as_given = SimpleNamespace(n_students=course.n_students, activity=SimpleNamespace(
            student_index=given.student_index, day=given.day, columns=values.T))
        span = (course.meta.end_date - course.meta.launch_date).days
        offs = (0, 3, 17, 40, span)
        for off, m in zip(offs, snapshots(course, [day(off) for off in offs])):
            cum, dsla = _walked(m)
            oracle_cum, oracle_dsla = cumulative_all(as_given, off)
            assert cum.tobytes() == oracle_cum.tobytes()
            assert dsla.tobytes() == oracle_dsla.tobytes()

    def test_same_date_twice_gives_equal_copies(self):
        course = _random_course(0)
        a, b = snapshots(course, [day(30), day(30)])
        assert a.values.tobytes() == b.values.tobytes() and a.values is not b.values

    def test_one_row_and_empty_tables(self):
        values = np.full((1, len(CLICKSTREAM_FEATURES)), 0.1)
        roster = make_roster([Student(f"s{k}") for k in range(3)])
        one = CourseData(make_meta(), roster,
                         ActivityTable(np.array([1]), np.array([4]), values.T), np.zeros(3))
        self._assert_walk(one, (0, 3, 4, 4, 70))
        empty = CourseData(make_meta(), make_roster([Student("s0")]),
                           ActivityTable(np.zeros(0, np.int32), np.zeros(0, np.int32),
                                         np.zeros((len(CLICKSTREAM_FEATURES), 0))), [0.0])
        self._assert_walk(empty, (0, 5, 70))

    def test_empty_date_list(self):
        assert list(snapshots(_random_course(0), [])) == []

    def test_descending_dates_rejected_before_any_build(self, tiny_course):
        with pytest.raises(BadValueError, match="ascend"):
            snapshots(tiny_course, [day(3), day(9), day(8)])

    def test_dates_outside_the_course_rejected_before_any_build(self, tiny_course):
        with pytest.raises(BadDateError):
            snapshots(tiny_course, [day(3), tiny_course.meta.end_date + datetime.timedelta(days=1)])


class TestRecency:
    def test_same_day_action(self, tiny_course):
        assert _recency(tiny_course, "s00", day(9)) == 0.0

    def test_days_elapsed(self, tiny_course):
        assert _recency(tiny_course, "s00", day(12)) == 3.0
        assert _recency(tiny_course, "s01", day(12)) == 12.0

    def test_never_active_sentinel(self, tiny_course):
        # one day beyond the longest possible silence
        assert _recency(tiny_course, "s02", day(9)) == 10.0
        assert _recency(tiny_course, "s02", day(0)) == 1.0

    def test_as_of_bounds(self, tiny_course):
        with pytest.raises(BadDateError):
            check_as_of(tiny_course, day(-1))
        with pytest.raises(BadDateError):
            check_as_of(tiny_course, tiny_course.meta.end_date + datetime.timedelta(days=1))
        assert check_as_of(tiny_course, day(4)) == 4


class TestBuildMatrix:
    def test_shape_and_row_order(self, tiny_course):
        m = build_matrix(tiny_course, day(9))
        assert m.values.shape == (6, 66)
        assert m.student_ids == tiny_course.roster.student_ids
        assert m.as_of == day(9)

    def test_rows_match_per_student_helpers(self, tiny_course):
        m = build_matrix(tiny_course, day(9))
        cum_cols = list(BLOCKS["clickstream_cumulative"])
        for i, sid in enumerate(m.student_ids):
            expect = cumulative_clickstream(tiny_course, sid, day(9))
            assert np.array_equal(m.values[i, cum_cols], expect)
            assert m.values[i, 65] == days_since_last_action(tiny_course, sid, day(9))

    def test_survey_column(self, tiny_course):
        m = build_matrix(tiny_course, day(9))
        col = m.values[:, 64]
        by_id = dict(zip(m.student_ids, col))
        assert by_id["s00"] == 1.0 and by_id["s03"] == 1.0
        assert by_id["s01"] == 0.0

    def test_deterministic(self, tiny_course):
        a = build_matrix(tiny_course, day(9))
        b = build_matrix(tiny_course, day(9))
        assert np.array_equal(a.values, b.values)

    def test_roster_order_irrelevant(self, tiny_course):
        r = tiny_course.roster
        reversed_roster = Roster(r.student_ids[::-1], r.yob[::-1], r.loe[::-1], r.gender[::-1],
                                 r.continent[::-1], r.took_precourse_survey[::-1])
        shuffled = make_course(tiny_course.meta, reversed_roster, records_of(tiny_course),
                               tiny_course.final_grade)
        a = build_matrix(tiny_course, day(9))
        b = build_matrix(shuffled, day(9))
        assert a.student_ids == b.student_ids
        assert np.array_equal(a.values, b.values)

    def test_matrix_validates_shape(self):
        with pytest.raises(BadValueError):
            FeatureMatrix(("a",), np.zeros((1, 65)), LAUNCH)
        with pytest.raises(BadValueError):
            FeatureMatrix(("a",), np.full((1, 66), np.nan), LAUNCH)


class TestSplit:
    @pytest.mark.parametrize("n,fraction,seed", [(60, 0.25, 3), (101, 0.5, 0), (7, 0.3, 42)])
    def test_reproduces_seeded_permutation_split(self, n, fraction, seed):
        order = np.random.default_rng(seed).permutation(n)
        n_test = int(round(fraction * n))
        train, test = split_rows(n, fraction, seed)
        assert np.array_equal(train, np.sort(order[n_test:]))
        assert np.array_equal(test, np.sort(order[:n_test]))

    @pytest.mark.parametrize("n,fraction",
                             [(10, 0.0), (10, 0.04), (10, 0.96), (10, 1.0), (10, 1.5), (1, 0.5)])
    def test_empty_side_rejected(self, n, fraction):
        with pytest.raises(BadValueError):
            split_rows(n, fraction, 0)

    def test_take_keeps_ids_and_rows_aligned(self):
        m = _matrix_from_columns([10.0, 11.0, 12.0, 13.0], [0.0, 1.0, 2.0, 3.0])
        sub = m.take(np.array([3, 1]))
        assert sub.student_ids == ("m03", "m01")
        assert np.array_equal(sub.values, m.values[[3, 1]])
        assert sub.as_of == m.as_of

    @pytest.mark.parametrize("kind", ["zscore", "percentile"])
    def test_holdout_split_is_split_take_normalize_fit_on_train(self, kind):
        rng = np.random.default_rng(8)
        n = 40
        m = FeatureMatrix(tuple(f"h{i:02d}" for i in range(n)),
                          rng.poisson(3.0, (n, WIDTH)).astype(np.float64), LAUNCH)
        y = rng.integers(0, 2, n).astype(np.float64)
        stats, train, y_train, test, y_test = holdout_split(m, y, 0.3, 11, kind)
        train_rows, test_rows = split_rows(n, 0.3, 11)
        assert not set(train_rows) & set(test_rows)
        assert sorted([*train_rows, *test_rows]) == list(range(n))
        expect_stats, (expect_train, expect_test) = normalize(
            m.take(train_rows), [m.take(train_rows), m.take(test_rows)], kind)
        assert norm_stats_to_dict(stats) == norm_stats_to_dict(expect_stats)
        for got, expect in ((train, expect_train), (test, expect_test)):
            assert got.student_ids == expect.student_ids and got.as_of == m.as_of
            assert np.array_equal(got.values, expect.values)
        assert np.array_equal(y_train, y[train_rows]) and np.array_equal(y_test, y[test_rows])
        # the stats see the train rows alone
        refit = normalize(m.take(train_rows), [], kind)[0]
        assert norm_stats_to_dict(stats) == norm_stats_to_dict(refit)
        assert norm_stats_to_dict(stats) != norm_stats_to_dict(normalize(m, [], kind)[0])

    def test_holdout_split_rejects_labels_not_one_per_row(self):
        m = FeatureMatrix(tuple(f"h{i:02d}" for i in range(50)), np.zeros((50, WIDTH)), LAUNCH)
        with pytest.raises(BadValueError, match="80 labels do not align with 50 rows"):
            holdout_split(m, np.zeros(80), 0.3, 0, "zscore")


def _matrix_from_columns(col33, col65, extra_rows=None):
    """Matrix with a chosen cum_avg_dt column and recency column."""
    vals = np.zeros((len(col33), 66))
    vals[:, 33] = col33
    vals[:, 65] = col65
    ids = tuple(f"m{i:02d}" for i in range(len(col33)))
    return FeatureMatrix(ids, vals, LAUNCH)


class TestZscore:
    def test_mean_and_population_std(self):
        m = _matrix_from_columns([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        stats = normalize(m, [], "zscore")[0]
        assert stats.mean[33] == pytest.approx(2.0)
        assert stats.std[33] == pytest.approx(np.sqrt(2.0 / 3.0))
        z = apply_norm(m, stats)
        assert z.values[:, 33] == pytest.approx([-np.sqrt(1.5), 0.0, np.sqrt(1.5)])
        assert np.mean(z.values[:, 33]) == pytest.approx(0.0, abs=1e-15)

    def test_constant_column_maps_to_zero(self):
        m = _matrix_from_columns([4.0, 4.0, 4.0], [1.0, 2.0, 3.0])
        z = normalize(m, [m], "zscore")[1][0]
        assert np.all(z.values[:, 33] == 0.0)

    def test_single_row(self):
        m = _matrix_from_columns([7.0], [3.0])
        z = normalize(m, [m], "zscore")[1][0]
        assert np.all(z.values == 0.0)

    def test_all_columns_standardized(self, tiny_course):
        m = build_matrix(tiny_course, day(9))
        z = normalize(m, [m], "zscore")[1][0]
        mu = z.values.mean(axis=0)
        assert np.max(np.abs(mu)) < 1e-12
        sd = z.values.std(axis=0)
        assert np.all((np.abs(sd - 1.0) < 1e-12) | (sd == 0.0))

    def test_no_clipping_of_new_extremes(self):
        train = _matrix_from_columns([0.0, 1.0], [0.0, 0.0])
        target = _matrix_from_columns([100.0], [0.0])
        z = apply_norm(target, normalize(train, [], "zscore")[0])
        assert z.values[0, 33] == pytest.approx((100.0 - 0.5) / 0.5)


class TestPercentile:
    def test_within_has_the_bits_of_fit_and_apply(self, small_corpus):
        rng = np.random.default_rng(12)
        course = small_corpus[0]
        matrices = [build_matrix(course, course.meta.launch_date),
                    build_matrix(course, course.meta.t100_date)]
        for n in (1, 2, 7, 150, 2000):  # few distinct values: every column has ties
            values = rng.integers(0, 4, size=(n, WIDTH)) * rng.choice([0.5, 1e-7, 3e5])
            values[rng.random(values.shape) < 0.2] = -0.0
            matrices.append(FeatureMatrix(tuple(f"s{i}" for i in range(n)),
                                          values, LAUNCH))
        for m in matrices:
            assert (percentile_within(m).values.tobytes()
                    == normalize(m, [m], "percentile")[1][0].values.tobytes())

    def test_within_rejects_an_empty_matrix(self):
        with pytest.raises(EmptyMatrixError):
            percentile_within(FeatureMatrix((), np.zeros((0, 66)), LAUNCH))

    def test_mid_rank_examples(self):
        train = _matrix_from_columns([10.0, 20.0, 30.0], [0.0, 0.0, 0.0])
        stats = normalize(train, [], "percentile")[0]
        t = apply_norm(train, stats)
        assert t.values[:, 33] == pytest.approx([1 / 6, 3 / 6, 5 / 6])
        probe = apply_norm(_matrix_from_columns([20.0, 5.0, 35.0, 25.0], [0] * 4), stats)
        assert probe.values[:, 33] == pytest.approx([0.5, 0.0, 1.0, 2 / 3])

    def test_ties_share_mid_rank(self):
        train = _matrix_from_columns([5.0, 5.0, 5.0, 9.0], [0.0] * 4)
        t = normalize(train, [train], "percentile")[1][0]
        assert t.values[:, 33] == pytest.approx([3 / 8, 3 / 8, 3 / 8, 7 / 8])

    def test_constant_column_maps_to_half(self):
        train = _matrix_from_columns([2.0, 2.0], [0.0, 0.0])
        t = normalize(train, [train], "percentile")[1][0]
        assert np.all(t.values[:, 33] == 0.5)

    def test_dummies_pass_through(self, tiny_course):
        m = build_matrix(tiny_course, day(9))
        t = normalize(m, [m], "percentile")[1][0]
        keep = [i for i in range(66) if i not in PERCENTILE_COLUMNS]
        assert np.array_equal(t.values[:, keep], m.values[:, keep])

    def test_values_in_unit_interval(self, small_corpus):
        m = build_matrix(small_corpus[0], small_corpus[0].meta.t100_date)
        t = normalize(m, [m], "percentile")[1][0]
        cols = list(PERCENTILE_COLUMNS)
        assert t.values[:, cols].min() >= 0.0
        assert t.values[:, cols].max() <= 1.0

    def test_order_preserved(self, small_corpus):
        m = build_matrix(small_corpus[0], small_corpus[0].meta.t100_date)
        t = normalize(m, [m], "percentile")[1][0]
        col = 33 + 5
        a = np.argsort(m.values[:, col], kind="stable")
        assert np.all(np.diff(t.values[a, col]) >= 0)


class TestNormalizeDispatch:
    def test_zscore_kind(self, tiny_course):
        m = build_matrix(tiny_course, day(9))
        stats, (z,) = normalize(m, [m], "zscore")
        assert stats.kind == "zscore"
        assert np.array_equal(stats.mean, m.values.mean(axis=0))
        assert np.array_equal(stats.std, m.values.std(axis=0))
        assert np.array_equal(z.values, apply_norm(m, stats).values)

    def test_percentile_kind(self, tiny_course):
        m = build_matrix(tiny_course, day(9))
        stats, (t,) = normalize(m, [m], "percentile")
        assert stats.kind == "percentile"
        for j, ref in zip(PERCENTILE_COLUMNS, stats.references):
            assert np.array_equal(ref, np.sort(m.values[:, j]))
        assert np.array_equal(t.values, apply_norm(m, stats).values)

    @pytest.mark.parametrize("kind", ["zscore", "percentile"])
    def test_apply_norm_follows_the_kind_of_its_stats(self, small_corpus, kind):
        """Stats fit on one course, applied to another's matrix by their own kind."""
        train, target = (build_matrix(c, c.meta.t100_date) for c in small_corpus[:2])
        stats = normalize(train, [], kind)[0]
        got = apply_norm(target, stats)
        assert got.student_ids == target.student_ids and got.as_of == target.as_of
        j = PERCENTILE_COLUMNS[0]
        if kind == "zscore":
            expect = (target.values[:, j] - stats.mean[j]) / stats.std[j]
        else:
            ref, v = stats.references[0], target.values[:, j, None]
            expect = ((ref < v).sum(axis=1) + 0.5 * (ref == v).sum(axis=1)) / len(ref)
        assert got.values[:, j].tobytes() == expect.tobytes()
        other = normalize(train, [], "percentile" if kind == "zscore" else "zscore")[0]
        assert not np.array_equal(apply_norm(target, other).values, got.values)

    @pytest.mark.parametrize("kind", ["zscore", "percentile"])
    def test_stats_read_back_reproduce_the_written_matrix(self, small_corpus, tmp_path, kind):
        from dropoutlab.cli import main
        from dropoutlab.dataset import load_course_dir, week_date, write_course

        write_course(small_corpus[0], tmp_path / "course")
        out = tmp_path / "m.csv"
        assert main(["features", "--course-dir", str(tmp_path / "course"), "--week", "-1",
                     "--norm", kind, "--out", str(out)]) == 0
        stats = load_norm_stats(tmp_path / "m.csv.norm.json")
        assert stats.kind == kind
        course = load_course_dir(tmp_path / "course")
        as_of = week_date(course.meta, -1)
        got = apply_norm(build_matrix(course, as_of), stats)
        assert got.values.tobytes() == load_matrix(out, as_of).values.tobytes()
        write_matrix(got, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == out.read_bytes()

    def test_unknown_kind(self, tiny_course):
        m = build_matrix(tiny_course, day(9))
        with pytest.raises(BadValueError):
            normalize(m, [m], "minmax")


class TestSerialization:
    def test_matrix_round_trip(self, tiny_course, tmp_path):
        m = build_matrix(tiny_course, day(9))
        p = tmp_path / "m.csv"
        write_matrix(m, p)
        back = load_matrix(p, day(9))
        assert back.student_ids == m.student_ids
        assert back.values.tobytes() == m.values.tobytes()

    def test_short_matrix_row_names_file_and_line(self, tiny_course, tmp_path):
        p = tmp_path / "m.csv"
        write_matrix(build_matrix(tiny_course, day(9)), p)
        lines = p.read_text().splitlines(keepends=True)
        lines[3] = lines[3].rsplit(",", 1)[0] + "\n"  # one cell short
        p.write_text("".join(lines))
        with pytest.raises(BadValueError, match=rf"{re.escape(str(p))}:4: expected 67 cells, got 66"):
            load_matrix(p, day(9))

    def test_matrix_not_utf8_names_file(self, tiny_course, tmp_path):
        p = tmp_path / "m.csv"
        write_matrix(build_matrix(tiny_course, day(9)), p)
        p.write_bytes(b"\xff" + p.read_bytes())
        with pytest.raises(BadValueError, match=rf"{re.escape(str(p))}: not UTF-8 text"):
            load_matrix(p, day(9))

    def test_matrix_bytes_are_reprs(self, tiny_course, tmp_path):
        m = build_matrix(tiny_course, day(9))
        stats, (z,) = normalize(m, [m], "zscore")
        p = tmp_path / "m.csv"
        write_matrix(z, p)
        rows = p.read_bytes().decode("utf-8").split("\r\n")
        assert rows[0] == ",".join(("student_id",) + FEATURE_NAMES) and rows[-1] == ""
        assert rows[1:-1] == [",".join([sid] + [repr(float(v)) for v in z.values[i]])
                              for i, sid in enumerate(z.student_ids)]
        assert load_matrix(p, day(9)).values.tobytes() == z.values.tobytes()

    def test_matrix_writes_negative_zero_apart_from_zero(self, tiny_course, tmp_path):
        m = build_matrix(tiny_course, day(9))
        values = m.values.copy()
        values[:, 0] = 0.0
        values[::2, 0] = -0.0
        p = tmp_path / "m.csv"
        write_matrix(FeatureMatrix(m.student_ids, values, m.as_of), p)
        cells = [row.split(",")[1] for row in p.read_text().splitlines()[1:]]
        assert cells == ["-0.0" if i % 2 == 0 else "0.0" for i in range(m.n_rows)]

    @pytest.mark.parametrize("kind,key", [("zscore", "mean"), ("zscore", "std"),
                                          ("percentile", "columns"),
                                          ("percentile", "references"),
                                          ("zscore", "names"), ("percentile", "names")])
    def test_norm_stats_missing_key_names_file(self, tiny_course, tmp_path, kind, key):
        m = build_matrix(tiny_course, day(9))
        p = tmp_path / "stats.json"
        save_norm_stats(normalize(m, [m], kind)[0], p)
        doc = json.loads(p.read_text())
        del doc[key]
        p.write_text(json.dumps(doc))
        with pytest.raises(BadValueError, match=rf"{re.escape(str(p))}: {kind} stats need '{key}'"):
            load_norm_stats(p)

    def test_norm_stats_round_trip(self, tiny_course, tmp_path):
        m = build_matrix(tiny_course, day(9))
        for kind in ("zscore", "percentile"):
            stats = normalize(m, [], kind)[0]
            p = tmp_path / f"{stats.kind}.json"
            save_norm_stats(stats, p)
            back = load_norm_stats(p)
            assert back.kind == stats.kind
            assert apply_norm(m, back).values.tobytes() == apply_norm(m, stats).values.tobytes()


class TestNormStatsChecks:
    """A stats file that does not fit the feature layout is rejected where it is
    read, with its path, before anything applies it."""

    def _written(self, course, tmp_path, kind):
        m = build_matrix(course, day(9))
        p = tmp_path / f"{kind}.norm.json"
        save_norm_stats(normalize(m, [m], kind)[0], p)
        return p, json.loads(p.read_text())

    def _rejected(self, p, doc, error, match):
        p.write_text(json.dumps(doc))
        with pytest.raises(error, match=rf"{re.escape(str(p))}: {match}"):
            load_norm_stats(p)

    def test_written_names_and_columns_are_the_layout(self, tiny_course, tmp_path):
        _, z = self._written(tiny_course, tmp_path, "zscore")
        _, pc = self._written(tiny_course, tmp_path, "percentile")
        assert z["names"] == pc["names"] == list(FEATURE_NAMES)
        assert pc["columns"] == list(PERCENTILE_COLUMNS)

    def test_other_columns_for_percentile(self, tiny_course, tmp_path):
        p, doc = self._written(tiny_course, tmp_path, "percentile")
        doc["columns"] = list(range(len(PERCENTILE_COLUMNS)))  # the demographic dummies first
        self._rejected(p, doc, SchemaMismatchError, "percentile columns must be")

    def test_fewer_references_than_columns(self, tiny_course, tmp_path):
        p, doc = self._written(tiny_course, tmp_path, "percentile")
        doc["references"] = doc["references"][:-2]
        self._rejected(p, doc, BadValueError, "percentile stats need 32 references, got 30")

    @pytest.mark.parametrize("key", ["mean", "std"])
    def test_zscore_vector_of_other_length(self, tiny_course, tmp_path, key):
        p, doc = self._written(tiny_course, tmp_path, "zscore")
        doc[key] = doc[key][:65]
        self._rejected(p, doc, BadValueError, rf"zscore {key} must be 66 finite values")

    @pytest.mark.parametrize("kind", ["zscore", "percentile"])
    def test_names_of_another_layout(self, tiny_course, tmp_path, kind):
        p, doc = self._written(tiny_course, tmp_path, kind)
        doc["names"] = doc["names"][1:] + doc["names"][:1]
        self._rejected(p, doc, SchemaMismatchError, "normalization stats name other columns")

    def test_unsorted_or_empty_reference(self, tiny_course, tmp_path):
        p, doc = self._written(tiny_course, tmp_path, "percentile")
        doc["references"][0] = []
        self._rejected(p, doc, BadValueError, "percentile references must be non-empty")
        doc["references"][0] = [2.0, 1.0]
        self._rejected(p, doc, BadValueError, "percentile references must be sorted")

    def test_not_json_or_not_an_object(self, tmp_path):
        p = tmp_path / "x.norm.json"
        p.write_text("[1, 2]")
        with pytest.raises(BadValueError, match=rf"{re.escape(str(p))}: .*JSON object"):
            load_norm_stats(p)
        p.write_text("{")
        with pytest.raises(BadValueError, match=re.escape(str(p))):
            load_norm_stats(p)
