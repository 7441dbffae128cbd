"""Week indexing, proxy labels, the six deployment paradigms, the harness."""

import dataclasses
import datetime
import re
from collections import Counter

import numpy as np
import pytest

from dropoutlab import linear, paradigms, settings
from dropoutlab.dataset import ActivityTable, CourseData
from dropoutlab.errors import (
    BadValueError,
    BeforeLaunchError,
    InvalidParadigmError,
    SingleClassError,
    WindowOutOfRangeError,
)
from dropoutlab.evaluate import auc_values
from dropoutlab.features import apply_norm, build_matrix, holdout_split, normalize, split_rows
from dropoutlab.linear import predict_proba, train_logreg
from dropoutlab.paradigms import (
    PARADIGMS,
    insitu_scores,
    largest_same_field_source,
    prediction_weeks,
    proxy_labels,
    run_experiment,
    run_paradigm,
    source_courses,
    week_date,
)

from conftest import (
    Record,
    Student,
    as_vector,
    certification_labels,
    counter_values,
    counters,
    day,
    days_since_last_action,
    make_course,
    make_meta,
    persistence_labels,
    records_of,
)


class TestWeekIndexing:
    def test_week_zero_is_t100(self):
        meta = make_meta(weeks_to_t100=8)
        assert week_date(meta, 0) == meta.t100_date

    def test_negative_weeks_step_back_seven_days(self):
        meta = make_meta(weeks_to_t100=8)
        assert week_date(meta, -3) == meta.t100_date - datetime.timedelta(days=21)
        for w in range(-8, 1):
            assert (week_date(meta, w) - meta.launch_date).days % 7 == 0

    def test_before_launch_rejected(self):
        meta = make_meta(weeks_to_t100=4)
        week_date(meta, -4)  # lands exactly on launch
        with pytest.raises(BeforeLaunchError):
            week_date(meta, -5)

    def test_prediction_weeks_eight_week_gap(self):
        meta = make_meta(weeks_to_t100=8)
        assert prediction_weeks(meta, "same_field") == list(range(-8, 1))
        assert prediction_weeks(meta, "multi_course") == list(range(-8, 1))
        assert prediction_weeks(meta, "baseline1") == list(range(-8, 1))
        assert prediction_weeks(meta, "post_hoc") == list(range(-7, 1))
        assert prediction_weeks(meta, "in_situ") == list(range(-6, 1))

    def test_prediction_weeks_one_week_gap(self):
        meta = make_meta(weeks_to_t100=1)
        assert prediction_weeks(meta, "post_hoc") == [0]
        assert prediction_weeks(meta, "in_situ") == []
        assert prediction_weeks(meta, "baseline2") == [-1, 0]

    def test_weeks_end_at_zero(self):
        for wt in (1, 3, 8, 12):
            meta = make_meta(weeks_to_t100=wt, weeks_total=wt + 2)
            for kind in PARADIGMS:
                weeks = prediction_weeks(meta, kind)
                if weeks:
                    assert weeks[-1] == 0
                    assert np.all(np.diff(weeks) == 1)

    def test_unknown_kind(self):
        with pytest.raises(InvalidParadigmError):
            prediction_weeks(make_meta(), "oracle")


def _window_course():
    """t100 at day 28; activity placed around the w=0 window [21, 27]."""
    meta = make_meta(course_id="WINx", weeks_to_t100=4, weeks_total=5)
    students = [Student(s) for s in ("wa", "wb", "wc", "wd", "we")]
    records = [
        Record("wa", day(21), counters(nevents=3)),
        Record("wb", day(20), counters(nevents=5)),
        Record("wc", day(27), counters(nevents=1)),
        Record("wd", day(28), counters(nevents=9)),
        Record("wb", day(3), counters(nevents=2)),
    ]
    return make_course(meta, students, records, {})


def _proxy_by_id(course, w):
    return dict(zip(course.roster.student_ids, proxy_labels(course, w).tolist()))


class TestProxyLabels:
    def test_window_boundaries(self):
        labels = _proxy_by_id(_window_course(), 0)
        assert labels == {"wa": 1, "wb": 0, "wc": 1, "wd": 0, "we": 0}

    def test_every_student_labeled(self):
        course = _window_course()
        p = proxy_labels(course, 0)
        assert course.roster.student_ids == ("wa", "wb", "wc", "wd", "we")
        assert p.shape == (5,) and p.dtype == np.float64
        assert set(p.tolist()) <= {0.0, 1.0}

    def test_earlier_week(self):
        labels = _proxy_by_id(_window_course(), -3)  # window days 0..6
        assert labels == {"wa": 0, "wb": 1, "wc": 0, "wd": 0, "we": 0}

    def test_matches_per_student_oracle(self, tiny_course, small_corpus):
        for course in (_window_course(), tiny_course, *small_corpus):
            gap = (course.meta.t100_date - course.meta.launch_date).days
            weeks = range(-(gap // 7) + 1, 1)  # every window inside [launch, t100]
            assert len(weeks) >= 3
            for w in weeks:
                expect = as_vector(persistence_labels(course, w), course)
                assert proxy_labels(course, w).tobytes() == expect.tobytes(), (course, w)

    def test_window_must_fit(self):
        course = _window_course()
        with pytest.raises(WindowOutOfRangeError):
            proxy_labels(course, -4)  # window would start before launch
        with pytest.raises(WindowOutOfRangeError):
            proxy_labels(course, 1)  # window would cross t100

    @pytest.mark.parametrize("w,error,words", [
        (2_000_000, BadValueError, "falls past 9999-12-31"),
        (-2_000_000, WindowOutOfRangeError, "falls before launch 2014-01-06"),
        (-5, WindowOutOfRangeError, "falls before launch 2014-01-06"),
    ])
    def test_week_outside_the_calendar_names_course_and_week(self, w, error, words):
        with pytest.raises(error, match=re.escape(f"course 'WINx': week {w} {words}")):
            proxy_labels(_window_course(), w)

    def test_source_date_clamps_to_launch_and_names_a_week_past_the_calendar(self):
        meta = _window_course().meta
        assert paradigms._source_date(meta, -2_000_000) == meta.launch_date
        assert paradigms._source_date(meta, -5) == meta.launch_date
        assert paradigms._source_date(meta, -1) == week_date(meta, -1)
        with pytest.raises(BadValueError, match=re.escape(
                "course 'WINx': week 2000000 falls past 9999-12-31")):
            paradigms._source_date(meta, 2_000_000)

    def test_activity_outside_window_irrelevant(self):
        course = _window_course()
        base = _proxy_by_id(course, 0)
        extra = records_of(course) + [
            Record("we", day(19), counters(nevents=50)),
            Record("wb", day(30), counters(nevents=50)),
        ]
        bumped = make_course(course.meta, course.roster, extra, {})
        assert _proxy_by_id(bumped, 0) == base

    def test_zero_event_rows_do_not_count(self):
        course = _window_course()
        extra = records_of(course) + [
            Record("we", day(24), counters(nvideo=4))  # nevents stays 0
        ]
        bumped = make_course(course.meta, course.roster, extra, {})
        assert _proxy_by_id(bumped, 0)["we"] == 0


def _mini_course(course_id, field, n, weeks_to_t100=4, launch=None, seed=0, certify=True):
    """Synthetic-free small course: half the students persist and, unless
    certify is False, certify."""
    from conftest import LAUNCH

    launch = launch or LAUNCH
    meta = make_meta(course_id=course_id, field=field, launch=launch,
                     weeks_to_t100=weeks_to_t100, weeks_total=weeks_to_t100 + 1,
                     threshold=0.5)
    rng = np.random.default_rng(seed)
    students, records, grades = [], [], {}
    horizon = 7 * weeks_to_t100
    for i in range(n):
        sid = f"{course_id}_{i:03d}"
        students.append(Student(sid, yob=1985))
        persists = i % 2 == 0
        span = horizon if persists else max(2, horizon // 5)
        for d in range(0, span, 2):
            if rng.random() < 0.8:
                records.append(Record(sid, day(d, launch),
                                      counters(nevents=2 + (i + d) % 4,
                                               nproblems_answered=1)))
        grades[sid] = 0.9 if persists and certify else 0.1
    return make_course(meta, students, records, grades)


@pytest.fixture(scope="module")
def handmade_corpus():
    return [
        _mini_course("HCAx", "STEM", 40, seed=1),
        _mini_course("HCBx", "STEM", 60, seed=2),
        _mini_course("HCCx", "Hum", 50, seed=3),
        _mini_course("HCDx", "STEM", 60, seed=4),
    ]


class TestSourceSelection:
    def test_largest_same_field(self, handmade_corpus):
        assert largest_same_field_source(handmade_corpus, "HCAx") == "HCBx"

    def test_tie_broken_lexicographically(self, handmade_corpus):
        # HCBx and HCDx both have 60 students
        assert largest_same_field_source(handmade_corpus, "HCAx") == "HCBx"
        assert largest_same_field_source(handmade_corpus, "HCBx") == "HCDx"

    def test_unique_field_has_no_source(self, handmade_corpus):
        assert largest_same_field_source(handmade_corpus, "HCCx") is None

    def test_make_spec_same_field(self, handmade_corpus):
        assert source_courses(handmade_corpus, "same_field", "HCAx") == ("HCBx",)
        with pytest.raises(InvalidParadigmError):
            source_courses(handmade_corpus, "same_field", "HCCx")

    def test_make_spec_multi_course(self, handmade_corpus):
        assert source_courses(handmade_corpus, "multi_course", "HCBx") == ("HCAx", "HCCx", "HCDx")

    def test_make_spec_rejects_unknowns(self, handmade_corpus):
        with pytest.raises(InvalidParadigmError):
            source_courses(handmade_corpus, "psychic", "HCAx")
        with pytest.raises(InvalidParadigmError):
            source_courses(handmade_corpus, "post_hoc", "GHOSTx")

    def test_run_paradigm_without_source_rejected(self, handmade_corpus):
        with pytest.raises(InvalidParadigmError, match="no other Hum course"):
            run_paradigm(handmade_corpus, "same_field", "HCCx", 0)
        with pytest.raises(InvalidParadigmError, match="at least one other course"):
            run_paradigm(handmade_corpus[:1], "multi_course", "HCAx", 0)


class TestPostHoc:
    def test_separable_course_perfect_auc(self, separable_course):
        scores, labels = run_paradigm([separable_course], "post_hoc", "SEPx", 0)
        assert np.array_equal(labels, separable_course.certified)
        assert auc_values(scores, labels) == 1.0

    def test_scores_match_manual_pipeline(self, handmade_corpus):
        target = handmade_corpus[0]
        scores, labels = run_paradigm(handmade_corpus, "post_hoc", "HCAx", -1)
        m = build_matrix(target, week_date(target.meta, -1))
        stats, (z,) = normalize(m, [m], "zscore")
        model = train_logreg(z, target.certified, 1.0, norm=stats)
        assert np.array_equal(scores, predict_proba(model, z))
        assert np.array_equal(labels, target.certified)

    def test_ineligible_week_rejected(self, handmade_corpus):
        with pytest.raises(WindowOutOfRangeError):
            run_paradigm(handmade_corpus, "post_hoc", "HCAx", -4)  # gap 28 allows only -3..0
        with pytest.raises(WindowOutOfRangeError):
            run_paradigm(handmade_corpus, "post_hoc", "HCAx", 1)

    def test_holdout_scores_only_held_out(self, handmade_corpus):
        target = handmade_corpus[1]
        scores, labels = run_paradigm(handmade_corpus, "post_hoc", "HCBx", 0,
                                      holdout=0.25, seed=3)
        assert len(scores) == len(labels) == round(0.25 * 60) < target.n_students
        # the held-out side of holdout_split, scored by a model of its train side
        m = build_matrix(target, week_date(target.meta, 0))
        stats, z_train, y_train, z_test, y_test = holdout_split(m, target.certified, 0.25, 3,
                                                                "zscore")
        model = train_logreg(z_train, y_train, 1.0, norm=stats)
        assert np.array_equal(scores, predict_proba(model, z_test))
        assert np.array_equal(labels, y_test)

    def test_holdout_deterministic_per_seed(self, handmade_corpus):
        a = run_paradigm(handmade_corpus, "post_hoc", "HCBx", 0, holdout=0.3, seed=5)
        b = run_paradigm(handmade_corpus, "post_hoc", "HCBx", 0, holdout=0.3, seed=5)
        c = run_paradigm(handmade_corpus, "post_hoc", "HCBx", 0, holdout=0.3, seed=6)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[0], c[0])

    def test_bad_holdout_rejected(self, handmade_corpus):
        with pytest.raises(BadValueError):
            run_paradigm(handmade_corpus, "post_hoc", "HCAx", 0, holdout=1.5)

    def test_holdout_that_empties_a_side_fails_before_any_snapshot(self, handmade_corpus,
                                                                  monkeypatch):
        monkeypatch.setattr(paradigms, "build_matrix", lambda *a: pytest.fail("snapshot built"))
        with pytest.raises(BadValueError, match=r"^course 'HCBx': test fraction 0\.005 leaves "
                                                r"an empty side for n=60$"):
            run_paradigm(handmade_corpus, "post_hoc", "HCBx", 0, holdout=0.005)


class TestTransfer:
    def test_same_field_deploys_source_statistics(self, handmade_corpus):
        target, source = handmade_corpus[0], handmade_corpus[1]
        scores, labels = run_paradigm(handmade_corpus, "same_field", "HCAx", 0)
        m_s = build_matrix(source, week_date(source.meta, 0))
        stats_s, (z_s,) = normalize(m_s, [m_s], "zscore")
        model = train_logreg(z_s, source.certified, 1.0, norm=stats_s)
        m_t = build_matrix(target, week_date(target.meta, 0))
        assert np.array_equal(scores, predict_proba(model, apply_norm(m_t, stats_s)))
        assert np.array_equal(labels, target.certified)

    def test_source_week_clamped_to_launch(self):
        # source opened 3 weeks before its T100; target 6 weeks. At w = -5
        # the source snapshot would predate its launch and must clamp there.
        corpus = [
            _mini_course("CLTx", "STEM", 30, weeks_to_t100=6, seed=5),
            _mini_course("CLSx", "STEM", 40, weeks_to_t100=3, seed=6),
        ]
        scores, _ = run_paradigm(corpus, "same_field", "CLTx", -5)
        source = corpus[1]
        m_s = build_matrix(source, source.meta.launch_date)
        stats_s, (z_s,) = normalize(m_s, [m_s], "zscore")
        model = train_logreg(z_s, source.certified, 1.0, norm=stats_s)
        target = corpus[0]
        m_t = build_matrix(target, week_date(target.meta, -5))
        assert np.array_equal(scores, predict_proba(model, apply_norm(m_t, stats_s)))

    def test_multi_course_averages_and_uses_target_statistics(self, handmade_corpus):
        from dropoutlab.linear import average_hyperplanes

        target = handmade_corpus[1]
        scores, labels = run_paradigm(handmade_corpus, "multi_course", "HCBx", 0)
        models = []
        for cid in source_courses(handmade_corpus, "multi_course", "HCBx"):
            src = next(c for c in handmade_corpus if c.meta.course_id == cid)
            m_s = build_matrix(src, week_date(src.meta, 0))
            stats_s, (z_s,) = normalize(m_s, [m_s], "zscore")
            models.append(train_logreg(z_s, src.certified, 1.0, norm=stats_s))
        avg = average_hyperplanes(models)
        m_t = build_matrix(target, week_date(target.meta, 0))
        assert np.array_equal(scores, predict_proba(avg, normalize(m_t, [m_t], "zscore")[1][0]))
        assert np.array_equal(labels, target.certified)

    def test_single_source_average_is_that_model(self):
        corpus = [
            _mini_course("SAAx", "STEM", 30, seed=7),
            _mini_course("SABx", "Hum", 30, seed=8),
        ]
        from dropoutlab.linear import average_hyperplanes

        m_s = build_matrix(corpus[1], week_date(corpus[1].meta, 0))
        z_s = normalize(m_s, [m_s], "zscore")[1][0]
        model = train_logreg(z_s, corpus[1].certified, 1.0)
        avg = average_hyperplanes([model])
        assert np.array_equal(avg.weights, model.weights)
        assert avg.intercept == model.intercept

    def test_transfer_beats_chance_on_synthetic(self, small_corpus):
        cell = run_paradigm(small_corpus, "same_field", small_corpus[0].meta.course_id, 0)
        assert auc_values(*cell) > 0.6


def _insitu(c, w):
    """in_situ's scores of course c at week w, from its week-w snapshot and proxy labels."""
    return insitu_scores(build_matrix(c, week_date(c.meta, w)), proxy_labels(c, w))


class TestInSitu:
    def test_matches_direct_call(self, small_corpus):
        c = small_corpus[0]
        scores, labels = run_paradigm(small_corpus, "in_situ", c.meta.course_id, -1)
        direct = _insitu(c, -1)
        assert direct.dtype == np.float64 and direct.shape == (c.n_students,)
        assert np.array_equal(scores, direct)
        assert np.array_equal(labels, c.certified)

    def test_blind_to_certification_labels(self, small_corpus):
        c = small_corpus[0]
        flipped = CourseData(c.meta, c.roster, c.activity, 1.0 - c.final_grade)
        corpus = [flipped] + list(small_corpus[1:])
        a, _ = run_paradigm(small_corpus, "in_situ", c.meta.course_id, -1)
        b, _ = run_paradigm(corpus, "in_situ", c.meta.course_id, -1)
        assert np.array_equal(a, b)

    def test_still_predictive_of_certification(self, small_corpus):
        c = small_corpus[0]
        assert auc_values(_insitu(c, 0), c.certified) > 0.7


class TestInformationFrontier:
    """A cell (target, w) reads none of the target's activity after week_date(w), none
    of a source's activity after the source's own week-w date, and only post_hoc and
    baseline1 read the target's own grades. Every third eligible week of each paradigm
    is scored before and after a perturbation of the target alone, or of every source."""

    @pytest.fixture(scope="class")
    def cells(self, small_corpus):
        """The target, and the scores of each checked (paradigm, week) cell of it."""
        target = small_corpus[2]  # launched after two of its sources and before one
        return target, {(kind, w): self._scores(small_corpus, kind, w, target)
                        for kind in PARADIGMS for w in prediction_weeks(target.meta, kind)[::3]}

    @staticmethod
    def _scores(corpus, kind, w, target):
        return run_paradigm(corpus, kind, target.meta.course_id, w)[0].tobytes()

    @staticmethod
    def _tripled_after(course, date):
        """course with every activity row after date tripled; fails if there is none."""
        table = course.activity
        later = table.day > course.day_offset(date)
        assert later.any(), (course.meta.course_id, date)
        values = counter_values(table)
        values[later] *= 3.0
        return dataclasses.replace(
            course, activity=ActivityTable(table.student_index, table.day, values.T))

    def test_target_activity_after_the_week_date_is_never_read(self, small_corpus, cells):
        target, scores = cells
        for kind, w in scores:
            tripled = self._tripled_after(target, week_date(target.meta, w))
            corpus = [tripled if c is target else c for c in small_corpus]
            assert self._scores(corpus, kind, w, tripled) == scores[kind, w], (kind, w)

    def test_source_activity_after_its_source_date_is_never_read(self, small_corpus, cells):
        target, scores = cells
        for kind, w in scores:
            # a source's date for week w is its own t100 date + 7w days, clamped to its launch
            corpus = [c if c is target else self._tripled_after(c, max(
                c.meta.t100_date + datetime.timedelta(days=7 * w), c.meta.launch_date))
                      for c in small_corpus]
            assert self._scores(corpus, kind, w, target) == scores[kind, w], (kind, w)

    def test_target_grades_are_read_by_post_hoc_and_baseline1_alone(self, small_corpus, cells):
        target, scores = cells
        flipped = dataclasses.replace(target, final_grade=1.0 - target.final_grade)
        corpus = [flipped if c is target else c for c in small_corpus]
        for kind, w in scores:
            unread = self._scores(corpus, kind, w, flipped) == scores[kind, w]
            assert unread == (kind not in ("post_hoc", "baseline1")), (kind, w)


class TestBaselines:
    def test_baseline1_week_independent(self, small_corpus):
        a, _ = run_paradigm(small_corpus, "baseline1", small_corpus[0].meta.course_id, 0)
        b, _ = run_paradigm(small_corpus, "baseline1", small_corpus[0].meta.course_id, -3)
        assert np.array_equal(a, b)

    def test_baseline2_is_negated_recency(self, handmade_corpus):
        target = handmade_corpus[0]
        scores, _ = run_paradigm(handmade_corpus, "baseline2", "HCAx", -1)
        wd = week_date(target.meta, -1)
        assert len(scores) == target.n_students
        for sid, s in zip(target.roster.student_ids, scores):  # student-id order
            assert s == -days_since_last_action(target, sid, wd)


class TestHarness:
    def test_row_bookkeeping(self, handmade_corpus):
        kinds = ("post_hoc", "baseline2")
        report = run_experiment(handmade_corpus, kinds)
        expected = sum(len(prediction_weeks(c.meta, k))
                       for k in kinds for c in handmade_corpus)
        assert len(report.rows) + len(report.skipped) == expected
        for r in report.rows:
            course = next(c for c in handmade_corpus
                          if c.meta.course_id == r.course_id)
            assert r.n_students == course.n_students
            assert 0 < r.n_positives < r.n_students

    def test_rows_sorted(self, handmade_corpus):
        report = run_experiment(handmade_corpus, ("baseline2", "baseline1"))
        keys = [(r.paradigm, r.course_id, r.week) for r in report.rows]
        assert keys == sorted(keys)

    def test_impossible_same_field_logged_not_fatal(self, handmade_corpus):
        report = run_experiment(handmade_corpus, ("same_field",))
        skipped_courses = {s[1] for s in report.skipped}
        assert skipped_courses == {"HCCx"}  # only Hum course lacks a source
        weeks = prediction_weeks(handmade_corpus[2].meta, "same_field")
        assert len([s for s in report.skipped if s[1] == "HCCx"]) == len(weeks)
        assert all("same_field" == s[0] for s in report.skipped)

    def test_deterministic_across_calls(self, handmade_corpus):
        a = run_experiment(handmade_corpus, ("post_hoc", "baseline2"))
        b = run_experiment(handmade_corpus, ("post_hoc", "baseline2"))
        assert a == b

    def test_jobs_do_not_change_results(self, handmade_corpus):
        kinds = ("post_hoc", "baseline2")
        a = run_experiment(handmade_corpus, kinds, jobs=1)
        b = run_experiment(handmade_corpus, kinds, jobs=3)
        assert a == b

    @pytest.mark.parametrize("jobs,processes", [(1, 0), (2, 2), (4, 4), (5, 4), (64, 4)])
    def test_pool_has_at_most_one_worker_per_course(self, handmade_corpus, monkeypatch,
                                                    jobs, processes):
        """The worker count that reaches settings.forked, once for the fit phase
        and once for the score phase, is capped at the four courses' tasks; the
        calls run in this process, so no worker starts."""
        asked = []

        def forked(task, n):
            asked.append(n)
            return settings.forked(task, 0)
        monkeypatch.setattr(paradigms, "forked", forked)
        kinds = ("post_hoc", "baseline2")
        assert run_experiment(handmade_corpus, kinds, jobs=jobs) == run_experiment(
            handmade_corpus, kinds, jobs=1)
        assert asked == [processes, processes, 0, 0]

    def test_unknown_kind_rejected(self, handmade_corpus):
        with pytest.raises(InvalidParadigmError):
            run_experiment(handmade_corpus, ("post_hoc", "tea_leaves"))

    def test_repeated_kind_rejected(self, handmade_corpus):
        with pytest.raises(InvalidParadigmError, match="'baseline2'"):
            run_experiment(handmade_corpus, ("baseline2", "post_hoc", "baseline2"))

    def test_empty_corpus_rejected(self):
        with pytest.raises(BadValueError):
            run_experiment([], ("post_hoc",))

    def test_holdout_rows_scored_against_held_out_labels(self, handmade_corpus):
        report = run_experiment(handmade_corpus, ("post_hoc",), holdout=0.25, seed=3)
        assert report.rows
        for r in report.rows:
            course = next(c for c in handmade_corpus if c.meta.course_id == r.course_id)
            scores, y = run_paradigm(handmade_corpus, "post_hoc", r.course_id, r.week,
                                     holdout=0.25, seed=3)
            by_id = certification_labels(course)
            _, test_rows = split_rows(course.n_students, 0.25, 3)
            assert y.tolist() == [by_id[course.roster.student_ids[i]] for i in test_rows]
            assert (r.n_students, r.n_positives) == (len(y), int(y.sum()))
            assert r.auc == auc_values(scores, y)


def _expected_course_model_keys(corpus):
    """(course_id, date) of every course model the six paradigms read, from the
    schedule alone: post_hoc at the target's week dates, and each same_field
    and multi_course source at its own week-w date, clamped to its launch."""
    by_id = {c.meta.course_id: c for c in corpus}

    def own_date(cid, w):
        meta = by_id[cid].meta
        return max(meta.t100_date + datetime.timedelta(days=7 * w), meta.launch_date)

    keys = set()
    for c in corpus:
        cid = c.meta.course_id
        keys |= {(cid, week_date(c.meta, w)) for w in prediction_weeks(c.meta, "post_hoc")}
        same = largest_same_field_source(corpus, cid)
        if same is not None:
            keys |= {(same, own_date(same, w)) for w in prediction_weeks(c.meta, "same_field")}
        for w in prediction_weeks(c.meta, "multi_course"):
            keys |= {(s, own_date(s, w)) for s in by_id if s != cid}
    return keys


def _outcomes(report):
    """{(paradigm, course_id, week): AUC, or the reason the cell was skipped}."""
    out = {(r.paradigm, r.course_id, r.week): r.auc for r in report.rows}
    out.update({(k, cid, w): reason for k, cid, w, reason in report.skipped})
    return out


def _single_class_corpus():
    """Three courses; nobody certifies in SCBx, SCAx's same-field source."""
    return [
        _mini_course("SCAx", "STEM", 40, seed=1),
        _mini_course("SCBx", "STEM", 60, seed=2, certify=False),
        _mini_course("SCCx", "Hum", 50, seed=3),
    ]


class TestFitCourseModel:
    def test_snapshot_of_another_roster_rejected(self, small_corpus, tiny_course):
        c = small_corpus[0]
        for wrong in (build_matrix(tiny_course, tiny_course.meta.t100_date),
                      build_matrix(c, c.meta.t100_date).take(np.arange(10))):
            with pytest.raises(BadValueError, match="roster"):
                paradigms.fit_course_model(c, wrong)


class TestModelTable:
    @pytest.mark.parametrize("corpus_name", ["handmade_corpus", "small_corpus"])
    def test_each_model_fit_once(self, corpus_name, request, monkeypatch):
        corpus = request.getfixturevalue(corpus_name)
        solves, course_fits = [], []
        minimize, fit_course_model = linear._minimize, paradigms.fit_course_model

        def counting_minimize(*args):
            solves.append(args)
            return minimize(*args)

        def recording_fit(course, m, *args):
            course_fits.append((course.meta.course_id, m.as_of))
            return fit_course_model(course, m, *args)

        monkeypatch.setattr(linear, "_minimize", counting_minimize)
        monkeypatch.setattr(paradigms, "fit_course_model", recording_fit)
        report = run_experiment(corpus, PARADIGMS, jobs=1)
        assert {r.paradigm for r in report.rows} == set(PARADIGMS)
        assert len(course_fits) == len(set(course_fits)), "a course model was fit twice"
        keys = _expected_course_model_keys(corpus)
        assert set(course_fits) == keys
        in_situ_cells = sum(len(prediction_weeks(c.meta, "in_situ")) for c in corpus)
        assert len(solves) == len(keys) + len(corpus) + in_situ_cells

    def test_each_snapshot_built_at_most_twice(self, small_corpus, monkeypatch):
        # once by its course's fit task and once by its target course's score task
        builds, walk, build = [], paradigms.snapshots, paradigms.build_matrix

        def counting_walk(course, dates):
            for m in walk(course, dates):
                builds.append((course.meta.course_id, m.as_of))
                yield m

        def counting_build(course, as_of):
            builds.append((course.meta.course_id, as_of))
            return build(course, as_of)

        monkeypatch.setattr(paradigms, "snapshots", counting_walk)
        monkeypatch.setattr(paradigms, "build_matrix", counting_build)
        report = run_experiment(small_corpus, PARADIGMS, jobs=1)
        assert {r.paradigm for r in report.rows} == set(PARADIGMS)
        counts = Counter(builds)
        assert max(counts.values()) <= 2, counts.most_common(3)
        weeks = {(c.meta.course_id, week_date(c.meta, w)) for c in small_corpus
                 for kind in PARADIGMS for w in prediction_weeks(c.meta, kind)}
        assert weeks <= set(counts)

    def test_jobs_do_not_change_results_for_any_paradigm(self, handmade_corpus):
        a = run_experiment(handmade_corpus, PARADIGMS, jobs=1)
        b = run_experiment(handmade_corpus, PARADIGMS, jobs=2)
        assert {r.paradigm for r in a.rows} == set(PARADIGMS)
        assert a == b

    @pytest.mark.parametrize("corpus_name", ["handmade_corpus", "small_corpus"])
    def test_cells_match_standalone_run_paradigm(self, corpus_name, request):
        corpus = request.getfixturevalue(corpus_name)
        report = run_experiment(corpus, PARADIGMS)
        assert {r.paradigm for r in report.rows} == set(PARADIGMS)
        by_id = {c.meta.course_id: c for c in corpus}
        standalone = {}
        for kind, cid, w in _outcomes(report):
            try:
                cell = run_paradigm(corpus, kind, cid, w)
                assert np.array_equal(cell[1], by_id[cid].certified)
                standalone[kind, cid, w] = auc_values(*cell)
            except (SingleClassError, InvalidParadigmError) as e:
                standalone[kind, cid, w] = str(e)
        assert standalone == _outcomes(report)

    def test_single_class_course_skips_the_cells_that_train_on_it(self):
        corpus = _single_class_corpus()
        assert corpus[1].certified.sum() == 0
        report = run_experiment(corpus, PARADIGMS)

        def cells(kind, cid):
            return {(kind, cid, w) for w in prediction_weeks(corpus[0].meta, kind)}

        trains_on_scbx = (cells("post_hoc", "SCBx") | cells("baseline1", "SCBx")
                          | cells("same_field", "SCAx")  # SCBx is SCAx's same-field source
                          | cells("multi_course", "SCAx") | cells("multi_course", "SCCx"))
        single_class = {key for key, reason in _outcomes(report).items()
                        if reason == "training labels contain a single class"}
        assert single_class == trains_on_scbx
        assert not [r for r in report.rows if r.paradigm == "multi_course"]
        assert {(r.paradigm, r.course_id) for r in report.rows} >= {
            ("post_hoc", "SCAx"), ("post_hoc", "SCCx"), ("baseline1", "SCCx")}

    def test_one_task_per_course_jobs_at_holdout(self):
        # three courses give each phase three tasks: jobs=3 fills the pool, jobs=4 overfills it
        corpus = _single_class_corpus()
        a = run_experiment(corpus, PARADIGMS, holdout=0.3, jobs=1)
        assert {r.paradigm for r in a.rows} == {"post_hoc", "in_situ", "baseline1", "baseline2"}
        assert {reason for *_, reason in a.skipped} >= {
            "training labels contain a single class", "no other Hum course to train same_field "
            "for 'SCCx'"}
        for jobs in (3, 4):
            b = run_experiment(corpus, PARADIGMS, holdout=0.3, jobs=jobs)
            assert a.rows == b.rows and a.aggregates == b.aggregates
            assert a.skipped == b.skipped

    @pytest.mark.parametrize("holdout", [0.0, 0.3])
    def test_cell_keys_derived_once_per_cell(self, holdout, monkeypatch):
        corpus = _single_class_corpus()  # SCCx has no same-field source
        derived, cell_keys = [], paradigms._cell_keys

        def counting_keys(corpus, kind, target_id, w, holdout):
            derived.append((kind, target_id, w))
            return cell_keys(corpus, kind, target_id, w, holdout)

        monkeypatch.setattr(paradigms, "_cell_keys", counting_keys)
        report = run_experiment(corpus, PARADIGMS, holdout=holdout, jobs=1)
        assert any("no other Hum course" in reason for *_, reason in report.skipped)
        cells = [(r.paradigm, r.course_id, r.week) for r in report.rows]
        cells += [(kind, cid, w) for kind, cid, w, _ in report.skipped]
        assert len(cells) == len(set(cells))
        assert sorted(derived) == sorted(cells)
