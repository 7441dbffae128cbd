"""Logistic regression: gradients, optimality, averaging, baselines."""

import datetime
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit

from dropoutlab import linear
from dropoutlab.errors import (
    BadValueError,
    ConvergenceWarning,
    EmptyListError,
    SchemaMismatchError,
    SingleClassError,
    UnknownStudentError,
)
from dropoutlab.features import (
    BLOCKS,
    DEMOGRAPHIC_BLOCKS,
    FEATURE_NAMES,
    FeatureMatrix,
    apply_zscore,
    build_matrix,
    demographic_dummies,
    fit_zscore,
    normalize,
)
from dropoutlab.linear import (
    SCHEMA_HASH,
    LinearModel,
    _minimize,
    _sigmoid,
    average_hyperplanes,
    baseline_demographics,
    baseline_recency,
    load_model,
    predict_proba,
    save_model,
    score_demographics,
    train_logreg,
)

from conftest import LAUNCH, Student, counters, day, logreg_loss_and_grad, make_course, make_meta


def _labelled_matrix(values, labels):
    ids = tuple(f"q{i:03d}" for i in range(len(values)))
    vals = np.zeros((len(values), 66))
    vals[:, : np.shape(values)[1]] = values
    m = FeatureMatrix(ids, vals, LAUNCH)
    return m, np.asarray(labels, dtype=np.float64)


def _rand_problem(rng, n, p):
    X = rng.standard_normal((n, p))
    y = (rng.random(n) < 0.5).astype(float)
    if y.min() == y.max():
        y[0] = 1.0 - y[0]
    return X, y


class TestLossAndGrad:
    def test_matches_central_differences(self):
        # global-scale relative error so dead directions cannot inflate it
        rng = np.random.default_rng(20260816)
        h = 1e-6
        for trial in range(100):
            n = int(rng.integers(3, 25))
            p = int(rng.integers(1, 8))
            C = float(rng.choice([0.05, 1.0, 30.0]))
            X, y = _rand_problem(rng, n, p)
            w = rng.standard_normal(p)
            b = float(rng.standard_normal())
            _, gw, gb = logreg_loss_and_grad(w, b, X, y, C)
            num = np.zeros(p + 1)
            for j in range(p):
                e = np.zeros(p)
                e[j] = h
                lp, _, _ = logreg_loss_and_grad(w + e, b, X, y, C)
                lm, _, _ = logreg_loss_and_grad(w - e, b, X, y, C)
                num[j] = (lp - lm) / (2 * h)
            lp, _, _ = logreg_loss_and_grad(w, b + h, X, y, C)
            lm, _, _ = logreg_loss_and_grad(w, b - h, X, y, C)
            num[p] = (lp - lm) / (2 * h)
            ana = np.concatenate([gw, [gb]])
            scale = max(np.max(np.abs(num)), 1.0)
            assert np.max(np.abs(ana - num)) / scale < 1e-5, trial

    def test_loss_at_origin(self):
        X = np.zeros((4, 2))
        y = np.array([0.0, 1.0, 1.0, 0.0])
        loss, gw, gb = logreg_loss_and_grad(np.zeros(2), 0.0, X, y, 1.0)
        assert loss == pytest.approx(4 * np.log(2))
        assert gb == pytest.approx(0.0)

    def test_regularizer_scales_with_inverse_c(self):
        X = np.zeros((1, 3))
        y = np.array([1.0])
        w = np.array([2.0, 0.0, -1.0])
        l1, _, _ = logreg_loss_and_grad(w, 0.0, X, y, 1.0)
        l2, _, _ = logreg_loss_and_grad(w, 0.0, X, y, 10.0)
        assert l1 - l2 == pytest.approx(0.5 * 5.0 * (1 - 0.1))


class TestTraining:
    def test_separable_sign(self):
        m, labels = _labelled_matrix(np.array([[-2.0], [-1.0], [1.0], [2.0]]),
                                     [0, 0, 1, 1])
        model = train_logreg(m, labels, C=1.0)
        assert model.weights[0] > 0.5
        assert np.all(model.weights[1:] == 0.0)

    def test_single_class_rejected(self):
        m, labels = _labelled_matrix(np.array([[1.0], [2.0]]), [1, 1])
        with pytest.raises(SingleClassError):
            train_logreg(m, labels)

    def test_label_length_must_match_rows(self):
        m, labels = _labelled_matrix(np.array([[1.0], [-1.0], [2.0]]), [1, 0, 1])
        for y in (labels[:2], np.append(labels, 0.0), labels[:, None]):
            with pytest.raises(BadValueError, match="do not align with 3 rows"):
                train_logreg(m, y)

    def test_bad_c_rejected(self):
        m, labels = _labelled_matrix(np.array([[1.0], [-1.0]]), [1, 0])
        for C in (0.0, np.inf, np.nan):
            with pytest.raises(BadValueError, match="positive and finite"):
                train_logreg(m, labels, C=C)

    def test_first_order_optimality(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(10, 60))
            p = int(rng.integers(1, 9))
            X, y = _rand_problem(rng, n, p)
            full = np.zeros((n, 66))
            full[:, :p] = X
            ids = tuple(f"q{i:03d}" for i in range(n))
            m = FeatureMatrix(ids, full, LAUNCH)
            C = float(rng.choice([0.1, 1.0, 10.0]))
            model = train_logreg(m, y, C=C)
            loss, gw, gb = logreg_loss_and_grad(model.weights, model.intercept, full, y, C)
            assert np.sqrt(gw @ gw + gb * gb) <= linear.TOL_PER_EXAMPLE * n * 1.001
            loss0, _, _ = logreg_loss_and_grad(np.zeros(66), 0.0, full, y, C)
            assert loss <= loss0

    def test_stronger_regularization_shrinks_weights(self):
        rng = np.random.default_rng(3)
        X, y = _rand_problem(rng, 80, 5)
        m, labels = _labelled_matrix(X, y.astype(int))
        tight = train_logreg(m, labels, C=1e-4)
        loose = train_logreg(m, labels, C=1e2)
        assert np.linalg.norm(tight.weights) < 1e-2
        assert np.linalg.norm(loose.weights) > np.linalg.norm(tight.weights) * 10

    def test_nonconvergence_warns(self, monkeypatch):
        rng = np.random.default_rng(3)
        X, y = _rand_problem(rng, 80, 5)
        m, labels = _labelled_matrix(X, y.astype(int))
        monkeypatch.setattr(linear, "MAX_ITER", 1)
        with pytest.warns(ConvergenceWarning, match=r"iterations=1, gradient norm \S+ > ") as rec:
            train_logreg(m, labels)
        with pytest.warns(ConvergenceWarning, match=r"iterations=1") as rec_demo:
            baseline_demographics(_demographic_course())
        # the warning names the caller's line, not the solver's
        assert rec[0].filename == rec_demo[0].filename == __file__

    @pytest.mark.parametrize("labels", [[0.0, 2.0] * 10, [0.0, 0.5] * 10, [0.0, np.nan] * 10],
                             ids=["two", "half", "nan"])
    def test_labels_outside_zero_one_rejected(self, labels):
        rng = np.random.default_rng(3)
        m, y = _labelled_matrix(rng.standard_normal((20, 3)), labels)
        with pytest.raises(BadValueError, match="labels must be 0 or 1"):
            train_logreg(m, y)

    def test_converged_fit_does_not_warn(self):
        rng = np.random.default_rng(3)
        X, y = _rand_problem(rng, 80, 5)
        m, labels = _labelled_matrix(X, y.astype(int))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            train_logreg(m, labels)
            baseline_demographics(_demographic_course())


class TestNewtonSolver:
    def test_few_iterations_on_well_posed_problems(self):
        rng = np.random.default_rng(23)
        for trial in range(20):
            n = int(rng.integers(30, 400))
            p = int(rng.integers(1, 12))
            X, y = _rand_problem(rng, n, p)
            C = float(rng.choice([0.01, 0.1, 1.0, 10.0, 100.0]))
            _, _, iterations, converged = _minimize(X, y, C)
            assert converged and iterations <= 25, (trial, iterations)

    def test_matches_lbfgs_oracle(self, monkeypatch):
        # The default stop (gradient norm <= 1e-6 * n) bounds the gradient, not
        # the distance to the optimum, so both solvers run to a tight tolerance.
        monkeypatch.setattr(linear, "TOL_PER_EXAMPLE", 1e-12)
        rng = np.random.default_rng(20261017)
        for trial in range(10):
            n = int(rng.integers(40, 200))
            p = int(rng.integers(1, 9))
            X, y = _rand_problem(rng, n, p)
            C = float(rng.choice([0.1, 1.0, 10.0]))
            w, b, _, converged = _minimize(X, y, C)
            assert converged

            def f(theta):
                loss, gw, gb = logreg_loss_and_grad(theta[:-1], theta[-1], X, y, C)
                return loss, np.append(gw, gb)

            oracle = minimize(f, np.zeros(p + 1), jac=True, method="L-BFGS-B",
                              options={"ftol": 0.0, "gtol": 1e-10, "maxiter": 10_000})
            assert np.max(np.abs(np.append(w, b) - oracle.x)) < 1e-6, trial

    def test_collinear_demographics_with_zero_columns(self):
        course = _demographic_course()
        demo = demographic_dummies(course)
        y = course.certified
        # every dummy block sums to 1 per row, like the intercept column
        with_intercept = np.column_stack([demo, np.ones(len(demo))])
        assert np.linalg.matrix_rank(with_intercept) < with_intercept.shape[1]
        zero_cols = ~np.any(demo != 0.0, axis=0)
        assert zero_cols.any()
        w, _, iterations, converged = _minimize(demo, y, 1.0)
        assert converged and iterations <= 25
        assert np.all(w[zero_cols] == 0.0)


class TestPrediction:
    def test_probability_of_decision_value(self):
        m, labels = _labelled_matrix(np.array([[-1.0], [0.0], [2.0]]), [0, 0, 1])
        model = LinearModel(weights=np.eye(66)[0] * 3.0, intercept=-1.0, reg_C=1.0)
        scores = predict_proba(model, m)
        dv = m.values @ model.weights + model.intercept
        assert dv == pytest.approx([-4.0, -1.0, 5.0])
        assert scores.dtype == np.float64 and scores.shape == (m.n_rows,)
        assert scores == pytest.approx(expit(dv))

    def test_extreme_logits_stay_finite(self):
        m, _ = _labelled_matrix(np.array([[1e4], [-1e4]]), [1, 0])
        model = LinearModel(weights=np.eye(66)[0] * 50.0, intercept=0.0, reg_C=1.0)
        s = predict_proba(model, m)
        assert np.all(np.isfinite(s))
        assert s[0] == 1.0 and s[1] < 1e-300

    def test_sigmoid_matches_scipy_expit(self):
        z = np.linspace(-800.0, 800.0, 200_001)
        assert np.max(np.abs(_sigmoid(z) - expit(z))) <= 2.3e-16

    def test_sigmoid_never_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = _sigmoid(np.array([-1000.0, 1000.0]))
        assert s[0] == 0.0 and s[1] == 1.0

    def test_monotone_in_decision_value(self):
        rng = np.random.default_rng(11)
        vals = rng.standard_normal((30, 66))
        ids = tuple(f"q{i:03d}" for i in range(30))
        m = FeatureMatrix(ids, vals, LAUNCH)
        model = LinearModel(weights=rng.standard_normal(66), intercept=0.3, reg_C=1.0)
        dv = m.values @ model.weights + model.intercept
        s = predict_proba(model, m)
        assert np.array_equal(np.argsort(dv), np.argsort(s))

    def test_width_mismatch(self):
        model = LinearModel(weights=np.zeros(10), intercept=0.0, reg_C=1.0)
        m, _ = _labelled_matrix(np.array([[1.0]]), [1])
        with pytest.raises(SchemaMismatchError):
            predict_proba(model, m)


class TestAveraging:
    def _models(self, k, seed):
        rng = np.random.default_rng(seed)
        return [LinearModel(weights=rng.standard_normal(66),
                            intercept=float(rng.standard_normal()), reg_C=1.0)
                for _ in range(k)]

    def test_componentwise_mean(self):
        models = [
            LinearModel(weights=np.full(3, 1.0), intercept=1.0, reg_C=2.0),
            LinearModel(weights=np.full(3, 3.0), intercept=-1.0, reg_C=2.0),
        ]
        avg = average_hyperplanes(models)
        assert np.all(avg.weights == 2.0)
        assert avg.intercept == 0.0
        assert avg.reg_C == 2.0 and avg.norm is None

    def test_single_model_identity(self):
        (m,) = self._models(1, 5)
        avg = average_hyperplanes([m])
        assert np.array_equal(avg.weights, m.weights)
        assert avg.intercept == m.intercept

    def test_permutation_invariant_bitwise(self):
        models = self._models(7, 9)
        base = average_hyperplanes(models)
        rng = np.random.default_rng(1)
        for _ in range(20):
            order = rng.permutation(len(models))
            other = average_hyperplanes([models[i] for i in order])
            assert np.array_equal(other.weights, base.weights)
            assert other.intercept == base.intercept

    def test_opposite_models_cancel_exactly(self):
        (m,) = self._models(1, 13)
        neg = LinearModel(weights=-m.weights, intercept=-m.intercept, reg_C=1.0)
        avg = average_hyperplanes([m, neg])
        assert np.all(avg.weights == 0.0)
        assert avg.intercept == 0.0

    def test_empty_and_mismatched(self):
        with pytest.raises(EmptyListError):
            average_hyperplanes([])
        a = LinearModel(weights=np.zeros(3), intercept=0.0, reg_C=1.0)
        b = LinearModel(weights=np.zeros(4), intercept=0.0, reg_C=1.0)
        with pytest.raises(SchemaMismatchError):
            average_hyperplanes([a, b])


def _demographic_course(n=120, seed=0):
    """Gender correlates with certification; activity does not exist."""
    rng = np.random.default_rng(seed)
    meta = make_meta(course_id="DEMOx")
    students, grades = [], {}
    for i in range(n):
        sid = f"d{i:03d}"
        gender = "Female" if i % 2 == 0 else "Male"
        p = 0.8 if gender == "Female" else 0.2
        students.append(Student(sid, yob=1985, gender=gender))
        grades[sid] = 0.9 if rng.random() < p else 0.1
    return make_course(meta, students, [], grades)


class TestBaselines:
    def test_demographics_only_weights(self, tiny_course):
        model = baseline_demographics(_demographic_course())
        demo_cols = {i for b in DEMOGRAPHIC_BLOCKS for i in BLOCKS[b]}
        rest = [i for i in range(66) if i not in demo_cols]
        assert model.weights.shape == (66,)
        assert np.all(model.weights[rest] == 0.0)
        assert np.any(model.weights[list(demo_cols)] != 0.0)

    def test_demographics_signal_direction(self):
        course = _demographic_course()
        model = baseline_demographics(course)
        f = FEATURE_NAMES.index("gender_female")
        m_ = FEATURE_NAMES.index("gender_male")
        assert model.weights[f] > model.weights[m_]
        scores = score_demographics(model, course)
        assert scores.dtype == np.float64 and scores.shape == (course.n_students,)
        y = course.certified
        mean_pos = scores[y == 1].mean()
        mean_neg = scores[y == 0].mean()
        assert mean_pos > mean_neg

    def test_identical_demographics_identical_scores(self):
        meta = make_meta(course_id="SAMEx")
        students = [Student(f"u{i}", yob=1990, loe="Bachelor")
                    for i in range(6)]
        grades = {f"u{i}": (0.9 if i < 3 else 0.0) for i in range(6)}
        course = make_course(meta, students, [], grades)
        scores = score_demographics(baseline_demographics(course), course)
        assert np.all(scores == scores[0])

    def test_recency_ordering(self, tiny_course):
        m = build_matrix(tiny_course, day(12))
        scores = baseline_recency(m)
        assert scores.dtype == np.float64 and scores.shape == (m.n_rows,)
        by_id = dict(zip(m.student_ids, scores))  # one score per row, in row order
        # s00 acted on day 9, s01 on day 0, s02 never
        assert by_id["s00"] == -3.0
        assert by_id["s01"] == -12.0
        assert by_id["s02"] == -13.0
        assert by_id["s00"] > by_id["s01"] > by_id["s02"]


class TestModelSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        model = LinearModel(weights=rng.standard_normal(66), intercept=0.25,
                            reg_C=3.0)
        p = tmp_path / "model.json"
        save_model(model, p)
        back = load_model(p)
        assert np.array_equal(back.weights, model.weights)
        assert back.intercept == model.intercept
        assert back.reg_C == model.reg_C

    def test_round_trip_with_norm(self, tiny_course, tmp_path):
        m = build_matrix(tiny_course, day(9))
        stats = fit_zscore(m)
        z = apply_zscore(m, stats)
        model = train_logreg(z, tiny_course.certified, C=1.0, norm=stats)
        p = tmp_path / "model.json"
        save_model(model, p)
        back = load_model(p)
        assert back.norm is not None
        assert np.array_equal(apply_zscore(m, back.norm).values, z.values)
        assert np.array_equal(predict_proba(back, z), predict_proba(model, z))

    def test_schema_hash_guard(self, tmp_path):
        import json

        model = LinearModel(weights=np.zeros(66), intercept=0.0, reg_C=1.0)
        p = tmp_path / "model.json"
        save_model(model, p)
        doc = json.loads(p.read_text())
        doc["schema_hash"] = "0" * 64
        p.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatchError):
            load_model(p)

    def test_malformed_model_names_file(self, tmp_path):
        import json

        p = tmp_path / "model.json"
        save_model(LinearModel(weights=np.zeros(66), intercept=0.0, reg_C=1.0), p)
        doc = json.loads(p.read_text())
        del doc["weights"]
        p.write_text(json.dumps(doc))
        with pytest.raises(BadValueError, match="model.json: missing key 'weights'"):
            load_model(p)
        p.write_text("[1, 2]")
        with pytest.raises(BadValueError, match="model.json: 'list' object"):
            load_model(p)

    def test_norm_missing_key_names_file(self, tiny_course, tmp_path):
        import json

        m = build_matrix(tiny_course, day(9))
        stats = fit_zscore(m)
        model = train_logreg(apply_zscore(m, stats), tiny_course.certified, norm=stats)
        p = tmp_path / "model.json"
        save_model(model, p)
        doc = json.loads(p.read_text())
        del doc["norm"]["mean"]
        p.write_text(json.dumps(doc))
        with pytest.raises(BadValueError, match="model.json: zscore stats need 'mean'"):
            load_model(p)

    def test_hash_is_sha256_of_feature_names(self, tmp_path):
        import hashlib
        import json

        expected = hashlib.sha256("\n".join(FEATURE_NAMES).encode("utf-8")).hexdigest()
        assert SCHEMA_HASH == expected
        p = tmp_path / "model.json"
        save_model(LinearModel(weights=np.zeros(66), intercept=0.0, reg_C=1.0), p)
        assert json.loads(p.read_text())["schema_hash"] == expected

    def test_wrong_weight_count_names_file(self, tmp_path):
        import json

        p = tmp_path / "post_hoc.json"
        save_model(LinearModel(weights=np.zeros(66), intercept=0.0, reg_C=1.0), p)
        doc = json.loads(p.read_text())
        doc["weights"] = [0.0] * 10
        p.write_text(json.dumps(doc))
        with pytest.raises(BadValueError, match=r"post_hoc\.json: model has 10 weights"):
            load_model(p)

    @pytest.mark.parametrize("kind", ["zscore", "percentile"])
    def test_norm_checked_against_layout(self, tiny_course, tmp_path, kind):
        import json

        m = build_matrix(tiny_course, day(9))
        stats, (z,) = normalize(m, [m], kind)
        p = tmp_path / "model.json"
        save_model(train_logreg(z, tiny_course.certified, norm=stats), p)
        doc = json.loads(p.read_text())
        doc["norm"]["names"][0] = "age_unknown"
        p.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatchError, match=r"model\.json: normalization stats name"):
            load_model(p)
        doc["norm"]["names"] = list(FEATURE_NAMES)
        if kind == "zscore":
            doc["norm"]["std"] = doc["norm"]["std"][:-1]
            error, match = BadValueError, "zscore std must be 66 finite values"
        else:
            doc["norm"]["columns"] = list(range(32))
            error, match = SchemaMismatchError, "percentile columns must be"
        p.write_text(json.dumps(doc))
        with pytest.raises(error, match=rf"model\.json: {match}"):
            load_model(p)
