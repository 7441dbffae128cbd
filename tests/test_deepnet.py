"""MLP forward/backward, SGD schedule, function-preserving growth, the sweep."""

import json
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from dropoutlab import deepnet
from dropoutlab.deepnet import (
    MlpModel,
    forward,
    grow_and_train,
    init_mlp,
    load_mlp,
    mlp_from_dict,
    mlp_to_dict,
    net2deeper,
    net2wider,
    predict_scores,
    run_cell,
    save_mlp,
    train_sgd,
    write_growth_csv,
)
from dropoutlab.errors import (
    BadConfigError,
    BadLayerError,
    BadShapeError,
    BadValueError,
    NonFiniteLossError,
    SchemaMismatchError,
    ShrinkNotAllowedError,
    SingleClassError,
)
from dropoutlab.evaluate import auc_values
from dropoutlab.settings import GrowthPlan, SgdConfig

from conftest import batch_loss_and_grads


def dataset_loss(m, X, y):
    """Mean cross-entropy over a whole dataset, as one batch."""
    loss, _ = batch_loss_and_grads(m, X, y)
    return loss


def reference_sgd(m, X, y, cfg):
    """Minibatch SGD written out as SgdConfig documents it: each epoch draws one
    permutation from default_rng(cfg.seed), batches of minibatch_size rows follow
    it with a short remainder batch, and update k (from 0) steps by
    lr_k = learning_rate * (1 + anneal) ** -k times the batch gradient.

    Returns the trained network and the size of every batch, in update order.
    """
    rng = np.random.default_rng(cfg.seed)
    layers = [(W.copy(), b.copy()) for W, b in m.layers]
    sizes = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(X))
        for start in range(0, len(X), cfg.minibatch_size):
            batch = order[start:start + cfg.minibatch_size]
            _, grads = batch_loss_and_grads(MlpModel(tuple(layers)), X[batch], y[batch])
            lr = cfg.learning_rate * (1.0 + cfg.anneal) ** (-len(sizes))
            layers = [(W - lr * gW, b - lr * gb) for (W, b), (gW, gb) in zip(layers, grads)]
            sizes.append(len(batch))
    return MlpModel(tuple(layers)), sizes


def _toy_data(rng, n=40, p=6):
    X = rng.standard_normal((n, p))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(float)
    if y.min() == y.max():
        y[0] = 1.0 - y[0]
    return X, y


class TestInit:
    def test_shapes(self):
        m = init_mlp(6, [4, 3], seed=0)
        assert [W.shape for W, _ in m.layers] == [(6, 4), (4, 3), (3, 2)]
        assert all(np.all(b == 0.0) for _, b in m.layers)
        assert m.input_dim == 6 and m.hidden_widths == (4, 3) and m.n_hidden == 2

    def test_softmax_only(self):
        m = init_mlp(5, (), seed=0)
        assert [W.shape for W, _ in m.layers] == [(5, 2)]
        assert m.n_hidden == 0
        a = np.sqrt(6.0 / 7.0)
        assert m.layers[0][0].tobytes() == np.random.default_rng(0).uniform(-a, a, (5, 2)).tobytes()

    def test_seed_determinism(self):
        a = init_mlp(6, [4], seed=9)
        b = init_mlp(6, [4], seed=9)
        c = init_mlp(6, [4], seed=10)
        assert np.array_equal(a.layers[0][0], b.layers[0][0])
        assert not np.array_equal(a.layers[0][0], c.layers[0][0])

    def test_glorot_bounds(self):
        m = init_mlp(30, [20], seed=1)
        W = m.layers[0][0]
        limit = np.sqrt(6.0 / (30 + 20))
        assert np.max(np.abs(W)) <= limit
        assert np.max(np.abs(W)) > 0.5 * limit  # actually spread out

    def test_output_width_is_two(self):
        with pytest.raises(BadShapeError):
            MlpModel(((np.zeros((4, 3)), np.zeros(3)),))


class TestForward:
    def test_zero_weights_give_uniform(self):
        m = MlpModel(((np.zeros((3, 2)), np.zeros(2)),))
        probs = forward(m, np.ones((5, 3)))
        assert probs == pytest.approx(np.full((5, 2), 0.5))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        m = init_mlp(6, [5, 4], seed=3)
        probs = forward(m, rng.standard_normal((20, 6)))
        assert probs.shape == (20, 2)
        assert probs.sum(axis=1) == pytest.approx(np.ones(20), abs=1e-12)
        assert probs.min() >= 0.0

    def test_large_logits_stable(self):
        m = MlpModel(((np.array([[1000.0, -1000.0]]), np.zeros(2)),))
        probs = forward(m, np.array([[1.0], [-1.0]]))
        assert np.all(np.isfinite(probs))
        assert probs[0, 0] == pytest.approx(1.0)

    def test_score_is_positive_class_probability(self):
        rng = np.random.default_rng(2)
        m = init_mlp(4, [3], seed=4)
        X = rng.standard_normal((10, 4))
        assert np.array_equal(predict_scores(m, X), forward(m, X)[:, 1])

    def test_width_mismatch(self):
        m = init_mlp(4, [3], seed=0)
        with pytest.raises(SchemaMismatchError):
            forward(m, np.zeros((2, 5)))


def _relu_kink_safe(m, X, margin=1e-3):
    """True when no hidden pre-activation sits within margin of zero."""
    h = X
    for W, b in m.layers[:-1]:
        pre = h @ W + b
        if np.min(np.abs(pre)) < margin:
            return False
        h = np.maximum(pre, 0.0)
    return True


class TestBackprop:
    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(20260816)
        h = 1e-5
        checked = 0
        while checked < 100:
            depth = int(rng.integers(0, 3))
            widths = [int(rng.integers(2, 6)) for _ in range(depth)]
            p = int(rng.integers(2, 6))
            n = int(rng.integers(2, 9))
            net = init_mlp(p, widths, seed=int(rng.integers(1 << 30)))
            # nudge weights away from zero so ReLU kinks stay distant
            net = MlpModel(tuple(
                (W * 1.7, b + 0.1 * rng.standard_normal(b.shape))
                for W, b in net.layers))
            X = rng.standard_normal((n, p))
            y = (rng.random(n) < 0.5).astype(float)
            if not _relu_kink_safe(net, X):
                continue
            _, grads = batch_loss_and_grads(net, X, y)
            flat_ana, flat_num = [], []
            for li, (W, b) in enumerate(net.layers):
                for arr_i, arr in ((0, W), (1, b)):
                    it = np.nditer(arr, flags=["multi_index"])
                    for _ in it:
                        idx = it.multi_index
                        orig = arr[idx]
                        arr[idx] = orig + h
                        lp, _ = batch_loss_and_grads(net, X, y)
                        arr[idx] = orig - h
                        lm, _ = batch_loss_and_grads(net, X, y)
                        arr[idx] = orig
                        flat_num.append((lp - lm) / (2 * h))
                        flat_ana.append(grads[li][arr_i][idx])
            flat_ana = np.array(flat_ana)
            flat_num = np.array(flat_num)
            scale = max(float(np.max(np.abs(flat_num))), 1e-8)
            assert np.max(np.abs(flat_ana - flat_num)) / scale < 1e-4
            checked += 1

    def test_loss_decreases_on_toy_problem(self):
        rng = np.random.default_rng(5)
        X, y = _toy_data(rng, n=60)
        net = init_mlp(6, [8], seed=1)
        trained = train_sgd(net, X, y, SgdConfig(epochs=10, seed=1))
        one_epoch = train_sgd(net, X, y, SgdConfig(epochs=1, seed=1))
        loss = dataset_loss(trained, X, y)
        assert loss < dataset_loss(net, X, y)
        assert loss < dataset_loss(one_epoch, X, y)


class TestSgd:
    def test_defaults(self):
        cfg = SgdConfig()
        assert (cfg.learning_rate, cfg.epochs, cfg.minibatch_size) == (0.1, 20, 10)
        assert cfg.anneal == 1e-3

    def test_config_validation(self):
        with pytest.raises(BadConfigError):
            SgdConfig(epochs=0)
        with pytest.raises(BadConfigError):
            SgdConfig(minibatch_size=0)
        with pytest.raises(BadConfigError):
            SgdConfig(learning_rate=-0.1)
        for field in ("learning_rate", "anneal"):
            for value in (np.inf, np.nan):
                with pytest.raises(BadConfigError, match=field):
                    SgdConfig(**{field: value})
        # one update rule: no momentum, no class weighting
        for field, value in (("momentum", 0.9), ("class_weighting", True)):
            with pytest.raises(TypeError, match=field):
                SgdConfig(**{field: value})

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(6)
        X, y = _toy_data(rng)
        net = init_mlp(6, [5], seed=2)
        a = train_sgd(net, X, y, SgdConfig(epochs=3, seed=11))
        b = train_sgd(net, X, y, SgdConfig(epochs=3, seed=11))
        c = train_sgd(net, X, y, SgdConfig(epochs=3, seed=12))
        for (Wa, ba), (Wb, bb) in zip(a.layers, b.layers):
            assert np.array_equal(Wa, Wb) and np.array_equal(ba, bb)
        assert any(not np.array_equal(Wa, Wc)
                   for (Wa, _), (Wc, _) in zip(a.layers, c.layers))

    def test_teacher_unchanged_by_training(self):
        rng = np.random.default_rng(13)
        X, y = _toy_data(rng)
        net = init_mlp(6, [5], seed=2)
        before = [(W.copy(), b.copy()) for W, b in net.layers]
        train_sgd(net, X, y, SgdConfig(epochs=2, seed=0))
        for (W0, b0), (W1, b1) in zip(before, net.layers):
            assert np.array_equal(W0, W1) and np.array_equal(b0, b1)

    def test_matches_reference_loop_bitwise(self):
        rng = np.random.default_rng(8)
        X, y = _toy_data(rng, n=25)
        cfg = SgdConfig(epochs=3, minibatch_size=10, anneal=1e-3, seed=0)
        net = init_mlp(6, [4], seed=0)
        expect, sizes = reference_sgd(net, X, y, cfg)
        assert sizes == [10, 10, 5] * 3  # ceil(25/10) = 3 updates per epoch
        got = train_sgd(net, X, y, cfg)
        for (W, b), (We, be) in zip(got.layers, expect.layers):
            assert W.tobytes() == We.tobytes() and b.tobytes() == be.tobytes()

    @pytest.mark.parametrize("anneal", [0.0, 1e-3])
    @pytest.mark.parametrize("minibatch_size", [1, 7, 40])
    @pytest.mark.parametrize("widths", [[], [4], [4, 3, 5, 4]], ids=["h0", "h1", "h4"])
    def test_every_config_path_matches_reference(self, widths, minibatch_size, anneal):
        rng = np.random.default_rng(8)
        X, y = _toy_data(rng, n=25)
        cfg = SgdConfig(epochs=2, minibatch_size=minibatch_size, anneal=anneal, seed=3)
        net = init_mlp(6, widths, seed=0)
        before = [(W.tobytes(), b.tobytes()) for W, b in net.layers]
        expect, sizes = reference_sgd(net, X, y, cfg)
        assert len(sizes) == 2 * -(-25 // minibatch_size)
        got = train_sgd(net, X, y, cfg)
        for (W, b), (We, be) in zip(got.layers, expect.layers):
            assert W.tobytes() == We.tobytes() and b.tobytes() == be.tobytes()
        assert [(W.tobytes(), b.tobytes()) for W, b in net.layers] == before

    @pytest.mark.parametrize("bad", [2.0, 0.5, -1.0, np.nan])
    def test_labels_outside_zero_one_rejected(self, bad):
        rng = np.random.default_rng(8)
        X, y = _toy_data(rng, n=25)
        y[3] = bad
        with pytest.raises(BadValueError, match="labels must be 0 or 1"):
            train_sgd(init_mlp(6, [4], seed=0), X, y, SgdConfig(epochs=1))

    def test_divergence_reported_at_its_update(self):
        rng = np.random.default_rng(8)
        X, y = _toy_data(rng, n=25)
        cfg = SgdConfig(learning_rate=1e10, epochs=2, seed=0)
        with pytest.raises(NonFiniteLossError, match=r"diverged at update 1$"):
            train_sgd(init_mlp(6, [4], seed=0), X * 1e200, y, cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_feature_rejected_before_training(self, bad):
        rng = np.random.default_rng(8)
        X, y = _toy_data(rng, n=20)
        X[13, 4] = bad
        with pytest.raises(BadValueError, match=rf"training row 13, column 4: feature {bad} is not finite"):
            train_sgd(init_mlp(6, [4], seed=0), X, y, SgdConfig(epochs=1, seed=0))

    def test_single_class_rejected(self):
        X = np.zeros((4, 3))
        with pytest.raises(SingleClassError):
            train_sgd(init_mlp(3, [2], seed=0), X, np.ones(4), SgdConfig())



class TestNet2Wider:
    def test_function_preserved(self):
        rng = np.random.default_rng(20260816)
        for trial in range(30):
            m = init_mlp(5, [int(rng.integers(2, 7))], seed=int(rng.integers(1 << 30)))
            m = MlpModel(tuple((W + 0.3 * rng.standard_normal(W.shape), b)
                               for W, b in m.layers))
            wider = net2wider(m, 0, int(m.hidden_widths[0] + rng.integers(0, 6)),
                              seed=trial)
            X = rng.standard_normal((40, 5))
            assert np.max(np.abs(forward(wider, X) - forward(m, X))) < 1e-8

    def test_same_width_is_identity(self):
        m = init_mlp(4, [3], seed=5)
        same = net2wider(m, 0, 3, seed=0)
        for (Wa, ba), (Wb, bb) in zip(m.layers, same.layers):
            assert np.array_equal(Wa, Wb) and np.array_equal(ba, bb)

    def test_replicated_unit_outgoing_split(self):
        # deterministic check: force both new slots to copy unit 0
        W_in = np.array([[1.0, 2.0]])
        b_in = np.array([0.5, -0.5])
        W_out = np.array([[3.0, -3.0], [1.0, 1.0]])
        m = MlpModel(((W_in, b_in), (W_out, np.zeros(2))))
        for seed in range(50):
            wider = net2wider(m, 0, 4, seed=seed)
            mapping_cols = wider.layers[0][0][0]
            counts = {v: list(mapping_cols).count(v) for v in (1.0, 2.0)}
            src_rows = wider.layers[1][0]
            for j, col in enumerate(mapping_cols):
                src = 0 if col == 1.0 else 1
                assert src_rows[j] == pytest.approx(W_out[src] / counts[col])

    def test_shrink_rejected(self):
        m = init_mlp(4, [5], seed=0)
        with pytest.raises(ShrinkNotAllowedError):
            net2wider(m, 0, 4, seed=0)

    def test_output_layer_rejected(self):
        m = init_mlp(4, [5], seed=0)
        with pytest.raises(BadLayerError):
            net2wider(m, 1, 9, seed=0)
        with pytest.raises(BadLayerError):
            net2wider(m, -1, 9, seed=0)

    def test_seeded_mapping_reproducible(self):
        m = init_mlp(4, [3], seed=7)
        a = net2wider(m, 0, 8, seed=42)
        b = net2wider(m, 0, 8, seed=42)
        assert np.array_equal(a.layers[0][0], b.layers[0][0])


class TestNet2Deeper:
    def test_function_preserved_exactly(self):
        rng = np.random.default_rng(20260816)
        for trial in range(30):
            m = init_mlp(5, [4], seed=trial)
            m = MlpModel(tuple((W + 0.3 * rng.standard_normal(W.shape), b)
                               for W, b in m.layers))
            deeper = net2deeper(m, 0)
            X = rng.standard_normal((40, 5))
            assert np.max(np.abs(forward(deeper, X) - forward(m, X))) < 1e-12

    def test_inserted_layer_is_identity(self):
        m = init_mlp(3, [4], seed=0)
        deeper = net2deeper(m, 0)
        W, b = deeper.layers[1]
        assert np.array_equal(W, np.eye(4)) and np.all(b == 0.0)
        assert deeper.n_hidden == 2

    def test_composes(self):
        rng = np.random.default_rng(1)
        m = init_mlp(5, [4], seed=3)
        m = MlpModel(tuple((W + 0.2 * rng.standard_normal(W.shape), b)
                           for W, b in m.layers))
        deeper2 = net2deeper(net2deeper(m, 0), 1)
        assert deeper2.n_hidden == 3
        X = rng.standard_normal((20, 5))
        assert np.max(np.abs(forward(deeper2, X) - forward(m, X))) < 1e-12

    def test_bad_positions_rejected(self):
        m = init_mlp(3, [4], seed=0)
        with pytest.raises(BadLayerError):
            net2deeper(m, 1)  # after the softmax layer
        with pytest.raises(BadLayerError):
            net2deeper(m, -1)
        with pytest.raises(BadLayerError):
            net2deeper(init_mlp(3, (), seed=0), 0)  # nothing hidden to deepen


@pytest.fixture(scope="module")
def sweep():
    rng = np.random.default_rng(14)
    X, y = _toy_data(rng, n=80)
    Xt, yt = _toy_data(rng, n=40)
    plan = GrowthPlan(width_from=2, width_to=4, depth_from=2, depth_to=3, fixed_width=3)
    cfg = SgdConfig(epochs=3, seed=77)
    return grow_and_train(X, y, Xt, yt, plan, cfg), (X, y, Xt, yt, cfg)


class TestGrowthSweep:
    def test_row_accounting(self, sweep):
        report, _ = sweep
        phases = [r.phase for r in report.rows]
        assert phases == ["baseline", "width", "width", "width", "depth", "depth"]
        assert [(r.w, r.h) for r in report.rows] == [
            (0, 0), (2, 1), (3, 1), (4, 1), (3, 2), (3, 3)]

    def test_default_plan_row_count(self):
        plan = GrowthPlan()
        assert (plan.width_from, plan.width_to) == (2, 15)  # 14 widths
        assert (plan.depth_from, plan.depth_to) == (2, 10)  # 9 depths
        assert plan.fixed_width == 5

    def test_cells_rerun_from_recorded_seed(self, sweep):
        report, (X, y, Xt, yt, cfg) = sweep
        # width cell w=3 re-run in isolation: teacher is the trained w=2 model
        models = {(r.phase, r.w, r.h): r.model for r in report.rows}
        row3 = next(r for r in report.rows if r.phase == "width" and r.w == 3)
        rerun = run_cell(models[("width", 2, 1)], "width", 3, X, y, Xt, yt, cfg, row3.seed)
        assert rerun.auc == row3.auc
        assert rerun.accuracy == row3.accuracy
        # depth cell h=3 from the trained h=2 model
        rowd = next(r for r in report.rows if r.phase == "depth" and r.h == 3)
        rerun = run_cell(models[("depth", 3, 2)], "depth", 3, X, y, Xt, yt, cfg, rowd.seed)
        assert rerun.auc == rowd.auc
        assert (rerun.w, rerun.h) == (rowd.w, rowd.h) == (3, 3)

    def test_depth_cell_without_teacher_rejected(self, sweep):
        _, (X, y, Xt, yt, cfg) = sweep
        with pytest.raises(BadConfigError, match="teacher"):
            run_cell(None, "depth", 2, X, y, Xt, yt, cfg, 5)

    def test_seeds_distinct_across_cells(self, sweep):
        report, _ = sweep
        seeds = [r.seed for r in report.rows]
        assert len(set(seeds)) == len(seeds)

    def test_best_model_matches_best_row(self, sweep):
        report, (_, _, Xt, yt, _) = sweep
        best = report.best()
        assert best.auc == max(r.auc for r in report.rows)
        assert auc_values(predict_scores(best.model, Xt), yt) == best.auc
        for r in report.rows:  # each row carries the network it measured
            assert (max(r.model.hidden_widths, default=0), r.model.n_hidden) == (r.w, r.h)

    def test_fixed_width_outside_sweep(self):
        rng = np.random.default_rng(15)
        X, y = _toy_data(rng, n=50)
        plan = GrowthPlan(width_from=2, width_to=3, depth_from=2, depth_to=2, fixed_width=6)
        report = grow_and_train(X, y, X, y, plan, SgdConfig(epochs=2, seed=5))
        assert [(r.phase, r.w, r.h) for r in report.rows] == [
            ("baseline", 0, 0), ("width", 2, 1), ("width", 3, 1), ("depth", 6, 2)]

    def test_depth_from_above_two_deepens_the_anchor(self):
        rng = np.random.default_rng(16)
        X, y = _toy_data(rng, n=50)
        plan = GrowthPlan(width_from=2, width_to=3, depth_from=4, depth_to=5, fixed_width=3)
        report = grow_and_train(X, y, X, y, plan, SgdConfig(epochs=2, seed=5))
        assert [(r.phase, r.w, r.h) for r in report.rows][-2:] == [("depth", 3, 4), ("depth", 3, 5)]
        with pytest.raises(BadConfigError, match="h=2 needs a teacher with fewer hidden layers"):
            run_cell(report.rows[-2].model, "depth", 2, X, y, X, y, SgdConfig(epochs=1), 0)

    @pytest.mark.parametrize("fields,named", [
        ({"width_from": 0}, "width_from <= width_to, got 0 and 15"),
        ({"width_from": 5, "width_to": 3}, "width_from <= width_to, got 5 and 3"),
        ({"depth_from": 1}, "2 <= depth_from <= depth_to, got 1 and 10"),
        ({"depth_from": 4, "depth_to": 3}, "depth_from <= depth_to, got 4 and 3"),
        ({"fixed_width": 0}, "fixed_width 0 must be >= 1"),
    ])
    def test_plan_rejects_bad_ranges(self, fields, named):
        with pytest.raises(BadConfigError, match=re.escape(named)):
            GrowthPlan(**fields)

    def test_csv_shape(self, sweep, tmp_path):
        report, _ = sweep
        p = tmp_path / "growth.csv"
        write_growth_csv(report, p)
        lines = p.read_bytes().decode().splitlines()
        assert lines[0] == "phase,w,h,auc,accuracy,train_seconds,seed"
        assert len(lines) == 1 + len(report.rows)


# A sweep whose depth chain starts from a width cell, and one whose fixed_width
# lies outside the width range, so that the depth chain starts from a standalone anchor.
_INSIDE = GrowthPlan(width_from=2, width_to=4, depth_from=2, depth_to=3, fixed_width=3)
_OUTSIDE = GrowthPlan(width_from=2, width_to=3, depth_from=2, depth_to=3, fixed_width=6)


@pytest.fixture
def cells(monkeypatch, tmp_path):
    """run_cell wrapped so that each cell writes its process id to a file named
    "phase-value", and the cells in the returned dict fail: "diverge" trains on
    features too large for the learning rate, any other text raises a
    NonFiniteLossError with that text. A forked worker inherits the wrapper."""
    run, failing = deepnet.run_cell, {}

    def cell(teacher, phase, value, X_train, y_train, X_test, y_test, cfg, seed):
        (tmp_path / f"{phase}-{value}").write_text(str(os.getpid()))
        how = failing.get((phase, value))
        if how == "diverge":
            X_train, cfg = X_train * 1e200, replace(cfg, learning_rate=1e10)
        elif how is not None:
            raise NonFiniteLossError(how)
        return run(teacher, phase, value, X_train, y_train, X_test, y_test, cfg, seed)

    monkeypatch.setattr(deepnet, "run_cell", cell)
    return failing


def _pids(tmp_path) -> dict[str, int]:
    return {p.name: int(p.read_text()) for p in tmp_path.iterdir()}


def _sweep_on(monkeypatch, cores, plan):
    monkeypatch.setattr(deepnet, "usable_cores", lambda: cores)
    rng = np.random.default_rng(14)
    X, y = _toy_data(rng, n=80)
    Xt, yt = _toy_data(rng, n=40)
    return grow_and_train(X, y, Xt, yt, plan, SgdConfig(epochs=3, seed=77))


class TestDepthChainBeside:
    """With two or more usable cores the depth chain trains in one forked worker
    while this process trains the baseline and the rest of the width chain."""

    @pytest.mark.parametrize("plan", [_INSIDE, _OUTSIDE], ids=["inside", "outside"])
    def test_rows_and_models_do_not_depend_on_the_core_count(self, monkeypatch, plan):
        found = {}
        for cores in (1, 2):
            found[cores] = [
                (r.phase, r.w, r.h, r.auc, r.accuracy, r.seed,
                 [(W.tobytes(), b.tobytes()) for W, b in r.model.layers])
                for r in _sweep_on(monkeypatch, cores, plan).rows]
        assert found[1] == found[2]
        assert [row[0] for row in found[1]].count("depth") == 2

    @pytest.mark.parametrize("plan", [_INSIDE, _OUTSIDE], ids=["inside", "outside"])
    def test_one_worker_trains_the_depth_chain_and_is_joined(self, monkeypatch, tmp_path,
                                                             cells, plan):
        for cores in (1, 2):
            _sweep_on(monkeypatch, cores, plan)
            pids = _pids(tmp_path)
            depth = {pid for name, pid in pids.items() if name.startswith("depth")}
            assert {pid for name, pid in pids.items() if not name.startswith("depth")} == {
                os.getpid()}
            assert len(depth) == 1 and (depth == {os.getpid()}) == (cores == 1)
            if cores == 2:
                with pytest.raises(ProcessLookupError):
                    os.kill(depth.pop(), 0)

    def test_diverging_depth_cell_raises_through_the_worker(self, monkeypatch, tmp_path, cells):
        cells[("depth", 3)] = "diverge"
        raised = {}
        for cores in (1, 2):
            with pytest.raises(NonFiniteLossError, match=r"^training loss diverged at update \d+$") as e:
                _sweep_on(monkeypatch, cores, _INSIDE)
            raised[cores] = str(e.value)
            worker = _pids(tmp_path)["depth-3"]
            assert (worker == os.getpid()) == (cores == 1)
            if cores == 2:
                with pytest.raises(ProcessLookupError):
                    os.kill(worker, 0)
        assert raised[1] == raised[2]

    @pytest.mark.parametrize("plan,failing,wins", [
        (_INSIDE, [("width", 4), ("depth", 3)], ("width", 4)),  # the two chains at once
        (_INSIDE, [("depth", 2), ("width", 2)], ("width", 2)),  # the depth chain never starts
        (_INSIDE, [("width", 3), ("baseline", 0)], ("baseline", 0)),  # trained after width 3
        (_OUTSIDE, [("width", 6), ("width", 3)], ("width", 3)),  # the anchor comes last
        (_OUTSIDE, [("depth", 2), ("width", 2)], ("width", 2)),
    ])
    def test_error_of_the_first_failing_row_wins(self, monkeypatch, cells, plan, failing, wins):
        cells.update({cell: f"{cell[0]} {cell[1]} failed" for cell in failing})
        for cores in (1, 2):
            with pytest.raises(NonFiniteLossError, match=f"^{wins[0]} {wins[1]} failed$"):
                _sweep_on(monkeypatch, cores, plan)


class TestXor:
    def test_one_hidden_layer_solves_xor(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        cfg = SgdConfig(learning_rate=0.5, epochs=500, minibatch_size=4,
                        anneal=1e-3, seed=0)
        net = train_sgd(init_mlp(2, [4], seed=0), X, y, cfg)
        scores = predict_scores(net, X)
        acc = float(np.mean((scores >= 0.5) == y))
        assert acc == 1.0

    def test_linear_model_cannot(self):
        from dropoutlab.linear import _minimize

        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        w, b, _, _ = _minimize(X, y, 1.0)
        preds = (X @ w + b >= 0).astype(float)
        assert float(np.mean(preds == y)) <= 0.75


class TestMlpSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        m = init_mlp(6, [5, 4], seed=8)
        m = MlpModel(tuple((W + rng.standard_normal(W.shape), b + 1.0)
                           for W, b in m.layers))
        p = tmp_path / "net.json"
        save_mlp(m, p)
        back = load_mlp(p)
        X = rng.standard_normal((10, 6))
        assert np.array_equal(forward(back, X), forward(m, X))
        for (Wa, ba), (Wb, bb) in zip(m.layers, back.layers):
            assert np.array_equal(Wa, Wb) and np.array_equal(ba, bb)

    def test_short_layer_names_file(self, tmp_path):
        p = tmp_path / "net.json"
        save_mlp(init_mlp(6, [5], seed=8), p)
        doc = json.loads(p.read_text())
        del doc["layers"][1]["weights"][-1]
        p.write_text(json.dumps(doc))
        with pytest.raises(BadValueError,
                           match=rf"{re.escape(str(p))}: layer 1: 9 weights do not fill the shape \(5, 2\)"):
            load_mlp(p)

    def test_missing_layers_names_file(self, tmp_path):
        p = tmp_path / "net.json"
        p.write_text(json.dumps({"shape": [6, 2]}))
        with pytest.raises(BadValueError, match=rf"{re.escape(str(p))}: missing key 'layers'"):
            load_mlp(p)

    def test_short_bias_names_file(self, tmp_path):
        p = tmp_path / "net.json"
        save_mlp(init_mlp(3, [2], seed=8), p)
        doc = json.loads(p.read_text())
        del doc["layers"][0]["bias"][-1]
        p.write_text(json.dumps(doc))
        with pytest.raises(BadValueError,
                           match=rf"{re.escape(str(p))}: layer 0: weight \(3, 2\) and bias \(1,\)"):
            load_mlp(p)

    def test_dict_form_row_major(self):
        W = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        m = MlpModel(((W, np.zeros(2)),))
        doc = mlp_to_dict(m)
        assert doc["layers"][0]["weights"] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert mlp_from_dict(doc).layers[0][0].tolist() == W.tolist()
