"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Each test prints "criterion N (<name>): PASS/FAIL <detail>" and then asserts,
so a -v run shows one verdict line per criterion. Tolerances and time budgets
are stated inline; fixtures shared between criteria are session-scoped.
"""

import datetime
import json
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from dropoutlab.cli import main as cli_main
from dropoutlab.dataset import (
    CourseData,
    SynthConfig,
    default_corpus_config,
    synthesize_corpus,
    synthesize_course,
)
from dropoutlab.deepnet import (
    MlpModel,
    grow_and_train,
    init_mlp,
    forward,
    net2deeper,
    net2wider,
    predict_scores,
    run_cell,
    train_sgd,
)
from dropoutlab.evaluate import auc_values
from dropoutlab.features import build_matrix, normalize
from dropoutlab.linear import _minimize, predict_proba, train_logreg
from dropoutlab.paradigms import (insitu_scores, proxy_labels, run_experiment, run_paradigm,
                                  week_date)
from dropoutlab.settings import GrowthPlan, SgdConfig

from conftest import batch_loss_and_grads, logreg_loss_and_grad


def _verdict(num, name, ok, detail=""):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}".rstrip()
    print(line)
    assert ok, line


# --------------------------------------------------------------------------
# criterion 1: rank-based AUC equals exhaustive pair counting
# --------------------------------------------------------------------------

def _pair_count_auc(scores, labels):
    """Quadratic oracle: count winning pairs, half credit for ties."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_criterion_1_auc_matches_pair_oracle():
    rng = np.random.default_rng(20260816)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 201))
        if rng.random() < 0.5:
            scores = rng.integers(0, 6, size=n).astype(float)  # heavy ties
        else:
            scores = rng.standard_normal(n)
        labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        diff = abs(auc_values(scores, labels) - _pair_count_auc(scores, labels))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    _verdict(1, "auc equals pair-count oracle",
             worst <= 1e-12 and elapsed < 10.0,
             f"max |diff| = {worst:.2e} over 500 instances in {elapsed:.2f}s")


# --------------------------------------------------------------------------
# criterion 2: growth operators preserve the network function
# --------------------------------------------------------------------------

def test_criterion_2_growth_preserves_function():
    rng = np.random.default_rng(99)
    t0 = time.perf_counter()
    worst_wide = 0.0
    worst_deep = 0.0
    for trial in range(50):
        p = int(rng.integers(4, 13))
        width = int(rng.integers(2, 11))
        teacher = init_mlp(p, [width], seed=int(rng.integers(1 << 30)))
        teacher = MlpModel(tuple(
            (W + 0.4 * rng.standard_normal(W.shape),
             b + 0.2 * rng.standard_normal(b.shape))
            for W, b in teacher.layers))
        X = rng.standard_normal((1000, p))
        base = forward(teacher, X)
        wider = net2wider(teacher, 0, width + int(rng.integers(0, 9)), seed=trial)
        worst_wide = max(worst_wide, float(np.max(np.abs(forward(wider, X) - base))))
        deeper = net2deeper(teacher, 0)
        worst_deep = max(worst_deep, float(np.max(np.abs(forward(deeper, X) - base))))
    elapsed = time.perf_counter() - t0
    _verdict(2, "net2wider/net2deeper preserve outputs",
             worst_wide <= 1e-8 and worst_deep <= 1e-12 and elapsed < 30.0,
             f"wider {worst_wide:.2e} (tol 1e-8), deeper {worst_deep:.2e} "
             f"(tol 1e-12), 50 teachers x 1000 inputs in {elapsed:.2f}s")


# --------------------------------------------------------------------------
# criterion 3: analytic gradients match central finite differences
# --------------------------------------------------------------------------

def _logreg_fd_error(rng):
    n = int(rng.integers(3, 26))
    p = int(rng.integers(1, 9))
    C = float(rng.choice([0.05, 1.0, 30.0]))
    X = rng.standard_normal((n, p))
    y = (rng.random(n) < 0.5).astype(float)
    w = rng.standard_normal(p)
    b = float(rng.standard_normal())
    _, gw, gb = logreg_loss_and_grad(w, b, X, y, C)
    ana = np.concatenate([gw, [gb]])
    num = np.zeros(p + 1)
    h = 1e-6
    for j in range(p):
        e = np.zeros(p)
        e[j] = h
        num[j] = (logreg_loss_and_grad(w + e, b, X, y, C)[0]
                  - logreg_loss_and_grad(w - e, b, X, y, C)[0]) / (2 * h)
    num[p] = (logreg_loss_and_grad(w, b + h, X, y, C)[0]
              - logreg_loss_and_grad(w, b - h, X, y, C)[0]) / (2 * h)
    return float(np.max(np.abs(ana - num)) / max(np.max(np.abs(num)), 1.0))


def _kink_safe(m, X, margin=1e-3):
    h = X
    for W, b in m.layers[:-1]:
        pre = h @ W + b
        if np.min(np.abs(pre)) < margin:
            return False
        h = np.maximum(pre, 0.0)
    return True


def _mlp_fd_error(rng):
    while True:
        depth = int(rng.integers(0, 3))
        widths = [int(rng.integers(2, 6)) for _ in range(depth)]
        p = int(rng.integers(2, 6))
        n = int(rng.integers(2, 9))
        net = init_mlp(p, widths, seed=int(rng.integers(1 << 30)))
        net = MlpModel(tuple((W * 1.7, b + 0.1 * rng.standard_normal(b.shape))
                             for W, b in net.layers))
        X = rng.standard_normal((n, p))
        if _kink_safe(net, X):
            break
    y = (rng.random(n) < 0.5).astype(float)
    _, grads = batch_loss_and_grads(net, X, y)
    h = 1e-5
    ana, num = [], []
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
                num.append((lp - lm) / (2 * h))
                ana.append(grads[li][arr_i][idx])
    ana = np.array(ana)
    num = np.array(num)
    return float(np.max(np.abs(ana - num)) / max(np.max(np.abs(num)), 1e-8))


def test_criterion_3_gradients_match_finite_differences():
    rng = np.random.default_rng(20260816)
    t0 = time.perf_counter()
    errs = [_logreg_fd_error(rng) for _ in range(60)]
    errs += [_mlp_fd_error(rng) for _ in range(60)]
    elapsed = time.perf_counter() - t0
    worst = max(errs)
    _verdict(3, "loss gradients vs central differences",
             worst <= 1e-4 and elapsed < 60.0,
             f"worst rel err {worst:.2e} over {len(errs)} configs in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 4: logistic regression equals a 0-hidden softmax network
# --------------------------------------------------------------------------

def test_criterion_4_logreg_agrees_with_softmax_net():
    course = synthesize_course(SynthConfig(course_id="FIXx", n_students=500), 4242)
    m = build_matrix(course, course.meta.t100_date)
    z = normalize(m, [m], "zscore")[1][0]
    yv = course.certified
    model = train_logreg(z, yv, C=1.0)
    a_lr = auc_values(predict_proba(model, z), yv)
    net = train_sgd(init_mlp(66, (), seed=0), z.values, yv, SgdConfig(seed=0))
    a_net = auc_values(predict_scores(net, z.values), yv)
    gap = abs(a_lr - a_net)
    _verdict(4, "logreg vs 0-hidden softmax net",
             gap <= 0.01,
             f"auc {a_lr:.4f} vs {a_net:.4f}, |gap| {gap:.2e} (tol 0.01)")


# --------------------------------------------------------------------------
# criteria 5 and 6 share one flagship experiment
# --------------------------------------------------------------------------

@pytest.fixture(scope="session")
def flagship_report():
    config = default_corpus_config(8, n_students=2000)
    t0 = time.perf_counter()
    corpus = synthesize_corpus(config, 42)
    report = run_experiment(
        corpus, ("post_hoc", "in_situ", "baseline1", "baseline2"))
    return report, time.perf_counter() - t0


def test_criterion_5_paradigm_ordering(flagship_report):
    report, elapsed = flagship_report
    means = {}
    for kind in ("post_hoc", "in_situ", "baseline1", "baseline2"):
        vals = [r.auc for r in report.rows if r.paradigm == kind]
        assert vals, kind
        means[kind] = float(np.mean(vals))
    ordered = (means["post_hoc"] > means["in_situ"]
               > means["baseline2"] > means["baseline1"])
    gap = means["post_hoc"] - means["baseline1"]
    _verdict(5, "paradigm ordering on 8x2000 corpus",
             ordered and gap >= 0.10 and elapsed < 600.0,
             f"post_hoc {means['post_hoc']:.4f} > in_situ {means['in_situ']:.4f} "
             f"> baseline2 {means['baseline2']:.4f} > baseline1 "
             f"{means['baseline1']:.4f}; spread {gap:.4f} (>= 0.10) "
             f"in {elapsed:.0f}s (< 600s)")


def test_criterion_6_post_hoc_improves_with_time(flagship_report):
    report, _ = flagship_report
    agg = [(a.week, a.mean_auc) for a in report.aggregates
           if a.paradigm == "post_hoc"]
    agg.sort()
    weeks = [w for w, _ in agg]
    aucs = [a for _, a in agg]
    rho = float(spearmanr(weeks, aucs).statistic)
    _verdict(6, "post_hoc weekly mean auc trends upward",
             len(weeks) >= 3 and rho > 0.0,
             f"spearman rho {rho:.3f} over weeks {weeks[0]}..{weeks[-1]}")


# --------------------------------------------------------------------------
# criterion 7: the live-course path cannot see certification labels
# --------------------------------------------------------------------------

def test_criterion_7_in_situ_blind_to_labels():
    course = synthesize_course(SynthConfig(course_id="BLNDx", n_students=400), 7)
    corrupted = CourseData(course.meta, course.roster, course.activity, 1.0 - course.final_grade)
    # insitu_scores is handed a snapshot and proxy labels, never a course with grades
    direct_a, direct_b = (insitu_scores(build_matrix(c, week_date(c.meta, -1)), proxy_labels(c, -1))
                          for c in (course, corrupted))
    via_a, _ = run_paradigm([course], "in_situ", "BLNDx", -1)
    via_b, _ = run_paradigm([corrupted], "in_situ", "BLNDx", -1)
    same = (np.array_equal(direct_a, direct_b) and np.array_equal(via_a, via_b)
            and np.array_equal(direct_a, via_a))
    _verdict(7, "in_situ scores invariant to corrupted grades",
             same, "bitwise-identical scores with every grade flipped")


# --------------------------------------------------------------------------
# criterion 8: the growth sweep (and what only depth can learn)
# --------------------------------------------------------------------------

def test_criterion_8_growth_sweep_and_xor():
    course = synthesize_course(SynthConfig(course_id="GRWx", n_students=160), 77)
    wd = course.meta.t100_date - datetime.timedelta(days=7)
    m = build_matrix(course, wd)
    z = normalize(m, [m], "zscore")[1][0]
    yv = course.certified
    rng = np.random.default_rng(5)
    order = rng.permutation(len(yv))
    te, tr = np.sort(order[:80]), np.sort(order[80:])
    cfg = SgdConfig(seed=5)
    report = grow_and_train(z.values[tr], yv[tr], z.values[te], yv[te],
                            GrowthPlan(), cfg)
    width_rows = [r for r in report.rows if r.phase == "width"]
    depth_rows = [r for r in report.rows if r.phase == "depth"]
    counts_ok = (len(width_rows) == 14 and len(depth_rows) == 9
                 and [r.w for r in width_rows] == list(range(2, 16))
                 and [r.h for r in depth_rows] == list(range(2, 11)))

    # every cell is re-runnable in isolation from its recorded seed
    r5 = next(r for r in width_rows if r.w == 5)
    models = {(r.phase, r.w, r.h): r.model for r in report.rows}
    rerun5 = run_cell(models[("width", 4, 1)], "width", 5,
                      z.values[tr], yv[tr], z.values[te], yv[te],
                      cfg, r5.seed)
    r7 = next(r for r in depth_rows if r.h == 7)
    rerun7 = run_cell(models[("depth", 5, 6)], "depth", 7,
                      z.values[tr], yv[tr], z.values[te], yv[te],
                      cfg, r7.seed)
    rerun_ok = (rerun5.auc == r5.auc and rerun5.accuracy == r5.accuracy
                and rerun7.auc == r7.auc and rerun7.accuracy == r7.accuracy)

    # depth earns its keep: a hidden layer solves XOR, the hyperplane cannot
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0.0, 1.0, 1.0, 0.0])
    xor_cfg = SgdConfig(learning_rate=0.5, epochs=500, minibatch_size=4, seed=0)
    net = train_sgd(init_mlp(2, [4], seed=0), X, y, xor_cfg)
    net_acc = float(np.mean((predict_scores(net, X) >= 0.5) == y))
    w, b, _, _ = _minimize(X, y, 1.0)
    lin_acc = float(np.mean(((X @ w + b) >= 0) == y))
    _verdict(8, "growth sweep shape, re-runnable cells, xor",
             counts_ok and rerun_ok and net_acc == 1.0 and lin_acc <= 0.75,
             f"14 width + 9 depth rows, two cells re-ran bitwise, "
             f"xor net acc {net_acc:.2f} vs linear {lin_acc:.2f}")


# --------------------------------------------------------------------------
# criterion 9: command-line runs are byte-deterministic
# --------------------------------------------------------------------------

def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_criterion_9_cli_byte_determinism(tmp_path):
    synth_a, synth_b = tmp_path / "synth_a", tmp_path / "synth_b"
    for out in (synth_a, synth_b):
        assert cli_main(["synth", "--out", str(out), "--courses", "3",
                         "--students", "150", "--seed", "42"]) == 0
    synth_same = _tree_bytes(synth_a) == _tree_bytes(synth_b)

    config = {"courses": [
        {"course_id": "RAx", "field": "STEM", "n_students": 250,
         "weeks_to_t100": 5, "weeks_total": 6},
        {"course_id": "RBx", "field": "STEM", "n_students": 220,
         "weeks_to_t100": 4, "weeks_total": 6},
        {"course_id": "RCx", "field": "Hum", "n_students": 240,
         "weeks_to_t100": 6, "weeks_total": 7},
        {"course_id": "RDx", "field": "Hum", "n_students": 260,
         "launch": "2014-02-03", "weeks_to_t100": 5, "weeks_total": 6},
    ]}
    (tmp_path / "config.json").write_text(json.dumps(config))
    manifest = {
        "master_seed": 99,
        "corpus_config_path": "config.json",
        "paradigms": ["post_hoc", "same_field", "multi_course", "in_situ",
                      "baseline1", "baseline2"],
        "reg_C": 1.0,
        "output_dir": "run1",
    }
    (tmp_path / "m1.json").write_text(json.dumps(manifest))
    manifest["output_dir"] = "run2"
    (tmp_path / "m2.json").write_text(json.dumps(manifest))
    manifest["output_dir"] = "run_par"
    (tmp_path / "m3.json").write_text(json.dumps(manifest))

    assert cli_main(["run", "--manifest", str(tmp_path / "m1.json")]) == 0
    assert cli_main(["run", "--manifest", str(tmp_path / "m2.json")]) == 0
    assert cli_main(["run", "--manifest", str(tmp_path / "m3.json"),
                     "--jobs", "4"]) == 0
    run1 = _tree_bytes(tmp_path / "run1")
    rerun_same = run1 == _tree_bytes(tmp_path / "run2")
    jobs_same = run1 == _tree_bytes(tmp_path / "run_par")
    rows = (tmp_path / "run1" / "rows.csv").read_text().splitlines()
    _verdict(9, "cmd_synth/cmd_run byte-identical across runs and jobs",
             synth_same and rerun_same and jobs_same and len(rows) > 1,
             f"synth x2 equal, run x2 equal, jobs 1 vs 4 equal "
             f"({len(rows) - 1} result rows)")
