"""Command-line front end: synth, features, train, run, grow, report.

Exit codes: 0 success, 1 runtime failure, 2 usage error. The DROPOUTLAB_SEED
environment variable, which must be an integer, overrides the default --seed
of every subcommand; an explicit flag wins over both.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from pathlib import Path

import numpy as np

from .dataset import (
    CorpusConfig,
    corpus_config_from_dict,
    corpus_config_to_dict,
    default_corpus_config,
    derive_labels,
    load_course_dir,
    synthesize_corpus,
    write_course,
)
from .deepnet import GrowthPlan, SgdConfig, grow_and_train, save_mlp, write_growth_csv
from .errors import BadConfigError, DropoutLabError
from .evaluate import auc_values, emit_report, EvalReport, EvalRow
from .features import (
    apply_percentile,
    apply_zscore,
    build_matrix,
    fit_percentile,
    fit_zscore,
    save_norm_stats,
    write_matrix,
)
from .linear import baseline_demographics, predict_proba, save_model, train_logreg
from .paradigms import PARADIGMS, run_experiment, week_date


def _seed(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer (from --seed or DROPOUTLAB_SEED)") from None


def _positive_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {v}")
    return v


def _positive_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if v <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {v}")
    return v


def _iso_date(text: str) -> datetime.date:
    try:
        return datetime.date.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a YYYY-MM-DD date") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dropoutlab",
        description="Synthetic MOOC dropout-prediction lab: generate courses, "
        "extract features, train classifiers, run paradigm experiments, and "
        "grow networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    env_seed = os.environ.get("DROPOUTLAB_SEED", "0")  # argparse applies _seed if --seed is absent
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("synth", formatter_class=fmt,
                       help="generate a synthetic corpus as CSV course directories")
    p.add_argument("--config", type=Path, default=None,
                   help="corpus config JSON (default: built-in 4-course corpus)")
    p.add_argument("--courses", type=_positive_int, default=4,
                   help="course count for the built-in config (ignored with --config)")
    p.add_argument("--students", type=_positive_int, default=400,
                   help="students per course for the built-in config")
    p.add_argument("--seed", type=_seed, default=env_seed,
                   help="master seed (env DROPOUTLAB_SEED overrides this default)")
    p.add_argument("--out", type=Path, required=True, help="output directory")

    p = sub.add_parser("features", formatter_class=fmt,
                       help="extract a normalized feature matrix for one course")
    p.add_argument("--course-dir", type=Path, required=True,
                   help="directory with the four course CSV files")
    when = p.add_mutually_exclusive_group()
    when.add_argument("--week", type=int, default=0,
                      help="week index, 0 = full-points date, negative = weeks earlier")
    when.add_argument("--as-of", type=_iso_date, default=None,
                      help="explicit snapshot date (YYYY-MM-DD)")
    p.add_argument("--norm", choices=("zscore", "percentile", "none"), default="zscore",
                   help="normalization fit on this matrix")
    p.add_argument("--out", type=Path, required=True, help="matrix CSV path")
    p.add_argument("--stats-out", type=Path, default=None,
                   help="normalization stats JSON (default: <out>.norm.json)")

    p = sub.add_parser("train", formatter_class=fmt,
                       help="train a logistic model on one course")
    p.add_argument("--course-dir", type=Path, required=True)
    p.add_argument("--week", type=int, default=0, help="week index, 0 = full-points date, negative = weeks earlier")
    p.add_argument("--kind", choices=("post_hoc", "baseline1"), default="post_hoc",
                   help="post_hoc: full features; baseline1: demographics only")
    p.add_argument("--reg-c", type=_positive_float, default=1.0,
                   help="inverse regularization strength C")
    p.add_argument("--out", type=Path, required=True, help="model JSON path")

    p = sub.add_parser("run", formatter_class=fmt,
                       help="run a manifest-driven paradigm experiment")
    p.add_argument("--manifest", type=Path, required=True, help="run manifest JSON")
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help="parallel workers (default: manifest value or 1)")

    p = sub.add_parser("grow", formatter_class=fmt,
                       help="width/depth sweep with function-preserving growth")
    p.add_argument("--course-dir", type=Path, required=True)
    p.add_argument("--week", type=int, default=-1,
                   help="week index of the feature snapshot (0 = full-points date)")
    p.add_argument("--split", type=float, default=0.5,
                   help="held-out test fraction")
    p.add_argument("--norm", choices=("zscore", "percentile"), default="zscore",
                   help="normalization fit on the training split")
    p.add_argument("--width-from", type=_positive_int, default=2, help="first width")
    p.add_argument("--width-to", type=_positive_int, default=15, help="last width")
    p.add_argument("--depth-from", type=_positive_int, default=2, help="first depth")
    p.add_argument("--depth-to", type=_positive_int, default=10, help="last depth")
    p.add_argument("--fixed-width", type=_positive_int, default=5,
                   help="hidden width used throughout the depth sweep")
    p.add_argument("--learning-rate", type=_positive_float, default=0.1,
                   help="initial SGD learning rate")
    p.add_argument("--epochs", type=_positive_int, default=20, help="SGD epochs")
    p.add_argument("--minibatch-size", type=_positive_int, default=10,
                   help="SGD minibatch size")
    p.add_argument("--anneal", type=float, default=1e-3,
                   help="per-minibatch learning-rate anneal factor")
    p.add_argument("--momentum", type=float, default=0.0, help="SGD momentum")
    p.add_argument("--class-weighting", action="store_true",
                   help="weight each class by n/(2*n_class)")
    p.add_argument("--seed", type=_seed, default=env_seed,
                   help="master seed (env DROPOUTLAB_SEED overrides this default)")
    p.add_argument("--out-dir", type=Path, required=True,
                   help="directory for growth.csv and best_model.json")

    p = sub.add_parser("report", formatter_class=fmt,
                       help="recompute aggregates and summary from a rows CSV")
    p.add_argument("--rows", type=Path, required=True, help="rows.csv from a run")
    p.add_argument("--out-dir", type=Path, required=True)

    return parser


def _load_corpus_config(path: Path | None, courses: int, students: int) -> CorpusConfig:
    if path is None:
        return default_corpus_config(courses, students)
    if not path.exists():
        raise BadConfigError(f"corpus config not found: {path}")
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise BadConfigError(f"{path}: not valid JSON ({e})") from None
    return corpus_config_from_dict(doc)


def cmd_synth(args) -> int:
    config = _load_corpus_config(args.config, args.courses, args.students)
    corpus = synthesize_corpus(config, args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "corpus_config.json", "w", encoding="utf-8") as f:
        json.dump(corpus_config_to_dict(config), f, indent=1, sort_keys=True)
        f.write("\n")
    for course in corpus:
        write_course(course, args.out / course.meta.course_id)
    print(f"wrote {len(corpus)} course directories under {args.out}")
    return 0


def _snapshot_date(course, week: int, as_of: datetime.date | None) -> datetime.date:
    if as_of is not None:
        return as_of
    return week_date(course.meta, week)


def cmd_features(args) -> int:
    course = load_course_dir(args.course_dir)
    as_of = _snapshot_date(course, args.week, args.as_of)
    m = build_matrix(course, as_of)
    stats = None
    if args.norm == "zscore":
        stats = fit_zscore(m)
        m = apply_zscore(m, stats)
    elif args.norm == "percentile":
        stats = fit_percentile(m)
        m = apply_percentile(m, stats)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    write_matrix(m, args.out)
    if stats is not None:
        stats_path = args.stats_out or args.out.with_suffix(args.out.suffix + ".norm.json")
        save_norm_stats(stats, stats_path)
        print(f"wrote {args.out} and {stats_path}")
    else:
        print(f"wrote {args.out}")
    return 0


def cmd_train(args) -> int:
    course = load_course_dir(args.course_dir)
    labels = derive_labels(course)
    if args.kind == "baseline1":
        model = baseline_demographics(course, labels, args.reg_c)
        from .linear import score_demographics

        scored = score_demographics(model, course)
    else:
        as_of = week_date(course.meta, args.week)
        m = build_matrix(course, as_of)
        stats = fit_zscore(m)
        z = apply_zscore(m, stats)
        model = train_logreg(z, labels, args.reg_c, norm=stats)
        scored = predict_proba(model, z)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, args.out)
    a = auc_values(scored.scores, labels.vector(scored.student_ids))
    print(f"wrote {args.out} (training AUC {a:.4f})")
    return 0


def _read_manifest(path: Path) -> dict:
    if not path.exists():
        raise BadConfigError(f"manifest not found: {path}")
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise BadConfigError(f"{path}: not valid JSON ({e})") from None
    if not isinstance(doc, dict):
        raise BadConfigError(f"{path}: manifest must be a JSON object")
    for key in ("master_seed", "corpus_config_path", "paradigms", "output_dir"):
        if key not in doc:
            raise BadConfigError(f"{path}: manifest missing key {key!r}")
    if not doc["paradigms"]:
        raise BadConfigError(f"{path}: paradigms list must be non-empty")
    return doc


def _growth_from_manifest(doc: dict) -> tuple[GrowthPlan, SgdConfig, int, float, str]:
    g = doc.get("growth_plan") or {}
    plan = GrowthPlan(
        width_sweep=tuple(range(int(g.get("width_from", 2)), int(g.get("width_to", 15)) + 1)),
        depth_sweep=tuple(range(int(g.get("depth_from", 2)), int(g.get("depth_to", 10)) + 1)),
        fixed_width=int(g.get("fixed_width", 5)),
    )
    cfg = SgdConfig(
        learning_rate=float(g.get("learning_rate", 0.1)),
        epochs=int(g.get("epochs", 20)),
        minibatch_size=int(g.get("minibatch_size", 10)),
        anneal_factor=float(g.get("anneal", 1e-3)),
        momentum=float(g.get("momentum", 0.0)),
        class_weighting=bool(g.get("class_weighting", False)),
        seed=int(g.get("seed", doc["master_seed"])),
    )
    return plan, cfg, int(g.get("week", -1)), float(g.get("split", 0.5)), str(g.get("norm", "zscore"))


def _split_for_growth(course, week, split, norm, seed):
    """Seeded train/test split of one course's feature matrix at a week."""
    from .features import FeatureMatrix

    as_of = week_date(course.meta, week)
    m = build_matrix(course, as_of)
    y = derive_labels(course)
    rng = np.random.default_rng(seed)
    n = m.n_rows
    n_test = int(round(split * n))
    if not (0 < n_test < n):
        raise BadConfigError(f"split {split} leaves an empty side for n={n}")
    order = rng.permutation(n)
    test_rows = np.sort(order[:n_test])
    train_rows = np.sort(order[n_test:])
    m_train = FeatureMatrix(m.schema, tuple(m.student_ids[i] for i in train_rows),
                            m.values[train_rows], as_of)
    m_test = FeatureMatrix(m.schema, tuple(m.student_ids[i] for i in test_rows),
                           m.values[test_rows], as_of)
    if norm == "percentile":
        stats = fit_percentile(m_train)
        m_train, m_test = apply_percentile(m_train, stats), apply_percentile(m_test, stats)
    else:
        stats = fit_zscore(m_train)
        m_train, m_test = apply_zscore(m_train, stats), apply_zscore(m_test, stats)
    y_train = y.vector(m_train.student_ids)
    y_test = y.vector(m_test.student_ids)
    return m_train.values, y_train, m_test.values, y_test


def _grow_course_choice(corpus) -> object:
    """The course with the most certifiers (ties: lexicographic course_id)."""
    def certifiers(c):
        return int(derive_labels(c).vector(c.student_ids).sum())

    return min(corpus, key=lambda c: (-certifiers(c), c.meta.course_id))


def cmd_run(args) -> int:
    doc = _read_manifest(args.manifest)
    for kind in doc["paradigms"]:
        if kind not in PARADIGMS:
            print(
                f"usage error: unknown paradigm {kind!r} (expected one of {', '.join(PARADIGMS)})",
                file=sys.stderr,
            )
            return 2
    base = args.manifest.parent
    config_path = Path(doc["corpus_config_path"])
    if not config_path.is_absolute():
        config_path = base / config_path
    config = _load_corpus_config(config_path, 0, 0)
    out_dir = Path(doc["output_dir"])
    if not out_dir.is_absolute():
        out_dir = base / out_dir
    seed = int(doc["master_seed"])
    jobs = args.jobs if args.jobs is not None else int(doc.get("jobs", 1))
    corpus = synthesize_corpus(config, seed)
    report = run_experiment(
        corpus,
        doc["paradigms"],
        C=float(doc.get("reg_C", 1.0)),
        holdout=float(doc.get("holdout", 0.0)),
        seed=seed,
        jobs=jobs,
    )
    paths = emit_report(report, out_dir)
    if doc.get("growth_plan") is not None:
        plan, cfg, week, split, norm = _growth_from_manifest(doc)
        course = _grow_course_choice(corpus)
        Xtr, ytr, Xte, yte = _split_for_growth(course, week, split, norm, cfg.seed)
        growth = grow_and_train(Xtr, ytr, Xte, yte, plan, cfg)
        write_growth_csv(growth, out_dir / "growth.csv")
        save_mlp(growth.best_model(), out_dir / "best_model.json")
        print(f"growth sweep on {course.meta.course_id}: best {growth.best().phase} "
              f"w={growth.best().w} h={growth.best().h} auc={growth.best().auc:.4f}")
    print(f"wrote report to {out_dir} ({len(report.rows)} rows, "
          f"{len(report.skipped)} skipped cells)")
    return 0


def cmd_grow(args) -> int:
    if not (0.0 < args.split < 1.0):
        raise BadConfigError(f"--split {args.split} must be in (0, 1)")
    course = load_course_dir(args.course_dir)
    plan = GrowthPlan(
        width_sweep=tuple(range(args.width_from, args.width_to + 1)),
        depth_sweep=tuple(range(args.depth_from, args.depth_to + 1)),
        fixed_width=args.fixed_width,
    )
    cfg = SgdConfig(
        learning_rate=args.learning_rate,
        epochs=args.epochs,
        minibatch_size=args.minibatch_size,
        anneal_factor=args.anneal,
        momentum=args.momentum,
        class_weighting=args.class_weighting,
        seed=args.seed,
    )
    Xtr, ytr, Xte, yte = _split_for_growth(course, args.week, args.split, args.norm, args.seed)
    report = grow_and_train(Xtr, ytr, Xte, yte, plan, cfg)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    write_growth_csv(report, args.out_dir / "growth.csv")
    save_mlp(report.best_model(), args.out_dir / "best_model.json")
    best = report.best()
    print(f"wrote {args.out_dir / 'growth.csv'} ({len(report.rows)} rows); "
          f"best {best.phase} w={best.w} h={best.h} auc={best.auc:.4f}")
    return 0


def cmd_report(args) -> int:
    import csv

    if not args.rows.exists():
        raise BadConfigError(f"rows file not found: {args.rows}")
    rows = []
    with open(args.rows, newline="", encoding="utf-8") as f:
        for rec in csv.DictReader(f):
            rows.append(EvalRow(
                paradigm=rec["paradigm"],
                course_id=rec["course_id"],
                week=int(rec["week"]),
                auc=float(rec["auc"]),
                accuracy=0.0,  # not serialized in rows.csv
                n_students=int(rec["n_students"]),
                n_positives=int(rec["n_positives"]),
            ))
    report = EvalReport.from_rows(rows)
    paths = emit_report(report, args.out_dir)
    print(f"wrote {paths['aggregate']} and {paths['summary']}")
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "features": cmd_features,
    "train": cmd_train,
    "run": cmd_run,
    "grow": cmd_grow,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DropoutLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
