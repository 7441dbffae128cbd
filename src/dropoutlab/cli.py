"""Command-line front end: synth, features, train, run, grow, report.

Exit codes: 0 success, 1 runtime failure, 2 usage error. The DROPOUTLAB_SEED
environment variable, which must be an integer, overrides the default --seed
of every subcommand; an explicit flag wins over both.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import os
import sys
from pathlib import Path

from .dataset import (
    CorpusConfig,
    corpus_config_from_dict,
    corpus_config_to_dict,
    default_corpus_config,
    load_course_dir,
    synthesize_corpus,
    write_course,
)
from .deepnet import GrowthPlan, SgdConfig, grow_and_train, save_mlp, write_growth_csv
from .errors import BadConfigError, DropoutLabError
from .evaluate import ROWS_COLUMNS, SKIPPED_COLUMNS, EvalReport, EvalRow, auc_values, emit_report
from .features import build_matrix, normalize, save_norm_stats, split_rows, write_matrix
from .linear import baseline_demographics, predict_proba, save_model, score_demographics
from .paradigms import PARADIGMS, fit_course_model, run_experiment, week_date


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


# grow's option defaults, which are also a manifest growth_plan's keys and defaults;
# the sweep and SGD values are GrowthPlan's and SgdConfig's. The seed (grow's
# --seed, a growth_plan's "seed") is handled apart.
_PLAN, _SGD = GrowthPlan(), SgdConfig()
_GROWTH_DEFAULTS = {
    "week": -1, "split": 0.5, "norm": "zscore",
    "width_from": _PLAN.width_sweep[0], "width_to": _PLAN.width_sweep[-1],
    "depth_from": _PLAN.depth_sweep[0], "depth_to": _PLAN.depth_sweep[-1],
    "fixed_width": _PLAN.fixed_width, "learning_rate": _SGD.learning_rate,
    "epochs": _SGD.epochs, "minibatch_size": _SGD.minibatch_size,
    "anneal": _SGD.anneal_factor, "momentum": _SGD.momentum,
    "class_weighting": _SGD.class_weighting,
}


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
    p.add_argument("--week", type=int,
                   help="week index of the feature snapshot (0 = full-points date)")
    p.add_argument("--split", type=float, help="held-out test fraction")
    p.add_argument("--norm", choices=("zscore", "percentile"),
                   help="normalization fit on the training split")
    p.add_argument("--width-from", type=_positive_int, help="first width")
    p.add_argument("--width-to", type=_positive_int, help="last width")
    p.add_argument("--depth-from", type=_positive_int, help="first depth")
    p.add_argument("--depth-to", type=_positive_int, help="last depth")
    p.add_argument("--fixed-width", type=_positive_int,
                   help="hidden width used throughout the depth sweep")
    p.add_argument("--learning-rate", type=_positive_float, help="initial SGD learning rate")
    p.add_argument("--epochs", type=_positive_int, help="SGD epochs")
    p.add_argument("--minibatch-size", type=_positive_int, help="SGD minibatch size")
    p.add_argument("--anneal", type=float,
                   help="per-minibatch learning-rate anneal factor")
    p.add_argument("--momentum", type=float, help="SGD momentum")
    p.add_argument("--class-weighting", action="store_true",
                   help="weight each class by n/(2*n_class)")
    p.add_argument("--seed", type=_seed, default=env_seed,
                   help="master seed (env DROPOUTLAB_SEED overrides this default)")
    p.add_argument("--out-dir", type=Path, required=True,
                   help="directory for growth.csv and best_model.json")
    p.set_defaults(**_GROWTH_DEFAULTS)  # shown by --help, and used for growth_plan keys

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
    if args.norm != "none":
        stats, (m,) = normalize(m, [m], args.norm)
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
    if args.kind == "baseline1":
        model = baseline_demographics(course, args.reg_c)
        scored = score_demographics(model, course)
    else:
        m = build_matrix(course, week_date(course.meta, args.week))
        model, z = fit_course_model(course, m, args.reg_c)
        scored = predict_proba(model, z)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, args.out)
    a = auc_values(scored.scores, course.certified)
    print(f"wrote {args.out} (training AUC {a:.4f})")
    return 0


_MANIFEST_REQUIRED = ("master_seed", "corpus_config_path", "paradigms", "output_dir")
_MANIFEST_OPTIONAL = ("reg_C", "holdout", "jobs", "growth_plan")


def _reject_unknown_keys(where: str, doc: dict, known) -> None:
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise BadConfigError(f"{where}: unknown key {unknown[0]!r}")


def _checked(where: str, key: str, value, ok, expected: str):
    """value when it is a JSON number (not a bool) that passes ok; else BadConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not ok(value):
        raise BadConfigError(f"{where}: {key} must be {expected}, got {value!r}")
    return value


def _read_manifest(path: Path) -> dict:
    """The manifest, its values checked and the defaults of jobs, reg_C and holdout filled in."""
    if not path.exists():
        raise BadConfigError(f"manifest not found: {path}")
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise BadConfigError(f"{path}: not valid JSON ({e})") from None
    if not isinstance(doc, dict):
        raise BadConfigError(f"{path}: manifest must be a JSON object")
    _reject_unknown_keys(f"{path}: manifest", doc, _MANIFEST_REQUIRED + _MANIFEST_OPTIONAL)
    for key in _MANIFEST_REQUIRED:
        if key not in doc:
            raise BadConfigError(f"{path}: manifest missing key {key!r}")
    if not isinstance(doc["paradigms"], list) or not doc["paradigms"]:
        raise BadConfigError(f"{path}: paradigms must be a non-empty list")
    return dict(
        doc,
        master_seed=_checked(path, "master_seed", doc["master_seed"],
                             lambda v: isinstance(v, int), "an integer"),
        jobs=_checked(path, "jobs", doc.get("jobs", 1),
                      lambda v: isinstance(v, int) and v >= 1, "an integer >= 1"),
        reg_C=_checked(path, "reg_C", doc.get("reg_C", 1.0), lambda v: v > 0, "> 0"),
        holdout=_checked(path, "holdout", doc.get("holdout", 0.0),
                         lambda v: 0 <= v < 1, "in [0, 1)"),
    )


# A parsed sweep: plan, SGD settings, week, split and norm.
_Sweep = tuple[GrowthPlan, SgdConfig, int, float, str]


def _growth_setup(g: dict, where: str) -> _Sweep:
    """Sweep plan, SGD settings, week, split and norm from values named as grow's options."""
    split = _checked(where, "split", g["split"], lambda v: 0 < v < 1, "in (0, 1)")
    if g["norm"] not in ("zscore", "percentile"):
        raise BadConfigError(f"{where}: norm must be 'zscore' or 'percentile', got {g['norm']!r}")
    plan = GrowthPlan(
        width_sweep=tuple(range(g["width_from"], g["width_to"] + 1)),
        depth_sweep=tuple(range(g["depth_from"], g["depth_to"] + 1)),
        fixed_width=g["fixed_width"],
    )
    cfg = SgdConfig(
        learning_rate=float(g["learning_rate"]),
        epochs=g["epochs"],
        minibatch_size=g["minibatch_size"],
        anneal_factor=float(g["anneal"]),
        momentum=float(g["momentum"]),
        class_weighting=g["class_weighting"],
        seed=g["seed"],
    )
    return plan, cfg, g["week"], float(split), g["norm"]


def _growth_from_manifest(doc: dict, path: Path) -> _Sweep:
    g = doc["growth_plan"]
    if not isinstance(g, dict):
        raise BadConfigError(f"{path}: growth_plan must be a JSON object")
    _reject_unknown_keys(f"{path}: growth_plan", g, [*_GROWTH_DEFAULTS, "seed"])
    for key, value in g.items():
        kind = type(_GROWTH_DEFAULTS.get(key, 0))  # the seed is an integer
        if type(value) not in ((int, float) if kind is float else (kind,)):  # JSON 1 is a float too
            raise BadConfigError(f"{path}: growth_plan.{key} must be a {kind.__name__}, "
                                 f"got {value!r}")
    return _growth_setup({**_GROWTH_DEFAULTS, "seed": doc["master_seed"], **g},
                         f"{path}: growth_plan")


def _split_for_growth(course, week, split, norm, seed):
    """Seeded train/test split of one course's feature matrix at a week, normalized on train."""
    m = build_matrix(course, week_date(course.meta, week))
    train_rows, test_rows = split_rows(m.n_rows, split, seed)
    m_train = m.take(train_rows)
    _, (m_train, m_test) = normalize(m_train, [m_train, m.take(test_rows)], norm)
    return (m_train.values, course.certified[train_rows],
            m_test.values, course.certified[test_rows])


def _grow_and_save(course, sweep: _Sweep, out_dir: Path):
    """Run the sweep on the course's growth split and write growth.csv and
    best_model.json to out_dir; returns the sweep's report."""
    plan, cfg, week, split, norm = sweep
    # the split returns arrays only, so the raw matrix is freed before training
    report = grow_and_train(*_split_for_growth(course, week, split, norm, cfg.seed), plan, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_growth_csv(report, out_dir / "growth.csv")
    save_mlp(report.best_model(), out_dir / "best_model.json")
    return report


def _grow_course_choice(corpus) -> object:
    """The course with the most certifiers (ties: lexicographic course_id)."""
    return min(corpus, key=lambda c: (-int(c.certified.sum()), c.meta.course_id))


def cmd_run(args) -> int:
    doc = _read_manifest(args.manifest)
    for kind in doc["paradigms"]:
        if kind not in PARADIGMS:
            print(
                f"usage error: unknown paradigm {kind!r} (expected one of {', '.join(PARADIGMS)})",
                file=sys.stderr,
            )
            return 2
    # parsed before any work, so a bad plan fails before an output is written
    sweep = None if doc.get("growth_plan") is None else _growth_from_manifest(doc, args.manifest)
    base = args.manifest.parent
    config_path = Path(doc["corpus_config_path"])
    if not config_path.is_absolute():
        config_path = base / config_path
    config = _load_corpus_config(config_path, 0, 0)
    out_dir = Path(doc["output_dir"])
    if not out_dir.is_absolute():
        out_dir = base / out_dir
    seed = doc["master_seed"]
    corpus = synthesize_corpus(config, seed)
    report = run_experiment(
        corpus,
        doc["paradigms"],
        C=float(doc["reg_C"]),
        holdout=float(doc["holdout"]),
        seed=seed,
        jobs=args.jobs if args.jobs is not None else doc["jobs"],
    )
    emit_report(report, out_dir)
    if sweep is not None:
        course = _grow_course_choice(corpus)
        best = _grow_and_save(course, sweep, out_dir).best()
        print(f"growth sweep on {course.meta.course_id}: best {best.phase} "
              f"w={best.w} h={best.h} auc={best.auc:.4f}")
    print(f"wrote report to {out_dir} ({len(report.rows)} rows, "
          f"{len(report.skipped)} skipped cells)")
    return 0


def cmd_grow(args) -> int:
    sweep = _growth_setup(vars(args), "grow")
    report = _grow_and_save(load_course_dir(args.course_dir), sweep, args.out_dir)
    best = report.best()
    print(f"wrote {args.out_dir / 'growth.csv'} ({len(report.rows)} rows); "
          f"best {best.phase} w={best.w} h={best.h} auc={best.auc:.4f}")
    return 0


def _read_records(path: Path, columns: tuple[str, ...]) -> list[dict]:
    """The records of a CSV written by emit_report, after checking its header."""
    if not path.exists():
        raise BadConfigError(f"file not found: {path}")
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        if tuple(reader.fieldnames or ()) != columns:
            raise BadConfigError(f"{path}: expected the columns {','.join(columns)}")
        return list(reader)


def cmd_report(args) -> int:
    skipped_path = args.rows.parent / "skipped.csv"
    try:
        rows = [
            EvalRow(
                paradigm=rec["paradigm"],
                course_id=rec["course_id"],
                week=int(rec["week"]),
                auc=float(rec["auc"]),
                n_students=int(rec["n_students"]),
                n_positives=int(rec["n_positives"]),
            )
            for rec in _read_records(args.rows, ROWS_COLUMNS)
        ]
        skipped = [(rec["paradigm"], rec["course_id"], int(rec["week"]), rec["reason"])
                   for rec in _read_records(skipped_path, SKIPPED_COLUMNS)]
    except ValueError as e:
        raise BadConfigError(f"non-numeric value in {args.rows} or {skipped_path} ({e})") from None
    paths = emit_report(EvalReport.from_rows(rows, skipped), args.out_dir)
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
