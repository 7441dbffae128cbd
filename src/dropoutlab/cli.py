"""Command-line front end: synth, features, train, run, grow, report.

Exit codes: 0 success, 1 runtime failure, 2 usage error. The DROPOUTLAB_SEED
environment variable, which must be an integer >= 0, overrides the default --seed
of every subcommand; an explicit flag wins over both.
"""

from __future__ import annotations

import argparse
import datetime
import math
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

# Besides the standard library, the parser loads only these numpy-free modules,
# so --help and usage errors answer quickly; each command imports what it runs.
from .errors import BadConfigError, DropoutLabError
from .settings import (PARADIGMS, GrowthPlan, SgdConfig, check_paradigms, parse_date, read_csv,
                       read_json)

def _int_at_least(lo: int, source: str = ""):
    """An argparse type: the integer of a text, which must be >= lo."""
    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            v = None
        if v is None or v < lo:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= {lo}{source}")
        return v
    return parse


_seed = _int_at_least(0, " (from --seed or DROPOUTLAB_SEED)")  # numpy takes no negative seed
_positive_int = _int_at_least(1)


def _positive_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not 0 < v < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {v}")
    return v


def _iso_date(text: str) -> datetime.date:
    try:
        return parse_date(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a YYYY-MM-DD date") from None


# grow's option defaults: week, split and norm, then the fields of GrowthPlan and
# SgdConfig under their own names. The seed (--seed) is handled apart.
_GROWTH_DEFAULTS = {
    "week": -1, "split": 0.5, "norm": "zscore",
    **asdict(GrowthPlan()),
    **{k: v for k, v in asdict(SgdConfig()).items() if k != "seed"},
}


# features' and train's --week, which the namespace holds only when it is given
# (the commands read 0 otherwise): argparse takes an option given its default
# value as absent, so a default of 0 would let --week 0 pass beside --as-of.
# synth's --courses and --students are held the same way, to be refused beside --config.
_WEEK = dict(type=int, default=argparse.SUPPRESS,
             help="week index, 0 = full-points date, negative = weeks earlier (default: 0)")


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
    p.add_argument("--courses", type=_positive_int, default=argparse.SUPPRESS,
                   help="course count for the built-in config (default: 4)")
    p.add_argument("--students", type=_positive_int, default=argparse.SUPPRESS,
                   help="students per course for the built-in config (default: 400)")
    p.add_argument("--seed", type=_seed, default=env_seed,
                   help="master seed (env DROPOUTLAB_SEED overrides this default)")
    p.add_argument("--out", type=Path, required=True, help="output directory")

    p = sub.add_parser("features", formatter_class=fmt,
                       help="extract a normalized feature matrix for one course")
    p.add_argument("--course-dir", type=Path, required=True,
                   help="directory with the four course CSV files")
    when = p.add_mutually_exclusive_group()
    when.add_argument("--week", **_WEEK)
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
    p.add_argument("--week", **_WEEK)
    p.add_argument("--kind", choices=("post_hoc", "baseline1"), default="post_hoc",
                   help="post_hoc: full features; baseline1: demographics only")
    p.add_argument("--reg-c", type=_positive_float, default=1.0,
                   help="inverse regularization strength C")
    p.add_argument("--out", type=Path, required=True, help="model JSON path")

    p = sub.add_parser("run", formatter_class=fmt,
                       help="run a manifest-driven paradigm experiment")
    p.add_argument("--manifest", type=Path, required=True, help="run manifest JSON")
    p.add_argument("--jobs", type=_positive_int, default=1, help="parallel workers")

    p = sub.add_parser("grow", formatter_class=fmt,
                       help="width/depth sweep with function-preserving growth")
    p.add_argument("--course-dir", type=Path, required=True)
    p.add_argument("--week", type=int,
                   help="week index of the feature snapshot (0 = full-points date)")
    p.add_argument("--split", type=float, help="held-out test fraction")
    p.add_argument("--norm", choices=("zscore", "percentile"),
                   help="normalization fit on the training split")
    # GrowthPlan and SgdConfig check the values of their fields, once, in cmd_grow
    p.add_argument("--width-from", type=int, help="first width")
    p.add_argument("--width-to", type=int, help="last width")
    p.add_argument("--depth-from", type=int, help="first depth")
    p.add_argument("--depth-to", type=int, help="last depth")
    p.add_argument("--fixed-width", type=int, help="hidden width used throughout the depth sweep")
    p.add_argument("--learning-rate", type=float, help="initial SGD learning rate")
    p.add_argument("--epochs", type=int, help="SGD epochs")
    p.add_argument("--minibatch-size", type=int, help="SGD minibatch size")
    p.add_argument("--anneal", type=float, help="per-minibatch learning-rate anneal factor")
    p.add_argument("--seed", type=_seed, default=env_seed,
                   help="master seed (env DROPOUTLAB_SEED overrides this default)")
    p.add_argument("--out-dir", type=Path, required=True,
                   help="directory for growth.csv and best_model.json")
    p.set_defaults(**_GROWTH_DEFAULTS)  # shown by --help

    p = sub.add_parser("report", formatter_class=fmt,
                       help="recompute aggregates and summary from a rows CSV")
    p.add_argument("--rows", type=Path, required=True, help="rows.csv from a run")
    p.add_argument("--out-dir", type=Path, required=True)

    return parser


def _read_json(path: Path, what: str, parse):
    """settings.read_json(path, parse), but BadConfigError if there is no file at path."""
    if not path.exists():
        raise BadConfigError(f"{what} not found: {path}")
    return read_json(path, parse)


def _load_corpus_config(path: Path):
    """The CorpusConfig in the JSON file at path; its errors name the file."""
    from .dataset import corpus_config_from_dict
    return _read_json(path, "corpus config", corpus_config_from_dict)


def cmd_synth(args) -> int:
    sized = [name for name in ("courses", "students") if name in args]
    if args.config is not None and sized:
        return _usage_error(f"--{sized[0]} is not read with --config, which gives every course")
    from .dataset import default_corpus_config, write_corpus
    config = (_load_corpus_config(args.config) if args.config is not None else
              default_corpus_config(**{f"n_{name}": getattr(args, name) for name in sized}))
    write_corpus(config, args.seed, args.out)
    print(f"wrote {len(config.courses)} course directories under {args.out}")
    return 0


def _usage_error(message: str) -> int:
    print(f"usage error: {message}", file=sys.stderr)
    return 2


def cmd_features(args) -> int:
    if args.norm == "none" and args.stats_out is not None:
        return _usage_error("--stats-out is not written with --norm none")
    from .dataset import load_course_dir, week_date
    from .features import build_matrix, normalize, save_norm_stats, write_matrix
    course = load_course_dir(args.course_dir)
    m = build_matrix(course, args.as_of or week_date(course.meta, getattr(args, "week", 0)))
    paths = [args.out]
    if args.norm != "none":
        stats, (m,) = normalize(m, [m], args.norm)
        paths.append(args.stats_out or args.out.with_suffix(args.out.suffix + ".norm.json"))
    for path in paths:  # every parent exists before the first file is written
        path.parent.mkdir(parents=True, exist_ok=True)
    write_matrix(m, args.out)
    if args.norm != "none":
        save_norm_stats(stats, paths[1])
    print("wrote " + " and ".join(map(str, paths)))
    return 0


def cmd_train(args) -> int:
    if args.kind == "baseline1" and "week" in args:
        return _usage_error("--week is not read with --kind baseline1, which fits demographics only")
    from .dataset import load_course_dir, week_date
    from .evaluate import auc_values
    from .features import apply_norm, build_matrix
    from .linear import (baseline_demographics, fit_course_model, predict_proba, save_model,
                         score_demographics)
    course = load_course_dir(args.course_dir)
    if args.kind == "baseline1":
        model = baseline_demographics(course, args.reg_c)
        scores = score_demographics(model, course)
    else:
        m = build_matrix(course, week_date(course.meta, getattr(args, "week", 0)))
        model = fit_course_model(course, m, args.reg_c)
        scores = predict_proba(model, apply_norm(m, model.norm))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    save_model(model, args.out)
    a = auc_values(scores, course.certified)
    print(f"wrote {args.out} (training AUC {a:.4f})")
    return 0


_MANIFEST_REQUIRED = ("master_seed", "corpus_config_path", "paradigms", "output_dir")
_MANIFEST_OPTIONAL = ("reg_C", "holdout")


def _checked(where: str, key: str, value, ok, expected: str):
    """value when it is a JSON number (not a bool) that passes ok; else BadConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not ok(value):
        raise BadConfigError(f"{where}: {key} must be {expected}, got {value!r}")
    return value


def _read_manifest(path: Path) -> dict:
    """The manifest, its values checked and the defaults of reg_C and holdout filled in."""
    doc = _read_json(path, "manifest", lambda doc: doc)
    if not isinstance(doc, dict):
        raise BadConfigError(f"{path}: manifest must be a JSON object")
    unknown = sorted(set(doc) - set(_MANIFEST_REQUIRED + _MANIFEST_OPTIONAL))
    if unknown:
        raise BadConfigError(f"{path}: manifest: unknown key {unknown[0]!r}")
    for key in _MANIFEST_REQUIRED:
        if key not in doc:
            raise BadConfigError(f"{path}: manifest missing key {key!r}")
    for key in ("corpus_config_path", "output_dir"):
        if not isinstance(doc[key], str):
            raise BadConfigError(f"{path}: {key} must be a string, got {doc[key]!r}")
    if not isinstance(doc["paradigms"], list) or not doc["paradigms"]:
        raise BadConfigError(f"{path}: paradigms must be a non-empty list")
    return dict(
        doc,
        master_seed=_checked(path, "master_seed", doc["master_seed"],
                             lambda v: isinstance(v, int) and v >= 0, "an integer >= 0"),
        reg_C=_checked(path, "reg_C", doc.get("reg_C", 1.0), lambda v: 0 < v < math.inf,
                       "finite and > 0"),
        holdout=_checked(path, "holdout", doc.get("holdout", 0.0),
                         lambda v: 0 <= v < 1, "in [0, 1)"),
    )


def cmd_run(args) -> int:
    doc = _read_manifest(args.manifest)
    for kind in doc["paradigms"]:
        if kind not in PARADIGMS:
            return _usage_error(
                f"unknown paradigm {kind!r} (expected one of {', '.join(PARADIGMS)})")
    check_paradigms(doc["paradigms"])  # a paradigm listed twice fails before any synthesis
    from .dataset import synthesize_corpus
    from .evaluate import emit_report
    from .paradigms import run_experiment
    base = args.manifest.parent
    config_path = Path(doc["corpus_config_path"])
    if not config_path.is_absolute():
        config_path = base / config_path
    config = _load_corpus_config(config_path)
    out_dir = Path(doc["output_dir"])
    if not out_dir.is_absolute():
        out_dir = base / out_dir
    seed = doc["master_seed"]
    report = run_experiment(
        synthesize_corpus(config, seed),
        doc["paradigms"],
        C=float(doc["reg_C"]),
        holdout=float(doc["holdout"]),
        seed=seed,
        jobs=args.jobs,
    )
    emit_report(report, out_dir)
    print(f"wrote report to {out_dir} ({len(report.rows)} rows, "
          f"{len(report.skipped)} skipped cells)")
    return 0


def cmd_grow(args) -> int:
    if not 0 < args.split < 1:  # like a bad field of the sweep, a usage error
        return _usage_error(f"grow: split must be in (0, 1), got {args.split!r}")
    try:
        plan, cfg = (cls(**{f.name: getattr(args, f.name) for f in fields(cls)})
                     for cls in (GrowthPlan, SgdConfig))
    except BadConfigError as e:  # found before the course is read
        return _usage_error(f"grow: {e}")
    from .dataset import load_course_dir, week_date
    from .deepnet import grow_and_train, save_mlp, write_growth_csv
    from .features import _test_size, build_matrix, holdout_split
    course = load_course_dir(args.course_dir)
    _test_size(len(course.roster), args.split, f"course {course.meta.course_id!r}: ")
    _, train, y_train, test, y_test = holdout_split(
        build_matrix(course, week_date(course.meta, args.week)), course.certified, args.split,
        cfg.seed, args.norm)
    del course  # nothing reads it again, so its activity is freed before the sweep
    report = grow_and_train(train.values, y_train, test.values, y_test, plan, cfg)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    write_growth_csv(report, args.out_dir / "growth.csv")
    best = report.best()
    save_mlp(best.model, args.out_dir / "best_model.json")
    print(f"wrote {args.out_dir / 'growth.csv'} ({len(report.rows)} rows); "
          f"best {best.phase} w={best.w} h={best.h} auc={best.auc:.4f}")
    return 0


def _read_records(path: Path, columns: tuple[str, ...], parse) -> list:
    """("path:line", parse(*cells)) for each non-blank row of a CSV written by
    emit_report, after checking its header and that each row has one cell per
    column. Errors name the file, and the line of a bad row."""
    if not path.exists():
        raise BadConfigError(f"file not found: {path}")
    rows = read_csv(path)
    if tuple(next(rows, (0, ()))[1]) != columns:
        raise BadConfigError(f"{path}: expected the columns {','.join(columns)}")
    records = []
    for line, cells in rows:
        where = f"{path}:{line}"
        try:
            records.append((where, parse(*cells)))
        except (ValueError, DropoutLabError) as e:
            raise BadConfigError(f"{where}: {e}") from None
    return records


def cmd_report(args) -> int:
    from .evaluate import ROWS_COLUMNS, SKIPPED_COLUMNS, EvalReport, EvalRow, emit_report
    # the columns of rows.csv are EvalRow's fields, in order
    rows = _read_records(args.rows, ROWS_COLUMNS, lambda paradigm, course, week, auc, n, pos:
                         EvalRow(paradigm, course, int(week), float(auc), int(n), int(pos)))
    skipped = _read_records(args.rows.parent / "skipped.csv", SKIPPED_COLUMNS,
                            lambda paradigm, course, week, reason:
                            (paradigm, course, int(week), reason))
    first: dict[tuple, str] = {}  # where each (paradigm, course_id, week) cell was read
    for where, cell in ([(w, (r.paradigm, r.course_id, r.week)) for w, r in rows]
                        + [(w, s[:3]) for w, s in skipped]):
        if cell[0] not in PARADIGMS or cell[2] > 0:  # no run scores a week past week 0
            raise BadConfigError(f"{where}: no run writes the cell (paradigm, course_id, week) "
                                 f"{cell}: the paradigm must be one of {', '.join(PARADIGMS)} "
                                 "and the week at most 0")
        if cell in first:
            raise BadConfigError(f"{where}: cell (paradigm, course_id, week) {cell} is "
                                 f"listed twice, first on {first[cell]}")
        first[cell] = where
    report = EvalReport.from_rows([r for _, r in rows], [s for _, s in skipped])
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


# numpy's BLAS reads these once, as numpy loads. One thread per process keeps
# the forked workers of --jobs N from contending for the cores; a value the
# caller set wins, and a caller that has loaded numpy already keeps its threads.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    if "numpy" not in sys.modules:
        for var in _BLAS_THREADS:
            os.environ.setdefault(var, "1")
    args = build_parser().parse_args(argv)  # no name keeps the parser alive during the command
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
