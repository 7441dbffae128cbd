"""dropoutlab benchmark: end-to-end CLI workloads plus a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload experiment|growth|cli
        [--seed N] [--seconds S] [--trace 0|1]

--trace 0 drives the real ``python3 -m dropoutlab`` entry point in
subprocesses, one at a time, and reports the end-to-end metrics.
--trace 1 runs one untraced pass and one traced pass (perfbench/tracer.py)
with the same arguments, ``--jobs 1`` everywhere, and reports the per-layer
metrics. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; a fuller record, stamped with the
environment, goes to .perfbench_work/results/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH / "reference"

SETUP_REPS = 3
PROBES = 3
RUN_LIMIT_S = 170.0  # no child outlives this, so a run ends within 180 s
AUC_TOLERANCE = 1e-3  # per-cell distance allowed from the recorded reference

# The shared 2-core machine changes speed by up to half within minutes, for
# every program alike. End-to-end times are therefore scaled to a reference
# speed: multiplied by CALIBRATION_REF_S over the median time of CALIBRATION,
# a fixed computation that does not touch the program, run between the
# passes. The record keeps the raw times and the calibration samples.
CALIBRATION = """
import time
import numpy as np
X = np.random.default_rng(0).standard_normal((500, 66))
w = np.zeros(66)
t0 = time.perf_counter()
for _ in range(20000):
    z = X @ w
    w -= 1e-4 * (X.T @ (1.0 / (1.0 + np.exp(-z)) - 0.5))
    sum(k * k for k in range(100))
print(time.perf_counter() - t0)
"""
CALIBRATION_REF_S = 0.5


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    argv: list[str]
    seconds: float
    rss_mb: float
    code: int
    output: str


# One BLAS thread per process: with 2 cores, idle OpenBLAS threads spinning
# beside the single timed process made a no-op invocation take 1.07-1.53 s
# instead of 0.90-1.05 s, and `run --jobs 2` would oversubscribe the cores.
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    """The checkout's own sources, one BLAS thread, and no seed but --seed."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_THREADS)
    env.pop("DROPOUTLAB_SEED", None)
    return env


def run_child(argv: list[str], cwd: Path, log: Path, deadline: float) -> Child:
    """Run one process to completion; its peak RSS comes from wait4."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
        # The session holds pool workers too, so a kill reaches every process.
        timer = threading.Timer(max(deadline - time.monotonic(), 0.1),
                                os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Child(argv, seconds, usage.ru_maxrss / 1024.0, code,
                 log.read_text(encoding="utf-8", errors="replace"))


def dropoutlab(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "dropoutlab", *args]


def traced(args: list[str], stats: Path) -> list[str]:
    return [sys.executable, str(BENCH / "tracer.py"), str(stats), *args]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Op:
    command: str  # the subcommand, or "help" for the no-op invocation
    args: list[str]
    traced_args: list[str] | None = None  # the same with --jobs 1, where different


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


class Workload:
    """A fixed list of CLI invocations per pass, and the checks on what they write."""

    name = ""
    default_seed = 7
    min_passes = 1
    layers: tuple[str, ...] = ()

    def ops(self, seed: int) -> list[Op]:
        raise NotImplementedError

    def outputs(self, out: Path) -> dict[str, str]:
        """Digests of the outputs that must be equal across passes."""
        raise NotImplementedError

    def volatile(self, out: Path) -> list[str]:
        """Outputs left out of the comparison, recorded so a reader sees them."""
        return []

    def check(self, seed: int, out: Path, children: list[Child]) -> list[tuple[int, str]]:
        """(op index, message) for each failed output check."""
        raise NotImplementedError


class Experiment(Workload):
    """`run --jobs 1`, all six paradigms on 8 courses x 500 students."""

    name = "experiment"
    default_seed = 42
    min_passes = 2  # outputs are compared across passes
    layers = ("dataset", "features", "linear", "paradigms", "evaluate", "cli")
    files = ("rows.csv", "aggregate.csv", "summary.txt")
    order = ("post_hoc", "in_situ", "baseline2", "baseline1")

    def ops(self, seed: int) -> list[Op]:
        return [Op("run", ["run", "--manifest", "inputs/manifest.json", "--jobs", "1"])]

    def outputs(self, out: Path) -> dict[str, str]:
        return {name: sha256((out / "run" / name).read_bytes()) for name in self.files}

    def check(self, seed: int, out: Path, children: list[Child]) -> list[tuple[int, str]]:
        found = re.search(r"\((\d+) rows, (\d+) skipped cells\)", children[0].output)
        if not found or (int(found[1]), int(found[2])) != (384, 0):
            return [(0, "expected 384 rows and 0 skipped cells")]
        rows = read_csv(out / "run" / "rows.csv")
        header, body = rows[0], rows[1:]
        col = {name: k for k, name in enumerate(header)}
        errors = []
        if len(body) != 384:
            errors.append((0, f"rows.csv has {len(body)} rows, expected 384"))
        aucs: dict[str, list[float]] = {}
        for r in body:
            aucs.setdefault(r[col["paradigm"]], []).append(float(r[col["auc"]]))
        means = {p: statistics.fmean(aucs.get(p, [math.nan])) for p in self.order}
        if not all(means[a] > means[b] for a, b in zip(self.order, self.order[1:])):
            errors.append((0, f"mean AUC not ordered {' > '.join(self.order)}: {means}"))
        reference = REFERENCE / f"experiment-seed{seed}.csv"
        if reference.exists():
            errors += [(0, e) for e in compare_to_reference(body, col, read_csv(reference))]
        return errors


def compare_to_reference(body, col, reference) -> list[str]:
    """Each (paradigm, course, week) cell's AUC within AUC_TOLERANCE of the reference."""
    def cells(rows, col):
        return {(r[col["paradigm"]], r[col["course_id"]], r[col["week"]]): float(r[col["auc"]])
                for r in rows}

    got = cells(body, col)
    want = cells(reference[1:], {name: k for k, name in enumerate(reference[0])})
    if got.keys() != want.keys():
        return [f"cells differ from the reference: {len(got.keys() ^ want.keys())} unmatched"]
    worst = max(want, key=lambda k: abs(got[k] - want[k]))
    diff = abs(got[worst] - want[worst])
    return [f"AUC of {worst} is {diff:.3g} from the reference"] if diff > AUC_TOLERANCE else []


class Growth(Workload):
    """`grow` with the default sweep on SYN1x of a 4 x 2000 corpus on disk."""

    name = "growth"
    min_passes = 2
    layers = ("dataset", "features", "deepnet", "evaluate", "cli")

    def ops(self, seed: int) -> list[Op]:
        return [Op("grow", ["grow", "--course-dir", "inputs/corpus/SYN1x", "--seed", str(seed),
                            "--out-dir", "pass/grow"])]

    @staticmethod
    def split_growth_csv(out: Path) -> tuple[bytes, list[str]]:
        """growth.csv without its wall-clock train_seconds column, and that column.

        train_seconds breaks byte determinism (ROADMAP item 2); it is compared
        apart until it leaves growth.csv.
        """
        rows = read_csv(out / "grow" / "growth.csv")
        k = rows[0].index("train_seconds")
        buf = io.StringIO()
        csv.writer(buf).writerows([r[:k] + r[k + 1:] for r in rows])
        return buf.getvalue().encode(), [r[k] for r in rows[1:]]

    def outputs(self, out: Path) -> dict[str, str]:
        return {
            "growth.csv without train_seconds": sha256(self.split_growth_csv(out)[0]),
            "best_model.json": sha256((out / "grow" / "best_model.json").read_bytes()),
        }

    def volatile(self, out: Path) -> list[str]:
        return self.split_growth_csv(out)[1]

    def check(self, seed: int, out: Path, children: list[Child]) -> list[tuple[int, str]]:
        n = len(read_csv(out / "grow" / "growth.csv")) - 1
        return [] if n == 24 else [(0, f"growth.csv has {n} rows, expected 24")]


class Cli(Workload):
    """A session of cold invocations of every subcommand but grow on 4 x 2000."""

    name = "cli"
    layers = ("dataset", "features", "linear", "paradigms", "evaluate", "cli")
    features = ("pass/features_w-2.csv", "pass/features_w0.csv")

    def ops(self, seed: int) -> list[Op]:
        course = "pass/corpus/SYN1x"
        run = ["run", "--manifest", "inputs/manifest.json", "--jobs"]
        return [
            Op("help", ["--help"]),
            Op("synth", ["synth", "--courses", "4", "--students", "2000", "--seed", str(seed),
                         "--out", "pass/corpus"]),
            Op("features", ["features", "--course-dir", course, "--week", "-2",
                            "--norm", "percentile", "--out", self.features[0]]),
            Op("features", ["features", "--course-dir", course, "--week", "0",
                            "--norm", "zscore", "--out", self.features[1]]),
            Op("train", ["train", "--course-dir", course, "--week", "0", "--kind", "post_hoc",
                         "--out", "pass/post_hoc.json"]),
            Op("train", ["train", "--course-dir", course, "--kind", "baseline1",
                         "--out", "pass/baseline1.json"]),
            Op("run", run + ["2"], traced_args=run + ["1"]),
            Op("report", ["report", "--rows", "pass/run/rows.csv", "--out-dir", "pass/report"]),
        ]

    def outputs(self, out: Path) -> dict[str, str]:
        return {str(p.relative_to(out)): sha256(p.read_bytes())
                for p in sorted(out.rglob("*")) if p.is_file()}

    def check(self, seed: int, out: Path, children: list[Child]) -> list[tuple[int, str]]:
        errors = []
        for k, name in enumerate(self.features):
            rows = read_csv(out.parent / name)
            shape = (len(rows) - 1, {len(r) for r in rows})
            if shape != (2000, {67}):
                errors.append((2 + k, f"{name} is {shape[0]} rows of widths {shape[1]}, expected 2000 x 67"))
        for name in ("aggregate.csv", "summary.txt"):
            if (out / "report" / name).read_bytes() != (out / "run" / name).read_bytes():
                errors.append((7, f"report did not rebuild {name} byte for byte"))
        return errors


WORKLOADS = {w.name: w for w in (Experiment(), Growth(), Cli())}


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    wall: float
    children: list[Child]
    failed_ops: set[int] = field(default_factory=set)
    errors: list[str] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)
    stats: list[dict] = field(default_factory=list)
    volatile: list[str] = field(default_factory=list)


def run_pass(wl, seed: int, work: Path, deadline: float, *, jobs1: bool, trace: bool) -> Pass:
    """One pass of the workload's ops, then its output checks."""
    out = work / "pass"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    logs = work / "logs"
    ops = wl.ops(seed)
    children, stat_paths = [], []
    t0 = time.perf_counter()
    for k, op in enumerate(ops):
        args = op.traced_args if jobs1 and op.traced_args else op.args
        stats = logs / f"stats{k}.json"
        stats.unlink(missing_ok=True)
        argv = traced(args, stats) if trace else dropoutlab(args)
        children.append(run_child(argv, work, logs / f"op{k}.log", deadline))
        stat_paths.append(stats)
    p = Pass(time.perf_counter() - t0, children)
    for k, c in enumerate(children):
        if c.code != 0:
            p.failed_ops.add(k)
            p.errors.append(f"op {k} ({ops[k].command}) exited {c.code}: {c.output[-300:]}")
    try:
        for k, msg in wl.check(seed, out, children):
            p.failed_ops.add(k)
            p.errors.append(msg)
        p.outputs = wl.outputs(out)
        p.volatile = wl.volatile(out)
    except (OSError, ValueError, IndexError, KeyError) as e:
        p.failed_ops.add(len(children) - 1)
        p.errors.append(f"outputs unreadable: {e!r}")
    if trace:
        p.stats = [json.loads(s.read_text()) for s in stat_paths if s.exists()]
    return p


def compare_outputs(first: Pass, later: Pass, what: str) -> None:
    if later.outputs != first.outputs:
        differ = sorted(k for k in first.outputs.keys() | later.outputs.keys()
                        if first.outputs.get(k) != later.outputs.get(k))
        later.failed_ops.add(len(later.children) - 1)
        later.errors.append(f"outputs differ {what}: {differ}")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def summary(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, n and the values."""
    tail = None
    for q in (0.999, 0.99, 0.98, 0.95, 0.9, 0.75):
        if len(samples) * (1 - q) >= 10:
            tail = [q, percentile(samples, q)]
            break
    return {"n": len(samples), "median": statistics.median(samples) if samples else None,
            "tail": tail, "values": samples}


def layer_metrics(stats: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the traced invocations of one pass."""
    def total(key: str, name: str):
        return sum(s[key].get(name, 0) for s in stats)

    def listed(key: str) -> list:
        return [v for s in stats for v in s[key]]

    fit_ms, fit_iters = listed("fit_ms"), listed("fit_iters")
    fits = len(fit_ms)
    distinct = len(set(listed("fit_keys")))
    steps = sum(s["sgd_steps"] for s in stats)
    sgd_s = total("group_s", "deepnet.train_sgd")
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = total("calls", layer)
        m[f"{layer}.self_s"] = total("self_s", layer)
    m.update({
        "dataset.synth_s": total("group_s", "dataset.synth"),
        "dataset.activity_rows": sum(s["activity_rows"] for s in stats),
        "dataset.write_s": total("group_s", "dataset.write"),
        "dataset.load_s": total("group_s", "dataset.load"),
        "dataset.csv_bytes": sum(s["csv_bytes"] for s in stats),
        "features.build_matrix_calls": total("group_calls", "features.build_matrix"),
        "features.build_matrix_s": total("group_s", "features.build_matrix"),
        "features.normalize_calls": total("group_calls", "features.normalize"),
        "features.normalize_s": total("group_s", "features.normalize"),
        "features.write_matrix_s": total("group_s", "features.write_matrix"),
        "linear.fits": fits,
        "linear.fit_s": total("group_s", "linear.fit"),
        "linear.fit_ms.p50": statistics.median(fit_ms) if fit_ms else 0.0,
        "linear.fit_ms.p98": percentile(fit_ms, 0.98),
        "linear.fit_iters": sum(fit_iters),
        "linear.fit_iters.p50": statistics.median(fit_iters) if fit_iters else 0,
        "linear.fit_iters.max": max(fit_iters, default=0),
        "linear.nonconverged": sum(s["nonconverged"] for s in stats),
        "linear.predict_s": total("group_s", "linear.predict"),
        "paradigms.cells": sum(s["cells"] for s in stats),
        "paradigms.distinct_fits": distinct,
        "paradigms.fit_useful_ratio": distinct / fits if fits else 0.0,
        "evaluate.auc_calls": total("group_calls", "evaluate.auc"),
        "evaluate.auc_s": total("group_s", "evaluate.auc"),
        "evaluate.emit_report_s": total("group_s", "evaluate.emit_report"),
        "deepnet.cells": total("group_calls", "deepnet.cell"),
        "deepnet.sgd_steps": steps,
        "deepnet.train_sgd_s": sgd_s,
        "deepnet.us_per_step": sgd_s / steps * 1e6 if steps else 0.0,
        "deepnet.grow_ops_s": total("group_s", "deepnet.grow_ops"),
    })
    return m


def command_seconds(wl, seed: int, p: Pass) -> dict[str, float]:
    """Seconds per subcommand in one pass, summed over its invocations."""
    m = {f"cmd_s.{c}": 0.0 for c in ("synth", "features", "train", "run", "report")}
    for op, child in zip(wl.ops(seed), p.children):
        if f"cmd_s.{op.command}" in m:
            m[f"cmd_s.{op.command}"] += child.seconds
    return m


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------

def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def stamp() -> dict:
    """What a reader needs to compare this result with another."""
    program = hashlib.sha256()
    for path in sorted((SRC / "dropoutlab").glob("*.py")):
        program.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "program_sha256": program.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "loadavg_at_start": os.getloadavg(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """One benchmark run; returns the full record, metrics included."""
    wl = WORKLOADS[workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    record = {"stamp": stamp(), "workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace)}
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)

    setup: list[float] = []
    probes: list[Child] = []
    calibration: list[float] = []

    def set_up() -> None:
        shutil.rmtree(work / "inputs", ignore_errors=True)
        c = run_child([sys.executable, str(BENCH / "prepare.py"), workload, str(seed), "inputs"],
                      work, work / "logs" / "setup.log", deadline)
        if c.code != 0:
            raise RuntimeError(f"setup failed with exit {c.code}: {c.output[-500:]}")
        setup.append(c.seconds)

    def probe() -> None:
        probes.append(run_child(dropoutlab(["--help"]), work, work / "logs" / "probe.log", deadline))
        c = run_child([sys.executable, "-c", CALIBRATION], work, work / "logs" / "calibrate.log",
                      deadline)
        if c.code != 0:
            raise RuntimeError(f"calibration failed with exit {c.code}: {c.output[-500:]}")
        calibration.append(float(c.output.split()[-1]))

    set_up()
    attempted = failed = 0
    errors: list[str] = []
    if trace:
        probes.extend(run_child([sys.executable, "-c", "import dropoutlab.cli"], work,
                                work / "logs" / "import.log", deadline) for _ in range(PROBES))
        plain = run_pass(wl, seed, work, deadline, jobs1=True, trace=False)
        traced_pass = run_pass(wl, seed, work, deadline, jobs1=True, trace=True)
        compare_outputs(plain, traced_pass, "between the untraced and the traced pass")
        record["outputs_compared"] = len(plain.outputs)
        record["traced_matches_untraced"] = plain.outputs == traced_pass.outputs
        passes = [plain, traced_pass]
        metrics = layer_metrics(traced_pass.stats)
        metrics.update(command_seconds(wl, seed, plain))
        metrics["cli.import_s"] = statistics.median(c.seconds for c in probes)
        metrics["trace_overhead_frac"] = traced_pass.wall / plain.wall - 1.0
        record["samples"] = {"import_s": summary([c.seconds for c in probes])}
    else:
        # Set-ups and probes alternate with the passes, so that each metric
        # samples the whole run and not one moment of a noisy machine.
        passes = []
        while True:
            if len(probes) < PROBES:
                probe()
            p = run_pass(wl, seed, work, deadline, jobs1=False, trace=False)
            if passes:
                compare_outputs(passes[0], p, "between passes")
            passes.append(p)
            if len(probes) < PROBES:
                probe()
            if len(setup) < SETUP_REPS:
                set_up()
            measured = sum(q.wall for q in passes)
            if len(passes) >= wl.min_passes and measured >= seconds:
                break
            if time.monotonic() + p.wall > deadline:
                break
        while len(setup) < SETUP_REPS:
            set_up()
        while len(probes) < PROBES:
            probe()
        walls = [p.wall for p in passes]
        cold = [c.seconds for c in probes]
        scale = CALIBRATION_REF_S / statistics.median(calibration)
        metrics = {
            "setup_s": statistics.median(setup) * scale,
            "wall_s": statistics.median(walls) * scale,
            "peak_rss_mb": statistics.median(max(c.rss_mb for c in p.children) for p in passes),
            "cold_start_s": statistics.median(cold) * scale,
        }
        record["samples"] = {"setup_s": summary(setup), "wall_s": summary(walls),
                             "cold_start_s": summary(cold), "calibration_s": summary(calibration)}
        record["scale"] = scale
    for c in probes:
        attempted += 1
        if c.code != 0:
            failed += 1
            errors.append(f"{' '.join(c.argv[1:])} exited {c.code}: {c.output[-300:]}")
    for p in passes:
        attempted += len(p.children)
        failed += len(p.failed_ops)
        errors += p.errors
    if not trace:
        metrics["ok_frac"] = (attempted - failed) / attempted
    record["volatile_outputs_differed"] = any(p.volatile != passes[0].volatile for p in passes)
    record.update({"passes": len(passes), "errors": errors, "pass_seconds": [p.wall for p in passes],
                   "correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics})
    return record


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: 42 for experiment, 7 otherwise)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure passes for this long (at least min_passes passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dropoutlab" / "cli.py").is_file():
        print(f"error: no dropoutlab sources under {SRC}", file=sys.stderr)
        return 2
    # On SIGTERM, unwind through run_child, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    seed = WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
    units = declared_metrics(bool(args.trace))
    record = measure(args.workload, seed, args.seconds, bool(args.trace), WORK / args.workload)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for e in record["errors"]:
        print(f"check failed: {e}")
    print(json.dumps({"stamp": record["stamp"], "record": str(results / name)}))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": record["metrics"][k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
