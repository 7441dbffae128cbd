"""Command-line behavior: exit codes, defaults, determinism, manifests."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dropoutlab
from dropoutlab.cli import build_parser, main
from dropoutlab.paradigms import PARADIGMS


def _dir_bytes(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestHelp:
    def test_subcommands_listed(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--help"])
        assert e.value.code == 0
        out = capsys.readouterr().out
        for cmd in ("synth", "features", "train", "run", "grow", "report"):
            assert cmd in out

    def test_grow_help_shows_training_defaults(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["grow", "--help"])
        assert e.value.code == 0
        out = capsys.readouterr().out
        assert "default: 0.1" in out  # learning rate
        assert "default: 20" in out  # epochs
        assert "default: 10" in out  # minibatch size

    def test_train_help_shows_regularization_default(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        assert "default: 1.0" in capsys.readouterr().out


class TestExitCodes:
    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as e:
            main(["nosuchcommand"])
        assert e.value.code == 2

    def test_zero_epochs_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["grow", "--course-dir", str(tmp_path), "--epochs", "0",
                  "--out-dir", str(tmp_path)])
        assert e.value.code == 2

    def test_bad_env_seed_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DROPOUTLAB_SEED", "abc")
        with pytest.raises(SystemExit) as e:
            main(["synth", "--out", str(tmp_path / "c"), "--courses", "1",
                  "--students", "10"])
        assert e.value.code == 2
        assert "DROPOUTLAB_SEED" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()
        # an explicit --seed never reads the environment
        assert main(["synth", "--out", str(tmp_path / "c"), "--courses", "1",
                     "--students", "10", "--seed", "3"]) == 0

    def test_runtime_failure_is_one(self, tmp_path, capsys):
        rc = main(["features", "--course-dir", str(tmp_path / "missing"),
                   "--out", str(tmp_path / "m.csv")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_manifest_paradigm_is_two(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"courses": [
            {"course_id": "Ax", "n_students": 10}]}))
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "master_seed": 0, "corpus_config_path": "c.json",
            "paradigms": ["post_hoc", "tarot"], "output_dir": "out"}))
        rc = main(["run", "--manifest", str(manifest)])
        assert rc == 2
        assert "tarot" in capsys.readouterr().err

    def test_repeated_manifest_paradigm_is_one(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"courses": [
            {"course_id": "Ax", "n_students": 30}, {"course_id": "Bx", "n_students": 30}]}))
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "master_seed": 0, "corpus_config_path": "c.json",
            "paradigms": ["baseline2", "baseline2"], "output_dir": "out"}))
        rc = main(["run", "--manifest", str(manifest)])
        assert rc == 1
        assert "'baseline2'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "rows.csv").exists()

    def test_missing_manifest_is_one(self, tmp_path, capsys):
        rc = main(["run", "--manifest", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    def test_malformed_manifest_is_one(self, tmp_path, capsys):
        bad = tmp_path / "m.json"
        bad.write_text("{not json")
        assert main(["run", "--manifest", str(bad)]) == 1

    def test_success_is_zero(self, tmp_path):
        rc = main(["synth", "--out", str(tmp_path / "c"), "--courses", "1",
                   "--students", "20", "--seed", "3"])
        assert rc == 0


class TestSynth:
    def test_writes_course_dirs_and_config(self, tmp_path):
        out = tmp_path / "corpus"
        assert main(["synth", "--out", str(out), "--courses", "2",
                     "--students", "30", "--seed", "5"]) == 0
        assert (out / "corpus_config.json").exists()
        dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert len(dirs) == 2
        for d in dirs:
            for f in ("course_meta.csv", "demographics.csv",
                      "activity.csv", "grades.csv"):
                assert (out / d / f).exists()

    def test_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--out", str(out), "--courses", "2",
                         "--students", "40", "--seed", "11"]) == 0
        assert _dir_bytes(a) == _dir_bytes(b)

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--out", str(a), "--courses", "1", "--students", "40",
              "--seed", "1"])
        main(["synth", "--out", str(b), "--courses", "1", "--students", "40",
              "--seed", "2"])
        assert _dir_bytes(a) != _dir_bytes(b)

    def test_config_file_round_trip(self, tmp_path):
        out1 = tmp_path / "one"
        main(["synth", "--out", str(out1), "--courses", "2", "--students", "25",
              "--seed", "9"])
        out2 = tmp_path / "two"
        assert main(["synth", "--config", str(out1 / "corpus_config.json"),
                     "--out", str(out2), "--seed", "9"]) == 0
        a = {k: v for k, v in _dir_bytes(out1).items() if k.suffix == ".csv"}
        b = {k: v for k, v in _dir_bytes(out2).items() if k.suffix == ".csv"}
        assert a == b

    def test_env_seed_is_default(self, tmp_path, monkeypatch):
        env_out, flag_out = tmp_path / "env", tmp_path / "flag"
        monkeypatch.setenv("DROPOUTLAB_SEED", "77")
        main(["synth", "--out", str(env_out), "--courses", "1",
              "--students", "30"])
        monkeypatch.delenv("DROPOUTLAB_SEED")
        main(["synth", "--out", str(flag_out), "--courses", "1",
              "--students", "30", "--seed", "77"])
        assert _dir_bytes(env_out) == _dir_bytes(flag_out)

    def test_explicit_flag_beats_env(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("DROPOUTLAB_SEED", "77")
        main(["synth", "--out", str(a), "--courses", "1", "--students", "30",
              "--seed", "5"])
        monkeypatch.delenv("DROPOUTLAB_SEED")
        main(["synth", "--out", str(b), "--courses", "1", "--students", "30",
              "--seed", "5"])
        assert _dir_bytes(a) == _dir_bytes(b)


@pytest.fixture(scope="module")
def course_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_course")
    assert main(["synth", "--out", str(root), "--courses", "1",
                 "--students", "80", "--seed", "21"]) == 0
    return next(p for p in root.iterdir() if p.is_dir())


class TestFeaturesAndTrain:
    def test_features_output_parses(self, course_dir, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["features", "--course-dir", str(course_dir), "--week", "-1",
                     "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0].split(",")
        assert header[0] == "student_id" and len(header) == 67
        assert out.with_suffix(".csv.norm.json").exists()

    def test_features_none_norm_skips_stats(self, course_dir, tmp_path):
        out = tmp_path / "raw.csv"
        assert main(["features", "--course-dir", str(course_dir),
                     "--norm", "none", "--out", str(out)]) == 0
        assert not out.with_suffix(".csv.norm.json").exists()

    def test_stats_out_parent_is_created(self, course_dir, tmp_path, capsys):
        from dropoutlab.features import load_norm_stats

        out, stats = tmp_path / "m" / "m.csv", tmp_path / "s" / "t" / "s.json"
        assert main(["features", "--course-dir", str(course_dir), "--out", str(out),
                     "--stats-out", str(stats)]) == 0
        assert capsys.readouterr().out == f"wrote {out} and {stats}\n"
        assert out.exists() and load_norm_stats(stats).kind == "zscore"

    def test_train_writes_loadable_model(self, course_dir, tmp_path):
        from dropoutlab.linear import load_model

        out = tmp_path / "model.json"
        assert main(["train", "--course-dir", str(course_dir), "--week", "0",
                     "--out", str(out)]) == 0
        model = load_model(out)
        assert model.weights.shape == (66,)
        assert model.norm is not None

    def test_train_baseline1(self, course_dir, tmp_path):
        from dropoutlab.linear import load_model

        out = tmp_path / "b1.json"
        assert main(["train", "--course-dir", str(course_dir),
                     "--kind", "baseline1", "--out", str(out)]) == 0
        model = load_model(out)
        assert np.any(model.weights[:33] != 0.0)
        assert np.all(model.weights[33:] == 0.0)


# sha256 of each features and train file for course_dir at week -1, as the
# command wrote them before the feature layout became module constants
_ARTIFACT_DIGESTS = {
    "zscore.csv": "6065ba73c7dccda7886688a3454f15a67bb8b3f9478edd0f13f514aa769eb851",
    "zscore.csv.norm.json": "9daa2f396a58266e57b0ee118351ad2981f42a79b150b0cc0086727bd634a9f4",
    "percentile.csv": "b56472c043a8b99f44ba0457b83521c0b5eab4e4de2bda14a8fd8bcda1646396",
    "percentile.csv.norm.json": "2e49300190793efccedc40d84e86fb86f30b080ef5e9f18cdf8071d9cedf5fd9",
    "none.csv": "3f25f8397356d6a690aa7310c4818559ebbaa2827ca16b8455de4744c68049b8",
    "post_hoc.json": "958f25fc5878657024e6dbaa3c3f46cdf189e8a90fcff60223960e142eaa4637",
    "baseline1.json": "c0242eba5b26fccf339bf9e32aaa03117e48737d1d2b2ce26253584187b1e19f",
}


# grow and run outputs by directory; growth.csv is hashed without train_seconds.
_GROWTH_DIGESTS = {
    "default": {
        "best_model.json": "bc93aa194a538bd1eb5a12d9c5415cc3f15f30fa02211700da9b88571a754aa0",
        "growth.csv": "22ebfb9d2cae00da46a76bff366eda0eaa7384058b11e31bcb389e4f61a172db",
    },
    "fixed7": {
        "best_model.json": "4f776d3e61c1b4c40aa2782b9ca8bff94341bf0b5b824346c7b95c80a44fcfe9",
        "growth.csv": "36be514af785b80b9ddab1fbf9c74a0799d9a6685ab97bc102ad400185d0f412",
    },
    "out": {
        "aggregate.csv": "59e7b02f054b6016b2309bce4fc25612b8a43fde3f698bc1f2a1dfa763512b24",
        "best_model.json": "09d54ca23699256365d469667a8d73dba70b5ec022a08181a300aee65bd6fde1",
        "growth.csv": "c7a115b56d96ea65445adf483bc8e662532ca8e83b0eacb48c1139e791bcfadb",
        "rows.csv": "be72844c8743177486304456aaee377d5f262c9bcca68fb029d3feeff4a7f08d",
        "skipped.csv": "1b611979672478597917afca0e81f5194020d2ce670d155a9174329f963159ca",
        "summary.txt": "619bd9ca8c686783ab24c42db1d667029cd92407ae7a7b9e0ea765ade86acba4",
    },
}


# Nobody certifies in KBx, which every multi_course cell reads, and KEx has no
# same-field course.
_SKIP_CONFIG = {"courses": [
    {"course_id": "KAx", "field": "STEM", "n_students": 80, "weeks_to_t100": 4, "weeks_total": 5},
    {"course_id": "KBx", "field": "STEM", "n_students": 70, "weeks_to_t100": 5, "weeks_total": 6,
     "problems_for_full_grade": 1e6},
    {"course_id": "KCx", "field": "Hum", "n_students": 60, "weeks_to_t100": 4, "weeks_total": 5},
    {"course_id": "KDx", "field": "Hum", "n_students": 70, "launch": "2014-02-03",
     "weeks_to_t100": 3, "weeks_total": 4},
    {"course_id": "KEx", "field": "SocialSci", "n_students": 50, "weeks_to_t100": 4,
     "weeks_total": 5},
]}

# six-paradigm runs of _SKIP_CONFIG at holdout 0 with --jobs 1 (h0) and at holdout
# 0.3 with --jobs 2 (h3), as written before each cell's keys were planned once
_SKIP_RUN_DIGESTS = {
    "h0": {
        "aggregate.csv": "cab262b35429f43cf56ed064c5ce4ec8d9264180d9f93a365ccd85528fac2eba",
        "rows.csv": "d3d4464a13c55efc46c3dc8e9c539a6d9795702875a7df4c5d7fbca72d472a99",
        "skipped.csv": "0238dcddde5992e7233fde387bc55d65fd81fddab26ae416b90baa3f4d69dba7",
        "summary.txt": "64348a2fbfe240991cc196c649ef477f6d88e7d18d7d0da85031049874ed6224",
    },
    "h3": {
        "aggregate.csv": "26bf151a9a943837a5cd4240186ebe02e202fb04d5d929882e87864eeda67665",
        "rows.csv": "82574cdd8115bc654dd0f197ed00e56d93163cf7453375772a15cb5ddf3bb6bf",
        "skipped.csv": "0238dcddde5992e7233fde387bc55d65fd81fddab26ae416b90baa3f4d69dba7",
        "summary.txt": "0c8b07cb68f93cbc01b93a58506b11f9333d6d8bddc5958ee3cf2240b150b84b",
    },
}


class TestArtifactBytes:
    def test_features_and_train_files_are_pinned(self, course_dir, tmp_path):
        from dropoutlab.features import FEATURE_NAMES, PERCENTILE_COLUMNS

        for norm in ("zscore", "percentile", "none"):
            assert main(["features", "--course-dir", str(course_dir), "--week", "-1",
                         "--norm", norm, "--out", str(tmp_path / f"{norm}.csv")]) == 0
        for kind in ("post_hoc", "baseline1"):
            assert main(["train", "--course-dir", str(course_dir), "--week", "-1",
                         "--kind", kind, "--out", str(tmp_path / f"{kind}.json")]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert digests == _ARTIFACT_DIGESTS
        z, pc = (json.loads((tmp_path / f"{norm}.csv.norm.json").read_text())
                 for norm in ("zscore", "percentile"))
        assert z["names"] == pc["names"] == list(FEATURE_NAMES)
        assert pc["columns"] == list(PERCENTILE_COLUMNS)


    def test_grow_and_growth_plan_files_are_pinned(self, course_dir, tmp_path):
        def digests(out):
            found = {}
            for p in sorted(out.iterdir()):
                data = p.read_bytes()
                if p.name == "growth.csv":  # without train_seconds, a wall-clock time
                    data = b"".join(b",".join(cells[:5] + cells[6:]) for cells in
                                    (line.split(b",") for line in data.splitlines(True)))
                found[p.name] = hashlib.sha256(data).hexdigest()
            return found

        grow = ["grow", "--course-dir", str(course_dir), "--seed", "4"]
        assert main([*grow, "--epochs", "1", "--out-dir", str(tmp_path / "default")]) == 0
        assert main([*grow, "--epochs", "2", "--width-to", "5", "--depth-to", "3",
                     "--fixed-width", "7", "--norm", "percentile",
                     "--out-dir", str(tmp_path / "fixed7")]) == 0
        plan = {"width_to": 4, "depth_to": 3, "fixed_width": 3, "epochs": 2, "norm": "percentile"}
        assert main(["run", "--manifest", str(_write_manifest(tmp_path, growth_plan=plan))]) == 0
        got = {name: digests(tmp_path / name) for name in ("default", "fixed7", "out")}
        assert got == _GROWTH_DIGESTS


    def test_runs_with_both_skip_reasons_are_pinned(self, tmp_path, capsys):
        found = {}
        for out, holdout, jobs in (("h0", 0.0, "1"), ("h3", 0.3, "2")):
            manifest = _write_manifest(tmp_path, paradigms=list(PARADIGMS), holdout=holdout,
                                       output_dir=out)
            (tmp_path / "config.json").write_text(json.dumps(_SKIP_CONFIG))  # over the default
            assert main(["run", "--manifest", str(manifest), "--jobs", jobs]) == 0
            found[out] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                          for p in sorted((tmp_path / out).iterdir())}
            # the stdout line perfbench's experiment check parses for its counts
            counts = re.search(r"\((\d+) rows, (\d+) skipped cells\)", capsys.readouterr().out)
            assert counts and [int(c) for c in counts.groups()] == [
                len((tmp_path / out / name).read_text().splitlines()) - 1
                for name in ("rows.csv", "skipped.csv")]
        skipped = (tmp_path / "h3" / "skipped.csv").read_text()
        assert "single class" in skipped and "no other SocialSci course" in skipped
        assert found == _SKIP_RUN_DIGESTS


def _write_manifest(tmp_path, **overrides):
    config = {
        "courses": [
            {"course_id": "MAx", "field": "STEM", "n_students": 60,
             "weeks_to_t100": 4, "weeks_total": 5},
            {"course_id": "MBx", "field": "STEM", "n_students": 70,
             "weeks_to_t100": 5, "weeks_total": 6},
        ]
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    doc = {
        "master_seed": 13,
        "corpus_config_path": "config.json",
        "paradigms": ["post_hoc", "baseline2"],
        "reg_C": 1.0,
        "output_dir": "out",
    }
    doc.update(overrides)
    p = tmp_path / "manifest.json"
    p.write_text(json.dumps(doc))
    return p


class TestRun:
    def test_end_to_end_files(self, tmp_path):
        manifest = _write_manifest(tmp_path)
        assert main(["run", "--manifest", str(manifest)]) == 0
        out = tmp_path / "out"
        for f in ("rows.csv", "aggregate.csv", "summary.txt"):
            assert (out / f).exists()
        rows = (out / "rows.csv").read_text().splitlines()
        assert rows[0] == "paradigm,course_id,week,auc,n_students,n_positives"
        assert len(rows) > 1

    def test_matches_library_run(self, tmp_path):
        from dropoutlab.dataset import corpus_config_from_dict, synthesize_corpus
        from dropoutlab.evaluate import emit_report
        from dropoutlab.paradigms import run_experiment

        manifest = _write_manifest(tmp_path)
        assert main(["run", "--manifest", str(manifest)]) == 0
        config = corpus_config_from_dict(
            json.loads((tmp_path / "config.json").read_text()))
        corpus = synthesize_corpus(config, 13)
        report = run_experiment(corpus, ["post_hoc", "baseline2"], seed=13)
        emit_report(report, tmp_path / "expected")
        got = tmp_path / "out"
        for name in ("rows.csv", "aggregate.csv", "summary.txt"):
            assert (got / name).read_bytes() == (tmp_path / "expected" / name).read_bytes()

    def test_rerun_byte_identical(self, tmp_path):
        manifest = _write_manifest(tmp_path)
        assert main(["run", "--manifest", str(manifest)]) == 0
        first = _dir_bytes(tmp_path / "out")
        assert main(["run", "--manifest", str(manifest)]) == 0
        assert _dir_bytes(tmp_path / "out") == first

    def test_jobs_flag_equivalent(self, tmp_path):
        m1 = _write_manifest(tmp_path)
        assert main(["run", "--manifest", str(m1)]) == 0
        seq = _dir_bytes(tmp_path / "out")
        m2 = _write_manifest(tmp_path, output_dir="out_par")
        assert main(["run", "--manifest", str(m2), "--jobs", "3"]) == 0
        assert _dir_bytes(tmp_path / "out_par") == seq

    def test_growth_plan_outputs(self, tmp_path):
        manifest = _write_manifest(
            tmp_path,
            output_dir="outg",
            growth_plan={"width_to": 3, "depth_to": 2, "epochs": 2},
        )
        assert main(["run", "--manifest", str(manifest)]) == 0
        out = tmp_path / "outg"
        assert (out / "growth.csv").exists()
        assert (out / "best_model.json").exists()
        lines = (out / "growth.csv").read_text().splitlines()
        # baseline + widths 2..3 + depth 2
        assert len(lines) == 1 + 1 + 2 + 1


class TestStrictManifest:
    @pytest.mark.parametrize("overrides,named", [
        ({"reg_c": 0.001}, "reg_c"),
        ({"master_seed": "13"}, "master_seed"),
        ({"paradigms": "post_hoc"}, "paradigms"),
        ({"growth_plan": {"epoch": 1}}, "epoch"),
        ({"jobs": 0}, "jobs"),
        ({"jobs": 1.5}, "jobs"),
        ({"reg_C": 0}, "reg_C"),
        ({"holdout": 1.0}, "holdout"),
        ({"holdout": -0.1}, "holdout"),
        ({"growth_plan": {"split": 1.0}}, "split"),
        ({"growth_plan": {"norm": "minmax"}}, "norm"),
        ({"growth_plan": {"class_weighting": "false"}}, "class_weighting"),
        ({"growth_plan": {"epochs": 2.7}}, "epochs"),
        ({"growth_plan": {"seed": True}}, "seed"),
    ])
    def test_bad_manifest_rejected_before_any_output(self, tmp_path, capsys, overrides, named):
        manifest = _write_manifest(tmp_path, **overrides)
        assert main(["run", "--manifest", str(manifest)]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out" / "rows.csv").exists()


def _exit_code(argv):
    """main's return value, or argparse's usage exit; any other exception escapes."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


def _grow(*options):
    def build(tmp_path, course_dir, env):
        return ["grow", "--course-dir", str(course_dir), "--epochs", "1", "--width-to", "2",
                "--depth-to", "2", "--out-dir", str(tmp_path / "g"), *options], []
    return build


def _train(*options):
    def build(tmp_path, course_dir, env):
        return ["train", "--course-dir", str(course_dir), "--out", str(tmp_path / "m.json"),
                *options], []
    return build


def _manifest(**overrides):
    def build(tmp_path, course_dir, env):
        path = _write_manifest(tmp_path, **overrides)
        return ["run", "--manifest", str(path)], [str(path)]
    return build


def _synth(*options):
    def build(tmp_path, course_dir, env):
        return ["synth", "--courses", "1", "--students", "10", "--out", str(tmp_path / "c"),
                *options], []
    return build


def _env_seed(value, build):
    """build, with DROPOUTLAB_SEED set to value while the command runs."""
    def with_env(tmp_path, course_dir, env):
        env.setenv("DROPOUTLAB_SEED", value)
        return build(tmp_path, course_dir, env)
    return with_env


def _corpus_config(doc):
    def build(tmp_path, course_dir, env):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(doc))
        return ["synth", "--config", str(path), "--out", str(tmp_path / "c")], [str(path)]
    return build


def _not_utf8(build):
    """build, with a 0xFF byte put before the JSON file whose path it names."""
    def prefixed(tmp_path, course_dir, env):
        argv, paths = build(tmp_path, course_dir, env)
        path = Path(paths[0])
        path.write_bytes(b"\xff" + path.read_bytes())
        return argv, paths
    return prefixed


def _course(**values):
    return _corpus_config({"courses": [{"course_id": "Ax", "n_students": 20, **values}]})


# Each bad input: the command, its exit code, and the words its error names; the
# error of a JSON input names the file too.
_MALFORMED = {
    "train-reg-c-inf": (_train("--reg-c", "inf"), 2, ["--reg-c", "inf"]),
    "train-reg-c-nan": (_train("--reg-c", "nan"), 2, ["--reg-c", "nan"]),
    "grow-learning-rate-inf": (_grow("--learning-rate", "inf"), 2, ["--learning-rate", "inf"]),
    "grow-anneal-nan": (_grow("--anneal", "nan"), 1, ["anneal", "nan"]),
    "grow-anneal-inf": (_grow("--anneal", "inf"), 1, ["anneal", "inf"]),
    "grow-anneal-negative": (_grow("--anneal", "-1"), 1, ["grow: anneal -1.0 must be >= 0"]),
    "grow-width-from-above-width-to": (_grow("--width-from", "5", "--width-to", "3"), 1,
                                       ["width_from <= width_to", "5 and 3"]),
    "grow-depth-from-one": (_grow("--depth-from", "1"), 1, ["2 <= depth_from", "1 and 2"]),
    "manifest-reg-c-inf": (_manifest(reg_C=float("inf")), 1, ["reg_C", "inf"]),
    "growth-plan-anneal-nan": (_manifest(growth_plan={"anneal": float("nan")}), 1,
                               ["growth_plan", "anneal"]),
    "growth-plan-depth-from-one": (_manifest(growth_plan={"depth_from": 1}), 1,
                                   ["growth_plan", "2 <= depth_from", "1 and 10"]),
    "growth-plan-learning-rate-inf": (_manifest(growth_plan={"learning_rate": float("inf")}), 1,
                                      ["growth_plan", "learning_rate"]),
    "manifest-output-dir-int": (_manifest(output_dir=5), 1, ["output_dir"]),
    "manifest-config-path-int": (_manifest(corpus_config_path=5), 1, ["corpus_config_path"]),
    "corpus-courses-int": (_corpus_config({"courses": 5}), 1, ["courses"]),
    "corpus-n-students-str": (_course(n_students="x"), 1, ["n_students", "'x'"]),
    "corpus-n-students-fraction": (_course(n_students=10.5), 1, ["n_students", "10.5"]),
    "corpus-cert-threshold-null": (_course(cert_threshold=None), 1, ["cert_threshold", "None"]),
    "corpus-cert-threshold-nan": (_course(cert_threshold=float("nan")), 1,
                                  ["cert_threshold", "nan"]),
    "corpus-weeks-fraction": (_course(weeks_to_t100=2.5), 1, ["weeks_to_t100", "2.5"]),
    "corpus-survey-rate-bool": (_course(survey_rate=True), 1, ["survey_rate", "True"]),
    "corpus-launch-int": (_course(launch=20140106), 1, ["launch", "20140106"]),
    "corpus-unknown-key": (_course(bogus=1), 1, ["bogus"]),
    "corpus-n-students-zero": (_course(n_students=0), 1, ["'Ax'", "n_students 0"]),
    "corpus-second-course-weeks-zero": (
        _corpus_config({"courses": [{"course_id": c, "n_students": 20, **values} for c, values in
                                    (("Ax", {}), ("Bx", {"weeks_to_t100": 0}), ("Cx", {}))]}),
        1, ["'Bx': need 1 <= weeks_to_t100", "0/10"]),
    "manifest-not-utf8": (_not_utf8(_manifest()), 1, ["not valid UTF-8 JSON", "0xff"]),
    "corpus-config-not-utf8": (_not_utf8(_course()), 1, ["not valid UTF-8 JSON", "0xff"]),
    "synth-seed-negative": (_synth("--seed", "-1"), 2, ["--seed", "'-1'"]),
    "grow-seed-negative": (_grow("--seed", "-2"), 2, ["--seed", "'-2'"]),
    "env-seed-negative": (_env_seed("-4", _grow()), 2, ["DROPOUTLAB_SEED", "'-4'"]),
    "manifest-master-seed-negative": (_manifest(master_seed=-3), 1, ["master_seed", "-3"]),
    "growth-plan-seed-negative": (_manifest(growth_plan={"seed": -1}), 1,
                                  ["growth_plan", "seed -1"]),
}


class TestMalformedInput:
    @pytest.mark.parametrize("build,code,named", list(_MALFORMED.values()), ids=list(_MALFORMED))
    def test_fails_with_an_error_line(self, build, code, named, course_dir, tmp_path, capsys,
                                      monkeypatch):
        argv, paths = build(tmp_path, course_dir, monkeypatch)
        assert _exit_code(argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        for word in named + paths:
            assert word in err
        assert not (tmp_path / "g").exists() and not (tmp_path / "c").exists()
        assert not (tmp_path / "m.json").exists() and not (tmp_path / "out").exists()


class TestGrowCommand:
    def test_sweep_and_best_model(self, course_dir, tmp_path):
        from dropoutlab.deepnet import load_mlp

        out = tmp_path / "g"
        assert main(["grow", "--course-dir", str(course_dir), "--week", "-1",
                     "--width-to", "3", "--depth-to", "2", "--epochs", "2",
                     "--seed", "4", "--out-dir", str(out)]) == 0
        lines = (out / "growth.csv").read_text().splitlines()
        assert lines[0] == "phase,w,h,auc,accuracy,train_seconds,seed"
        assert len(lines) == 5
        net = load_mlp(out / "best_model.json")
        assert net.input_dim == 66

    def test_bad_split_rejected(self, course_dir, tmp_path, capsys):
        rc = main(["grow", "--course-dir", str(course_dir), "--split", "1.5",
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "split" in capsys.readouterr().err


class TestReportCommand:
    def test_recomputes_identical_outputs(self, tmp_path):
        manifest = _write_manifest(tmp_path)
        assert main(["run", "--manifest", str(manifest)]) == 0
        out = tmp_path / "out"
        re_out = tmp_path / "re"
        assert main(["report", "--rows", str(out / "rows.csv"),
                     "--out-dir", str(re_out)]) == 0
        for name in ("rows.csv", "aggregate.csv", "summary.txt"):
            assert (re_out / name).read_bytes() == (out / name).read_bytes()

    def test_round_trip_keeps_skipped_cells(self, tmp_path):
        manifest = _write_manifest(tmp_path, paradigms=["post_hoc", "same_field"])
        (tmp_path / "config.json").write_text(json.dumps({"courses": [
            {"course_id": "MAx", "field": "STEM", "n_students": 60,
             "weeks_to_t100": 4, "weeks_total": 5},
            {"course_id": "HAx", "field": "Hum", "n_students": 50,
             "weeks_to_t100": 4, "weeks_total": 5},
        ]}))
        assert main(["run", "--manifest", str(manifest)]) == 0
        out = tmp_path / "out"
        assert "skipped cells: 0" not in (out / "summary.txt").read_text()
        assert main(["report", "--rows", str(out / "rows.csv"),
                     "--out-dir", str(tmp_path / "re")]) == 0
        for name in ("rows.csv", "skipped.csv", "aggregate.csv", "summary.txt"):
            assert (tmp_path / "re" / name).read_bytes() == (out / name).read_bytes()

    def test_missing_skipped_file_is_runtime_error(self, tmp_path, capsys):
        manifest = _write_manifest(tmp_path)
        assert main(["run", "--manifest", str(manifest)]) == 0
        (tmp_path / "out" / "skipped.csv").unlink()
        assert main(["report", "--rows", str(tmp_path / "out" / "rows.csv"),
                     "--out-dir", str(tmp_path / "re")]) == 1
        assert "skipped.csv" in capsys.readouterr().err

    def test_repeated_row_is_runtime_error(self, tmp_path, capsys):
        manifest = _write_manifest(tmp_path, paradigms=["baseline1"])
        assert main(["run", "--manifest", str(manifest)]) == 0
        rows = tmp_path / "out" / "rows.csv"
        lines = rows.read_bytes().splitlines(keepends=True)
        assert lines[1].startswith(b"baseline1,MAx,-4,")
        rows.write_bytes(b"".join(lines[:2] + lines[1:]))
        assert main(["report", "--rows", str(rows), "--out-dir", str(tmp_path / "re")]) == 1
        assert "('baseline1', 'MAx', -4)" in capsys.readouterr().err
        assert not (tmp_path / "re").exists()

    @pytest.mark.parametrize("edit,cells", [
        (lambda line: line.rsplit(b",", 1)[0], 5),
        (lambda line: line + b",7", 7),
    ], ids=["short", "long"])
    def test_row_of_wrong_length_is_runtime_error(self, tmp_path, capsys, edit, cells):
        manifest = _write_manifest(tmp_path, paradigms=["baseline1"])
        assert main(["run", "--manifest", str(manifest)]) == 0
        rows = tmp_path / "out" / "rows.csv"
        lines = rows.read_bytes().splitlines(keepends=True)
        lines[2] = edit(lines[2].rstrip(b"\r\n")) + b"\r\n"
        rows.write_bytes(b"".join(lines))
        assert main(["report", "--rows", str(rows), "--out-dir", str(tmp_path / "re")]) == 1
        assert f"{rows}:3: expected 6 cells, got {cells}" in capsys.readouterr().err
        assert not (tmp_path / "re").exists()

    def test_missing_rows_is_runtime_error(self, tmp_path):
        assert main(["report", "--rows", str(tmp_path / "no.csv"),
                     "--out-dir", str(tmp_path)]) == 1


class TestParserShape:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["synth", "--out", "x"])
        assert args.command == "synth"

    def test_week_and_as_of_exclusive(self):
        parser = build_parser()
        with pytest.raises(SystemExit) as e:
            parser.parse_args(["features", "--course-dir", "c", "--out", "m",
                               "--week", "-1", "--as-of", "2014-02-01"])
        assert e.value.code == 2

    def test_grow_options_growth_plan_keys_and_fields_are_one_set(self, tmp_path):
        from dataclasses import fields

        from dropoutlab.cli import _growth_from_manifest, _growth_setup
        from dropoutlab.deepnet import GrowthPlan, SgdConfig
        from dropoutlab.errors import BadConfigError

        grow = vars(build_parser().parse_args(["grow", "--course-dir", "c", "--out-dir", "o"]))
        dests = set(grow) - {"command", "course_dir", "out_dir"}
        named = {"week", "split", "norm", "seed"} | {f.name for c in (GrowthPlan, SgdConfig)
                                                     for f in fields(c)}

        def accepted(key):
            plan = {key: grow.get(key, 1)}
            try:
                _growth_from_manifest({"master_seed": 0, "growth_plan": plan}, tmp_path / "m.json")
            except BadConfigError as e:
                assert f"unknown key {key!r}" in str(e)
                return False
            return True

        candidates = set(grow) | named | {"widths", "depths", "anneal_rate"}
        assert {key for key in candidates if accepted(key)} == dests == named
        # a growth_plan of grow's defaults plans grow's default sweep
        doc = {"master_seed": 0, "growth_plan": {key: grow[key] for key in dests}}
        assert _growth_from_manifest(doc, tmp_path / "m.json") == _growth_setup(grow, "grow")


class TestRuntimeDependencies:
    def test_cli_import_loads_no_scipy(self):
        env = dict(os.environ, PYTHONPATH=str(Path(dropoutlab.__file__).parents[1]))
        code = ("import sys, dropoutlab.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout
        assert out.strip() == "[]"
