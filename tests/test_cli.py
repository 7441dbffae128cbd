"""Command-line behavior: exit codes, defaults, determinism, manifests."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dropoutlab
from dropoutlab.cli import build_parser, main


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


class TestRuntimeDependencies:
    def test_cli_import_loads_no_scipy(self):
        env = dict(os.environ, PYTHONPATH=str(Path(dropoutlab.__file__).parents[1]))
        code = ("import sys, dropoutlab.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout
        assert out.strip() == "[]"
