"""Command-line behavior: exit codes, defaults, determinism, manifests."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dropoutlab
from dropoutlab.cli import build_parser, main
from dropoutlab.paradigms import PARADIGMS
from dropoutlab.settings import usable_cores

from conftest import assert_no_child_left, load_norm_stats


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

    def test_synth_help_shows_the_built_in_sizes(self, capsys):
        with pytest.raises(SystemExit):
            main(["synth", "--help"])
        out = " ".join(capsys.readouterr().out.split())  # unwrapped
        assert "(default: 4)" in out and "(default: 400)" in out


class TestExitCodes:
    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as e:
            main(["nosuchcommand"])
        assert e.value.code == 2

    def test_zero_epochs_is_usage_error(self, tmp_path, capsys):
        # found before the course is read: tmp_path holds no course
        assert main(["grow", "--course-dir", str(tmp_path), "--epochs", "0",
                     "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "usage error: grow: epochs 0 must be >= 1\n"

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

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_same_bytes_on_one_and_two_usable_cores(self, tmp_path, monkeypatch):
        """On one usable core the courses are written in this process; on two,
        by two forked workers, which have all ended when synth returns."""
        from dropoutlab import dataset, settings

        asked = []

        def forked(task, processes):
            asked.append(processes)
            return settings.forked(task, processes)
        monkeypatch.setattr(dataset, "forked", forked)
        usable = sorted(os.sched_getaffinity(0))
        found = []
        for cpus in (usable[:1], usable[:2]):
            os.sched_setaffinity(0, cpus)
            try:
                assert main(["synth", "--out", str(tmp_path / str(len(cpus))), "--courses", "3",
                             "--students", "50", "--seed", "4"]) == 0
            finally:
                os.sched_setaffinity(0, usable)
            assert_no_child_left()
            found.append(_dir_bytes(tmp_path / str(len(cpus))))
        assert asked == [0, 2 if len(usable) >= 2 else 0]
        assert found[0] == found[1] and len(found[0]) == 13

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

    def test_empty_config_is_one(self, tmp_path, capsys):
        config = tmp_path / "cc.json"
        config.write_text(json.dumps({"courses": []}))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "c")]) == 1
        assert capsys.readouterr().err == f"error: {config}: corpus config lists no course\n"
        assert not (tmp_path / "c").exists()

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

    def test_trained_model_deploys_through_the_stats_it_carries(self, course_dir, tmp_path,
                                                                capsys):
        """A model train wrote, read back and applied through its own stats,
        scores as the model fit in memory scores the z-scored snapshot it was
        fit on, and those scores give the training AUC train printed."""
        from dropoutlab.dataset import load_course_dir, week_date
        from dropoutlab.evaluate import auc_values
        from dropoutlab.features import apply_norm, build_matrix, normalize
        from dropoutlab.linear import fit_course_model, load_model, predict_proba

        out = tmp_path / "model.json"
        assert main(["train", "--course-dir", str(course_dir), "--week", "-2",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        course = load_course_dir(course_dir)
        m = build_matrix(course, week_date(course.meta, -2))
        model = load_model(out)
        scores = predict_proba(model, apply_norm(m, model.norm))
        fitted = fit_course_model(course, m)
        z = normalize(m, [m], "zscore")[1][0]
        assert scores.tobytes() == predict_proba(fitted, z).tobytes()
        assert printed == f"wrote {out} (training AUC {auc_values(scores, course.certified):.4f})\n"

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
# Under "out", run writes the report files and grow, on the run's course with the
# most certifiers, writes growth.csv and best_model.json.
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


# sha256 of every file synth writes, as written before the CSV writers shared one
# home: the built-in config at 2x40 (seed 3) and _SKIP_CONFIG through --config (seed 13)
_SYNTH_DIGESTS = {
    "builtin": {
        "SYN1x/activity.csv": "7a2c2cbea2f6c8b46c2a820a8f6a5ecc978aff027904c8db9ebce8dbf91d44d6",
        "SYN1x/course_meta.csv": "3eceb67f623c22af366a713ec506a219e0d26511237f9f83a58fa4f1c074d9a2",
        "SYN1x/demographics.csv": "00755533d7c463e6803290b71abae45d8649fa91f8d56e8787dd66eafa8e48e4",
        "SYN1x/grades.csv": "c4d7bf6b8a549abaf557229bac5ae827650030f17edbea8d182f1c03f4c3baed",
        "SYN2x/activity.csv": "d9765cf9155e1f6a82bf8c912aeb6b9f657916c7dd79b66c32e6c59dab2a4565",
        "SYN2x/course_meta.csv": "7447afb297be9764e897f36ba00c633fdc73cc85f7620464366c7e0a99911dc7",
        "SYN2x/demographics.csv": "f7068606c75bee0a77dc60cf966054ad2b4573faa1b957b2a393fdb4f2c18abc",
        "SYN2x/grades.csv": "18ede73736bc98bff88f9a39ae589e47de4aafe6372926cc78b48abd5955480f",
        "corpus_config.json": "55e929511bc2c4e1f7d69f8cf1a7e9a75f7cb841ec4a4e7f55b671a92027797a",
    },
    "config": {
        "KAx/activity.csv": "1bb70acb335f0047bb52f3655c81e5bc4c9294eb208bff2ec08d1a1072048221",
        "KAx/course_meta.csv": "6877c0469339e3eeb8df578a16a97b0792d0a4e84321d612138ebaa5a83893b7",
        "KAx/demographics.csv": "129dfb09c303833384f304a6625d0875146a7f26056498a6e62eccbf8f9a668f",
        "KAx/grades.csv": "2cf50cd757484a992136d2213803533a1d857a7a91dc25d99df49f6f0f1e2c84",
        "KBx/activity.csv": "495a3b810b9d4ee58b0512bbf882847bf287a3e5bcb6c056ba5fac8bc4cb171a",
        "KBx/course_meta.csv": "21784c48c998eaaf4e4035fe9a759013e0fee1b538db560602f6e953922cf6be",
        "KBx/demographics.csv": "8609cad7c3a9e62d0700193e06b51eca87624845ef639d68629dcf7136fac78e",
        "KBx/grades.csv": "f9451d2ae9315df08c25daec9b2740970dc15f0ded5caf21b6bf907aae01e570",
        "KCx/activity.csv": "2873129807dcf65ff50f9105aa5f478bb0e06e23dafcb03da9d0f6f6fb66c309",
        "KCx/course_meta.csv": "43986063eccbfc14ce6f9118e3aa887a4676e77c61a15b1f1bc70a97972a3ad0",
        "KCx/demographics.csv": "c56baea9925ec360a553e0c2b95d2678be2204527a264c5707e4e711b52fb413",
        "KCx/grades.csv": "6fcbf12b8986d319ec234da20679e76a279e1847ba3ad40cb261a46d62b31242",
        "KDx/activity.csv": "06e6e1d4c31e7ac7464b9bc5c5b24ce3bf6c987d789e2b4d8411c06dd03dbdb6",
        "KDx/course_meta.csv": "ad9d8aa803558c6c8ccc24135c98416e074ca1ec0d6c519c929a357879313a89",
        "KDx/demographics.csv": "d224930208aecf6dea6b78d6ea39bd889bec2d45b04448baa2b4ebc8b121d8e1",
        "KDx/grades.csv": "c2426476d366ac1119974b0af982bdd47f64c370ea88c5cb387f0988590ee4fb",
        "KEx/activity.csv": "6d98f2204adbcd6241b526bda67fb0cb37c54d752f142d3e417d0ed0ffbc697e",
        "KEx/course_meta.csv": "1d8aa642a35e6c38404335685f2a220c6e6b0ba9fcea56c3da5b4dc4b7b620b3",
        "KEx/demographics.csv": "3f6c6dc3db05cdde51a4f6a8667454283b091a48242d6146f92a09c2c5c3f684",
        "KEx/grades.csv": "912c9845fb4da2f78b5b2275b438559418aeeb2b2cefd89de1fee09bbdc6016d",
        "corpus_config.json": "106610008edc39546f5050537e76a8e95200328e5f1b624078c1ad6eea5f0484",
    },
}


class TestArtifactBytes:
    def test_synth_files_are_pinned(self, tmp_path):
        (tmp_path / "config.json").write_text(json.dumps(_SKIP_CONFIG))
        for out, options in (("builtin", ["--courses", "2", "--students", "40", "--seed", "3"]),
                             ("config", ["--config", str(tmp_path / "config.json"),
                                         "--seed", "13"])):
            assert main(["synth", *options, "--out", str(tmp_path / out)]) == 0
        found = {out: {p.as_posix(): hashlib.sha256(data).hexdigest()
                       for p, data in _dir_bytes(tmp_path / out).items()}
                 for out in ("builtin", "config")}
        assert found == _SYNTH_DIGESTS

    def test_features_and_train_files_are_pinned(self, course_dir, tmp_path):
        from dropoutlab.features import FEATURE_NAMES, PERCENTILE_COLUMNS

        for norm in ("zscore", "percentile", "none"):
            assert main(["features", "--course-dir", str(course_dir), "--week", "-1",
                         "--norm", norm, "--out", str(tmp_path / f"{norm}.csv")]) == 0
        for kind, week in (("post_hoc", ["--week", "-1"]), ("baseline1", [])):  # baseline1 reads no week
            assert main(["train", "--course-dir", str(course_dir), *week,
                         "--kind", kind, "--out", str(tmp_path / f"{kind}.json")]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert digests == _ARTIFACT_DIGESTS
        z, pc = (json.loads((tmp_path / f"{norm}.csv.norm.json").read_text())
                 for norm in ("zscore", "percentile"))
        assert z["names"] == pc["names"] == list(FEATURE_NAMES)
        assert pc["columns"] == list(PERCENTILE_COLUMNS)


    def test_grow_and_run_files_are_pinned(self, course_dir, tmp_path, monkeypatch):
        from dropoutlab import deepnet

        def digests(out):
            found = {}
            for p in sorted(out.iterdir()):
                data = p.read_bytes()
                if p.name == "growth.csv":  # without train_seconds, a wall-clock time
                    data = b"".join(b",".join(cells[:5] + cells[6:]) for cells in
                                    (line.split(b",") for line in data.splitlines(True)))
                found[p.name] = hashlib.sha256(data).hexdigest()
            return found

        for cores in (1, 2):  # grow forks a depth-chain worker on two
            monkeypatch.setattr(deepnet, "usable_cores", lambda: cores)
            root = tmp_path / f"{cores}-cores"
            grow = ["grow", "--course-dir", str(course_dir), "--seed", "4"]
            assert main([*grow, "--epochs", "1", "--out-dir", str(root / "default")]) == 0
            assert main([*grow, "--epochs", "2", "--width-to", "5", "--depth-to", "3",
                         "--fixed-width", "7", "--norm", "percentile",
                         "--out-dir", str(root / "fixed7")]) == 0
            root.mkdir(exist_ok=True)
            assert main(["run", "--manifest", str(_write_manifest(root))]) == 0
            corpus = root / "corpus"
            assert main(["synth", "--config", str(root / "config.json"), "--seed", "13",
                         "--out", str(corpus)]) == 0
            assert main(["grow", "--course-dir", str(corpus / "MBx"), "--seed", "13",
                         "--width-to", "4", "--depth-to", "3", "--fixed-width", "3",
                         "--epochs", "2", "--norm", "percentile",
                         "--out-dir", str(root / "out")]) == 0
            got = {name: digests(root / name) for name in ("default", "fixed7", "out")}
            assert got == _GROWTH_DIGESTS, cores

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

    def test_empty_corpus_config_is_one(self, tmp_path, capsys):
        manifest = _write_manifest(tmp_path)
        (tmp_path / "config.json").write_text(json.dumps({"courses": []}))
        assert main(["run", "--manifest", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'config.json'}: corpus config lists no course\n"
        assert not (tmp_path / "out").exists()

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
        # run writes no growth files; synth then grow on the run's course with the
        # most certifiers (MBx) and the same seed writes them
        manifest = _write_manifest(tmp_path, output_dir="outg")
        assert main(["run", "--manifest", str(manifest)]) == 0
        assert not (tmp_path / "outg" / "growth.csv").exists()
        assert not (tmp_path / "outg" / "best_model.json").exists()
        corpus = tmp_path / "corpus"
        assert main(["synth", "--config", str(tmp_path / "config.json"), "--seed", "13",
                     "--out", str(corpus)]) == 0
        out = tmp_path / "grown"
        assert main(["grow", "--course-dir", str(corpus / "MBx"), "--seed", "13",
                     "--width-to", "3", "--depth-to", "2", "--epochs", "2",
                     "--out-dir", str(out)]) == 0
        assert (out / "best_model.json").exists()
        lines = (out / "growth.csv").read_text().splitlines()
        # baseline + widths 2..3 + depth 2
        assert len(lines) == 1 + 1 + 2 + 1


class TestStrictManifest:
    @pytest.mark.parametrize("overrides,named", [
        ({"reg_c": 0.001}, "reg_c"),
        ({"master_seed": "13"}, "master_seed"),
        ({"paradigms": "post_hoc"}, "paradigms"),
        ({"growth_plan": {"epochs": 2}}, "growth_plan"),  # retired: grow sweeps networks
        ({"jobs": 1}, "jobs"),  # retired: --jobs sets the workers
        ({"jobs": 2}, "jobs"),
        ({"reg_C": 0}, "reg_C"),
        ({"holdout": 1.0}, "holdout"),
        ({"holdout": -0.1}, "holdout"),
        ({"split": 0.5}, "split"),  # a grow option, not a run key
    ])
    def test_bad_manifest_rejected_before_any_output(self, tmp_path, capsys, overrides, named):
        manifest = _write_manifest(tmp_path, **overrides)
        assert main(["run", "--manifest", str(manifest)]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_holdout_that_empties_a_side_fails_before_any_fit(self, tmp_path, capsys,
                                                             monkeypatch):
        from dropoutlab import paradigms

        monkeypatch.setattr(paradigms, "forked", lambda *a: pytest.fail("a phase started"))
        manifest = _write_manifest(tmp_path, paradigms=["post_hoc"], holdout=0.005)
        assert main(["run", "--manifest", str(manifest)]) == 1
        assert capsys.readouterr().err == (
            "error: course 'MAx': test fraction 0.005 leaves an empty side for n=60\n")
        assert not (tmp_path / "out").exists()


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


def _features(*options):
    def build(tmp_path, course_dir, env):
        return ["features", "--course-dir", str(course_dir), "--out", str(tmp_path / "out"),
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


def _beside_config(*options):
    """synth of a valid corpus config, given options that only the built-in config reads."""
    def build(tmp_path, course_dir, env):
        argv, _ = _course()(tmp_path, course_dir, env)
        return argv + list(options), []  # the usage error names no file
    return build


def _second_course(entry):
    """A corpus config of three courses, the second of which is entry."""
    return _corpus_config({"courses": [{"course_id": "Ax", "n_students": 20}, entry,
                                       {"course_id": "Cx", "n_students": 20}]})


def _run_of_config(doc):
    """run of a manifest whose corpus config is doc."""
    def build(tmp_path, course_dir, env):
        _, paths = _corpus_config(doc)(tmp_path, course_dir, env)
        path = _write_manifest(tmp_path, corpus_config_path=paths[0])
        return ["run", "--manifest", str(path)], paths
    return build


_OVER_FIELD_LIMIT = "x" * 200_000  # csv reads no cell over 131,072 characters


def _long_course_cell(name, line):
    """features of a copy of the course whose file name starts line with a cell
    over csv's field limit; the error names the file and the line."""
    def build(tmp_path, course_dir, env):
        copy = tmp_path / "course"
        shutil.copytree(course_dir, copy)
        path = copy / name
        lines = path.read_text().split("\n")
        lines[line - 1] = _OVER_FIELD_LIMIT + lines[line - 1][lines[line - 1].index(","):]
        path.write_text("\n".join(lines))
        return (["features", "--course-dir", str(copy), "--out", str(tmp_path / "out")],
                [f"{path}:{line}"])
    return build


def _long_report_cell(tmp_path, course_dir, env):
    """report of a rows.csv whose first row starts with a cell over csv's field limit."""
    from dropoutlab.evaluate import ROWS_COLUMNS

    path = tmp_path / "rows.csv"
    path.write_text(",".join(ROWS_COLUMNS) + f"\n{_OVER_FIELD_LIMIT},Ax,0,0.5,10,5\n")
    return ["report", "--rows", str(path), "--out-dir", str(tmp_path / "out")], [f"{path}:2"]


_PAST_CALENDAR = ["course 'SYN1x': week 2000000 falls past 9999-12-31"]

# Each bad input: the command, its exit code, and the words its error names; the
# error of a JSON input names the file too.
_MALFORMED = {
    "train-reg-c-inf": (_train("--reg-c", "inf"), 2, ["--reg-c", "inf"]),
    "train-reg-c-nan": (_train("--reg-c", "nan"), 2, ["--reg-c", "nan"]),
    # a value GrowthPlan or SgdConfig rejects is a usage error, as argparse's are
    "grow-learning-rate-inf": (_grow("--learning-rate", "inf"), 2,
                               ["usage error: grow: learning_rate inf must be positive"]),
    "grow-anneal-nan": (_grow("--anneal", "nan"), 2, ["usage error: grow: anneal nan"]),
    "grow-anneal-inf": (_grow("--anneal", "inf"), 2, ["usage error: grow: anneal inf"]),
    "grow-anneal-negative": (_grow("--anneal", "-1"), 2,
                             ["usage error: grow: anneal -1.0 must be >= 0"]),
    "grow-width-from-above-width-to": (_grow("--width-from", "5", "--width-to", "3"), 2,
                                       ["usage error: grow:", "width_from <= width_to",
                                        "5 and 3"]),
    "grow-width-from-zero": (_grow("--width-from", "0"), 2,
                             ["usage error: grow: need 1 <= width_from", "0 and 2"]),
    "grow-depth-from-one": (_grow("--depth-from", "1"), 2,
                            ["usage error: grow:", "2 <= depth_from", "1 and 2"]),
    "grow-epochs-zero": (_grow("--epochs", "0"), 2, ["usage error: grow: epochs 0 must be >= 1"]),
    "grow-split-above-one": (_grow("--split", "1.5"), 2,
                             ["usage error: grow: split must be in (0, 1), got 1.5"]),
    "grow-norm-unknown": (_grow("--norm", "minmax"), 2, ["--norm", "'minmax'"]),
    "grow-epochs-fraction": (_grow("--epochs", "2.7"), 2, ["--epochs", "'2.7'"]),
    "grow-momentum": (_grow("--momentum", "0.9"), 2, ["unrecognized arguments", "--momentum"]),
    "grow-class-weighting": (_grow("--class-weighting"), 2,
                             ["unrecognized arguments", "--class-weighting"]),
    "manifest-reg-c-inf": (_manifest(reg_C=float("inf")), 1, ["reg_C", "inf"]),
    # a manifest that still carries the retired growth_plan fails on the key itself,
    # before any of its values (once checked there) is read
    "growth-plan-anneal-nan": (_manifest(growth_plan={"anneal": float("nan")}), 1,
                               ["manifest: unknown key 'growth_plan'"]),
    "growth-plan-depth-from-one": (_manifest(growth_plan={"depth_from": 1}), 1,
                                   ["manifest: unknown key 'growth_plan'"]),
    "growth-plan-learning-rate-inf": (_manifest(growth_plan={"learning_rate": float("inf")}), 1,
                                      ["manifest: unknown key 'growth_plan'"]),
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
    "corpus-launch-basic-form": (_course(launch="20140106"), 1,
                                 ["corpus config 'Ax': launch: bad date '20140106'"]),
    "corpus-launch-week-form": (_course(launch="2014-W02-1"), 1,
                                ["corpus config 'Ax': launch: bad date '2014-W02-1'"]),
    "features-norm-none-stats-out": (_features("--norm", "none", "--stats-out", "s.json"), 2,
                                     ["--stats-out", "--norm none"]),
    "train-baseline1-week": (_train("--kind", "baseline1", "--week", "-1"), 2,
                             ["--week", "--kind baseline1"]),
    "features-week-after-end": (_features("--week", "99"), 1,
                                ["course 'SYN1x': as_of 2016-", "outside course window"]),
    "features-as-of-basic-form": (_features("--as-of", "20140201"), 2,
                                  ["--as-of", "'20140201' is not a YYYY-MM-DD date"]),
    "features-as-of-week-form": (_features("--as-of", "2014-W05-6"), 2,
                                 ["--as-of", "'2014-W05-6' is not a YYYY-MM-DD date"]),
    "corpus-unknown-key": (_course(bogus=1), 1, ["bogus"]),
    "corpus-n-students-zero": (_course(n_students=0), 1, ["'Ax'", "n_students 0"]),
    "corpus-second-course-weeks-zero": (
        _second_course({"course_id": "Bx", "n_students": 20, "weeks_to_t100": 0}),
        1, ["'Bx': need 1 <= weeks_to_t100", "0/10"]),
    "corpus-second-course-n-students-str": (
        _second_course({"course_id": "Bx", "n_students": "5"}),
        1, ["corpus config 'Bx': n_students must be an integer, got '5'"]),
    "corpus-second-course-launch-bad": (
        _second_course({"course_id": "Bx", "launch": "2014-13-01"}),
        1, ["corpus config 'Bx': launch: bad date '2014-13-01'"]),
    "corpus-second-course-unknown-key": (
        _second_course({"course_id": "Bx", "nstudents": 20}),
        1, ["corpus config 'Bx': unknown key 'nstudents'"]),
    "corpus-second-course-no-course-id": (
        _second_course({"n_students": 20}), 1, ["corpus config courses[1]: missing course_id"]),
    "corpus-second-course-id-int": (
        _second_course({"course_id": 7}),
        1, ["corpus config courses[1]: course_id must be a string, got 7"]),
    "corpus-second-course-not-object": (
        _second_course(5), 1, ["corpus config courses[1] must be an object"]),
    "manifest-not-utf8": (_not_utf8(_manifest()), 1, ["not valid UTF-8 JSON", "0xff"]),
    "corpus-config-not-utf8": (_not_utf8(_course()), 1, ["not valid UTF-8 JSON", "0xff"]),
    "synth-seed-negative": (_synth("--seed", "-1"), 2, ["--seed", "'-1'"]),
    "synth-courses-beside-config": (_beside_config("--courses", "9"), 2,
                                    ["usage error: --courses", "--config"]),
    "synth-students-beside-config": (_beside_config("--students", "5"), 2,
                                     ["usage error: --students", "--config"]),
    "grow-split-empties-a-side": (_grow("--split", "0.001"), 1, [
        "error: course 'SYN1x': test fraction 0.001 leaves an empty side for n=80"]),
    "grow-seed-negative": (_grow("--seed", "-2"), 2, ["--seed", "'-2'"]),
    "env-seed-negative": (_env_seed("-4", _grow()), 2, ["DROPOUTLAB_SEED", "'-4'"]),
    "manifest-master-seed-negative": (_manifest(master_seed=-3), 1, ["master_seed", "-3"]),
    "growth-plan-seed-negative": (_manifest(growth_plan={"seed": -1}), 1,
                                  ["manifest: unknown key 'growth_plan'"]),
    "demographics-cell-over-field-limit": (_long_course_cell("demographics.csv", 3), 1,
                                           ["field larger than field limit"]),
    "activity-cell-over-field-limit": (_long_course_cell("activity.csv", 6), 1,
                                       ["field larger than field limit"]),
    "report-cell-over-field-limit": (_long_report_cell, 1, ["field larger than field limit"]),
    "features-week-past-calendar": (_features("--week", "2000000"), 1, _PAST_CALENDAR),
    "train-week-past-calendar": (_train("--week", "2000000"), 1, _PAST_CALENDAR),
    "grow-week-past-calendar": (_grow("--week", "2000000"), 1, _PAST_CALENDAR),
    "features-week-long-before-launch": (_features("--week", "-2000000"), 1,
                                         ["course 'SYN1x': week -2000000 falls before launch"]),
    "corpus-weeks-total-past-calendar": (_course(weeks_total=2_000_000), 1,
                                         ["'Ax': weeks_total 2000000 ends past 9999-12-31"]),
    "run-weeks-total-past-calendar": (
        _run_of_config({"courses": [{"course_id": "Ax", "n_students": 20,
                                     "weeks_total": 2_000_000}]}),
        1, ["'Ax': weeks_total 2000000 ends past 9999-12-31"]),
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

    def test_diverging_depth_cell_exits_1_on_one_core_and_on_two(self, course_dir, tmp_path,
                                                                  monkeypatch, capsys):
        from dropoutlab import deepnet

        run = deepnet.run_cell

        def cell(teacher, phase, value, X_train, y_train, X_test, y_test, cfg, seed):
            if phase == "depth":  # features too large for the learning rate
                X_train, cfg = X_train * 1e200, replace(cfg, learning_rate=1e10)
            return run(teacher, phase, value, X_train, y_train, X_test, y_test, cfg, seed)

        monkeypatch.setattr(deepnet, "run_cell", cell)
        errors = []
        for cores in (1, 2):
            monkeypatch.setattr(deepnet, "usable_cores", lambda: cores)
            assert main(["grow", "--course-dir", str(course_dir), "--width-to", "3",
                         "--depth-to", "2", "--epochs", "1", "--out-dir", str(tmp_path)]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert re.fullmatch(r"error: training loss diverged at update \d+\n", errors[0])
        assert not (tmp_path / "growth.csv").exists()

    def test_bad_split_rejected(self, course_dir, tmp_path, capsys):
        rc = main(["grow", "--course-dir", str(course_dir), "--split", "1.5",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
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
        assert capsys.readouterr().err == (
            f"error: {rows}:3: cell (paradigm, course_id, week) ('baseline1', 'MAx', -4) "
            f"is listed twice, first on {rows}:2\n")
        assert not (tmp_path / "re").exists()

    def test_cell_both_scored_and_skipped_is_runtime_error(self, tmp_path, capsys):
        manifest = _write_manifest(tmp_path, paradigms=["baseline1"])
        assert main(["run", "--manifest", str(manifest)]) == 0
        out = tmp_path / "out"
        with open(out / "skipped.csv", "a", newline="") as f:
            f.write("baseline2,MAx,-9,single class\r\nbaseline1,MBx,-2,single class\r\n")
        line = next(k for k, text in enumerate((out / "rows.csv").read_text().splitlines(), 1)
                    if text.startswith("baseline1,MBx,-2,"))
        assert main(["report", "--rows", str(out / "rows.csv"),
                     "--out-dir", str(tmp_path / "re")]) == 1
        assert capsys.readouterr().err == (
            f"error: {out / 'skipped.csv'}:3: cell (paradigm, course_id, week) "
            f"('baseline1', 'MBx', -2) is listed twice, first on {out / 'rows.csv'}:{line}\n")
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

    @pytest.mark.parametrize("edit,expected", [
        (lambda out: (out / "rows.csv").write_bytes(b"\xff" + (out / "rows.csv").read_bytes()),
         "{out}/rows.csv: not UTF-8 text"),
        (lambda out: (out / "skipped.csv").write_bytes(
            b"paradigm,course_id,week,reason\r\nbaseline1,MAx,notint,single class\r\n"),
         "{out}/skipped.csv:2: invalid literal for int() with base 10: 'notint'"),
        (lambda out: (out / "rows.csv").write_bytes(
            re.sub(rb"^(baseline1,MAx,-3,)[^,]*", rb"\1nan", (out / "rows.csv").read_bytes(),
                   flags=re.M)),
         "{out}/rows.csv:3: auc nan outside [0, 1]"),
        (lambda out: (out / "rows.csv").write_bytes(
            re.sub(rb"^(baseline1,MAx,-3,[^,]*),[^,]*,[^,\r]*", rb"\1,-5,-7",
                   (out / "rows.csv").read_bytes(), flags=re.M)),
         "{out}/rows.csv:3: need 0 < n_positives -7 < n_students -5"),
        (lambda out: (out / "rows.csv").write_bytes(
            re.sub(rb"^(baseline1,MAx,-3,[^,]*,[^,]*),[^,\r]*", rb"\1,0",
                   (out / "rows.csv").read_bytes(), flags=re.M)),
         "{out}/rows.csv:3: need 0 < n_positives 0 < n_students 60"),
        (lambda out: (out / "rows.csv").write_bytes(
            re.sub(rb"^baseline1(,MAx,-3,)", rb"bogus\1", (out / "rows.csv").read_bytes(),
                   flags=re.M)),
         "{out}/rows.csv:3: no run writes the cell (paradigm, course_id, week) "
         "('bogus', 'MAx', -3)"),
        (lambda out: (out / "skipped.csv").write_bytes(
            b"paradigm,course_id,week,reason\r\nbaseline1,MAx,+8,single class\r\n"),
         "{out}/skipped.csv:2: no run writes the cell (paradigm, course_id, week) "
         "('baseline1', 'MAx', 8)"),
    ], ids=["not-utf8", "week-not-int", "auc-nan", "negative-counts", "no-positives",
            "unknown-paradigm", "week-after-0"])
    def test_bad_input_names_its_file_and_line(self, tmp_path, capsys, edit, expected):
        manifest = _write_manifest(tmp_path, paradigms=["baseline1"])
        assert main(["run", "--manifest", str(manifest)]) == 0
        out = tmp_path / "out"
        edit(out)
        assert main(["report", "--rows", str(out / "rows.csv"),
                     "--out-dir", str(tmp_path / "re")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {expected.format(out=out)}")
        assert not (tmp_path / "re").exists()

    def test_missing_rows_is_runtime_error(self, tmp_path):
        assert main(["report", "--rows", str(tmp_path / "no.csv"),
                     "--out-dir", str(tmp_path)]) == 1


class TestParserShape:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["synth", "--out", "x"])
        assert args.command == "synth"

    def test_week_and_as_of_exclusive(self, capsys):
        # --week 0 is the week a bare features call reads, and is rejected all the same
        for week in ("0", "-1"):
            week_then_date = ["--week", week, "--as-of", "2014-02-01"]
            for options in (week_then_date, week_then_date[2:] + week_then_date[:2]):
                with pytest.raises(SystemExit) as e:
                    build_parser().parse_args(["features", "--course-dir", "c", "--out", "m",
                                               *options])
                assert e.value.code == 2, options
                assert "not allowed with argument" in capsys.readouterr().err

    def test_grow_options_and_fields_are_one_set(self):
        from dataclasses import fields

        from dropoutlab.settings import GrowthPlan, SgdConfig

        grow = vars(build_parser().parse_args(["grow", "--course-dir", "c", "--out-dir", "o"]))
        dests = set(grow) - {"command", "course_dir", "out_dir"}
        named = {"week", "split", "norm", "seed"} | {f.name for c in (GrowthPlan, SgdConfig)
                                                     for f in fields(c)}
        assert dests == named


class TestRuntimeDependencies:
    def test_cli_import_loads_no_scipy(self):
        done = _python("-c", "import sys, dropoutlab.cli; "
                       "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Modules that only a command's work needs, and `python -m dropoutlab ARGS` that
# prints, as it exits, which of them were loaded. numpy.random is needed only to
# draw random numbers, and it loads OpenSSL (_hashlib) through secrets and hmac.
# settings.forked forks its workers itself, so no command loads a pool module.
_HEAVY = ("numpy", "numpy.random", "_hashlib", "concurrent.futures.process",
          "concurrent.futures.thread", "multiprocessing", "dropoutlab.deepnet")
_LOADED_AT_EXIT = f"""
import atexit, json, runpy, sys
atexit.register(lambda: print(json.dumps([m for m in {_HEAVY!r} if m in sys.modules])))
sys.argv[0] = "dropoutlab"
runpy.run_module("dropoutlab", run_name="__main__", alter_sys=True)
"""


def _python(*args, cpus=None, **env):
    """Run `python ARGS` on this package, the BLAS thread variables unset unless
    given in env, on the CPUs in cpus if given; returns the finished process."""
    base = {k: v for k, v in os.environ.items() if k not in _BLAS_THREADS}
    base.update(PYTHONPATH=str(Path(dropoutlab.__file__).parents[1]), **env)
    return subprocess.run([sys.executable, *args], env=base, capture_output=True, text=True,
                          timeout=120,
                          preexec_fn=None if cpus is None else
                          lambda: os.sched_setaffinity(0, cpus))


def _loaded(*args, code=0, cpus=None):
    """The heavy modules loaded by `python -m dropoutlab ARGS`, which must exit with code."""
    done = _python("-c", _LOADED_AT_EXIT, *args, cpus=cpus)
    assert done.returncode == code, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestStartup:
    """A command loads numpy and numpy.random (and with it OpenSSL) only when it
    runs work that needs them, and no command loads a process or a thread pool."""

    @pytest.mark.parametrize("args,code", [
        (["--help"], 0),
        (["grow", "--help"], 0),
        (["synth", "--courses", "0", "--out", "x"], 2),
        (["frobnicate"], 2),
        (["features", "--course-dir", "c", "--norm", "none", "--stats-out", "s", "--out", "m"], 2),
        (["train", "--course-dir", "c", "--kind", "baseline1", "--week", "0", "--out", "m"], 2),
        (["synth", "--config", "c", "--courses", "9", "--out", "x"], 2),
        (["synth", "--config", "c", "--students", "5", "--out", "x"], 2),
        (["grow", "--course-dir", "c", "--anneal", "inf", "--out-dir", "g"], 2),
        (["grow", "--course-dir", "c", "--split", "0", "--out-dir", "g"], 2),
    ], ids=["help", "grow-help", "bad-option", "unknown-command", "ignored-stats-out",
            "ignored-week", "ignored-courses", "ignored-students", "grow-bad-anneal",
            "grow-bad-split"])
    def test_parser_runs_on_the_standard_library(self, args, code):
        assert _loaded(*args, code=code) == []

    @pytest.mark.parametrize("overrides,code", [
        ({"paradigms": ["post_hoc", "tarot"]}, 2),
        ({"paradigms": ["baseline2", "baseline2"]}, 1),
        ({"reg_C": -1}, 1),
    ], ids=["unknown-paradigm", "repeated-paradigm", "malformed"])
    def test_run_checks_its_manifest_on_the_standard_library(self, tmp_path, overrides, code):
        manifest = _write_manifest(tmp_path, **overrides)
        assert _loaded("run", "--manifest", str(manifest), code=code) == []

    def test_import_runs_on_the_standard_library(self):
        done = _python("-c", f"import sys, dropoutlab.cli; "
                       f"print([m for m in {_HEAVY!r} if m in sys.modules])")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_only_a_pool_loads_the_pool(self, tmp_path):
        # a course drawn in this process loads numpy.random, and with it OpenSSL;
        # on two or more usable cores every course is drawn in a forked worker
        drawn = [] if usable_cores() >= 2 else ["numpy.random", "_hashlib"]
        manifest = _write_manifest(tmp_path, paradigms=["baseline1"])
        # run trains no network and starts no thread
        assert _loaded("run", "--manifest", str(manifest), "--jobs", "1") == ["numpy", *drawn]
        rows = str(tmp_path / "out" / "rows.csv")
        assert _loaded("report", "--rows", rows, "--out-dir", str(tmp_path / "re")) == ["numpy"]
        # a multi-course synth forks its writers on two or more usable cores and
        # starts no thread; reading a course loads no pool and draws nothing
        course = tmp_path / "corpus" / "MAx"
        assert _loaded("synth", "--config", str(tmp_path / "config.json"),
                       "--out", str(course.parent)) == ["numpy", *drawn]
        assert _loaded("features", "--course-dir", str(course),
                       "--out", str(tmp_path / "m.csv")) == ["numpy"]
        for kind in ("post_hoc", "baseline1"):
            assert _loaded("train", "--course-dir", str(course), "--kind", kind,
                           "--out", str(tmp_path / "m.json")) == ["numpy"], kind
        assert _loaded("run", "--manifest", str(manifest), "--jobs", "2") == ["numpy", *drawn]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_run_jobs_1_draws_its_corpus_here_exactly_on_one_usable_core(self, tmp_path):
        # the two-course corpus is drawn by one forked worker per course on two
        # or more usable cores, so only on one does the process itself load numpy.random
        manifest = _write_manifest(tmp_path, paradigms=["baseline1"])
        usable = sorted(os.sched_getaffinity(0))
        for cpus in (usable[:1], usable):
            loaded = _loaded("run", "--manifest", str(manifest), "--jobs", "1", cpus=cpus)
            assert loaded == (["numpy"] if len(cpus) >= 2
                              else ["numpy", "numpy.random", "_hashlib"]), cpus

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_grow_trains_its_depth_chain_in_a_worker_exactly_on_two_usable_cores(
            self, course_dir, tmp_path, monkeypatch):
        from dropoutlab import deepnet

        run = deepnet.run_cell

        def cell(teacher, phase, value, *args):  # a forked worker inherits the wrapper
            (tmp_path / f"{phase}-{value}").write_text(str(os.getpid()))
            return run(teacher, phase, value, *args)
        monkeypatch.setattr(deepnet, "run_cell", cell)
        grow = ["grow", "--course-dir", str(course_dir), "--width-to", "3", "--depth-to", "2",
                "--epochs", "1", "--out-dir", str(tmp_path / "out")]
        usable = sorted(os.sched_getaffinity(0))
        for cpus in (usable[:1], usable):
            assert _loaded(*grow, cpus=cpus) == [
                "numpy", "numpy.random", "_hashlib", "dropoutlab.deepnet"], cpus
            os.sched_setaffinity(0, cpus)
            try:
                assert main(grow) == 0
            finally:
                os.sched_setaffinity(0, usable)
            assert_no_child_left()
            depth = int((tmp_path / "depth-2").read_text())
            assert (depth == os.getpid()) == (len(cpus) == 1), cpus

    _ENV_AFTER_MAIN = """
import contextlib, io, json, os, sys
if sys.argv[1] == "numpy-first":
    import numpy
from dropoutlab.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    main(["--help"])
print(json.dumps([os.environ.get(v) for v in sys.argv[2:]]))
"""

    @pytest.mark.parametrize("order,env,expected", [
        ("main-first", {}, ["1", "1", "1"]),
        ("main-first", {"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"]),
        ("numpy-first", {}, [None, None, None]),
    ], ids=["unset", "caller-value-kept", "numpy-loaded"])
    def test_main_sets_one_blas_thread_before_numpy_loads(self, order, env, expected):
        done = _python("-c", self._ENV_AFTER_MAIN, order, *_BLAS_THREADS, **env)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == expected

    def test_jobs_write_the_same_bytes_with_blas_threads_unset(self, tmp_path):
        files = ("rows.csv", "skipped.csv", "aggregate.csv", "summary.txt")
        found = {}
        for jobs in ("1", "2"):
            manifest = _write_manifest(tmp_path, paradigms=list(PARADIGMS), output_dir=jobs)
            done = _python("-m", "dropoutlab", "run", "--manifest", str(manifest), "--jobs", jobs)
            assert done.returncode == 0, done.stderr
            found[jobs] = [(tmp_path / jobs / name).read_bytes() for name in files]
        assert found["1"] == found["2"]


# `python -m dropoutlab ARGS` that prints, as it exits, the package modules it loaded.
_MODULES_AT_EXIT = """
import atexit, json, runpy, sys
atexit.register(lambda: print(json.dumps(sorted(
    m.split(".")[1] for m in sys.modules if m.startswith("dropoutlab.")))))
sys.argv[0] = "dropoutlab"
runpy.run_module("dropoutlab", run_name="__main__", alter_sys=True)
"""


class TestCommandModules:
    """Each command loads the package modules of its own work: only run loads the
    multi-course harness (paradigms), and none loads a module for one small helper."""

    def test_each_command_loads_its_own_modules(self, tmp_path):
        manifest = _write_manifest(tmp_path)
        course = tmp_path / "corpus" / "MAx"
        course_work = ["dataset", "evaluate", "features"]
        commands = [
            (["synth", "--config", str(tmp_path / "config.json"), "--out", str(course.parent)],
             ["dataset"]),
            (["features", "--course-dir", str(course), "--out", str(tmp_path / "m.csv")],
             course_work),
            (["train", "--course-dir", str(course), "--out", str(tmp_path / "m.json")],
             course_work + ["linear"]),
            (["grow", "--course-dir", str(course), "--width-to", "2", "--depth-to", "2",
              "--epochs", "1", "--out-dir", str(tmp_path / "g")], course_work + ["deepnet"]),
            (["run", "--manifest", str(manifest)], course_work + ["linear", "paradigms"]),
            (["report", "--rows", str(tmp_path / "out" / "rows.csv"),
              "--out-dir", str(tmp_path / "re")], ["evaluate"]),
        ]
        for argv, work in commands:
            done = _python("-c", _MODULES_AT_EXIT, *argv)
            assert done.returncode == 0, done.stderr
            loaded = set(json.loads(done.stdout.splitlines()[-1]))
            assert loaded == {"cli", "errors", "settings", *work}, argv[0]
