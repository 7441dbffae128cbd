"""settings.forked, the package's one way to run work in worker processes;
settings.read_json, through which every JSON reader names a malformed file; and
settings.csv_cells, the CSV form of cells for a writer that assembles its own rows."""

import os
import re
import signal
import sys
import time
from functools import partial

import pytest

from dropoutlab import dataset
from dropoutlab.cli import main
from dropoutlab.deepnet import load_mlp
from dropoutlab.errors import BadConfigError, BadValueError, DropoutLabError
from dropoutlab.linear import load_model
from dropoutlab.settings import (CSV_DELIMITER, CSV_LINE_END, csv_cells, forked, usable_cores,
                                 write_csv)

from conftest import assert_no_child_left


def test_a_failed_call_cancels_the_queued_ones(tmp_path):
    """The first call raises while the rest wait in the queue: its error
    leaves the block, and the queued calls do not all run first."""
    def task(i):
        (tmp_path / str(i)).touch()
        if i == 0:
            raise ValueError("call 0 failed")
        time.sleep(0.1)

    with pytest.raises(ValueError, match="call 0 failed"):
        with forked(task, 1) as submit:
            results = [submit(i) for i in range(8)]
            for result in results:
                result()
    ran = {int(p.name) for p in tmp_path.iterdir()}
    assert 0 in ran and len(ran) < 8
    assert_no_child_left()


def test_leaving_the_block_drops_the_queued_calls(tmp_path):
    def task(i):
        (tmp_path / str(i)).touch()
        time.sleep(0.1)

    with forked(task, 1) as submit:
        for i in range(8):
            submit(i)
    assert len(list(tmp_path.iterdir())) < 8
    assert_no_child_left()


class _Unpicklable:
    def __reduce__(self):
        raise TypeError("this object is never pickled")


def _plus(obj, i):
    return i + 1


def test_workers_inherit_the_task_unpickled():
    """Each worker is a fork of this process, so the task reaches it without
    pickling; only each call's args and its result are pickled."""
    with forked(partial(_plus, _Unpicklable()), 2) as submit:
        assert [result() for result in [submit(i) for i in range(5)]] == [1, 2, 3, 4, 5]
    assert_no_child_left()


@pytest.mark.parametrize("end,how", [
    (lambda: os._exit(3), "exit status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"killed by signal {signal.SIGKILL:d}"),
], ids=["exit", "kill"])
def test_a_dead_worker_raises_one_error_naming_it(end, how):
    def task(i):
        if i == 1:
            end()
        return i

    with pytest.raises(DropoutLabError,
                       match=rf"^worker process \d+ ended during call 1 \({how}\)$"):
        with forked(task, 2) as submit:
            results = [submit(i) for i in range(4)]
            for result in results:
                result()
    assert_no_child_left()


@pytest.mark.skipif(usable_cores() < 2, reason="needs two usable cores")
def test_a_dead_worker_ends_the_command_with_exit_1(tmp_path, monkeypatch, capsys):
    """synth writes each course in a worker; one that dies is reported on one line."""
    monkeypatch.setattr(dataset, "write_course", lambda *args: os._exit(3))
    assert main(["synth", "--out", str(tmp_path / "c"), "--courses", "2",
                 "--students", "20"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: worker process \d+ ended during call \d \(exit status 3\)\n",
                        err)
    assert_no_child_left()


def test_without_fork_one_core_is_usable_and_no_worker_starts(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert usable_cores() == 1
    with pytest.raises(BadConfigError, match=re.escape(sys.platform)):
        with forked(_plus, 1):
            pass
    with forked(partial(_plus, None), 0) as submit:
        assert submit(1)() == 2


@pytest.mark.parametrize("row", [
    ("", ""), ("a\x00b", "\r", "\u00e9"), ("x y", "a,b", 'q"x', " lead", "a\nb", ""),
])
def test_csv_cells_make_the_line_write_csv_writes(tmp_path, row):
    write_csv(tmp_path / "t.csv", row, [])
    line = (tmp_path / "t.csv").read_bytes().decode("utf-8")
    assert CSV_DELIMITER.join(csv_cells(row)) + CSV_LINE_END == line


def _command(*argv):
    """A reader that runs the command on the file, which must exit 1; its error message."""
    def read(path, capsys):
        assert main([*argv, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        return err.removeprefix("error: ")
    return read


def _loader(load):
    """A reader that loads the file, which must raise BadValueError; its message."""
    def read(path, capsys):
        with pytest.raises(BadValueError) as e:
            load(path)
        return str(e.value)
    return read


_JSON_READERS = {
    "run-manifest": _command("run", "--manifest"),
    "synth-config": _command("synth", "--out", "unwritten", "--config"),
    "load_model": _loader(load_model),
    "load_mlp": _loader(load_mlp),
}

_MALFORMED_JSON = {
    "nested-past-the-parser": b"[" * 200_000 + b"]" * 200_000,
    "not-utf8": b'\xff{"layers": []}',
    "not-json": b"{not json",
}


@pytest.mark.parametrize("content", list(_MALFORMED_JSON.values()), ids=list(_MALFORMED_JSON))
@pytest.mark.parametrize("reader", list(_JSON_READERS.values()), ids=list(_JSON_READERS))
def test_each_json_reader_names_a_malformed_file(reader, content, tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.chdir(tmp_path)  # where synth would write
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    assert reader(path, capsys).startswith(f"{path}: not valid UTF-8 JSON (")
    assert sorted(tmp_path.iterdir()) == [path]
