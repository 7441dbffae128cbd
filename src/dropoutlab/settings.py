"""What the command line needs before numpy loads, on the standard library
alone: the paradigm names, so that run checks a manifest's list up front; a
growth sweep's settings, so that grow's options can be shown and checked; and
the one date form (YYYY-MM-DD) that files and options take. Also the
package's one CSV form (read_csv, write_csv, and csv_cells for a writer that
assembles its own rows) and one JSON form (read_json, write_json), the usable
core count, and its one way to run work in parallel: in worker processes
forked from this one (forked), so that only each call's args and result are pickled."""

import csv
import datetime
import io
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, count
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

from .errors import (BadConfigError, BadValueError, DropoutLabError, InvalidParadigmError,
                     SchemaMismatchError)

# The training regimes a run compares: four paradigms, then two baselines (see paradigms).
PARADIGMS: tuple[str, ...] = (
    "post_hoc", "same_field", "multi_course", "in_situ", "baseline1", "baseline2",
)


def check_paradigms(kinds: Sequence[str]) -> None:
    """InvalidParadigmError at the first of kinds that is no paradigm or is listed
    a second time: a repeated kind's rows would enter every aggregate twice."""
    for i, kind in enumerate(kinds):
        if kind not in PARADIGMS:
            raise InvalidParadigmError(f"unknown paradigm {kind!r}")
        if kind in kinds[:i]:
            raise InvalidParadigmError(f"paradigm {kind!r} is listed more than once")


@dataclass(frozen=True)
class SgdConfig:
    """Minibatch SGD controls for train_sgd, which needs 0/1 labels.

    Each field is named as grow's option for it. There is one update rule:
    update k (counting from 0) computes the gradient g of the batch's mean
    cross-entropy (in deepnet._step) and moves the parameters by -lr_k * g,
    where lr_k = learning_rate * (1 + anneal) ** (-k), one multiplicative
    anneal step per minibatch.
    """

    learning_rate: float = 0.1
    epochs: int = 20
    minibatch_size: int = 10
    anneal: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < math.inf:
            raise BadConfigError(f"learning_rate {self.learning_rate} must be positive and finite")
        if self.epochs < 1:
            raise BadConfigError(f"epochs {self.epochs} must be >= 1")
        if self.minibatch_size < 1:
            raise BadConfigError(f"minibatch_size {self.minibatch_size} must be >= 1")
        if not 0 <= self.anneal < math.inf:
            raise BadConfigError(f"anneal {self.anneal} must be >= 0 and finite")
        if self.seed < 0:
            raise BadConfigError(f"seed {self.seed} must be >= 0")


@dataclass(frozen=True)
class GrowthPlan:
    """The sweep of deepnet.grow_and_train, each field named as grow's option for it:
    one hidden layer of widths width_from..width_to, then depths
    depth_from..depth_to at fixed_width units per layer (both ranges inclusive).
    """

    width_from: int = 2
    width_to: int = 15
    depth_from: int = 2
    depth_to: int = 10
    fixed_width: int = 5

    def __post_init__(self) -> None:
        if not 1 <= self.width_from <= self.width_to:
            raise BadConfigError(f"need 1 <= width_from <= width_to, "
                                 f"got {self.width_from} and {self.width_to}")
        if not 2 <= self.depth_from <= self.depth_to:  # depth 1 is the width phase's
            raise BadConfigError(f"need 2 <= depth_from <= depth_to, "
                                 f"got {self.depth_from} and {self.depth_to}")
        if self.fixed_width < 1:
            raise BadConfigError(f"fixed_width {self.fixed_width} must be >= 1")


_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_date(text: str) -> datetime.date:
    """A YYYY-MM-DD date. Any other text raises ValueError, also the other
    ISO 8601 forms that date.fromisoformat takes, such as 20140106 and 2014-W02-1."""
    if not _DATE.fullmatch(text):
        raise ValueError(f"{text!r} is not a YYYY-MM-DD date")
    return datetime.date.fromisoformat(text)


def usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the OS has one, at
    least 1; and 1 where the OS cannot fork, so no worker would run on the others."""
    if not hasattr(os, "fork"):
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cores or 1


def read_csv(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """(line, cells) of a CSV table: first its header as it is, then each
    non-blank row, with the line the row ends on. Nothing for an empty file.

    The file must be UTF-8 text and each row must have one cell per header
    cell; otherwise BadValueError names the file, and the line of the row.
    """
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader, None)
            if header is not None:
                yield reader.line_num, header
            for row in filter(None, reader):  # nothing is left after no header
                if len(row) != len(header):
                    raise BadValueError(
                        f"{path}:{reader.line_num}: expected {len(header)} cells, got {len(row)}")
                yield reader.line_num, row
        except UnicodeDecodeError as e:
            raise BadValueError(f"{path}: not UTF-8 text ({e})") from None
        except csv.Error as e:  # a cell longer than csv's field limit
            raise BadValueError(f"{path}:{reader.line_num}: {e}") from None


# The cell separator and row end of the package's CSV dialect, csv's default
CSV_DELIMITER, CSV_LINE_END = ",", "\r\n"


def _csv_writer(f):
    return csv.writer(f, delimiter=CSV_DELIMITER, lineterminator=CSV_LINE_END)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV table in UTF-8 and csv's default dialect: the header, then
    rows. A float cell is written as its repr."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = _csv_writer(f)
        w.writerow(header)
        w.writerows(rows)


def csv_cells(texts: Iterable[str]) -> list[str]:
    """Each of texts as write_csv writes it as one cell of a row of several,
    quoted where the dialect needs it. Joined by CSV_DELIMITER and ended with
    CSV_LINE_END, such cells make the line write_csv writes for their row."""
    f = io.StringIO()
    write = _csv_writer(f).writerow  # returns the characters it wrote
    # a row of one empty cell is written '""', so each text is written with a second cell
    ends = list(accumulate(write((text, "")) for text in texts))
    rows, tail = f.getvalue(), len(CSV_DELIMITER + CSV_LINE_END)
    return [rows[start:end - tail] for start, end in zip([0] + ends, ends)]


def read_json(path: str | Path, parse: Callable):
    """parse(the JSON document in path); every failure but an OSError names the file.

    A file that is not UTF-8 JSON, or that nests deeper than the parser goes,
    raises BadValueError, and so does a document that parse rejects (a
    KeyError as "missing key '...'"); a SchemaMismatchError keeps its class.
    """
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except (ValueError, RecursionError) as e:  # not UTF-8 or not JSON; too deep
            raise BadValueError(f"{path}: not valid UTF-8 JSON ({e})") from None
    try:
        return parse(doc)
    except SchemaMismatchError as e:
        raise SchemaMismatchError(f"{path}: {e}") from None
    except KeyError as e:
        raise BadValueError(f"{path}: missing key {e}") from None
    except (AttributeError, TypeError, ValueError, DropoutLabError) as e:
        raise BadValueError(f"{path}: {e}") from None


def write_json(path: str | Path, doc, *, compact: bool = False, sort_keys: bool = False) -> None:
    """Write doc as UTF-8 JSON and a final newline: one space of indent per
    level, or with compact on one line."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=None if compact else 1, sort_keys=sort_keys)
        f.write("\n")


def _send(fd: int, message) -> None:
    """Write message to the pipe fd, pickled, after the pickle's length in 8 bytes."""
    import pickle

    data = pickle.dumps(message)
    for part in (len(data).to_bytes(8, "little"), memoryview(data)):
        while part:
            part = part[os.write(fd, part):]


def _receive(pipe: BinaryIO):
    """The next message on the pipe, unpickled; None where the pipe ends first."""
    import pickle

    size = int.from_bytes(pipe.read(8), "little")
    data = pipe.read(size)
    return pickle.loads(data) if size and len(data) == size else None


def _serve(task: Callable, calls: BinaryIO, results: int) -> None:
    """Run task on each (index, args) call read from calls until that pipe ends,
    and write (index, True, its value) or (index, False, its error) to results."""
    while (call := _receive(calls)) is not None:
        try:
            reply = (call[0], True, task(*call[1]))
        except Exception as e:
            reply = (call[0], False, e)
        _send(results, reply)


@contextmanager
def forked(task: Callable, processes: int):
    """Yield submit(*args), which returns a callable of no arguments that gives
    task(*args) or raises its error.

    With processes >= 1, the calls run on that many worker processes forked
    from this one as the block starts, so each inherits task and what it holds;
    only a call's args and its result or error are pickled. A worker that ends
    during a call raises DropoutLabError naming its pid, the call and how it
    ended. Leaving the block drops the queued calls and reaps every worker,
    killed first when the block raises. With processes 0, a call runs in this
    process when its result is asked for. A fork copies only the thread that
    forks, so the package starts no thread whose locks a worker could inherit.
    """
    if processes == 0:
        yield lambda *args: partial(task, *args)
        return
    if not hasattr(os, "fork"):
        raise BadConfigError(f"{sys.platform} cannot fork worker processes")
    import select
    import signal

    workers: list[tuple[int, int, BinaryIO]] = []  # (pid, calls pipe, results pipe)
    # busy: by results pipe, its worker and the index of the call it runs;
    # queued: (index, args) of each call not handed out; done: by index, (ok, value)
    busy, queued, done, indices = {}, [], {}, count()

    def hand_out():
        for worker in workers:
            if queued and worker[2] not in busy:
                call = queued.pop(0)
                _send(worker[1], call)
                busy[worker[2]] = worker, call[0]

    def submit(*args):
        queued.append((index := next(indices), args))
        hand_out()
        return partial(result, index)

    def result(index):
        while index not in done:
            for pipe in select.select(list(busy), [], [])[0]:
                worker, called = busy.pop(pipe)
                if (reply := _receive(pipe)) is None:
                    workers.remove(worker)
                    os.close(worker[1])
                    pipe.close()
                    code = os.waitstatus_to_exitcode(os.waitpid(worker[0], 0)[1])
                    how = f"exit status {code}" if code >= 0 else f"killed by signal {-code}"
                    raise DropoutLabError(f"worker process {worker[0]} ended during call "
                                          f"{called} ({how})")
                done[called] = reply[1:]
            hand_out()
        ok, value = done[index]
        if not ok:
            raise value
        return value

    try:
        for _ in range(processes):
            calls, results = os.pipe(), os.pipe()
            if (pid := os.fork()) == 0:  # a worker never unwinds into the caller's stack
                try:
                    for _, fd, pipe in workers:
                        os.close(fd)
                        pipe.close()
                    os.close(calls[1])
                    os.close(results[0])
                    _serve(task, open(calls[0], "rb"), results[1])
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(calls[0])
            os.close(results[1])
            workers.append((pid, calls[1], open(results[0], "rb")))
        yield submit
    except BaseException:
        for pid, _, _ in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:  # an idle worker ends where its calls pipe ends, a busy one after its call
        for pid, fd, pipe in workers:
            os.close(fd)
            pipe.close()
            os.waitpid(pid, 0)
