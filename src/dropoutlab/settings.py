"""What the command line needs before numpy loads, on the standard library
alone: the paradigm names, so that run checks a manifest's list up front; a
growth sweep's settings, so that grow's options can be shown and checked; and
the one date form (YYYY-MM-DD) that files and options take. Also the
package's one CSV form (read_csv, write_csv, and csv_cells for a writer that
assembles its own rows) and one JSON form (read_json, write_json), the usable
core count that sizes its process pools, and its one way to run work in
parallel: in forked worker processes (forked)."""

import csv
import datetime
import io
import json
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

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
    """The cores this process may run on: its CPU affinity where the OS has one, at least 1."""
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


_TASK: Callable | None = None  # forked's task, in each of its workers


def _start_worker(task: Callable) -> None:
    global _TASK
    _TASK = task


def _run_task(*args):
    return _TASK(*args)


@contextmanager
def forked(task: Callable, processes: int):
    """Yield submit(*args), which returns a callable of no arguments that gives task(*args).

    With processes >= 1, each call runs on a pool of that many forked worker
    processes. task reaches them through the pool's initializer, so each fork
    inherits it and the arrays it holds; only args and results are pickled.
    Leaving the block joins the workers, also when the block raises; then the
    calls still queued are cancelled first, so the error is not held back
    until they have run. With processes 0, a call runs in this process when
    its result is asked for.
    """
    if processes == 0:
        yield lambda *args: partial(task, *args)
        return
    from concurrent.futures import ProcessPoolExecutor  # loaded only for a pool

    with ProcessPoolExecutor(max_workers=processes, initializer=_start_worker,
                             initargs=(task,)) as pool:
        try:
            yield lambda *args: pool.submit(_run_task, *args).result
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
