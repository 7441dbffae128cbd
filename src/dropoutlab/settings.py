"""What the command line needs before numpy loads, on the standard library
alone: a growth sweep's settings, so that grow's options can be shown and
checked, and the one date form (YYYY-MM-DD) that files and options take. Also
the usable core count that sizes the package's thread and process pools."""

import datetime
import math
import os
import re
from dataclasses import dataclass

from .errors import BadConfigError


@dataclass(frozen=True)
class SgdConfig:
    """Minibatch SGD controls for train_sgd, which needs 0/1 labels.

    Each field is named as grow's option for it. The learning rate before
    update k (counting from 0) is lr_k = learning_rate * (1 + anneal) ** (-k):
    one multiplicative anneal step per minibatch. Update k computes the
    gradient g of the batch loss (in deepnet._step) and moves the parameters by
    -lr_k * g, or with momentum > 0 by -lr_k * v, where the velocity
    v = momentum * v + g starts at 0. class_weighting scales each example's
    loss by n / (2 * n_class) of its class.
    """

    learning_rate: float = 0.1
    epochs: int = 20
    minibatch_size: int = 10
    anneal: float = 1e-3
    momentum: float = 0.0
    seed: int = 0
    class_weighting: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < math.inf:
            raise BadConfigError(f"learning_rate {self.learning_rate} must be positive and finite")
        if self.epochs < 1:
            raise BadConfigError(f"epochs {self.epochs} must be >= 1")
        if self.minibatch_size < 1:
            raise BadConfigError(f"minibatch_size {self.minibatch_size} must be >= 1")
        if not 0 <= self.anneal < math.inf:
            raise BadConfigError(f"anneal {self.anneal} must be >= 0 and finite")
        if not (0.0 <= self.momentum < 1.0):
            raise BadConfigError(f"momentum {self.momentum} must be in [0, 1)")
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
