"""Feed-forward softmax classifier, annealed minibatch SGD, and function-preserving growth.

Networks are lists of (weight, bias) layers with ReLU between them and a
2-class softmax at the end. net2wider/net2deeper grow a trained network
without changing the function it computes, so sweeps can reuse training done
at smaller sizes.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    BadConfigError,
    BadLayerError,
    BadShapeError,
    BadValueError,
    NonFiniteLossError,
    SchemaMismatchError,
    ShrinkNotAllowedError,
    SingleClassError,
)
from .evaluate import auc_values, raw_accuracy

N_CLASSES = 2


@dataclass(frozen=True)
class MlpModel:
    """Parameter layers (weight matrix, bias vector); weights are (fan_in, fan_out)."""

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self) -> None:
        if len(self.layers) == 0:
            raise BadShapeError("a network needs at least one parameter layer")
        prev_out = None
        for k, (W, b) in enumerate(self.layers):
            if W.ndim != 2 or b.shape != (W.shape[1],):
                raise BadShapeError(f"layer {k}: weight {W.shape} and bias {b.shape} mismatch")
            if prev_out is not None and W.shape[0] != prev_out:
                raise BadShapeError(
                    f"layer {k}: expects {W.shape[0]} inputs, previous layer emits {prev_out}"
                )
            if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
                raise BadValueError(f"layer {k}: non-finite parameters")
            prev_out = W.shape[1]
        if prev_out != N_CLASSES:
            raise BadShapeError(f"output layer must emit {N_CLASSES} classes, got {prev_out}")

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[0]

    @property
    def hidden_widths(self) -> tuple[int, ...]:
        return tuple(W.shape[1] for W, _ in self.layers[:-1])

    @property
    def n_hidden(self) -> int:
        return len(self.layers) - 1


@dataclass(frozen=True)
class SgdConfig:
    """Minibatch SGD controls.

    The learning rate before update k (counting from 0) is
    learning_rate * (1 + anneal_factor) ** (-k): one multiplicative anneal
    step per minibatch. class_weighting scales each example's loss by
    n / (2 * n_class) of its class.
    """

    learning_rate: float = 0.1
    epochs: int = 20
    minibatch_size: int = 10
    anneal_factor: float = 1e-3
    momentum: float = 0.0
    seed: int = 0
    class_weighting: bool = False

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise BadConfigError(f"learning_rate {self.learning_rate} must be positive")
        if self.epochs < 1:
            raise BadConfigError(f"epochs {self.epochs} must be >= 1")
        if self.minibatch_size < 1:
            raise BadConfigError(f"minibatch_size {self.minibatch_size} must be >= 1")
        if self.anneal_factor < 0:
            raise BadConfigError(f"anneal_factor {self.anneal_factor} must be >= 0")
        if not (0.0 <= self.momentum < 1.0):
            raise BadConfigError(f"momentum {self.momentum} must be in [0, 1)")


@dataclass(frozen=True)
class GrowthPlan:
    """Width then depth sweep ranges for grow_and_train."""

    width_sweep: tuple[int, ...] = tuple(range(2, 16))
    depth_sweep: tuple[int, ...] = tuple(range(2, 11))
    fixed_width: int = 5

    def __post_init__(self) -> None:
        for name, sweep in (("width_sweep", self.width_sweep), ("depth_sweep", self.depth_sweep)):
            if len(sweep) == 0:
                raise BadConfigError(f"{name} must be non-empty")
            if any(b <= a for a, b in zip(sweep, sweep[1:])):
                raise BadConfigError(f"{name} must be strictly increasing")
            if sweep[0] < 1:
                raise BadConfigError(f"{name} values must be >= 1")
        if self.depth_sweep[0] < 2:
            raise BadConfigError("depth_sweep starts after the 1-hidden-layer teacher")
        if self.fixed_width < 1:
            raise BadConfigError(f"fixed_width {self.fixed_width} must be >= 1")


def init_mlp(input_dim: int, widths: Sequence[int], seed: int) -> MlpModel:
    """Fresh network with the given hidden widths and a 2-class output layer.

    Weights are uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out)); biases 0.
    """
    if len(widths) == 0:
        raise BadShapeError("widths must be non-empty (at least one hidden layer)")
    if input_dim < 1 or any(w < 1 for w in widths):
        raise BadShapeError(f"dimensions must be positive: input {input_dim}, widths {widths}")
    rng = np.random.default_rng(seed)
    dims = [input_dim, *widths, N_CLASSES]
    layers = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        a = math.sqrt(6.0 / (fan_in + fan_out))
        layers.append((rng.uniform(-a, a, size=(fan_in, fan_out)), np.zeros(fan_out)))
    return MlpModel(tuple(layers))


def init_softmax(input_dim: int, seed: int) -> MlpModel:
    """0-hidden-layer network: a bare softmax regression over the inputs."""
    if input_dim < 1:
        raise BadShapeError(f"input_dim {input_dim} must be positive")
    rng = np.random.default_rng(seed)
    a = math.sqrt(6.0 / (input_dim + N_CLASSES))
    return MlpModel(((rng.uniform(-a, a, size=(input_dim, N_CLASSES)), np.zeros(N_CLASSES)),))


def _forward_cached(m: MlpModel, X: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Activations and pre-activations per layer; last entry is the logits."""
    acts = [X]
    pre = []
    a = X
    for k, (W, b) in enumerate(m.layers):
        z = a @ W + b
        pre.append(z)
        a = np.maximum(z, 0.0) if k < len(m.layers) - 1 else z
        acts.append(a)
    return acts, pre


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def forward(m: MlpModel, X) -> np.ndarray:
    """Class probability matrix (n, 2); rows sum to 1 within 1e-12."""
    values = np.asarray(X, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != m.input_dim:
        raise SchemaMismatchError(
            f"input has {values.shape[-1] if values.ndim == 2 else '?'} columns, "
            f"network expects {m.input_dim}"
        )
    acts, _ = _forward_cached(m, values)
    return _softmax(acts[-1])


def predict_scores(m: MlpModel, X) -> np.ndarray:
    """Probability of class 1 (certification) per row."""
    return forward(m, X)[:, 1]


def _batch_loss_and_grads(m, Xb, yb, class_w):
    """Mean weighted cross-entropy over the batch and its parameter gradients."""
    acts, pre = _forward_cached(m, Xb)
    logits = acts[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    idx = yb.astype(int)
    n = len(yb)
    ex_w = class_w[idx]
    loss = float(np.mean(ex_w * (log_norm - shifted[np.arange(n), idx])))
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    delta = probs
    delta[np.arange(n), idx] -= 1.0
    delta *= (ex_w / n)[:, None]
    grads = [None] * len(m.layers)
    for k in range(len(m.layers) - 1, -1, -1):
        grads[k] = (acts[k].T @ delta, delta.sum(axis=0))
        if k > 0:
            delta = (delta @ m.layers[k][0].T) * (pre[k - 1] > 0)
    return loss, grads


def _class_weights(y: np.ndarray, enabled: bool) -> np.ndarray:
    if not enabled:
        return np.ones(N_CLASSES)
    counts = np.array([np.sum(y == k) for k in range(N_CLASSES)], dtype=np.float64)
    return len(y) / (N_CLASSES * counts)


def train_sgd(m: MlpModel, X, y, cfg: SgdConfig) -> MlpModel:
    """Annealed minibatch SGD on mean cross-entropy; deterministic per cfg.seed.

    Update k (0-based across the whole run) uses learning rate
    cfg.learning_rate * (1 + cfg.anneal_factor) ** (-k). Epochs reshuffle with
    the seeded generator; a remainder batch is trained short.
    """
    values = np.asarray(X, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != m.input_dim:
        raise SchemaMismatchError(f"input width {values.shape} vs network {m.input_dim}")
    if len(yv) != len(values):
        raise BadValueError("labels must align with rows")
    if len(yv) == 0 or np.all(yv == yv[0]):
        raise SingleClassError("training labels contain a single class")
    class_w = _class_weights(yv, cfg.class_weighting)
    rng = np.random.default_rng(cfg.seed)
    layers = [(W.copy(), b.copy()) for W, b in m.layers]
    velocity = [(np.zeros_like(W), np.zeros_like(b)) for W, b in layers]
    work = MlpModel(tuple((W, b) for W, b in layers))
    k = 0
    n = len(values)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.minibatch_size):
            batch = order[start:start + cfg.minibatch_size]
            loss, grads = _batch_loss_and_grads(work, values[batch], yv[batch], class_w)
            if not math.isfinite(loss):
                raise NonFiniteLossError(f"training loss diverged at update {k}")
            lr = cfg.learning_rate * (1.0 + cfg.anneal_factor) ** (-k)
            for (W, b), (gW, gb), (vW, vb) in zip(layers, grads, velocity):
                if cfg.momentum > 0:
                    vW *= cfg.momentum
                    vW += gW
                    vb *= cfg.momentum
                    vb += gb
                    W -= lr * vW
                    b -= lr * vb
                else:
                    W -= lr * gW
                    b -= lr * gb
            k += 1
    return MlpModel(tuple((W, b) for W, b in layers))


# ---------------------------------------------------------------------------
# Function-preserving growth
# ---------------------------------------------------------------------------

def net2wider(teacher: MlpModel, layer_index: int, new_width: int, seed: int) -> MlpModel:
    """Widen one hidden layer by replicating units; the function is preserved.

    Each new slot copies the incoming weights and bias of a seeded uniformly
    chosen existing unit; outgoing weights are divided by each source unit's
    replication count so downstream sums are unchanged.
    """
    if not (0 <= layer_index < len(teacher.layers) - 1):
        raise BadLayerError(
            f"layer_index {layer_index} is not a hidden layer "
            f"(valid: 0..{len(teacher.layers) - 2})"
        )
    W_in, b_in = teacher.layers[layer_index]
    W_out, b_out = teacher.layers[layer_index + 1]
    old_width = W_in.shape[1]
    if new_width < old_width:
        raise ShrinkNotAllowedError(f"cannot shrink layer from {old_width} to {new_width}")
    rng = np.random.default_rng(seed)
    mapping = np.concatenate([
        np.arange(old_width),
        rng.integers(0, old_width, size=new_width - old_width),
    ])
    counts = np.bincount(mapping, minlength=old_width).astype(np.float64)
    new_W_in = W_in[:, mapping]
    new_b_in = b_in[mapping]
    new_W_out = W_out[mapping, :] / counts[mapping][:, None]
    layers = list(teacher.layers)
    layers[layer_index] = (new_W_in, new_b_in)
    layers[layer_index + 1] = (new_W_out, b_out)
    return MlpModel(tuple(layers))


def net2deeper(teacher: MlpModel, insert_after: int) -> MlpModel:
    """Insert an identity ReLU layer after an existing hidden layer.

    Exact preservation relies on the preceding activations being outputs of a
    ReLU (non-negative), so identity weights followed by ReLU change nothing.
    Insertion directly on the input or after the softmax layer is rejected.
    """
    if not (0 <= insert_after < len(teacher.layers) - 1):
        raise BadLayerError(
            f"insert_after {insert_after} must name a hidden layer "
            f"(valid: 0..{len(teacher.layers) - 2})"
        )
    width = teacher.layers[insert_after][0].shape[1]
    identity = (np.eye(width), np.zeros(width))
    layers = list(teacher.layers)
    layers.insert(insert_after + 1, identity)
    return MlpModel(tuple(layers))


# ---------------------------------------------------------------------------
# Width/depth sweep driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthRow:
    """One sweep cell: its size, test metrics, wall-clock cost, and seed."""

    phase: str
    w: int
    h: int
    auc: float
    accuracy: float
    train_seconds: float
    seed: int


@dataclass(frozen=True)
class GrowthReport:
    rows: tuple[GrowthRow, ...]
    models: Mapping | None = None  # (phase, w, h) -> trained MlpModel

    def best(self) -> GrowthRow:
        return max(self.rows, key=lambda r: r.auc)

    def best_model(self) -> "MlpModel":
        r = self.best()
        return self.models[(r.phase, r.w, r.h)]


def _cell_seed(master: int, phase: str, value: int) -> int:
    code = {"baseline": 0, "width": 1, "depth": 2}[phase]
    return int(np.random.SeedSequence((master, code, value)).generate_state(1)[0])


def run_cell(
    teacher: MlpModel | None,
    phase: str,
    value: int,
    X_train, y_train, X_test, y_test,
    cfg: SgdConfig,
    seed: int,
    input_dim: int | None = None,
    fixed_width: int | None = None,
) -> tuple[GrowthRow, MlpModel]:
    """Grow (if needed) and train one sweep cell; independently re-runnable.

    phase "baseline": fresh 0-hidden softmax net (teacher ignored).
    phase "width": teacher widened to value units via net2wider.
    phase "depth": teacher deepened by one identity layer; value = target h.
    """
    t0 = time.perf_counter()
    if phase == "baseline":
        net = init_softmax(input_dim, seed)
        w_rec, h_rec = 0, 0
    elif phase == "width":
        if teacher is None:
            net = init_mlp(input_dim, [value], seed)
        else:
            net = net2wider(teacher, 0, value, seed)
        w_rec, h_rec = value, 1
    elif phase == "depth":
        net = net2deeper(teacher, len(teacher.layers) - 2)
        if net.n_hidden != value:
            raise BadConfigError(f"depth cell expected h={value}, teacher gives {net.n_hidden}")
        w_rec, h_rec = fixed_width, value
    else:
        raise BadConfigError(f"unknown phase {phase!r}")
    trained = train_sgd(net, X_train, y_train, replace(cfg, seed=seed))
    seconds = time.perf_counter() - t0
    scores = predict_scores(trained, X_test)
    yv = np.asarray(y_test, dtype=np.float64)
    row = GrowthRow(
        phase=phase, w=w_rec, h=h_rec,
        auc=auc_values(scores, yv),
        accuracy=raw_accuracy(scores, yv),
        train_seconds=seconds, seed=seed,
    )
    return row, trained


def grow_and_train(
    X_train, y_train, X_test, y_test,
    plan: GrowthPlan | None = None,
    cfg: SgdConfig | None = None,
) -> GrowthReport:
    """Full sweep: a 0-hidden baseline, the width chain, then the depth chain.

    Width phase trains h=1 at the first sweep width from scratch, then widens
    the previous trained network one step at a time. Depth phase starts from
    the trained fixed-width h=1 network and inserts identity layers one at a
    time. Every cell's seed is derived from cfg.seed and recorded so the cell
    can be reproduced in isolation.
    """
    plan = plan or GrowthPlan()
    cfg = cfg or SgdConfig()
    input_dim = np.shape(X_train)[1]
    rows: list[GrowthRow] = []
    models: dict[tuple[str, int, int], MlpModel] = {}

    row, model = run_cell(None, "baseline", 0, X_train, y_train, X_test, y_test,
                          cfg, _cell_seed(cfg.seed, "baseline", 0), input_dim=input_dim)
    rows.append(row)
    models[("baseline", 0, 0)] = model

    teacher = None
    fixed_teacher = None
    for w in plan.width_sweep:
        row, model = run_cell(teacher, "width", w, X_train, y_train, X_test, y_test,
                              cfg, _cell_seed(cfg.seed, "width", w), input_dim=input_dim)
        rows.append(row)
        models[("width", w, 1)] = model
        teacher = model
        if w == plan.fixed_width:
            fixed_teacher = model
    if fixed_teacher is None:
        # fixed_width outside the sweep: train its h=1 anchor without a report row
        _, fixed_teacher = run_cell(None, "width", plan.fixed_width,
                                    X_train, y_train, X_test, y_test,
                                    cfg, _cell_seed(cfg.seed, "width", plan.fixed_width),
                                    input_dim=input_dim)

    teacher = fixed_teacher
    for h in plan.depth_sweep:
        row, model = run_cell(teacher, "depth", h, X_train, y_train, X_test, y_test,
                              cfg, _cell_seed(cfg.seed, "depth", h),
                              fixed_width=plan.fixed_width)
        rows.append(row)
        models[("depth", plan.fixed_width, h)] = model
        teacher = model

    return GrowthReport(tuple(rows), models)


def write_growth_csv(report: GrowthReport, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(("phase", "w", "h", "auc", "accuracy", "train_seconds", "seed"))
        for r in report.rows:
            w.writerow((r.phase, r.w, r.h, repr(r.auc), repr(r.accuracy),
                        repr(r.train_seconds), r.seed))


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def mlp_to_dict(m: MlpModel) -> dict:
    return {
        "layers": [
            {"shape": list(W.shape), "weights": W.ravel().tolist(), "bias": b.tolist()}
            for W, b in m.layers
        ]
    }


def mlp_from_dict(doc: dict) -> MlpModel:
    layers = []
    for k, entry in enumerate(doc["layers"]):
        shape = tuple(entry["shape"])
        W = np.asarray(entry["weights"], dtype=np.float64)
        if len(shape) != 2 or W.shape != (math.prod(shape),):
            raise BadValueError(f"layer {k}: {W.size} weights do not fill the shape {shape}")
        W = W.reshape(shape)
        b = np.asarray(entry["bias"], dtype=np.float64)
        layers.append((W, b))
    return MlpModel(tuple(layers))


def save_mlp(m: MlpModel, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(mlp_to_dict(m), f)
        f.write("\n")


def load_mlp(path: str | Path) -> MlpModel:
    """Read a network written by save_mlp (grow's best_model.json)."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    try:
        return mlp_from_dict(doc)
    except BadValueError as e:
        raise BadValueError(f"{path}: {e}") from None
