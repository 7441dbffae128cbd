"""Feed-forward softmax classifier, annealed minibatch SGD, and function-preserving growth.

Networks are lists of (weight, bias) layers with ReLU between them and a
2-class softmax at the end. net2wider/net2deeper grow a trained network
without changing the function it computes, so sweeps can reuse training done
at smaller sizes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Sequence

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
from .settings import GrowthPlan, SgdConfig, forked, read_json, usable_cores, write_csv, write_json

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


def init_mlp(input_dim: int, widths: Sequence[int], seed: int) -> MlpModel:
    """Fresh network with the given hidden widths and a 2-class output layer.

    Weights are uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out)); biases 0.
    No widths give a bare softmax regression over the inputs.
    """
    if input_dim < 1 or any(w < 1 for w in widths):
        raise BadShapeError(f"dimensions must be positive: input {input_dim}, widths {widths}")
    rng = np.random.default_rng(seed)
    dims = [input_dim, *widths, N_CLASSES]
    layers = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        a = math.sqrt(6.0 / (fan_in + fan_out))
        layers.append((rng.uniform(-a, a, size=(fan_in, fan_out)), np.zeros(fan_out)))
    return MlpModel(tuple(layers))


def _logits(m: MlpModel, X: np.ndarray) -> np.ndarray:
    a = X
    for k, (W, b) in enumerate(m.layers):
        z = a @ W + b
        a = np.maximum(z, 0.0) if k < len(m.layers) - 1 else z
    return a


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
    return _softmax(_logits(m, values))


def predict_scores(m: MlpModel, X) -> np.ndarray:
    """Probability of class 1 (certification) per row."""
    return forward(m, X)[:, 1]


# ---------------------------------------------------------------------------
# Training: one step kernel over flat parameter and gradient buffers
# ---------------------------------------------------------------------------

def _layer_views(flat: np.ndarray, m: MlpModel) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) views into flat, laid out layer by layer like m's parameters."""
    views, o = [], 0
    for W, b in m.layers:
        views.append((flat[o:o + W.size].reshape(W.shape), flat[o + W.size:o + W.size + b.size]))
        o += W.size + b.size
    return views


def _flat_copy(m: MlpModel) -> np.ndarray:
    return np.concatenate([a.ravel() for layer in m.layers for a in layer], dtype=np.float64)


def _step_buffers(m: MlpModel, nb: int):
    """Work arrays for a batch of nb rows: each layer's output and each hidden
    layer's backpropagated delta."""
    widths = [W.shape[1] for W, _ in m.layers]
    return [np.empty((nb, w)) for w in widths], [np.empty((nb, w)) for w in widths[:-1]]


def _batch_targets(y: np.ndarray, batch_size: int):
    """Per-row targets for 0/1 labels y in training order, cut into batches of
    batch_size rows (the last one short): (one-hot, scale, pick), that is the
    one-hot labels, the gradient scale 1 / (size of the row's batch) as a
    column, and the flat index of the row's true-class logit within its batch."""
    yi = y.astype(np.intp)
    pos = np.arange(len(y))
    size = np.minimum(batch_size, len(y) - pos // batch_size * batch_size)
    return (np.column_stack((1.0 - y, y)), (1.0 / size)[:, None],
            N_CLASSES * (pos % batch_size) + yi)


def _step(params, grads, bufs, Xb, onehot, scale, pick) -> float:
    """Mean cross-entropy of one batch; fills grads when it is finite.

    params and grads are (W, b) views into flat buffers, bufs comes from
    _step_buffers for len(Xb) rows, and (onehot, scale, pick) are the
    batch's rows of _batch_targets. np.dot(..., out=) makes the same BLAS call
    as the @ operator, with less overhead per call.
    """
    outs, deltas = bufs
    last = len(params) - 1
    a = Xb
    for k, (W, b) in enumerate(params):
        z = outs[k]
        np.dot(a, W, out=z)
        np.add(z, b, out=z)
        if k < last:
            np.maximum(z, 0.0, out=z)
        a = z
    np.subtract(a, np.maximum.reduce(a, axis=1, keepdims=True), out=a)
    picked = a.take(pick)
    np.exp(a, out=a)
    norm = np.add.reduce(a, axis=1)
    terms = np.log(norm)
    terms -= picked
    loss = float(np.add.reduce(terms)) / len(terms)
    if not math.isfinite(loss):
        return loss
    delta = np.divide(a, norm[:, None], out=a)
    delta -= onehot
    delta *= scale
    for k in range(last, -1, -1):
        gW, gb = grads[k]
        inp = outs[k - 1] if k else Xb
        np.dot(inp.T, delta, out=gW)
        np.add.reduce(delta, axis=0, out=gb)
        if k:
            back = deltas[k - 1]
            np.dot(delta, params[k][0].T, out=back)
            # inp, a ReLU output, is spent: its sign is the 0/1 mask of active units
            np.multiply(back, np.sign(inp, out=inp), out=back)
            delta = back
    return loss


def train_sgd(m: MlpModel, X, y, cfg: SgdConfig) -> MlpModel:
    """Annealed minibatch SGD on mean cross-entropy; deterministic per cfg.seed.

    y must hold 0/1 labels of both classes. Update k (0-based across the whole
    run) moves the parameters by -lr_k * g, where g is the batch's gradient and
    lr_k = cfg.learning_rate * (1 + cfg.anneal) ** (-k).
    Epochs reshuffle with the seeded generator; a remainder batch is trained
    short. Each update is one _step on a flat copy of m's parameters; m
    itself is not changed.
    """
    values = np.ascontiguousarray(X, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != m.input_dim:
        raise SchemaMismatchError(f"input width {values.shape} vs network {m.input_dim}")
    if len(yv) != len(values):
        raise BadValueError("labels must align with rows")
    finite = np.isfinite(values)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise BadValueError(f"training row {r}, column {c}: feature {values[r, c]} is not finite")
    if not np.all((yv == 0.0) | (yv == 1.0)):
        raise BadValueError("training labels must be 0 or 1")
    if len(yv) == 0 or np.all(yv == yv[0]):
        raise SingleClassError("training labels contain a single class")
    rng = np.random.default_rng(cfg.seed)
    flat = _flat_copy(m)
    gflat = np.empty_like(flat)
    params, grads = _layer_views(flat, m), _layer_views(gflat, m)
    n, mb = len(values), cfg.minibatch_size
    bufs = {nb: _step_buffers(m, nb) for nb in {min(mb, n), n % mb} if nb}
    batches = [(s, s + mb, bufs[min(mb, n - s)]) for s in range(0, n, mb)]
    k = 0
    # A diverging run overflows inside _step; the NonFiniteLossError below
    # reports it, so numpy's overflow warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            order = rng.permutation(n)
            Xo = values[order]
            onehot, scale, pick = _batch_targets(yv[order], mb)
            for start, stop, buf in batches:
                loss = _step(params, grads, buf, Xo[start:stop], onehot[start:stop],
                             scale[start:stop], pick[start:stop])
                if not math.isfinite(loss):
                    raise NonFiniteLossError(f"training loss diverged at update {k}")
                gflat *= cfg.learning_rate * (1.0 + cfg.anneal) ** (-k)
                flat -= gflat
                k += 1
    return MlpModel(tuple(params))


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
    """One sweep cell: its size, test metrics, wall-clock cost, seed, and the
    trained network (left out of the row's repr and equality)."""

    phase: str
    w: int
    h: int
    auc: float
    accuracy: float
    train_seconds: float
    seed: int
    model: MlpModel = field(repr=False, compare=False)


@dataclass(frozen=True)
class GrowthReport:
    rows: tuple[GrowthRow, ...]

    def best(self) -> GrowthRow:
        return max(self.rows, key=lambda r: r.auc)


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
) -> GrowthRow:
    """Grow (if needed) and train one sweep cell; independently re-runnable.

    phase "baseline": fresh 0-hidden softmax net (teacher ignored).
    phase "width": teacher widened to value units via net2wider (a fresh
    1-hidden net without a teacher).
    phase "depth": teacher deepened by identity layers to value hidden layers.
    The row's w and h are the trained net's hidden width (0 with none) and
    depth, and its model is the trained net.
    """
    t0 = time.perf_counter()
    if phase == "baseline":
        net = init_mlp(np.shape(X_train)[1], (), seed)
    elif phase == "width":
        if teacher is None:
            net = init_mlp(np.shape(X_train)[1], [value], seed)
        else:
            net = net2wider(teacher, 0, value, seed)
    elif phase == "depth":
        if teacher is None or teacher.n_hidden >= value:
            raise BadConfigError(f"depth cell h={value} needs a teacher with fewer hidden layers")
        net = teacher
        while net.n_hidden < value:
            net = net2deeper(net, len(net.layers) - 2)
    else:
        raise BadConfigError(f"unknown phase {phase!r}")
    trained = train_sgd(net, X_train, y_train, replace(cfg, seed=seed))
    seconds = time.perf_counter() - t0
    scores = predict_scores(trained, X_test)
    yv = np.asarray(y_test, dtype=np.float64)
    return GrowthRow(
        phase=phase, w=max(trained.hidden_widths, default=0), h=trained.n_hidden,
        auc=auc_values(scores, yv),
        accuracy=raw_accuracy(scores, yv),
        train_seconds=seconds, seed=seed, model=trained,
    )


def _chain(
    teacher: MlpModel | None, phase: str, values: Sequence[int], data: tuple, cfg: SgdConfig
) -> tuple[list[GrowthRow], Exception | None]:
    """The rows of phase's cells at values, in order, each grown from the network
    trained before it (the first from teacher), up to the first cell that raises;
    and that cell's error, or None when every cell trained."""
    rows: list[GrowthRow] = []
    try:
        for value in values:
            rows.append(run_cell(teacher, phase, value, *data, cfg,
                                 _cell_seed(cfg.seed, phase, value)))
            teacher = rows[-1].model
    except Exception as e:
        return rows, e
    return rows, None


def grow_and_train(
    X_train, y_train, X_test, y_test,
    plan: GrowthPlan,
    cfg: SgdConfig,
) -> GrowthReport:
    """Full sweep: a 0-hidden baseline, the width chain, then the depth chain.

    Width phase trains h=1 at width_from from scratch, then widens the
    previous trained network one step at a time. Depth phase deepens the
    trained fixed-width h=1 network to depth_from hidden layers, then the
    previous trained network one layer at a time. Every cell's seed is derived
    from cfg.seed and recorded so the cell can be reproduced in isolation.

    The depth chain needs only the fixed-width network, so once that is
    trained (the width cells up to fixed_width, or a standalone h=1 anchor
    without a row when fixed_width is outside the width range), the depth chain
    runs on the one worker of settings.forked while this process trains the
    baseline and the rest of the width chain; with one usable core it runs inline. Rows, seeds
    and models do not depend on the core count; each row's train_seconds is its
    own cell's wall time. A failing cell raises the error the cells would raise
    trained one by one in row order (the anchor after the width chain).
    """
    data = (X_train, y_train, X_test, y_test)
    widths = range(plan.width_from, plan.width_to + 1)
    inside = plan.fixed_width in widths
    head, head_err = _chain(
        None, "width",
        widths[:widths.index(plan.fixed_width) + 1] if inside else [plan.fixed_width], data, cfg)
    # a failed head leaves the depth chain without its teacher: it is never run
    depth_task = partial(_chain, head[-1].model if head_err is None else None, "depth",
                         range(plan.depth_from, plan.depth_to + 1), data, cfg)
    with forked(depth_task, int(head_err is None and usable_cores() >= 2)) as submit:
        depth_result = submit()
        base, base_err = _chain(None, "baseline", [0], data, cfg)
        if not inside:
            rest, rest_err = _chain(None, "width", widths, data, cfg)
        elif head_err is None:
            rest, rest_err = _chain(head[-1].model, "width", widths[len(head):], data, cfg)
        else:
            rest, rest_err = [], None
        depth, depth_err = depth_result() if head_err is None else ([], None)
    width_errs = (head_err, rest_err) if inside else (rest_err, head_err)
    for err in (base_err, *width_errs, depth_err):
        if err is not None:
            raise err
    return GrowthReport(tuple(base + (head if inside else []) + rest + depth))


def write_growth_csv(report: GrowthReport, path: str | Path) -> None:
    write_csv(path, ("phase", "w", "h", "auc", "accuracy", "train_seconds", "seed"),
              [(r.phase, r.w, r.h, r.auc, r.accuracy, r.train_seconds, r.seed)
               for r in report.rows])


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
    write_json(path, mlp_to_dict(m), compact=True)


def load_mlp(path: str | Path) -> MlpModel:
    """Read a network written by save_mlp (grow's best_model.json).

    A file that is not such a network raises BadValueError naming it.
    """
    return read_json(path, mlp_from_dict)
