"""L2-regularized logistic regression, hyperplane averaging, and the two baselines.

A scorer returns a 1-D float64 array, one score per input row in row order;
higher means more likely to certify.

The trainer is damped Newton (IRLS): each iteration solves the regularized
Hessian system for the Newton direction and takes the first of the steps
1, 1/2, 1/4, ... that passes an Armijo test on _loss, until the norm of
_grad falls below TOL_PER_EXAMPLE times the number of examples. The module
constants below are the solver's only settings. No randomness anywhere, so
retraining on identical inputs is bit-reproducible.

Non-convergence warns rather than fails: a fit that stops short of the
tolerance returns its last iterate and emits a ConvergenceWarning naming the
iteration count and the final gradient norm (escalate it with a warnings
filter where a hard failure is wanted).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import CourseData
from .errors import (
    BadValueError,
    ConvergenceWarning,
    EmptyListError,
    NonFiniteLossError,
    SchemaMismatchError,
    SingleClassError,
)
from .features import (
    BLOCKS,
    DEMOGRAPHIC_BLOCKS,
    WIDTH,
    FeatureMatrix,
    NormStats,
    demographic_dummies,
    norm_stats_from_dict,
    norm_stats_to_dict,
    normalize,
)
from .settings import read_json, write_json


@dataclass(frozen=True)
class LinearModel:
    """Logistic hyperplane over the feature columns."""

    weights: np.ndarray
    intercept: float
    reg_C: float
    norm: NormStats | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1:
            raise BadValueError("weights must be a vector")
        if not (np.all(np.isfinite(w)) and math.isfinite(self.intercept)):
            raise BadValueError("model parameters must be finite")
        if self.reg_C <= 0:
            raise BadValueError(f"reg_C {self.reg_C} must be positive")


# Damped-Newton controls; the gradient-norm tolerance scales with the number of examples.
TOL_PER_EXAMPLE = 1e-6
MAX_ITER = 10_000
ARMIJO_C = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 60


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-z)); exp only ever sees -|z|, so it never overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _loss(z: np.ndarray, y: np.ndarray, theta: np.ndarray, C: float) -> float:
    """Regularized log-loss sum_i [log(1 + exp(z_i)) - y_i*z_i] + (1/C)*0.5*||w||^2.

    theta is (w, b) with the unregularized intercept b last, and z = Xw + b
    its margins; logaddexp keeps the loss stable.
    """
    w = theta[:-1]
    return float(np.sum(np.logaddexp(0.0, z) - y * z)) + 0.5 / C * float(w @ w)


def _grad(Xa: np.ndarray, y: np.ndarray, mu: np.ndarray, ridge: np.ndarray,
          theta: np.ndarray) -> np.ndarray:
    """Gradient of _loss in theta, for Xa = [X, 1], mu = _sigmoid(Xa @ theta) and
    ridge = (1/C, ..., 1/C, 0)."""
    return Xa.T @ (mu - y) + ridge * theta


def _minimize(X: np.ndarray, y: np.ndarray, C: float) -> tuple[np.ndarray, float, int, bool]:
    """Damped Newton from the origin; returns (w, b, iterations, converged).

    Only columns that are nonzero in some row enter the Newton system, so an
    all-zero column keeps a weight of exactly 0 (its optimum). A fit that
    stops short of the tolerance emits a ConvergenceWarning.
    """
    n, p = X.shape
    tol = TOL_PER_EXAMPLE * n
    active = np.flatnonzero(np.any(X != 0.0, axis=0))
    Xa = np.column_stack([X[:, active], np.ones(n)])  # last column: intercept
    ridge = np.append(np.full(len(active), 1.0 / C), 0.0)  # intercept unregularized
    ridge_diag = np.diag(ridge)
    theta = np.zeros(Xa.shape[1])
    z = np.zeros(n)
    loss = _loss(z, y, theta, C)
    it = 0
    while True:
        # _sigmoid(z) and the Hessian's _sigmoid(-z) share exp(-|z|) and 1 + exp(-|z|);
        # -z >= 0 is z <= 0, also for -0.0 and NaN
        e = np.exp(-np.abs(z))
        one_e = 1.0 + e
        mu = np.where(z >= 0, 1.0, e) / one_e
        g = _grad(Xa, y, mu, ridge, theta)
        g_norm = math.sqrt(float(g @ g))
        if not math.isfinite(g_norm):
            raise NonFiniteLossError(f"gradient diverged at iteration {it}")
        if g_norm <= tol or it == MAX_ITER:
            break
        # mu * _sigmoid(-z), not mu * (1 - mu): stays positive where 1 - mu rounds to 0
        H = (Xa.T * (mu * (np.where(z <= 0, 1.0, e) / one_e))) @ Xa + ridge_diag
        d = np.linalg.solve(H, -g)
        dz = Xa @ d
        slope = float(g @ d)
        s = 1.0
        for _ in range(MAX_BACKTRACKS):
            cand = _loss(z + s * dz, y, theta + s * d, C)
            if math.isfinite(cand) and cand <= loss + ARMIJO_C * s * slope:
                break
            s *= BACKTRACK
        else:
            break  # no step lowers the loss: numerically stationary
        theta = theta + s * d
        z = z + s * dz
        loss = cand
        it += 1
    if g_norm > tol:
        # stacklevel: _minimize, _fit, its public caller, then the user's call
        warnings.warn(f"logistic fit did not converge (iterations={it}, gradient "
                      f"norm {g_norm:.3g} > tolerance {tol:.3g})",
                      ConvergenceWarning, stacklevel=4)
    w = np.zeros(p)
    w[active] = theta[:-1]
    return w, float(theta[-1]), it, g_norm <= tol


def _fit(X: np.ndarray, y: np.ndarray, C: float) -> tuple[np.ndarray, float]:
    """Check the inputs and run _minimize."""
    if not 0 < C < math.inf:
        raise BadValueError(f"C {C} must be positive and finite")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (len(X),):
        raise BadValueError(f"labels of shape {y.shape} do not align with {len(X)} rows")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise BadValueError("training labels must be 0 or 1")
    if len(y) == 0:
        raise SingleClassError("no training rows")
    if np.all(y == y[0]):
        raise SingleClassError("training labels contain a single class")
    w, b, _, _ = _minimize(X, y, C)
    return w, b


def train_logreg(
    X: FeatureMatrix,
    y: np.ndarray,
    C: float = 1.0,
    norm: NormStats | None = None,
) -> LinearModel:
    """Fit the logistic hyperplane on an already-normalized matrix.

    y holds the 0/1 labels of X's rows, in row order. norm is carried on the
    model purely as a record of how X was produced; pass the stats used so
    deployment can reproduce the transform.
    """
    w, b = _fit(X.values, y, C)
    return LinearModel(weights=w, intercept=b, reg_C=C, norm=norm)


def predict_proba(m: LinearModel, X: FeatureMatrix) -> np.ndarray:
    """Certification probabilities via the logistic link."""
    if len(m.weights) != WIDTH:
        raise SchemaMismatchError(f"model has {len(m.weights)} weights, matrix has {WIDTH} columns")
    return _sigmoid(X.values @ m.weights + m.intercept)


def average_hyperplanes(models: Sequence[LinearModel]) -> LinearModel:
    """Element-wise mean of weights and intercepts.

    Each component is summed with math.fsum (correctly rounded), so the result
    is exactly invariant to the order of the models. The norm field is cleared:
    the caller supplies the deployment normalization.
    """
    if len(models) == 0:
        raise EmptyListError("cannot average zero models")
    width = len(models[0].weights)
    for m in models[1:]:
        if len(m.weights) != width:
            raise SchemaMismatchError("models have mismatched weight widths")
    n = len(models)
    weights = np.array(
        [math.fsum(float(m.weights[j]) for m in models) / n for j in range(width)]
    )
    intercept = math.fsum(float(m.intercept) for m in models) / n
    return LinearModel(weights=weights, intercept=intercept, reg_C=models[0].reg_C, norm=None)


def fit_course_model(course: CourseData, m: FeatureMatrix, C: float = 1.0) -> LinearModel:
    """Logistic model on a snapshot of the course, z-scored, and the course's own labels.

    m is the course's feature matrix at some date (build_matrix, or one step
    of snapshots). The model carries the zscore stats it was fit with.
    """
    if m.student_ids != course.roster.student_ids:
        raise BadValueError(f"the snapshot's rows are not the roster of {course.meta.course_id!r}")
    stats, (z,) = normalize(m, [m], "zscore")
    return train_logreg(z, course.certified, C, norm=stats)


# Columns of the demographic dummies, in demographic_dummies order.
_DEMO_COLS = np.array([i for blk in DEMOGRAPHIC_BLOCKS for i in BLOCKS[blk]])


def baseline_demographics(course: CourseData, C: float = 1.0) -> LinearModel:
    """Demographics-only logistic regression (Baseline 1) on the course's certification labels.

    Trains on the raw 33 dummy columns; every other weight is exactly zero, so
    activity can never influence the score.
    """
    w_demo, b = _fit(demographic_dummies(course), course.certified, C)
    weights = np.zeros(WIDTH)
    weights[_DEMO_COLS] = w_demo
    return LinearModel(weights=weights, intercept=b, reg_C=C, norm=None)


def score_demographics(m: LinearModel, course: CourseData) -> np.ndarray:
    """Apply a demographics-only model to a course roster (no activity read)."""
    return _sigmoid(demographic_dummies(course) @ m.weights[_DEMO_COLS] + m.intercept)


def baseline_recency(m: FeatureMatrix) -> np.ndarray:
    """Recency ranking (Baseline 2) of a snapshot: score = -days_since_last_action, no training."""
    return -m.values[:, BLOCKS["days_since_last_action"].start]


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

# A model file's fingerprint of the feature layout it was trained on: the sha256
# of the newline-joined FEATURE_NAMES, written as a literal so that no command
# loads OpenSSL for it. test_linear recomputes it, so it cannot go stale.
SCHEMA_HASH = "cf183513227b31099bddb60b97176f2e29173137c1714f33104b189a86d63a5e"


def save_model(m: LinearModel, path: str | Path) -> None:
    doc = {
        "schema_hash": SCHEMA_HASH,
        "weights": m.weights.tolist(),
        "intercept": m.intercept,
        "C": m.reg_C,
        "norm": None if m.norm is None else norm_stats_to_dict(m.norm),
    }
    write_json(path, doc)


def _model_from_dict(doc: dict) -> LinearModel:
    if doc.get("schema_hash") != SCHEMA_HASH:
        raise SchemaMismatchError("schema_hash does not match this feature layout")
    model = LinearModel(
        weights=np.asarray(doc["weights"], dtype=np.float64),
        intercept=float(doc["intercept"]),
        reg_C=float(doc["C"]),
        norm=None if doc.get("norm") is None else norm_stats_from_dict(doc["norm"]),
    )
    if len(model.weights) != WIDTH:
        raise BadValueError(f"model has {len(model.weights)} weights for {WIDTH} feature columns")
    return model


def load_model(path: str | Path) -> LinearModel:
    """Read a model written by save_model (train's model JSON).

    A file that is not such a model, or that has other than WIDTH weights,
    raises BadValueError naming it; one written for another feature layout
    (its schema_hash, or the names or columns of its norm) raises
    SchemaMismatchError naming it. The norm is checked by norm_stats_from_dict.
    """
    return read_json(path, _model_from_dict)
