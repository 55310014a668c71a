"""Class-weighted maximum-entropy (binary logistic) classifier.

The loss is the class-weighted negative conditional log-likelihood plus an L2
penalty on the weights (bias unpenalized): positive examples are multiplied
by the negative/positive training-count ratio, which is how the classifier
counteracts the heavy skew toward non-intervened threads. Training is
deterministic. The default fit is liblinear's trust-region Newton (TRON) with
the exact Hessian-vector product; L-BFGS-B and a backtracking gradient descent
are cross-checks, and with lambda>0 all three must agree on the unique optimum.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.optimize
import scipy.sparse as sp
from scipy.special import expit

from .corpus import InputError
from .features import FeatureSpace, FeatureVector

logger = logging.getLogger(__name__)

MODEL_FORMAT_HEADER = "forum-sentinel-model 1"


class ModelFormatError(InputError):
    """Raised when a model file cannot be parsed; reports the byte offset."""


@dataclass(frozen=True)
class TrainConfig:
    l2_lambda: float = 1e-4
    max_iterations: int = 500
    convergence_tol: float = 1e-6
    class_weight_mode: str = "neg_over_pos"  # or "none"
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.l2_lambda) and self.l2_lambda >= 0):
            raise ValueError(f"l2_lambda must be finite and nonnegative, not {self.l2_lambda}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not (math.isfinite(self.convergence_tol) and self.convergence_tol > 0):
            raise ValueError(f"convergence_tol must be finite and positive, not {self.convergence_tol}")
        if self.class_weight_mode not in ("none", "neg_over_pos"):
            raise ValueError(f"unknown class_weight_mode {self.class_weight_mode!r}")


@dataclass
class MaxentModel:
    weights: dict[str, float]
    bias: float
    feature_space: FeatureSpace
    train_config: TrainConfig
    class_weight_value: float = 1.0
    converged: bool = True
    n_iterations: int = 0

    def weight_vector(self) -> np.ndarray:
        return np.array([self.weights.get(n, 0.0) for n in self.feature_space.names])


def class_weight(n_pos: int, n_neg: int) -> float:
    """Ratio of negative to positive examples, the positive-loss multiplier."""
    if n_pos == 0:
        raise ValueError("no positive examples: class weight undefined")
    return n_neg / n_pos


Dataset = Sequence[tuple[FeatureVector, int]]


def _dataset_space(dataset: Dataset) -> FeatureSpace:
    if not dataset:
        raise ValueError("empty dataset")
    space = dataset[0][0].space
    for vec, _y in dataset:
        if vec.space != space:
            raise ValueError("dataset mixes feature spaces")
    return space


def _to_arrays(dataset: Dataset, space: FeatureSpace) -> tuple[sp.csr_matrix, np.ndarray]:
    y = np.array([float(label) for _vec, label in dataset])
    indptr = np.cumsum([0] + [len(vec.values) for vec, _label in dataset])
    indices = np.fromiter((space._index[name] for vec, _label in dataset for name in vec.values), np.int64, indptr[-1])
    data = np.fromiter((value for vec, _label in dataset for value in vec.values.values()), float, indptr[-1])
    X = sp.csr_matrix((data, indices, indptr), shape=(len(dataset), len(space)))
    X.sum_duplicates()  # sorts each row by column, so dict order cannot move the bits
    return X, y


def _sample_weight(y: np.ndarray, config: TrainConfig) -> tuple[float, np.ndarray]:
    """The positive-loss multiplier and the per-example weights it gives."""
    n_pos = int(y.sum())
    cw = 1.0 if config.class_weight_mode == "none" else class_weight(n_pos, len(y) - n_pos)
    return cw, np.where(y == 1.0, cw, 1.0)


def _objective(X: sp.csr_matrix, y: np.ndarray, sample_weight: np.ndarray, lam: float):
    """The weighted objective over theta = (w, b): ``fun(theta) -> (loss, gradient)``
    and the exact Hessian-vector product ``hessp(theta, v)``. Xᵀ is built once, and
    D = sw·p(1−p) once per point theta, by whichever of the two reaches it first.
    """
    XT = X.T.tocsr()
    at: dict = {"theta": None}

    def probability(theta: np.ndarray, z: np.ndarray) -> np.ndarray:
        p = expit(z)
        at.update(theta=theta.copy(), d=sample_weight * p * (1.0 - p))
        return p

    def fun(theta: np.ndarray) -> tuple[float, np.ndarray]:
        w = theta[:-1]
        z = X @ w + theta[-1]
        # log(1 + e^z) - y z, elementwise-stable
        nll = np.logaddexp(0.0, z) - y * z
        loss = float(sample_weight @ nll + 0.5 * lam * (w @ w))
        residual = sample_weight * (probability(theta, z) - y)
        return loss, np.append(XT @ residual + lam * w, residual.sum())

    def hessp(theta: np.ndarray, v: np.ndarray) -> np.ndarray:
        if not np.array_equal(theta, at["theta"]):
            probability(theta, X @ theta[:-1] + theta[-1])
        with np.errstate(over="ignore", invalid="ignore"):  # the check below reports an overflow, not numpy
            u = at["d"] * (X @ v[:-1] + v[-1])
            product = np.append(XT @ u + lam * v[:-1], u.sum())
            if not np.isfinite(v @ product):  # trust-ncg's conjugate gradient never ends once its curvature overflows
                raise ValueError("the fit overflowed: feature values are too large")
        return product

    return fun, hessp


def loss_and_gradient(
    model: MaxentModel, dataset: Dataset, config: TrainConfig
) -> tuple[float, dict[str, float], float]:
    """Exact loss and gradient of the weighted objective at the model's point."""
    space = _dataset_space(dataset)
    if space != model.feature_space:
        raise ValueError("dataset feature space differs from the model's")
    X, y = _to_arrays(dataset, space)
    fun, _hessp = _objective(X, y, _sample_weight(y, config)[1], config.l2_lambda)
    loss, grad = fun(np.append(model.weight_vector(), model.bias))
    return loss, dict(zip(space.names, grad[:-1].tolist())), float(grad[-1])


def _optimize_newton(fun, hessp, theta0, max_iterations, tol):
    # scipy's gtol bounds the gradient 2-norm, which bounds the inf-norm train checks
    options = {"maxiter": max_iterations, "gtol": tol}
    result = scipy.optimize.minimize(fun, theta0, jac=True, hessp=hessp, method="trust-ncg", options=options)
    return result.x, int(result.nit)


def _optimize_lbfgs(fun, _hessp, theta0, max_iterations, tol):
    result = scipy.optimize.minimize(
        fun,
        theta0,
        jac=True,
        method="L-BFGS-B",
        options={
            "maxiter": max_iterations,
            "gtol": tol,
            "ftol": 1e-16,
            "maxfun": max(10 * max_iterations, 15000),
        },
    )
    return result.x, int(result.nit)


def _optimize_gd(fun, _hessp, theta0, max_iterations, tol):
    """Plain gradient descent with Armijo backtracking; the cross-check optimizer."""
    theta = theta0.copy()
    loss, grad = fun(theta)
    step = 1.0
    it = 0
    while it < max_iterations and np.max(np.abs(grad)) > tol:
        direction = -grad
        slope = grad @ direction
        while True:
            candidate = theta + step * direction
            new_loss, new_grad = fun(candidate)
            if new_loss <= loss + 1e-4 * step * slope:
                break
            step *= 0.5
            if step < 1e-18:
                return theta, it
        theta, loss, grad = candidate, new_loss, new_grad
        step = min(step * 2.0, 1e6)
        it += 1
    return theta, it


_OPTIMIZERS = {"newton": _optimize_newton, "lbfgs": _optimize_lbfgs, "gd": _optimize_gd}


def train(dataset: Dataset, config: TrainConfig, method: str = "newton") -> MaxentModel:
    """Fit the classifier, deterministic given the dataset in its order and the config;
    the fit draws nothing at random, so ``config.seed`` plays no part in it."""
    if method not in _OPTIMIZERS:
        raise ValueError(f"unknown optimizer {method!r}")
    space = _dataset_space(dataset)
    X, y = _to_arrays(dataset, space)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("training data must contain both classes")
    cw, sample_weight = _sample_weight(y, config)
    fun, hessp = _objective(X, y, sample_weight, config.l2_lambda)
    theta0 = np.zeros(X.shape[1] + 1)
    theta, n_iter = _OPTIMIZERS[method](fun, hessp, theta0, config.max_iterations, config.convergence_tol)
    _loss, final_grad = fun(theta)
    grad_inf = float(np.max(np.abs(final_grad))) if final_grad.size else 0.0
    converged = grad_inf <= config.convergence_tol
    status, cmp = ("converged", "<=") if converged else ("stopped unconverged", ">")
    logger.info(
        "%s fit %s after %d of max_iterations=%d (grad inf-norm %.3g %s tol %.3g), %d dims",
        method, status, n_iter, config.max_iterations, grad_inf, cmp, config.convergence_tol, X.shape[1],
    )
    weights = {name: float(value) for name, value in zip(space.names, theta[:-1])}
    return MaxentModel(
        weights=weights,
        bias=float(theta[-1]),
        feature_space=space,
        train_config=config,
        class_weight_value=cw,
        converged=converged,
        n_iterations=n_iter,
    )


def predict_proba(model: MaxentModel, vector: FeatureVector) -> float:
    """Probability that the thread draws an intervention."""
    if vector.space != model.feature_space:
        raise ValueError("vector feature space differs from the model's")
    total = model.bias
    for name, value in vector.values.items():
        total += model.weights.get(name, 0.0) * value
    return float(expit(total))


def predict(model: MaxentModel, vector: FeatureVector) -> int:
    """1 (intervened) iff the predicted probability is >= 0.5."""
    return 1 if predict_proba(model, vector) >= 0.5 else 0


def _fmt(x: float) -> str:
    return format(x, ".17g")


def save_model(model: MaxentModel, path: str | Path) -> None:
    """Serialize to the versioned text format (17 significant digits)."""
    settings = [
        f"{f.name}={(_fmt if isinstance(f.default, float) else str)(getattr(model.train_config, f.name))}"
        for f in fields(TrainConfig)
    ]
    lines = [
        MODEL_FORMAT_HEADER,
        "config\t" + "\t".join(settings + ["standardize=0"]),  # kept so model files stay format-compatible
        "fit\t"
        + "\t".join(
            [
                f"class_weight={_fmt(model.class_weight_value)}",
                f"converged={int(model.converged)}",
                f"n_iterations={model.n_iterations}",
            ]
        ),
        f"space\t{model.feature_space.config}\t{model.feature_space.provenance}\t{len(model.feature_space)}",
    ]
    lines += [f"w\t{name}\t{_fmt(model.weights.get(name, 0.0))}" for name in model.feature_space.names]
    lines.append(f"bias\t{_fmt(model.bias)}")
    lines.append("end")
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def load_model(path: str | Path) -> MaxentModel:
    """Read a model file strictly; a fault raises ModelFormatError with the byte offset of its line."""
    raw = Path(path).read_bytes()
    if not raw.startswith(f"{MODEL_FORMAT_HEADER}\n".encode()):
        raise ModelFormatError("not a forum-sentinel model file (bad header at byte 0)")
    lines = raw.split(b"\n")  # the last item follows the final LF, so it is never a whole line
    starts = list(itertools.accumulate((len(line) + 1 for line in lines), initial=0))
    at = 0  # index of the line being parsed

    def cells(tag: str, count: int) -> list[str]:
        """The ``count`` cells after the tag of the next line, which must be a ``tag`` line."""
        nonlocal at
        at += 1
        if at == len(lines) - 1:
            raise ValueError(f"truncated model file: expected a {tag!r} line")
        parts = lines[at].decode("utf-8").split("\t")
        if parts[0] != tag or len(parts) != count + 1:
            raise ValueError(f"expected a {tag!r} line of {count} cells")
        return parts[1:]

    def settings(tag: str, count: int) -> dict[str, str]:
        pairs = [cell.partition("=") for cell in cells(tag, count)]
        if not all(eq for _key, eq, _value in pairs):
            raise ValueError(f"a {tag!r} cell is not key=value")
        return {key: value for key, _eq, value in pairs}

    try:
        cfg_kv = settings("config", len(fields(TrainConfig)) + 1)
        config = TrainConfig(**{f.name: type(f.default)(cfg_kv[f.name]) for f in fields(TrainConfig)})
        if cfg_kv["standardize"] != "0":
            raise ValueError(f"unsupported standardize={cfg_kv['standardize']}")
        fit_kv = settings("fit", 3)
        if fit_kv["converged"] not in ("0", "1"):
            raise ValueError(f"converged={fit_kv['converged']} is not 0 or 1")
        class_weight_value, n_iterations = float(fit_kv["class_weight"]), int(fit_kv["n_iterations"])
        space_config, provenance, ndims = cells("space", 3)
        weights: dict[str, float] = {}
        for _ in range(int(ndims)):
            name, value = cells("w", 2)
            if name in weights:
                raise ValueError(f"duplicate weight line for {name!r}")
            weights[name] = float(value)
        bias = float(cells("bias", 1)[0])
        cells("end", 0)
    except (KeyError, ValueError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ModelFormatError(f"bad model file line at byte {starts[at]}: {reason}") from None
    if starts[at + 1] < len(raw):
        raise ModelFormatError(f"bytes after the end line at byte {starts[at + 1]}")

    space = FeatureSpace(tuple(weights), space_config)
    if space.provenance != provenance:
        raise ModelFormatError("feature-space hash mismatch: file is corrupt or edited")
    return MaxentModel(
        weights=weights,
        bias=bias,
        feature_space=space,
        train_config=config,
        class_weight_value=class_weight_value,
        converged=fit_kv["converged"] == "1",
        n_iterations=n_iterations,
    )
