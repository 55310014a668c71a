"""Class-weighted maximum-entropy (binary logistic) classifier.

The loss is the class-weighted negative conditional log-likelihood plus an L2
penalty on the weights (bias unpenalized): positive examples are multiplied
by the negative/positive training-count ratio, which is how the classifier
counteracts the heavy skew toward non-intervened threads. Training is
deterministic. The default fit is trust-region Newton with Steihaug's conjugate
gradient on the exact Hessian-vector product, scipy's trust-ncg step for step;
L-BFGS-B and a backtracking gradient descent are cross-checks, and with
lambda>0 all three must agree on the unique optimum. CG reuses r·r from the
step before and updates its direction in place, with scipy's bits; ``_dot``
keeps every dot product over the weights free of the BLAS thread count.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec
from scipy.special import expit

from .corpus import WRITTEN, InputError
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
        if vec.space is not space and vec.space != space:
            raise ValueError("dataset mixes feature spaces")
    return space


def _to_arrays(dataset: Dataset, space: FeatureSpace) -> tuple[sp.csr_matrix, np.ndarray]:
    y = np.array([float(label) for _vec, label in dataset])
    indptr = np.cumsum([0] + [len(vec.values) for vec, _label in dataset])
    names = itertools.chain.from_iterable([vec.values for vec, _label in dataset])
    values = itertools.chain.from_iterable([vec.values.values() for vec, _label in dataset])
    indices = np.fromiter(map(space.index.__getitem__, names), np.int64, indptr[-1])
    data = np.fromiter(values, float, indptr[-1])
    X = sp.csr_matrix((data, indices, indptr), shape=(len(dataset), len(space)))
    X.sum_duplicates()  # sorts each row by column, so dict order cannot move the bits
    return X, y


def _sample_weight(y: np.ndarray, config: TrainConfig) -> tuple[float, np.ndarray]:
    """The positive-loss multiplier and the per-example weights it gives."""
    n_pos = int(y.sum())
    cw = 1.0 if config.class_weight_mode == "none" else class_weight(n_pos, len(y) - n_pos)
    return cw, np.where(y == 1.0, cw, 1.0)


def _kernel_product(A: sp.csr_matrix):
    """``product(v, out=zeros)`` adds A @ v into ``out`` and returns it, through ``csr_matvec``,
    the kernel ``A @ v`` ends in: a zero ``out`` gets ``A @ v``'s bits without scipy.sparse's
    per-call dispatch. The kernel checks no length, so the product does."""
    n_row, n_col = A.shape
    parts = (n_row, n_col, A.indptr, A.indices, A.data)

    def product(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.zeros(n_row)
        if v.shape != (n_col,) or out.shape != (n_row,):
            raise ValueError(f"a {n_row}x{n_col} product got v of shape {v.shape} and out of shape {out.shape}")
        csr_matvec(*parts, v, out)
        return out

    return product


def _objective(X: sp.csr_matrix, y: np.ndarray, sample_weight: np.ndarray, lam: float):
    """The weighted objective over theta = (w, b): ``fun(theta) -> (loss, gradient, curvature)``
    and the exact Hessian-vector product ``hessp(curvature, v)`` at the point whose curvature
    D = sw·p(1−p) ``fun`` returned. Xᵀ is built once. Both products go through
    ``_kernel_product``, so they keep ``X @ v``'s bits.
    """
    d = X.shape[1]
    x_product, xt_product = _kernel_product(X), _kernel_product(X.T.tocsr())

    def back(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """(Xᵀu + lam·v, Σu) in one array, the gradient's or the Hessian product's shape."""
        out = np.zeros(d + 1)
        head = xt_product(u, out[:-1])
        head += lam * v
        out[-1] = np.add.reduce(u)  # u.sum() without its Python-level wrapper
        return out

    def fun(theta: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        w = theta[:-1]
        z = x_product(w)
        z += theta[-1]
        # log(1 + e^z) - y z, elementwise-stable
        nll = np.logaddexp(0.0, z) - y * z
        # numpy's pairwise sum, not BLAS ddot: a threaded ddot's bits depend on the thread
        # count, and einsum's coarser sum left trust-ncg short of tol on 10k-row fits
        loss = float(np.sum(sample_weight * nll) + 0.5 * lam * _dot(w, w))
        p = expit(z)
        return loss, back(sample_weight * (p - y), w), sample_weight * p * (1.0 - p)

    def hessp(curvature: np.ndarray, v: np.ndarray) -> np.ndarray:
        w = v[:-1]
        u = x_product(w)
        u += v[-1]
        u *= curvature  # curvature times the margin, as the product commutes
        return back(u, w)

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
    loss, grad, _curvature = fun(np.append(model.weight_vector(), model.bias))
    return loss, dict(zip(space.names, grad[:-1].tolist())), float(grad[-1])


_OVERFLOW = "the fit overflowed: feature values are too large"
_nrm2 = scipy.linalg.get_blas_funcs("nrm2", dtype=np.float64, ilp64="preferred")  # as scipy.linalg.norm picks it
_STOPS = ("Optimization terminated successfully.", "Maximum number of iterations has been exceeded.",
          "A bad approximation caused failure to predict improvement.")  # trust-ncg's, by status


_DOT_CHUNK = 8192  # OpenBLAS threads ddot above 10,000 elements, and a threaded sum rounds by thread count


def _dot(a: np.ndarray, b: np.ndarray):
    """a·b as ddots of at most ``_DOT_CHUNK`` elements summed left to right: one ``np.dot`` up to that length."""
    if len(a) <= _DOT_CHUNK:
        return np.dot(a, b)
    return sum(np.dot(a[i:i + _DOT_CHUNK], b[i:i + _DOT_CHUNK]) for i in range(0, len(a), _DOT_CHUNK))


def _norm(v: np.ndarray) -> float:
    """‖v‖₂ by BLAS dnrm2, as scipy.linalg.norm takes it; a NaN or inf in v raises, as there."""
    norm = _nrm2(v)
    if not math.isfinite(norm) and not np.isfinite(v).all():
        raise InputError(_OVERFLOW)
    return norm


def _to_boundary(z: np.ndarray, d: np.ndarray, radius: float) -> list:
    """Both t with ‖z + t·d‖ = radius, low then high, in scipy's rounding-stable form."""
    a, b, c = _dot(d, d), 2 * _dot(z, d), _dot(z, z) - radius**2
    aux = b + math.copysign(math.sqrt(b * b - 4 * a * c), b)
    return sorted([-aux / (2 * a), -2 * c / aux])


def _trust_ncg(fun, x0, *, hessp, maxiter, gtol, **_unused):
    """scipy's trust-ncg step for step, with its arithmetic in its order, so its bits: Steihaug CG in a
    trust region of radius 1 at the start and at most 1000, keeping a step whose ratio of actual to
    predicted reduction exceeds 0.15. ``nit`` counts every trial step. A ``scipy.optimize.minimize``
    method over ``_objective``'s ``fun`` and ``hessp``."""
    x, radius, nit, status = x0, 1.0, 0, 0
    f, g, curvature = fun(x)
    g_norm = _norm(g)

    def curve(v):  # (Hv, v·Hv) at x; CG never ends once that curvature overflows, so it raises
        hv = hessp(curvature, v)
        if not math.isfinite(vhv := _dot(v, hv)):
            raise InputError(_OVERFLOW)
        return hv, vhv

    def predicted(p):
        return f + _dot(g, p) + 0.5 * curve(p)[1]

    def steihaug():
        tolerance = min(0.5, math.sqrt(g_norm)) * g_norm
        z, r, d = np.zeros_like(g), g, -g
        r_squared = _dot(r, r)
        while True:
            bd, dbd = curve(d)
            if dbd <= 0:  # nonpositive curvature: the better of the two boundary points
                pa, pb = (z + t * d for t in _to_boundary(z, d, radius))
                return (pa if predicted(pa) < predicted(pb) else pb), True
            alpha = r_squared / dbd
            z_next = z + alpha * d
            if _norm(z_next) >= radius:
                return z + _to_boundary(z, d, radius)[1] * d, True
            r_next = r + alpha * bd
            r_next_squared = _dot(r_next, r_next)
            if math.sqrt(r_next_squared) < tolerance:
                return z_next, False
            # -r_next + beta·d in place: d·beta − r_next rounds as that sum does; r·r carries over
            d *= r_next_squared / r_squared
            d -= r_next
            z, r, r_squared = z_next, r_next, r_next_squared

    with np.errstate(over="ignore", invalid="ignore"):  # the checks report an overflow, not numpy
        while g_norm >= gtol:
            p, hits_boundary = steihaug()
            predicted_reduction = f - predicted(p)
            if predicted_reduction <= 0:
                status = 2
                break
            trial = x + p
            f_trial, g_trial, curvature_trial = fun(trial)
            rho = (f - f_trial) / predicted_reduction
            if rho < 0.25:
                radius *= 0.25
            elif rho > 0.75 and hits_boundary:
                radius = min(2 * radius, 1000.0)
            if rho > 0.15:
                x, f, g, curvature, g_norm = trial, f_trial, g_trial, curvature_trial, _norm(g_trial)
            nit += 1
            if g_norm >= gtol and nit >= maxiter:
                status = 1
                break
    return scipy.optimize.OptimizeResult(x=x, jac=g, nit=nit, status=status, message=_STOPS[status])


def _optimize_newton(fun, hessp, theta0, max_iterations, tol):
    # gtol bounds the gradient 2-norm, which bounds the inf-norm train checks; the loop runs as a
    # scipy.optimize.minimize method, so each fit is one call there, as it was with scipy's own loop
    options = {"maxiter": max_iterations, "gtol": tol}
    result = scipy.optimize.minimize(fun, theta0, hessp=hessp, method=_trust_ncg, options=options)
    return result.x, int(result.nit), str(result.message), result.jac


def _optimize_lbfgs(fun, _hessp, theta0, max_iterations, tol):
    result = scipy.optimize.minimize(
        lambda theta: fun(theta)[:2],
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
    return result.x, int(result.nit), str(result.message), result.jac


def _optimize_gd(fun, _hessp, theta0, max_iterations, tol):
    """Plain gradient descent with Armijo backtracking; the cross-check optimizer.
    Like the others, it returns the point, its iteration count, why it stopped and the gradient there."""
    theta = theta0.copy()
    loss, grad, _curvature = fun(theta)
    step = 1.0
    it = 0
    while it < max_iterations and np.max(np.abs(grad)) > tol:
        direction = -grad
        slope = _dot(grad, direction)
        while True:
            candidate = theta + step * direction
            new_loss, new_grad, _curvature = fun(candidate)
            if new_loss <= loss + 1e-4 * step * slope:
                break
            step *= 0.5
            if step < 1e-18:
                return theta, it, "line search step fell below 1e-18", grad
        theta, loss, grad = candidate, new_loss, new_grad
        step = min(step * 2.0, 1e6)
        it += 1
    return theta, it, "gradient inf-norm within tol" if it < max_iterations else "max_iterations reached", grad


_OPTIMIZERS = {"newton": _optimize_newton, "lbfgs": _optimize_lbfgs, "gd": _optimize_gd}


def train(dataset: Dataset, config: TrainConfig, method: str = "newton") -> MaxentModel:
    """Fit the classifier, deterministic given the dataset in its order and the config;
    the fit draws nothing at random, so ``config.seed`` plays no part in it."""
    if method not in _OPTIMIZERS:
        raise ValueError(f"unknown optimizer {method!r}")
    space = _dataset_space(dataset)
    X, y = _to_arrays(dataset, space)
    del dataset  # the fit reads only X and y, so rows no caller holds (cli's train) are freed here
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("training data must contain both classes")
    cw, sample_weight = _sample_weight(y, config)
    fun, hessp = _objective(X, y, sample_weight, config.l2_lambda)
    theta0 = np.zeros(X.shape[1] + 1)
    # each optimizer also returns the gradient at its point, the bits fun(theta) would give again
    optimize = _OPTIMIZERS[method]
    theta, n_iter, reason, final_grad = optimize(fun, hessp, theta0, config.max_iterations, config.convergence_tol)
    grad_inf = float(np.max(np.abs(final_grad))) if final_grad.size else 0.0
    converged = grad_inf <= config.convergence_tol
    status, cmp = ("converged", "<=") if converged else (f"stopped unconverged ({reason})", ">")
    logger.info(
        "%s fit %s after %d of max_iterations=%d (grad inf-norm %.3g %s tol %.3g), %d dims",
        method, status, n_iter, config.max_iterations, grad_inf, cmp, config.convergence_tol, X.shape[1],
    )
    weights = dict(zip(space.names, theta[:-1].tolist()))
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

    def number(text: str, what: str, kind: type = float):
        value = kind(text)
        if kind is float and not math.isfinite(value):
            raise ValueError(f"{what} is {text}, not finite")
        if not WRITTEN[kind.__name__].fullmatch(text):
            raise ValueError(f"{what} is {text!r}, not a number in the form the model writer uses")
        return value

    def settings(tag: str, count: int) -> dict[str, str]:
        pairs = [cell.partition("=") for cell in cells(tag, count)]
        if not all(eq for _key, eq, _value in pairs):
            raise ValueError(f"a {tag!r} cell is not key=value")
        return {key: value for key, _eq, value in pairs}

    try:
        cfg_kv = settings("config", len(fields(TrainConfig)) + 1)
        config = TrainConfig(**{f.name: cfg_kv[f.name] if isinstance(f.default, str) else
                                number(cfg_kv[f.name], f.name, type(f.default)) for f in fields(TrainConfig)})
        if cfg_kv["standardize"] != "0":
            raise ValueError(f"unsupported standardize={cfg_kv['standardize']}")
        fit_kv = settings("fit", 3)
        if fit_kv["converged"] not in ("0", "1"):
            raise ValueError(f"converged={fit_kv['converged']} is not 0 or 1")
        class_weight_value = number(fit_kv["class_weight"], "class_weight")
        if class_weight_value <= 0:
            raise ValueError(f"class_weight={fit_kv['class_weight']} is not positive")
        n_iterations = number(fit_kv["n_iterations"], "n_iterations", int)
        if not 0 <= n_iterations <= config.max_iterations:
            raise ValueError(f"n_iterations={n_iterations} is not within 0..max_iterations={config.max_iterations}")
        space_config, provenance, ndims = cells("space", 3)
        if (n_dims := number(ndims, "the dimension count", int)) < 0:
            raise ValueError(f"the dimension count {n_dims} is negative")
        weights: dict[str, float] = {}
        for _ in range(n_dims):
            name, value = cells("w", 2)
            if name in weights:
                raise ValueError(f"duplicate weight line for {name!r}")
            weights[name] = number(value, f"weight of {name!r}")
        bias = number(cells("bias", 1)[0], "bias")
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
