from __future__ import annotations

import functools
import itertools
import logging
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from forum_sentinel.corpus import InputError
from forum_sentinel.features import FeatureSpace, FeatureVector
from forum_sentinel.model import (
    MaxentModel,
    ModelFormatError,
    TrainConfig,
    _OPTIMIZERS,
    _kernel_product,
    _objective,
    _optimize_newton,
    _to_arrays,
    _trust_ncg,
    class_weight,
    load_model,
    loss_and_gradient,
    predict,
    predict_proba,
    save_model,
    train,
)


def make_space(n: int) -> FeatureSpace:
    return FeatureSpace(tuple(f"f{i}" for i in range(n)), "test")


def random_dataset(rng: random.Random, n: int, dims: int, space=None, sep: float = 1.0):
    """Two noisy Gaussian clouds; sep controls separation."""
    space = space or make_space(dims)
    data = []
    for i in range(n):
        label = i % 2
        center = sep if label else -sep
        values = {
            f"f{j}": rng.gauss(center, 1.0) for j in range(dims) if rng.random() < 0.8
        }
        data.append((FeatureVector(values, space), label))
    return data


def zero_model(space: FeatureSpace, config: TrainConfig) -> MaxentModel:
    return MaxentModel(weights={}, bias=0.0, feature_space=space, train_config=config)


def model_at(space, rng, config, scale=1.0) -> MaxentModel:
    weights = {name: rng.gauss(0, scale) for name in space.names}
    return MaxentModel(weights=weights, bias=rng.gauss(0, scale), feature_space=space, train_config=config)


@pytest.mark.parametrize("name", ["l2_lambda", "convergence_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_train_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        TrainConfig(**{name: value})


class TestClassWeight:
    def test_reference_ratios(self):
        assert class_weight(40, 265) == pytest.approx(6.625)
        assert class_weight(81, 2332) == pytest.approx(28.79, abs=0.005)

    def test_no_negatives_gives_zero(self):
        assert class_weight(5, 0) == 0.0

    def test_no_positives_is_error(self):
        with pytest.raises(ValueError):
            class_weight(0, 10)


class TestLossAndGradient:
    def test_zero_model_balanced_pair(self):
        space = make_space(2)
        config = TrainConfig(l2_lambda=0.0)
        data = [
            (FeatureVector({"f0": 1.0}, space), 1),
            (FeatureVector({"f1": 1.0}, space), 0),
        ]
        loss, _gw, _gb = loss_and_gradient(zero_model(space, config), data, config)
        assert loss == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_gradient_matches_central_differences(self):
        # independent oracle: central finite differences at step 1e-5
        rng = random.Random(42)
        h = 1e-5
        for trial in range(10):
            space = make_space(6)
            config = TrainConfig(l2_lambda=rng.choice([0.0, 1e-3, 1e-1]))
            data = random_dataset(rng, 14, 6, space)
            model = model_at(space, rng, config)

            def loss_at(weights, bias):
                m = MaxentModel(weights=weights, bias=bias, feature_space=space, train_config=config)
                return loss_and_gradient(m, data, config)[0]

            _loss, grad, grad_b = loss_and_gradient(model, data, config)
            for name in space.names:
                up = dict(model.weights)
                down = dict(model.weights)
                up[name] += h
                down[name] -= h
                fd = (loss_at(up, model.bias) - loss_at(down, model.bias)) / (2 * h)
                denom = max(abs(fd), 1.0)
                assert abs(grad[name] - fd) / denom < 1e-4, f"trial {trial}, {name}"
            fd_b = (loss_at(model.weights, model.bias + h) - loss_at(model.weights, model.bias - h)) / (2 * h)
            assert abs(grad_b - fd_b) / max(abs(fd_b), 1.0) < 1e-4

    @pytest.mark.parametrize("lam", [0.0, 1e-2])
    def test_hessian_product_matches_gradient_differences(self, lam):
        # independent oracle: central differences of the exact gradient along v
        rng = random.Random(17)
        space = make_space(5)
        config = TrainConfig(l2_lambda=lam)
        data = random_dataset(rng, 20, 5, space)
        X, y = _to_arrays(data, space)
        fun, hessp = _objective(X, y, np.where(y == 1.0, 2.5, 1.0), config.l2_lambda)

        def grad(theta):
            return fun(theta)[1]

        h = 1e-5
        for _ in range(2):  # the second point checks that D follows theta
            theta = np.array([rng.gauss(0, 1) for _ in range(6)])
            v = np.array([rng.gauss(0, 1) for _ in range(6)])
            fd = (grad(theta + h * v) - grad(theta - h * v)) / (2 * h)
            np.testing.assert_allclose(hessp(fun(theta)[2], v), fd, rtol=1e-6, atol=1e-6)

    def test_doubling_class_weight_doubles_positive_contribution(self):
        rng = random.Random(0)
        space = make_space(4)
        config = TrainConfig(l2_lambda=0.0)
        data = random_dataset(rng, 10, 4, space)
        model = model_at(space, rng, config)
        X, y = _to_arrays(data, space)
        theta = np.append(model.weight_vector(), model.bias)
        g0, g1, g2 = (
            _objective(X, y, np.where(y == 1.0, cw, 1.0), config.l2_lambda)[0](theta)[1] for cw in (0.0, 1.0, 2.0)
        )
        for i in range(len(space) + 1):  # every weight, then the bias
            assert g2[i] - g0[i] == pytest.approx(2 * (g1[i] - g0[i]), abs=1e-12)

    def test_convexity_midpoint_inequality(self):
        rng = random.Random(3)
        space = make_space(5)
        config = TrainConfig(l2_lambda=1e-3)
        data = random_dataset(rng, 12, 5, space)
        for _ in range(100):
            m1 = model_at(space, rng, config)
            m2 = model_at(space, rng, config)
            mid = MaxentModel(
                weights={n: (m1.weights[n] + m2.weights[n]) / 2 for n in space.names},
                bias=(m1.bias + m2.bias) / 2,
                feature_space=space,
                train_config=config,
            )
            l1 = loss_and_gradient(m1, data, config)[0]
            l2 = loss_and_gradient(m2, data, config)[0]
            lm = loss_and_gradient(mid, data, config)[0]
            assert lm <= (l1 + l2) / 2 + 1e-9

    def test_mismatched_space_rejected(self):
        space_a, space_b = make_space(2), FeatureSpace(("g0",), "other")
        config = TrainConfig()
        data = [(FeatureVector({"g0": 1.0}, space_b), 1)]
        with pytest.raises(ValueError, match="space"):
            loss_and_gradient(zero_model(space_a, config), data, config)


class TestMatrixAndObjectiveBits:
    """The fit's matrix and its objective are pinned bit for bit to the plain constructions."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), dims=st.integers(1, 8))
    def test_to_arrays_matches_a_coo_build(self, seed, n, dims):
        rng = random.Random(seed)
        space = make_space(dims)
        data = []
        for vec, label in random_dataset(rng, n, dims, space):
            items = list(vec.values.items())
            rng.shuffle(items)
            data.append((FeatureVector(dict(items), space), label))
        X, y = _to_arrays(data, space)
        rows = [i for i, (vec, _label) in enumerate(data) for _name in vec.values]
        cols = [space.index[name] for vec, _label in data for name in vec.values]
        values = [value for vec, _label in data for value in vec.values.values()]
        reference = sp.csr_matrix((values, (rows, cols)), shape=(n, dims))
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(X, attr), getattr(reference, attr)), attr
        assert sp.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape).has_canonical_format
        assert np.array_equal(y, [float(label) for _vec, label in data])

    def test_objective_matches_a_transpose_built_on_every_call(self):
        rng = random.Random(5)
        space = make_space(6)
        X, y = _to_arrays(random_dataset(rng, 40, 6, space), space)
        sw, lam = np.where(y == 1.0, 3.0, 1.0), 1e-3
        fun, hessp = _objective(X, y, sw, lam)

        def reference_fun(theta):
            w = theta[:-1]
            z = X @ w + theta[-1]
            residual = sw * (expit(z) - y)
            loss = float(np.sum(sw * (np.logaddexp(0.0, z) - y * z)) + 0.5 * lam * (w @ w))
            return loss, np.append(X.T @ residual + lam * w, residual.sum())

        def reference_hessp(theta, v):
            p = expit(X @ theta[:-1] + theta[-1])
            u = sw * p * (1.0 - p) * (X @ v[:-1] + v[-1])
            return np.append(X.T @ u + lam * v[:-1], u.sum())

        a, b, c = (np.array([rng.gauss(0, 1) for _ in range(7)]) for _ in range(3))
        theta = c.copy()
        # trust-ncg's order: fun then products at a point; a rejected trial point b sends it back to a;
        # c is changed in place after fun saw it, and products at it still use the curvature fun gave
        calls = [("fun", a), ("hessp", a), ("hessp", a), ("fun", b), ("hessp", a), ("fun", a),
                 ("fun", theta), ("mutate", theta), ("hessp", c), ("fun", b + 1.0), ("hessp", b + 1.0)]
        curvature_at = {}
        for kind, point in calls:
            if kind == "mutate":
                point += 0.5
            elif kind == "fun":
                (loss, grad, curvature), (want_loss, want_grad) = fun(point), reference_fun(point)
                assert loss == want_loss and np.array_equal(grad, want_grad)
                curvature_at[point.tobytes()] = curvature
            else:
                v = np.array([rng.gauss(0, 1) for _ in range(7)])
                assert np.array_equal(hessp(curvature_at[point.tobytes()], v), reference_hessp(point, v))

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), d=st.integers(1, 12),
        density=st.sampled_from([0.0, 0.2, 0.6, 1.0]), square=st.booleans(),
    )
    @example(seed=0, n=1, d=1, density=1.0, square=False)
    @example(seed=1, n=5, d=5, density=0.6, square=True)
    @example(seed=2, n=4, d=3, density=0.0, square=False)
    def test_kernel_products_match_scipy_bit_for_bit(self, seed, n, d, density, square):
        rng = np.random.default_rng(seed)
        d = n if square else d
        dense = rng.normal(0, 1e3, (n, d)) * (rng.random((n, d)) < density)
        dense *= (rng.random((n, 1)) < 0.7) & (rng.random((1, d)) < 0.7)  # some rows and columns empty
        X = sp.csr_matrix(dense)
        XT = X.T.tocsr()
        v, u = rng.normal(size=d) * 10.0 ** rng.integers(-3, 4, d), rng.normal(size=n)
        assert _kernel_product(X)(v).tobytes() == (X @ v).tobytes()
        assert _kernel_product(XT)(u).tobytes() == (X.T @ u).tobytes()
        out = np.zeros(d + 1)  # a view of a longer output, as the objective's gradient takes it
        out[-1] = 7.0
        _kernel_product(XT)(u, out[:-1])
        assert out[:-1].tobytes() == (X.T @ u).tobytes() and out[-1] == 7.0
        with pytest.raises(ValueError, match="shape"):
            _kernel_product(X)(np.zeros(d + 1))
        with pytest.raises(ValueError, match="shape"):
            _kernel_product(X)(v, np.zeros(n + 1))

    def test_loss_bits_do_not_depend_on_blas_threads(self):
        # OpenBLAS threads a dot product above 10,000 elements, and a threaded sum
        # rounds differently; on one core both children sum alike either way
        script = (
            "import numpy as np, scipy.sparse as sp\n"
            "from forum_sentinel.model import _objective\n"
            "rng = np.random.default_rng(3)\n"
            "X = sp.random(10_700, 40, density=0.2, random_state=rng, format='csr')\n"
            "y = (rng.random(10_700) < 0.3).astype(float)\n"
            "fun, _hessp = _objective(X, y, np.where(y == 1.0, 2.3, 1.0), 1e-4)\n"
            "print(repr(fun(rng.normal(size=41))[0]))\n"
        )
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(resources.files("forum_sentinel").parent)
        losses = [
            subprocess.run([sys.executable, "-c", script], env=child_env, capture_output=True, text=True,
                           timeout=120, check=True).stdout
            for child_env in ({**env, "OPENBLAS_NUM_THREADS": "1"}, env)
        ]
        assert losses[0] == losses[1] and losses[0].strip()


def small_problem(seed: int, n: int, d: int, density: float, scale: float, start: float, lam: float):
    """A random n x d objective with features of the given scale, and a start point of the given scale."""
    rng = np.random.default_rng(seed)
    X = sp.csr_matrix(rng.normal(0, scale, (n, d)) * (rng.random((n, d)) < density))
    y = (rng.random(n) < 0.5).astype(float)
    fun, hessp = _objective(X, y, np.where(y == 1.0, 2.0, 1.0), lam)
    return fun, hessp, rng.normal(0, start, d + 1)


def traced_newton(fun, hessp, theta0, max_iterations, tol):
    """``_optimize_newton`` with a log of its path, read from outside the loop: a trial step was
    rejected when a product uses an older point's curvature than the last ``fun`` returned; a
    direction is flat when v·Hv <= 0; the first trial step ended on the trust boundary when it is
    1 (the initial radius) long."""
    log = {"points": [], "rejected": 0, "flat": 0}
    last = {}

    def logged_fun(theta):
        loss, grad, last["curvature"] = fun(theta)
        log["points"].append(theta.copy())
        return loss, grad, last["curvature"]

    def logged_hessp(curvature, v):
        if curvature is not last["curvature"]:
            log["rejected"] += 1
            last["curvature"] = curvature
        product = hessp(curvature, v)
        log["flat"] += bool(np.dot(v, product) <= 0)
        return product

    result = _optimize_newton(logged_fun, logged_hessp, theta0, max_iterations, tol)
    first = log["points"][1:2]
    log["boundary"] = bool(first) and abs(np.linalg.norm(first[0] - theta0) - 1.0) < 1e-12
    return result, log


class TestTrustRegionLoop:
    """The Newton fit's own loop takes scipy's trust-ncg path: the same point bit for bit, the same
    number of trial steps and the same stop message."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), d=st.integers(1, 4),
        density=st.sampled_from([0.3, 0.6, 1.0]), scale=st.sampled_from([0.1, 1.0, 10.0, 100.0]),
        start=st.sampled_from([0.0, 1.0, 10.0, 100.0]), lam=st.sampled_from([0.0, 1e-4, 1e-2]),
        max_iterations=st.integers(1, 3) | st.just(100), tol=st.sampled_from([1e-6, 1e-300]),
        shows=st.just(None),
    )
    # each example is the first of seeds 0-399 whose traced path, on the shape listed, shows its case;
    # "flat" needs lambda 0 and margins so large that p(1-p) vanishes, so CG meets v·Hv <= 0
    @example(seed=0, n=8, d=2, density=1.0, scale=10.0, start=1.0, lam=1e-4, max_iterations=3, tol=1e-6,
             shows="rejected")
    @example(seed=0, n=6, d=3, density=0.6, scale=1.0, start=0.0, lam=1e-2, max_iterations=1, tol=1e-6,
             shows="boundary")
    @example(seed=1, n=6, d=2, density=1.0, scale=10.0, start=100.0, lam=0.0, max_iterations=2, tol=1e-6,
             shows="flat")
    @example(seed=0, n=12, d=3, density=1.0, scale=1.0, start=0.0, lam=1e-4, max_iterations=100, tol=1e-300,
             shows="bad approximation")
    def test_path_matches_scipy_trust_ncg(self, seed, n, d, density, scale, start, lam, max_iterations, tol, shows):
        fun, hessp, theta0 = small_problem(seed, n, d, density, scale, start, lam)
        (x, nit, message, _grad), log = traced_newton(fun, hessp, theta0, max_iterations, tol)
        reference = scipy.optimize.minimize(
            lambda theta: fun(theta)[:2], theta0, jac=True, hessp=lambda theta, v: hessp(fun(theta)[2], v),
            method="trust-ncg", options={"maxiter": max_iterations, "gtol": tol},
        )
        assert x.tobytes() == reference.x.tobytes()
        assert (nit, message) == (reference.nit, reference.message)
        if shows == "rejected":
            assert log["rejected"]
        elif shows == "boundary":
            assert log["boundary"]
        elif shows == "flat":
            assert log["flat"]
        elif shows == "bad approximation":
            assert message == "A bad approximation caused failure to predict improvement."

    def test_a_non_finite_norm_is_an_overflow(self):
        # scipy's norm raises on a NaN or inf through asarray_chkfinite; the loop's BLAS norm does too
        def fun(theta):
            return 0.0, np.array([np.inf, 1.0]), np.ones(1)

        with pytest.raises(ValueError):
            scipy.optimize.minimize(lambda t: fun(t)[:2], np.zeros(2), jac=True, hessp=lambda t, v: v,
                                    method="trust-ncg")
        with pytest.raises(InputError, match="^the fit overflowed"):
            scipy.optimize.minimize(fun, np.zeros(2), hessp=lambda c, v: v, method=_trust_ncg,
                                    options={"maxiter": 1, "gtol": 1e-6})


@pytest.mark.parametrize("method", ["newton", "lbfgs", "gd"])
def test_optimizer_returns_the_gradient_at_its_point(method):
    """train logs and checks the gradient an optimizer returns, so it must be fun's at the returned point."""
    reasons = set()
    for seed, scale, max_iterations, tol in itertools.product(range(8), [1.0, 10.0], [1, 3, 500], [1e-6, 1e-300]):
        fun, hessp, theta0 = small_problem(seed, 12, 4, 0.6, scale, 1.0, 1e-4)
        theta, _nit, reason, grad = _OPTIMIZERS[method](fun, hessp, theta0, max_iterations, tol)
        assert grad.tobytes() == fun(theta)[1].tobytes()
        reasons.add(reason)
    assert len(reasons) >= 2  # stops other than the iteration cap are covered too


class TestTrain:
    def _separable(self):
        space = make_space(2)
        return space, [
            (FeatureVector({"f0": 1.0}, space), 1),
            (FeatureVector({"f0": 2.0}, space), 1),
            (FeatureVector({"f1": 1.0}, space), 0),
            (FeatureVector({"f1": 2.0}, space), 0),
        ]

    def test_separable_reaches_full_accuracy(self):
        space, data = self._separable()
        model = train(data, TrainConfig(l2_lambda=1e-4))
        assert all(predict(model, vec) == label for vec, label in data)

    def test_two_optimizers_agree_under_strong_convexity(self):
        rng = random.Random(9)
        space = make_space(5)
        data = random_dataset(rng, 30, 5, space, sep=0.5)
        config = TrainConfig(l2_lambda=1e-2, max_iterations=100000, convergence_tol=1e-8)
        a = train(data, config, method="lbfgs")
        b = train(data, config, method="gd")
        assert a.converged and b.converged
        for name in space.names:
            assert a.weights[name] == pytest.approx(b.weights[name], abs=1e-5)
        assert a.bias == pytest.approx(b.bias, abs=1e-5)

    def test_newton_agrees_with_cross_checks(self):
        # the problem of test_acceptance.py::test_optimization_suite
        rng = random.Random(8)
        space = make_space(4)
        data = []
        for i in range(30):
            label = i % 2
            values = {f"f{j}": rng.gauss(0.8 if label else -0.8, 1.0) for j in range(4)}
            data.append((FeatureVector(values, space), label))
        config = TrainConfig(l2_lambda=1e-2, max_iterations=100000, convergence_tol=1e-8)
        newton = train(data, config, method="newton")
        assert newton.converged
        for method in ("gd", "lbfgs"):
            other = train(data, config, method=method)
            for name in space.names:
                assert newton.weights[name] == pytest.approx(other.weights[name], abs=1e-5)
            assert newton.bias == pytest.approx(other.bias, abs=1e-5)

    def test_bit_deterministic(self, tmp_path):
        rng = random.Random(5)
        space = make_space(6)
        data = random_dataset(rng, 24, 6, space)
        config = TrainConfig(seed=13)
        m1 = train(data, config, method="newton")
        m2 = train(data, config, method="newton")
        assert m1.weights == m2.weights and m1.bias == m2.bias
        save_model(m1, tmp_path / "a.txt")
        save_model(m2, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_row_dict_order_cannot_move_the_bits(self):
        rng = random.Random(5)
        space = make_space(6)
        data = random_dataset(rng, 24, 6, space)
        flipped = [(FeatureVector(dict(reversed(vec.values.items())), space), label) for vec, label in data]
        assert [list(v.values) for v, _ in flipped] != [list(v.values) for v, _ in data]
        a = train(data, TrainConfig())
        b = train(flipped, TrainConfig())
        assert a.weights == b.weights and a.bias == b.bias

    def test_single_class_rejected(self):
        space = make_space(1)
        data = [(FeatureVector({"f0": 1.0}, space), 1)] * 3
        with pytest.raises(ValueError, match="both classes"):
            train(data, TrainConfig())

    @pytest.mark.parametrize("value", [1e100, 1e300])
    def test_overflowing_fit_raises(self, value):
        space = make_space(1)
        data = [(FeatureVector({"f0": value}, space), 1), (FeatureVector({}, space), 1), (FeatureVector({}, space), 0)]
        with pytest.raises(ValueError, match="overflowed"):  # 1e100 used to spin in trust-ncg forever
            train(data, TrainConfig())

    def test_an_overflowing_fit_is_bad_input(self):
        space = make_space(1)
        data = [(FeatureVector({"f0": 1e300}, space), 1), (FeatureVector({}, space), 1), (FeatureVector({}, space), 0)]
        with pytest.raises(InputError, match="^the fit overflowed"):  # so eval exits 2, as train does
            train(data, TrainConfig())

    def test_regularization_shrinks_weights_monotonically(self):
        rng = random.Random(11)
        space = make_space(4)
        data = random_dataset(rng, 40, 4, space)
        norms = []
        for lam in (1e-4, 1.0, 100.0):
            model = train(data, TrainConfig(l2_lambda=lam, class_weight_mode="none"))
            norms.append(float(np.linalg.norm(model.weight_vector())))
        assert norms[0] > norms[1] > norms[2]
        # in the heavy-penalty limit the weights die and predictions ride on
        # the bias alone, which settles at the base rate
        crushed = train(data, TrainConfig(l2_lambda=1e5, class_weight_mode="none"))
        base_rate = sum(y for _v, y in data) / len(data)
        p_empty = predict_proba(crushed, FeatureVector({}, space))
        assert p_empty == pytest.approx(base_rate, abs=0.01)
        rng2 = random.Random(1)
        for vec, _label in random_dataset(rng2, 10, 4, space):
            assert predict_proba(crushed, vec) == pytest.approx(p_empty, abs=0.01)

    def test_class_weighting_lifts_training_recall(self):
        # 1:12 imbalance; weighting must not lower recall on the training set
        rng = random.Random(21)
        space = make_space(3)
        data = []
        for i in range(130):
            label = 1 if i % 13 == 0 else 0
            center = 0.8 if label else -0.8
            values = {f"f{j}": rng.gauss(center, 2.0) for j in range(3)}
            data.append((FeatureVector(values, space), label))

        def recall(model):
            tp = sum(1 for v, y in data if y == 1 and predict(model, v) == 1)
            return tp / sum(1 for _v, y in data if y == 1)

        weighted = train(data, TrainConfig(class_weight_mode="neg_over_pos"))
        unweighted = train(data, TrainConfig(class_weight_mode="none"))
        assert weighted.class_weight_value == pytest.approx(12.0)
        assert recall(weighted) >= recall(unweighted)


    def test_early_stop_logs_iterations_used_not_the_cap(self, caplog):
        # the Newton fit gives up long before the cap when the tolerance is unreachable
        data = random_dataset(random.Random(0), 60, 3)
        config = TrainConfig(max_iterations=100000, convergence_tol=1e-300)
        with caplog.at_level(logging.INFO, logger="forum_sentinel.model"):
            model = train(data, config)
        assert not model.converged and model.n_iterations < config.max_iterations
        [message] = [r.getMessage() for r in caplog.records]
        assert f"after {model.n_iterations} of max_iterations=100000" in message
        assert "grad inf-norm" in message and "> tol 1e-300" in message

    @pytest.mark.parametrize(
        "method, reason",
        [
            ("newton", "Maximum number of iterations has been exceeded."),
            ("lbfgs", "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"),
            ("gd", "max_iterations reached"),
        ],
    )
    def test_unconverged_fit_logs_why_the_optimizer_stopped(self, method, reason, caplog):
        data = random_dataset(random.Random(0), 60, 3)
        with caplog.at_level(logging.INFO, logger="forum_sentinel.model"):
            model = train(data, TrainConfig(max_iterations=1), method=method)
        assert not model.converged
        [message] = [r.getMessage() for r in caplog.records]
        assert message.startswith(f"{method} fit stopped unconverged ({reason}) after 1 of max_iterations=1 ")

    def test_converged_fit_logs_one_line(self, caplog):
        data = random_dataset(random.Random(0), 60, 3)
        with caplog.at_level(logging.INFO, logger="forum_sentinel.model"):
            model = train(data, TrainConfig())
        assert model.converged
        [message] = [r.getMessage() for r in caplog.records]
        assert message.startswith(f"newton fit converged after {model.n_iterations} of max_iterations=500")
        assert "<= tol 1e-06" in message and message.endswith(", 3 dims")


class TestPredict:
    def test_zero_model_gives_half(self):
        space = make_space(2)
        model = zero_model(space, TrainConfig())
        assert predict_proba(model, FeatureVector({"f0": 3.0}, space)) == 0.5

    def test_monotone_in_positive_weight(self):
        space = make_space(1)
        model = MaxentModel({"f0": 0.7}, 0.1, space, TrainConfig())
        probs = [predict_proba(model, FeatureVector({"f0": x}, space)) for x in (0.0, 0.5, 1.0, 5.0)]
        assert probs == sorted(probs)

    def test_negation_symmetry(self):
        rng = random.Random(2)
        space = make_space(3)
        model = model_at(space, rng, TrainConfig())
        flipped = MaxentModel(
            {n: -w for n, w in model.weights.items()}, -model.bias, space, TrainConfig()
        )
        for _ in range(20):
            vec = FeatureVector({f"f{j}": rng.gauss(0, 1) for j in range(3)}, space)
            assert predict_proba(model, vec) == pytest.approx(1 - predict_proba(flipped, vec), abs=1e-12)

    def test_threshold(self):
        space = make_space(1)
        model = zero_model(space, TrainConfig())
        assert predict(model, FeatureVector({}, space)) == 1  # p = 0.5 exactly


class TestSaveLoad:
    def _model(self):
        rng = random.Random(17)
        space = make_space(5)
        data = random_dataset(rng, 20, 5, space)
        return train(data, TrainConfig()), data

    def test_round_trip_bytes(self, tmp_path):
        model, _data = self._model()
        p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_predictions_identical(self, tmp_path):
        model, _data = self._model()
        path = tmp_path / "m.txt"
        save_model(model, path)
        loaded = load_model(path)
        rng = random.Random(99)
        space = model.feature_space
        for _ in range(100):
            vec = FeatureVector({f"f{j}": rng.gauss(0, 3) for j in range(5)}, space)
            assert predict_proba(model, vec) == predict_proba(loaded, vec)

    def test_truncated_file_names_byte_offset(self, tmp_path):
        model, _data = self._model()
        path = tmp_path / "m.txt"
        save_model(model, path)
        raw = path.read_bytes()
        for cut in (10, len(raw) // 2, len(raw) - 5):
            (tmp_path / "cut.txt").write_bytes(raw[:cut])
            with pytest.raises(ModelFormatError, match=r"byte \d+"):
                load_model(tmp_path / "cut.txt")

    @pytest.mark.parametrize("extra", [b"w\tzz\t\xff\n", b"w\tzz\t\xff", b"\n", b"end\n"],
                             ids=["line", "unterminated", "blank-line", "second-end"])
    def test_bytes_after_end_line_name_their_offset(self, extra, tmp_path):
        model, _data = self._model()
        path = tmp_path / "m.txt"
        save_model(model, path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(ModelFormatError, match=rf"byte {size}\b"):
            load_model(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("something else\n", "utf-8")
        with pytest.raises(ModelFormatError, match="header"):
            load_model(path)

    def test_tampered_names_fail_hash_check(self, tmp_path):
        model, _data = self._model()
        path = tmp_path / "m.txt"
        save_model(model, path)
        text = path.read_text("utf-8").replace("w\tf0\t", "w\tf9\t")
        path.write_text(text, "utf-8")
        with pytest.raises(ModelFormatError, match="hash"):
            load_model(path)

    def test_standardized_model_file_rejected(self, tmp_path):
        model, _data = self._model()
        path = tmp_path / "m.txt"
        save_model(model, path)
        text = path.read_text("utf-8")
        assert "\tstandardize=0\n" in text
        path.write_text(text.replace("\tstandardize=0\n", "\tstandardize=1\n"), "utf-8")
        with pytest.raises(ModelFormatError, match="standardize=1"):
            load_model(path)

    @pytest.mark.parametrize(
        "pattern, new",
        [
            (r"^fit\t.*$", "fit"),
            ("\tclass_weight=", "\tcw="),
            ("\tn_iterations=", "\tn="),
            ("\tconverged=1\t", "\tconverged=x\t"),
            ("\tconverged=1\t", "\tconverged=2\t"),
            ("\tconverged=1\t", "\tconverged\t"),
            ("\tseed=0\t", "\tseed\t"),
            ("\tl2_lambda=0.0001\t", "\tl2_lambda=nan\t"),
            ("\tconvergence_tol=9.9999999999999995e-07\t", "\tconvergence_tol=inf\t"),
            ("^w\tf1\t", "w\tf0\t"),
        ],
        ids=["bare-fit-line", "no-class-weight", "no-n-iterations", "converged-not-int", "converged-2",
             "fit-cell-no-equals", "config-cell-no-equals", "l2-nan", "tol-inf", "duplicate-weight-name"],
    )
    def test_malformed_fit_or_config_line_names_byte_offset(self, pattern, new, tmp_path):
        model, _data = self._model()
        path = tmp_path / "m.txt"
        save_model(model, path)
        text, n = re.subn(pattern, new, path.read_text("utf-8"), count=1, flags=re.MULTILINE)
        assert n == 1
        path.write_text(text, "utf-8")
        with pytest.raises(ModelFormatError, match=r"byte \d+"):
            load_model(path)

    @pytest.mark.parametrize(
        "pattern, new, reason",
        [
            (r"^w\tf2\t.*$", "w\tf2\tnan", "weight of 'f2' is nan, not finite"),
            (r"^w\tf0\t.*$", "w\tf0\t1e999", "weight of 'f0' is 1e999, not finite"),
            (r"^bias\t.*$", "bias\t-inf", "bias is -inf, not finite"),
            (r"\tclass_weight=[^\t]*", "\tclass_weight=nan", "class_weight is nan, not finite"),
            (r"\tclass_weight=[^\t]*", "\tclass_weight=0", "class_weight=0 is not positive"),
            (r"\tn_iterations=\d+", "\tn_iterations=-3", "n_iterations=-3 is not within 0..max_iterations=500"),
            (r"\tn_iterations=\d+", "\tn_iterations=501", "n_iterations=501 is not within 0..max_iterations=500"),
        ],
        ids=["weight-nan", "weight-overflows", "bias-minus-inf", "class-weight-nan", "class-weight-zero",
             "negative-iterations", "iterations-past-max"],
    )
    def test_value_a_model_cannot_hold_names_its_line(self, pattern, new, reason, tmp_path):
        # such a file would load into a model whose predict_proba is nan and whose predict answers 0
        model, _data = self._model()
        path = tmp_path / "m.txt"
        save_model(model, path)
        text, n = re.subn(pattern, new, path.read_text("utf-8"), count=1, flags=re.MULTILINE)
        assert n == 1
        path.write_text(text, "utf-8")
        line = next(line for line in text.split("\n") if new.lstrip("\t") in line)
        offset = len(text[: text.index(line)].encode("utf-8"))
        with pytest.raises(ModelFormatError, match=re.escape(f"line at byte {offset}: {reason}")):
            load_model(path)

    @pytest.mark.parametrize("count, loads", [("0", True), ("-1", False)], ids=["zero", "negative"])
    def test_a_negative_dimension_count_names_its_line(self, count, loads, tmp_path):
        # with no weight lines and the hash of no names, -1 read as zero dimensions, and the next save wrote 0
        model, _data = self._model()
        path = tmp_path / "m.txt"
        save_model(model, path)
        text = re.sub(r"^w\t.*\n", "", path.read_text("utf-8"), flags=re.MULTILINE)
        config = model.feature_space.config
        text = re.sub(r"^space\t.*$", f"space\t{config}\t{FeatureSpace((), config).provenance}\t{count}", text,
                      count=1, flags=re.MULTILINE)
        path.write_text(text, "utf-8")
        if loads:
            assert len(load_model(path).feature_space) == 0
            return
        offset = len(text[: text.index("\nspace\t") + 1].encode("utf-8"))
        with pytest.raises(ModelFormatError, match=re.escape(f"line at byte {offset}: the dimension count -1 is negative")):
            load_model(path)

    @pytest.mark.parametrize(
        "key, form",
        [("n_iterations", "1_4"), ("n_iterations", " 14"), ("n_iterations", "\u0661\u0664"),
         ("max_iterations", "5_00"), ("class_weight", "1_0"), ("l2_lambda", " 0.0001"),
         ("w", " {}"), ("w", "{}_5"), ("w", "+{}")],
        ids=["iterations-underscore", "iterations-space", "iterations-arabic-indic-digits", "max-iterations-underscore",
             "class-weight-underscore", "l2-space", "weight-space", "weight-underscore", "weight-plus"],
    )
    def test_a_number_in_a_form_the_writer_never_writes_is_rejected(self, key, form, tmp_path):
        # int() and float() read each of these cells, so they loaded, and the next save wrote other bytes
        model, _data = self._model()
        path = tmp_path / "m.txt"
        save_model(model, path)
        text = path.read_text("utf-8")
        if key == "w":  # a positive weight, so that "+" before it still reads as a float
            line = re.search(r"^w\t(\S+)\t([0-9].*)$", text, flags=re.MULTILINE)
            cell, what = form.format(line[2]), f"weight of {line[1]!r}"
            text = text.replace(line[0], f"w\t{line[1]}\t{cell}", 1)
        else:
            cell, what = form, key
            text = re.sub(rf"(?<=\t{key}=)[^\t\n]*", cell, text, count=1)
        path.write_text(text, "utf-8")
        with pytest.raises(ModelFormatError, match=re.escape(f"{what} is {cell!r}, not a number in the form")):
            load_model(path)


@functools.cache
def _saved_model() -> bytes:
    rng = random.Random(17)
    model = train(random_dataset(rng, 20, 5), TrainConfig())
    with tempfile.TemporaryDirectory() as tmp:
        save_model(model, Path(tmp) / "m.txt")
        return (Path(tmp) / "m.txt").read_bytes()


def _mutate(edits) -> bytes:
    """Apply (position, bytes to cut, bytes to insert) edits to a saved model;
    inserting None instead repeats the line at that position."""
    raw = _saved_model()
    for pos, cut, insert in edits:
        if insert is None:
            lines = raw.split(b"\n")
            lines.insert(pos % len(lines), lines[pos % len(lines)])
            raw = b"\n".join(lines)
        else:
            pos %= len(raw) + 1
            raw = raw[:pos] + insert + raw[pos + cut :]
    return raw


_edits = st.lists(
    st.tuples(
        st.integers(0, 10**4), st.integers(0, 4),
        st.none() | st.binary(max_size=6) | st.sampled_from([b"\t", b"\n", b"=", b"nan", b"inf", b"1e999", b"\xff"]),
    ),
    min_size=1, max_size=4,
)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=st.binary(max_size=300) | _edits.map(_mutate))
@example(raw=b"forum-sentinel-model 1\nconfig\t\xff\n")
def test_load_model_fuzz_raises_only_model_format_error(raw, tmp_path):
    (tmp_path / "m.txt").write_bytes(raw)
    try:
        load_model(tmp_path / "m.txt")
    except ModelFormatError:
        pass


_weights = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308])


@settings(max_examples=300, deadline=None)
@given(weights=st.lists(_weights, max_size=6), bias=_weights)
@example(weights=[-0.0, 5e-324, -1.7976931348623157e308], bias=1.7976931348623157e308)
def test_a_saved_model_reads_back_bit_for_bit_and_saves_the_same_bytes(weights, bias, tmp_path_factory):
    space = make_space(len(weights))
    tmp = tmp_path_factory.mktemp("model")
    save_model(MaxentModel(dict(zip(space.names, weights)), bias, space, TrainConfig()), tmp / "m1.txt")
    loaded = load_model(tmp / "m1.txt")
    assert [w.hex() for w in loaded.weights.values()] == [w.hex() for w in weights]  # -0.0 keeps its sign
    assert loaded.bias.hex() == bias.hex()
    save_model(loaded, tmp / "m2.txt")
    assert (tmp / "m2.txt").read_bytes() == (tmp / "m1.txt").read_bytes()
