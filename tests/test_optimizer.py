import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabledp import optimizer as optimizer_mod
from stabledp.cli import _oracle_fixture
from stabledp.data_io import synth_classification
from stabledp.model import (
    Dataset,
    ObjectiveSpec,
    _stack,
    _Stack,
    as_signed_labels,
    gradient,
    objective,
)
from stabledp.optimizer import (
    ConvergenceError,
    SgdConfig,
    SolveReport,
    _smooth_curvature,
    clip_gradient,
    convergence_sensitivity_correction,
    s_dropout,
    sgd_run,
    soft_threshold,
    solve_erm,
)
from stabledp.rng import derive_rng


def one_point_problem():
    return Dataset(np.array([[1.0]]), np.array([1.0]))


def one_vs_rest_problem(n=120, d=6, classes=4, seed=3):
    """Features plus an (n, classes) matrix of one-vs-rest +/-1 labels."""
    S, _ = synth_classification(n, d, classes=classes, sparsity=4, noise=0.5, seed=seed,
                                label_flips=0.1)
    return S.features, as_signed_labels(S.labels, positive=np.unique(S.labels))


SPECS = {
    "logistic-l2": ObjectiveSpec("logistic", 0.01),
    "logistic-elastic": ObjectiveSpec("logistic", 0.01, penalty="elastic", gamma=0.85),
    "squared-l2": ObjectiveSpec("squared", 0.01, lipschitz_L=1.0),
    "squared-elastic": ObjectiveSpec("squared", 0.01, penalty="elastic", gamma=0.85,
                                     lipschitz_L=1.0),
}


class TestSolveErm:
    def test_closed_form_full_convention(self):
        # minimize (w-1)^2 + lam w^2 at lam=1: stationarity (w-1) + w = 0 -> 1/2,
        # i.e. the least-squares form w = (x'y)/(x'x + lam)
        spec = ObjectiveSpec("squared", 1.0, l2_form="full", lipschitz_L=1.0)
        rep = solve_erm(spec, one_point_problem(), 1e-10)
        assert rep.weights[0] == pytest.approx(0.5, abs=1e-9)

    def test_closed_form_half_convention(self):
        # minimize (w-1)^2 + (lam/2) w^2 at lam=1: 2(w-1) + w = 0 -> 2/3
        spec = ObjectiveSpec("squared", 1.0, l2_form="half", lipschitz_L=1.0)
        rep = solve_erm(spec, one_point_problem(), 1e-10)
        assert rep.weights[0] == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_huge_lam_drives_weights_to_zero(self):
        spec = ObjectiveSpec("logistic", 1e6)
        rng = np.random.default_rng(0)
        S = Dataset(rng.standard_normal((10, 3)), rng.choice([-1.0, 1.0], size=10))
        rep = solve_erm(spec, S, 1e-12)
        assert np.linalg.norm(rep.weights) <= 1e-5

    def test_elastic_matches_coordinate_descent_oracle(self):
        # independent oracle: cyclic coordinate descent with soft-thresholding
        # for mean squared loss + lam(gamma ||w||^2 + eta ||w||_1)
        rng = np.random.default_rng(3)
        X = rng.standard_normal((20, 3))
        y = X @ np.array([1.5, 0.0, -0.5]) + 0.05 * rng.standard_normal(20)
        S = Dataset(X, y)
        lam, gamma, eta = 0.4, 0.85, 0.15
        spec = ObjectiveSpec("squared", lam, penalty="elastic", gamma=gamma, eta=eta,
                             lipschitz_L=10.0)

        w = np.zeros(3)
        n = S.n
        for _ in range(8000):
            for j in range(3):
                r = y - X @ w + X[:, j] * w[j]
                rho = 2.0 * (X[:, j] @ r) / n
                denom = 2.0 * (X[:, j] @ X[:, j]) / n + 2.0 * lam * gamma
                w[j] = np.sign(rho) * max(abs(rho) - lam * eta, 0.0) / denom

        rep = solve_erm(spec, S, 1e-10)
        np.testing.assert_allclose(rep.weights, w, atol=1e-6)
        assert np.array_equal(rep.weights == 0.0, w == 0.0)

    def test_large_eta_gives_exact_zeros(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 5))
        y = np.sign(X @ np.array([2.0, 0, 0, 0, 0]) + 0.1 * rng.standard_normal(30))
        spec = ObjectiveSpec("logistic", 0.5, penalty="elastic", gamma=0.5, eta=0.5)
        rep = solve_erm(spec, Dataset(X, y), 1e-9)
        assert np.sum(rep.weights == 0.0) >= 3

    def test_minimum_certificate(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((15, 4))
        X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)
        S = Dataset(X, rng.choice([-1.0, 1.0], size=15))
        spec = ObjectiveSpec("logistic", 0.2, penalty="elastic", gamma=0.85)
        rep = solve_erm(spec, S, 1e-10)
        base = objective(spec, rep.weights, S)
        for _ in range(100):
            delta = rng.standard_normal(4)
            delta *= 0.01 / np.linalg.norm(delta)
            assert objective(spec, rep.weights + delta, S) >= base - 1e-9

    def test_not_strongly_convex_errors(self):
        with pytest.raises(ValueError, match="not strongly convex"):
            solve_erm(ObjectiveSpec("logistic", 0.0), one_point_problem(), 1e-6)

    def test_nonconvergence_carries_best_iterate(self):
        spec = ObjectiveSpec("logistic", 0.01)
        rng = np.random.default_rng(1)
        S = Dataset(rng.standard_normal((50, 4)), rng.choice([-1.0, 1.0], size=50))
        with pytest.raises(ConvergenceError) as err:
            solve_erm(spec, S, 1e-14, max_iters=3)
        assert err.value.report.iterations_used == 3
        assert err.value.report.weights.shape == (4,)
        # a block input carries (d, m) weights and the worst column's residual
        Y = np.stack([S.labels, -S.labels, np.sign(S.features[:, 0])], axis=1)
        with pytest.raises(ConvergenceError) as err:
            solve_erm(spec, Dataset(S.features, Y), 1e-14, max_iters=3)
        rep = err.value.report
        assert rep.iterations_used == 3
        assert rep.weights.shape == (4, 3)
        assert rep.final_gradient_norm > 1e-14
        assert rep.loss_gap_bound == pytest.approx(
            rep.final_gradient_norm**2 / (2 * 0.01), rel=1e-12)

    def test_deterministic(self):
        spec = ObjectiveSpec("logistic", 0.1, penalty="elastic", gamma=0.85)
        rng = np.random.default_rng(2)
        S = Dataset(rng.standard_normal((20, 4)), rng.choice([-1.0, 1.0], size=20))
        w1 = solve_erm(spec, S, 1e-9).weights
        w2 = solve_erm(spec, S, 1e-9).weights
        np.testing.assert_array_equal(w1, w2)

    @pytest.mark.parametrize("m", [4, 1])
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_block_equals_per_column_solves(self, name, m):
        spec = SPECS[name]
        X, Y = one_vs_rest_problem()
        Y = Y[:, :m]
        block = solve_erm(spec, Dataset(X, Y), 1e-9)
        singles = [solve_erm(spec, Dataset(X, Y[:, j]), 1e-9) for j in range(Y.shape[1])]
        assert block.weights.shape == (X.shape[1], Y.shape[1])
        for j, rep in enumerate(singles):
            np.testing.assert_allclose(block.weights[:, j], rep.weights, rtol=0, atol=1e-12)
        assert block.iterations_used == max(rep.iterations_used for rep in singles)
        assert block.final_gradient_norm == pytest.approx(
            max(rep.final_gradient_norm for rep in singles), rel=1e-9)

    def test_no_iterations_rejected(self):
        with pytest.raises(ValueError, match="max_iters"):
            solve_erm(SPECS["logistic-l2"], one_point_problem(), 1e-6, max_iters=0)

    def test_w0_shape_checked(self):
        X, Y = one_vs_rest_problem()
        with pytest.raises(ValueError, match="w0 shape"):
            solve_erm(SPECS["logistic-l2"], Dataset(X, Y), 1e-6, w0=np.zeros(X.shape[1]))

    @pytest.mark.parametrize("tolerance", [1e-3, 1e-5])
    @pytest.mark.parametrize("lam", [1e-3, 1e-2, 0.3])
    @pytest.mark.parametrize("loss,penalty", [("logistic", "l2"), ("logistic", "elastic"),
                                              ("squared", "l2"), ("squared", "elastic")])
    def test_loss_gap_bound_holds(self, loss, penalty, lam, tolerance):
        # the bound must cover the true gap at the returned point, which
        # FISTA reaches from an extrapolated point
        spec = ObjectiveSpec(loss, lam, penalty=penalty, gamma=0.85, lipschitz_L=1.0)
        X, Y = one_vs_rest_problem(n=60, d=5, classes=2, seed=5)
        S = Dataset(X, Y[:, 0])
        reference = objective(spec, solve_erm(spec, S, 1e-12).weights, S)
        rep = solve_erm(spec, S, tolerance)
        assert rep.final_gradient_norm <= tolerance
        assert objective(spec, rep.weights, S) - reference <= rep.loss_gap_bound

    def test_oracle_fixture_iterations(self):
        # the ill-conditioned lambda=1e-3 solve: 1729 (l2) and 1065 (elastic)
        # iterations for plain proximal gradient descent
        spec, S = _oracle_fixture(1e-3)
        assert solve_erm(spec, S, 1e-9).iterations_used < 400
        elastic = ObjectiveSpec("logistic", 1e-3, penalty="elastic", gamma=0.85)
        assert solve_erm(elastic, S, 1e-9).iterations_used < 400

    def test_loss_gap_bound_present(self):
        spec = ObjectiveSpec("logistic", 0.5)
        rep = solve_erm(spec, one_point_problem(), 1e-8)
        assert rep.loss_gap_bound is not None
        assert rep.loss_gap_bound <= 1e-8**2 / (2 * 0.5) * 1.0001


def erm_block():
    """S, two one-record neighbours, and three variants whose steps and paths differ."""
    S, *neighbours = sgd_block(2)
    return [S, *neighbours, Dataset(0.3 * S.features, S.labels),
            Dataset(2.0 * S.features, S.labels), Dataset(S.features, -S.labels)]


def solve_allowing_failure(spec, datasets, tolerance, max_iters):
    """The report of a solve, or of the ConvergenceError it raised."""
    try:
        return solve_erm(spec, datasets, tolerance, max_iters=max_iters)
    except ConvergenceError as err:
        return err.report


BLOCK_SPECS = {
    f"{loss}-{penalty}-{lam}": ObjectiveSpec(loss, lam, penalty=penalty, gamma=0.85,
                                               lipschitz_L=1.0)
    for loss in ("logistic", "squared") for penalty in ("l2", "elastic")
    for lam in (1e-3, 0.1)
}


class TestSolveErmBlock:
    @pytest.mark.parametrize("name", sorted(BLOCK_SPECS))
    def test_columns_equal_their_own_solves(self, name):
        spec, datasets, tol = BLOCK_SPECS[name], erm_block(), 1e-9
        block = solve_erm(spec, datasets, tol)
        singles = [solve_erm(spec, D, tol) for D in datasets]
        assert block.weights.shape == (5, len(datasets))
        for j, rep in enumerate(singles):
            np.testing.assert_allclose(block.weights[:, j], rep.weights, rtol=0, atol=1e-12)
        # a residual is a difference of nearly equal iterates, so compare it absolutely
        np.testing.assert_allclose(block.residuals, [r.final_gradient_norm for r in singles],
                                   rtol=0, atol=1e-13)
        counts = [rep.iterations_used for rep in singles]
        assert len(set(counts)) > 1  # the columns really take different paths
        assert block.iterations_used == max(counts)
        # column j reaches tolerance at its own iteration count, not before
        for j, k in enumerate(counts):
            at_k = solve_allowing_failure(spec, datasets, tol, k)
            assert at_k.residuals[j] <= tol
            np.testing.assert_allclose(at_k.weights[:, j], singles[j].weights, rtol=0,
                                       atol=1e-12)
            if k > 1:
                assert solve_allowing_failure(spec, datasets, tol, k - 1).residuals[j] > tol

    def test_block_of_one(self):
        spec, (S,) = SPECS["logistic-elastic"], sgd_block(0)
        block = solve_erm(spec, [S], 1e-9)
        single = solve_erm(spec, S, 1e-9)
        assert block.weights.shape == (5, 1)
        np.testing.assert_allclose(block.weights[:, 0], single.weights, rtol=0, atol=1e-12)
        assert block.iterations_used == single.iterations_used
        assert single.residuals is None

    def test_failure_names_the_columns_left_above_tolerance(self):
        spec, datasets, tol = BLOCK_SPECS["logistic-l2-0.1"], erm_block(), 1e-9
        counts = [solve_erm(spec, D, tol).iterations_used for D in datasets]
        k = sorted(counts)[len(counts) // 2]
        late = [j for j, c in enumerate(counts) if c > k]
        assert 0 < len(late) < len(datasets)
        with pytest.raises(ConvergenceError, match=rf"in columns \{late}") as err:
            solve_erm(spec, datasets, tol, max_iters=k)
        rep = err.value.report
        assert rep.iterations_used == k
        assert rep.weights.shape == (5, len(datasets))
        assert np.flatnonzero(rep.residuals > tol).tolist() == late
        assert rep.final_gradient_norm == rep.residuals.max()
        for j, c in enumerate(counts):
            if c <= k:
                np.testing.assert_allclose(rep.weights[:, j], solve_erm(spec, datasets[j], tol)
                                           .weights, rtol=0, atol=1e-12)

    def test_invalid_blocks_rejected(self):
        spec, (S, Sp) = SPECS["logistic-l2"], sgd_block(1)
        bad_blocks = {
            "fewer rows": [S, S.subset(np.arange(S.n - 1))],
            "more columns": [S, Dataset(np.hstack([S.features, S.features[:, :1]]), S.labels)],
            "label matrix": [S, Dataset(S.features, np.stack([S.labels, S.labels], axis=1))],
            "empty": [],
        }
        for block in bad_blocks.values():
            with pytest.raises(ValueError):
                solve_erm(spec, block, 1e-6)
        with pytest.raises(ValueError, match="w0 shape"):
            solve_erm(spec, [S, Sp], 1e-6, w0=np.zeros(S.d))

    def test_zero_features_get_the_regulariser_curvature(self):
        spec, (S, Sp) = SPECS["squared-elastic"], sgd_block(1)
        zero = Dataset(np.zeros_like(S.features), S.labels)
        with np.errstate(all="raise"):
            L = _smooth_curvature(spec, _stack([S, zero, Sp]))
            block = solve_erm(spec, [S, zero, Sp], 1e-9)
        assert L[1] == 2.0 * spec.l2_coefficient
        assert L[0] == _smooth_curvature(spec, S) and L[2] == _smooth_curvature(spec, Sp)
        np.testing.assert_allclose(block.weights[:, 1], solve_erm(spec, zero, 1e-9).weights,
                                   rtol=0, atol=1e-12)


def _curvature_cases():
    rng = np.random.default_rng(11)
    u, v = rng.standard_normal(40), rng.standard_normal(7)
    zero_col = rng.standard_normal((30, 6))
    zero_col[:, 2] = 0.0
    return {
        "random": rng.standard_normal((50, 8)),
        "rank1": np.outer(u, v),
        "zero_column": zero_col,
        "n_below_d": rng.standard_normal((6, 25)),
        "zeros": np.zeros((5, 3)),
        "one_row": rng.standard_normal((1, 4)),
    }


class TestSmoothCurvature:
    @pytest.mark.parametrize("case", sorted(_curvature_cases()))
    @pytest.mark.parametrize("spec,factor", [
        (ObjectiveSpec("logistic", 0.01), 0.25),
        (ObjectiveSpec("squared", 0.3, lipschitz_L=1.0), 2.0),
        (ObjectiveSpec("logistic", 0.1, penalty="elastic", gamma=0.85), 0.25),
    ])
    def test_never_below_true_curvature(self, case, spec, factor):
        X = _curvature_cases()[case]
        S = Dataset(X, np.ones(X.shape[0]))
        lam_max = float(np.linalg.eigvalsh(X.T @ X / X.shape[0])[-1])
        exact = factor * lam_max + 2.0 * spec.l2_coefficient
        L = _smooth_curvature(spec, S)
        assert L >= exact
        # tight: at most the trace bound, and at most 1.1x on these inputs
        trace = factor * float(np.sum(X * X)) / X.shape[0] + 2.0 * spec.l2_coefficient
        assert L <= trace * (1 + 1e-9)
        assert L <= 1.1 * exact

    def test_same_for_block_labels(self):
        X, Y = one_vs_rest_problem()
        spec = SPECS["logistic-l2"]
        assert _smooth_curvature(spec, Dataset(X, Y)) == _smooth_curvature(
            spec, Dataset(X, Y[:, 0]))


class TestSgdRun:
    def small_problem(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((12, 3))
        X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)
        return Dataset(X, rng.choice([-1.0, 1.0], size=12))

    def test_zero_steps_returns_initial(self):
        spec = ObjectiveSpec("logistic", 0.1)
        S = self.small_problem()
        cfg = SgdConfig(steps_T=0, step_size=0.1, batch_size_b=4, seed=1)
        np.testing.assert_array_equal(sgd_run(spec, S, cfg).weights, np.zeros(3))

    def test_full_batch_matches_hand_gd_trajectory(self):
        # oracle: an independently coded fixed-step proximal GD loop
        spec = ObjectiveSpec("logistic", 0.2, penalty="elastic", gamma=0.85)
        S = self.small_problem()
        T, alpha = 25, 0.05
        cfg = SgdConfig(steps_T=T, step_size=alpha, batch_size_b=S.n, seed=9)
        rep = sgd_run(spec, S, cfg)

        w = np.zeros(3)
        for _ in range(T):
            w = w - alpha * gradient(spec, w, S)
            w = soft_threshold(w, alpha * spec.l1_coefficient)
        # bitwise equality is not achievable across batch row orders (the
        # mean is summed in permuted order), so compare at rounding level
        np.testing.assert_allclose(rep.weights, w, rtol=0, atol=1e-14)

    def test_averaging_beats_worst_trajectory_point(self):
        spec = ObjectiveSpec("squared", 0.2, lipschitz_L=5.0)
        S = self.small_problem()
        T = 30
        cfg = SgdConfig(steps_T=T, step_size=0.05, batch_size_b=4,
                        averaging=tuple([1.0 / T] * T), seed=3)
        rep = sgd_run(spec, S, cfg)
        # step t's iterate: a t-step run on the same seed draws the same
        # batches and dropout streams up to step t
        objs = [objective(spec, sgd_run(spec, S, replace(cfg, steps_T=t, averaging=None))
                          .weights, S) for t in range(1, T + 1)]
        assert objective(spec, rep.weights, S) <= max(objs) + 1e-12

    def test_bit_reproducible(self):
        spec = ObjectiveSpec("logistic", 0.1)
        S = self.small_problem()
        cfg = SgdConfig(steps_T=40, step_size=0.1, batch_size_b=3,
                        clip_bound_G=0.5, dropout_rate_s=0.7, seed=11)
        w1 = sgd_run(spec, S, cfg).weights
        w2 = sgd_run(spec, S, cfg).weights
        np.testing.assert_array_equal(w1, w2)

    def test_nan_identifies_step(self):
        spec = ObjectiveSpec("squared", 0.1, lipschitz_L=5.0)
        S = Dataset(np.full((4, 2), 2.0), np.array([1.0, 1.0, 1.0, 1.0]))
        cfg = SgdConfig(steps_T=500, step_size=1e12, batch_size_b=4, seed=0)
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match=r"step \d+"):
            sgd_run(spec, S, cfg)

    def test_batch_larger_than_n_rejected(self):
        spec = ObjectiveSpec("logistic", 0.1)
        S = self.small_problem()
        cfg = SgdConfig(steps_T=1, step_size=0.1, batch_size_b=100, seed=0)
        with pytest.raises(ValueError, match="exceeds"):
            sgd_run(spec, S, cfg)


def sgd_block(n_neighbours=5, seed=9):
    """The SGD-stability fixture (n=60, d=5) and neighbours, each one record swapped."""
    S, _ = synth_classification(60, 5, classes=2, sparsity=5, noise=0.5, seed=seed)
    rng = np.random.default_rng(seed)
    neighbours = []
    for _ in range(n_neighbours):
        x = rng.standard_normal(S.d)
        x /= max(1.0, float(np.linalg.norm(x)))
        neighbours.append(S.replace_record(int(rng.integers(S.n)), x, rng.choice([-1.0, 1.0])))
    return [S, *neighbours]


SGD_KNOBS = {
    "baseline": {},
    "dropout": {"dropout_rate_s": 0.5},
    "clip": {"clip_bound_G": 0.05},
    "large_batch": {"batch_size_b": 30},
    "averaging": {"averaging": tuple([1.0 / 120] * 120)},
}


class TestSgdBlock:
    @pytest.mark.parametrize("knob", sorted(SGD_KNOBS))
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_block_equals_per_dataset_runs(self, name, knob):
        spec, datasets = SPECS[name], sgd_block()
        cfg = SgdConfig(**{"steps_T": 120, "step_size": 0.1, "batch_size_b": 5, "seed": 4,
                           **SGD_KNOBS[knob]})
        block = sgd_run(spec, datasets, cfg)
        singles = [sgd_run(spec, D, cfg) for D in datasets]
        assert block.weights.shape == (5, len(datasets))
        for j, rep in enumerate(singles):
            assert rep.weights.shape == (5,)
            np.testing.assert_allclose(block.weights[:, j], rep.weights, rtol=0, atol=1e-12)
        # the neighbours really train to different weights
        assert np.ptp(block.weights, axis=1).max() > 1e-6
        assert block.iterations_used == cfg.steps_T
        assert block.final_gradient_norm == pytest.approx(
            max(rep.final_gradient_norm for rep in singles), rel=1e-12)

    def test_block_of_one(self):
        spec, (S,) = SPECS["logistic-l2"], sgd_block(0)
        cfg = SgdConfig(steps_T=50, step_size=0.1, batch_size_b=5, dropout_rate_s=0.5, seed=1)
        block = sgd_run(spec, [S], cfg)
        assert block.weights.shape == (5, 1)
        np.testing.assert_array_equal(block.weights[:, 0], sgd_run(spec, S, cfg).weights)

    def test_mismatched_shapes_rejected(self):
        spec, (S, Sp) = SPECS["logistic-l2"], sgd_block(1)
        cfg = SgdConfig(steps_T=5, step_size=0.1, batch_size_b=5)
        bad_blocks = {
            "fewer rows": [S, S.subset(np.arange(S.n - 1))],
            "more columns": [S, Dataset(np.hstack([S.features, S.features[:, :1]]), S.labels)],
            "label matrix": [S, Dataset(S.features, np.stack([S.labels, S.labels], axis=1))],
            "empty": [],
        }
        for blocks in bad_blocks.values():
            with pytest.raises(ValueError):
                sgd_run(spec, blocks, cfg)
        with pytest.raises(ValueError, match="w0 shape"):
            sgd_run(spec, [S, Sp], cfg, w0=np.zeros(S.d))


class TestEvaluationPath:
    """Block solvers evaluate each stack through the public model functions."""

    @staticmethod
    def count(monkeypatch, name):
        seen = []
        fn = getattr(optimizer_mod, name)

        def counted(spec, w, S):
            seen.append(S)
            return fn(spec, w, S)

        monkeypatch.setattr(optimizer_mod, name, counted)
        return seen

    def test_block_solve(self, monkeypatch):
        spec, datasets = BLOCK_SPECS["logistic-elastic-0.1"], erm_block()
        grads = self.count(monkeypatch, "gradient")
        values = self.count(monkeypatch, "smooth_objective")
        k = solve_erm(spec, datasets, 1e-9).iterations_used
        # one gradient per iteration; one objective at the start and after
        # every step but the last
        assert len(grads) == len(values) == k
        for S in grads + values:
            assert isinstance(S, _Stack) and S.features.shape == (len(datasets), 60, 5)

    def test_sgd_run(self, monkeypatch):
        spec, datasets = SPECS["logistic-l2"], sgd_block(3)
        grads = self.count(monkeypatch, "gradient")
        cfg = SgdConfig(steps_T=40, step_size=0.1, batch_size_b=5, seed=2)
        sgd_run(spec, datasets, cfg)
        # one per step on the batch, then one on the full stack
        assert len(grads) == cfg.steps_T + 1
        assert all(S.features.shape == (4, 5, 5) for S in grads[:-1])
        assert grads[-1].features.shape == (4, 60, 5)


class TestSgdConfig:
    @pytest.mark.parametrize("bad", [
        dict(steps_T=-1, step_size=0.1, batch_size_b=1),
        dict(steps_T=1, step_size=0.1, batch_size_b=0),
        dict(steps_T=1, step_size=0.1, batch_size_b=1, clip_bound_G=0.0),
        dict(steps_T=1, step_size=0.1, batch_size_b=1, dropout_rate_s=0.0),
        dict(steps_T=1, step_size=0.1, batch_size_b=1, dropout_rate_s=1.5),
        dict(steps_T=2, step_size=0.1, batch_size_b=1, averaging=(0.5, 0.6)),
        dict(steps_T=2, step_size=0.1, batch_size_b=1, averaging=(1.5, -0.5)),
        dict(steps_T=10, step_size=math.nan, batch_size_b=5),
        dict(steps_T=10, step_size=0.1, batch_size_b=5, clip_bound_G=math.nan),
        dict(steps_T=math.nan, step_size=0.1, batch_size_b=5),
        dict(steps_T=10, step_size=0.0, batch_size_b=5),
        dict(steps_T=10, step_size=math.inf, batch_size_b=5),
        dict(steps_T=10, step_size=0.1, batch_size_b=math.nan),
        dict(steps_T=10, step_size=0.1, batch_size_b=2.5),
        dict(steps_T=2.5, step_size=0.1, batch_size_b=1),
        dict(steps_T=2, step_size=0.1, batch_size_b=1, averaging=(0.5, math.nan)),
        dict(steps_T=True, step_size=0.1, batch_size_b=1),
        dict(steps_T=1, step_size=0.1, batch_size_b=True),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            SgdConfig(**bad)

    def test_numpy_integers_accepted(self):
        cfg = SgdConfig(steps_T=np.int64(3), step_size=0.1, batch_size_b=np.int32(2))
        assert cfg.steps_T == 3 and cfg.batch_size_b == 2

    def test_schedule_callable(self):
        cfg = SgdConfig(steps_T=3, step_size=lambda t: 1.0 / (t + 1), batch_size_b=1)
        assert cfg.step_at(1) == pytest.approx(0.5)


class TestSDropout:
    def test_s_one_returns_unchanged(self):
        v = np.array([3.0, -4.0])
        out = s_dropout(v, 1.0, derive_rng(0))
        np.testing.assert_array_equal(out, v)

    def test_zero_vector(self):
        np.testing.assert_array_equal(s_dropout(np.zeros(4), 0.5, derive_rng(0)), np.zeros(4))

    def test_norm_contract_monte_carlo(self):
        rng = derive_rng(123)
        for _ in range(2000):
            d = int(rng.integers(1, 12))
            v = rng.standard_normal(d) * (10.0 ** rng.integers(-3, 3))
            s = float(rng.uniform(0.01, 1.0))
            out = s_dropout(v, s, rng)
            assert np.linalg.norm(out) <= s * np.linalg.norm(v)

    def test_only_zeroes_components(self):
        rng = derive_rng(5)
        v = rng.standard_normal(6)
        out = s_dropout(v, 0.5, rng)
        kept = out != 0
        np.testing.assert_array_equal(out[kept], v[kept])

    def test_invalid_s(self):
        for s in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                s_dropout(np.ones(3), s, derive_rng(0))

    @pytest.mark.parametrize("s", [0.3, 0.7, 1.0])
    def test_rows_equal_per_row_calls_on_fresh_streams(self, s):
        rng = np.random.default_rng(8)
        for trial in range(200):
            d = int(rng.integers(1, 9))
            V = rng.standard_normal((int(rng.integers(1, 7)), d))
            V[rng.random(V.shape) < 0.2] = 0.0  # exact zeros: nonzero counts differ
            V[0] = 0.0 if trial % 5 == 0 else V[0]
            block_rng = derive_rng(trial, 1)
            out = s_dropout(V, s, block_rng)
            assert out.shape == V.shape
            row_rngs = [derive_rng(trial, 1) for _ in V]
            singles = [s_dropout(v, s, r) for v, r in zip(V, row_rngs)]
            for v, o, single in zip(V, out, singles):
                np.testing.assert_array_equal(o, single)
                assert np.linalg.norm(o) <= s * np.linalg.norm(v)
                kept = o != 0
                np.testing.assert_array_equal(o[kept], v[kept])
            # the generator ends where the longest run among the rows with
            # the most nonzeros ended
            counts = np.count_nonzero(V, axis=1)
            draws = counts - np.count_nonzero(out, axis=1)
            widest = np.flatnonzero(counts == counts.max())
            j = widest[np.argmax(draws[widest])]
            assert block_rng.random() == row_rngs[j].random()


class TestClipGradientRows:
    def test_rows_equal_per_row_calls(self):
        rng = np.random.default_rng(6)
        G = rng.standard_normal((9, 4)) * np.array([[0.01], [0.1], [0.5], [1.0], [2.0],
                                                    [5.0], [0.0], [0.2], [3.0]])
        out = clip_gradient(G, 0.5)
        for g, o in zip(G, out):
            np.testing.assert_array_equal(o, clip_gradient(g, 0.5))
            assert np.linalg.norm(o) <= 0.5 * (1 + 1e-15)
        below = np.linalg.norm(G, axis=1) <= 0.5
        assert below.any() and not below.all()
        np.testing.assert_array_equal(out[below], G[below])


class TestClipGradient:
    def test_no_op_branch(self):
        g = np.array([0.3, 0.4])
        np.testing.assert_array_equal(clip_gradient(g, 1.0), g)

    def test_three_four_five(self):
        np.testing.assert_allclose(clip_gradient(np.array([3.0, 4.0]), 1.0), [0.6, 0.8])

    def test_norm_is_min_of_norm_and_bound(self):
        rng = derive_rng(77)
        for _ in range(1000):
            g = rng.standard_normal(int(rng.integers(1, 10))) * (10.0 ** rng.integers(-2, 3))
            G = float(rng.uniform(0.01, 10.0))
            out = clip_gradient(g, G)
            assert abs(np.linalg.norm(out) - min(np.linalg.norm(g), G)) <= 1e-12

    def test_invalid_bound(self):
        for G in (0.0, math.nan):
            with pytest.raises(ValueError):
                clip_gradient(np.ones(2), G)


class TestConvergenceCorrection:
    def test_exact_minimizer_unchanged(self):
        rep = SolveReport(np.zeros(2), 0.0, 10, loss_gap_bound=0.0)
        assert convergence_sensitivity_correction(0.4, rep, 1.0) == pytest.approx(0.4)

    def test_loss_gap_conversion(self):
        rep = SolveReport(np.zeros(2), 0.0, 10, loss_gap_bound=0.02)
        assert convergence_sensitivity_correction(0.4, rep, 1.0) == pytest.approx(0.8)

    def test_monotone_in_loss_gap(self):
        prev = 0.0
        for gap in (0.001, 0.01, 0.1, 1.0):
            rep = SolveReport(np.zeros(2), 0.0, 10, loss_gap_bound=gap)
            val = convergence_sensitivity_correction(0.4, rep, 2.0)
            assert val >= prev
            prev = val

    @pytest.mark.parametrize("base,lambda_sc", [(math.nan, 1.0), (0.4, math.nan),
                                                (math.inf, 1.0), (0.4, 0.0)])
    def test_nonfinite_inputs_rejected(self, base, lambda_sc):
        rep = SolveReport(np.zeros(2), 0.0, 10, loss_gap_bound=0.02)
        with pytest.raises(ValueError):
            convergence_sensitivity_correction(base, rep, lambda_sc)

    @pytest.mark.parametrize("norm", [-1.0, math.nan, math.inf])
    def test_report_rejects_bad_gradient_norm(self, norm):
        with pytest.raises(ValueError, match="final_gradient_norm"):
            SolveReport(np.zeros(2), norm, 10)

    def test_missing_both_gaps_errors(self):
        rep = SolveReport(np.zeros(2), 0.0, 10)
        with pytest.raises(ValueError, match="no loss-gap bound"):
            convergence_sensitivity_correction(0.4, rep, 1.0)


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=10), st.floats(0.001, 50))
@settings(max_examples=100, deadline=None)
def test_soft_threshold_shrinks_toward_zero(vals, t):
    v = np.array(vals)
    out = soft_threshold(v, t)
    assert np.all(np.abs(out) <= np.maximum(np.abs(v) - t, 0.0) + 1e-12)
    assert np.all((out == 0) | (np.sign(out) == np.sign(v)))
