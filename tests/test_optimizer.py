import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabledp import model as model_mod
from stabledp import optimizer as optimizer_mod
from stabledp.cli import _oracle_fixture
from stabledp.data_io import SplitPlan, split, synth_classification
from stabledp.model import (
    Dataset,
    ObjectiveSpec,
    _Stack,
    as_signed_labels,
    gradient,
    objective,
)
from stabledp.optimizer import (
    ConvergenceError,
    SgdConfig,
    SolveReport,
    _block,
    _smooth_curvature,
    clip_gradient,
    convergence_sensitivity_correction,
    s_dropout,
    sgd_run,
    soft_threshold,
    solve_erm,
)
from stabledp.rng import derive_rng

from stacks import stack_of


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
        # minimize (w-1)^2 + lam w^2 at lam=1, the (lam/2) w^2 penalty at lam=2:
        # stationarity (w-1) + w = 0 -> 1/2, i.e. w = (x'y)/(x'x + lam)
        spec = ObjectiveSpec("squared", 2.0, lipschitz_L=1.0)
        rep = solve_erm(spec, one_point_problem(), 1e-10)
        assert rep.weights[0] == pytest.approx(0.5, abs=1e-9)

    def test_closed_form_half_convention(self):
        # minimize (w-1)^2 + (lam/2) w^2 at lam=1: 2(w-1) + w = 0 -> 2/3
        spec = ObjectiveSpec("squared", 1.0, lipschitz_L=1.0)
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
        # a dataset is dataset 0, column 0 of its (1, n, 1) stack
        with pytest.raises(ConvergenceError,
                           match=r"in \(lambda, dataset, column\) triples \[\(0\.01, 0, 0\)\] \(") \
                as err:
            solve_erm(spec, S, 1e-14, max_iters=3)
        assert err.value.report.iterations_used == 3
        assert err.value.report.weights.shape == (4,)
        # a stack of (1, n, K) labels carries (1, d, K) weights and the worst column's residual
        Y = np.stack([S.labels, -S.labels, np.sign(S.features[:, 0])], axis=1)
        with pytest.raises(ConvergenceError, match=r"in \(lambda, dataset, column\) triples "
                           r"\[\(0\.01, 0, 0\), \(0\.01, 0, 1\), \(0\.01, 0, 2\)\] \(") as err:
            solve_erm(spec, _Stack(S.features[None], Y[None]), 1e-14, max_iters=3)
        rep = err.value.report
        assert rep.iterations_used == 3
        assert rep.weights.shape == (1, 4, 3)
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
        block = solve_erm(spec, _Stack(X[None], Y[None]), 1e-9)
        singles = [solve_erm(spec, Dataset(X, Y[:, j]), 1e-9) for j in range(Y.shape[1])]
        assert block.weights.shape == (1, X.shape[1], Y.shape[1])
        for j, rep in enumerate(singles):
            np.testing.assert_allclose(block.weights[0, :, j], rep.weights, rtol=0, atol=1e-12)
        assert block.iterations_used == max(rep.iterations_used for rep in singles)
        assert block.final_gradient_norm == pytest.approx(
            max(rep.final_gradient_norm for rep in singles), rel=1e-9)

    def test_no_iterations_rejected(self):
        with pytest.raises(ValueError, match="max_iters"):
            solve_erm(SPECS["logistic-l2"], one_point_problem(), 1e-6, max_iters=0)

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
        (spec,), S = _oracle_fixture((1e-3,))
        assert solve_erm(spec, S, 1e-9).iterations_used < 400
        elastic = ObjectiveSpec("logistic", 1e-3, penalty="elastic", gamma=0.85)
        assert solve_erm(elastic, S, 1e-9).iterations_used < 400

    def test_loss_gap_bound_present(self):
        spec = ObjectiveSpec("logistic", 0.5)
        rep = solve_erm(spec, one_point_problem(), 1e-8)
        assert rep.loss_gap_bound is not None
        assert rep.loss_gap_bound <= 1e-8**2 / (2 * 0.5) * 1.0001


def erm_block():
    """S, two one-record neighbours, and three variants whose steps and paths differ,
    as a list of datasets; ``stack_of`` makes it a solver input."""
    S, *neighbours = sgd_block(2)
    return [S, *neighbours, Dataset(0.3 * S.features, S.labels),
            Dataset(2.0 * S.features, S.labels), Dataset(S.features, -S.labels)]


def edge_block():
    """Datasets whose rows are scaled down at either end of the block: those converge
    first, from the left end and then the right."""
    S, *neighbours = sgd_block(2)
    return [Dataset(0.05 * S.features, S.labels), Dataset(0.3 * S.features, S.labels), S,
            *neighbours, Dataset(0.1 * S.features, S.labels)]


def live_range(S, stack):
    """(lo, hi) of a gradient's stack S, a view of datasets lo to hi - 1 of ``stack``."""
    assert isinstance(S, _Stack)
    lo = (S.features.ctypes.data - stack.features.ctypes.data) // stack.features.strides[0]
    hi = lo + len(S.features)
    # the very memory, shape and strides of the slice: a view, never a copy
    for a, whole in ((S.features, stack.features), (S.labels, stack.labels)):
        assert a.__array_interface__ == whole[lo:hi].__array_interface__
    return lo, hi


def expected_ranges(counts):
    """Iteration i's range: the first to the last dataset whose lone solve takes i or more."""
    ranges = []
    for i in range(1, max(counts) + 1):
        left = [j for j, c in enumerate(counts) if c >= i]
        ranges.append((left[0], left[-1] + 1))
    return ranges


def solve_allowing_failure(spec, S, tolerance, max_iters):
    """The report of a solve, or of the ConvergenceError it raised."""
    try:
        return solve_erm(spec, S, tolerance, max_iters=max_iters)
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
        stack = stack_of(datasets)
        block = solve_erm(spec, stack, tol)
        singles = [solve_erm(spec, D, tol) for D in datasets]
        assert block.weights.shape == (len(datasets), 5, 1)
        # bit for bit: each slice of a batched product is its dataset's own product
        for j, rep in enumerate(singles):
            assert block.weights[j, :, 0].tobytes() == rep.weights.tobytes()
        assert block.residuals[:, 0].tolist() == [r.final_gradient_norm for r in singles]
        assert block.objective[:, 0].tolist() == [r.objective for r in singles]
        counts = [rep.iterations_used for rep in singles]
        assert len(set(counts)) > 1  # the slices really take different paths
        assert block.iterations_used == max(counts)
        # slice j reaches tolerance at its own iteration count, not before
        for j, k in enumerate(counts):
            at_k = solve_allowing_failure(spec, stack, tol, k)
            assert at_k.residuals[j, 0] <= tol
            assert at_k.weights[j, :, 0].tobytes() == singles[j].weights.tobytes()
            if k > 1:
                assert solve_allowing_failure(spec, stack, tol, k - 1).residuals[j, 0] > tol

    @pytest.mark.parametrize("name", sorted(BLOCK_SPECS))
    def test_converged_ends_stop_stepping(self, name, monkeypatch):
        spec, datasets, tol = BLOCK_SPECS[name], edge_block(), 1e-9
        singles = [solve_erm(spec, D, tol) for D in datasets]
        counts = [rep.iterations_used for rep in singles]
        assert counts[0] < min(counts[2:-1]) and counts[-1] < min(counts[1:-1])
        grads = TestEvaluationPath.count(monkeypatch, "gradient")
        stack = stack_of(datasets)
        block = solve_erm(spec, stack, tol)
        # the range shrinks from both ends, each gradient a view of the block
        ranges = [live_range(S, stack) for S in grads]
        assert ranges == expected_ranges(counts)
        assert ranges[0] == (0, len(datasets)) and ranges[-1][0] > 0
        assert min(hi for _, hi in ranges) < len(datasets)
        for j, rep in enumerate(singles):
            assert block.weights[j, :, 0].tobytes() == rep.weights.tobytes()
            assert block.residuals[j, 0] == rep.final_gradient_norm
            assert block.objective[j, 0] == rep.objective
        assert block.iterations_used == max(counts)

    def test_block_of_one(self):
        spec, (S,) = SPECS["logistic-elastic"], sgd_block(0)
        block = solve_erm(spec, stack_of([S]), 1e-9)
        single = solve_erm(spec, S, 1e-9)
        assert block.weights.shape == (1, 5, 1)
        assert block.weights[0, :, 0].tobytes() == single.weights.tobytes()
        assert block.iterations_used == single.iterations_used
        assert single.residuals is None

    def test_failure_names_the_columns_left_above_tolerance(self):
        spec, datasets, tol = BLOCK_SPECS["logistic-l2-0.1"], erm_block(), 1e-9
        counts = [solve_erm(spec, D, tol).iterations_used for D in datasets]
        k = sorted(counts)[len(counts) // 2]
        late = [j for j, c in enumerate(counts) if c > k]
        assert 0 < len(late) < len(datasets)
        pattern = re.escape(
            f"in (lambda, dataset, column) triples {[(spec.lam, j, 0) for j in late]}")
        with pytest.raises(ConvergenceError, match=pattern) as err:
            solve_erm(spec, stack_of(datasets), tol, max_iters=k)
        rep = err.value.report
        assert rep.iterations_used == k
        assert rep.weights.shape == (len(datasets), 5, 1)
        assert np.flatnonzero(rep.residuals[:, 0] > tol).tolist() == late
        assert rep.final_gradient_norm == rep.residuals.max()
        for j, c in enumerate(counts):
            if c <= k:
                assert rep.weights[j, :, 0].tobytes() == solve_erm(spec, datasets[j], tol) \
                    .weights.tobytes()

    def test_invalid_blocks_rejected(self):
        spec, (S, Sp) = SPECS["logistic-l2"], sgd_block(1)
        bad_blocks = {
            "fewer rows": [S, Dataset(S.features[:-1], S.labels[:-1])],
            "more columns": [S, Dataset(np.hstack([S.features, S.features[:, :1]]), S.labels)],
            "empty": [],
        }
        for block in bad_blocks.values():
            with pytest.raises(ValueError, match="every dataset needs|at least one dataset"):
                solve_erm(spec, stack_of(block), 1e-6)

    def test_zero_features_get_the_regulariser_curvature(self):
        spec, (S, Sp) = SPECS["squared-elastic"], sgd_block(1)
        zero = Dataset(np.zeros_like(S.features), S.labels)
        with np.errstate(all="raise"):
            L = _smooth_curvature(spec, stack_of([S, zero, Sp]))
            block = solve_erm(spec, stack_of([S, zero, Sp]), 1e-9)
        assert L[1] == 2.0 * spec.l2_coefficient
        assert L[0] == _smooth_curvature(spec, stack_of([S]))[0]
        assert L[2] == _smooth_curvature(spec, stack_of([Sp]))[0]
        assert block.weights[1, :, 0].tobytes() == solve_erm(spec, zero, 1e-9).weights.tobytes()


def split_stack(classes, repeats=3, seed=4, d=6):
    """The signed training stack of ``repeats`` splits of a noisy synthetic problem."""
    S, _ = synth_classification(150, d, classes=classes, sparsity=4, noise=0.5, seed=seed,
                                label_flips=0.1)
    train, _ = split(S, SplitPlan(seed=seed, repeats=repeats))
    labels = np.unique(S.labels)
    return _Stack(train.features, as_signed_labels(
        train.labels[..., 0], positive=labels[1:] if classes == 2 else labels))


STACK_SPECS = {
    f"{loss}-{penalty}-{lam}": ObjectiveSpec(loss, lam, penalty=penalty, gamma=0.85,
                                               lipschitz_L=1.0)
    for loss in ("logistic", "squared") for penalty in ("l2", "elastic") for lam in (1e-3, 1.0)
}


class TestSplitStack:
    """One solve over a stack of splits equals each split's lone solve, bit for bit."""

    @pytest.mark.parametrize("classes", [2, 4])
    @pytest.mark.parametrize("name", sorted(STACK_SPECS))
    def test_slices_equal_their_own_solves(self, name, classes):
        spec, stack, tol = STACK_SPECS[name], split_stack(classes), 1e-8
        block = solve_erm(spec, stack, tol)
        K = 1 if classes == 2 else classes
        assert block.weights.shape == (3, 6, K)
        assert block.residuals.shape == block.objective.shape == (3, K)
        counts = []
        for r, (X, Y) in enumerate(zip(stack.features, stack.labels)):
            lone = solve_erm(spec, _Stack(X[None], Y[None]), tol)
            assert block.weights[r].tobytes() == lone.weights[0].tobytes()
            assert block.residuals[r].tolist() == lone.residuals[0].tolist()
            assert block.objective[r].tolist() == lone.objective[0].tolist()
            counts.append(lone.iterations_used)
            if K == 1:  # a binary split solved with 1-D labels takes the same path
                one = solve_erm(spec, Dataset(X, Y[:, 0]), tol)
                assert block.weights[r, :, 0].tobytes() == one.weights.tobytes()
                assert block.objective[r, 0] == one.objective
        assert block.iterations_used == max(counts)

    def test_failure_names_the_split_class_pairs(self):
        spec, stack, tol = STACK_SPECS["logistic-elastic-0.001"], split_stack(4), 1e-8
        splits = [_Stack(X[None], Y[None]) for X, Y in zip(stack.features, stack.labels)]
        # every split has a column still above tolerance one iteration short of its count
        k = min(solve_erm(spec, D, tol).iterations_used for D in splits) - 1
        # the (split, class) columns of the lone solves still above tolerance at k
        at_k = np.array([solve_allowing_failure(spec, D, tol, k).residuals[0] for D in splits])
        late = [tuple(c) for c in np.argwhere(at_k > tol).tolist()]
        assert 0 < len(late) < at_k.size
        pattern = re.escape(
            f"in (lambda, dataset, column) triples {[(spec.lam, *c) for c in late]}")
        with pytest.raises(ConvergenceError, match=pattern) as err:
            solve_erm(spec, stack, tol, max_iters=k)
        rep = err.value.report
        assert rep.iterations_used == k and rep.weights.shape == (3, 6, 4)
        assert [tuple(c) for c in np.argwhere(rep.residuals > tol).tolist()] == late

    def test_curvature_taken_once_per_stack(self, monkeypatch):
        stack, calls = split_stack(4), []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda G: calls.append(G) or eigvalsh(G))
        for spec in STACK_SPECS.values():
            solve_erm(spec, stack, 1e-6)
        assert len(calls) == 1
        # a minibatch stack of sgd_run never asks for it
        S, *neighbours = sgd_block(2)
        sgd_run(SPECS["logistic-l2"], stack_of([S, *neighbours]),
                SgdConfig(steps_T=10, step_size=0.1, batch_size_b=5))
        assert len(calls) == 1


# lambdas from 1e-3 to 1, out of order; on ``split_stack(classes, d=32)`` the lone
# solves of every grid below take counts at least 5x apart
GRID_LAMBDAS = (0.1, 1e-3, 1.0, 0.01)
GRID_SPECS = {
    f"{loss}-{penalty}": [ObjectiveSpec(loss, lam, penalty=penalty, gamma=0.85,
                                        lipschitz_L=1.0) for lam in GRID_LAMBDAS]
    for loss in ("logistic", "squared") for penalty in ("l2", "elastic")
}


def assert_slices_are_lone_solves(block, specs, S, tol):
    """Every spec's slice of a grid report is its lone solve's bytes; returns the lone counts."""
    counts = []
    for j, spec in enumerate(specs):
        lone = solve_erm(spec, S, tol)
        assert block.weights[:, j].tobytes() == lone.weights.tobytes()
        assert block.residuals[:, j].tobytes() == lone.residuals.tobytes()
        assert block.objective[:, j].tobytes() == lone.objective.tobytes()
        counts.append(lone.iterations_used)
    assert block.iterations_used == max(counts)
    return counts


class TestLambdaGrid:
    """A grid of specs is one (m, L, d, K) solve whose every slice is its lone solve,
    bit for bit."""

    @pytest.mark.parametrize("classes", [2, 4])
    @pytest.mark.parametrize("name", sorted(GRID_SPECS))
    def test_slices_equal_their_lone_solves(self, name, classes):
        specs, stack, tol = GRID_SPECS[name], split_stack(classes, d=32), 1e-8
        block = solve_erm(specs, stack, tol)
        K = 1 if classes == 2 else classes
        assert block.weights.shape == (3, len(specs), 32, K)
        assert block.residuals.shape == block.objective.shape == (3, len(specs), K)
        counts = assert_slices_are_lone_solves(block, specs, stack, tol)
        assert max(counts) >= 5 * min(counts)
        assert block.final_gradient_norm == block.residuals.max()
        assert block.loss_gap_bound == max(
            solve_erm(spec, stack, tol).loss_gap_bound for spec in specs)

    def test_penalties_mixed_in_one_grid(self):
        # an l2 spec shrinks by 0 in an elastic grid's step, leaving its path as it was
        specs = [*GRID_SPECS["logistic-elastic"][:2], *GRID_SPECS["logistic-l2"][2:],
                 ObjectiveSpec("logistic", 0.05, penalty="elastic", gamma=1.0, eta=0.0)]
        stack = split_stack(4)
        assert_slices_are_lone_solves(solve_erm(specs, stack, 1e-8), specs, stack, 1e-8)

    def test_dataset_grid(self):
        specs, (S,) = GRID_SPECS["logistic-elastic"], sgd_block(0)
        block = solve_erm(specs, S, 1e-9)
        assert block.weights.shape == (len(specs), S.d)
        assert block.residuals.shape == block.objective.shape == (len(specs),)
        for j, spec in enumerate(specs):
            lone = solve_erm(spec, S, 1e-9)
            assert block.weights[j].tobytes() == lone.weights.tobytes()
            assert block.residuals[j] == lone.final_gradient_norm
            assert block.objective[j] == lone.objective

    @pytest.mark.parametrize("shape", ["stack", "dataset"])
    def test_grid_of_one(self, shape):
        S = split_stack(4) if shape == "stack" else sgd_block(0)[0]
        spec = GRID_SPECS["squared-elastic"][1]
        lone, block = solve_erm(spec, S, 1e-9), solve_erm([spec], S, 1e-9)
        # the grid axis of one, after the datasets' axis
        assert block.weights.shape == ((3, 1, 6, 4) if shape == "stack" else (1, S.d))
        assert block.iterations_used == lone.iterations_used
        # a spec's report taken from its grid is the lone report, field by field
        for grid, j in ((block, 0), (solve_erm(GRID_SPECS["squared-elastic"], S, 1e-9), 1)):
            sliced = optimizer_mod._spec_report(grid, spec, j)
            assert sliced.weights.tobytes() == lone.weights.tobytes()
            assert sliced.weights.flags.c_contiguous
            assert (sliced.final_gradient_norm, sliced.loss_gap_bound) == (
                lone.final_gradient_norm, lone.loss_gap_bound)
            if shape == "stack":
                assert sliced.objective.tobytes() == lone.objective.tobytes()
                assert sliced.residuals.tobytes() == lone.residuals.tobytes()
            else:
                assert sliced.objective == lone.objective and sliced.residuals is None

    def test_mixed_loss_kinds_refused_before_the_first_iteration(self, monkeypatch):
        grads = TestEvaluationPath.count(monkeypatch, "gradient")
        specs = [GRID_SPECS["logistic-l2"][0], GRID_SPECS["squared-l2"][1]]
        with pytest.raises(ValueError, match="the specs' loss_kind must be one"):
            solve_erm(specs, split_stack(2), 1e-8)
        assert grads == []

    def test_converged_specs_and_datasets_stop_stepping(self, monkeypatch):
        specs, datasets, tol = GRID_SPECS["logistic-l2"], edge_block(), 1e-9
        # counts[j][l]: dataset j's lone count at spec l
        counts = np.array([[solve_erm(spec, D, tol).iterations_used for spec in specs]
                           for D in datasets])
        seen = []
        gradient_fn = optimizer_mod.gradient

        def spy(specs_, w, S):
            seen.append((w.shape[:2], [s.lam for s in specs_]))
            return gradient_fn(specs_, w, S)

        monkeypatch.setattr(optimizer_mod, "gradient", spy)
        block = solve_erm(specs, stack_of(datasets), tol)
        expected = []
        for i in range(1, counts.max() + 1):
            rows, cols = (np.flatnonzero((counts >= i).any(axis=a)) for a in (1, 0))
            expected.append(((rows[-1] + 1 - rows[0], cols[-1] + 1 - cols[0]),
                             [specs[c].lam for c in range(cols[0], cols[-1] + 1)]))
        assert seen == expected
        # the large lambdas at either end drop out long before the smallest converges
        assert len(seen[-1][1]) == 1 and seen[0][0][1] == len(specs)
        for j, spec in enumerate(specs):
            for r, D in enumerate(datasets):
                assert block.weights[r, j, :, 0].tobytes() == solve_erm(spec, D, tol) \
                    .weights.tobytes()

    def test_failure_names_the_lambda_dataset_column_triples(self):
        specs, stack, tol = GRID_SPECS["logistic-elastic"], split_stack(4), 1e-8
        lone = [solve_erm(spec, stack, tol) for spec in specs]
        k = sorted(rep.iterations_used for rep in lone)[1]
        late = [(spec.lam, *c) for spec in specs
                for c in np.argwhere(solve_allowing_failure(spec, stack, tol, k).residuals > tol)
                .tolist()]
        assert 0 < len({lam for lam, *_ in late}) < len(specs)
        pattern = re.escape(f"in (lambda, dataset, column) triples {late}")
        with pytest.raises(ConvergenceError, match=pattern) as err:
            solve_erm(specs, stack, tol, max_iters=k)
        rep = err.value.report
        assert rep.iterations_used == k and rep.weights.shape == (3, len(specs), 6, 4)
        for j, spec in enumerate(specs):
            # every column, converged or not, is the one its lone solve reaches by k
            capped = solve_allowing_failure(spec, stack, tol, k)
            assert rep.weights[:, j].tobytes() == capped.weights.tobytes()
            assert rep.residuals[:, j].tobytes() == capped.residuals.tobytes()
            if lone[j].iterations_used <= k:
                assert rep.weights[:, j].tobytes() == lone[j].weights.tobytes()
        # a grid on one dataset names its lambdas, each column as dataset 0, column 0
        S = sgd_block(0)[0]
        k = min(solve_erm(spec, S, tol).iterations_used for spec in specs)
        with pytest.raises(ConvergenceError,
                           match=r"in \(lambda, dataset, column\) triples \[\([\d.e-]+, 0, 0\)"):
            solve_erm(specs, S, tol, max_iters=k)

    def test_memory_stays_below_the_stack(self):
        # the figures' training stack shape, (10, 1600, 32) with K = 4: the margins of
        # every (dataset, lambda) pair at once, (10, 8, 1600, 4), would be 3.9 MiB alone
        rng = np.random.default_rng(41)
        X = rng.standard_normal((10, 1600, 32))
        X /= np.maximum(np.linalg.norm(X, axis=2, keepdims=True), 1.0)
        Y = np.where(X @ rng.standard_normal((32, 4)) + 0.3 * rng.standard_normal(
            (10, 1600, 4)) > 0, 1.0, -1.0)
        stack = _Stack(X, Y)
        stack.gram_top  # taken once per stack, before the measured solve
        specs = [ObjectiveSpec("logistic", lam, penalty="elastic", gamma=0.85)
                 for lam in (0.001, 0.003, 0.01, 0.03, 0.1, 0.2, 0.5, 1.0)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solve_erm(specs, stack, 1e-6)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes


class TestLabelsTheLossCanBack:
    """The logistic loss backs +/-1 labels alone; a solve or a run rejects others up front."""

    @pytest.mark.parametrize("bad", [0.0, 0.5, 3.0])
    def test_logistic_rejects(self, bad):
        spec, (S,) = SPECS["logistic-l2"], sgd_block(0)
        labels = S.labels.copy()
        labels[7] = bad
        D = Dataset(S.features, labels)
        cfg = SgdConfig(steps_T=5, step_size=0.1, batch_size_b=5)
        stack = stack_of([S, D])
        for run in (lambda: solve_erm(spec, D, 1e-6), lambda: solve_erm(spec, stack, 1e-6),
                    lambda: sgd_run(spec, D, cfg), lambda: sgd_run(spec, stack, cfg)):
            with pytest.raises(ValueError, match="labels"):
                run()

    def test_nan_label_rejected_by_the_dataset(self):
        (S,) = sgd_block(0)
        labels = S.labels.copy()
        labels[7] = math.nan
        with pytest.raises(ValueError, match="labels"):
            Dataset(S.features, labels)

    def test_squared_loss_takes_any_finite_label(self):
        spec, (S,) = SPECS["squared-l2"], sgd_block(0)
        D = Dataset(S.features, 3.0 * S.labels + 0.5)
        assert solve_erm(spec, D, 1e-8).final_gradient_norm <= 1e-8
        sgd_run(spec, D, SgdConfig(steps_T=5, step_size=0.1, batch_size_b=5))


class TestReportObjective:
    """``SolveReport.objective`` is the objective at the returned weights, per column."""

    @staticmethod
    def problems():
        """(name, solver input, one dataset per column) for each shape of input."""
        X, Y = one_vs_rest_problem()
        datasets = erm_block()
        return [("single", Dataset(X, Y[:, 0]), [Dataset(X, Y[:, 0])]),
                ("one-vs-rest", _Stack(X[None], Y[None]),
                 [Dataset(X, Y[:, j]) for j in range(Y.shape[1])]),
                ("neighbour stack", stack_of(datasets), datasets)]

    @staticmethod
    def check(spec, rep, S, columns):
        np.testing.assert_allclose(rep.objective, objective(spec, rep.weights, S), rtol=1e-13)
        # a stack's (m, d, K) weights hold m * K columns, in the (m, K) order of its objective
        rows = rep.weights.swapaxes(1, 2).reshape(-1, S.d) if isinstance(S, _Stack) \
            else [rep.weights]
        per_column = [objective(spec, w, D) for w, D in zip(rows, columns)]
        np.testing.assert_allclose(np.ravel(rep.objective), per_column, rtol=1e-13)

    @pytest.mark.parametrize("name", ["logistic-elastic-0.001", "squared-l2-0.1"])
    def test_equals_model_objective(self, name):
        spec = BLOCK_SPECS[name]
        for label, S, columns in self.problems():
            rep = solve_erm(spec, S, 1e-6)
            # one value per column: the weights' shape without its d axis
            d_axis = 1 if isinstance(S, _Stack) else 0
            shape = rep.weights.shape
            assert np.shape(rep.objective) == shape[:d_axis] + shape[d_axis + 1:], label
            self.check(spec, rep, S, columns)

    def test_carried_by_convergence_error(self):
        spec = BLOCK_SPECS["logistic-elastic-0.001"]
        for label, S, columns in self.problems():
            with pytest.raises(ConvergenceError) as err:
                solve_erm(spec, S, 1e-14, max_iters=3)
            self.check(spec, err.value.report, S, columns)

    @pytest.mark.parametrize("tolerance", [1e-3, 1e-6])
    @pytest.mark.parametrize("name", ["logistic-elastic-0.001", "squared-l2-0.1"])
    def test_brackets_the_optimum(self, name, tolerance):
        # objective - loss_gap_bound <= F* <= objective, with F* from a
        # 1e-12 solve whose own gap bound is below 1e-18
        spec = BLOCK_SPECS[name]
        for label, S, _ in self.problems():
            rep, ref = solve_erm(spec, S, tolerance), solve_erm(spec, S, 1e-12)
            slack = 1e-15 * np.abs(ref.objective)  # the rounding of two objective values
            assert np.all(rep.objective - rep.loss_gap_bound <= ref.objective + slack), label
            assert np.all(ref.objective - ref.loss_gap_bound <= rep.objective + slack), label


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
        (L,) = _smooth_curvature(spec, stack_of([S]))
        assert L >= exact
        # tight: at most the trace bound, and at most 1.1x on these inputs
        trace = factor * float(np.sum(X * X)) / X.shape[0] + 2.0 * spec.l2_coefficient
        assert L <= trace * (1 + 1e-9)
        assert L <= 1.1 * exact

    def test_same_for_block_labels(self):
        X, Y = one_vs_rest_problem()
        spec = SPECS["logistic-l2"]
        # one dataset's features with K label columns, or with one as both solvers take it
        block, (single, _) = _Stack(X[None], Y[None]), _block(Dataset(X, Y[:, 0]))
        assert _smooth_curvature(spec, block) == _smooth_curvature(spec, single)


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
        np.testing.assert_array_equal(sgd_run(spec, S, cfg), np.zeros(3))

    def test_full_batch_matches_hand_gd_trajectory(self):
        # oracle: an independently coded fixed-step proximal GD loop
        spec = ObjectiveSpec("logistic", 0.2, penalty="elastic", gamma=0.85)
        S = self.small_problem()
        T, alpha = 25, 0.05
        cfg = SgdConfig(steps_T=T, step_size=alpha, batch_size_b=S.n, seed=9)
        w_sgd = sgd_run(spec, S, cfg)

        w = np.zeros(3)
        for _ in range(T):
            w = w - alpha * gradient(spec, w, S)
            w = soft_threshold(w, alpha * spec.l1_coefficient)
        # bitwise equality is not achievable across batch row orders (the
        # mean is summed in permuted order), so compare at rounding level
        np.testing.assert_allclose(w_sgd, w, rtol=0, atol=1e-14)

    def test_bit_reproducible(self):
        spec = ObjectiveSpec("logistic", 0.1)
        S = self.small_problem()
        cfg = SgdConfig(steps_T=40, step_size=0.1, batch_size_b=3,
                        clip_bound_G=0.5, dropout_rate_s=0.7, seed=11)
        w1 = sgd_run(spec, S, cfg)
        w2 = sgd_run(spec, S, cfg)
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
}


class TestSgdBlock:
    @pytest.mark.parametrize("knob", sorted(SGD_KNOBS))
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_block_equals_per_dataset_runs(self, name, knob):
        spec, datasets = SPECS[name], sgd_block()
        cfg = SgdConfig(**{"steps_T": 120, "step_size": 0.1, "batch_size_b": 5, "seed": 4,
                           **SGD_KNOBS[knob]})
        block = sgd_run(spec, stack_of(datasets), cfg)
        singles = [sgd_run(spec, D, cfg) for D in datasets]
        assert block.shape == (len(datasets), 5, 1)
        for j, w in enumerate(singles):
            assert w.shape == (5,)
            assert block[j, :, 0].tobytes() == w.tobytes()
        # the neighbours really train to different weights
        assert np.ptp(block, axis=0).max() > 1e-6

    def test_block_of_one(self):
        spec, (S,) = SPECS["logistic-l2"], sgd_block(0)
        cfg = SgdConfig(steps_T=50, step_size=0.1, batch_size_b=5, dropout_rate_s=0.5, seed=1)
        block = sgd_run(spec, stack_of([S]), cfg)
        assert block.shape == (1, 5, 1)
        np.testing.assert_array_equal(block[0, :, 0], sgd_run(spec, S, cfg))

    def test_mismatched_shapes_rejected(self):
        spec, (S, Sp) = SPECS["logistic-l2"], sgd_block(1)
        cfg = SgdConfig(steps_T=5, step_size=0.1, batch_size_b=5)
        bad_blocks = {
            "fewer rows": [S, Dataset(S.features[:-1], S.labels[:-1])],
            "more columns": [S, Dataset(np.hstack([S.features, S.features[:, :1]]), S.labels)],
            "empty": [],
        }
        for blocks in bad_blocks.values():
            with pytest.raises(ValueError, match="every dataset needs|at least one dataset"):
                sgd_run(spec, stack_of(blocks), cfg)


class TestEvaluationPath:
    """Block solvers evaluate each stack through the public model functions."""

    @staticmethod
    def count(monkeypatch, name, module=optimizer_mod):
        seen = []
        fn = getattr(module, name)

        def counted(spec, w, S):
            seen.append(S)
            return fn(spec, w, S)

        monkeypatch.setattr(module, name, counted)
        return seen

    def test_block_solve(self, monkeypatch):
        spec, datasets = BLOCK_SPECS["logistic-elastic-0.1"], erm_block()
        counts = [solve_erm(spec, D, 1e-9).iterations_used for D in datasets]
        grads = self.count(monkeypatch, "gradient")
        values = self.count(monkeypatch, "smooth_objective", model_mod)
        stack = stack_of(datasets)
        k = solve_erm(spec, stack, 1e-9).iterations_used
        # one gradient per iteration, on the live range; the objective once, at the
        # returned weights, on the whole stack
        assert len(grads) == k
        assert [live_range(S, stack) for S in grads] == expected_ranges(counts)
        assert len(values) == 1 and values[0] is stack

    def test_sgd_run(self, monkeypatch):
        spec, datasets = SPECS["logistic-l2"], sgd_block(3)
        grads = self.count(monkeypatch, "gradient")
        cfg = SgdConfig(steps_T=40, step_size=0.1, batch_size_b=5, seed=2)
        sgd_run(spec, stack_of(datasets), cfg)
        # one per step, on the batch, and none on the full stack
        assert len(grads) == cfg.steps_T
        assert all(S.features.shape == (4, 5, 5) for S in grads)


class TestBlockInput:
    """Both solvers take S through ``_block``: a Dataset or a ``stack_of`` stack alone."""

    SPEC = SPECS["logistic-l2"]
    CFG = SgdConfig(steps_T=5, step_size=0.1, batch_size_b=5)

    @pytest.mark.parametrize("solver", ["solve_erm", "sgd_run"])
    def test_anything_else_rejected(self, solver):
        run = {"solve_erm": lambda S: solve_erm(self.SPEC, S, 1e-6),
               "sgd_run": lambda S: sgd_run(self.SPEC, S, self.CFG)}[solver]
        datasets = sgd_block(1)
        for S in (datasets, tuple(datasets), datasets[0].features):
            with pytest.raises(ValueError, match=r"^S's type must be Dataset or _Stack"):
                run(S)
        # raw (m, n) class labels make no stack: its labels are (m, n, K)
        with pytest.raises(ValueError, match=r"^a stack needs \(m, n, d\) features and "
                                             r"\(m, n, K\) labels, got \(1, 60, 5\) and \(1, 60\)$"):
            _Stack(datasets[0].features[None], datasets[0].labels[None])

    def test_sgd_run_rejects_label_columns_before_its_first_step(self, monkeypatch):
        (S,) = sgd_block(0)
        Y = np.stack([S.labels, -S.labels], axis=1)
        block = _Stack(S.features[None], Y[None])
        grads = TestEvaluationPath.count(monkeypatch, "gradient")
        with pytest.raises(ValueError, match="S's label columns must be 1"):
            sgd_run(self.SPEC, block, self.CFG)
        assert grads == []
        # solve_erm takes the same block, one column per label
        assert solve_erm(self.SPEC, block, 1e-6).weights.shape[-1] == 2


class TestSgdConfig:
    @pytest.mark.parametrize("bad", [
        dict(steps_T=-1, step_size=0.1, batch_size_b=1),
        dict(steps_T=1, step_size=0.1, batch_size_b=0),
        dict(steps_T=1, step_size=0.1, batch_size_b=1, clip_bound_G=0.0),
        dict(steps_T=1, step_size=0.1, batch_size_b=1, dropout_rate_s=0.0),
        dict(steps_T=1, step_size=0.1, batch_size_b=1, dropout_rate_s=1.5),
        dict(steps_T=10, step_size=math.nan, batch_size_b=5),
        dict(steps_T=10, step_size=0.1, batch_size_b=5, clip_bound_G=math.nan),
        dict(steps_T=math.nan, step_size=0.1, batch_size_b=5),
        dict(steps_T=10, step_size=0.0, batch_size_b=5),
        dict(steps_T=10, step_size=math.inf, batch_size_b=5),
        dict(steps_T=10, step_size=0.1, batch_size_b=math.nan),
        dict(steps_T=10, step_size=0.1, batch_size_b=2.5),
        dict(steps_T=2.5, step_size=0.1, batch_size_b=1),
        dict(steps_T=True, step_size=0.1, batch_size_b=1),
        dict(steps_T=1, step_size=0.1, batch_size_b=True),
        # clip_gradient would return g * (inf / inf), NaN
        dict(steps_T=1, step_size=0.1, batch_size_b=1, clip_bound_G=math.inf),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            SgdConfig(**bad)

    def test_numpy_integers_accepted(self):
        cfg = SgdConfig(steps_T=np.int64(3), step_size=0.1, batch_size_b=np.int32(2))
        assert cfg.steps_T == 3 and cfg.batch_size_b == 2


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

    @staticmethod
    def draw_loop(v, s, rng):
        """s-dropout one draw at a time, testing every row's norm after each draw."""
        out = np.array(np.atleast_2d(np.asarray(v, dtype=float)))
        target = s * np.sqrt((out * out).sum(axis=-1))
        counts = np.count_nonzero(out, axis=1)
        start = rng.bit_generator.state
        for c0 in sorted(set(counts.tolist()) - {0}):
            rng.bit_generator.state = start
            rows = np.flatnonzero(counts == c0)
            positions = np.nonzero(out[rows])[1].reshape(rows.size, c0)
            ranks = list(range(c0))
            for k in range(c0):
                block = out[rows]
                active = np.sqrt((block * block).sum(axis=-1)) > target[rows]
                if not active.any():
                    break
                rank = ranks.pop(rng.integers(c0 - k))
                out[rows[active], positions[active, rank]] = 0.0
        return out.reshape(np.shape(v))

    @pytest.mark.parametrize("s", [0.3, 0.7, 1.0])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bit_for_bit_draw_loop(self, s, order):
        # F-ordered blocks are what sgd_run passes (rows of a transposed gradient)
        rng = np.random.default_rng(11)
        for trial in range(300):
            d, rows = int(rng.integers(1, 13)), int(rng.integers(1, 33))
            V = rng.standard_normal((rows, d)) * 10.0 ** rng.integers(-3, 3, size=(rows, 1))
            # dense blocks (sgd_run's gradients), mixed nonzero counts, zero rows
            V[rng.random(V.shape) < (0.0, 0.0, 0.2, 0.5)[trial % 4]] = 0.0
            V[rng.random(rows) < (0.0, 0.3)[trial % 2]] = 0.0
            V = np.asarray(V, order=order)
            if trial % 10 == 0:
                V = V[0]
            new_rng, old_rng = derive_rng(trial, 2), derive_rng(trial, 2)
            out = s_dropout(V, s, new_rng)
            assert out.tobytes() == self.draw_loop(V, s, old_rng).tobytes()
            assert new_rng.bit_generator.state == old_rng.bit_generator.state


class TestNormsAreTheExplicitSumOfSquares:
    """clip_gradient and s_dropout take ``np.linalg.norm(..., axis=-1)``, which numpy
    computes as sqrt(add.reduce(x * x)): the floats of the explicit
    ``np.sqrt((v * v).sum(axis=-1, keepdims=True))`` they were written with, in C and
    F order alike, also from d = 8 on, where the row sums go pairwise."""

    @staticmethod
    def inputs(d):
        rng = np.random.default_rng(d)
        V = rng.standard_normal((17, d)) * 10.0 ** rng.integers(-3, 3, size=(17, 1))
        V[rng.random(V.shape) < 0.2] = 0.0
        return [V, np.asfortranarray(V), V[3]]

    @pytest.mark.parametrize("d", range(1, 41))
    def test_clip_gradient(self, d):
        for g in self.inputs(d):
            for G in (0.01, 1.0):
                want = g * (G / np.maximum(np.sqrt((g * g).sum(axis=-1, keepdims=True)), G))
                got = clip_gradient(g, G)
                assert got.shape == g.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", range(1, 41))
    def test_s_dropout(self, d):
        # TestSDropout.draw_loop tests each norm as sqrt((v * v).sum(axis=-1))
        for i, v in enumerate(self.inputs(d)):
            for s in (0.3, 0.9):
                new_rng, old_rng = derive_rng(d, i, 3), derive_rng(d, i, 3)
                got = s_dropout(v, s, new_rng)
                want = TestSDropout.draw_loop(v, s, old_rng)
                assert got.shape == v.shape and got.tobytes() == want.tobytes()
                assert new_rng.bit_generator.state == old_rng.bit_generator.state


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
        for G in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                clip_gradient(np.ones(2), G)


class TestConvergenceCorrection:
    def test_exact_minimizer_unchanged(self):
        assert convergence_sensitivity_correction(0.4, 0.0, 1.0) == pytest.approx(0.4)

    def test_loss_gap_conversion(self):
        assert convergence_sensitivity_correction(0.4, 0.02, 1.0) == pytest.approx(0.8)

    def test_monotone_in_loss_gap(self):
        prev = 0.0
        for gap in (0.001, 0.01, 0.1, 1.0):
            val = convergence_sensitivity_correction(0.4, gap, 2.0)
            assert val >= prev
            prev = val

    @pytest.mark.parametrize("base,lambda_sc", [(math.nan, 1.0), (0.4, math.nan),
                                                (math.inf, 1.0), (0.4, 0.0)])
    def test_nonfinite_inputs_rejected(self, base, lambda_sc):
        with pytest.raises(ValueError):
            convergence_sensitivity_correction(base, 0.02, lambda_sc)

    @pytest.mark.parametrize("gap", [math.nan, math.inf, -1.0])
    def test_bad_loss_gap_rejected(self, gap):
        with pytest.raises(ValueError, match="loss_gap_bound"):
            convergence_sensitivity_correction(0.4, gap, 1.0)

    @pytest.mark.parametrize("norm", [-1.0, math.nan, math.inf])
    def test_report_rejects_bad_gradient_norm(self, norm):
        with pytest.raises(ValueError, match="final_gradient_norm"):
            SolveReport(np.zeros(2), norm, 10, loss_gap_bound=0.0, objective=0.0)


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=10), st.floats(0.001, 50))
@settings(max_examples=100, deadline=None)
def test_soft_threshold_shrinks_toward_zero(vals, t):
    v = np.array(vals)
    out = soft_threshold(v, t)
    assert np.all(np.abs(out) <= np.maximum(np.abs(v) - t, 0.0) + 1e-12)
    assert np.all((out == 0) | (np.sign(out) == np.sign(v)))
