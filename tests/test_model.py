import gc
import math
import multiprocessing
import re
import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabledp import model as model_mod
from stabledp.model import (
    Dataset,
    ObjectiveSpec,
    _Stack,
    as_signed_labels,
    gradient,
    objective,
    per_example_grad,
    per_example_loss,
    smooth_objective,
    strong_convexity_constant,
)

from stacks import stack_of

LN2 = math.log(2.0)


def small_dataset():
    X = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, -0.5, 0.5]])
    y = np.array([1.0, -1.0, 1.0])
    return Dataset(X, y)


class TestDataset:
    def test_shapes(self):
        S = small_dataset()
        assert (S.n, S.d) == (3, 3)

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            Dataset(np.ones((3, 2)), np.ones(2))

    def test_one_dimensional_features_rejected(self):
        with pytest.raises(ValueError, match="features must be 2-D"):
            Dataset(np.zeros(3), np.zeros(3))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((0, 2)), np.ones(0))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(np.array([[np.inf, 0.0]]), np.array([1.0]))

    def test_immutability(self):
        S = small_dataset()
        with pytest.raises(ValueError):
            S.features[0, 0] = 5.0

    def test_block_labels(self):
        # K label columns over one feature matrix are a stack, not a dataset
        for bad in (np.ones((3, 4)), np.ones((3, 1)), np.ones((2, 4)), np.ones((3, 4, 1)),
                    np.float64(1.0)):
            with pytest.raises(ValueError, match=re.escape(
                    f"labels shape {np.shape(bad)} does not match (n,) = (3,)")):
                Dataset(np.ones((3, 2)), bad)

    def test_replace_record(self):
        S = small_dataset()
        S2 = S.replace_record(1, np.array([9.0, 9.0, 9.0]), -1.0)
        assert S2.features[1, 0] == 9.0
        assert S.features[1, 0] == 0.0  # original untouched

    @pytest.mark.parametrize("y", [-1.0, 2, np.float64(0.5), np.array(3.0)])
    def test_replace_record_takes_one_label_for_1d_labels(self, y):
        S = small_dataset()
        S2 = S.replace_record(2, np.zeros(3), y)
        assert S2.labels.shape == (3,)
        assert S2.labels[2] == float(y)
        assert np.array_equal(S2.labels[:2], S.labels[:2])

    @pytest.mark.parametrize("y", [np.array([1.0, -1.0]), np.array([1.0]), True,
                                   np.array(True), "1.0", math.inf],
                             ids=["row", "one_entry_row", "bool", "zero_d_bool", "string",
                                  "inf"])
    def test_replace_record_rejects_y_that_is_not_one_number_for_1d_labels(self, y):
        # a row once raised numpy's TypeError, and True and "1.0" were written as 1.0
        S = small_dataset()
        with pytest.raises(ValueError, match=r"^y must be one finite number, got"):
            S.replace_record(2, np.zeros(3), y)

    @pytest.mark.parametrize("i", [-1, 3, 1.0, True])
    def test_replace_record_rejects_an_index_outside_the_records(self, i):
        # -1 once replaced the last record and n raised a bare IndexError
        S = small_dataset()
        with pytest.raises(ValueError, match=r"^i must be an integer in \[0, 3\), got"):
            S.replace_record(i, np.zeros(3), 1.0)

    @pytest.mark.parametrize("x", [np.zeros(2), np.zeros(4), np.zeros((1, 3)), 0.0])
    def test_replace_record_rejects_x_without_d_entries(self, x):
        # a wrong length once raised numpy's broadcast error
        S = small_dataset()
        with pytest.raises(ValueError, match=r"^x must be a vector of 3 entries, got"):
            S.replace_record(0, x, 1.0)


class TestObjectiveSpec:
    def test_eta_defaults_to_one_minus_gamma(self):
        spec = ObjectiveSpec("logistic", 0.1, penalty="elastic", gamma=0.85)
        assert spec.eta == pytest.approx(0.15)

    def test_logistic_lipschitz_defaults_to_kappa(self):
        spec = ObjectiveSpec("logistic", 0.1, kappa=2.0)
        assert spec.L == 2.0

    @pytest.mark.parametrize("penalty", ["l2", "elastic"])
    @pytest.mark.parametrize("L", [0.01, 0.999, math.nan])
    def test_logistic_lipschitz_below_kappa_refused(self, penalty, L):
        # the logistic gradient reaches ||x|| = kappa: L = 0.01 would release
        # a hundredth of the provable noise
        with pytest.raises(ValueError, match=r"lipschitz_L must be finite and >= kappa=1.0"):
            ObjectiveSpec("logistic", 0.1, penalty=penalty, gamma=0.85, lipschitz_L=L)

    def test_logistic_lipschitz_at_or_above_kappa_accepted(self):
        for kappa, L in ((1.0, 1.0), (1.0, 2.0), (0.25, 0.25), (0.25, 0.3)):
            assert ObjectiveSpec("logistic", 0.1, kappa=kappa, lipschitz_L=L).L == L
        # the squared loss has no kappa floor
        assert ObjectiveSpec("squared", 0.1, kappa=2.0, lipschitz_L=0.5).L == 0.5

    def test_l2_coefficients(self):
        assert ObjectiveSpec("logistic", 0.1).l2_coefficient == pytest.approx(0.05)
        assert ObjectiveSpec("logistic", 0.2).l2_coefficient == pytest.approx(0.1)
        spec_e = ObjectiveSpec("logistic", 0.1, penalty="elastic", gamma=0.85)
        assert spec_e.l2_coefficient == pytest.approx(0.085)
        assert spec_e.l1_coefficient == pytest.approx(0.015)

    @pytest.mark.parametrize("bad", [
        dict(loss_kind="hinge", lam=0.1),
        dict(loss_kind="logistic", lam=-1.0),
        dict(loss_kind="logistic", lam=0.1, gamma=0.0),
        dict(loss_kind="logistic", lam=0.1, gamma=1.5),
        dict(loss_kind="logistic", lam=0.1, kappa=0.0),
        dict(loss_kind="logistic", lam=0.1, penalty="elastic", gamma=0.5, eta=-0.1),
        dict(loss_kind="logistic", lam=math.nan, kappa=math.nan),
        dict(loss_kind="logistic", lam=0.1, kappa=math.inf),
        dict(loss_kind="logistic", lam=0.1, penalty="elastic", gamma=0.5, eta=math.nan),
        dict(loss_kind="squared", lam=0.1, lipschitz_L=math.nan),
        dict(loss_kind="logistic", lam=True),
        dict(loss_kind="logistic", lam="0.1"),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ObjectiveSpec(**bad)


class TestPerExampleLoss:
    def test_zero_weights_logistic_is_ln2(self):
        spec = ObjectiveSpec("logistic", 0.1)
        x = np.array([0.3, -0.2, 0.7])
        assert per_example_loss(spec, np.zeros(3), x, 1.0) == pytest.approx(LN2)
        assert per_example_loss(spec, np.zeros(3), x, -1.0) == pytest.approx(LN2)

    def test_large_margin_logistic(self):
        # frozen: log(1 + exp(-20)) evaluated independently
        spec = ObjectiveSpec("logistic", 0.1)
        val = per_example_loss(spec, np.array([20.0]), np.array([1.0]), 1.0)
        assert val == pytest.approx(2.061153620314381e-09, rel=1e-12)

    def test_extreme_margin_stays_finite(self):
        spec = ObjectiveSpec("logistic", 0.1)
        for z in (1e4, -1e4):
            val = per_example_loss(spec, np.array([z]), np.array([1.0]), 1.0)
            assert math.isfinite(val) and val >= 0

    def test_squared(self):
        spec = ObjectiveSpec("squared", 0.1, lipschitz_L=1.0)
        val = per_example_loss(spec, np.array([0.5]), np.array([1.0]), 1.0)
        assert val == pytest.approx(0.25)

    def test_dimension_mismatch_names_both(self):
        spec = ObjectiveSpec("logistic", 0.1)
        with pytest.raises(ValueError) as err:
            per_example_loss(spec, np.zeros(3), np.zeros(5), 1.0)
        assert "3" in str(err.value) and "5" in str(err.value)

    def test_logistic_label_domain(self):
        spec = ObjectiveSpec("logistic", 0.1)
        with pytest.raises(ValueError, match="-1"):
            per_example_loss(spec, np.zeros(2), np.zeros(2), 0.5)

    @pytest.mark.parametrize("kind", ["logistic", "squared"])
    @pytest.mark.parametrize("y", [-1.0, 1.0])
    def test_block_is_the_one_model_calls_bit_for_bit(self, kind, y):
        spec = ObjectiveSpec(kind, 0.1, lipschitz_L=1.0)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(5)
        # margins from about 1e-3 to 1e3, both signs, so both softplus branches run
        W = rng.standard_normal((12, 5)) * np.logspace(-3, 3, 12)[:, None]
        block = per_example_loss(spec, W, x, y)
        assert block.shape == (12,)
        assert block.tolist() == [per_example_loss(spec, w, x, y) for w in W]

    @pytest.mark.parametrize("shape", [(4, 3), (2, 4, 5), ()])
    def test_bad_block_shape_named(self, shape):
        spec = ObjectiveSpec("logistic", 0.1)
        with pytest.raises(ValueError, match=re.escape(f"weight shape {shape}")):
            per_example_loss(spec, np.zeros(shape), np.zeros(5), 1.0)


class TestObjective:
    def test_zero_weights_logistic(self):
        spec = ObjectiveSpec("logistic", 0.1)
        assert objective(spec, np.zeros(3), small_dataset()) == pytest.approx(LN2)

    def test_elastic_penalty_hand_value(self):
        # penalty = 0.1 * (0.85 * 2 + 0.15 * 2) = 0.2 for w = (1, -1)
        spec = ObjectiveSpec("logistic", 0.1, penalty="elastic", gamma=0.85, eta=0.15)
        S = Dataset(np.zeros((2, 2)), np.array([1.0, -1.0]))
        w = np.array([1.0, -1.0])
        assert objective(spec, w, S) == pytest.approx(LN2 + 0.2)

    def test_zero_lam_reduces_to_mean_loss(self):
        rng = np.random.default_rng(0)
        S = Dataset(rng.standard_normal((6, 3)), np.sign(rng.standard_normal(6)))
        w = rng.standard_normal(3)
        spec0 = ObjectiveSpec("logistic", 0.0, penalty="elastic", gamma=0.85)
        mean_loss = np.mean([per_example_loss(spec0, w, S.features[i], S.labels[i])
                             for i in range(S.n)])
        assert objective(spec0, w, S) == pytest.approx(mean_loss)


class TestGradient:
    def test_logistic_at_zero_single_example(self):
        spec = ObjectiveSpec("logistic", 0.1)
        x = np.array([0.4, -0.6])
        for y in (1.0, -1.0):
            np.testing.assert_allclose(per_example_grad(spec, np.zeros(2), x, y), -y * x / 2)

    def test_logistic_label_domain(self):
        # the same check as the loss: L = kappa assumes |sigmoid - label| <= 1
        spec = ObjectiveSpec("logistic", 0.1)
        with pytest.raises(ValueError, match=re.escape("logistic loss needs y in {-1, +1}")):
            per_example_grad(spec, np.zeros(2), np.ones(2), 0.5)

    def test_matches_central_differences(self):
        # independent oracle: central differences, h = 1e-6
        h = 1e-6
        rng = np.random.default_rng(42)
        for kind in ("logistic", "squared"):
            spec = ObjectiveSpec(kind, 0.2, penalty="elastic", gamma=0.85, lipschitz_L=1.0)
            for _ in range(100):
                d = int(rng.integers(2, 6))
                X = rng.standard_normal((4, d))
                X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)
                y = rng.choice([-1.0, 1.0], size=4)
                S = Dataset(X, y)
                w = rng.standard_normal(d)
                g = gradient(spec, w, S)
                fd = np.empty(d)
                for j in range(d):
                    e = np.zeros(d)
                    e[j] = h
                    fd[j] = (smooth_objective(spec, w + e, S)
                             - smooth_objective(spec, w - e, S)) / (2 * h)
                rel = np.linalg.norm(g - fd) / max(np.linalg.norm(g), 1e-8)
                assert rel < 1e-5

    def test_l2_term_contribution_is_linear(self):
        rng = np.random.default_rng(1)
        S = Dataset(rng.standard_normal((5, 4)), rng.choice([-1.0, 1.0], size=5))
        w = rng.standard_normal(4)
        spec = ObjectiveSpec("logistic", 0.1, penalty="elastic", gamma=0.85)
        spec0 = ObjectiveSpec("logistic", 0.0, penalty="elastic", gamma=0.85)
        np.testing.assert_allclose(
            gradient(spec, w, S) - gradient(spec0, w, S), 2 * 0.1 * 0.85 * w, atol=1e-12
        )


class TestBlockShapes:
    """The one-dataset stack of (1, n, K) labels with (1, d, K) weights is K problems on one X."""

    def block(self, kind, penalty):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((12, 4))
        Y = rng.choice([-1.0, 1.0], size=(12, 3))
        W = rng.standard_normal((4, 3))
        spec = ObjectiveSpec(kind, 0.2, penalty=penalty, gamma=0.85, lipschitz_L=1.0)
        return spec, X, Y, W

    @pytest.mark.parametrize("kind", ["logistic", "squared"])
    @pytest.mark.parametrize("penalty", ["l2", "elastic"])
    def test_matches_per_column_calls(self, kind, penalty):
        spec, X, Y, W = self.block(kind, penalty)
        S = _Stack(X[None], Y[None])
        G = gradient(spec, W[None], S)
        f = smooth_objective(spec, W[None], S)
        F = objective(spec, W[None], S)
        assert G.shape == (1, 4, 3) and f.shape == (1, 3) and F.shape == (1, 3)
        G, f, F = G[0], f[0], F[0]
        for j in range(3):
            Sj = Dataset(X, Y[:, j])
            np.testing.assert_allclose(G[:, j], gradient(spec, W[:, j], Sj), rtol=1e-13)
            assert f[j] == pytest.approx(smooth_objective(spec, W[:, j], Sj), rel=1e-13)
            assert F[j] == pytest.approx(objective(spec, W[:, j], Sj), rel=1e-13)

    def test_single_vector_still_returns_float(self):
        spec, X, Y, W = self.block("logistic", "elastic")
        S = Dataset(X, Y[:, 0])
        assert isinstance(smooth_objective(spec, W[:, 0], S), float)
        assert isinstance(objective(spec, W[:, 0], S), float)

    @pytest.mark.parametrize("fn", [gradient, smooth_objective, objective])
    def test_mismatched_shapes_rejected(self, fn):
        spec, X, Y, W = self.block("logistic", "l2")
        for labels, weights in ((Y, W[:, 0]), (Y, W[:, :2]), (Y[:, :1], W), (Y, W.T)):
            S = _Stack(X[None], labels[None])
            with pytest.raises(ValueError, match="does not match"):
                fn(spec, weights[None], S)


class TestStackEvaluation:
    """A stack of m same-shape datasets evaluates slice j of (m, d, 1) weights on dataset j."""

    def stack(self):
        rng = np.random.default_rng(12)
        datasets = [Dataset(rng.standard_normal((12, 4)), rng.choice([-1.0, 1.0], size=12))
                    for _ in range(3)]
        return datasets, rng.standard_normal((3, 4, 1))

    @pytest.mark.parametrize("kind", ["logistic", "squared"])
    @pytest.mark.parametrize("penalty", ["l2", "elastic"])
    def test_matches_per_dataset_calls(self, kind, penalty):
        # bit for bit: each slice of a batched product is that dataset's own product
        spec = ObjectiveSpec(kind, 0.2, penalty=penalty, gamma=0.85, lipschitz_L=1.0)
        datasets, W = self.stack()
        S = stack_of(datasets)
        G, f, F = gradient(spec, W, S), smooth_objective(spec, W, S), objective(spec, W, S)
        assert G.shape == (3, 4, 1) and f.shape == (3, 1) and F.shape == (3, 1)
        for j, Sj in enumerate(datasets):
            assert G[j, :, 0].tobytes() == gradient(spec, W[j, :, 0], Sj).tobytes()
            assert f[j, 0] == smooth_objective(spec, W[j, :, 0], Sj)
            assert F[j, 0] == objective(spec, W[j, :, 0], Sj)

    @pytest.mark.parametrize("fn", [gradient, smooth_objective, objective])
    def test_mismatched_shapes_rejected(self, fn):
        spec = ObjectiveSpec("logistic", 0.2)
        datasets, W = self.stack()
        for weights in (W[0], W[:2], W[..., 0], W[..., 0].T):
            with pytest.raises(ValueError, match="does not match"):
                fn(spec, weights, stack_of(datasets))

    @pytest.mark.parametrize("features,labels", [
        ((2, 12, 4), (2, 12, 1, 1)),
        ((2, 12, 4), (2, 11, 1)),
        ((2, 12, 4), (3, 12, 1)),
        ((12, 4), (12, 4, 1)),
    ], ids=["four_d_labels", "fewer_rows", "more_datasets", "two_d_features"])
    def test_label_shape_rejected(self, features, labels):
        # labels are (m, n, K) over the features' (m, n), or no stack is made; raw (m, n)
        # labels are TestBlockInput's case
        with pytest.raises(ValueError, match=re.escape(
                f"a stack needs (m, n, d) features and (m, n, K) labels, got {features} "
                f"and {labels}")):
            _Stack(np.zeros(features), np.ones(labels))

    def test_max_row_norm_is_the_largest_of_its_datasets(self):
        datasets, _ = self.stack()
        S = stack_of(datasets)
        assert S.max_row_norm() == pytest.approx(max(D.max_row_norm() for D in datasets),
                                                 rel=1e-12)
        assert S.max_row_norm() is S.max_row_norm()  # taken once per stack

    def test_max_row_norm_makes_no_stack_sized_temporary(self):
        X = np.random.default_rng(3).standard_normal((10, 1600, 32))
        for S in (_Stack(X, np.ones((10, 1600, 1))), Dataset(X.reshape(-1, 32), np.ones(16000))):
            tracemalloc.start()
            try:
                S.max_row_norm()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < S.features.nbytes / 8


class TestGradientRuns:
    """A stack's gradient and smooth objective are taken in runs of datasets; every
    schedule gives the same bytes."""

    @pytest.mark.parametrize("kind", ["logistic", "squared"])
    @pytest.mark.parametrize("penalty", ["l2", "elastic"])
    def test_runs_equal_the_whole_stack_and_each_dataset(self, kind, penalty, monkeypatch):
        spec = ObjectiveSpec(kind, 0.2, penalty=penalty, gamma=0.85, lipschitz_L=1.0)
        rng = np.random.default_rng(21)
        datasets = [Dataset(rng.standard_normal((12, 4)), rng.choice([-1.0, 1.0], size=12))
                    for _ in range(7)]
        S, W = stack_of(datasets), rng.standard_normal((7, 4, 1))
        # each function's per-run kernel, whose first operand holds one slice a dataset
        for fn, kernel in ((gradient, "_loss_derivative"), (smooth_objective, "_loss_values")):
            runs, real = [], getattr(model_mod, kernel)

            def spy(spec, a, *rest):
                runs.append(len(a))
                return real(spec, a, *rest)

            monkeypatch.setattr(model_mod, kernel, spy)
            # three datasets' features a run: runs of 3, 3 and an uneven 1, which two
            # threads may take in either order
            monkeypatch.setattr(model_mod, "_RUN_BYTES", 3 * S.features[0].nbytes + 8)
            G = fn(spec, W, S)
            assert sorted(runs) == [1, 3, 3], fn
            monkeypatch.setattr(model_mod, "_RUN_BYTES", 1 << 40)
            assert G.tobytes() == fn(spec, W, S).tobytes()
            assert runs[3:] == [7]
            for j, Sj in enumerate(datasets):
                assert G[j, ..., 0].tobytes() == np.asarray(fn(spec, W[j, :, 0], Sj)).tobytes()
            monkeypatch.setattr(model_mod, kernel, real)


class TestGradientThreads:
    """The caller and one worker thread share a large stack's runs, each thread its own
    margin buffer and each run its own slice of g, so every schedule gives the serial
    bytes."""

    @staticmethod
    def problem(monkeypatch, m=5, per_run=1, n=12, d=4, K=2, L=3, seed=23):
        """A stack of m datasets in runs of ``per_run``, with the worker in use."""
        rng = np.random.default_rng(seed)
        S = _Stack(rng.standard_normal((m, n, d)), rng.choice([-1.0, 1.0], size=(m, n, K)))
        monkeypatch.setattr(model_mod, "_RUN_BYTES", per_run * S.features[0].nbytes)
        monkeypatch.setattr(model_mod, "_usable_cpus", lambda: 2)
        return S, rng.standard_normal((m, L, d, K))

    @staticmethod
    def threads(monkeypatch) -> list:
        """The thread of every run's loss derivative, in the order they ran."""
        seen, derivative = [], model_mod._loss_derivative

        def spy(spec, z, y):
            seen.append(threading.current_thread())
            return derivative(spec, z, y)

        monkeypatch.setattr(model_mod, "_loss_derivative", spy)
        return seen

    @staticmethod
    def serial(monkeypatch, *args):
        """The gradient with one usable CPU, where the caller takes every run."""
        with monkeypatch.context() as mp:
            mp.setattr(model_mod, "_usable_cpus", lambda: 1)
            return gradient(*args)

    @pytest.mark.parametrize("kind", ["logistic", "squared"])
    @pytest.mark.parametrize("penalty", ["l2", "elastic"])
    @pytest.mark.parametrize("grid", [True, False], ids=["grid", "lone"])
    @pytest.mark.parametrize("m, per_run", [(5, 1), (7, 2)], ids=["5-runs", "uneven-4-runs"])
    def test_threaded_schedule_is_the_serial_one(self, kind, penalty, grid, m, per_run,
                                                 monkeypatch):
        S, W = self.problem(monkeypatch, m, per_run)
        specs = [ObjectiveSpec(kind, lam, penalty=penalty, gamma=0.85, lipschitz_L=1.0)
                 for lam in (0.05, 0.2, 1.0)]
        spec, w = (specs, W) if grid else (specs[1], W[:, 1])
        seen = self.threads(monkeypatch)
        G = gradient(spec, w, S)
        caller = threading.current_thread()
        assert len(seen) == -(-m // per_run)
        assert {t is caller for t in seen} == {True, False}  # both threads took runs
        seen.clear()
        assert G.tobytes() == self.serial(monkeypatch, spec, w, S).tobytes()
        assert seen == [caller] * -(-m // per_run)

    def test_a_job_queued_behind_another_callers_gets_its_serial_bytes(self, monkeypatch):
        S, W = self.problem(monkeypatch)
        spec = ObjectiveSpec("logistic", 0.2)
        want = [self.serial(monkeypatch, spec, W[:, k], S).tobytes() for k in (0, 1)]
        first_on_worker, second_started = threading.Event(), threading.Event()
        seen, derivative = [], model_mod._loss_derivative

        def spy(spec, z, y):
            me = threading.current_thread()
            seen.append(me.name)
            if me.name == "second":
                second_started.set()  # its job is on the queue before its own runs
            elif me.name != "first" and not second_started.is_set():
                first_on_worker.set()  # the worker holds the first caller's job
                assert second_started.wait(30)
            return derivative(spec, z, y)

        monkeypatch.setattr(model_mod, "_loss_derivative", spy)
        got = {}

        def call(k):
            got[k] = gradient(spec, W[:, k], S).tobytes()

        first = threading.Thread(target=call, args=(0,), name="first", daemon=True)
        first.start()
        assert first_on_worker.wait(30)
        second = threading.Thread(target=call, args=(1,), name="second", daemon=True)
        second.start()
        for t in (first, second):
            t.join(timeout=30)
        assert not first.is_alive() and not second.is_alive()
        assert [got[0], got[1]] == want
        # runs 0, 2 and 4 of each on its caller, runs 1 and 3 of each on the worker
        assert sorted(seen) == ["first"] * 3 + ["second"] * 3 + ["stabledp-runs"] * 4

    def test_a_gradient_inside_a_worker_run_takes_every_run_itself(self, monkeypatch):
        S, W = self.problem(monkeypatch)
        # a worker of this test's own, so that one waiting on itself fails no later test
        monkeypatch.setattr(model_mod, "_worker", None)
        spec = ObjectiveSpec("squared", 0.2, lipschitz_L=1.0)
        want = [self.serial(monkeypatch, spec, W[:, k], S).tobytes() for k in (0, 1)]
        seen = self.threads(monkeypatch)
        spy, got = model_mod._loss_derivative, {}

        def nested(spec_, z, y):
            if threading.current_thread().name == "stabledp-runs" and 1 not in got:
                got[1] = None  # so that the inner call's own runs do not nest again
                got[1] = gradient(spec, W[:, 1], S).tobytes()
            return spy(spec_, z, y)

        def call():
            got[0] = gradient(spec, W[:, 0], S).tobytes()

        monkeypatch.setattr(model_mod, "_loss_derivative", nested)
        outer = threading.Thread(target=call, name="outer", daemon=True)
        outer.start()
        outer.join(timeout=30)
        assert not outer.is_alive(), "a gradient on the worker's thread waited on itself"
        assert [got[0], got[1]] == want
        # the outer call's runs 0, 2 and 4 on its caller; its runs 1 and 3 and all
        # five of the inner call's on the worker
        assert sorted(t.name for t in seen) == ["outer"] * 3 + ["stabledp-runs"] * 7

    def test_calling_threads_each_get_their_serial_bytes(self, monkeypatch):
        S, W = self.problem(monkeypatch, m=6, n=200, d=16, L=4)
        specs = [ObjectiveSpec("logistic", lam) for lam in (0.01, 0.1, 0.3, 1.0)]
        iterates = [W * scale for scale in (1.0, -0.5, 2.0, 0.25)]  # more callers than CPUs
        want = [self.serial(monkeypatch, specs, w, S).tobytes() for w in iterates]
        got = [[] for _ in iterates]

        def call(k):
            for _ in range(25):
                got[k].append(gradient(specs, iterates[k], S).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(k,), daemon=True)
                       for k in range(len(iterates))]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for k, results in enumerate(got):
            assert results == [want[k]] * 25

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork start method on this OS")
    # Python 3.12 warns on any fork of a process with threads; the child here runs
    # only numpy, which the at-fork hook leaves without the parent's worker
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_a_forked_child_starts_its_own_worker(self, monkeypatch):
        S, W = self.problem(monkeypatch)
        spec = ObjectiveSpec("squared", 0.2, lipschitz_L=1.0)
        seen = self.threads(monkeypatch)
        G = gradient(spec, W[:, 0], S)
        # the child inherits the worker's queue, but not its thread
        assert sum(t is not threading.current_thread() for t in seen) == 2
        results, sender = multiprocessing.Pipe(duplex=False)

        def child():
            seen.clear()
            G = gradient(spec, W[:, 0], S)
            sender.send((G.tobytes(), sum(t is not threading.current_thread() for t in seen)))

        process = multiprocessing.get_context("fork").Process(target=child)
        process.start()
        try:
            assert results.poll(30), "the child's gradient did not return"
            got, worker_runs = results.recv()
        finally:
            process.join(timeout=10)
            if process.is_alive():
                process.kill()
                process.join()
        assert process.exitcode == 0
        assert got == G.tobytes()
        assert worker_runs == 2  # runs 1 and 3 of 5, on the child's own worker

    @pytest.mark.parametrize("fail", ["exception", "warning"])
    def test_a_worker_failure_is_raised_by_the_caller(self, fail, monkeypatch):
        S, W = self.problem(monkeypatch)
        spec = ObjectiveSpec("logistic", 0.2)
        want = self.serial(monkeypatch, spec, W[:, 0], S).tobytes()
        caller, derivative = threading.current_thread(), model_mod._loss_derivative
        failed_on = []

        def fail_on_the_worker(spec, z, y):
            if threading.current_thread() is not caller:
                failed_on.append(threading.current_thread())
                if fail == "exception":
                    raise ArithmeticError("a worker run failed")
                warnings.warn("a worker run warned", RuntimeWarning)
            return derivative(spec, z, y)

        monkeypatch.setattr(model_mod, "_loss_derivative", fail_on_the_worker)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises((ArithmeticError, RuntimeWarning), match="a worker run"):
                gradient(spec, W[:, 0], S)
        assert len(failed_on) == 1  # the worker's first run failed, and it took no more
        monkeypatch.setattr(model_mod, "_loss_derivative", derivative)
        seen = self.threads(monkeypatch)
        assert gradient(spec, W[:, 0], S).tobytes() == want
        # the same worker, alive, took runs 1 and 3
        assert [t for t in seen if t is not caller] == failed_on * 2

    def test_the_worker_takes_the_callers_error_state(self, monkeypatch):
        S, W = self.problem(monkeypatch)
        spec, w = ObjectiveSpec("logistic", 0.2), W[:, 0].copy()
        w[[1, 3]] *= 1e4  # exp(y z) overflows in the worker's runs alone
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            gradient(spec, w, S)
        with np.errstate(over="ignore"):
            G = gradient(spec, w, S)  # no warning, which the test run makes an error
            assert G.tobytes() == self.serial(monkeypatch, spec, w, S).tobytes()

    def test_the_worker_keeps_no_array_of_a_finished_call(self, monkeypatch):
        S, W = self.problem(monkeypatch)
        w = W[:, 0].copy()
        alive = weakref.ref(w)
        gradient(ObjectiveSpec("logistic", 0.2), w, S)
        del w
        assert alive() is None

    def test_the_worker_keeps_no_array_of_a_failed_call(self, monkeypatch):
        S, W = self.problem(monkeypatch)
        w = W[:, 0].copy()
        alive = weakref.ref(w)
        caller, derivative = threading.current_thread(), model_mod._loss_derivative

        def fail_on_the_worker(spec, z, y):
            if threading.current_thread() is not caller:
                raise ArithmeticError("a worker run failed")
            return derivative(spec, z, y)

        monkeypatch.setattr(model_mod, "_loss_derivative", fail_on_the_worker)
        with pytest.raises(ArithmeticError):
            gradient(ObjectiveSpec("logistic", 0.2), w, S)
        del w
        # the raised exception's frames hold the call's arrays in a cycle, which the
        # collector frees unless the worker still holds the job or the exception
        gc.collect()
        assert alive() is None


class TestGradientGrid:
    """A grid of specs takes one gradient of its (m, L, d, K) iterate, each slice its
    lone call's."""

    @staticmethod
    def problem(m=5, n=12, d=4, K=3, L=3, seed=22):
        rng = np.random.default_rng(seed)
        S = _Stack(rng.standard_normal((m, n, d)), rng.choice([-1.0, 1.0], size=(m, n, K)))
        return S, rng.standard_normal((m, L, d, K))

    @pytest.mark.parametrize("kind", ["logistic", "squared"])
    @pytest.mark.parametrize("run_bytes", [1 << 40, 2 * 12 * 4 * 8 + 8],
                             ids=["one-run", "runs-of-two"])
    def test_slices_equal_their_lone_calls(self, kind, run_bytes, monkeypatch):
        # an l2 and two elastic specs, each with its own L2 coefficient
        specs = [ObjectiveSpec(kind, 0.3, lipschitz_L=1.0),
                 ObjectiveSpec(kind, 0.05, penalty="elastic", gamma=0.85, lipschitz_L=1.0),
                 ObjectiveSpec(kind, 2.0, penalty="elastic", gamma=0.5, lipschitz_L=1.0)]
        S, W = self.problem()
        monkeypatch.setattr(model_mod, "_RUN_BYTES", run_bytes)
        G = gradient(specs, W, S)
        assert G.shape == W.shape
        for j, spec in enumerate(specs):
            assert G[:, j].tobytes() == gradient(spec, W[:, j], S).tobytes()

    def test_grid_of_one(self):
        spec = ObjectiveSpec("logistic", 0.1)
        S, W = self.problem(L=1)
        assert gradient((spec,), W, S)[:, 0].tobytes() == gradient(spec, W[:, 0], S).tobytes()

    def test_mixed_loss_kinds_refused(self):
        S, W = self.problem(L=2)
        specs = [ObjectiveSpec("logistic", 0.1), ObjectiveSpec("squared", 0.1, lipschitz_L=1.0)]
        with pytest.raises(ValueError, match=r"the specs' loss_kind must be one, as a grid "
                                             r"steps one loss, got \('logistic', 'squared'\)"):
            gradient(specs, W, S)

    def test_bad_grids_refused(self):
        S, W = self.problem(L=2)
        spec = ObjectiveSpec("logistic", 0.1)
        for bad in ([], [spec, "logistic"]):
            with pytest.raises(ValueError, match="specs must be a non-empty sequence"):
                gradient(bad, W, S)
        with pytest.raises(ValueError, match="weight shape"):
            gradient([spec], W, S)  # a grid of one against a grid of two
        D = Dataset(S.features[0], S.labels[0, :, 0])
        with pytest.raises(ValueError, match="S's type must be _Stack for a grid of specs"):
            gradient([spec, spec], W[0, :, :, 0], D)


class TestStrongConvexity:
    def test_l2_half_convention(self):
        assert strong_convexity_constant(ObjectiveSpec("logistic", 0.1)) == pytest.approx(0.1)

    def test_elastic_convention(self):
        spec = ObjectiveSpec("logistic", 0.1, penalty="elastic", gamma=0.85)
        assert strong_convexity_constant(spec) == pytest.approx(0.17)

    def test_zero_lam_errors(self):
        with pytest.raises(ValueError, match="not strongly convex"):
            strong_convexity_constant(ObjectiveSpec("logistic", 0.0))

    @pytest.mark.parametrize("penalty,kwargs", [
        ("l2", {}),
        ("l2", {"lam": 0.6}),
        ("elastic", {"gamma": 0.85}),
    ])
    def test_quadratic_growth_inequality(self, penalty, kwargs):
        # Definition restated on the full objective, 1000 random pairs
        rng = np.random.default_rng(7)
        spec = ObjectiveSpec(**{"loss_kind": "logistic", "lam": 0.3, "penalty": penalty,
                                **kwargs})
        lam_sc = strong_convexity_constant(spec)
        X = rng.standard_normal((8, 3))
        X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)
        S = Dataset(X, rng.choice([-1.0, 1.0], size=8))
        for _ in range(1000):
            w = rng.standard_normal(3)
            w2 = rng.standard_normal(3)
            # a subgradient of the full objective at w2 (sign(0) taken as 0)
            subgradient = gradient(spec, w2, S) + spec.l1_coefficient * np.sign(w2)
            lhs = objective(spec, w, S)
            rhs = (objective(spec, w2, S)
                   + subgradient @ (w - w2)
                   + 0.5 * lam_sc * np.sum((w - w2) ** 2))
            assert lhs >= rhs - 1e-9

    def test_lipschitz_bound_on_loss(self):
        # |loss(w) - loss(w')| <= L ||w - w'|| with L = kappa for logistic
        rng = np.random.default_rng(11)
        spec = ObjectiveSpec("logistic", 0.1, kappa=1.0)
        for _ in range(1000):
            x = rng.standard_normal(4)
            x /= max(np.linalg.norm(x), 1.0)
            y = rng.choice([-1.0, 1.0])
            w = rng.standard_normal(4)
            w2 = rng.standard_normal(4)
            diff = abs(per_example_loss(spec, w, x, y) - per_example_loss(spec, w2, x, y))
            assert diff <= spec.L * np.linalg.norm(w - w2) + 1e-12


class TestSignedLabels:
    def test_passthrough(self):
        np.testing.assert_array_equal(as_signed_labels(np.array([1.0, -1.0]), positive=1.0),
                                      [1.0, -1.0])

    def test_two_class_mapping(self):
        np.testing.assert_array_equal(as_signed_labels(np.array([0.0, 3.0, 0.0]), positive=3.0),
                                      [-1.0, 1.0, -1.0])

    def test_one_vs_rest(self):
        np.testing.assert_array_equal(
            as_signed_labels(np.array([0.0, 1.0, 2.0]), positive=1.0), [-1.0, 1.0, -1.0]
        )

    def test_one_vs_rest_block(self):
        y = np.array([0.0, 1.0, 2.0, 1.0])
        Y = as_signed_labels(y, positive=np.array([0.0, 1.0, 2.0]))
        assert Y.shape == (4, 3)
        for j, c in enumerate((0.0, 1.0, 2.0)):
            np.testing.assert_array_equal(Y[:, j], as_signed_labels(y, positive=c))


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=8),
       st.sampled_from([-1.0, 1.0]))
@settings(max_examples=50, deadline=None)
def test_logistic_loss_nonnegative_finite(xs, y):
    spec = ObjectiveSpec("logistic", 0.1)
    x = np.array(xs)
    w = np.linspace(-1, 1, len(xs))
    val = per_example_loss(spec, w, x, y)
    assert math.isfinite(val) and val >= 0
