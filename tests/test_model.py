import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabledp.model import (
    Dataset,
    ObjectiveSpec,
    _stack,
    as_signed_labels,
    gradient,
    objective,
    per_example_grad,
    per_example_loss,
    smooth_objective,
    strong_convexity_constant,
)

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
        S = Dataset(np.ones((3, 2)), np.ones((3, 4)))
        assert S.labels.shape == (3, 4) and (S.n, S.d) == (3, 2)
        for bad in (np.ones((2, 4)), np.ones((3, 4, 1)), np.float64(1.0)):
            with pytest.raises(ValueError, match="does not match"):
                Dataset(np.ones((3, 2)), bad)

    def test_replace_record(self):
        S = small_dataset()
        S2 = S.replace_record(1, np.array([9.0, 9.0, 9.0]), -1.0)
        assert S2.features[1, 0] == 9.0
        assert S.features[1, 0] == 0.0  # original untouched


class TestObjectiveSpec:
    def test_eta_defaults_to_one_minus_gamma(self):
        spec = ObjectiveSpec("logistic", 0.1, penalty="elastic", gamma=0.85)
        assert spec.eta == pytest.approx(0.15)

    def test_logistic_lipschitz_defaults_to_kappa(self):
        spec = ObjectiveSpec("logistic", 0.1, kappa=2.0)
        assert spec.L == 2.0

    def test_l2_coefficients(self):
        assert ObjectiveSpec("logistic", 0.1).l2_coefficient == pytest.approx(0.05)
        assert ObjectiveSpec("logistic", 0.1, l2_form="full").l2_coefficient == pytest.approx(0.1)
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
    """(n, m) labels with (d, m) weights are m problems on one X."""

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
        S = Dataset(X, Y)
        G = gradient(spec, W, S)
        f = smooth_objective(spec, W, S)
        F = objective(spec, W, S)
        assert G.shape == (4, 3) and f.shape == (3,) and F.shape == (3,)
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
        for labels, weights in ((Y, W[:, 0]), (Y, W[:, :2]), (Y[:, 0], W), (Y, W.T)):
            with pytest.raises(ValueError, match="does not match"):
                fn(spec, weights, Dataset(X, labels))


class TestStackEvaluation:
    """A stack of m same-shape datasets evaluates column j of (d, m) weights on dataset j."""

    def stack(self):
        rng = np.random.default_rng(12)
        datasets = [Dataset(rng.standard_normal((12, 4)), rng.choice([-1.0, 1.0], size=12))
                    for _ in range(3)]
        return datasets, rng.standard_normal((4, 3))

    @pytest.mark.parametrize("kind", ["logistic", "squared"])
    @pytest.mark.parametrize("penalty", ["l2", "elastic"])
    def test_matches_per_dataset_calls(self, kind, penalty):
        spec = ObjectiveSpec(kind, 0.2, penalty=penalty, gamma=0.85, lipschitz_L=1.0)
        datasets, W = self.stack()
        S = _stack(datasets)
        G, f, F = gradient(spec, W, S), smooth_objective(spec, W, S), objective(spec, W, S)
        assert G.shape == (4, 3) and f.shape == (3,) and F.shape == (3,)
        for j, Sj in enumerate(datasets):
            np.testing.assert_allclose(G[:, j], gradient(spec, W[:, j], Sj), rtol=1e-12, atol=0)
            assert f[j] == pytest.approx(smooth_objective(spec, W[:, j], Sj), rel=1e-12)
            assert F[j] == pytest.approx(objective(spec, W[:, j], Sj), rel=1e-12)

    @pytest.mark.parametrize("fn", [gradient, smooth_objective, objective])
    def test_mismatched_shapes_rejected(self, fn):
        spec = ObjectiveSpec("logistic", 0.2)
        datasets, W = self.stack()
        for weights in (W[:, 0], W[:, :2], W.T):
            with pytest.raises(ValueError, match="does not match"):
                fn(spec, weights, _stack(datasets))


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
        ("l2", {"l2_form": "full"}),
        ("elastic", {"gamma": 0.85}),
    ])
    def test_quadratic_growth_inequality(self, penalty, kwargs):
        # Definition restated on the full objective, 1000 random pairs
        rng = np.random.default_rng(7)
        spec = ObjectiveSpec("logistic", 0.3, penalty=penalty, **kwargs)
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
        np.testing.assert_array_equal(as_signed_labels(np.array([1.0, -1.0])), [1.0, -1.0])

    def test_two_class_mapping(self):
        np.testing.assert_array_equal(as_signed_labels(np.array([0.0, 3.0, 0.0])),
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

    def test_multiclass_without_positive_errors(self):
        with pytest.raises(ValueError, match="one-vs-rest"):
            as_signed_labels(np.array([0.0, 1.0, 2.0]))


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=8),
       st.sampled_from([-1.0, 1.0]))
@settings(max_examples=50, deadline=None)
def test_logistic_loss_nonnegative_finite(xs, y):
    spec = ObjectiveSpec("logistic", 0.1)
    x = np.array(xs)
    w = np.linspace(-1, 1, len(xs))
    val = per_example_loss(spec, w, x, y)
    assert math.isfinite(val) and val >= 0
