import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabledp.features import (
    dynamic_threshold,
    f1_similarity,
    flip_probability,
    lemma_noise_scale,
    select_features,
)
from stabledp.verify import flip_rate_check


class TestSelectFeatures:
    def test_nonzero_rule_at_zero_threshold(self):
        keep = select_features(np.array([0.0, 0.5]), 0.0)
        np.testing.assert_array_equal(keep, [False, True])

    def test_hand_threshold(self):
        keep = select_features(np.array([0.3, -0.7]), 0.5)
        np.testing.assert_array_equal(keep, [False, True])

    def test_huge_threshold_selects_nothing(self):
        keep = select_features(np.array([10.0, -20.0]), math.inf)
        assert keep.sum() == 0
        # and no private decision can flip against it
        assert flip_probability(math.inf, 10.0, 1.0, 0.1, 0.15, 100, 1.0, 1.0) == 0.0

    def test_negative_threshold_rejected(self):
        for T in (-0.1, math.nan):
            with pytest.raises(ValueError):
                select_features(np.zeros(2), T)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=16), st.floats(0, 5))
    @settings(max_examples=100, deadline=None)
    def test_idempotent_under_hard_thresholding(self, vals, T):
        w = np.array(vals)
        once = select_features(w, T)
        again = select_features(np.where(once, w, 0.0), T)
        np.testing.assert_array_equal(once, again)

    def test_block_equals_per_row_calls(self):
        W = np.random.default_rng(0).laplace(size=(5, 9))
        keep = select_features(W, 0.7)
        assert keep.shape == W.shape and keep.dtype == bool
        for row, w in zip(keep, W):
            np.testing.assert_array_equal(row, select_features(w, 0.7))


class TestDynamicThreshold:
    def test_zero_noise(self):
        assert dynamic_threshold(0.0, 1.0) == 0.0

    def test_unit_scale_is_sqrt2(self):
        assert dynamic_threshold(1.0, 1.0) == pytest.approx(math.sqrt(2.0))

    def test_linear_in_k(self):
        assert dynamic_threshold(1.0, 3.0) == pytest.approx(3 * dynamic_threshold(1.0, 1.0))

    def test_invalid_inputs(self):
        for b, k in ((-1.0, 1.0), (1.0, 0.0), (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                     (1.0, True)):
            with pytest.raises(ValueError):
                dynamic_threshold(b, k)


class TestFlipProbability:
    def test_boundary_equals_one(self):
        assert flip_probability(0.5, 0.5, 1.0, 0.1, 0.15, 100, 1.0, 1.0) == pytest.approx(1.0)

    def test_hand_value(self):
        # exponent = -(1 * 0.5 * 0.1 * 0.15 * 100) / 2 = -0.375
        p = flip_probability(0.5, 0.0, 1.0, 0.1, 0.15, 10_000, 1.0, 1.0)
        assert p == pytest.approx(0.6872892787909722, rel=1e-12)

    def test_nonpositive_threshold_rejected(self):
        for T in (0.0, math.nan):
            with pytest.raises(ValueError):
                flip_probability(T, 0.1, 1.0, 0.1, 0.15, 100, 1.0, 1.0)

    @pytest.mark.parametrize("field,value", [
        ("epsilon", 0.0), ("lam", -0.1), ("eta", 0.0), ("n", 0), ("L", 0.0), ("kappa", 0.0),
        ("epsilon", math.nan), ("lam", math.nan), ("kappa", math.inf),
    ])
    def test_nonpositive_scale_params_rejected(self, field, value):
        kwargs = dict(T=0.5, w=0.0, epsilon=1.0, lam=0.1, eta=0.15, n=100, L=1.0, kappa=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError):
            flip_probability(**kwargs)

    def test_monotone_in_gap_epsilon_and_n(self):
        base = dict(epsilon=1.0, lam=0.1, eta=0.15, L=1.0, kappa=1.0)
        gaps = [flip_probability(0.2 + g, 0.2, n=400, **base) for g in (0.1, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        eps = [flip_probability(1.0, 0.0, n=400, lam=0.1, eta=0.15, L=1.0, kappa=1.0,
                                epsilon=e) for e in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(eps, eps[1:]))
        ns = [flip_probability(1.0, 0.0, n=n, **base) for n in (100, 400, 1600, 6400)]
        assert all(a > b for a, b in zip(ns, ns[1:]))

    def test_scalar_weight_gives_float(self):
        assert type(flip_probability(0.5, 0.1, 1.0, 0.1, 0.15, 100, 1.0, 1.0)) is float
        assert type(flip_probability(0.5, np.float64(0.1), 1.0, 0.1, 0.15, 100, 1.0, 1.0)) is float

    def test_array_equals_scalar_calls(self):
        # np.exp and math.exp may differ by one ulp
        W = np.random.default_rng(1).normal(scale=0.3, size=(4, 64))
        args = (1.0, 0.1, 0.15, 2_500, 1.0, 1.0)
        P = flip_probability(0.2, W, *args)
        assert P.shape == W.shape
        expect = np.array([[flip_probability(0.2, float(w), *args) for w in row] for row in W])
        np.testing.assert_allclose(P, expect, rtol=4.5e-16, atol=0)

    def test_monte_carlo_case1_grid(self):
        # Monte-Carlo at the formula's implied scale, 3 sigma, grid over (T, eps, n)
        for T in (0.5, 1.5):
            for eps in (0.5, 2.0):
                for n in (2_500, 10_000):
                    rep = flip_rate_check(T, 0.0, eps, lam=0.1, eta=0.15, n=n,
                                          L=1.0, kappa=1.0, draws=40_000,
                                          seed=hash((T, eps, n)) % 2**32)
                    assert rep.passed, rep.summary()


class TestLemmaScale:
    def test_hand_value(self):
        # 2 L sqrt(kappa) / (eps lam eta sqrt(n)) at the flip-probability fixture
        b = lemma_noise_scale(1.0, 0.1, 0.15, 10_000, 1.0, 1.0)
        assert b == pytest.approx(2.0 / (0.1 * 0.15 * 100), rel=1e-12)


class TestF1Similarity:
    def mk(self, bits):
        return np.array(bits, dtype=bool)

    def test_identical_is_one(self):
        a = self.mk([1, 0, 1, 0])
        assert f1_similarity(a, a) == 1.0

    def test_hand_confusion(self):
        a = self.mk([1, 1, 0, 0])
        b = self.mk([1, 0, 1, 0])
        assert f1_similarity(a, b) == pytest.approx(0.5)

    def test_empty_candidate_scores_zero(self):
        a = self.mk([1, 1, 0, 0])
        b = self.mk([0, 0, 0, 0])
        assert f1_similarity(a, b) == 0.0

    def test_both_empty_is_one(self):
        a = self.mk([0, 0])
        assert f1_similarity(a, a) == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths"):
            f1_similarity(self.mk([1, 0]), self.mk([1, 0, 1]))

    def test_rows_equal_per_row_values(self):
        A = self.mk([[1, 1, 0, 0], [0, 0, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [1, 0, 1, 1]])
        B = self.mk([[1, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 1]])
        f1 = f1_similarity(A, B)
        assert f1.shape == (5,)
        assert f1.tolist() == [f1_similarity(a, b) for a, b in zip(A, B)]
        assert f1.tolist() == [0.5, 1.0, 0.0, 0.0, 1.0]

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=20),
           st.lists(st.integers(0, 1), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_bounded_and_symmetric_in_counts(self, xs, ys):
        n = min(len(xs), len(ys))
        a, b = self.mk(xs[:n]), self.mk(ys[:n])
        val = f1_similarity(a, b)
        assert 0.0 <= val <= 1.0
        # F1 is symmetric because FP and FN enter the denominator together
        assert val == pytest.approx(f1_similarity(b, a))
