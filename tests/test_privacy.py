import math

import numpy as np
import pytest

from stabledp.data_io import synth_classification
from stabledp.model import Dataset, ObjectiveSpec
from stabledp.optimizer import solve_erm
from stabledp.privacy import (
    PrivateRelease,
    dp_micro_check,
    elastic_release_scale,
    laplace_sample,
    output_perturb,
    perturb,
    private_elastic_net,
    wilson_interval,
)
from stabledp.rng import derive_rng
from stabledp.stability import SensitivityBound, sensitivity_l2_direct


class TestLaplaceSample:
    def test_moments(self):
        r = laplace_sample(1.0, 200_000, derive_rng(0))
        assert abs(r.mean()) < 0.01
        assert r.var() == pytest.approx(2.0, rel=0.03)

    def test_cdf_quantiles(self):
        r = laplace_sample(1.0, 200_000, derive_rng(1))
        for t in (0.5, 1.0, 2.0):
            assert np.mean(np.abs(r) <= t) == pytest.approx(1 - math.exp(-t), abs=0.005)

    def test_scale_parameter(self):
        r = laplace_sample(0.4, 100_000, derive_rng(2))
        assert r.var() == pytest.approx(2 * 0.4**2, rel=0.05)

    def test_deterministic_given_seed(self):
        np.testing.assert_array_equal(
            laplace_sample(1.0, 100, derive_rng(3)), laplace_sample(1.0, 100, derive_rng(3))
        )

    def test_nonpositive_scale_rejected(self):
        for b in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                laplace_sample(b, 10, derive_rng(0))


class TestPrivateRelease:
    def test_scale_invariant_enforced(self):
        with pytest.raises(ValueError, match="noise_scale"):
            PrivateRelease(np.zeros(2), epsilon=1.0, sensitivity_used=0.4, noise_scale=0.3)

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ValueError):
            PrivateRelease(np.zeros(2), epsilon=0.0, sensitivity_used=0.0, noise_scale=0.0)


class TestOutputPerturb:
    def bound(self, l2, d=1):
        return SensitivityBound(l2_value=l2, l1_value=math.sqrt(d) * l2, method="strong_convexity", d=d)

    def test_zero_sensitivity_returns_exact_weights(self):
        w = np.array([0.5, -0.25])
        rel = output_perturb(w, self.bound(0.0, d=2), epsilon=1.0, seed=0)
        np.testing.assert_array_equal(rel.noisy_weights, w)
        assert rel.noise_scale == 0.0

    def test_l1_calibration_default_and_verbatim(self):
        b = sensitivity_l2_direct(1, 1, 100, 0.1, d=4)  # l2 = 0.4, l1 = 0.8
        rel = output_perturb(np.zeros(4), b, epsilon=1.0, seed=1)
        assert rel.noise_scale == pytest.approx(0.8)
        rel_v = output_perturb(np.zeros(4), b, epsilon=1.0, seed=1, verbatim=True)
        assert rel_v.noise_scale == pytest.approx(0.4)

    def test_noise_variance_matches_two_b_squared(self):
        # scale 0.4 -> per-coordinate variance 2 * 0.4^2 = 0.32
        b = self.bound(0.4)
        draws = np.array([
            output_perturb(np.zeros(1), b, epsilon=1.0, rng=rng).noisy_weights[0]
            for rng in [derive_rng(10, i) for i in range(20_000)]
        ])
        assert draws.var() == pytest.approx(0.32, rel=0.05)

    def test_deterministic_given_seed(self):
        b = self.bound(0.4, d=3)
        r1 = output_perturb(np.ones(3), b, epsilon=2.0, seed=7)
        r2 = output_perturb(np.ones(3), b, epsilon=2.0, seed=7)
        np.testing.assert_array_equal(r1.noisy_weights, r2.noisy_weights)
        assert r1.seed == 7

    def test_coordinate_exchangeability(self):
        # marginal statistics of the first and last coordinate agree
        b = self.bound(1.0, d=5)
        rng = derive_rng(20)
        noise = np.stack([
            output_perturb(np.zeros(5), b, epsilon=1.0, rng=rng).noisy_weights
            for _ in range(20_000)
        ])
        v_first, v_last = noise[:, 0].var(), noise[:, -1].var()
        assert v_first == pytest.approx(v_last, rel=0.06)

    def test_infinite_sensitivity_rejected(self):
        b = SensitivityBound(l2_value=math.inf, l1_value=math.inf, method="strong_convexity", d=1)
        with pytest.raises(ValueError, match="finite"):
            output_perturb(np.zeros(1), b, epsilon=1.0, seed=0)


class TestPrivateElasticNet:
    def fixture(self):
        S, _ = synth_classification(100, 3, classes=2, sparsity=3, noise=0.5, seed=2)
        return S

    def test_release_scale_matches_hand_value(self):
        # beta = 2/(100*0.1*0.85) = 0.23529..., scale = sqrt(2 beta/(lam gamma)) = 40/17
        sens, scale = elastic_release_scale(1.0, 1.0, 100, 0.1, 0.85, epsilon=1.0)
        assert sens == pytest.approx(40.0 / 17.0, rel=1e-12)
        assert scale == pytest.approx(2.3529411764705883, rel=1e-12)
        rel = private_elastic_net(self.fixture(), lam=0.1, gamma=0.85, eta=0.15,
                                  epsilon=1.0, L=1.0, kappa=1.0, seed=0)
        assert rel.noise_scale == pytest.approx(40.0 / 17.0, rel=1e-12)

    def test_huge_epsilon_recovers_nonprivate_weights(self):
        S = self.fixture()
        spec = ObjectiveSpec("logistic", 0.1, penalty="elastic", gamma=0.85, eta=0.15)
        w = solve_erm(spec, S, 1e-8).weights
        rel = private_elastic_net(S, lam=0.1, gamma=0.85, eta=0.15, epsilon=1e6,
                                  L=1.0, kappa=1.0, seed=3)
        assert rel.noise_scale == pytest.approx(2.3529411764705883e-06, rel=1e-9)
        assert np.max(np.abs(rel.noisy_weights - w)) < 1e-4

    def test_gamma_one_degenerates_to_l2_release(self):
        S = self.fixture()
        rel = private_elastic_net(S, lam=0.1, gamma=1.0, eta=0.0, epsilon=1.0,
                                  L=1.0, kappa=1.0, seed=4)
        beta = 2.0 / (S.n * 0.1)
        assert rel.sensitivity_used == pytest.approx(math.sqrt(2 * beta / 0.1), rel=1e-12)
        spec = ObjectiveSpec("logistic", 0.1, penalty="l2", l2_form="full")
        w_l2 = solve_erm(spec, S, 1e-8).weights
        noise = rel.noisy_weights - w_l2
        # the trained weights under gamma=1, eta=0 equal the lam||w||^2 L2 fit
        rel2 = private_elastic_net(S, lam=0.1, gamma=1.0, eta=0.0, epsilon=1e9,
                                   L=1.0, kappa=1.0, seed=4)
        assert np.max(np.abs(rel2.noisy_weights - w_l2)) < 1e-6

    def test_derived_mode_applies_sqrt_d_over_sqrt_2(self):
        S = self.fixture()
        v = private_elastic_net(S, 0.1, 0.85, 0.15, 1.0, L=1.0, kappa=1.0, seed=0,
                                mode="verbatim")
        d = private_elastic_net(S, 0.1, 0.85, 0.15, 1.0, L=1.0, kappa=1.0, seed=0,
                                mode="derived")
        # verbatim: sqrt(2 beta/(lam gamma)); derived: sqrt(d) * sqrt(2 beta/(2 lam gamma))
        assert d.noise_scale / v.noise_scale == pytest.approx(
            math.sqrt(S.d) / math.sqrt(2.0), rel=1e-12
        )

    def test_kappa_violation_rejected(self):
        S = Dataset(np.array([[3.0, 0.0], [0.0, 1.0]]), np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="kappa"):
            private_elastic_net(S, 0.1, 0.85, 0.15, 1.0, L=1.0, kappa=1.0, seed=0)


def _bounded_mean_release(scale):
    def fn(ds, rng, size):
        return float(np.mean(ds.features)) + laplace_sample(scale, size, rng)
    return fn


class TestPerturb:
    def test_adds_laplace_draws_in_row_major_order(self):
        W = np.arange(6.0).reshape(2, 3)
        out = perturb(W, 0.5, derive_rng(9))
        assert out.shape == W.shape
        assert np.array_equal(out, W + laplace_sample(0.5, 6, derive_rng(9)).reshape(2, 3))
        assert np.array_equal(W, np.arange(6.0).reshape(2, 3))

    def test_zero_scale_copies_and_draws_nothing(self):
        W = np.arange(3.0)
        rng = derive_rng(9)
        out = perturb(W, 0.0, rng)
        assert out is not W and np.array_equal(out, W)
        assert rng.random() == derive_rng(9).random()


class TestDpMicroCheck:
    def datasets(self, n=40):
        vals = np.linspace(0.0, 1.0, n)
        S = Dataset(vals[:, None], np.zeros(n))
        Sp = S.replace_record(0, np.array([1.0]), 0.0)  # worst-case neighbor, shift 1/n
        return S, Sp

    def test_identical_datasets_ratio_near_one(self):
        S, _ = self.datasets()
        rep = dp_micro_check(_bounded_mean_release(0.025), S, S, epsilon=1.0,
                             samples=200_000, seed=0)
        assert rep.empirical_value < 1.1
        assert rep.passed

    def test_calibrated_release_passes(self):
        S, Sp = self.datasets()
        rep = dp_micro_check(_bounded_mean_release(1 / 40 / 1.0), S, Sp, epsilon=1.0,
                             samples=400_000, seed=1)
        assert rep.passed, rep.summary()

    def test_half_noise_negative_control_fails(self):
        S, Sp = self.datasets()
        rep = dp_micro_check(_bounded_mean_release(1 / 40 / 2.0), S, Sp, epsilon=1.0,
                             samples=400_000, seed=2)
        assert not rep.passed, rep.summary()
        assert rep.details["confident_violations"] >= 1

    def test_low_sample_bins_inconclusive_not_failed(self):
        S, Sp = self.datasets()
        rep = dp_micro_check(_bounded_mean_release(0.025), S, Sp, epsilon=1.0,
                             samples=2_000, seed=3, min_count=500)
        assert rep.details["bins_inconclusive"] > 0


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(50, 1000)
        assert lo < 0.05 < hi

    def test_degenerate(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_narrows_with_n(self):
        lo1, hi1 = wilson_interval(10, 100)
        lo2, hi2 = wilson_interval(1000, 10_000)
        assert (hi2 - lo2) < (hi1 - lo1)
