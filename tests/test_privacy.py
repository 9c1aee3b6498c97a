import functools
import math

import numpy as np
import pytest

from stabledp import privacy as privacy_mod
from stabledp.data_io import synth_classification
from stabledp.model import Dataset, ObjectiveSpec
from stabledp.optimizer import ConvergenceError, solve_erm
from stabledp.privacy import (
    Noise,
    PrivateRelease,
    calibrate,
    dp_micro_check,
    laplace_sample,
    perturb,
    release,
    wilson_interval,
)
from stabledp.rng import derive_rng
from stabledp.stability import (
    beta_elastic_net,
    beta_l2_erm,
    spec_cert,
    stability_knob_scaling,
    user_cert,
)


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
        for b in (0.0, -1.0, math.nan, math.inf, True):
            with pytest.raises(ValueError):
                laplace_sample(b, 10, derive_rng(0))

    def test_bit_for_bit_inverse_cdf(self):
        # the out-of-place inverse CDF, rounding b * log1p(...) once as the in-place one does
        def reference(b, u):
            u = u - 0.5
            return -b * np.sign(u) * np.log1p(-2.0 * np.minimum(np.abs(u), np.nextafter(0.5, 0)))

        class Stub:
            # u = 0 hits the clipped endpoint, u = 0.5 the signed zero
            U = np.array([0.0, 0.25, 0.5, 1.0 - 2.0**-53])

            def random(self, count):
                return np.resize(self.U, count)

        for count in (0, 1, 7, 100_000):
            for b in (0.4, 1.0):
                u = derive_rng(5, count).random(count)
                got = laplace_sample(b, count, derive_rng(5, count))
                assert got.tobytes() == reference(b, u).tobytes()
                got = laplace_sample(b, count, Stub())
                assert got.tobytes() == reference(b, Stub().random(count)).tobytes()
        edges = laplace_sample(1.0, 4, Stub())
        # u = 0 is clipped to |u - 0.5| = 0.5 - 2^-54, so log1p sees -(1 - 2^-53)
        assert edges[0] == pytest.approx(math.log(2.0**-53), rel=1e-15) and edges[3] > 0
        assert edges[2] == 0.0 and math.copysign(1.0, edges[2]) == 1.0


class TestNoise:
    def test_tail_is_the_laplace_tail(self):
        # P(|b| > t) = exp(-t / scale), checked against draws of the same law
        noise = Noise(0.4)
        assert noise.tail(0.0) == 1.0
        assert noise.tail(0.8) == pytest.approx(math.exp(-2.0), rel=1e-15)
        draws = laplace_sample(0.4, 200_000, derive_rng(3))
        assert np.mean(np.abs(draws) > 0.8) == pytest.approx(noise.tail(0.8), abs=3e-3)
        np.testing.assert_array_equal(noise.tail(np.array([0.0, 0.8])),
                                      [1.0, noise.tail(0.8)])

    def test_no_noise_has_no_tail(self):
        with pytest.raises(ValueError, match="scale"):
            Noise(0.0).tail(1.0)

    def test_calibration_is_optional_but_checked(self):
        assert Noise(0.3, sensitivity=0.4, epsilon=2.0).calibration is None
        with pytest.raises(ValueError, match="sensitivity"):
            Noise(0.3, epsilon=1.0, calibration="derived")


class TestPrivateRelease:
    def test_uncalibrated_record_refused(self):
        with pytest.raises(ValueError, match="calibrated"):
            PrivateRelease(np.zeros(2), Noise(0.4))

    def test_scale_invariant_enforced(self):
        with pytest.raises(ValueError, match="scale"):
            PrivateRelease(np.zeros(2), Noise(0.3, sensitivity=0.4, epsilon=1.0,
                                              calibration="derived"))

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ValueError):
            PrivateRelease(np.zeros(2), Noise(0.0, sensitivity=0.0, epsilon=0.0,
                                              calibration="derived"))

    def test_unknown_calibration_rejected(self):
        with pytest.raises(ValueError, match="calibration"):
            PrivateRelease(np.zeros(2), Noise(0.4, sensitivity=0.4, epsilon=1.0,
                                              calibration="l1"))


def elastic_fixture():
    S, _ = synth_classification(100, 3, classes=2, sparsity=3, noise=0.5, seed=2)
    return S


def elastic_spec(lam=0.1, gamma=0.85, eta=0.15, **kw):
    return ObjectiveSpec("logistic", lam, penalty="elastic", gamma=gamma, eta=eta, **kw)


class TestCalibrate:
    def test_verbatim_is_the_classical_recipe_bit_for_bit(self):
        for lam in (1e-3, 0.03, 0.2, 1.0):
            for gamma in (0.1, 0.85, 1.0):
                for n in (37, 1600, 10_000):
                    cert = beta_elastic_net(1.0, 1.0, n, lam, gamma)
                    sens = calibrate(cert, 32, 1.0, "verbatim").sensitivity
                    assert sens == math.sqrt(2.0 * cert.beta / (lam * gamma))

    def test_bad_inputs_rejected(self):
        cert = beta_elastic_net(1, 1, 100, 0.1, 0.85)
        for eps in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="epsilon"):
                calibrate(cert, 4, eps, "derived")
        for d in (0, 2.5, True):
            with pytest.raises(ValueError, match="d must be"):
                calibrate(cert, d, 1.0, "derived")
        with pytest.raises(ValueError, match="calibration"):
            calibrate(cert, 4, 1.0, "l1")


class TestRelease:
    @pytest.mark.parametrize("calibration", ["verbatim", "derived"])
    def test_is_solve_then_certify_then_calibrate_then_perturb(self, calibration):
        S, spec = elastic_fixture(), elastic_spec()
        rel = release(spec, S, 2.0, calibration=calibration, rng=derive_rng(8))
        noise = calibrate(spec_cert(spec, S.n), S.d, 2.0, calibration)
        w = solve_erm(spec, S, 1e-8).weights
        assert (rel.noise.sensitivity, rel.noise.scale) == (noise.sensitivity, noise.scale)
        assert rel.noise.calibration == calibration and rel.noise.epsilon == 2.0
        np.testing.assert_array_equal(rel.noisy_weights, perturb(w, noise, derive_rng(8)))

    def test_l2_spec_releases_with_the_derived_calibration(self):
        S = elastic_fixture()
        spec = ObjectiveSpec("logistic", 0.1, penalty="l2")
        rel = release(spec, S, 1.0, calibration="derived", rng=derive_rng(0))
        # beta = 2 / (100 * 0.1) with lambda_sc = 0.1: L2 bound 2, L1 bound 2 sqrt(d)
        assert rel.noise.scale == pytest.approx(2.0 * math.sqrt(S.d), rel=1e-12)

    def test_convergence_error_propagates(self, monkeypatch):
        monkeypatch.setattr(privacy_mod, "solve_erm", functools.partial(solve_erm, max_iters=1))
        with pytest.raises(ConvergenceError):
            release(elastic_spec(), elastic_fixture(), 1.0, calibration="verbatim",
                    rng=derive_rng(0))


class TestOutputPerturb:
    """Output perturbation: a certificate's calibrated scale, applied by ``perturb``."""

    def test_zero_sensitivity_returns_exact_weights(self):
        w = np.array([0.5, -0.25])
        noise = calibrate(user_cert(0.0, 1.0), 2, 1.0, "derived")
        np.testing.assert_array_equal(perturb(w, noise, derive_rng(0)), w)
        assert noise.sensitivity == noise.scale == 0.0

    def test_l1_calibration_default_and_verbatim(self):
        cert = beta_l2_erm(1, 1, 100, 0.1)  # sqrt(2 beta / lambda_sc) = 2, so L1 = 4 in d = 4
        noise = calibrate(cert, 4, 2.0, "derived")
        assert (noise.sensitivity, noise.scale) == (pytest.approx(4.0), pytest.approx(2.0))
        # verbatim is stated for the elastic-net constant and nothing else
        knob = stability_knob_scaling(beta_elastic_net(1, 1, 100, 0.1, 0.85), "steps", 1.0, 2.0)
        for other in (cert, user_cert(0.2, 0.1), knob):
            with pytest.raises(ValueError, match="elastic-net"):
                calibrate(other, 4, 1.0, "verbatim")

    def test_noise_variance_matches_two_b_squared(self):
        # scale 0.4 -> per-coordinate variance 2 * 0.4^2 = 0.32
        noise = calibrate(user_cert(0.08, 1.0), 1, 1.0, "derived")
        draws = np.array([perturb(np.zeros(1), noise, rng)[0]
                          for rng in [derive_rng(10, i) for i in range(20_000)]])
        assert draws.var() == pytest.approx(0.32, rel=0.05)

    def test_deterministic_given_seed(self):
        S, spec = elastic_fixture(), elastic_spec()
        r1 = release(spec, S, 2.0, calibration="derived", rng=derive_rng(7))
        r2 = release(spec, S, 2.0, calibration="derived", rng=derive_rng(7))
        np.testing.assert_array_equal(r1.noisy_weights, r2.noisy_weights)

    def test_coordinate_exchangeability(self):
        # marginal statistics of the first and last coordinate agree
        laplace = calibrate(user_cert(0.1, 1.0), 5, 1.0, "derived")
        rng = derive_rng(20)
        noise = np.stack([perturb(np.zeros(5), laplace, rng) for _ in range(20_000)])
        v_first, v_last = noise[:, 0].var(), noise[:, -1].var()
        assert v_first == pytest.approx(v_last, rel=0.06)

    def test_infinite_sensitivity_rejected(self):
        # the noise record refuses an infinite scale before perturb draws
        with pytest.raises(ValueError, match="finite"):
            perturb(np.zeros(1), calibrate(user_cert(1e308, 1e-10), 1, 1.0, "derived"),
                    derive_rng(0))


class TestPrivateElasticNet:
    """``release`` on the elastic-net objective: the private elastic net."""

    def test_release_scale_matches_hand_value(self):
        # beta = 2/(100*0.1*0.85) = 0.23529..., scale = sqrt(2 beta/(lam gamma)) = 40/17
        noise = calibrate(beta_elastic_net(1.0, 1.0, 100, 0.1, 0.85), 3, 1.0, "verbatim")
        assert noise.sensitivity == pytest.approx(40.0 / 17.0, rel=1e-12)
        assert noise.scale == pytest.approx(2.3529411764705883, rel=1e-12)
        rel = release(elastic_spec(), elastic_fixture(), 1.0, calibration="verbatim",
                      rng=derive_rng(0))
        assert rel.noise.scale == pytest.approx(40.0 / 17.0, rel=1e-12)

    def test_huge_epsilon_recovers_nonprivate_weights(self):
        S, spec = elastic_fixture(), elastic_spec()
        w = solve_erm(spec, S, 1e-8).weights
        rel = release(spec, S, 1e6, calibration="verbatim", rng=derive_rng(3))
        assert rel.noise.scale == pytest.approx(2.3529411764705883e-06, rel=1e-9)
        assert np.max(np.abs(rel.noisy_weights - w)) < 1e-4

    def test_gamma_one_degenerates_to_l2_release(self):
        S, spec = elastic_fixture(), elastic_spec(gamma=1.0, eta=0.0)
        rel = release(spec, S, 1.0, calibration="verbatim", rng=derive_rng(4))
        beta = 2.0 / (S.n * 0.1)
        assert rel.noise.sensitivity == pytest.approx(math.sqrt(2 * beta / 0.1), rel=1e-12)
        # the trained weights under gamma=1, eta=0 equal the lam||w||^2 L2 fit
        w_l2 = solve_erm(ObjectiveSpec("logistic", 0.2, penalty="l2"),
                         S, 1e-8).weights
        rel2 = release(spec, S, 1e9, calibration="verbatim", rng=derive_rng(4))
        assert np.max(np.abs(rel2.noisy_weights - w_l2)) < 1e-6

    def test_derived_mode_applies_sqrt_d_over_sqrt_2(self):
        S, spec = elastic_fixture(), elastic_spec()
        v = release(spec, S, 1.0, calibration="verbatim", rng=derive_rng(0))
        d = release(spec, S, 1.0, calibration="derived", rng=derive_rng(0))
        # verbatim: sqrt(2 beta/(lam gamma)); derived: sqrt(d) * sqrt(2 beta/(2 lam gamma))
        assert d.noise.scale / v.noise.scale == pytest.approx(
            math.sqrt(S.d) / math.sqrt(2.0), rel=1e-12
        )

    def test_kappa_violation_rejected(self):
        S = Dataset(np.array([[3.0, 0.0], [0.0, 1.0]]), np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="kappa"):
            release(elastic_spec(), S, 1.0, calibration="verbatim", rng=derive_rng(0))


def _bounded_mean_release(scale):
    def fn(ds, rng, size):
        return float(np.mean(ds.features)) + laplace_sample(scale, size, rng)
    return fn


class TestPerturb:
    def test_adds_laplace_draws_in_row_major_order(self):
        W = np.arange(6.0).reshape(2, 3)
        out = perturb(W, Noise(0.5), derive_rng(9))
        assert out.shape == W.shape
        assert np.array_equal(out, W + laplace_sample(0.5, 6, derive_rng(9)).reshape(2, 3))
        assert np.array_equal(W, np.arange(6.0).reshape(2, 3))

    def test_zero_scale_copies_and_draws_nothing(self):
        W = np.arange(3.0)
        rng = derive_rng(9)
        out = perturb(W, Noise(0.0), rng)
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

    @pytest.mark.parametrize("epsilon", [math.inf, math.nan, 0.0, -1.0])
    def test_bad_epsilon_rejected(self, epsilon):
        # an infinite epsilon once passed even the half-noise release
        S, Sp = self.datasets()
        with pytest.raises(ValueError, match="epsilon"):
            dp_micro_check(_bounded_mean_release(1 / 40 / 2.0), S, Sp, epsilon=epsilon,
                           samples=1_000, seed=2)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_rejected(self, samples):
        S, Sp = self.datasets()
        with pytest.raises(ValueError, match="samples"):
            dp_micro_check(_bounded_mean_release(1 / 40), S, Sp, epsilon=1.0,
                           samples=samples, seed=2)

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
