import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from stabledp import privacy as privacy_mod
from stabledp.data_io import synth_classification
from stabledp.model import Dataset, ObjectiveSpec, _Stack, as_signed_labels
from stabledp.optimizer import ConvergenceError, solve_erm
from stabledp.privacy import (
    Noise,
    Release,
    calibrate,
    dp_micro_check,
    laplace_sample,
    perturb,
    release,
    wilson_interval,
)
from stabledp.rng import derive_rng, float_key
from stabledp.stability import spec_cert, user_cert

_BLOCK = privacy_mod._DRAW_BLOCK


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

    @pytest.mark.parametrize("count", [-3, 2.5, True, "3", None])
    def test_bad_count_rejected(self, count):
        # numpy's own errors for these never named the count
        with pytest.raises(ValueError, match=r"count must be an integer >= 0, got"):
            laplace_sample(1.0, count, derive_rng(0))

    def test_numpy_integer_count_accepted(self):
        assert laplace_sample(1.0, np.int64(3), derive_rng(0)).tobytes() == \
            laplace_sample(1.0, 3, derive_rng(0)).tobytes()

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

        # the uniforms are drawn block by block: counts B - 1, B, B + 1 and
        # 3B + 5 draw and leave behind the stream of one rng.random(count)
        B = privacy_mod._DRAW_BLOCK
        for count in (0, 1, 7, 100_000, B - 1, B, B + 1, 3 * B + 5):
            for b in (0.4, 1.0):
                ref_rng, rng = derive_rng(5, count), derive_rng(5, count)
                got = laplace_sample(b, count, rng)
                assert got.tobytes() == reference(b, ref_rng.random(count)).tobytes()
                assert rng.bit_generator.state == ref_rng.bit_generator.state
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
        for sensitivity in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="sensitivity"):
                Noise(1.0, sensitivity=sensitivity)

    def test_scale_invariant_enforced(self):
        with pytest.raises(ValueError, match="scale"):
            Noise(0.3, sensitivity=0.4, epsilon=1.0, calibration="derived")

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ValueError):
            Noise(0.0, sensitivity=0.0, epsilon=0.0, calibration="derived")
        # a stated epsilon is checked without a calibration too
        for epsilon in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="epsilon"):
                Noise(1.0, epsilon=epsilon)

    def test_unknown_calibration_rejected(self):
        with pytest.raises(ValueError, match="calibration"):
            Noise(0.4, sensitivity=0.4, epsilon=1.0, calibration="l1")


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
                    cert = spec_cert(elastic_spec(lam=lam, gamma=gamma), n)
                    sens = calibrate(cert, 32, 1.0, "verbatim").sensitivity
                    assert sens == math.sqrt(2.0 * cert.beta / (lam * gamma))

    def test_bad_inputs_rejected(self):
        cert = spec_cert(elastic_spec(), 100)
        for eps in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="epsilon"):
                calibrate(cert, 4, eps, "derived")
        for d in (0, 2.5, True):
            with pytest.raises(ValueError, match="d must be"):
                calibrate(cert, d, 1.0, "derived")
        with pytest.raises(ValueError, match="calibration"):
            calibrate(cert, 4, 1.0, "l1")


def one_split_stack():
    """A 3-class task as one split's stack with its one-vs-rest labels, as the CLI signs it."""
    S, _ = synth_classification(150, 4, classes=3, sparsity=4, noise=0.4, seed=6)
    return _Stack(S.features[None], as_signed_labels(S.labels, np.unique(S.labels))[None])


class TestRelease:
    @pytest.mark.parametrize("calibration", ["verbatim", "derived"])
    def test_is_solve_then_certify_then_calibrate_then_perturb(self, calibration):
        S, spec = elastic_fixture(), elastic_spec()
        (rel,) = release(spec, S, (2.0,), calibration, seed=8)
        noise = calibrate(spec_cert(spec, S.n), S.d, 2.0, calibration)
        w = solve_erm(spec, S, 1e-8).weights
        assert rel.noise == noise and rel.cert == spec_cert(spec, S.n)
        assert rel.report.weights.tobytes() == w.tobytes()
        keys = (8, 0, float_key(spec.lam), float_key(2.0), 0)
        assert rel.noisy_weights.tobytes() == perturb(w, noise, derive_rng(*keys)).tobytes()

    def test_one_split_stack_is_the_grid_recipe_byte_for_byte(self):
        # the CLI grid's recipe before release served it, written out as the reference
        S, spec, epsilons = one_split_stack(), elastic_spec(lam=0.03), (0.5, 1.0, 2.0)
        rels = release(spec, S, epsilons, "verbatim", seed=4, stream=31, tolerance=1e-6,
                       max_iters=50_000)
        report = solve_erm(spec, S, 1e-6, 50_000)
        assert [r.report.weights.shape for r in rels] == [(1, S.d, 3)] * 3
        for eps, rel in zip(epsilons, rels):
            noise = calibrate(spec_cert(spec, S.n), S.d, eps, "verbatim")
            want = perturb(report.weights[0].T, noise,
                           derive_rng(4, 31, float_key(0.03), float_key(eps), 0))
            assert rel.noise == noise
            assert rel.report.weights.tobytes() == report.weights.tobytes()
            assert rel.noisy_weights.shape == report.weights.shape
            assert rel.noisy_weights[0].T.tobytes() == want.tobytes()

    @pytest.mark.parametrize("noise", ["verbatim", "derived", Noise(0.25)],
                             ids=["verbatim", "derived", "fixed"])
    @pytest.mark.parametrize("shape", ["stack", "dataset"])
    def test_grid_is_the_per_lambda_releases_byte_for_byte(self, noise, shape):
        S = one_split_stack() if shape == "stack" else elastic_fixture()
        specs, epsilons = [elastic_spec(lam=lam) for lam in (0.3, 0.001, 0.03)], (0.5, 2.0)
        grid = release(specs, S, epsilons, noise, seed=4, stream=31, tolerance=1e-6)
        assert len(grid) == len(specs)
        for spec, rels in zip(specs, grid):
            lone = release(spec, S, epsilons, noise, seed=4, stream=31, tolerance=1e-6)
            assert len(rels) == len(epsilons)
            for rel, ref in zip(rels, lone):
                assert rel.noisy_weights.tobytes() == ref.noisy_weights.tobytes()
                assert rel.noisy_weights.shape == ref.noisy_weights.shape
                assert rel.report.weights.tobytes() == ref.report.weights.tobytes()
                assert rel.report.final_gradient_norm == ref.report.final_gradient_norm
                assert rel.noise == ref.noise and rel.cert == ref.cert

    def test_grid_certified_before_its_one_solve(self, monkeypatch):
        solves = []
        monkeypatch.setattr(privacy_mod, "solve_erm",
                            lambda *a, **k: solves.append(a) or solve_erm(*a, **k))
        S = one_split_stack()
        # the verbatim recipe is stated for elastic-net certificates alone
        l2 = ObjectiveSpec("logistic", 0.1, penalty="l2")
        with pytest.raises(ValueError, match="verbatim calibration"):
            release([elastic_spec(), l2], S, (1.0,), "verbatim", seed=0)
        with pytest.raises(ValueError, match="kappa"):
            release([elastic_spec(), elastic_spec(kappa=0.5, lipschitz_L=0.5)], S, (1.0,),
                    "derived", seed=0)
        with pytest.raises(ValueError, match="loss_kind"):
            release([elastic_spec(), ObjectiveSpec("squared", 0.1, lipschitz_L=1.0)], S,
                    (1.0,), Noise(0.25), seed=0)
        assert solves == []
        release([elastic_spec(), l2], S, (1.0, 2.0), "derived", seed=0)
        assert len(solves) == 1

    def test_fixed_noise_serves_every_epsilon(self):
        S, spec, noise = one_split_stack(), elastic_spec(), Noise(0.25)
        rels = release(spec, S, (1.0, 4.0), noise, seed=2)
        assert all(isinstance(r, Release) for r in rels)
        assert [r.noise for r in rels] == [noise, noise]
        assert not np.array_equal(rels[0].noisy_weights, rels[1].noisy_weights)
        (none,) = release(spec, S, (1.0,), Noise(0.0), seed=2)
        assert none.noisy_weights.tobytes() == none.report.weights.tobytes()
        with pytest.raises(dataclasses.FrozenInstanceError):
            none.noise = noise

    def test_kappa_premise_checked_on_a_stack_before_any_solve(self, monkeypatch):
        S = one_split_stack()
        X = S.features.copy()
        X[0, 7] *= 3.0 / np.linalg.norm(X[0, 7])
        monkeypatch.setattr(privacy_mod, "solve_erm", lambda *a, **k: pytest.fail("solved"))
        for noise in ("verbatim", Noise(0.25)):
            with pytest.raises(ValueError, match="kappa"):
                release(elastic_spec(), _Stack(X, S.labels), (1.0,), noise, seed=0)

    @pytest.mark.parametrize("noise", [Noise(0.25), "verbatim"], ids=["fixed", "verbatim"])
    @pytest.mark.parametrize("epsilons", [(), (0.0,), (1.0, -1.0), (math.nan,)],
                             ids=["empty", "zero", "negative", "nan"])
    def test_epsilons_checked_before_the_solve(self, monkeypatch, noise, epsilons):
        # an epsilon a release would state must be one it can back up
        monkeypatch.setattr(privacy_mod, "solve_erm", lambda *a, **k: pytest.fail("solved"))
        with pytest.raises(ValueError, match="epsilon"):
            release(elastic_spec(), elastic_fixture(), epsilons, noise, seed=0)

    def test_l2_spec_releases_with_the_derived_calibration(self):
        S = elastic_fixture()
        spec = ObjectiveSpec("logistic", 0.1, penalty="l2")
        (rel,) = release(spec, S, (1.0,), "derived", seed=0)
        # beta = 2 / (100 * 0.1) with lambda_sc = 0.1: L2 bound 2, L1 bound 2 sqrt(d)
        assert rel.noise.scale == pytest.approx(2.0 * math.sqrt(S.d), rel=1e-12)

    def test_convergence_error_propagates(self):
        with pytest.raises(ConvergenceError):
            release(elastic_spec(), elastic_fixture(), (1.0,), "verbatim", seed=0, max_iters=1)


class TestOutputPerturb:
    """Output perturbation: a certificate's calibrated scale, applied by ``perturb``."""

    def test_zero_sensitivity_returns_exact_weights(self):
        w = np.array([0.5, -0.25])
        noise = calibrate(user_cert(0.0, 1.0), 2, 1.0, "derived")
        np.testing.assert_array_equal(perturb(w, noise, derive_rng(0)), w)
        assert noise.sensitivity == noise.scale == 0.0

    def test_l1_calibration_default_and_verbatim(self):
        # sqrt(2 beta / lambda_sc) = 2, so L1 = 4 in d = 4
        cert = spec_cert(ObjectiveSpec("logistic", 0.1), 100)
        noise = calibrate(cert, 4, 2.0, "derived")
        assert (noise.sensitivity, noise.scale) == (pytest.approx(4.0), pytest.approx(2.0))
        # verbatim is stated for the elastic-net constant and nothing else
        for other in (cert, user_cert(0.2, 0.1)):
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
        (r1,) = release(spec, S, (2.0,), "derived", seed=7)
        (r2,) = release(spec, S, (2.0,), "derived", seed=7)
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
        noise = calibrate(spec_cert(elastic_spec(), 100), 3, 1.0, "verbatim")
        assert noise.sensitivity == pytest.approx(40.0 / 17.0, rel=1e-12)
        assert noise.scale == pytest.approx(2.3529411764705883, rel=1e-12)
        (rel,) = release(elastic_spec(), elastic_fixture(), (1.0,), "verbatim", seed=0)
        assert rel.noise.scale == pytest.approx(40.0 / 17.0, rel=1e-12)

    def test_huge_epsilon_recovers_nonprivate_weights(self):
        S, spec = elastic_fixture(), elastic_spec()
        w = solve_erm(spec, S, 1e-8).weights
        (rel,) = release(spec, S, (1e6,), "verbatim", seed=3)
        assert rel.noise.scale == pytest.approx(2.3529411764705883e-06, rel=1e-9)
        assert np.max(np.abs(rel.noisy_weights - w)) < 1e-4

    def test_gamma_one_degenerates_to_l2_release(self):
        S, spec = elastic_fixture(), elastic_spec(gamma=1.0, eta=0.0)
        (rel,) = release(spec, S, (1.0,), "verbatim", seed=4)
        beta = 2.0 / (S.n * 0.1)
        assert rel.noise.sensitivity == pytest.approx(math.sqrt(2 * beta / 0.1), rel=1e-12)
        # the trained weights under gamma=1, eta=0 equal the lam||w||^2 L2 fit
        w_l2 = solve_erm(ObjectiveSpec("logistic", 0.2, penalty="l2"),
                         S, 1e-8).weights
        (rel2,) = release(spec, S, (1e9,), "verbatim", seed=4)
        assert np.max(np.abs(rel2.noisy_weights - w_l2)) < 1e-6

    def test_derived_mode_applies_sqrt_d_over_sqrt_2(self):
        S, spec = elastic_fixture(), elastic_spec()
        (v,) = release(spec, S, (1.0,), "verbatim", seed=0)
        (d,) = release(spec, S, (1.0,), "derived", seed=0)
        # verbatim: sqrt(2 beta/(lam gamma)); derived: sqrt(d) * sqrt(2 beta/(2 lam gamma))
        assert d.noise.scale / v.noise.scale == pytest.approx(
            math.sqrt(S.d) / math.sqrt(2.0), rel=1e-12
        )

    def test_kappa_violation_rejected(self):
        S = Dataset(np.array([[3.0, 0.0], [0.0, 1.0]]), np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="kappa"):
            release(elastic_spec(), S, (1.0,), "verbatim", seed=0)


def _bounded_mean_release(scale, ds):
    """The sampler of ds's feature mean plus Laplace(scale) noise."""
    mean = float(np.mean(ds.features))
    return lambda rng, size: mean + laplace_sample(scale, size, rng)


def _perturbed_mean_release(scale, ds):
    """The same release as :func:`_bounded_mean_release`, drawn by ``perturb``."""
    mean = float(np.mean(ds.features))
    return lambda rng, size: perturb(np.broadcast_to(mean, size), Noise(scale), rng)


def _pair(release, scale, S, Sp):
    """``release``'s samplers at ``scale`` on S and on Sp."""
    return release(scale, S), release(scale, Sp)


def _one_call_counts(release_S, release_Sp, samples, seed):
    """Each sampler's bin counts from one ``samples``-sized call, on the pilots' window."""
    # the window comes from one pilot value per 64 samples, on streams of its own
    pilot = -(-samples // 64)
    sub = np.concatenate([release_S(derive_rng(seed, 103), pilot),
                          release_Sp(derive_rng(seed, 204), pilot)])
    center = np.median(sub)
    scale = np.mean(np.abs(sub - center))
    edges = np.linspace(center - 4 * scale, center + 4 * scale, 21)
    return [np.histogram(fn(derive_rng(seed, key), samples), edges)[0].tolist()
            for fn, key in ((release_S, 101), (release_Sp, 202))]


def _bin_counts(rep):
    table = rep.details["bin_table"]
    return [[row["count_a"] for row in table], [row["count_b"] for row in table]]


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
        rep = dp_micro_check(*_pair(_bounded_mean_release, 0.025, S, S), epsilon=1.0,
                             samples=200_000, seed=0)
        assert rep.empirical_value < 1.1
        assert rep.passed

    def test_calibrated_release_passes(self):
        S, Sp = self.datasets()
        rep = dp_micro_check(*_pair(_bounded_mean_release, 1 / 40 / 1.0, S, Sp),
                             epsilon=1.0, samples=400_000, seed=1)
        assert rep.passed, rep.summary()

    def test_half_noise_negative_control_fails(self):
        S, Sp = self.datasets()
        rep = dp_micro_check(*_pair(_bounded_mean_release, 1 / 40 / 2.0, S, Sp),
                             epsilon=1.0, samples=400_000, seed=2)
        assert not rep.passed, rep.summary()
        assert rep.details["confident_violations"] >= 1

    @pytest.mark.parametrize("epsilon", [math.inf, math.nan, 0.0, -1.0])
    def test_bad_epsilon_rejected(self, epsilon):
        # an infinite epsilon once passed even the half-noise release
        S, Sp = self.datasets()
        with pytest.raises(ValueError, match="epsilon"):
            dp_micro_check(*_pair(_bounded_mean_release, 1 / 40 / 2.0, S, Sp),
                           epsilon=epsilon, samples=1_000, seed=2)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_rejected(self, samples):
        S, Sp = self.datasets()
        with pytest.raises(ValueError, match="samples"):
            dp_micro_check(*_pair(_bounded_mean_release, 1 / 40, S, Sp), epsilon=1.0,
                           samples=samples, seed=2)

    def test_low_sample_bins_inconclusive_not_failed(self):
        S, Sp = self.datasets()
        rep = dp_micro_check(*_pair(_bounded_mean_release, 0.025, S, Sp), epsilon=1.0,
                             samples=100, seed=3)
        assert rep.details["bins_inconclusive"] > 0

    @pytest.mark.parametrize("release, samples", [
        ("laplace", 200_001), ("laplace", 1_000), ("discrete", 50_000),
        ("shifted", 20_000), ("shifted", 200_001)])
    def test_bins_span_the_window_of_every_64th_value(self, release, samples):
        S, Sp = self.datasets()
        seed, pilot = 4, -(-samples // 64)

        def shaped(laplace):
            def sample(rng, size):
                r = laplace(rng, size)
                if release == "shifted" and size == pilot:
                    return r + 0.05  # the pilots only, two noise scales up: the window follows
                return np.round(r * 20) / 20 if release == "discrete" else r  # many ties
            return sample

        samplers = [shaped(laplace) for laplace in _pair(_bounded_mean_release, 1 / 40, S, Sp)]
        rep = dp_micro_check(*samplers, epsilon=1.0, samples=samples, seed=seed)
        assert _bin_counts(rep) == _one_call_counts(*samplers, samples, seed)

    @pytest.mark.parametrize("samples", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 17])
    @pytest.mark.parametrize("release", [_bounded_mean_release, _perturbed_mean_release],
                             ids=["bounded_mean", "perturb"])
    def test_blocks_count_as_one_call(self, release, samples):
        # each sampler's release is drawn in blocks from its one generator,
        # and the blocks' counts are those of one samples-sized call
        S, Sp = self.datasets()
        samplers, sizes = _pair(release, 1 / 40, S, Sp), []

        def recording(sample):
            def recorded(rng, size):
                sizes.append(size)
                return sample(rng, size)
            return recorded

        rep = dp_micro_check(*map(recording, samplers), epsilon=1.0, samples=samples, seed=6)
        assert _bin_counts(rep) == _one_call_counts(*samplers, samples, 6)
        blocks = [min(_BLOCK, samples - start) for start in range(0, samples, _BLOCK)]
        assert sizes == [-(-samples // 64)] * 2 + blocks * 2

    def test_constant_release_gets_the_floor_width(self, monkeypatch):
        # a zero mean absolute deviation means every value sits on the centre
        S, Sp = self.datasets()
        seen, linspace = [], np.linspace
        monkeypatch.setattr(np, "linspace",
                            lambda *args: seen.append(linspace(*args)) or seen[-1])
        def constant(rng, size):
            return np.full(size, 0.5)

        rep = dp_micro_check(constant, constant, epsilon=1.0, samples=1_000, seed=0)
        monkeypatch.undo()
        assert len(seen) == 1
        assert np.array_equal(seen[0], np.linspace(0.5 - 4e-12, 0.5 + 4e-12, 21))
        assert [row["count_a"] for row in rep.details["bin_table"]].count(1_000) == 1
        assert rep.passed and rep.empirical_value == 1.0

    @pytest.mark.parametrize("samples", [1, 60])
    def test_fewer_samples_than_the_stride(self, samples):
        S, Sp = self.datasets()
        rep = dp_micro_check(*_pair(_bounded_mean_release, 1 / 40, S, Sp), epsilon=1.0,
                             samples=samples, seed=5)
        assert rep.trials == samples and len(rep.details["bin_table"]) == 20
        assert rep.details["bins_inconclusive"] == 20 and not rep.passed


class TestDpMicroCheckGuards:
    """Both pilots are checked before the window is placed, and each full
    release before it is binned."""

    # the sides in dp_micro_check's argument order
    SIDES = ("S", "S_neighbor")

    def datasets(self):
        return TestDpMicroCheck().datasets()

    @pytest.mark.parametrize("bad, match", [
        # samples=100 gives 2-value pilots, checked first; index 7 is in the full release only
        (lambda r: r[: r.size // 2], r"size=2 values, got shape \(1,\)"),  # once a ratio of 5.9
        (lambda r: r[:, None], r"shape \(2, 1\)"),
        (lambda r: np.where(np.arange(r.size) == 7, np.nan, r), "1 non-finite"),
        (lambda r: np.where(np.arange(r.size) < 2, -np.inf, r), "2 non-finite"),
    ], ids=["half_length", "two_d", "nan", "inf"])
    @pytest.mark.parametrize("side", SIDES)
    def test_bad_release_rejected(self, bad, match, side):
        S, Sp = self.datasets()
        samplers = list(_pair(_bounded_mean_release, 1 / 40, S, Sp))
        i = self.SIDES.index(side)
        good = samplers[i]
        samplers[i] = lambda rng, size: bad(good(rng, size))

        with pytest.raises(ValueError, match=rf"release_{side} must .*{match}"):
            dp_micro_check(*samplers, epsilon=1.0, samples=100, seed=0)

    @pytest.mark.parametrize("bad, match", [
        (lambda r: r[:-1], r"size=10 values, got shape \(9,\)"),
        (lambda r: np.where(np.arange(r.size) == 3, np.nan, r), "1 non-finite"),
    ], ids=["short", "nan"])
    @pytest.mark.parametrize("side", SIDES)
    def test_bad_second_block_rejected(self, bad, match, side):
        # every block is checked: at one block plus 10 samples only the
        # second, 10-value block of a release is bad
        S, Sp = self.datasets()
        samplers = list(_pair(_bounded_mean_release, 1 / 40, S, Sp))
        i = self.SIDES.index(side)
        good = samplers[i]

        def release(rng, size):
            r = good(rng, size)
            return bad(r) if size == 10 else r

        samplers[i] = release
        with pytest.raises(ValueError, match=rf"release_{side} must .*{match}"):
            dp_micro_check(*samplers, epsilon=1.0, samples=_BLOCK + 10, seed=0)


def _traced_check(samples):
    """A calibrated ``perturb`` release's check at ``samples``, and its
    tracemalloc (current, peak) bytes."""
    S, Sp = TestDpMicroCheck().datasets()
    tracemalloc.start()
    try:
        rep = dp_micro_check(*_pair(_perturbed_mean_release, 1 / 40, S, Sp), epsilon=1.0,
                             samples=samples, seed=0)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.passed, rep.summary()
    return current, peak


def test_one_million_sample_check_holds_each_release_once():
    # tracemalloc sees numpy's buffers; each release is drawn, binned and freed
    # one 128 KiB block at a time, and the pilots (31 250 values) set the rest.
    # Holding one full release (7.6 MiB) read 9.8 MiB here, both 17.5 MiB, and
    # pooling them into one more array, with perturb's W + noise, 35.3 MiB.
    current, peak = _traced_check(1_000_000)
    assert peak < 3 * 2**20, peak / 2**20
    # nothing outlives the call: a reference cycle once kept both releases alive
    # until the garbage collector ran, and a verify run's RSS grew 16 MB a check
    assert current < 2**20, current / 2**20


def test_four_million_sample_check_holds_one_block_at_a_time():
    # what the check holds follows the pilot (samples / 64), not the sample
    # count: one full release at a time read 36.2 MiB here
    current, peak = _traced_check(4_000_000)
    assert peak < 6 * 2**20, peak / 2**20
    assert current < 2**20, current / 2**20


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
