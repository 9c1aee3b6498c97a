import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from stabledp import verify
from stabledp.data_io import synth_classification
from stabledp.features import lemma_noise
from stabledp.model import (
    Dataset,
    ObjectiveSpec,
    _loss_values,
    _stack,
    _Stack,
    gradient,
    per_example_grad,
    per_example_loss,
    smooth_objective,
)
from stabledp.optimizer import ConvergenceError, SgdConfig, sgd_run, solve_erm
from stabledp.privacy import OracleReport
from stabledp.rng import derive_rng
from stabledp.stability import spec_cert
from stabledp.verify import (
    _fresh_rows,
    empirical_privacy_error,
    empirical_sensitivity,
    empirical_sgd_stability,
    empirical_stability,
    flip_rate_check,
    gradient_check,
    privacy_error_scaling,
)


def fixture(n=50, d=5, lam=0.5, seed=5):
    S, _ = synth_classification(n, d, classes=2, sparsity=d, noise=0.5, seed=seed)
    return ObjectiveSpec("logistic", lam, penalty="l2", kappa=1.0), S


def fresh_record(spec, d, rng):
    """One fresh record drawn alone, for the scalar reference loops."""
    (x,), (y,) = _fresh_rows(spec, d, 1, rng)
    return x, y


def neighbor(spec, S, rng):
    """One neighbour drawn alone, for the reference loops: an index, then a fresh record."""
    i = int(rng.integers(S.n))
    return S.replace_record(i, *fresh_record(spec, S.d, rng))


def record_loop(spec, d, k, rng):
    """The record-at-a-time sampler that ``_fresh_rows`` must reproduce bit for bit."""
    rows = []
    for _ in range(k):
        v = rng.standard_normal(d)
        radius = spec.kappa * rng.random() ** (1.0 / d)
        x = v * (radius / max(float(np.linalg.norm(v)), 1e-300))
        rows.append((x, (-1.0, 1.0)[rng.integers(2)]))
    return np.array([x for x, _ in rows]).reshape(k, d), np.array([y for _, y in rows])


class TestFreshRows:
    # recorded when the label was drawn by rng.choice((-1.0, 1.0)); the
    # oracles' neighbours and probes all come from this stream
    PINNED = [
        ([0.750017664263499, 0.36373071438321813, 0.026535692932377654,
          -0.4243996719532083, -0.16269121819537788], 1.0),
        ([0.2205951404236716, 0.16307718831560022, -0.06566489155620732,
          -0.6901780585586285, 0.2590308736108735], 1.0),
        ([-0.28750440279191, 0.04685110251471966, 0.10330096466077383,
          0.4064522037146865, 0.6765447264916719], -1.0),
        ([0.4265772555155679, 0.33464634012461103, -0.048266832604432694,
          -0.5142105311432495, 0.5175031310267435], -1.0),
    ]
    SPEC = ObjectiveSpec("logistic", 0.2)

    def test_draws_pinned(self):
        rng = derive_rng(0, 26)
        X, y = _fresh_rows(self.SPEC, 5, 4, rng)
        assert X.shape == (4, 5) and y.shape == (4,)
        for x, label, (x_ref, y_ref) in zip(X, y, self.PINNED):
            assert x.tolist() == pytest.approx(x_ref, rel=1e-15, abs=0)
            assert label == y_ref
        # and the stream is left where the record-at-a-time draw left it
        assert rng.random() == 0.9946670155919738

        # one block and four one-record blocks draw the same stream
        rng = derive_rng(0, 26)
        singles = [_fresh_rows(self.SPEC, 5, 1, rng) for _ in range(4)]
        assert np.concatenate([x for x, _ in singles]).tobytes() == X.tobytes()
        assert np.concatenate([y for _, y in singles]).tobytes() == y.tobytes()
        assert rng.random() == 0.9946670155919738

    @pytest.mark.parametrize("d", [1, 32])
    @pytest.mark.parametrize("k", [0, 1, 3, 7, 50])
    def test_matches_record_loop(self, d, k):
        spec = ObjectiveSpec("logistic", 0.2, kappa=0.7)
        rng, ref_rng = derive_rng(3, d, k), derive_rng(3, d, k)
        X, y = _fresh_rows(spec, d, k, rng)
        X_ref, y_ref = record_loop(spec, d, k, ref_rng)
        assert X.shape == X_ref.shape and X.dtype == X_ref.dtype == np.float64
        assert y.shape == y_ref.shape and y.dtype == y_ref.dtype == np.float64
        assert X.tobytes() == X_ref.tobytes() and y.tobytes() == y_ref.tobytes()
        # the whole state, so PCG64's cached upper half-word is compared too:
        # after an odd number of labels it holds the next label's word
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("labels", [999, 1000])
    def test_bit_generator_words_are_the_generator_draws(self, labels):
        # _fresh_rows takes its radius uniforms and labels from the bit
        # generator's ctypes interface; that keeps every oracle stream only
        # while these two equivalences hold, interleaved with normals
        rng, ref_rng = derive_rng(8, labels), derive_rng(8, labels)
        bits = rng.bit_generator.ctypes
        v, v_ref = np.empty(3), np.empty(3)
        for i in range(labels):
            rng.standard_normal(out=v)
            ref_rng.standard_normal(out=v_ref)
            assert v.tobytes() == v_ref.tobytes()
            u, u_ref = bits.next_double(bits.state), ref_rng.random()
            assert u == u_ref, (
                f"draw {i}: next_double gave {u!r}, rng.random() {u_ref!r}; this numpy "
                "changed rng.random(), so _fresh_rows would move every oracle stream")
            label, label_ref = bits.next_uint32(bits.state) >> 31, int(ref_rng.integers(2))
            assert label == label_ref, (
                f"draw {i}: next_uint32 >> 31 gave {label}, rng.integers(2) {label_ref}; "
                "this numpy changed rng.integers(2), so _fresh_rows would move every "
                "oracle stream")
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_rows_in_ball_labels_pm1(self):
        spec = ObjectiveSpec("logistic", 0.2, kappa=0.7)
        X, y = _fresh_rows(spec, 32, 500, derive_rng(4))
        assert np.all(np.linalg.norm(X, axis=1) <= 0.7 * (1 + 1e-15))
        assert set(np.unique(y)) == {-1.0, 1.0}


def run_oracle(oracle, specs, S, trials=4, probes=3, seed=0):
    """The reports of the named grid oracle at small counts."""
    if oracle == "sensitivity":
        return empirical_sensitivity(specs, S, trials=trials, seed=seed)
    return empirical_stability(specs, S, trials=trials, probes=probes, seed=seed)


def count_fresh_rows(monkeypatch):
    """Patch ``verify._write_records``, the writer every fresh record goes through,
    to count its calls; returns the one-item counter."""
    calls, write = [0], verify._write_records

    def counted(*args):
        calls[0] += 1
        return write(*args)

    monkeypatch.setattr(verify, "_write_records", counted)
    return calls


GRID_ORACLES = ["sensitivity", "stability"]
# a lambda grid out of order
GRID_LAMBDAS = (2.0, 0.1, 0.5)


class TestGridDraw:
    """A grid oracle draws once per call and scores every spec of its grid on that draw."""

    @pytest.mark.parametrize("oracle", GRID_ORACLES)
    def test_each_report_equals_its_lone_call(self, oracle):
        spec, S = fixture()
        specs = [replace(spec, lam=lam) for lam in GRID_LAMBDAS]
        reports = [rep.to_dict() for rep in run_oracle(oracle, specs, S)]
        assert len({rep["bound_value"] for rep in reports}) == 3
        assert reports == [run_oracle(oracle, [spec], S)[0].to_dict() for spec in specs]

    @pytest.mark.parametrize("oracle", GRID_ORACLES)
    def test_grid_draws_as_often_as_one_spec(self, monkeypatch, oracle):
        spec, S = fixture()
        calls = count_fresh_rows(monkeypatch)
        run_oracle(oracle, [spec], S)
        one, calls[0] = calls[0], 0
        run_oracle(oracle, [replace(spec, lam=lam) for lam in GRID_LAMBDAS], S)
        assert calls[0] == one > 0


class TestGridInputs:
    """A grid oracle checks its grid, by name, before it draws anything."""

    @staticmethod
    def refused(monkeypatch, oracle, specs, S, match):
        calls = count_fresh_rows(monkeypatch)
        with pytest.raises(ValueError, match=match):
            run_oracle(oracle, specs, S)
        assert calls[0] == 0

    @pytest.mark.parametrize("oracle", GRID_ORACLES)
    def test_empty_grid(self, monkeypatch, oracle):
        _, S = fixture()
        self.refused(monkeypatch, oracle, [], S, r"specs must be a non-empty sequence")

    @pytest.mark.parametrize("oracle", GRID_ORACLES)
    def test_kappas_differ(self, monkeypatch, oracle):
        spec, S = fixture()
        self.refused(monkeypatch, oracle, [spec, replace(spec, kappa=0.5)], S,
                     r"the specs' kappas must be equal, as the draw reads kappa, got \(1.0, 0.5\)")


class TestNeighbors:
    """``_neighbors`` writes the one-at-a-time draw of S's neighbours into one stack."""

    @pytest.mark.parametrize("in_sample, fresh", [(0, 0), (7, 0), (0, 5), (7, 5), (80, 3)])
    def test_equals_the_one_at_a_time_draw(self, in_sample, fresh):
        spec, S = fixture()
        trials = 6
        rng, ref = derive_rng(3, 22), derive_rng(3, 22)
        block, idx, X, y = verify._neighbors(spec, S, trials, rng, in_sample, fresh)
        k = min(in_sample, S.n)
        assert block.features.shape == (trials + 1, S.n, S.d)
        assert block.labels.shape == (trials + 1, S.n, 1)
        assert idx.shape == (trials, k) and X.shape == (trials, fresh, S.d)
        assert y.shape == (trials, fresh)
        assert block.features[0].tobytes() == S.features.tobytes()
        assert block.labels[0, :, 0].tobytes() == S.labels.tobytes()
        for t in range(trials):
            # the reference: each neighbour by replace_record, then its probes
            Sp = neighbor(spec, S, ref)
            assert block.features[t + 1].tobytes() == Sp.features.tobytes()
            assert block.labels[t + 1, :, 0].tobytes() == Sp.labels.tobytes()
            if in_sample:
                assert idx[t].tolist() == ref.choice(S.n, size=k, replace=False).tolist()
            for x_t, y_t in zip(X[t], y[t]):
                x_ref, y_ref = fresh_record(spec, S.d, ref)
                assert x_t.tobytes() == x_ref.tobytes() and y_t == y_ref
        assert rng.bit_generator.state == ref.bit_generator.state


class TestKappaPremise:
    """Every bound assumes rows within kappa: an oracle refuses an S that breaks it,
    with ``release``'s message, before it draws or solves anything."""

    ORACLES = {
        "sensitivity": lambda specs, S: empirical_sensitivity(specs, S, trials=50),
        "stability": lambda specs, S: empirical_stability(specs, S, trials=50),
        "sgd_stability": lambda specs, S: empirical_sgd_stability(
            specs[0], S, SgdConfig(steps_T=10, step_size=0.1, batch_size_b=5), trials=50),
    }

    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    def test_rows_above_kappa_refused(self, monkeypatch, oracle):
        # the verify fixture, rows at norm 1, against kappa 0.1
        S, _ = synth_classification(50, 5, classes=2, sparsity=5, noise=0.3, seed=5)
        specs = [ObjectiveSpec("logistic", lam, penalty="l2", kappa=0.1) for lam in (0.1, 0.5)]
        for name in ("solve_erm", "sgd_run", "_write_records"):
            monkeypatch.setattr(verify, name, lambda *a, **k: pytest.fail("drew or solved"))
        with pytest.raises(ValueError, match=r"feature rows violate the kappa bound: "
                                             r"max norm 1 > kappa=0.1"):
            self.ORACLES[oracle](specs, S)

    def test_rows_a_rounding_above_kappa_accepted(self):
        # the verify fixture's largest row has norm 1.0000000000000002
        spec, _ = fixture()
        S, _ = synth_classification(50, 5, classes=2, sparsity=5, noise=0.3, seed=5)
        assert S.max_row_norm() > spec.kappa
        block, *_ = verify._neighbors(spec, S, 1, derive_rng(0))
        assert block.features.shape == (2, S.n, S.d)


class TestEmpiricalSensitivity:
    def test_bound_respected_on_fixture(self):
        spec, S = fixture()
        rep = empirical_sensitivity([spec], S, trials=60, seed=0)[0]
        assert rep.passed
        assert rep.details["solver_failures"] == 0
        # 2 L / (n lambda_sc), with L = kappa = 1 and lambda_sc = lam
        assert rep.details["direct_bound"] == pytest.approx(2.0 / (50 * 0.5))

    def test_huge_lam_everything_near_zero(self):
        spec, S = fixture(lam=1e6)
        rep = empirical_sensitivity([spec], S, trials=20, seed=1)[0]
        assert rep.empirical_value < 1e-6
        assert rep.bound_value < 1e-5
        assert rep.passed

    def test_reproducible(self):
        spec, S = fixture()
        a = empirical_sensitivity([spec], S, trials=15, seed=3)[0]
        b = empirical_sensitivity([spec], S, trials=15, seed=3)[0]
        assert a.empirical_value == b.empirical_value

    def test_elastic_spec_checks_direct_bound(self):
        # the replace-one argument does not use the penalty, so the elastic
        # net is held to 2 L / (n lambda_sc) too, with lambda_sc = 2 lam gamma
        S, _ = synth_classification(40, 4, classes=2, sparsity=4, noise=0.5, seed=6)
        spec = ObjectiveSpec("logistic", 0.5, penalty="elastic", gamma=0.85)
        rep = empirical_sensitivity([spec], S, trials=15, seed=0)[0]
        assert rep.details["direct_bound"] == pytest.approx(2.0 / (40 * 2 * 0.5 * 0.85))
        assert rep.bound_value == min(rep.details["direct_bound"],
                                      rep.details["strong_convexity_bound"])
        assert rep.passed

    @pytest.mark.parametrize("penalty", ["l2", "elastic"])
    @pytest.mark.parametrize("lam", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("kappa", [1.0, 0.25, 0.1, 0.05, 0.02])
    def test_direct_bound_holds_at_small_kappa(self, kappa, lam, penalty):
        # the verify fixture's data in the kappa-ball; with L = kappa the
        # bound is linear in kappa, and below kappa = 1/2 a correct solver's
        # sampled sensitivity exceeds any bound that shrinks like kappa^2.
        # The verdict takes the smaller bound, so below kappa = 1/sqrt(n)
        # it checks sqrt(2 beta / lambda_sc) too, which a beta counting
        # kappa twice (2 kappa^4 / (n lam) for L2) drove below the direct one
        S, _ = synth_classification(50, 5, classes=2, sparsity=5, noise=0.3, seed=5,
                                    kappa=kappa)
        spec = ObjectiveSpec("logistic", lam, penalty=penalty, kappa=kappa)
        rep = empirical_sensitivity([spec], S, trials=40, seed=0)[0]
        assert rep.passed, rep.details
        lam_sc = lam if penalty == "l2" else 2 * lam * spec.gamma
        assert rep.details["direct_bound"] == pytest.approx(2 * kappa / (50 * lam_sc),
                                                            rel=1e-15)


class TestEmpiricalStability:
    def test_bound_respected_on_fixture(self):
        spec, S = fixture()
        rep = empirical_stability([spec], S, trials=30, probes=20, seed=0)[0]
        assert rep.passed
        assert rep.bound_value == pytest.approx(2.0 / (50 * 0.5))
        assert {"in_sample_max", "fresh_point_max"} <= rep.details.keys()

    @staticmethod
    def small_kappa_report(kappa, lam, penalty):
        """The stability report on the verify fixture's data in the kappa-ball."""
        S, _ = synth_classification(50, 5, classes=2, sparsity=5, noise=0.3, seed=5,
                                    kappa=kappa)
        spec = ObjectiveSpec("logistic", lam, penalty=penalty, gamma=0.85, kappa=kappa)
        return empirical_stability([spec], S, trials=100, probes=50, seed=0)[0]

    @pytest.mark.parametrize("lam", [0.1, 0.5])
    @pytest.mark.parametrize("kappa", [0.25, 0.1])
    def test_l2_beta_holds_at_small_kappa(self, kappa, lam):
        # beta = 2 L^2 / (n lambda_sc) with L = kappa; the sampled gap read 3 to
        # 22 times the 2 L^2 kappa^2 / (n lam) that counted kappa twice
        rep = self.small_kappa_report(kappa, lam, "l2")
        assert rep.passed, rep.details
        assert rep.bound_value == pytest.approx(2 * kappa ** 2 / (50 * lam), rel=1e-15)

    @pytest.mark.xfail(strict=True, reason=(
        "the elastic recipe 2 L^2 kappa / (n lam gamma) counts kappa twice and reads "
        "1.045 of beta here; it waits for bench/checks.closed_form to pin "
        "2 L^2 / (n lambda_sc) as the elastic beta column"))
    def test_elastic_beta_holds_at_small_kappa(self):
        rep = self.small_kappa_report(0.1, 0.1, "elastic")
        assert rep.passed, rep.details

    def test_identical_datasets_zero_difference(self):
        spec, S = fixture()
        w1 = solve_erm(spec, S, 1e-9).weights
        w2 = solve_erm(spec, S, 1e-9).weights
        diffs = [abs(per_example_loss(spec, w1, S.features[i], S.labels[i])
                     - per_example_loss(spec, w2, S.features[i], S.labels[i]))
                 for i in range(S.n)]
        assert max(diffs) == 0.0

    def test_one_over_n_scaling(self):
        spec, S_small = fixture(n=40, seed=11)
        _, S_big = fixture(n=80, seed=11)
        small = empirical_stability([spec], S_small, trials=40, probes=20, seed=2)[0]
        big = empirical_stability([spec], S_big, trials=40, probes=20, seed=2)[0]
        ratio = big.empirical_value / small.empirical_value
        assert 0.3 <= ratio <= 0.8


class TestBatchedProbesMatchScalarLoop:
    """The oracles score probes in one batch; scalar per_example_loss is the reference."""

    SPECS = [ObjectiveSpec(kind, 0.5, penalty="l2", kappa=1.0, lipschitz_L=1.0)
             for kind in ("logistic", "squared")]

    @staticmethod
    def gap(spec, w_a, w_b, x, y):
        return abs(per_example_loss(spec, w_a, x, y) - per_example_loss(spec, w_b, x, y))

    @pytest.mark.parametrize("spec", SPECS, ids=["logistic", "squared"])
    def test_stability(self, spec):
        _, S = fixture()
        trials, probes, seed = 5, 7, 4
        rng = derive_rng(seed, 22)
        base = solve_erm(spec, S, 1e-9).weights
        worst_in = worst_fresh = 0.0
        for _ in range(trials):
            other = solve_erm(spec, neighbor(spec, S, rng), 1e-9).weights
            for i in rng.choice(S.n, size=min(probes, S.n), replace=False):
                worst_in = max(worst_in, self.gap(spec, base, other, S.features[i],
                                                  float(S.labels[i])))
            for _ in range(probes):
                worst_fresh = max(worst_fresh,
                                  self.gap(spec, base, other, *fresh_record(spec, S.d, rng)))
        rep = empirical_stability([spec], S, trials=trials, probes=probes, seed=seed)[0]
        assert worst_in > 0 and worst_fresh > 0
        assert rep.details["in_sample_max"] == pytest.approx(worst_in, rel=1e-12)
        assert rep.details["fresh_point_max"] == pytest.approx(worst_fresh, rel=1e-12)

    # random neighbours, the only kind the oracle samples
    @pytest.mark.parametrize("spec", SPECS, ids=["logistic-random", "squared-random"])
    def test_sensitivity(self, spec):
        _, S = fixture()
        trials, seed = 6, 4
        rng = derive_rng(seed, 21)
        base = solve_erm(spec, S, 1e-9).weights

        def distance(D):
            return float(np.linalg.norm(base - solve_erm(spec, D, 1e-9).weights))

        worst = max(distance(neighbor(spec, S, rng)) for _ in range(trials))
        rep = empirical_sensitivity([spec], S, trials=trials, seed=seed)[0]
        assert worst > 0
        assert rep.empirical_value == pytest.approx(worst, rel=1e-12)
        assert rep.details["solver_failures"] == 0

    @pytest.mark.parametrize("spec", SPECS, ids=["logistic", "squared"])
    def test_sgd_stability(self, spec):
        _, S = fixture()
        cfg = SgdConfig(steps_T=30, step_size=0.1, batch_size_b=5, seed=2)
        trials, probes, seed = 3, 5, 6
        rng = derive_rng(seed, 26)
        base = sgd_run(spec, S, cfg)
        worst = 0.0
        for _ in range(trials):
            other = sgd_run(spec, neighbor(spec, S, rng), cfg)
            for _ in range(probes):
                worst = max(worst, self.gap(spec, base, other, *fresh_record(spec, S.d, rng)))
        rep = empirical_sgd_stability(spec, S, cfg, trials=trials, probes=probes, seed=seed)
        assert worst > 0
        assert rep.empirical_value == pytest.approx(worst, rel=1e-12)

    def test_logistic_rejects_zero_one_labels(self):
        spec, S = fixture()
        S01 = Dataset(S.features, (S.labels > 0).astype(float))
        # the block solve rejects them before the probe losses would
        with pytest.raises(ValueError, match="logistic loss needs labels"):
            empirical_stability([spec], S01, trials=2, probes=3, seed=0)


def max_loss_gap(spec, w_a, w_b, X, y):
    """One pair's probe loss gap from its own (k, d) @ (d, 2) product, the reference."""
    losses = _loss_values(spec, np.column_stack([w_a, w_b]), X, np.asarray(y)[:, None])
    return float(np.max(np.abs(losses[:, 0] - losses[:, 1]), initial=0.0))


class TestLossGapsBitForBit:
    """One batched product scores every pair to the float of its own product."""

    SPECS = TestBatchedProbesMatchScalarLoop.SPECS

    @pytest.mark.parametrize("spec", SPECS, ids=["logistic", "squared"])
    @pytest.mark.parametrize("t, k, d", [(1, 1, 1), (7, 1, 5), (7, 5, 1), (30, 50, 5),
                                         (4, 25, 32)])
    def test_kernel(self, spec, t, k, d):
        rng = derive_rng(t, k, d)
        base, W = rng.standard_normal(d), rng.standard_normal((t, d))
        X, y = rng.standard_normal((t, k, d)), rng.choice((-1.0, 1.0), (t, k))
        gaps = verify._loss_gaps(spec, base, W, X, y)
        assert gaps.tolist() == [max_loss_gap(spec, base, W[j], X[j], y[j])
                                 for j in range(t)]

    @pytest.mark.parametrize("spec", SPECS, ids=["logistic", "squared"])
    def test_stability_with_a_failed_column(self, monkeypatch, spec):
        _, S = fixture()
        trials, probes, seed, marked = 8, 6, 3, 5
        solved = []

        def fake(spec, S, tolerance):
            # the marked column is left above tolerance, its weights far off
            # S and its neighbors come as one stack, so the weights are (m, d, 1)
            report = solve_erm(spec, S, tolerance)
            weights, residuals = report.weights.copy(), report.residuals.copy()
            weights[marked], residuals[marked] = 1e3, 2 * tolerance
            solved.append(weights[..., 0])
            raise ConvergenceError("marked", replace(report, weights=weights,
                                                     residuals=residuals))

        monkeypatch.setattr(verify, "solve_erm", fake)
        rep = empirical_stability([spec], S, trials=trials, probes=probes, seed=seed)[0]
        W, rng, worst_in, worst_fresh = solved.pop(), derive_rng(seed, 22), 0.0, 0.0
        for j in range(1, trials + 1):
            neighbor(spec, S, rng)
            idx = rng.choice(S.n, size=probes, replace=False)
            X, y = _fresh_rows(spec, S.d, probes, rng)
            if j != marked:
                worst_in = max(worst_in, max_loss_gap(spec, W[0], W[j],
                                                      S.features[idx], S.labels[idx]))
                worst_fresh = max(worst_fresh, max_loss_gap(spec, W[0], W[j], X, y))
        assert rep.details["solver_failures"] == 1
        assert rep.details["in_sample_max"] == worst_in
        assert rep.details["fresh_point_max"] == worst_fresh

    @pytest.mark.parametrize("spec", SPECS, ids=["logistic", "squared"])
    def test_sgd_stability(self, spec):
        _, S = fixture()
        cfg = SgdConfig(steps_T=30, step_size=0.1, batch_size_b=5, dropout_rate_s=0.5, seed=2)
        trials, probes, seed = 6, 5, 6
        rng = derive_rng(seed, 26)
        pairs = [(neighbor(spec, S, rng), _fresh_rows(spec, S.d, probes, rng))
                 for _ in range(trials)]
        W = sgd_run(spec, _stack([S, *(Sp for Sp, _ in pairs)]), cfg)[..., 0]
        worst = max(max_loss_gap(spec, W[0], W[j], *rows)
                    for j, (_, rows) in enumerate(pairs, start=1))
        rep = empirical_sgd_stability(spec, S, cfg, trials=trials, probes=probes, seed=seed)
        assert rep.empirical_value == worst


class TestOracleSolverFailures:
    """A neighbour column left above tolerance counts once; the others still score."""

    SPEC = ObjectiveSpec("logistic", 0.5, penalty="l2", kappa=1.0)

    def cap(self, monkeypatch, max_iters):
        monkeypatch.setattr(verify, "solve_erm", partial(solve_erm, max_iters=max_iters))

    def test_sensitivity(self, monkeypatch):
        _, S = fixture()
        trials, seed = 20, 0
        cap = solve_erm(self.SPEC, S, 1e-9).iterations_used
        rng = derive_rng(seed, 21)
        base = solve_erm(self.SPEC, S, 1e-9).weights
        converged = []
        for _ in range(trials):
            rep = solve_erm(self.SPEC, neighbor(self.SPEC, S, rng), 1e-9)
            if rep.iterations_used <= cap:
                converged.append(float(np.linalg.norm(base - rep.weights)))
        assert 0 < trials - len(converged) < trials
        self.cap(monkeypatch, cap)
        rep = empirical_sensitivity([self.SPEC], S, trials=trials, seed=seed)[0]
        assert rep.details["solver_failures"] == trials - len(converged)
        assert rep.empirical_value == pytest.approx(max(converged), rel=1e-12)
        assert not rep.passed  # more than 1% of the solves failed

    def test_stability(self, monkeypatch):
        _, S = fixture()
        # at seed 0 every neighbour converges within S's own count; at 8, 3 do not
        trials, probes, seed = 20, 5, 8
        cap = solve_erm(self.SPEC, S, 1e-9).iterations_used
        rng = derive_rng(seed, 22)
        base = solve_erm(self.SPEC, S, 1e-9).weights
        failures, worst = 0, 0.0
        for _ in range(trials):
            other = solve_erm(self.SPEC, neighbor(self.SPEC, S, rng), 1e-9)
            # probes are drawn for every neighbour, scored only for converged ones
            rows = [(S.features[i], float(S.labels[i]))
                    for i in rng.choice(S.n, size=probes, replace=False)]
            rows += [fresh_record(self.SPEC, S.d, rng) for _ in range(probes)]
            if other.iterations_used > cap:
                failures += 1
                continue
            worst = max(worst, *(TestBatchedProbesMatchScalarLoop.gap(
                self.SPEC, base, other.weights, x, y) for x, y in rows))
        assert 0 < failures < trials
        self.cap(monkeypatch, cap)
        rep = empirical_stability([self.SPEC], S, trials=trials, probes=probes, seed=seed)[0]
        assert rep.details["solver_failures"] == failures
        assert rep.empirical_value == pytest.approx(worst, rel=1e-12)

    @staticmethod
    def mark(monkeypatch, marked):
        """Install a fake solver that leaves the ``marked`` stack columns above
        tolerance, whatever the real solver's iteration counts, and moves their
        weights far off; returns the list each solve's true weights go to."""
        solved = []

        def fake(spec, S, tolerance):
            # S and its neighbors come as one stack, so the weights are (m, d, 1)
            report = solve_erm(spec, S, tolerance)
            solved.append(report.weights[..., 0])
            weights, residuals = report.weights.copy(), report.residuals.copy()
            weights[marked], residuals[marked] = 1e3, 2 * tolerance
            raise ConvergenceError("marked", replace(report, weights=weights,
                                                     residuals=residuals))

        monkeypatch.setattr(verify, "solve_erm", fake)
        return solved

    def test_marked_columns_are_failures(self, monkeypatch):
        _, S = fixture()
        trials, probes, seed, marked = 20, 5, 0, [3, 7, 12]
        solved = self.mark(monkeypatch, marked)
        kept = [j for j in range(1, trials + 1) if j not in marked]
        rep = empirical_sensitivity([self.SPEC], S, trials=trials, seed=seed)[0]
        W = solved.pop()
        assert rep.details["solver_failures"] == len(marked)
        assert rep.empirical_value == pytest.approx(
            max(np.linalg.norm(W[0] - W[j]) for j in kept), rel=1e-12)
        assert not rep.passed  # more than 1% of the solves failed

        rep = empirical_stability([self.SPEC], S, trials=trials, probes=probes, seed=seed)[0]
        W, rng, worst = solved.pop(), derive_rng(seed, 22), 0.0
        for j in range(1, trials + 1):
            neighbor(self.SPEC, S, rng)
            # probes are drawn for every neighbour, scored only for the kept ones
            rows = [(S.features[i], float(S.labels[i]))
                    for i in rng.choice(S.n, size=probes, replace=False)]
            rows += [fresh_record(self.SPEC, S.d, rng) for _ in range(probes)]
            if j in kept:
                worst = max(worst, *(TestBatchedProbesMatchScalarLoop.gap(
                    self.SPEC, W[0], W[j], x, y) for x, y in rows))
        assert rep.details["solver_failures"] == len(marked)
        assert rep.empirical_value == pytest.approx(worst, rel=1e-12)
        assert not rep.passed

    @pytest.mark.parametrize("marked, passed", [([40], True), ([40, 77], False)],
                             ids=["one-failure", "two-failures"])
    def test_one_percent_allowance_at_its_edge(self, monkeypatch, marked, passed):
        # at 100 trials one failed solve is within the 1% allowance, two are not
        _, S = fixture()
        self.mark(monkeypatch, marked)
        for rep in (empirical_sensitivity([self.SPEC], S, trials=100, seed=0)[0],
                    empirical_stability([self.SPEC], S, trials=100, probes=5, seed=0)[0]):
            assert rep.details["solver_failures"] == len(marked)
            assert rep.empirical_value <= rep.bound_value
            assert rep.passed is passed

    def test_every_neighbour_failed(self, monkeypatch):
        # no neighbour column converges: nothing is scored, and every solve is a failure
        _, S = fixture()

        def fake(spec, S, tolerance):
            report = solve_erm(spec, S, tolerance)
            residuals = report.residuals.copy()
            residuals[1:] = 2 * tolerance
            raise ConvergenceError("marked", replace(report, residuals=residuals))

        monkeypatch.setattr(verify, "solve_erm", fake)
        for rep in (empirical_sensitivity([self.SPEC], S, trials=4, seed=0)[0],
                    empirical_stability([self.SPEC], S, trials=4, probes=3, seed=0)[0]):
            assert rep.details["solver_failures"] == 4
            assert rep.empirical_value == 0.0 and not rep.passed
            assert rep.details.get("in_sample_max", 0.0) == 0.0
            assert rep.details.get("fresh_point_max", 0.0) == 0.0

    def test_base_failure_raises(self, monkeypatch):
        _, S = fixture()
        self.cap(monkeypatch, solve_erm(self.SPEC, S, 1e-9).iterations_used - 1)
        with pytest.raises(ConvergenceError, match=r"in \(dataset, column\) pairs \[\(0, 0\)"):
            empirical_sensitivity([self.SPEC], S, trials=5, seed=0)
        with pytest.raises(ConvergenceError, match=r"in \(dataset, column\) pairs \[\(0, 0\)"):
            empirical_stability([self.SPEC], S, trials=5, probes=3, seed=0)


class TestEmpiricalPrivacyError:
    def test_bound_respected(self):
        spec, S = fixture()
        rep = empirical_privacy_error(spec, S, epsilon=1.0, draws=4000, seed=0)
        assert rep.passed

    def test_large_epsilon_vanishes(self):
        spec, S = fixture()
        rep = empirical_privacy_error(spec, S, epsilon=1e6, draws=500, seed=1)
        assert rep.empirical_value < 1e-4

    def test_one_over_epsilon_scaling(self):
        spec, S = fixture()
        out = privacy_error_scaling(spec, S, epsilons=(0.5, 1.0, 2.0), draws=4000, seed=2)
        assert -1.2 <= out["slope"] <= -0.8

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf])
    def test_bad_epsilon_rejected(self, epsilon):
        spec, S = fixture()
        with pytest.raises(ValueError, match="epsilon"):
            empirical_privacy_error(spec, S, epsilon=epsilon, draws=10, seed=0)

    @pytest.mark.parametrize("epsilons,match", [
        ((), "two or more distinct"), ((1.0,), "two or more distinct"),
        ((1.0, 1.0), "two or more distinct"), ((1.0, -1.0), "epsilon must be"),
        ((1.0, math.inf), "epsilon must be")],
        ids=["empty", "one", "repeated", "negative", "infinite"])
    def test_scaling_grid_checked_before_the_solve(self, monkeypatch, epsilons, match):
        # a slope needs two distinct epsilons; one used to reach np.polyfit's LAPACK call
        monkeypatch.setattr(verify, "solve_erm", lambda *a, **k: pytest.fail("solved"))
        spec, S = fixture()
        with pytest.raises(ValueError, match=match):
            privacy_error_scaling(spec, S, epsilons=epsilons, draws=10, seed=0)


class TestGradientCheck:
    def test_logistic(self):
        rep = gradient_check(ObjectiveSpec("logistic", 0.1), n_fixtures=50, seed=0)
        assert rep.passed

    def test_quadratic_near_exact(self):
        rep = gradient_check(ObjectiveSpec("squared", 0.1, lipschitz_L=1.0),
                             n_fixtures=50, seed=1)
        assert rep.passed
        assert rep.empirical_value < 1e-7

    @pytest.mark.parametrize("kind", ["logistic", "squared"])
    @pytest.mark.parametrize("seed", [0, 1111])
    def test_report_is_the_point_at_a_time_loop(self, kind, seed):
        spec = ObjectiveSpec(kind, 0.1, lipschitz_L=1.0)
        assert gradient_check(spec, seed=seed) == point_loop_gradient_check(spec, seed=seed)

    @pytest.mark.parametrize("kind", ["logistic", "squared"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("n_fixtures", [1, 7, 100])
    def test_report_is_the_fixture_loop(self, monkeypatch, kind, seed, n_fixtures):
        spec = ObjectiveSpec(kind, 0.1, lipschitz_L=1.0)
        calls, loss = [0], verify.per_example_loss

        def counted(*args):
            calls[0] += 1
            return loss(*args)

        monkeypatch.setattr(verify, "per_example_loss", counted)
        rep = gradient_check(spec, n_fixtures=n_fixtures, seed=seed)
        # the public per-example loss is still what the check differences
        assert calls[0] == n_fixtures
        ref = fixture_loop_gradient_check(spec, n_fixtures=n_fixtures, seed=seed)
        assert rep == ref
        assert rep.empirical_value.hex() == ref.empirical_value.hex()


def point_loop_gradient_check(spec, n_fixtures=100, seed=0):
    """The reference for the batched ``gradient_check``: one call per difference point."""
    h, d, tol = 1e-6, 5, 1e-5
    rng = derive_rng(seed, 24)
    worst = 0.0
    for _ in range(n_fixtures):
        w = rng.standard_normal(d)
        x, y = fresh_record(spec, d, rng)
        Sf = Dataset(*_fresh_rows(spec, d, int(rng.integers(3, 8)), rng))
        for ga, f in ((per_example_grad(spec, w, x, y),
                       lambda v: per_example_loss(spec, v, x, y)),
                      (gradient(spec, w, Sf), lambda v: smooth_objective(spec, v, Sf))):
            gf = np.empty(d)
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                gf[j] = (f(w + e) - f(w - e)) / (2 * h)
            worst = max(worst, float(np.linalg.norm(ga - gf) / max(np.linalg.norm(ga), 1e-8)))
    return OracleReport(name="gradients", bound_value=tol, empirical_value=worst,
                        trials=2 * n_fixtures, margin=tol - worst, passed=worst < tol,
                        details={"h": h, "d": d})


def fixture_loop_gradient_check(spec, n_fixtures=100, seed=0):
    """The reference for the fixture-batched ``gradient_check``: one fixture at a
    time, each drawn alone and its 2d difference points scored in one block."""
    h, d, tol = 1e-6, 5, 1e-5
    rng = derive_rng(seed, 24)
    worst = 0.0
    for _ in range(n_fixtures):
        w = rng.standard_normal(d)
        x, y = fresh_record(spec, d, rng)
        Sf = Dataset(*_fresh_rows(spec, d, int(rng.integers(3, 8)), rng))
        copies = _Stack(np.broadcast_to(Sf.features, (2 * d, Sf.n, d)),
                        np.broadcast_to(Sf.labels[:, None], (2 * d, Sf.n, 1)))
        step = h * np.eye(d)
        V = np.concatenate([w + step, w - step])
        for ga, values in ((per_example_grad(spec, w, x, y), per_example_loss(spec, V, x, y)),
                           (gradient(spec, w, Sf),
                            smooth_objective(spec, V[:, :, None], copies)[:, 0])):
            gf = (values[:d] - values[d:]) / (2 * h)
            worst = max(worst, float(np.linalg.norm(ga - gf) / max(np.linalg.norm(ga), 1e-8)))
    return OracleReport(name="gradients", bound_value=tol, empirical_value=worst,
                        trials=2 * n_fixtures, margin=tol - worst, passed=worst < tol,
                        details={"h": h, "d": d})


class TestFlipRateCheck:
    def test_case1_matches(self):
        rep = flip_rate_check(1.0, 0.0, lemma_noise(1.0, lam=0.1, eta=0.15, n=10_000,
                                                    L=1.0, kappa=1.0), draws=50_000, seed=0)
        assert rep.passed
        # a numpy bool or float here would break `verify --out`'s json.dump
        assert type(rep.passed) is bool and type(rep.bound_value) is float

    def test_case2_near_boundary_discrepancy_is_reported(self):
        # |w_i| close to T: the closed form ignores sign-crossing mass, the
        # oracle reports the gap instead of hiding it
        rep = flip_rate_check(0.6, 0.5, lemma_noise(1.0, lam=0.1, eta=0.15, n=10_000,
                                                    L=1.0, kappa=1.0), draws=50_000, seed=1)
        assert rep.trials == 50_000
        assert "mc_stderr" in rep.details


class TestSampleCounts:
    """An oracle that samples nothing would pass by construction, so it refuses."""

    @pytest.mark.parametrize("kwargs,name", [
        (dict(trials=0), "trials"), (dict(trials=-3), "trials"), (dict(trials=True), "trials"),
    ])
    def test_sensitivity(self, kwargs, name):
        spec, S = fixture()
        with pytest.raises(ValueError, match=name):
            empirical_sensitivity([spec], S, **kwargs)

    @pytest.mark.parametrize("kwargs,name", [
        (dict(trials=0), "trials"), (dict(trials=2, probes=0), "probes"),
    ])
    def test_stability_and_sgd_stability(self, kwargs, name):
        spec, S = fixture()
        with pytest.raises(ValueError, match=name):
            empirical_stability([spec], S, **kwargs)
        cfg = SgdConfig(steps_T=5, step_size=0.1, batch_size_b=5)
        with pytest.raises(ValueError, match=name):
            empirical_sgd_stability(spec, S, cfg, **kwargs)

    @pytest.mark.parametrize("n_fixtures", [0, -3, True])
    def test_gradient_check(self, n_fixtures):
        with pytest.raises(ValueError, match="n_fixtures"):
            gradient_check(ObjectiveSpec("logistic", 0.1), n_fixtures=n_fixtures)

    def test_flip_rate_draws(self):
        with pytest.raises(ValueError, match="draws"):
            flip_rate_check(1.0, 0.0, lemma_noise(1.0, lam=0.1, eta=0.15, n=100, L=1.0, kappa=1.0),
                            draws=0)

    @pytest.mark.parametrize("draws", [0, 1])
    def test_privacy_error_needs_two_draws(self, draws):
        # its Monte-Carlo standard error uses ddof=1
        spec, S = fixture()
        with pytest.raises(ValueError, match="draws"):
            empirical_privacy_error(spec, S, epsilon=1.0, draws=draws)


class TestSgdStabilityDirections:
    """Empirical uniform stability moves the way the scaling table says."""

    def setup_method(self):
        S, _ = synth_classification(60, 5, classes=2, sparsity=5, noise=0.5, seed=9)
        self.S = S
        self.spec = ObjectiveSpec("logistic", 0.2, penalty="l2")

    def beta_hat(self, **kw):
        base = dict(steps_T=40, step_size=0.1, batch_size_b=5, seed=3)
        base.update(kw)
        rep = empirical_sgd_stability(self.spec, self.S, SgdConfig(**base),
                                      trials=30, probes=25, seed=0)
        return rep.empirical_value

    def test_smaller_dropout_rate_is_more_stable(self):
        vals = [self.beta_hat(dropout_rate_s=s) for s in (1.0, 0.5, 0.25)]
        assert vals[0] > vals[1] > vals[2]

    def test_smaller_step_size_is_more_stable(self):
        vals = [self.beta_hat(step_size=a) for a in (0.1, 0.05, 0.02)]
        assert vals[0] > vals[1] > vals[2]

    def test_larger_batch_is_more_stable(self):
        assert self.beta_hat(batch_size_b=60) < self.beta_hat(batch_size_b=5)

    def test_tighter_clipping_is_more_stable(self):
        assert self.beta_hat(clip_bound_G=0.05) < self.beta_hat()


class TestSpecCert:
    def test_l2_uses_strong_convexity_constant(self):
        spec = ObjectiveSpec("logistic", 0.8, penalty="l2")
        cert = spec_cert(spec, 100)
        # lambda_sc = lam = 0.8 under the (lam/2)||w||^2 penalty
        assert cert.lambda_sc == pytest.approx(0.8)
        assert cert.beta == pytest.approx(2.0 / (100 * 0.8))

    def test_elastic_formula(self):
        spec = ObjectiveSpec("logistic", 0.1, penalty="elastic", gamma=0.85)
        cert = spec_cert(spec, 100)
        assert cert.beta == pytest.approx(0.23529411764705882)
        assert cert.lambda_sc == pytest.approx(0.17)
