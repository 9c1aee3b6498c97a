import csv
import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from stabledp import cli as cli_mod
from stabledp.cli import (
    ConfigError,
    DatasetConfig,
    SweepConfig,
    _cells,
    accuracy,
    build_dataset,
    cmd_select,
    cmd_sweep,
    cmd_train,
    cmd_verify,
    config_from_dict,
    load_config,
    main,
    predict,
)
from stabledp.data_io import SplitPlan, synth_classification, write_csv
from stabledp.features import lemma_noise
from stabledp.model import Dataset, ObjectiveSpec


def tiny_config(**overrides):
    base = dict(
        dataset=DatasetConfig(kind="synthetic", n=120, d=12, classes=2, sparsity=4,
                              noise=0.3, structured_noise=False, seed=3, reduce_to=6),
        split=SplitPlan(seed=0, repeats=3),
        lambda_grid=(0.05, 0.2),
        epsilon_grid=(1.0, 4.0),
        noise_mode="stability_optimal",
        tolerance=1e-7,
    )
    base.update(overrides)
    return SweepConfig(**base)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestConfig:
    def test_defaults_match_experiment_protocol(self):
        cfg = SweepConfig()
        assert cfg.gamma == 0.85 and cfg.eta == 0.15
        assert cfg.split.train_fraction == 0.8 and cfg.split.repeats == 10
        assert cfg.dataset.reduce_to == 32

    def test_field_path_in_errors(self):
        with pytest.raises(ConfigError, match="lambda_grid"):
            SweepConfig(lambda_grid=())
        with pytest.raises(ConfigError, match=r"epsilon_grid\[0\]"):
            SweepConfig(epsilon_grid=(-1.0,))
        with pytest.raises(ConfigError, match="fixed_scale_b"):
            SweepConfig(noise_mode="fixed_scale")
        # NaN fails every `<= 0` test, so non-finite values need their own guard
        for field, value, path in (("lambda_grid", (0.1, math.nan), r"lambda_grid\[1\]"),
                                   ("epsilon_grid", (math.nan,), r"epsilon_grid\[0\]"),
                                   ("epsilon_grid", (math.inf,), r"epsilon_grid\[0\]"),
                                   ("fixed_scale_b", math.nan, "fixed_scale_b"),
                                   ("eta", math.nan, "eta"),
                                   ("tolerance", math.inf, "tolerance"),
                                   ("tolerance", 0.0, "tolerance")):
            with pytest.raises(ConfigError, match=path):
                SweepConfig(**{"noise_mode": "fixed_scale", "fixed_scale_b": 1.0, field: value})
        # fields that used to pass and then die in training or release with a traceback
        for raw, path in (({"dataset": {"kappa": -1.0}}, "dataset.kappa"),
                          ({"dataset": {"kappa": math.nan}}, "dataset.kappa"),
                          ({"dataset": {"n": 0}}, "dataset.n"),
                          ({"dataset": {"reduce_to": 0}}, "dataset.reduce_to"),
                          ({"loss_kind": "hinge"}, "loss_kind"),
                          ({"lipschitz_L": -2.0}, "lipschitz_L"),
                          # kappa backs the logistic loss only; it used to release the squared
                          ({"loss_kind": "squared"}, "lipschitz_L"),
                          ({"max_iters": 0}, "max_iters"),
                          ({"threshold_k": -1.0}, "threshold_k"),
                          ({"static_T": math.nan}, "static_T")):
            with pytest.raises(ConfigError, match=path):
                config_from_dict(raw)
        with pytest.raises(ConfigError, match="dataset"):
            config_from_dict({"dataset": {"bogus_field": 1}})
        with pytest.raises(ConfigError, match="split"):
            config_from_dict({"split": {"repeats": 0}})
        with pytest.raises(ConfigError, match="'foo'"):
            config_from_dict({"foo": 1})
        # fields that used to exit with a traceback, or that a seed stream truncated
        for raw, path in (({"dataset": {"sparsity": 0}}, "dataset.sparsity"),
                          ({"dataset": {"noise": -0.1}}, "dataset.noise"),
                          ({"dataset": {"noise": math.nan}}, "dataset.noise"),
                          ({"dataset": {"label_flips": 1.0}}, "dataset.label_flips"),
                          ({"dataset": {"label_flips": -0.5}}, "dataset.label_flips"),
                          ({"dataset": {"n": 100.5}}, "dataset.n"),
                          ({"dataset": {"seed": 7.5}}, "dataset.seed"),
                          ({"split": {"repeats": 2.5}}, "split: repeats"),
                          ({"split": {"repeats": math.nan}}, "split: repeats"),
                          ({"split": {"seed": 1.5}}, "split: seed"),
                          ({"master_seed": 0.5}, "master_seed"),
                          ({"max_iters": 2.5}, "max_iters"),
                          # a wrong type used to raise a TypeError, name no field, or pass
                          ({"lambda_grid": 0.1}, "lambda_grid"),
                          ({"epsilon_grid": [1.0, "x"]}, r"epsilon_grid\[1\]"),
                          ({"gamma": "x"}, "gamma"),
                          ({"dataset": {"kappa": "1"}}, "dataset.kappa"),
                          ({"dataset": {"structured_noise": "no"}}, "dataset.structured_noise"),
                          ({"split": {"train_fraction": "x"}}, "split: train_fraction"),
                          # a bool is not a number, though Python counts it as one
                          ({"gamma": True}, "gamma"),
                          ({"static_T": True}, "static_T"),
                          ({"lambda_grid": [True]}, r"lambda_grid\[0\]")):
            with pytest.raises(ConfigError, match=path):
                config_from_dict(raw)
        with pytest.raises(ConfigError, match="dataset.sparsity"):
            build_dataset(config_from_dict({"dataset": {"d": 6, "reduce_to": None}}))

    def test_logistic_lipschitz_below_kappa_refused(self):
        # the spec makes the check; the config reports it on its field
        with pytest.raises(ConfigError, match=r"^lipschitz_L must be finite and >= kappa=1.0"):
            load_config(None, {"lipschitz_L": 0.01})
        with pytest.raises(ConfigError, match="kappa=0.5"):
            load_config(None, {"lipschitz_L": 0.4, "dataset.kappa": 0.5})
        for overrides in ({"lipschitz_L": 1.0}, {"lipschitz_L": 2.0},
                          {"lipschitz_L": 0.5, "dataset.kappa": 0.5}):
            assert load_config(None, overrides).lipschitz_L == overrides["lipschitz_L"]

    def test_objective_fields_checked_by_the_spec(self):
        # gamma, eta, loss_kind and lipschitz_L take their ranges from the
        # ObjectiveSpec the config builds, and their types from their annotations
        for raw, message in (
                ({"gamma": 2.0}, "gamma must be in (0, 1], got 2.0"),
                ({"gamma": "x"}, "gamma must be a number, got 'x'"),
                ({"eta": -1.0}, "eta must be finite and >= 0, got -1.0"),
                ({"loss_kind": "hinge"},
                 "loss_kind must be one of ('logistic', 'squared'), got 'hinge'"),
                ({"lipschitz_L": -1.0}, "lipschitz_L must be finite and >= kappa=1.0 for the "
                                        "logistic loss, got -1.0"),
                ({"loss_kind": "squared", "lipschitz_L": -1.0},
                 "lipschitz_L must be finite and > 0, got -1.0")):
            with pytest.raises(ConfigError) as err:
                config_from_dict(raw)
            assert str(err.value) == message

    def test_json_round_trip_with_overrides(self, tmp_path):
        p = tmp_path / "cfg.json"
        # every field annotated "| None" may be null
        p.write_text(json.dumps({"lambda_grid": [0.1], "epsilon_grid": [1.0],
                                 "fixed_scale_b": None, "lipschitz_L": None,
                                 "dataset": {"n": 50, "d": 6, "reduce_to": None,
                                             "sparsity": None, "path": None,
                                             "label_column": None}}))
        cfg = load_config(p, {"epsilon_grid": [2.0], "split.repeats": 2})
        assert cfg.lambda_grid == (0.1,)
        assert cfg.epsilon_grid == (2.0,)
        assert cfg.split.repeats == 2

    def test_committed_configs_load(self):
        paths = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))
        assert paths
        for path in paths:
            assert isinstance(load_config(path), SweepConfig), path


def split_predict(W, classes, X):
    """The per-split reference: one split's (K, d) model rows on its (n, d) test rows."""
    if classes.size == 2:
        return np.where(X @ W[0] >= 0, classes[1], classes[0])
    return classes[np.argmax(X @ W.T, axis=1)]


class TestStackedScoring:
    """One batched product scores every split as the split's own product would."""

    @pytest.mark.parametrize("classes", [2, 4])
    def test_predict_and_accuracy_equal_the_per_split_calls(self, classes):
        cfg = tiny_config()
        cfg = dataclasses.replace(cfg, dataset=dataclasses.replace(cfg.dataset,
                                                                   classes=classes))
        test, labels, _, cells = _cells(cfg, cfg.epsilon_grid, 31)
        for _, _, rel in cells:
            W, X = rel.noisy_weights, test.features
            assert W.shape == (3, 6, 1 if classes == 2 else classes)
            pred, acc, Z = predict(W, labels, X), accuracy(W, labels, test), X @ W
            for r in range(len(W)):
                ref = split_predict(W[r].T, labels, X[r])
                assert pred[r].tobytes() == ref.tobytes()
                assert acc[r] == float(np.mean(ref == test.labels[r, :, 0]))
                # each slice runs its split's product: the gemv of X @ W[0] when binary
                want = X[r] @ W[r].T[0] if classes == 2 else X[r] @ W[r]
                assert Z[r].reshape(want.shape).tobytes() == want.tobytes()


class TestSweep:
    @pytest.mark.parametrize("scale_mode", ["verbatim", "derived"])
    def test_schema_and_noise_scale_formula(self, tmp_path, scale_mode):
        cfg = tiny_config(scale_mode=scale_mode)
        d = cfg.dataset.reduce_to
        path = cmd_sweep(cfg, tmp_path)
        rows = read_rows(path)
        assert list(rows[0].keys()) == [
            "lambda", "epsilon", "noise_mode", "noise_scale", "beta", "sensitivity_l2",
            "repeat", "test_accuracy", "test_accuracy_std",
        ]
        n_train = int(0.8 * 120)
        for row in rows:
            lam, eps = float(row["lambda"]), float(row["epsilon"])
            L = ObjectiveSpec("logistic", lam, kappa=cfg.dataset.kappa).L
            beta = 2.0 * L**2 * 1.0 / (n_train * lam * cfg.gamma)
            assert float(row["beta"]) == pytest.approx(beta, rel=1e-12)
            sens_l2 = math.sqrt(2 * beta / (2 * lam * cfg.gamma))
            # stability-optimal scale reproduces the release formula per cell;
            # derived is the strong-convexity sensitivity converted to L1
            expect = (math.sqrt(2 * beta / (lam * cfg.gamma)) / eps if scale_mode == "verbatim"
                      else math.sqrt(d) * sens_l2 / eps)
            assert float(row["noise_scale"]) == pytest.approx(expect, rel=1e-12)
            assert float(row["sensitivity_l2"]) == pytest.approx(sens_l2, rel=1e-12)
        # per-repeat rows plus one aggregate row per cell
        assert len(rows) == 2 * 2 * (3 + 1)
        agg = [r for r in rows if r["repeat"] == "-1"]
        assert len(agg) == 4 and all(r["test_accuracy_std"] != "" for r in agg)

    def test_models_shared_across_epsilons(self, tmp_path, monkeypatch):
        from stabledp import privacy as privacy_mod

        solve_erm, calls = privacy_mod.solve_erm, []
        monkeypatch.setattr(privacy_mod, "solve_erm",
                            lambda *a, **k: calls.append(a) or solve_erm(*a, **k))
        cfg = tiny_config()
        assert len(cfg.epsilon_grid) == 2
        cmd_sweep(cfg, tmp_path)
        # one block solve of the whole lambda grid over every split, whatever the
        # number of epsilons
        assert len(calls) == 1
        assert [spec.lam for spec in calls[0][0]] == list(cfg.lambda_grid)

    @pytest.mark.parametrize("noise_mode", ["stability_optimal", "fixed_scale", "none"])
    def test_kappa_premise_checked_before_any_solve(self, tmp_path, monkeypatch, noise_mode):
        from stabledp import cli as cli_mod
        from stabledp import privacy as privacy_mod

        def unbounded(cfg):  # the first feature scaled 4-fold after the kappa rebound
            S = build_dataset(cfg)
            X = S.features.copy()
            X[:, 0] *= 4.0
            return Dataset(X, S.labels)

        monkeypatch.setattr(cli_mod, "build_dataset", unbounded)
        monkeypatch.setattr(privacy_mod, "solve_erm", lambda *a, **k: pytest.fail("solved"))
        cfg = tiny_config(noise_mode=noise_mode, fixed_scale_b=0.25)
        with pytest.raises(ValueError, match="kappa"):
            cmd_sweep(cfg, tmp_path)
        assert not (tmp_path / "sweep.csv").exists()

    def test_fixed_scale_constant_across_lambda(self, tmp_path):
        cfg = tiny_config(noise_mode="fixed_scale", fixed_scale_b=0.25)
        rows = read_rows(cmd_sweep(cfg, tmp_path))
        assert {row["noise_scale"] for row in rows} == {"0.25"}

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_config()
        p1 = cmd_sweep(cfg, tmp_path / "a")
        p2 = cmd_sweep(cfg, tmp_path / "b")
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a/sweep.meta.json").read_bytes() == \
            (tmp_path / "b/sweep.meta.json").read_bytes()

    @pytest.mark.parametrize("command", [cmd_sweep, cmd_select], ids=["sweep", "select"])
    def test_cell_isolation(self, tmp_path, command):
        full = read_rows(command(tiny_config(), tmp_path / "full"))
        single = read_rows(command(tiny_config(lambda_grid=(0.2,), epsilon_grid=(4.0,)),
                                   tmp_path / "single"))
        pick = {(r["lambda"], r["epsilon"], r["repeat"]): r
                for r in full if r["lambda"] == "0.2" and r["epsilon"] == "4.0"}
        assert len(single) == len(pick)
        for r in single:
            assert r == pick[(r["lambda"], r["epsilon"], r["repeat"])]

    @pytest.mark.parametrize("classes", [2, 4])
    def test_grid_release_writes_the_per_lambda_bytes(self, tmp_path, monkeypatch, classes):
        # the grid's one release against the recipe it replaced, one release per lambda
        from stabledp import cli as cli_mod
        from stabledp.privacy import release

        base = tiny_config(lambda_grid=(0.2, 0.002, 0.05))
        cfg = dataclasses.replace(base, dataset=dataclasses.replace(base.dataset,
                                                                    classes=classes))
        names = ("sweep.csv", "select.csv", "select_flips.csv")
        for command in (cmd_sweep, cmd_select):
            command(cfg, tmp_path / "grid")
        monkeypatch.setattr(cli_mod, "release", lambda specs, *a, **k: [
            release(spec, *a, **k) for spec in specs])
        for command in (cmd_sweep, cmd_select):
            command(cfg, tmp_path / "per_lambda")
        for name in names:
            assert (tmp_path / "grid" / name).read_bytes() == \
                (tmp_path / "per_lambda" / name).read_bytes(), name

    def test_csv_input_equals_the_synthetic_run(self, tmp_path):
        # the default synthetic task written as a CSV file is the same input, end to end
        ds = DatasetConfig()
        S, _ = synth_classification(ds.n, ds.d, classes=ds.classes, sparsity=ds.sparsity,
                                    noise=ds.noise, seed=ds.seed, kappa=ds.kappa,
                                    structured_noise=ds.structured_noise,
                                    label_flips=ds.label_flips)
        path = write_csv(S, tmp_path / "task.csv")
        synthetic = SweepConfig()
        from_csv = SweepConfig(dataset=dataclasses.replace(ds, kind="csv", path=str(path)))
        for command in (cmd_sweep, cmd_select):
            for cfg, out in ((synthetic, "synthetic"), (from_csv, "csv")):
                command(cfg, tmp_path / out)
        for name in ("sweep.csv", "select.csv", "select_flips.csv"):
            assert (tmp_path / "csv" / name).read_bytes() == \
                (tmp_path / "synthetic" / name).read_bytes(), name

    def test_meta_is_schema_versioned(self, tmp_path):
        cmd_sweep(tiny_config(), tmp_path)
        meta = json.loads((tmp_path / "sweep.meta.json").read_text())
        assert meta["schema_version"] == 1
        assert meta["command"] == "sweep"
        assert meta["config"]["gamma"] == 0.85


class TestTrain:
    def test_uses_first_epsilon_only(self, tmp_path):
        rows = read_rows(cmd_train(tiny_config(), tmp_path))
        assert {r["epsilon"] for r in rows} == {"1.0"}

    def test_none_mode_equals_nonprivate_accuracy(self, tmp_path):
        rows_none = read_rows(cmd_train(tiny_config(noise_mode="none"), tmp_path / "n"))
        rows_huge = read_rows(cmd_train(tiny_config(epsilon_grid=(1e8,)), tmp_path / "h"))
        acc_none = [r["test_accuracy"] for r in rows_none if r["repeat"] == "-1"]
        acc_huge = [r["test_accuracy"] for r in rows_huge if r["repeat"] == "-1"]
        for a, b in zip(acc_none, acc_huge):
            assert abs(float(a) - float(b)) <= 0.005

    def test_none_mode_scale_zero_and_deterministic(self, tmp_path):
        cfg = tiny_config(noise_mode="none")
        p1 = cmd_train(cfg, tmp_path / "1")
        p2 = cmd_train(cfg, tmp_path / "2")
        assert p1.read_bytes() == p2.read_bytes()
        assert {r["noise_scale"] for r in read_rows(p1)} == {"0.0"}


class TestSelect:
    def test_schema_and_limits(self, tmp_path):
        cfg = tiny_config(epsilon_grid=(2.0,), threshold_mode="dynamic", threshold_k=1.0)
        path = cmd_select(cfg, tmp_path)
        rows = read_rows(path)
        assert list(rows[0].keys()) == [
            "lambda", "epsilon", "noise_mode", "noise_scale", "threshold_mode",
            "threshold_T", "repeat", "f1_similarity", "observed_flip_rate",
            "predicted_flip_rate", "f1_similarity_std",
        ]
        for r in rows:
            assert 0.0 <= float(r["f1_similarity"]) <= 1.0
        flips = read_rows(tmp_path / "select_flips.csv")
        assert len(flips) == 1 * 2 * 6  # eps x lambda x flattened features (1x12)
        for r in flips:
            assert 0.0 <= float(r["observed_flip_rate"]) <= 1.0
            assert 0.0 <= float(r["predicted_flip_rate"]) <= 1.0

    def test_huge_epsilon_gives_perfect_f1(self, tmp_path):
        # dense non-private weights (tiny lambda) so the vanishing-noise
        # limit leaves no zero-weight coordinate to flip by chance
        cfg = tiny_config(epsilon_grid=(1e9,), lambda_grid=(0.005,))
        rows = read_rows(cmd_select(cfg, tmp_path))
        agg = [r for r in rows if r["repeat"] == "-1"]
        assert agg and all(float(r["f1_similarity"]) == 1.0 for r in agg)

    def test_zero_noise_mode_gives_exact_f1(self, tmp_path):
        cfg = tiny_config(noise_mode="none", epsilon_grid=(1.0,))
        rows = read_rows(cmd_select(cfg, tmp_path))
        assert all(float(r["f1_similarity"]) == 1.0 for r in rows)

    def test_static_threshold_variant(self, tmp_path):
        cfg = tiny_config(epsilon_grid=(2.0,), threshold_mode="static", static_T=0.05)
        rows = read_rows(cmd_select(cfg, tmp_path))
        assert {r["threshold_mode"] for r in rows} == {"static"}
        assert {r["threshold_T"] for r in rows} == {"0.05"}

    @pytest.mark.parametrize("mode", [
        dict(noise_mode="stability_optimal", scale_mode="verbatim"),
        dict(noise_mode="stability_optimal", scale_mode="derived"),
        dict(noise_mode="fixed_scale", fixed_scale_b=0.05),
    ], ids=["verbatim", "derived", "fixed_scale"])
    def test_predicted_flip_rate_uses_the_lemma_noise(self, tmp_path, mode):
        # the prediction takes the flip lemma's noise (eta, no sqrt(d), no
        # fixed scale), not the noise the weights were released with
        lam, eps = 0.2, 2.0
        cfg = tiny_config(lambda_grid=(lam,), epsilon_grid=(eps,), **mode)
        cmd_select(cfg, tmp_path)
        T = float(read_rows(tmp_path / "select.csv")[0]["threshold_T"])
        n_train = math.floor(cfg.split.train_fraction * cfg.dataset.n)
        L = ObjectiveSpec("logistic", lam, kappa=cfg.dataset.kappa).L
        b = lemma_noise(eps, lam, cfg.eta, n_train, L, cfg.dataset.kappa).scale
        # a feature zero in every split sits at distance T from the threshold
        zero = [r for r in read_rows(tmp_path / "select_flips.csv")
                if float(r["mean_abs_weight"]) == 0.0]
        assert zero
        for r in zero:
            assert float(r["predicted_flip_rate"]) == pytest.approx(math.exp(-T / b), rel=1e-12)

    def test_gathers_no_test_split(self, tmp_path, monkeypatch):
        # select reads only the training side of its splits: the one gather is the
        # training stack's, and the outputs are those of a run that gathers both sides
        cfg = tiny_config(epsilon_grid=(2.0,))
        gathered, gather = [], cli_mod._gather

        def spy(S, rows):
            gathered.append(rows.shape)
            return gather(S, rows)

        monkeypatch.setattr(cli_mod, "_gather", spy)
        cmd_select(cfg, tmp_path / "train_only")
        assert gathered == [(3, math.floor(cfg.split.train_fraction * cfg.dataset.n))]
        cells = cli_mod._cells
        monkeypatch.setattr(cli_mod, "_cells", lambda *args, test: cells(*args, test=True))
        cmd_select(cfg, tmp_path / "both")
        assert len(gathered) == 3
        for name in ("select.csv", "select_flips.csv"):
            assert (tmp_path / "train_only" / name).read_bytes() == \
                (tmp_path / "both" / name).read_bytes()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_config(epsilon_grid=(2.0,))
        p1 = cmd_select(cfg, tmp_path / "a")
        p2 = cmd_select(cfg, tmp_path / "b")
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a/select_flips.csv").read_bytes() == \
            (tmp_path / "b/select_flips.csv").read_bytes()


class TestVerifyCommand:
    def test_gradients_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cmd_verify("gradients", out_path=out)
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2 and all(line.startswith("[PASS]") for line in lines)
        payload = json.loads(out.read_text())
        assert payload["all_ok"] is True

    def test_flips_suite(self, capsys):
        assert cmd_verify("flips", draws=20_000) == 0

    def test_sensitivity_suite_small(self, capsys):
        assert cmd_verify("sensitivity", trials=10) == 0

    def test_stability_suite_small(self, capsys):
        assert cmd_verify("stability", trials=8, probes=10) == 0

    def test_dp_suite_small(self, capsys):
        assert cmd_verify("dp", samples=150_000) == 0
        out = capsys.readouterr().out
        assert "expected failure" in out

    def test_every_report_has_the_oracle_shape(self, tmp_path, capsys):
        from stabledp.verify import OracleReport

        out = tmp_path / "dp.json"
        cmd_verify("dp", out_path=out, samples=20_000)
        keys = set(OracleReport("x", 0.0, 0.0, 0, 0.0, True).to_dict())
        checks = json.loads(out.read_text())["checks"]
        assert len(checks) == 3
        for check in checks:
            assert set(check["report"]) == keys, check["name"]

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            cmd_verify("everything")

    def test_exit_code_one_when_a_check_lands_wrong(self, monkeypatch, capsys):
        from stabledp import cli as cli_mod
        from stabledp.verify import OracleReport

        bad = OracleReport(name="stub", bound_value=1.0, empirical_value=2.0,
                           trials=1, margin=-1.0, passed=False)
        monkeypatch.setattr(cli_mod, "run_verify_suite",
                            lambda *a, **k: [("stub", bad, True, False)])
        assert cli_mod.cmd_verify("gradients") == 1
        assert "[FAIL] stub" in capsys.readouterr().out


def releasing_dp_checks(samples, seed):
    """The reference for ``cli._dp_checks``: its ERM samplers train S and its
    neighbour as lone datasets, anew on every call."""
    from stabledp import verify
    from stabledp.cli import _oracle_fixture
    from stabledp.privacy import dp_micro_check, laplace_sample, perturb, release
    from stabledp.rng import derive_rng

    n = 40
    S = Dataset(np.linspace(0.0, 1.0, n)[:, None], np.zeros(n))
    Sp = S.replace_record(0, np.array([0.8]), 0.0)
    delta, epsilon = 1.0 / n, 1.0

    def mean_release(scale, ds):
        def fn(rng, size):
            r = laplace_sample(scale, size, rng)
            r += float(np.mean(ds.features))
            return r
        return fn

    (spec,), S_erm = _oracle_fixture((0.5,))
    block, *_ = verify._neighbors(spec, S_erm, 1, derive_rng(seed, 55))
    Sp_erm = Dataset(block.features[1], block.labels[1, :, 0])

    def erm_release(ds):
        def fn(rng, size):
            (rel,) = release(spec, ds, (1.0,), "derived", seed=seed,
                             tolerance=verify.SOLVE_TOLERANCE)
            return perturb(np.broadcast_to(rel.report.weights[0], size), rel.noise, rng)
        return fn

    return [("dp_known_sensitivity", dp_micro_check(
                mean_release(delta / epsilon, S), mean_release(delta / epsilon, Sp), epsilon,
                samples=samples, seed=seed), True),
            ("dp_negative_control", dp_micro_check(
                mean_release(delta / epsilon / 2.0, S), mean_release(delta / epsilon / 2.0, Sp),
                epsilon, samples=samples, seed=seed + 1), False),
            ("dp_erm_release", dp_micro_check(erm_release(S_erm), erm_release(Sp_erm), 1.0,
                                              samples=samples, seed=seed + 2), True)]


class TestDpChecks:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_erm_check_trains_each_dataset_once(self, monkeypatch, seed):
        from stabledp import cli as cli_mod
        from stabledp import privacy

        solves, solve = [0], privacy.solve_erm

        def counted(*args, **kwargs):
            solves[0] += 1
            return solve(*args, **kwargs)

        monkeypatch.setattr(privacy, "solve_erm", counted)
        checks = cli_mod._dp_checks(samples=2000, seed=seed)
        assert solves[0] == 1  # S and its neighbour, as the one stack they are drawn as
        solves[0] = 0
        reference = releasing_dp_checks(samples=2000, seed=seed)
        assert solves[0] == 4  # each sampler's pilot and full draw train its dataset anew
        assert [(name, rep.to_dict(), expected) for name, rep, expected in checks] == [
            (name, rep.to_dict(), expected) for name, rep, expected in reference]


class TestMainEntrypoint:
    def test_verify_exit_code(self, capsys):
        assert main(["verify", "gradients"]) == 0
        assert main(["verify", "gradients", "--trials", "3"]) == 0

    def test_verify_out_into_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "new" / "r.json"
        assert main(["verify", "gradients", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["suite"] == "gradients" and report["all_ok"]

    def test_sweep_via_argv(self, tmp_path, capsys):
        cfg = {"dataset": {"n": 60, "d": 8, "classes": 2, "sparsity": 3, "noise": 0.3,
                           "structured_noise": False, "seed": 1, "reduce_to": None},
               "split": {"repeats": 2}, "lambda_grid": [0.1], "epsilon_grid": [1.0],
               "tolerance": 1e-6}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code = main(["sweep", "--config", str(p), "--out", str(tmp_path / "res")])
        assert code == 0
        assert (tmp_path / "res" / "sweep.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"lambda_grid": []}))
        assert main(["sweep", "--config", str(p), "--out", str(tmp_path)]) == 2

    def test_dataset_field_error_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"dataset": {"kappa": -1.0}}))
        assert main(["sweep", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert "dataset.kappa" in capsys.readouterr().err
        # a field checked only when the data is built exits the same way
        p.write_text(json.dumps({"dataset": {"d": 6, "reduce_to": None}}))
        assert main(["sweep", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert "dataset.sparsity" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "sweep", "select"])
    def test_solver_error_exit_code(self, tmp_path, capsys, command):
        # a ConvergenceError once ended these commands with a traceback
        cfg = {"dataset": {"n": 60, "d": 8, "classes": 2, "sparsity": 3, "noise": 0.3,
                           "structured_noise": False, "seed": 1, "reduce_to": None},
               "split": {"repeats": 2}, "lambda_grid": [0.1], "epsilon_grid": [1.0],
               "tolerance": 1e-6, "max_iters": 2}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main([command, "--config", str(p), "--out", str(tmp_path / "res")]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("solver error: no convergence after 2 iterations")
        assert err.count("\n") == 1
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("text,flags,path", [
        (None, ["--lambda-grid", "abc"], "lambda_grid"),
        (None, ["--epsilon-grid", "1,x"], "epsilon_grid"),
        ("[1, 2]", [], "top level"),
        ('{"lambda_grid": [0.1', [], "Expecting"),
        ('{"split": 3}', ["--repeats", "2"], "split"),
        ('{"lambda_grid": 0.1}', [], "lambda_grid"),
        (None, ["--config", "no/such/config.json"], "cannot load"),
        ('{"gamma": true}', [], "gamma"),
        ('{"dataset": {"kind": "csv", "path": "TMP/missing.csv"}}', [], "dataset.path"),
        ('{"dataset": {"kind": "csv", "path": "TMP/bad.csv"}}', [], "dataset.path"),
        ('{"dataset": {"kind": "csv", "path": "TMP/huge200.csv"}}', [], "dataset.path"),
        ('{"dataset": {"kind": "csv", "path": "TMP/huge308.csv"}}', [], "dataset.path"),
        (None, ["select", "--eta", "0"], "eta"),
        ('{"dataset": {"n": 10, "reduce_to": null}, "split": {"train_fraction": 0.05}}', [],
         "split.train_fraction"),
        ('{"dataset": {"n": 1, "reduce_to": null}}', [], "dataset.n"),
        ('{"dataset": {"n": 20}}', [], "dataset.reduce_to"),
        ('{"lipschitz_L": 0.01}', [], "lipschitz_L must be finite and >= kappa=1.0"),
        ('{"foo": 1}', [], "unexpected keyword argument 'foo'"),
        ('{"dataset": {"kind": "csv"}}', [], "dataset.path: required for kind 'csv'"),
    ], ids=["lambda_flag", "epsilon_flag", "list_top_level", "malformed_json",
            "split_not_object", "grid_not_list", "missing_file", "bool_number",
            "csv_missing", "csv_malformed", "csv_1e200", "csv_1e308", "select_eta_0",
            "split_empty_side", "one_row", "reduce_to_above_n", "lipschitz_below_kappa",
            "unknown_key", "csv_without_path"])
    def test_bad_config_or_flag_exit_code(self, tmp_path, capsys, text, flags, path):
        # each of these used to exit 1 with a traceback
        cfg = tmp_path / "cfg.json"
        (tmp_path / "bad.csv").write_text("x0,label\n1.0,abc\n2.0\n")
        # finite cells whose column deviation (1e200) or sum (1e308) overflows
        for e in (200, 308):
            (tmp_path / f"huge{e}.csv").write_text(
                "x0,x1,label\n" + "".join(f"{i},{1 + i % 2 / 2}e{e},{i % 2}\n" for i in range(6)))
        if text is not None:
            cfg.write_text(text.replace("TMP", str(tmp_path)))
            flags = ["--config", str(cfg), *flags]
        # flags that start with a command run it; the others run sweep
        argv = flags if flags[:1] == ["select"] else ["sweep", *flags]
        assert main([*argv, "--out", str(tmp_path / "res")]) == 2
        assert path in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("flags", [["sensitivity", "--trials", "0"],
                                       ["sensitivity", "--trials", "-3"],
                                       ["stability", "--probes", "0"],
                                       ["flips", "--draws", "0"],
                                       ["dp", "--samples", "0"]],
                             ids=["trials_0", "trials_neg", "probes_0", "draws_0", "samples_0"])
    def test_verify_counts_must_be_positive(self, capsys, flags):
        # zero trials used to print PASS, zero draws to divide by zero
        with pytest.raises(SystemExit) as exc:
            main(["verify", *flags])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_fetch_via_argv(self, tmp_path, capsys):
        content = ("1, Private, 2, Bachelors, 3, Never-married, Sales, Own-child, White,"
                   " Male, 0, 0, 40, United-States, <=50K\n"
                   "2, Private, 3, Bachelors, 4, Never-married, Sales, Own-child, Black,"
                   " Female, 0, 0, 50, United-States, >50K\n")
        src = tmp_path / "raw.data"
        src.write_text(content)
        digest = hashlib.sha256(content.encode()).hexdigest()
        code = main(["fetch", "adult", "--dest", str(tmp_path / "adult.csv"),
                     "--url", src.as_uri(), "--sha256", digest,
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        assert (tmp_path / "adult.csv").exists()

    def test_fetch_failure_exit_code(self, tmp_path, capsys):
        code = main(["fetch", "adult", "--dest", str(tmp_path / "x.csv"),
                     "--url", (tmp_path / "missing.data").as_uri(),
                     "--sha256", "0" * 64, "--cache-dir", str(tmp_path / "c")])
        assert code == 1
