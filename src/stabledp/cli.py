"""Command-line experiment runner.

Subcommands:

* ``train``:  accuracy over the lambda grid at a single privacy setting.
* ``sweep``:  the full lambda x epsilon grid; per-cell noise scale, beta,
              sensitivity, and per-repeat test accuracy.
* ``select``: private vs. non-private feature-selection agreement (F1) and
              closed-form flip-rate predictions per feature.
* ``verify``: empirical oracle suites for every implemented bound.
* ``fetch``:  download and convert a named dataset.

Every experiment is driven by a single JSON config; each flag mirrors a
config path and overrides the file. Result files are one CSV plus one JSON
metadata sidecar, with no timestamps, so identical (config, seeds) re-runs
produce byte-identical bytes. Grid cells are released by ``privacy.release``,
which keys each split's noise stream by (master seed, command, lambda bits,
epsilon bits, split), so any cell re-run alone reproduces its in-grid bytes.

Exit codes: 0 on success; 1 when a verify check lands on the wrong
verdict or a fetch fails; 2 on a config or flag error; 3 when the solver
does not converge (``ConvergenceError``). A config or solver error writes
no result file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .data_io import (DataFormatError, SplitPlan, _gather, _split_indices, _write_rows,
                      fetch_dataset, load_csv, preprocess, synth_classification)
from .features import f1_similarity, flip_probability, lemma_noise, select_features
from .model import (
    _COUNT,
    _NONNEGATIVE,
    _POSITIVE,
    Dataset,
    ObjectiveSpec,
    _at_least,
    _one_of,
    _require,
    _Stack,
    as_signed_labels,
)
from .optimizer import ConvergenceError
from .privacy import (
    CALIBRATIONS,
    Noise,
    dp_micro_check,
    perturb,
    release,
)
from .rng import derive_rng
from .stability import sensitivity_via_strong_convexity

SCHEMA_VERSION = 1

SWEEP_COLUMNS = [
    "lambda", "epsilon", "noise_mode", "noise_scale", "beta", "sensitivity_l2",
    "repeat", "test_accuracy", "test_accuracy_std",
]
SELECT_COLUMNS = [
    "lambda", "epsilon", "noise_mode", "noise_scale", "threshold_mode", "threshold_T",
    "repeat", "f1_similarity", "observed_flip_rate", "predicted_flip_rate",
    "f1_similarity_std",
]
SELECT_FLIP_COLUMNS = [
    "lambda", "epsilon", "feature", "mean_abs_weight", "predicted_flip_rate",
    "observed_flip_rate",
]

NOISE_MODES = ("stability_optimal", "fixed_scale", "none")
THRESHOLD_MODES = ("dynamic", "static")
DATASET_KINDS = ("synthetic", "csv")

DATASET_RANGES = {
    "kind": _one_of(DATASET_KINDS), "n": _COUNT, "d": _COUNT, "classes": _at_least(2),
    "sparsity": _COUNT, "reduce_to": _COUNT, "noise": _NONNEGATIVE,
    "label_flips": (lambda v: 0 <= v < 1, "in [0, 1)", float), "kappa": _POSITIVE,
}
# gamma, eta, loss_kind and lipschitz_L: the ObjectiveSpec SweepConfig builds checks them
SWEEP_RANGES = {
    "noise_mode": _one_of(NOISE_MODES), "fixed_scale_b": _POSITIVE,
    "scale_mode": _one_of(CALIBRATIONS), "tolerance": _POSITIVE, "max_iters": _COUNT,
    "threshold_mode": _one_of(THRESHOLD_MODES), "threshold_k": _POSITIVE,
    "static_T": _NONNEGATIVE,
}


class ConfigError(ValueError):
    """Invalid experiment config; message carries the offending field path."""


# the (ok, want, kind) of a config field that no range table lists, by annotation
_FIELD_KINDS = {k.__name__: (lambda _: True, want, k) for k, want in (
    (int, "an integer"), (float, "a number"), (str, "a string"), (bool, "true or false"))}


def _check_fields(cfg, ranges: dict, prefix: str = "") -> None:
    """Each plain field through ``_require`` as a ``ConfigError`` on its path: the type
    from its annotation, or the ``ranges`` triple; a field annotated ``| None`` may be null.
    """
    for f in dataclasses.fields(cfg):
        kind, _, nullable = f.type.partition(" | ")
        v = getattr(cfg, f.name)
        if kind not in _FIELD_KINDS or (nullable and v is None):
            continue
        ok, want, kind = ranges.get(f.name, _FIELD_KINDS[kind])
        _require(prefix + f.name, v, ok, ("null or " if nullable else "") + want, kind,
                 ConfigError)


@dataclass(frozen=True)
class DatasetConfig:
    kind: str = "synthetic"
    path: str | None = None
    label_column: str | None = None
    n: int = 2000
    d: int = 48
    classes: int = 4
    sparsity: int | None = 8
    noise: float = 0.3
    structured_noise: bool = True
    label_flips: float = 0.0
    seed: int = 7
    reduce_to: int | None = 32
    kappa: float = 1.0

    def __post_init__(self):
        # sparsity <= d is checked when the data is built: a config that
        # never builds synthetic data may leave d below the default sparsity
        _check_fields(self, DATASET_RANGES, "dataset.")


@dataclass(frozen=True)
class SweepConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    split: SplitPlan = field(default_factory=SplitPlan)
    lambda_grid: tuple = (0.001, 0.003, 0.01, 0.03, 0.1, 0.2, 0.5, 1.0)
    epsilon_grid: tuple = (1.0,)
    gamma: float = 0.85
    eta: float = 0.15
    noise_mode: str = "stability_optimal"
    fixed_scale_b: float | None = None
    scale_mode: str = "verbatim"
    loss_kind: str = "logistic"
    lipschitz_L: float | None = None
    tolerance: float = 1e-6
    max_iters: int = 100_000
    threshold_mode: str = "dynamic"
    threshold_k: float = 1.0
    static_T: float = 0.1
    master_seed: int = 0

    def __post_init__(self):
        for key in ("lambda_grid", "epsilon_grid"):
            grid = getattr(self, key)
            _require(key, grid, bool, "a nonempty list", (tuple, list), ConfigError)
            object.__setattr__(self, key, tuple(grid))
            for i, v in enumerate(grid):
                _require(f"{key}[{i}]", v, *_POSITIVE, ConfigError)
        _check_fields(self, SWEEP_RANGES)
        if self.noise_mode == "fixed_scale" and self.fixed_scale_b is None:
            raise ConfigError("fixed_scale_b: must be set in fixed_scale mode")
        if self.loss_kind == "squared" and self.lipschitz_L is None:
            # kappa is the logistic loss's constant; the squared loss has none
            raise ConfigError("lipschitz_L: must be set for the squared loss")
        try:  # the spec checks lipschitz_L against dataset.kappa
            _objective(self, self.lambda_grid[0])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def config_from_dict(raw: dict) -> SweepConfig:
    """Build a config from a JSON dict, reporting bad fields by path."""
    raw = dict(raw)
    try:
        ds = DatasetConfig(**raw.pop("dataset", {}))
    except TypeError as exc:
        raise ConfigError(f"dataset: {exc}") from exc
    try:
        sp = SplitPlan(**raw.pop("split", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"split: {exc}") from exc
    try:
        return SweepConfig(dataset=ds, split=sp, **raw)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path=None, overrides: dict | None = None) -> SweepConfig:
    raw = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: malformed JSON or not UTF-8
            raise ConfigError(f"config: cannot load {path}: {exc}") from exc
    _require("config: top level", raw, lambda _: True, "a JSON object", dict, ConfigError)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        node = raw
        *parents, leaf = key.split(".")
        for p in parents:
            node = node.setdefault(p, {})
            _require(p, node, lambda _: True, "a JSON object", dict, ConfigError)
        node[leaf] = value
    return config_from_dict(raw)


# ---------------------------------------------------------------------------
# experiment core


def build_dataset(cfg: SweepConfig) -> Dataset:
    ds = cfg.dataset
    if ds.kind == "synthetic":
        if ds.sparsity is not None and ds.sparsity > ds.d:
            raise ConfigError(f"dataset.sparsity: must be at most d={ds.d}, got {ds.sparsity}")
        S, _ = synth_classification(ds.n, ds.d, classes=ds.classes, sparsity=ds.sparsity,
                                    noise=ds.noise, seed=ds.seed, kappa=ds.kappa,
                                    structured_noise=ds.structured_noise,
                                    label_flips=ds.label_flips)
    else:  # csv
        if ds.path is None:
            raise ConfigError("dataset.path: required for kind 'csv'")
        try:
            S = load_csv(ds.path, ds.label_column)
        except (OSError, ValueError) as exc:  # a missing, unreadable or malformed file
            raise ConfigError(f"dataset.path: {exc}") from exc
    if S.n < 2:  # standardization takes a sample variance
        raise ConfigError(f"dataset.n: preprocessing needs at least 2 rows, got {S.n}")
    try:
        return preprocess(S, ds.reduce_to, seed=ds.seed, kappa=ds.kappa)
    except DataFormatError as exc:  # a column too large to standardize
        raise ConfigError(f"dataset.path: {ds.path}: {exc}") from exc
    except ValueError as exc:  # reduce_to above the row count
        raise ConfigError(f"dataset.reduce_to: {exc}") from exc


def _objective(cfg: SweepConfig, lam: float) -> ObjectiveSpec:
    return ObjectiveSpec(cfg.loss_kind, lam, penalty="elastic", gamma=cfg.gamma,
                         eta=cfg.eta, kappa=cfg.dataset.kappa, lipschitz_L=cfg.lipschitz_L)


def predict(W: np.ndarray, classes: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The (m, n) labels of an (m, n, d) stack under its (m, d, K) weights, in one
    batched product whose every slice is its split's own (gemv when K = 1)."""
    Z = X @ W
    if classes.size == 2:
        return np.where(Z[..., 0] >= 0, classes[1], classes[0])
    return classes[np.argmax(Z, axis=-1)]


def accuracy(W: np.ndarray, classes: np.ndarray, S: _Stack) -> np.ndarray:
    """One accuracy per dataset of the stack S, whose labels are (m, n, 1)."""
    return np.mean(predict(W, classes, S.features) == S.labels[..., 0], axis=1)


def _write_json(path, payload: dict) -> None:
    """Write ``payload`` as indented, key-sorted JSON, making the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_outputs(out_dir, command: str, cfg: SweepConfig, columns: list, rows: list,
                   extra: dict | None = None) -> Path:
    """Write ``<command>.csv`` and its ``<command>.meta.json`` sidecar; return the CSV path."""
    out_dir = Path(out_dir)
    # the sidecar goes first: its writer makes out_dir
    _write_json(out_dir / f"{command}.meta.json", {
        "schema_version": SCHEMA_VERSION, "command": command, "columns": columns,
        "config": dataclasses.asdict(cfg), **(extra or {})})
    csv_path = out_dir / f"{command}.csv"
    _write_rows(csv_path, columns, rows)
    return csv_path


def _split_rows(cell: list, *columns) -> list:
    """``cell`` with each split's index and column values, one row per split, then
    the aggregate row: -1, each column's mean and the sample std of the first."""
    first = columns[0]
    std = float(np.std(first, ddof=1)) if len(first) > 1 else 0.0
    return ([cell + [r, *vals, None] for r, vals in enumerate(zip(*columns))]
            + [cell + [-1, *(float(np.mean(c)) for c in columns), std]])


def _cells(cfg: SweepConfig, epsilons, stream: int, test: bool = True):
    """The test stack, sorted labels and training size, and a generator of
    ``(spec, eps, rel)`` per lambda x epsilon cell, ``rel`` its ``privacy.Release``.

    The splits are ``data_io.split``'s. Only the accuracy callers read the
    test side; ``cmd_select`` passes ``test=False``, which gathers no test
    stack and returns None in its place, so its solve holds no array it
    does not read. One ``release`` call trains the whole lambda grid in one
    block solve over every split, shared by every epsilon, with split r's
    noise drawn from the stream keyed (master seed, ``stream``, lambda bits,
    epsilon bits, r).
    """
    S = build_dataset(cfg)
    try:
        sides = _split_indices(S, cfg.split)
    except ValueError as exc:  # a side left empty
        raise ConfigError(f"split.train_fraction: {exc}") from exc
    train = _gather(S, sides[0])
    test = _gather(S, sides[1]) if test else None
    # sorted distinct labels; np.unique would import numpy.ma mid-pass
    classes = np.array(sorted(set(S.labels.tolist())))
    # the stacks hold every row from here: the solve runs without the dataset's copy
    del S, sides
    train = _Stack(train.features, as_signed_labels(
        train.labels[..., 0], positive=classes[1:] if classes.size == 2 else classes))
    noise = (cfg.scale_mode if cfg.noise_mode == "stability_optimal" else
             Noise(float(cfg.fixed_scale_b) if cfg.noise_mode == "fixed_scale" else 0.0))
    specs = [_objective(cfg, lam) for lam in cfg.lambda_grid]
    releases = release(specs, train, epsilons, noise, seed=cfg.master_seed, stream=stream,
                       tolerance=cfg.tolerance, max_iters=cfg.max_iters)
    cells = ((spec, eps, rel) for spec, rels in zip(specs, releases)
             for eps, rel in zip(epsilons, rels))
    return test, classes, train.n, cells


def _accuracy_rows(cfg: SweepConfig, epsilons) -> list:
    test, classes, _, cells = _cells(cfg, epsilons, 31)
    rows = []
    for spec, eps, rel in cells:
        cell = [spec.lam, eps, cfg.noise_mode, rel.noise.scale, rel.cert.beta,
                sensitivity_via_strong_convexity(rel.cert)]
        rows += _split_rows(cell, accuracy(rel.noisy_weights, classes, test))
    return rows


def cmd_train(cfg: SweepConfig, out_dir) -> Path:
    """Lambda curve at one privacy setting (the first epsilon of the grid)."""
    return _write_outputs(out_dir, "train", cfg, SWEEP_COLUMNS,
                          _accuracy_rows(cfg, cfg.epsilon_grid[:1]))


def cmd_sweep(cfg: SweepConfig, out_dir) -> Path:
    """Full lambda x epsilon grid."""
    return _write_outputs(out_dir, "sweep", cfg, SWEEP_COLUMNS,
                          _accuracy_rows(cfg, cfg.epsilon_grid))


def cmd_select(cfg: SweepConfig, out_dir) -> Path:
    """Feature-selection agreement between private and non-private models.

    A cell's splits form one (splits x weights) block, each row a split's
    weights in class-major order, the order of the ``feature`` index:
    per-split rates are its row means, per-feature rates its column means.
    """
    # a cell takes the flip lemma, which divides by eta, wherever T > 0 and there is noise
    if cfg.noise_mode != "none" and (cfg.threshold_mode == "dynamic" or cfg.static_T > 0):
        _require("eta", cfg.eta, *_POSITIVE, ConfigError)
    _, _, n_train, cells = _cells(cfg, cfg.epsilon_grid, 41, test=False)
    rows, flip_rows = [], []
    for spec, eps, rel in cells:
        lam, noise = spec.lam, rel.noise
        T = noise.threshold(cfg.threshold_k) if cfg.threshold_mode == "dynamic" else cfg.static_T
        cell = [lam, eps, cfg.noise_mode, noise.scale, cfg.threshold_mode, T]
        W, W_priv = (w.swapaxes(1, 2).reshape(len(w), -1)
                     for w in (rel.report.weights, rel.noisy_weights))
        keep, keep_priv = select_features(W, 0.0), select_features(W_priv, T)
        f1s, flips = f1_similarity(keep, keep_priv), keep != keep_priv
        pred = (flip_probability(T, W, lemma_noise(eps, lam, spec.eta, n_train, spec.L,
                                                   spec.kappa))
                if T > 0 and noise.scale > 0 else np.zeros(W.shape))
        rows += _split_rows(cell, f1s, flips.mean(axis=1), pred.mean(axis=1))
        flip_rows += [[lam, eps, j, *vals] for j, vals in enumerate(
            zip(np.abs(W).mean(axis=0), pred.mean(axis=0), flips.mean(axis=0)))]

    path = _write_outputs(out_dir, "select", cfg, SELECT_COLUMNS, rows,
                          extra={"flip_columns": SELECT_FLIP_COLUMNS})
    _write_rows(path.parent / "select_flips.csv", SELECT_FLIP_COLUMNS, flip_rows)
    return path


# ---------------------------------------------------------------------------
# verify suites

VERIFY_SUITES = ("sensitivity", "stability", "dp", "gradients", "flips", "all")


def _oracle_fixture(lams) -> tuple:
    """The oracles' grid of L2 logistic specs, one per lambda, and their 50 x 5 dataset."""
    S, _ = synth_classification(50, 5, classes=2, sparsity=5, noise=0.3, seed=5)
    return [ObjectiveSpec("logistic", lam, penalty="l2", kappa=1.0) for lam in lams], S


def _dp_checks(samples: int, seed: int) -> list:
    """(name, OracleReport, expected_pass) triples for the dp suite.

    Each check samples its release on S and on a neighbour through
    ``perturb``, as its ``Noise`` drawn around the dataset's statistic.
    The bounded-mean release has exact sensitivity 1/n (the worst neighbor
    swaps a 0 for a 1). The checked pair realizes 80% of it, so a
    correctly calibrated mechanism sits safely inside the threshold while
    the half-noise control's true ratio (e^1.6-fold) fails decisively.
    """
    n = 40
    values = np.linspace(0.0, 1.0, n)
    mean_S = float(np.mean(values))
    values[0] = 0.8
    means = (mean_S, float(np.mean(values)))

    # the CLI's release at the oracles' tolerance, one solve for S and its
    # neighbour as the stack ``_neighbors`` draws; its check samples the kept
    # certificate's derived noise around each dataset's coordinate 0
    (spec,), S_erm = _oracle_fixture((0.5,))
    block, *_ = verify_mod._neighbors(spec, S_erm, 1, derive_rng(seed, 55))
    (rel,) = release(spec, block, (1.0,), "derived", seed=seed,
                     tolerance=verify_mod.SOLVE_TOLERANCE)

    def around(centre: float, noise: Noise):
        return lambda rng, size: perturb(np.broadcast_to(centre, size), noise, rng)

    checks = (("dp_known_sensitivity", means, Noise(1.0 / n), True),
              ("dp_negative_control", means, Noise(0.5 / n), False),
              ("dp_erm_release", rel.report.weights[:, 0, 0], rel.noise, True))
    return [(name, dp_micro_check(around(c_S, noise), around(c_Sp, noise), 1.0,
                                  samples=samples, seed=seed + i), expected)
            for i, (name, (c_S, c_Sp), noise, expected) in enumerate(checks)]


def run_verify_suite(suite: str, trials: int = 200, probes: int = 50,
                     samples: int = 1_000_000, draws: int = 100_000,
                     seed: int = 0) -> list:
    """Run one named suite; returns (name, report, expected_pass, ok) tuples."""
    if suite not in VERIFY_SUITES:
        raise ValueError(f"unknown suite {suite!r}; known: {VERIFY_SUITES}")
    wanted = VERIFY_SUITES[:-1] if suite == "all" else (suite,)
    results = []

    def add(name, report, expected=True):
        ok = report.passed == expected
        results.append((name, report, expected, ok))

    if "gradients" in wanted:
        for kind in ("logistic", "squared"):
            spec = ObjectiveSpec(kind, 0.1, penalty="l2", kappa=1.0, lipschitz_L=1.0)
            add(f"gradients_{kind}", verify_mod.gradient_check(spec, 100, seed=seed))
    for name, oracle, kwargs in (
            ("sensitivity", verify_mod.empirical_sensitivity, {}),
            ("stability", verify_mod.empirical_stability, {"probes": probes})):
        if name in wanted:
            specs, S = _oracle_fixture((0.1, 0.5, 2.0))
            for spec, report in zip(specs, oracle(specs, S, trials=trials, seed=seed, **kwargs)):
                add(f"{name}_lam_{spec.lam}", report)
    if "dp" in wanted:
        for name, report, expected in _dp_checks(samples, seed):
            add(name, report, expected)
    if "flips" in wanted:
        for i, T in enumerate((0.5, 1.0, 2.0)):
            for j, eps in enumerate((0.5, 1.0, 2.0)):
                noise = lemma_noise(eps, lam=0.1, eta=0.15, n=10_000, L=1.0, kappa=1.0)
                add(f"flips_T{T}_eps{eps}",
                    verify_mod.flip_rate_check(T, 0.0, noise, draws=draws,
                                               seed=seed + 10 * i + j))
    return results


def cmd_verify(suite: str, out_path=None, **sizes) -> int:
    """Run a verify suite, print one line per check, return a process exit code.

    ``sizes`` (trials, probes, samples, draws, seed) go to :func:`run_verify_suite`,
    which holds their defaults.
    """
    results = run_verify_suite(suite, **sizes)
    all_ok = True
    payload = []
    for name, report, expected, ok in results:
        all_ok &= ok
        line = "PASS" if ok else "FAIL"
        expectation = "" if expected else " (expected failure)"
        print(f"[{line}] {name}{expectation}: {report.summary()}")
        payload.append({"name": name, "expected_pass": expected, "ok": ok,
                        "report": report.to_dict()})
    if out_path is not None:
        _write_json(out_path, {"schema_version": SCHEMA_VERSION, "suite": suite,
                               "all_ok": all_ok, "checks": payload})
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# argument parsing


# (config path, argparse type or choices) of each override flag; a flag is
# named after its path's last part, so split.repeats is --repeats and
# static_T is --static-T, and a *_grid flag takes comma-separated values
CONFIG_FLAGS = (
    ("lambda_grid", str), ("epsilon_grid", str), ("noise_mode", NOISE_MODES),
    ("fixed_scale_b", float), ("scale_mode", CALIBRATIONS), ("gamma", float),
    ("eta", float), ("master_seed", int), ("split.repeats", int), ("tolerance", float),
    ("threshold_mode", THRESHOLD_MODES), ("static_T", float),
)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None, help="JSON config file")
    p.add_argument("--out", type=Path, default=Path("results"), help="output directory")
    for path, kind in CONFIG_FLAGS:
        key = path.split(".")[-1]
        p.add_argument("--" + key.replace("_", "-"), default=None,
                       **({"choices": kind} if isinstance(kind, tuple) else {"type": kind}),
                       help=(f"comma-separated {key.removesuffix('_grid')} values "
                             "(overrides config)" if key.endswith("_grid") else None))


def _grid(text: str | None, key: str):
    if text is None:
        return None
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _positive_int(text: str) -> int:
    """argparse type of a sample count: an oracle that samples nothing passes by construction."""
    _require("a sample count", int(text), lambda v: v >= 1, "a positive integer", int,
             argparse.ArgumentTypeError)
    return int(text)


def _config_from_args(args) -> SweepConfig:
    overrides = {}
    for path, _ in CONFIG_FLAGS:
        key = path.split(".")[-1]
        value = getattr(args, key)
        overrides[path] = _grid(value, key) if key.endswith("_grid") else value
    return load_config(args.config, overrides)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="stabledp",
                                     description="Stability-calibrated private ERM experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("train", "sweep", "select"):
        p = sub.add_parser(name)
        _add_config_flags(p)

    # an oracle size left out is not set here: run_verify_suite holds the defaults
    pv = sub.add_parser("verify", argument_default=argparse.SUPPRESS)
    pv.add_argument("suite", choices=VERIFY_SUITES)
    pv.add_argument("--out", type=Path, default=None, help="JSON report path")
    for flag in ("--trials", "--probes", "--samples", "--draws"):
        pv.add_argument(flag, type=_positive_int)
    pv.add_argument("--seed", type=int)

    pf = sub.add_parser("fetch")
    pf.add_argument("name")
    pf.add_argument("--dest", type=Path, required=True)
    pf.add_argument("--url", default=None)
    pf.add_argument("--sha256", default=None)
    pf.add_argument("--cache-dir", type=Path, default=None)
    pf.add_argument("--allow-unverified", action="store_true")

    args = parser.parse_args(argv)

    if args.command == "verify":
        sizes = {k: v for k, v in vars(args).items() if k not in ("command", "suite", "out")}
        return cmd_verify(args.suite, args.out, **sizes)
    if args.command == "fetch":
        try:
            path = fetch_dataset(args.name, args.dest, url=args.url, sha256=args.sha256,
                                 cache_dir=args.cache_dir,
                                 allow_unverified=args.allow_unverified)
        except Exception as exc:
            print(f"fetch failed: {exc}", file=sys.stderr)
            return 1
        print(path)
        return 0

    runner = {"train": cmd_train, "sweep": cmd_sweep, "select": cmd_select}[args.command]
    try:
        # building the dataset checks the fields that depend on each other
        path = runner(_config_from_args(args), args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        # raised before any result file is written
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
