"""Dataset ingestion, preprocessing, seeded splits, and synthetic generators.

Canonical CSV format: UTF-8 (a leading byte-order mark is read past), one
header row of distinct names, comma-separated, '.' decimal separator, label
in a named column (default: the last column). Datasets and
the CLI's result tables share one writer, ``_write_rows``: ``repr`` floats,
``\n`` line ends.

Preprocessing is one fitted transform: ``fit_preprocess(S, k, seed)`` fits a
randomized truncated SVD to k columns and the column standardization on S,
and its ``apply(S', kappa)`` projects, standardizes, and maps every finite row
into the kappa ball along its own direction, as ``synth_classification`` does.
The CLI fits on every record before splitting, so each stated epsilon covers a
neighbour differing in one *preprocessed* row, not one raw record (one raw
record has moved the released weights 91-237 times the direct bound).
"""

from __future__ import annotations

import math
import os
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import (_COUNT, _INTEGER, _NONNEGATIVE, _POSITIVE, Dataset, _at_least,
                    _require, _Stack)
from .rng import derive_rng

__all__ = [
    "SplitPlan",
    "DataFormatError",
    "FetchError",
    "load_csv",
    "write_csv",
    "Preprocessing",
    "fit_preprocess",
    "preprocess",
    "split",
    "synth_classification",
    "fetch_dataset",
    "convert_adult",
    "DATASETS",
]


class DataFormatError(ValueError):
    """Malformed input data; message carries file line numbers."""


class FetchError(RuntimeError):
    """Download, checksum, or conversion failure; no partial file remains."""


@dataclass(frozen=True)
class SplitPlan:
    """Seeded repeated train/test splitting."""

    seed: int = 0
    train_fraction: float = 0.8
    repeats: int = 10

    def __post_init__(self):
        _require("seed", self.seed, *_INTEGER)
        _require("train_fraction", self.train_fraction, lambda v: 0 < v < 1, "in (0, 1)")
        _require("repeats", self.repeats, *_COUNT)


def load_csv(path, label_column: str | None = None) -> Dataset:
    """Parse a canonical CSV into a Dataset.

    The label is taken from ``label_column``, which must name exactly one
    header cell (or the last column when not given); every cell, the label's
    included, must be a finite number. All malformed lines are reported
    together, with their 1-based line numbers.
    """
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"no such file: {path}")
    # a byte-order mark would otherwise open the first header cell
    with open(path, encoding="utf-8-sig") as fh:  # numbered before the blank lines go
        lines = [(i, ln) for i, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines:
        raise DataFormatError(f"{path}: no rows")
    header = [c.strip() for c in lines[0][1].split(",")]
    if label_column is None:
        label_idx = len(header) - 1
    else:
        if label_column not in header:
            raise DataFormatError(
                f"{path}: label column {label_column!r} not in header {header}"
            )
        if header.count(label_column) > 1:
            raise DataFormatError(f"{path}: label column {label_column!r} names "
                                  f"{header.count(label_column)} header cells")
        label_idx = header.index(label_column)
    if len(lines) == 1:
        raise DataFormatError(f"{path}: no rows")

    rows, labels, bad = [], [], []
    for lineno, line in lines[1:]:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            bad.append(f"line {lineno}: expected {len(header)} cells, got {len(cells)}")
            continue
        try:
            values = [float(c) for c in cells]
        except ValueError:
            culprit = next(c for c in cells if not _is_number(c))
            bad.append(f"line {lineno}: non-numeric cell {culprit!r}")
            continue
        culprit = next((c for c, v in zip(cells, values) if not math.isfinite(v)), None)
        if culprit is not None:
            bad.append(f"line {lineno}: non-finite cell {culprit!r}")
            continue
        labels.append(values.pop(label_idx))
        rows.append(values)
    if bad:
        raise DataFormatError(f"{path}: {len(bad)} malformed row(s): " + "; ".join(bad))
    return Dataset(np.array(rows, dtype=float), np.array(labels, dtype=float))


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _fmt(v) -> str:
    """A CSV cell: "" for None, ``repr`` of a float (numpy's included), else ``str``."""
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _write_rows(path, columns: list, rows) -> None:
    """The package's one CSV writer: the ``columns`` header, then one line per row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


def write_csv(S: Dataset, path, feature_names=None, label_name: str = "label") -> Path:
    """Write a Dataset in canonical CSV form (label last, repr-exact floats).

    The feature and label names must be distinct, hold no ',', '\\r' or
    '\\n' and start and end with no whitespace, so that ``load_csv``, which
    strips each header cell, reads the header back one name a cell, each
    as given, and finds the label by its name alone.
    """
    path = Path(path)
    names = [f"f{i}" for i in range(S.d)] if feature_names is None else feature_names
    if len(names) != S.d:
        raise ValueError(f"need {S.d} feature names, got {len(names)}")
    columns = [*names, label_name]
    for name in columns:
        if any(c in name for c in ",\r\n"):
            raise ValueError(f"column name {name!r} holds ',', '\\r' or '\\n'")
        if name != name.strip():
            raise ValueError(f"column name {name!r} starts or ends with whitespace")
    twice = [name for name, k in Counter(columns).items() if k > 1]
    if twice:
        raise ValueError(f"column name {twice[0]!r} appears {columns.count(twice[0])} times")
    # one record at a time, as Python floats: their repr is the numpy values' repr
    _write_rows(path, columns,
                (x.tolist() + [y] for x, y in zip(S.features, S.labels.tolist())))
    return path


@dataclass(frozen=True)
class Preprocessing:
    """A fitted preprocessing: ``basis``, the (d, k) kept right singular vectors (None
    when nothing is reduced), then the standardized columns' means and floored scales."""

    basis: np.ndarray | None
    mean: np.ndarray
    scale: np.ndarray

    def apply(self, S: Dataset, kappa: float = 1.0) -> Dataset:
        """Project, standardize, then rescale each row of norm above kappa to kappa.

        S must have the width of the dataset the fit was made on."""
        _require("kappa", kappa, *_POSITIVE)
        width = self.mean.size if self.basis is None else self.basis.shape[0]
        if S.d != width:
            raise ValueError(f"the preprocessing was fit on {width} columns, "
                             f"but S has {S.d}")
        X = (S.features if self.basis is None else S.features @ self.basis) - self.mean
        X /= self.scale
        _rebound(X, kappa)
        return Dataset(X, S.labels)


def _rebound(X: np.ndarray, kappa: float) -> None:
    """Rescale in place each row of X of norm above kappa to norm kappa, along its
    direction; a finite row whose squared norm overflows is measured as
    max|x| * ||x / max|x|||. A row with an inf or NaN entry comes out non-finite,
    for ``Dataset``'s non-finite check to refuse."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(X, axis=1)
        huge = np.flatnonzero(np.isinf(norms))
        huge = huge[np.isfinite(X[huge]).all(axis=1)]
        peak = np.abs(X[huge]).max(axis=1, keepdims=True)
        unit = X[huge] / peak  # a largest entry of +-1: its norm cannot overflow
        X *= (kappa / np.maximum(norms, kappa))[:, None]
    # the row's factor kappa / max(peak * ||unit||, kappa), applied to unit = row / peak
    X[huge] = unit * np.minimum(peak, kappa / np.linalg.norm(unit, axis=1, keepdims=True))


def _column_stats(X: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Column means and sample deviations; a column whose sum or square overflows raises."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean, scale = X.mean(axis=0), X.std(axis=0, ddof=1)
        bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(scale)))
    if bad.size:
        raise DataFormatError(f"{what} {bad[0]} (0-based) overflows its mean or deviation")
    return mean, scale


def fit_preprocess(S: Dataset, k: int | None, seed: int = 0) -> Preprocessing:
    """Fit on S the reduction to k columns when k < d (a randomized range finder, 8 extra
    directions, 2 QR-re-orthonormalized power iterations, deterministic given the seed),
    then the standardization of the reduced columns."""
    if S.n < 2:
        raise ValueError(f"fit_preprocess needs n >= 2, got n={S.n}")
    X, basis = S.features, None
    # the raw columns' sums also guard the range finder's products
    mean, scale = _column_stats(X, "feature column")
    if k is not None and k < S.d:
        top = min(S.n, S.d)  # the range finder spans at most min(n, d) directions
        _require("k", k, lambda v: 1 <= v <= top, f"an integer in [1, min(n, d)={top}]", int)
        omega = derive_rng(seed, 7).standard_normal((S.d, min(k + 8, S.d)))
        Q, _ = np.linalg.qr(X @ omega)
        for _ in range(2):
            Z, _ = np.linalg.qr(X.T @ Q)
            Q, _ = np.linalg.qr(X @ Z)
        basis = np.linalg.svd(Q.T @ X, full_matrices=False)[2][:k].T
        mean, scale = _column_stats(X @ basis, "reduced column")
    # constant columns map to zeros; the threshold is relative so columns
    # that are constant up to float rounding are not amplified into noise
    floor = 1e-12 * max(float(scale.max(initial=0.0)), 1.0)
    return Preprocessing(basis, mean, np.where(scale <= floor, 1.0, scale))


def preprocess(S: Dataset, k: int | None, seed: int = 0, kappa: float = 1.0) -> Dataset:
    """Reduction to k columns (when k < d) -> standardization -> kappa rebound, fit on S."""
    return fit_preprocess(S, k, seed).apply(S, kappa)


def split(S: Dataset, plan: SplitPlan) -> tuple[_Stack, _Stack]:
    """Seeded repeated 80/20-style splits; fresh permutation per repeat.

    Returns ``(train, test)``, each side one stack gathered in one pass from
    the repeats' permutations: (repeats, n_side, d) features and their
    (repeats, n_side, 1) raw labels.
    """
    return tuple(_gather(S, rows) for rows in _split_indices(S, plan))


def _split_indices(S: Dataset, plan: SplitPlan) -> tuple[np.ndarray, np.ndarray]:
    """The (repeats, n_side) row indices of ``split``'s train and test sides."""
    n_train = int(math.floor(plan.train_fraction * S.n))
    if n_train < 1 or n_train >= S.n:
        raise ValueError(
            f"split of n={S.n} at fraction {plan.train_fraction} leaves an empty side"
        )
    P = np.stack([derive_rng(plan.seed, 11, r).permutation(S.n) for r in range(plan.repeats)])
    return P[:, :n_train], P[:, n_train:]


def _gather(S: Dataset, rows: np.ndarray) -> _Stack:
    """The stack of one side of ``split``: S's records at the (repeats, n_side) ``rows``."""
    return _Stack(S.features[rows], S.labels[rows, None])


def synth_classification(n: int, d: int, classes: int = 2, sparsity: int | None = None,
                         noise: float = 0.0, seed: int = 0, kappa: float = 1.0,
                         structured_noise: bool = False, label_flips: float = 0.0):
    """Linearly separable classification data with sparse planted structure.

    Each class c has a ground-truth direction w_c with exactly ``sparsity``
    nonzeros on a shared support; a class-c row is the unit vector along
    w_c plus Gaussian noise of deviation ``noise``, rescaled to norm at
    most kappa. With ``structured_noise`` the noise is confined to the span
    of the class means, planting a low-rank discriminative latent subspace
    inside the ambient dimensions (ambient directions outside it carry no
    variance); otherwise the noise is isotropic over all d coordinates.
    ``label_flips`` relabels that fraction of rows to a different class,
    which keeps fitted weights at a data-determined plateau instead of
    letting a perfectly separable fit shrink them with the regularizer.

    Binary problems (classes=2) get +/-1 labels and a single truth vector
    (the class direction of label +1); multiclass problems get integer
    labels 0..classes-1 and one truth row per class.

    Returns (Dataset, truth).
    """
    _require("n", n, *_COUNT)
    _require("d", d, *_COUNT)
    _require("classes", classes, *_at_least(2))
    sparsity = d if sparsity is None else sparsity
    _require("sparsity", sparsity, lambda v: 1 <= v <= d, f"an integer in [1, d={d}]", int)
    _require("noise", noise, *_NONNEGATIVE)
    _require("kappa", kappa, *_POSITIVE)
    _require("label_flips", label_flips, lambda v: 0 <= v < 1, "in [0, 1)")
    rng = derive_rng(seed, 13)

    support = rng.choice(d, size=sparsity, replace=False)

    def truth_row() -> np.ndarray:
        w = np.zeros(d)
        w[support] = rng.uniform(0.5, 1.5, size=sparsity) * rng.choice([-1.0, 1.0], size=sparsity)
        return w

    if classes == 2:
        w_true = truth_row()
        means = np.stack([-w_true / np.linalg.norm(w_true), w_true / np.linalg.norm(w_true)])
        labels = np.array([-1.0, 1.0])
    else:
        W_true = np.stack([truth_row() for _ in range(classes)])
        means = W_true / np.linalg.norm(W_true, axis=1, keepdims=True)
        labels = np.arange(classes, dtype=float)

    cls = np.arange(n) % means.shape[0]
    # a huge noise overflows a deviation to inf (or, in the product with a
    # basis, inf * 0 to nan): refused by name below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        if structured_noise:
            basis = np.linalg.qr(means.T)[0].T  # orthonormal rows spanning the means
            deviations = noise * rng.standard_normal((n, basis.shape[0])) @ basis
        else:
            deviations = noise * rng.standard_normal((n, d))
    if not np.isfinite(deviations).all():
        raise ValueError(f"noise={noise} overflows the Gaussian deviations; "
                         f"a smaller noise is needed")
    X = means[cls] + deviations
    _rebound(X, kappa)
    y = labels[cls]
    if label_flips > 0:
        n_flip = int(round(label_flips * n))
        flip_idx = rng.choice(n, size=n_flip, replace=False)
        shift = rng.integers(1, means.shape[0], size=n_flip)
        if classes == 2:
            y[flip_idx] = -y[flip_idx]
        else:
            y[flip_idx] = (y[flip_idx] + shift) % classes
    S = Dataset(X, y)
    return (S, w_true) if classes == 2 else (S, W_true)


# ---------------------------------------------------------------------------
# dataset fetching

ADULT_COLUMNS = [
    "age", "workclass", "fnlwgt", "education", "education_num", "marital_status",
    "occupation", "relationship", "race", "sex", "capital_gain", "capital_loss",
    "hours_per_week", "native_country", "income",
]
ADULT_CATEGORICAL = {
    "workclass", "education", "marital_status", "occupation", "relationship",
    "race", "sex", "native_country",
}

DATASETS = {
    "adult": {
        "url": "https://archive.ics.uci.edu/ml/machine-learning-databases/adult/adult.data",
        "sha256": None,  # must be configured; see fetch_dataset
    },
}

ENV_CACHE_DIR = "STABLEDP_CACHE_DIR"
ENV_URL = "STABLEDP_FETCH_URL"
ENV_SHA256 = "STABLEDP_FETCH_SHA256"


def _sha256_of(path: Path) -> str:
    import hashlib  # only fetch needs it: not imported with the package
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def convert_adult(raw_path, out_path) -> dict:
    """Census-income raw rows -> canonical CSV.

    Numeric columns pass through; categoricals are one-hot encoded; rows
    with missing cells ('?') are dropped and counted; income becomes the
    binary label (1 = high bracket). A numeric cell that does not parse
    raises ``FetchError`` naming its column, before any file is written.
    """
    raw_path, out_path = Path(raw_path), Path(out_path)
    rows, dropped = [], 0
    with open(raw_path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip().rstrip(".")
            if not line:
                continue
            cells = [c.strip() for c in line.split(",")]
            if len(cells) != len(ADULT_COLUMNS) or "?" in cells:
                dropped += 1
                continue
            rows.append(cells)
    if not rows:
        raise FetchError(f"{raw_path}: no usable rows")

    names, blocks = [], []
    *features, income = zip(*rows)
    for col, cells in zip(ADULT_COLUMNS, features):
        if col in ADULT_CATEGORICAL:
            values = sorted(set(cells))
            names += [f"{col}={v}" for v in values]
            blocks.append(np.array(cells)[:, None] == np.array(values))
        else:
            names.append(col)
            try:
                blocks.append(np.array(cells, dtype=float)[:, None])
            except ValueError as err:
                raise FetchError(f"{raw_path}: column {col!r}: {err}") from err
    labels = np.char.startswith(np.array(income), ">").astype(float)
    write_csv(Dataset(np.hstack(blocks), labels), out_path, feature_names=names,
              label_name="income_high")
    return {"rows": len(rows), "dropped": dropped, "columns": len(names)}


def fetch_dataset(name: str, destination, url: str | None = None,
                  sha256: str | None = None, cache_dir=None,
                  allow_unverified: bool = False) -> Path:
    """Download a named dataset, verify its checksum, convert to canonical CSV.

    Resolution order for the URL and checksum: explicit argument, then the
    STABLEDP_FETCH_URL / STABLEDP_FETCH_SHA256 environment variables, then
    the built-in registry. A cached raw file (in ``cache_dir`` or
    STABLEDP_CACHE_DIR) that matches the checksum is used without any
    network access; with no checksum (``allow_unverified``) nothing can
    tell the cached file's source, so the raw file is downloaded again.
    Failures never leave a partial destination file.
    """
    if name not in DATASETS:
        raise FetchError(f"unknown dataset {name!r}; known: {sorted(DATASETS)}")
    entry = DATASETS[name]
    url = url or os.environ.get(ENV_URL) or entry["url"]
    sha256 = sha256 or os.environ.get(ENV_SHA256) or entry["sha256"]
    if sha256 is None and not allow_unverified:
        raise FetchError(
            f"no checksum configured for {name!r}; set {ENV_SHA256} or pass sha256="
        )
    destination = Path(destination)
    destination.parent.mkdir(parents=True, exist_ok=True)
    cache_dir = Path(cache_dir or os.environ.get(ENV_CACHE_DIR) or
                     Path.home() / ".cache" / "stabledp")
    cache_dir.mkdir(parents=True, exist_ok=True)
    raw_cached = cache_dir / f"{name}.raw"

    def checksum_ok(p: Path) -> bool:
        return sha256 is None or _sha256_of(p) == sha256

    if sha256 is None or not (raw_cached.exists() and checksum_ok(raw_cached)):
        import urllib.request  # slow to import, and only a download needs it
        part = raw_cached.with_suffix(".part")
        try:
            with urllib.request.urlopen(url) as resp, open(part, "wb") as out:
                shutil.copyfileobj(resp, out)
        except OSError as exc:
            part.unlink(missing_ok=True)
            raise FetchError(f"download of {url} failed: {exc}") from exc
        if not checksum_ok(part):
            got = _sha256_of(part)
            part.unlink(missing_ok=True)
            raise FetchError(
                f"checksum mismatch for {name}: expected {sha256}, got {got}"
            )
        os.replace(part, raw_cached)

    tmp_out = destination.with_suffix(destination.suffix + ".part")
    try:
        convert_adult(raw_cached, tmp_out)
    except Exception:
        tmp_out.unlink(missing_ok=True)
        raise
    os.replace(tmp_out, destination)
    return destination
