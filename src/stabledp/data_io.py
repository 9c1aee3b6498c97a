"""Dataset ingestion, preprocessing, seeded splits, and synthetic generators.

Canonical CSV format: UTF-8, one header row, comma-separated, '.' decimal
separator, label in a named column (default: the last column).

The experiment preprocessing pipeline is dimensionality reduction by
randomized truncated SVD, then column-wise standardization, then rescaling
of any row whose norm exceeds the declared kappa bound. Reduction and
standardization are fit on the full matrix before splitting, matching the
protocol the sweep commands reproduce.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import urllib.request
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import _COUNT, _NONNEGATIVE, _POSITIVE, Dataset, _at_least, _require
from .rng import derive_rng

__all__ = [
    "SplitPlan",
    "DataFormatError",
    "FetchError",
    "load_csv",
    "write_csv",
    "standardize",
    "reduce_dim",
    "bound_row_norms",
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
        # a float seed would be truncated by derive_rng
        _require("seed", self.seed, lambda v: True, "an integer", int)
        _require("train_fraction", self.train_fraction, lambda v: 0 < v < 1, "in (0, 1)")
        _require("repeats", self.repeats, *_COUNT)


def load_csv(path, label_column: str | None = None) -> Dataset:
    """Parse a canonical CSV into a Dataset.

    The label is taken from ``label_column`` (or the last column when not
    given); every other cell must be numeric. All malformed lines are
    reported together, with their 1-based line numbers.
    """
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"no such file: {path}")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines = [ln for ln in lines if ln.strip() != ""]
    if not lines:
        raise DataFormatError(f"{path}: no rows")
    header = [c.strip() for c in lines[0].split(",")]
    if label_column is None:
        label_idx = len(header) - 1
    else:
        if label_column not in header:
            raise DataFormatError(
                f"{path}: label column {label_column!r} not in header {header}"
            )
        label_idx = header.index(label_column)
    if len(lines) == 1:
        raise DataFormatError(f"{path}: no rows")

    rows, labels, bad = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
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


def write_csv(S: Dataset, path, feature_names=None, label_name: str = "label") -> Path:
    """Write a Dataset in canonical CSV form (label last, repr-exact floats)."""
    path = Path(path)
    names = feature_names or [f"f{i}" for i in range(S.d)]
    if len(names) != S.d:
        raise ValueError(f"need {S.d} feature names, got {len(names)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join([*names, label_name]) + "\n")
        for i in range(S.n):
            cells = [repr(float(v)) for v in S.features[i]] + [repr(float(S.labels[i]))]
            fh.write(",".join(cells) + "\n")
    return path


def standardize(S: Dataset) -> Dataset:
    """Center and scale every column to sample mean 0 and sample variance 1.

    Zero-variance columns map to all-zeros.
    """
    if S.n < 2:
        raise ValueError(f"standardize needs n >= 2, got n={S.n}")
    mean = S.features.mean(axis=0)
    scale = S.features.std(axis=0, ddof=1)
    # constant columns map to zeros; the threshold is relative so columns
    # that are constant up to float rounding are not amplified into noise
    floor = 1e-12 * max(float(scale.max(initial=0.0)), 1.0)
    scale = np.where(scale <= floor, 1.0, scale)
    return Dataset((S.features - mean) / scale, S.labels)


def reduce_dim(S: Dataset, k: int, seed: int = 0) -> Dataset:
    """Project features onto the top-k right singular subspace.

    Randomized range finder with 8 extra directions and 2 power iterations
    (QR re-orthonormalized); deterministic given the seed.
    """
    top = min(S.n, S.d)  # the range finder spans at most min(n, d) directions
    _require("k", k, lambda v: 1 <= v <= top, f"an integer in [1, min(n, d)={top}]", int)
    X = S.features
    rng = derive_rng(seed, 7)
    p = min(k + 8, S.d)
    omega = rng.standard_normal((S.d, p))
    Y = X @ omega
    Q, _ = np.linalg.qr(Y)
    for _ in range(2):
        Z, _ = np.linalg.qr(X.T @ Q)
        Q, _ = np.linalg.qr(X @ Z)
    B = Q.T @ X
    _, _, Vt = np.linalg.svd(B, full_matrices=False)
    return Dataset(X @ Vt[:k].T, S.labels)


def bound_row_norms(S: Dataset, kappa: float) -> tuple[Dataset, int]:
    """Rescale rows with norm > kappa down to kappa; returns the count touched."""
    _require("kappa", kappa, *_POSITIVE)
    norms = np.linalg.norm(S.features, axis=1)
    over = norms > kappa
    if not np.any(over):
        return S, 0
    factors = np.where(over, kappa / np.maximum(norms, 1e-300), 1.0)
    return Dataset(S.features * factors[:, None], S.labels), int(np.sum(over))


def preprocess(S: Dataset, k: int | None, seed: int = 0, kappa: float = 1.0) -> Dataset:
    """Reduction to k columns (when k < d) -> standardization -> kappa rebound."""
    if k is not None and k < S.d:
        S = reduce_dim(S, k, seed=seed)
    S, _ = bound_row_norms(standardize(S), kappa)
    return S


def split(S: Dataset, plan: SplitPlan) -> list[tuple[Dataset, Dataset]]:
    """Seeded repeated 80/20-style splits; fresh permutation per repeat."""
    n_train = int(math.floor(plan.train_fraction * S.n))
    if n_train < 1 or n_train >= S.n:
        raise ValueError(
            f"split of n={S.n} at fraction {plan.train_fraction} leaves an empty side"
        )
    out = []
    for r in range(plan.repeats):
        perm = derive_rng(plan.seed, 11, r).permutation(S.n)
        out.append((S.subset(perm[:n_train]), S.subset(perm[n_train:])))
    return out


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
    if structured_noise:
        basis = np.linalg.qr(means.T)[0].T  # orthonormal rows spanning the means
        deviations = noise * rng.standard_normal((n, basis.shape[0])) @ basis
    else:
        deviations = noise * rng.standard_normal((n, d))
    X = means[cls] + deviations
    norms = np.linalg.norm(X, axis=1)
    X = X * (kappa / np.maximum(norms, kappa))[:, None]
    y = labels[cls]
    if label_flips > 0:
        n_flip = int(round(label_flips * n))
        flip_idx = rng.choice(n, size=n_flip, replace=False)
        shift = rng.integers(1, means.shape[0], size=n_flip)
        y = y.copy()
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
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def convert_adult(raw_path, out_path) -> dict:
    """Census-income raw rows -> canonical CSV.

    Numeric columns pass through; categoricals are one-hot encoded; rows
    with missing cells ('?') are dropped and counted; income becomes the
    binary label (1 = high bracket).
    """
    raw_path, out_path = Path(raw_path), Path(out_path)
    rows, dropped = [], 0
    with open(raw_path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip().rstrip(".")
            if not line:
                continue
            cells = [c.strip() for c in line.split(",")]
            if len(cells) != len(ADULT_COLUMNS):
                dropped += 1
                continue
            if "?" in cells:
                dropped += 1
                continue
            rows.append(cells)
    if not rows:
        raise FetchError(f"{raw_path}: no usable rows")

    categories = {
        c: sorted({row[i] for row in rows})
        for i, c in enumerate(ADULT_COLUMNS) if c in ADULT_CATEGORICAL
    }
    names, encoders = [], []
    for i, col in enumerate(ADULT_COLUMNS[:-1]):
        if col in ADULT_CATEGORICAL:
            for val in categories[col]:
                names.append(f"{col}={val}")
                encoders.append((i, val))
        else:
            names.append(col)
            encoders.append((i, None))

    feats = np.empty((len(rows), len(names)))
    for r, row in enumerate(rows):
        for j, (i, val) in enumerate(encoders):
            feats[r, j] = (1.0 if row[i] == val else 0.0) if val is not None else float(row[i])
    labels = np.array([1.0 if row[-1].startswith(">") else 0.0 for row in rows])
    write_csv(Dataset(feats, labels), out_path, feature_names=names, label_name="income_high")
    return {"rows": len(rows), "dropped": dropped, "columns": len(names)}


def fetch_dataset(name: str, destination, url: str | None = None,
                  sha256: str | None = None, cache_dir=None,
                  allow_unverified: bool = False) -> Path:
    """Download a named dataset, verify its checksum, convert to canonical CSV.

    Resolution order for the URL and checksum: explicit argument, then the
    STABLEDP_FETCH_URL / STABLEDP_FETCH_SHA256 environment variables, then
    the built-in registry. A cached raw file (in ``cache_dir`` or
    STABLEDP_CACHE_DIR) that matches the checksum is used without any
    network access. Failures never leave a partial destination file.
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

    if not (raw_cached.exists() and checksum_ok(raw_cached)):
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
