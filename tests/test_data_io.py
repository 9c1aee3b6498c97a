import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from stabledp.data_io import (
    DataFormatError,
    FetchError,
    SplitPlan,
    bound_row_norms,
    convert_adult,
    fetch_dataset,
    load_csv,
    preprocess,
    reduce_dim,
    split,
    standardize,
    synth_classification,
    write_csv,
)
from stabledp.model import Dataset, ObjectiveSpec
from stabledp.optimizer import solve_erm


class TestLoadCsv:
    def test_small_fixture(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("a,b,label\n1.0,2.0,1\n3.0,4.0,0\n5.5,6.5,1\n")
        S = load_csv(p)
        assert (S.n, S.d) == (3, 2)
        np.testing.assert_array_equal(S.labels, [1.0, 0.0, 1.0])

    def test_named_label_column(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("y,a\n1,2.0\n0,3.0\n")
        S = load_csv(p, label_column="y")
        np.testing.assert_array_equal(S.labels, [1.0, 0.0])
        np.testing.assert_array_equal(S.features.ravel(), [2.0, 3.0])

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DataFormatError, match="no rows"):
            load_csv(p)

    def test_header_only(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("a,b,label\n")
        with pytest.raises(DataFormatError, match="no rows"):
            load_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="no such file"):
            load_csv(tmp_path / "nope.csv")

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(DataFormatError, match="label column"):
            load_csv(p, label_column="target")

    def test_bad_rows_reported_with_line_numbers(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("a,label\n1.0,1\nforty,0\n2.0\n3.0,1\n")
        with pytest.raises(DataFormatError) as err:
            load_csv(p)
        msg = str(err.value)
        assert "line 3" in msg and "line 4" in msg and "forty" in msg

    def test_round_trip_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        S = Dataset(np.array([[0.1, -2.5], [1e-7, 3.25]]), np.array([1.0, 0.0]))
        write_csv(S, p1, feature_names=["a", "b"])
        write_csv(load_csv(p1), p2, feature_names=["a", "b"])
        assert p1.read_bytes() == p2.read_bytes()


class TestStandardize:
    def test_moments(self):
        rng = np.random.default_rng(0)
        S = Dataset(rng.standard_normal((50, 4)) * 3 + 1, np.zeros(50))
        Z = standardize(S)
        assert np.abs(Z.features.mean(axis=0)).max() < 1e-10
        np.testing.assert_allclose(Z.features.std(axis=0, ddof=1), 1.0, atol=1e-10)

    def test_constant_column_maps_to_zeros(self):
        S = Dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), np.zeros(3))
        Z = standardize(S)
        np.testing.assert_array_equal(Z.features[:, 0], 0.0)

    def test_requires_two_rows(self):
        with pytest.raises(ValueError, match="n >= 2"):
            standardize(Dataset(np.ones((1, 2)), np.ones(1)))

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        S = Dataset(rng.standard_normal((30, 3)), np.zeros(30))
        once = standardize(S)
        twice = standardize(once)
        np.testing.assert_allclose(twice.features, once.features, atol=1e-10)

    def test_near_constant_column_not_amplified(self):
        X = np.ones((10, 2))
        X[:, 1] = np.arange(10)
        X[:, 0] += 1e-14 * np.arange(10)
        Z = standardize(Dataset(X, np.zeros(10)))
        assert np.abs(Z.features[:, 0]).max() < 1e-9


class TestReduceDim:
    def test_full_rank_preserves_geometry(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((10, 6))
        S = Dataset(X, np.zeros(10))
        R = reduce_dim(S, 6, seed=0)
        np.testing.assert_allclose(R.features @ R.features.T, X @ X.T, atol=1e-8)

    def test_rank2_capture_vs_exact_svd_oracle(self):
        rng = np.random.default_rng(4)
        U = rng.standard_normal((10, 2))
        V = rng.standard_normal((2, 6))
        X = U @ V
        S = Dataset(X, np.zeros(10))
        R = reduce_dim(S, 2, seed=0)
        captured = np.sum(R.features**2) / np.sum(X**2)
        sv = np.linalg.svd(X, compute_uv=False)
        exact = np.sum(sv[:2] ** 2) / np.sum(sv**2)
        assert captured >= 0.999 * exact
        assert captured >= 0.999

    def test_k_larger_than_d_rejected(self):
        with pytest.raises(ValueError, match="k must be"):
            reduce_dim(Dataset(np.ones((4, 3)), np.zeros(4)), 5, seed=0)

    def test_k_larger_than_n_rejected(self):
        # the range finder of 4 rows spans 4 directions, not 5
        S = Dataset(np.random.default_rng(6).standard_normal((4, 6)), np.zeros(4))
        with pytest.raises(ValueError, match="k must be"):
            reduce_dim(S, 5, seed=0)
        assert reduce_dim(S, 4, seed=0).d == 4

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        S = Dataset(rng.standard_normal((12, 8)), np.zeros(12))
        np.testing.assert_array_equal(reduce_dim(S, 3, seed=9).features,
                                      reduce_dim(S, 3, seed=9).features)


class TestBoundRowNorms:
    def test_count_and_bound(self):
        S = Dataset(np.array([[3.0, 4.0], [0.1, 0.0]]), np.zeros(2))
        out, touched = bound_row_norms(S, 1.0)
        assert touched == 1
        assert out.max_row_norm() <= 1.0 + 1e-12
        np.testing.assert_array_equal(out.features[1], S.features[1])

    def test_noop_when_within_bound(self):
        S = Dataset(np.array([[0.1, 0.0]]), np.zeros(1))
        out, touched = bound_row_norms(S, 1.0)
        assert touched == 0

    @pytest.mark.parametrize("kappa", [0.0, -1.0, math.nan, math.inf])
    def test_bad_kappa_rejected(self, kappa):
        S = Dataset(np.array([[3.0, 4.0]]), np.zeros(1))
        with pytest.raises(ValueError, match="kappa"):
            bound_row_norms(S, kappa)


class TestPreprocess:
    def test_pipeline_bounds_rows(self):
        S, _ = synth_classification(200, 20, classes=4, sparsity=5, noise=0.4, seed=0)
        out = preprocess(S, 8, seed=1, kappa=1.0)
        assert out.d == 8
        assert out.max_row_norm() <= 1.0 + 1e-12


class TestSplit:
    def test_default_plan(self):
        plan = SplitPlan()
        assert plan.train_fraction == 0.8 and plan.repeats == 10

    def test_partition(self):
        S, _ = synth_classification(50, 4, classes=2, sparsity=4, noise=0.5, seed=1)
        for train, test in split(S, SplitPlan(seed=3, repeats=4)):
            assert train.n == 40 and test.n == 10
            combined = np.vstack([train.features, test.features])
            assert np.unique(np.round(combined, 12), axis=0).shape[0] == 50

    def test_deterministic(self):
        S, _ = synth_classification(30, 3, classes=2, sparsity=3, noise=0.5, seed=2)
        a = split(S, SplitPlan(seed=5, repeats=3))
        b = split(S, SplitPlan(seed=5, repeats=3))
        for (ta, _), (tb, _) in zip(a, b):
            np.testing.assert_array_equal(ta.features, tb.features)

    def test_empty_side_rejected(self):
        S, _ = synth_classification(3, 2, classes=2, sparsity=2, noise=0.5, seed=0)
        with pytest.raises(ValueError, match="empty"):
            split(S, SplitPlan(seed=0, train_fraction=0.2, repeats=1))


class TestSynthClassification:
    def test_row_norm_bound(self):
        S, _ = synth_classification(100, 10, classes=3, sparsity=4, noise=1.0, seed=3)
        assert S.max_row_norm() <= 1.0 + 1e-9

    def test_truth_sparsity(self):
        _, w = synth_classification(10, 20, classes=2, sparsity=7, noise=0.1, seed=4)
        assert np.sum(w != 0) == 7
        _, W = synth_classification(10, 20, classes=4, sparsity=7, noise=0.1, seed=4)
        assert W.shape == (4, 20)
        assert np.all(np.sum(W != 0, axis=1) == 7)

    def test_deterministic(self):
        a, _ = synth_classification(20, 5, classes=2, sparsity=3, noise=0.3, seed=5)
        b, _ = synth_classification(20, 5, classes=2, sparsity=3, noise=0.3, seed=5)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_noiseless_recovery_of_sign_pattern(self):
        S, w_true = synth_classification(2000, 10, classes=2, sparsity=3, noise=0.0, seed=6)
        spec = ObjectiveSpec("logistic", 1e-4, penalty="l2")
        w = solve_erm(spec, S, 1e-8).weights
        support = w_true != 0
        np.testing.assert_array_equal(np.sign(w[support]), np.sign(w_true[support]))

    def test_label_flip_fraction(self):
        S0, _ = synth_classification(1000, 5, classes=2, sparsity=3, noise=0.0, seed=7)
        S1, _ = synth_classification(1000, 5, classes=2, sparsity=3, noise=0.0, seed=7,
                                     label_flips=0.2)
        assert np.mean(S0.labels != S1.labels) == pytest.approx(0.2, abs=1e-12)
        np.testing.assert_array_equal(S0.features, S1.features)

    def test_structured_noise_spans_means_only(self):
        S, W = synth_classification(300, 30, classes=3, sparsity=4, noise=0.5, seed=8,
                                    structured_noise=True)
        # rows outside the shared support carry no variance
        support = np.any(W != 0, axis=0)
        assert np.abs(S.features[:, ~support]).max() < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_classification(10, 5, classes=1)
        with pytest.raises(ValueError):
            synth_classification(10, 5, sparsity=9)
        with pytest.raises(ValueError):
            synth_classification(10, 5, noise=-0.1)
        with pytest.raises(ValueError):
            synth_classification(10, 5, label_flips=1.0)
        for noise in (math.nan, math.inf):
            with pytest.raises(ValueError, match="noise"):
                synth_classification(10, 5, noise=noise)
        for kappa in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="kappa"):
                synth_classification(10, 5, kappa=kappa)


ADULT_FIXTURE = """39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical, Not-in-family, White, Male, 2174, 0, 40, United-States, <=50K
50, Self-emp-not-inc, 83311, Bachelors, 13, Married-civ-spouse, Exec-managerial, Husband, White, Male, 0, 0, 13, United-States, >50K
38, Private, 215646, HS-grad, 9, Divorced, ?, Not-in-family, White, Male, 0, 0, 40, United-States, <=50K
53, Private, 234721, 11th, 7, Married-civ-spouse, Handlers-cleaners, Husband, Black, Female, 0, 0, 40, United-States, >50K.
"""


class TestConvertAdult:
    def test_one_hot_and_binary_label(self, tmp_path):
        raw = tmp_path / "adult.raw"
        raw.write_text(ADULT_FIXTURE)
        out = tmp_path / "adult.csv"
        report = convert_adult(raw, out)
        assert report["rows"] == 3 and report["dropped"] == 1  # the '?' row dropped
        S = load_csv(out, label_column="income_high")
        np.testing.assert_array_equal(S.labels, [0.0, 1.0, 1.0])
        # one-hot: sex=Male column exists and is 1 for the first rows
        header = out.read_text().splitlines()[0].split(",")
        assert any(h.startswith("sex=") for h in header)
        assert any(h == "age" for h in header)


class TestFetchDataset:
    def _serve(self, tmp_path, content: bytes):
        src = tmp_path / "source.data"
        src.write_bytes(content)
        return src.as_uri(), hashlib.sha256(content).hexdigest()

    def test_fetch_convert_and_cache(self, tmp_path):
        url, digest = self._serve(tmp_path, ADULT_FIXTURE.encode())
        dest = tmp_path / "out" / "adult.csv"
        cache = tmp_path / "cache"
        got = fetch_dataset("adult", dest, url=url, sha256=digest, cache_dir=cache)
        assert got == dest and dest.exists()
        # cached raw allows re-fetch after the source disappears
        Path(tmp_path / "source.data").unlink()
        dest.unlink()
        got = fetch_dataset("adult", dest, url=url, sha256=digest, cache_dir=cache)
        assert dest.exists()

    def test_checksum_mismatch_leaves_no_file(self, tmp_path):
        url, _ = self._serve(tmp_path, ADULT_FIXTURE.encode())
        dest = tmp_path / "out" / "adult.csv"
        with pytest.raises(FetchError, match="checksum"):
            fetch_dataset("adult", dest, url=url, sha256="0" * 64,
                          cache_dir=tmp_path / "cache2")
        assert not dest.exists()
        assert not list((tmp_path / "cache2").glob("*.part"))

    def test_unknown_dataset(self, tmp_path):
        with pytest.raises(FetchError, match="unknown dataset"):
            fetch_dataset("mnist", tmp_path / "x.csv")

    def test_checksum_required_unless_waived(self, tmp_path, monkeypatch):
        monkeypatch.delenv("STABLEDP_FETCH_SHA256", raising=False)
        url, _ = self._serve(tmp_path, ADULT_FIXTURE.encode())
        with pytest.raises(FetchError, match="no checksum"):
            fetch_dataset("adult", tmp_path / "y.csv", url=url,
                          cache_dir=tmp_path / "cache3")
        got = fetch_dataset("adult", tmp_path / "y.csv", url=url,
                            cache_dir=tmp_path / "cache3", allow_unverified=True)
        assert got.exists()

    def test_env_overrides(self, tmp_path, monkeypatch):
        url, digest = self._serve(tmp_path, ADULT_FIXTURE.encode())
        monkeypatch.setenv("STABLEDP_FETCH_URL", url)
        monkeypatch.setenv("STABLEDP_FETCH_SHA256", digest)
        monkeypatch.setenv("STABLEDP_CACHE_DIR", str(tmp_path / "envcache"))
        got = fetch_dataset("adult", tmp_path / "z.csv")
        assert got.exists()
        assert (tmp_path / "envcache" / "adult.raw").exists()
