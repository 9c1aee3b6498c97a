import hashlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

from stabledp.data_io import (
    ADULT_CATEGORICAL,
    ADULT_COLUMNS,
    DataFormatError,
    FetchError,
    Preprocessing,
    SplitPlan,
    _rebound,
    _write_rows,
    convert_adult,
    fetch_dataset,
    fit_preprocess,
    load_csv,
    preprocess,
    split,
    synth_classification,
    write_csv,
)
from stabledp.model import Dataset, ObjectiveSpec
from stabledp.optimizer import solve_erm
from stabledp.rng import derive_rng


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
        # a non-finite cell once passed float() and failed in Dataset with no line number
        p.write_text("a,label\n1.0,1\nforty,0\n2.0\n3.0,1\nnan,1\n4.0,inf\n-Infinity,0\n")
        with pytest.raises(DataFormatError) as err:
            load_csv(p)
        msg = str(err.value)
        assert "line 3" in msg and "line 4" in msg and "forty" in msg
        assert "5 malformed row(s)" in msg
        for line in ("line 6: non-finite cell 'nan'", "line 7: non-finite cell 'inf'",
                     "line 8: non-finite cell '-Infinity'"):
            assert line in msg

    def test_line_numbers_count_blank_lines(self, tmp_path):
        # the lines were once numbered after the blank ones were dropped: "line 3"
        p = tmp_path / "f.csv"
        p.write_text("a,b,label\n\n1.0,2.0,1\n\n1.0,x,0\n")
        with pytest.raises(DataFormatError, match=r"1 malformed row\(s\): line 5: "
                                                  r"non-numeric cell 'x'$"):
            load_csv(p)

    def test_label_column_naming_two_cells(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("x,a,x\n1,2,3\n")
        with pytest.raises(DataFormatError, match="label column 'x' names 2 header cells"):
            load_csv(p, label_column="x")

    def test_byte_order_mark_is_read_past(self, tmp_path):
        # the mark once stuck to the first header cell, and label column 'a' was not found
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        S = Dataset(np.array([[0.1, -2.5], [1e-7, 3.25]]), np.array([1.0, 0.0]))
        write_csv(S, plain, feature_names=["a", "b"])
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        want, got = load_csv(plain, "a"), load_csv(marked, "a")
        assert got.features.tobytes() == want.features.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()

    def test_round_trip_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        S = Dataset(np.array([[0.1, -2.5], [1e-7, 3.25]]), np.array([1.0, 0.0]))
        write_csv(S, p1, feature_names=["a", "b"])
        write_csv(load_csv(p1), p2, feature_names=["a", "b"])
        assert p1.read_bytes() == p2.read_bytes()


class TestWriteCsv:
    def test_bytes_are_each_values_repr(self, tmp_path):
        S, _ = synth_classification(200, 12, classes=4, sparsity=5, noise=0.3, seed=7,
                                    structured_noise=True)
        X = S.features.copy()
        X[0, :4] = (-0.0, 1e-7, 1e300, 0.1)
        S = Dataset(X, S.labels)
        p = tmp_path / "s.csv"
        write_csv(S, p, feature_names=[f"x{i}" for i in range(12)], label_name="y")
        lines = [",".join([*(f"x{i}" for i in range(12)), "y"])]
        lines += [",".join([repr(float(v)) for v in S.features[i]] + [repr(float(S.labels[i]))])
                  for i in range(S.n)]
        assert p.read_text(encoding="utf-8") == "\n".join(lines) + "\n"

    def test_one_name_per_column(self, tmp_path):
        # an empty list is a list of no names, not the default names
        for names in (["a"], []):
            with pytest.raises(ValueError, match=f"^need 2 feature names, got {len(names)}$"):
                write_csv(Dataset(np.ones((2, 2)), np.ones(2)), tmp_path / "s.csv",
                          feature_names=names)
            assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("bad", [",", "\r", "\n"], ids=["comma", "cr", "lf"])
    @pytest.mark.parametrize("where", ["feature", "label"])
    def test_a_name_holding_a_separator(self, tmp_path, bad, where):
        S, name = Dataset(np.ones((2, 2)), np.ones(2)), f"x{bad}y"
        names, label = (["a", name], "label") if where == "feature" else (["a", "b"], name)
        with pytest.raises(ValueError, match=re.escape(f"column name {name!r} holds")):
            write_csv(S, tmp_path / "s.csv", feature_names=names, label_name=label)
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("names, label, name", [(["a", "b"], "y ", "y "),
                                                     ([" a", "a"], "label", " a")],
                             ids=["label-trailing", "feature-leading"])
    def test_a_name_with_outer_whitespace(self, tmp_path, names, label, name):
        # load_csv strips each header cell: "y " would not be found by its name, and
        # " a" would load back as a second "a"
        with pytest.raises(ValueError, match=f"column name {name!r} starts or ends with"):
            write_csv(Dataset(np.ones((2, 2)), np.ones(2)), tmp_path / "s.csv",
                      feature_names=names, label_name=label)
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("names, label", [(["x", "y"], "x"), (["a", "a"], "label")],
                             ids=["label-as-feature", "two-features"])
    def test_a_name_given_twice(self, tmp_path, names, label):
        # a label named as a feature was loaded back from the feature's column
        with pytest.raises(ValueError, match=f"column name {names[0]!r} appears 2 times"):
            write_csv(Dataset(np.ones((2, 2)), np.ones(2)), tmp_path / "s.csv",
                      feature_names=names, label_name=label)
        assert not (tmp_path / "s.csv").exists()

    def test_result_rows_mix_numbers_none_and_text(self, tmp_path):
        p = tmp_path / "r.csv"
        _write_rows(p, ["a", "b", "c", "d", "e", "f"],
                    [[0.1, np.float64(1e-7), 3, np.int64(-4), None, "none"]])
        assert p.read_bytes() == b"a,b,c,d,e,f\n0.1,1e-07,3,-4,,none\n"


def _standardized(S):
    # kappa far above every standardized row norm here, so no row is rebounded
    return fit_preprocess(S, None).apply(S, kappa=1e6)


class TestStandardize:
    def test_moments(self):
        rng = np.random.default_rng(0)
        S = Dataset(rng.standard_normal((50, 4)) * 3 + 1, np.zeros(50))
        Z = _standardized(S)
        assert np.abs(Z.features.mean(axis=0)).max() < 1e-10
        np.testing.assert_allclose(Z.features.std(axis=0, ddof=1), 1.0, atol=1e-10)

    def test_constant_column_maps_to_zeros(self):
        S = Dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), np.zeros(3))
        Z = _standardized(S)
        np.testing.assert_array_equal(Z.features[:, 0], 0.0)

    def test_requires_two_rows(self):
        with pytest.raises(ValueError, match="n >= 2"):
            fit_preprocess(Dataset(np.ones((1, 2)), np.ones(1)), None)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        S = Dataset(rng.standard_normal((30, 3)), np.zeros(30))
        once = _standardized(S)
        twice = _standardized(once)
        np.testing.assert_allclose(twice.features, once.features, atol=1e-10)

    def test_near_constant_column_not_amplified(self):
        X = np.ones((10, 2))
        X[:, 1] = np.arange(10)
        X[:, 0] += 1e-14 * np.arange(10)
        Z = _standardized(Dataset(X, np.zeros(10)))
        assert np.abs(Z.features[:, 0]).max() < 1e-9


class TestReduceDim:
    def test_full_rank_preserves_geometry(self):
        # rank 6 in 8 ambient columns: the 6 kept directions span every row
        rng = np.random.default_rng(3)
        X = rng.standard_normal((10, 6)) @ rng.standard_normal((6, 8))
        basis = fit_preprocess(Dataset(X, np.zeros(10)), 6, seed=0).basis
        R = X @ basis
        np.testing.assert_allclose(R @ R.T, X @ X.T, atol=1e-8)

    def test_rank2_capture_vs_exact_svd_oracle(self):
        rng = np.random.default_rng(4)
        U = rng.standard_normal((10, 2))
        V = rng.standard_normal((2, 6))
        X = U @ V
        S = Dataset(X, np.zeros(10))
        R = X @ fit_preprocess(S, 2, seed=0).basis
        captured = np.sum(R**2) / np.sum(X**2)
        sv = np.linalg.svd(X, compute_uv=False)
        exact = np.sum(sv[:2] ** 2) / np.sum(sv**2)
        assert captured >= 0.999 * exact
        assert captured >= 0.999

    def test_k_larger_than_d_rejected(self):
        # k >= d asks for no reduction: nothing is fit, every column is kept
        S = Dataset(np.random.default_rng(2).standard_normal((4, 3)), np.zeros(4))
        fit = fit_preprocess(S, 5, seed=0)
        assert fit.basis is None and fit.apply(S).d == 3
        with pytest.raises(ValueError, match="k must be"):
            fit_preprocess(S, 0, seed=0)

    def test_k_larger_than_n_rejected(self):
        # the range finder of 4 rows spans 4 directions, not 5
        S = Dataset(np.random.default_rng(6).standard_normal((4, 6)), np.zeros(4))
        with pytest.raises(ValueError, match="k must be"):
            fit_preprocess(S, 5, seed=0)
        assert fit_preprocess(S, 4, seed=0).basis.shape == (6, 4)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        S = Dataset(rng.standard_normal((12, 8)), np.zeros(12))
        np.testing.assert_array_equal(fit_preprocess(S, 3, seed=9).basis,
                                      fit_preprocess(S, 3, seed=9).basis)


# zero means and unit scales: applying this record only rebounds the rows
_REBOUND_ONLY = Preprocessing(None, np.zeros(2), np.ones(2))


class TestBoundRowNorms:
    def test_count_and_bound(self):
        S = Dataset(np.array([[3.0, 4.0], [0.1, 0.0]]), np.zeros(2))
        out = _REBOUND_ONLY.apply(S, 1.0)
        assert out.max_row_norm() <= 1.0 + 1e-12
        np.testing.assert_array_equal(out.features[1], S.features[1])

    def test_noop_when_within_bound(self):
        S = Dataset(np.array([[0.1, 0.0]]), np.zeros(1))
        out = _REBOUND_ONLY.apply(S, 1.0)
        assert out.features.tobytes() == S.features.tobytes()

    @pytest.mark.parametrize("kappa", [0.0, -1.0, math.nan, math.inf])
    def test_bad_kappa_rejected(self, kappa):
        S = Dataset(np.array([[3.0, 4.0]]), np.zeros(1))
        with pytest.raises(ValueError, match="kappa"):
            _REBOUND_ONLY.apply(S, kappa)


def _three_stage_reference(S, k, seed, kappa):
    """The earlier pipeline, written out stage by stage: reduce_dim, then
    standardize, then bound_row_norms, each returning a new Dataset."""
    if k is not None and k < S.d:
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
        S = Dataset(X @ Vt[:k].T, S.labels)
    mean = S.features.mean(axis=0)
    scale = S.features.std(axis=0, ddof=1)
    floor = 1e-12 * max(float(scale.max(initial=0.0)), 1.0)
    scale = np.where(scale <= floor, 1.0, scale)
    S = Dataset((S.features - mean) / scale, S.labels)
    norms = np.linalg.norm(S.features, axis=1)
    over = norms > kappa
    if not np.any(over):
        return S, 0
    factors = np.where(over, kappa / np.maximum(norms, 1e-300), 1.0)
    return Dataset(S.features * factors[:, None], S.labels), int(np.sum(over))


def _default_shape_task():
    # the default config's dataset: 2000 x 48, structured noise, reduced to 32
    S, _ = synth_classification(2000, 48, classes=4, sparsity=8, noise=0.3, seed=7,
                                structured_noise=True)
    return S


class TestPreprocess:
    def test_pipeline_bounds_rows(self):
        S, _ = synth_classification(200, 20, classes=4, sparsity=5, noise=0.4, seed=0)
        out = preprocess(S, 8, seed=1, kappa=1.0)
        assert out.d == 8
        assert out.max_row_norm() <= 1.0 + 1e-12

    @pytest.mark.parametrize("k", [None, 1, 4, 9, 10, 14])
    @pytest.mark.parametrize("quantile", [0.2, 0.8])
    def test_equals_the_three_stage_reference(self, k, quantile):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((60, 10)) * rng.uniform(0.1, 5.0, 10) + rng.standard_normal(10)
        X[:, 2] = 4.0  # constant
        X[:, 7] = 1.0 + 1e-14 * np.arange(60)  # constant up to rounding
        S = Dataset(X, np.arange(60) % 3)
        # a kappa between the standardized row norms, so rows fall on both sides
        unbounded, _ = _three_stage_reference(S, k, 5, 1e6)
        kappa = float(np.quantile(np.linalg.norm(unbounded.features, axis=1), quantile))
        want, over = _three_stage_reference(S, k, 5, kappa)
        assert 0 < over < S.n
        for got in (preprocess(S, k, seed=5, kappa=kappa),
                    fit_preprocess(S, k, seed=5).apply(S, kappa)):
            assert got.features.tobytes() == want.features.tobytes()
            assert got.labels.tobytes() == S.labels.tobytes()

    def test_equals_the_three_stage_reference_at_the_default_shape(self):
        S = _default_shape_task()
        want, _ = _three_stage_reference(S, 32, 7, 1.0)
        assert preprocess(S, 32, seed=7, kappa=1.0).features.tobytes() == \
            want.features.tobytes()

    @pytest.mark.parametrize("i", [0, 1234, 1999])
    def test_fit_applied_to_a_neighbour_moves_only_its_row(self, i):
        S = _default_shape_task()
        fit = fit_preprocess(S, 32, seed=7)
        x = 5.0 * np.random.default_rng(i).standard_normal(S.d)
        base = fit.apply(S, 1.0).features
        moved = fit.apply(S.replace_record(i, x, 2), 1.0).features
        keep = np.arange(S.n) != i
        assert base[keep].tobytes() == moved[keep].tobytes()
        assert not np.array_equal(base[i], moved[i])

    def test_record_whose_squared_norm_overflows_lands_on_kappa(self):
        # 1e200 squared overflows; the norm used to read inf and zero the row
        S, _ = synth_classification(200, 8, classes=2, seed=1)
        fit = fit_preprocess(S, None)
        base = fit.apply(S, 1.0).features
        moved = fit.apply(S.replace_record(0, np.full(8, 1e200), 1.0), 1.0).features
        assert np.linalg.norm(moved[0]) == pytest.approx(1.0, abs=1e-15)
        # along the record's own direction: equal raw entries, so standardized
        # entries in the ratio of the inverse column scales
        np.testing.assert_allclose(moved[0] * fit.scale, moved[0, 0] * fit.scale[0], rtol=1e-12)
        assert moved[1:].tobytes() == base[1:].tobytes()

    @pytest.mark.parametrize("k", [None, 2])
    @pytest.mark.parametrize("magnitude", [1e200, 1e308])
    def test_overflowing_column_is_a_format_error(self, k, magnitude):
        # the deviation (1e200) or the mean (1e308) overflows; standardizing
        # used to map every row to zeros, or fail on non-finite features
        X = np.random.default_rng(9).standard_normal((20, 4))
        X[:, 1] = magnitude * np.linspace(0.5, 1.5, 20)
        with pytest.raises(DataFormatError, match="feature column 1 "):
            fit_preprocess(Dataset(X, np.zeros(20)), k)

    @pytest.mark.parametrize("k", [None, 3])
    def test_apply_refuses_another_width(self, k):
        # numpy's broadcast (no basis) or matmul (a basis) error named no width
        S, _ = synth_classification(40, 6, classes=2, seed=1)
        fit = fit_preprocess(S, k)
        with pytest.raises(ValueError, match=r"^the preprocessing was fit on 6 columns, "
                                             r"but S has 5$"):
            fit.apply(Dataset(S.features[:, :5], S.labels))

    def test_overflowing_reduced_column_is_a_format_error(self):
        # two equal columns whose deviations are each finite, but the reduced
        # column along their shared direction has a squared deviation sum past
        # the float range
        X = np.random.default_rng(9).standard_normal((20, 4))
        X[:, 1] = X[:, 2] = 4e153 * np.linspace(-1.0, 1.0, 20)
        fit_preprocess(Dataset(X, np.zeros(20)), None)
        with pytest.raises(DataFormatError, match="reduced column 0 "):
            fit_preprocess(Dataset(X, np.zeros(20)), 2)


class TestSplit:
    def test_default_plan(self):
        plan = SplitPlan()
        assert plan.train_fraction == 0.8 and plan.repeats == 10

    def test_partition(self):
        S, _ = synth_classification(50, 4, classes=2, sparsity=4, noise=0.5, seed=1)
        train, test = split(S, SplitPlan(seed=3, repeats=4))
        assert train.features.shape == (4, 40, 4) and train.labels.shape == (4, 40, 1)
        assert test.features.shape == (4, 10, 4) and test.labels.shape == (4, 10, 1)
        for X, X_test in zip(train.features, test.features):
            combined = np.vstack([X, X_test])
            assert np.unique(np.round(combined, 12), axis=0).shape[0] == 50

    def test_sides_are_each_permutations_rows(self):
        # the reference: one permutation per repeat, its head the training
        # side and its tail the test side, each row with its own label
        S, _ = synth_classification(47, 3, classes=3, sparsity=3, noise=0.5, seed=4)
        plan = SplitPlan(seed=6, train_fraction=0.7, repeats=5)
        train, test = split(S, plan)
        for r in range(plan.repeats):
            p = derive_rng(plan.seed, 11, r).permutation(S.n)
            for side, rows in ((train, p[:32]), (test, p[32:])):
                assert side.features[r].tobytes() == S.features[rows].tobytes()
                assert side.labels[r, :, 0].tobytes() == S.labels[rows].tobytes()

    def test_deterministic(self):
        S, _ = synth_classification(30, 3, classes=2, sparsity=3, noise=0.5, seed=2)
        a, b = (split(S, SplitPlan(seed=5, repeats=3)) for _ in range(2))
        for A, B in zip(a, b):
            assert A.features.tobytes() == B.features.tobytes()
            assert A.labels.tobytes() == B.labels.tobytes()

    def test_empty_side_rejected(self):
        S, _ = synth_classification(3, 2, classes=2, sparsity=2, noise=0.5, seed=0)
        with pytest.raises(ValueError, match="empty"):
            split(S, SplitPlan(seed=0, train_fraction=0.2, repeats=1))


class TestSynthClassification:
    def test_row_norm_bound(self):
        S, _ = synth_classification(100, 10, classes=3, sparsity=4, noise=1.0, seed=3)
        assert S.max_row_norm() <= 1.0 + 1e-9

    def test_noise_whose_squared_norm_overflows_lands_on_kappa(self):
        S, _ = synth_classification(50, 5, classes=2, noise=1e200, seed=3)
        np.testing.assert_allclose(np.linalg.norm(S.features, axis=1), 1.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("structured", [False, True])
    def test_noise_that_overflows_the_deviations_is_refused_by_name(self, structured):
        # noise * N(0, 1) overflows; numpy's overflow warning came first, then a
        # non-finite-features error from Dataset that named no field
        with pytest.raises(ValueError, match=r"^noise=1e\+308 overflows"):
            synth_classification(50, 5, classes=2, noise=1e308, seed=3,
                                 structured_noise=structured)

    @pytest.mark.parametrize("kappa", [1e-300, 1.0, 1e200])
    def test_overflowing_rows_keep_their_direction(self, kappa):
        X = np.array([[1e200, -2e200, 0.0], [3e-300, 1e308, 1e308], [1e160, 1e150, 0.0],
                      [0.5, 0.5, 0.0]])
        out = X.copy()
        _rebound(out, kappa)
        # the third row's norm, 1e160, is inside the ball at kappa = 1e200
        inside = [False, False, kappa > 1e160, kappa >= 1.0]
        for x, y, keep in zip(X, out, inside):
            if keep:
                np.testing.assert_allclose(y, x, rtol=1e-15)
            else:
                assert np.linalg.norm(y / kappa) == pytest.approx(1.0, abs=1e-15)
                np.testing.assert_allclose(y / kappa, x / np.max(np.abs(x)) / np.linalg.norm(
                    x / np.max(np.abs(x))), rtol=1e-12)  # y is subnormal at kappa=1e-300

    def test_row_with_an_inf_entry_is_refused_by_dataset(self):
        X = np.array([[1.0, np.inf], [0.5, 0.5]])
        _rebound(X, 1.0)
        assert not np.isfinite(X[0]).all()
        assert X[1].tolist() == [0.5, 0.5]
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(X, np.zeros(2))

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


# blank lines, a '?' row, '>50K.' labels, decimal numbers and a category seen once
ADULT_MIXED = ADULT_FIXTURE + """
28.5, Private, 338409, Bachelors, 13, Married-civ-spouse, Prof-specialty, Wife, Black, Female, 0, 0, 40.25, Cuba, <=50K.

37, Private, 284582, Masters, 14, Married-civ-spouse, Exec-managerial, Wife, White, Female, 0, 0, 40, United-States, >50K.
49, ?, 160187, 9th, 5, Married-spouse-absent, ?, Not-in-family, Black, Female, 0, 0, 16, Jamaica, <=50K

52, Self-emp-not-inc, 209642, HS-grad, 9, Married-civ-spouse, Exec-managerial, Husband, White, Male, 0, 0, 45, United-States, >50K
"""


def per_cell_adult_csv(text: str) -> tuple[str, int]:
    """The canonical CSV text and dropped-row count of the per-cell encoder that
    ``convert_adult`` replaced, each value written as ``repr(float(v))``."""
    rows, dropped = [], 0
    for line in text.splitlines():
        line = line.strip().rstrip(".")
        if not line:
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(ADULT_COLUMNS) or "?" in cells:
            dropped += 1
            continue
        rows.append(cells)
    categories = {c: sorted({row[i] for row in rows})
                  for i, c in enumerate(ADULT_COLUMNS) if c in ADULT_CATEGORICAL}
    names, encoders = [], []
    for i, col in enumerate(ADULT_COLUMNS[:-1]):
        if col in ADULT_CATEGORICAL:
            for val in categories[col]:
                names.append(f"{col}={val}")
                encoders.append((i, val))
        else:
            names.append(col)
            encoders.append((i, None))
    lines = [",".join([*names, "income_high"])]
    for row in rows:
        cells = [(1.0 if row[i] == val else 0.0) if val is not None else float(row[i])
                 for i, val in encoders]
        cells.append(1.0 if row[-1].startswith(">") else 0.0)
        lines.append(",".join(repr(float(v)) for v in cells))
    return "\n".join(lines) + "\n", dropped


class TestConvertAdult:
    @pytest.mark.parametrize("text", [ADULT_FIXTURE, ADULT_MIXED], ids=["fixture", "mixed"])
    def test_bytes_equal_the_per_cell_encoder(self, tmp_path, text):
        raw, out = tmp_path / "adult.raw", tmp_path / "adult.csv"
        raw.write_text(text)
        report = convert_adult(raw, out)
        want, dropped = per_cell_adult_csv(text)
        assert out.read_bytes() == want.encode()
        header, *rows = want.splitlines()
        assert report == {"rows": len(rows), "dropped": dropped, "columns": header.count(",")}

    def test_no_usable_rows(self, tmp_path):
        raw = tmp_path / "adult.raw"
        raw.write_text("\n".join(ln for ln in ADULT_MIXED.splitlines() if "?" in ln) + "\n")
        with pytest.raises(FetchError, match="no usable rows"):
            convert_adult(raw, tmp_path / "adult.csv")
        assert not (tmp_path / "adult.csv").exists()

    def test_non_numeric_cell_keeps_floats_message(self, tmp_path):
        raw = tmp_path / "adult.raw"
        raw.write_text(ADULT_FIXTURE.replace("39,", "abc,", 1))
        # a FetchError naming the path and column, ending in float's own message
        with pytest.raises(FetchError, match=re.escape(
                f"{raw}: column 'age': could not convert string to float: 'abc'") + "$") as err:
            convert_adult(raw, tmp_path / "adult.csv")
        assert isinstance(err.value.__cause__, ValueError)
        assert not (tmp_path / "adult.csv").exists()

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

    def test_failed_conversion_leaves_no_file(self, tmp_path):
        url, digest = self._serve(tmp_path, ADULT_FIXTURE.replace("39,", "abc,", 1).encode())
        dest = tmp_path / "out" / "adult.csv"
        with pytest.raises(FetchError, match="column 'age': could not convert string to "
                                             "float: 'abc'") as err:
            fetch_dataset("adult", dest, url=url, sha256=digest, cache_dir=tmp_path / "cache")
        assert isinstance(err.value.__cause__, ValueError)
        assert list(dest.parent.iterdir()) == []

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

    def test_unverified_fetch_downloads_again(self, tmp_path, monkeypatch):
        # with no checksum, the cached raw file of an earlier source was converted
        monkeypatch.delenv("STABLEDP_FETCH_SHA256", raising=False)
        cache, outputs = tmp_path / "cache", []
        for k, text in enumerate((ADULT_FIXTURE, ADULT_FIXTURE.replace(">50K", "<=50K"))):
            src = tmp_path / f"source{k}.data"
            src.write_text(text)
            dest = fetch_dataset("adult", tmp_path / f"out{k}.csv", url=src.as_uri(),
                                 cache_dir=cache, allow_unverified=True)
            outputs.append(load_csv(dest, label_column="income_high").labels.tolist())
        assert outputs == [[0.0, 1.0, 1.0], [0.0, 0.0, 0.0]]

    def test_env_overrides(self, tmp_path, monkeypatch):
        url, digest = self._serve(tmp_path, ADULT_FIXTURE.encode())
        monkeypatch.setenv("STABLEDP_FETCH_URL", url)
        monkeypatch.setenv("STABLEDP_FETCH_SHA256", digest)
        monkeypatch.setenv("STABLEDP_CACHE_DIR", str(tmp_path / "envcache"))
        got = fetch_dataset("adult", tmp_path / "z.csv")
        assert got.exists()
        assert (tmp_path / "envcache" / "adult.raw").exists()
