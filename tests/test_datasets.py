import builtins
import logging

import numpy as np
import pytest

from tkrr import datasets
from tkrr.datasets import (
    Standardizer,
    StudyConfig,
    apply_standardizer,
    fit_standardizer,
    load_csv,
    load_studies,
    subsample_split,
)
from tkrr.kernels import Dataset

N_CASES = 100


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoadCsv:
    def test_numeric_load(self, tmp_path):
        path = write(tmp_path, "a.csv", "u,v,y\n1,2,3\n4,5,6\n")
        ds = load_csv(StudyConfig(path=path, feature_columns=("u", "v"), response_column="y"))
        np.testing.assert_array_equal(ds.x, [[1, 2], [4, 5]])
        np.testing.assert_array_equal(ds.y, [3, 6])

    def test_drops_bad_rows_and_logs(self, tmp_path, caplog):
        path = write(tmp_path, "a.csv", "u,y\n1,2\nbad,3\n4,\n5,6\n")
        with caplog.at_level(logging.INFO):
            ds = load_csv(StudyConfig(path=path, feature_columns=("u",), response_column="y"))
        assert ds.n == 2
        assert "dropped 2" in caplog.text

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e999"])
    def test_drops_non_finite_numbers(self, tmp_path, caplog, token):
        # float() parses each token, but to a NaN or an infinity.
        path = write(tmp_path, "a.csv", f"u,y\n1,2\n{token},3\n4,{token}\n5,6\n")
        with caplog.at_level(logging.INFO):
            ds = load_csv(StudyConfig(path=path, feature_columns=("u",), response_column="y"))
        np.testing.assert_array_equal(ds.x, [[1], [5]])
        np.testing.assert_array_equal(ds.y, [2, 6])
        assert "dropped 2 unparseable rows (2 kept)" in caplog.text

    def test_semicolon_delimiter(self, tmp_path):
        path = write(tmp_path, "wine.csv", '"a";"b";"y"\n1;2;3\n')
        ds = load_csv(StudyConfig(path=path, feature_columns=("a", "b"), response_column="y"))
        np.testing.assert_array_equal(ds.x, [[1, 2]])

    def test_column_subset_and_order(self, tmp_path):
        path = write(tmp_path, "a.csv", "y,v,u\n1,2,3\n")
        ds = load_csv(StudyConfig(path=path, feature_columns=("u", "v"), response_column="y"))
        np.testing.assert_array_equal(ds.x, [[3, 2]])

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "a.csv", "u,y\n1,2\n")
        with pytest.raises(ValueError, match="no column"):
            load_csv(StudyConfig(path=path, feature_columns=("z",), response_column="y"))

    def test_all_rows_bad(self, tmp_path):
        path = write(tmp_path, "a.csv", "u,y\nx,y\n")
        with pytest.raises(ValueError, match="no usable rows"):
            load_csv(StudyConfig(path=path, feature_columns=("u",), response_column="y"))


class TestCategorical:
    def test_one_hot_sorted_levels(self, tmp_path):
        path = write(tmp_path, "a.csv", "g,u,y\nb,1,0\na,2,1\nb,3,2\n")
        cfg = StudyConfig(
            path=path, feature_columns=("categorical:g", "u"), response_column="y"
        )
        ds = load_csv(cfg)
        # levels sorted: a, b; indicators precede the numeric column
        np.testing.assert_array_equal(ds.x, [[0, 1, 1], [1, 0, 2], [0, 1, 3]])

    def test_shared_universe_across_studies(self, tmp_path):
        p1 = write(tmp_path, "t.csv", "g,y\na,1\nb,2\n")
        p2 = write(tmp_path, "s.csv", "g,y\nc,3\n")
        cfgs = [
            StudyConfig(path=p1, feature_columns=("categorical:g",), response_column="y", role="target"),
            StudyConfig(path=p2, feature_columns=("categorical:g",), response_column="y"),
        ]
        target, sources = load_studies(cfgs)
        # The shared levels are a, b, c: the target's a and b, the source's c.
        np.testing.assert_array_equal(target.x, [[1, 0, 0], [0, 1, 0]])
        np.testing.assert_array_equal(sources[0].x, [[0, 0, 1]])

    def test_row_cut_short_before_categorical_column_is_dropped(self, tmp_path, caplog):
        path = write(tmp_path, "t.csv", "a,g,y\n1,x,2\n3\n4,z,5\n")
        cfg = StudyConfig(
            path=path, feature_columns=("a", "categorical:g"), response_column="y",
            role="target",
        )
        with caplog.at_level(logging.INFO):
            target, sources = load_studies([cfg])
        assert target.n == 2 and sources == ()
        np.testing.assert_array_equal(target.x, [[1, 1, 0], [4, 0, 1]])
        assert "dropped 1" in caplog.text

    def test_unseen_level_encodes_all_zero(self, tmp_path):
        path = write(tmp_path, "a.csv", "g,y\nz,1\n")
        cfg = StudyConfig(path=path, feature_columns=("categorical:g",), response_column="y")
        ds = load_csv(cfg, categories={"g": ("a", "b")})
        np.testing.assert_array_equal(ds.x, [[0, 0]])

    def test_load_studies_opens_each_file_once(self, tmp_path, monkeypatch):
        # One pass per file gives the same Datasets, bit for bit, as loading
        # each file with the levels of every file.
        texts = {
            "t.csv": "u,g,y\n0.1,b,1.5\nbad,a,2\n0.30000000000000004,a,-1\n",
            "s1.csv": "u;g;y\n1e-3;c;0.25\n2;;3\n7;b;1\n",
            "s2.csv": "g,u,y\nd,5,6\n",
        }
        paths = {name: write(tmp_path, name, text) for name, text in texts.items()}
        cfgs = [
            StudyConfig(path=paths[name], feature_columns=("u", "categorical:g"),
                        response_column="y", role="target" if name == "t.csv" else "source")
            for name in ("s1.csv", "t.csv", "s2.csv")
        ]
        cats = {"g": ("a", "b", "c", "d")}
        expect = [load_csv(c, cats) for c in cfgs]
        opened = []
        monkeypatch.setattr(
            datasets, "open", lambda path, *a, **k: opened.append(path) or builtins.open(path, *a, **k),
            raising=False,
        )
        target, sources = load_studies(cfgs)
        assert sorted(opened) == sorted(paths.values())
        for got, want in zip((target, *sources), (expect[1], expect[0], expect[2])):
            assert np.array_equal(got.x, want.x) and np.array_equal(got.y, want.y)
            assert got.x.dtype == want.x.dtype and got.x.shape == want.x.shape

    def test_load_studies_needs_one_target(self, tmp_path):
        p = write(tmp_path, "a.csv", "u,y\n1,2\n")
        cfg = StudyConfig(path=p, feature_columns=("u",), response_column="y")
        with pytest.raises(ValueError, match="exactly one target"):
            load_studies([cfg])


class TestSubsampleSplit:
    def test_partition(self):
        rng = np.random.default_rng(600)
        for _ in range(N_CASES):
            n = int(rng.integers(1, 50))
            k = int(rng.integers(0, n + 1))
            ds = Dataset(x=rng.random((n, 2)), y=rng.normal(size=n))
            seed = int(rng.integers(0, 2**32))
            train, rest = subsample_split(ds, k, seed)
            assert train.n == k and rest.n == n - k
            merged = np.sort(np.concatenate([train.y, rest.y]))
            assert np.array_equal(merged, np.sort(ds.y))
            train2, _ = subsample_split(ds, k, seed)
            assert np.array_equal(train.x, train2.x)

    def test_bounds(self):
        ds = Dataset(x=np.zeros((3, 1)), y=np.zeros(3))
        with pytest.raises(ValueError):
            subsample_split(ds, 4, 0)
        with pytest.raises(ValueError):
            subsample_split(ds, -1, 0)


class TestStandardizer:
    def test_train_statistics_only(self):
        rng = np.random.default_rng(601)
        train = Dataset(x=rng.normal(3.0, 2.0, (200, 2)), y=rng.normal(5.0, 4.0, 200))
        test = Dataset(x=rng.normal(50.0, 9.0, (50, 2)), y=rng.normal(-20.0, 1.0, 50))
        std = fit_standardizer(train)
        t2 = apply_standardizer(std, train)
        assert np.max(np.abs(t2.x.mean(axis=0))) < 1e-12
        np.testing.assert_allclose(t2.x.std(axis=0), 1.0, atol=1e-12)
        assert abs(t2.y.mean()) < 1e-12
        # the test rows must be moved by the train transform, not their own
        q = apply_standardizer(std, test)
        np.testing.assert_allclose(q.x, (test.x - std.x_mean) / std.x_scale)
        np.testing.assert_allclose(q.y, (test.y - std.y_mean) / std.y_scale)
        assert abs(q.x.mean()) > 1.0  # far from 0: no leakage of test stats

    def test_constant_column_keeps_scale_one(self):
        train = Dataset(x=np.ones((5, 2)) * [[2.0, 7.0]], y=np.arange(5.0))
        std = fit_standardizer(train)
        assert np.all(std.x_scale == 1.0)
        out = apply_standardizer(std, train)
        assert np.all(out.x == 0.0)

    def test_constant_response(self):
        train = Dataset(x=np.arange(4.0)[:, None], y=np.full(4, 3.0))
        std = fit_standardizer(train)
        assert std.y_scale == 1.0

    def test_roundtrip_invertible(self):
        rng = np.random.default_rng(602)
        for _ in range(N_CASES):
            n = int(rng.integers(2, 30))
            train = Dataset(x=rng.normal(size=(n, 2)) * 3 + 1, y=rng.normal(size=n))
            std = fit_standardizer(train)
            out = apply_standardizer(std, train)
            back_x = out.x * std.x_scale + std.x_mean
            back_y = out.y * std.y_scale + std.y_mean
            np.testing.assert_allclose(back_x, train.x, atol=1e-12)
            np.testing.assert_allclose(back_y, train.y, atol=1e-12)

    def test_empty_passthrough(self):
        empty = Dataset(x=np.zeros((0, 2)), y=np.zeros(0))
        std = Standardizer(
            x_mean=np.zeros(2), x_scale=np.ones(2), y_mean=0.0, y_scale=1.0
        )
        assert apply_standardizer(std, empty).n == 0

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            fit_standardizer(Dataset(x=np.zeros((0, 1)), y=np.zeros(0)))


class TestStudyConfig:
    def test_role_validation(self):
        with pytest.raises(ValueError):
            StudyConfig(path="x.csv", feature_columns=("u",), response_column="y", role="peer")
        with pytest.raises(ValueError):
            StudyConfig(path="x.csv", feature_columns=(), response_column="y")
