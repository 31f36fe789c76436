"""Tests for dataset generation, noise injection, splitting, and CSV I/O."""

import numpy as np
import pytest

from arl import data
from arl.errors import ConfigError, DataFormatError, DomainError

# chi-square 0.999 quantiles by degrees of freedom, frozen reference values
CHI2_999 = {1: 10.828, 2: 13.816, 8: 26.124}


class TestBlobs:
    def test_balanced(self):
        ds = data.gen_blobs(300, 3, seed=0)
        assert np.bincount(ds.y).tolist() == [100, 100, 100]

    def test_deterministic(self):
        a = data.gen_blobs(100, 4, seed=9)
        b = data.gen_blobs(100, 4, seed=9)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_tight_spread_separable(self):
        ds = data.gen_blobs(300, 3, spread=1e-3, seed=1)
        angles = 2 * np.pi * np.arange(3) / 3
        centers = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        nearest = np.argmin(
            ((ds.X[:, None, :] - centers[None, :, :]) ** 2).sum(-1), axis=1
        )
        assert np.all(nearest == ds.y)

    def test_high_dim_centers(self):
        ds = data.gen_blobs(90, 3, d_in=6, spread=0.1, seed=2)
        assert ds.X.shape == (90, 6)

    def test_bad_sizes(self):
        with pytest.raises(ConfigError):
            data.gen_blobs(2, 3)
        with pytest.raises(ConfigError):
            data.gen_blobs(10, 3, spread=0.0)

    @pytest.mark.parametrize("args, says", [
        ((10, 1, 2, 0.3), "need n >= c >= 2, got n=10, c=1"),
        ((2, 3, 2, 0.3), "need n >= c >= 2, got n=2, c=3"),
        ((10, 3, 1, 0.3), "d_in must be >= 2"),
        ((10, 3, 2, -1.0), "spread must be positive"),
        ((10, 4, 3, 0.3), "need d_in >= c for orthogonal centers"),
    ])
    def test_messages(self, args, says):
        # gen_blobs' one check, which the config parser runs too
        with pytest.raises(ConfigError, match=f"^{says}$"):
            data.gen_blobs(*args)
        with pytest.raises(ConfigError, match=f"^{says}$"):
            data._check_blobs(*args)


class TestSymmetric:
    def test_eta_zero_identity(self):
        ds = data.gen_blobs(100, 3, seed=3)
        noisy = data.inject_symmetric(ds, 0.0, seed=1)
        np.testing.assert_array_equal(noisy.y, noisy.y_clean)
        np.testing.assert_array_equal(noisy.y_clean, ds.y)

    def test_flip_fraction_binomial(self):
        ds = data.gen_blobs(10000, 10, d_in=10, spread=0.2, seed=4)
        noisy = data.inject_symmetric(ds, 0.4, seed=5)
        frac = noisy.flip_mask.mean()
        bound = 3 * np.sqrt(0.4 * 0.6 / 10000)
        assert abs(frac - 0.4) <= bound

    def test_flip_targets_uniform(self):
        ds = data.gen_blobs(10000, 10, d_in=10, spread=0.2, seed=6)
        noisy = data.inject_symmetric(ds, 0.4, seed=7)
        flipped = noisy.flip_mask
        # pool the offsets (target - true, mod c), which are uniform on 1..9
        offsets = (noisy.y[flipped] - noisy.y_clean[flipped]) % 10
        counts = np.bincount(offsets, minlength=10)[1:]
        expected = counts.sum() / 9.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 <= CHI2_999[8]

    def test_features_untouched(self):
        ds = data.gen_blobs(200, 4, seed=8)
        noisy = data.inject_symmetric(ds, 0.5, seed=9)
        np.testing.assert_array_equal(noisy.X, ds.X)
        np.testing.assert_array_equal(noisy.y_clean, ds.y)

    def test_exact_count_mode(self):
        ds = data.gen_blobs(1000, 5, d_in=5, seed=10)
        noisy = data.inject_symmetric(ds, 0.4, seed=11, exact_count=True)
        assert int(noisy.flip_mask.sum()) == 400

    def test_eta_domain(self):
        ds = data.gen_blobs(50, 2, seed=12)
        with pytest.raises(DomainError):
            data.inject_symmetric(ds, 1.5)

    def test_plurality_preserved_in_expectation(self):
        # at eta <= 1 - 1/c the clean class keeps more mass than any target
        c, eta = 10, 0.4
        keep = 1 - eta
        per_target = eta / (c - 1)
        assert keep > per_target


class TestAsymmetric:
    def test_eta_zero_identity(self):
        ds = data.gen_blobs(100, 4, seed=13)
        noisy = data.inject_asymmetric(ds, 0.0, seed=1)
        np.testing.assert_array_equal(noisy.y, noisy.y_clean)

    def test_targets_designated_only(self):
        ds = data.gen_blobs(5000, 5, d_in=5, seed=14)
        noisy = data.inject_asymmetric(ds, 0.4, seed=15)
        flipped = noisy.flip_mask
        offsets = (noisy.y[flipped] - noisy.y_clean[flipped]) % 5
        assert set(np.unique(offsets)) <= {1, 2}

    def test_equal_target_split(self):
        ds = data.gen_blobs(20000, 5, d_in=5, seed=16)
        noisy = data.inject_asymmetric(ds, 0.4, seed=17)
        offsets = (noisy.y[noisy.flip_mask] - noisy.y_clean[noisy.flip_mask]) % 5
        n1 = int((offsets == 1).sum())
        total = offsets.size
        assert abs(n1 - total / 2) <= 3 * np.sqrt(total * 0.25)

    @pytest.mark.parametrize("c", [2, 3])
    def test_needs_four_classes(self, c):
        # at c = 3, j+1 and j+2 are both other classes: symmetric noise
        ds = data.gen_blobs(100, c, seed=18)
        with pytest.raises(ConfigError, match=f"at least 4 classes, got {c}: .* symmetric noise"):
            data.inject_asymmetric(ds, 0.2)


class TestHierarchical:
    def test_no_cross_block_flips(self):
        ds = data.gen_blobs(4000, 6, d_in=6, seed=19)
        blocks = [[0, 1, 2], [3, 4, 5]]
        noisy = data.inject_hierarchical(ds, 0.5, blocks, seed=20)
        for block in blocks:
            members = np.isin(noisy.y_clean, block)
            assert np.all(np.isin(noisy.y[members], block))

    def test_eta_zero(self):
        ds = data.gen_blobs(100, 4, seed=21)
        noisy = data.inject_hierarchical(ds, 0.0, [[0, 1], [2, 3]], seed=2)
        np.testing.assert_array_equal(noisy.y, noisy.y_clean)

    def test_within_block_uniform(self):
        ds = data.gen_blobs(30000, 4, d_in=4, seed=22)
        noisy = data.inject_hierarchical(ds, 0.5, [[0, 1, 2, 3]], seed=23)
        flipped = noisy.flip_mask & (noisy.y_clean == 0)
        counts = np.bincount(noisy.y[flipped], minlength=4)[1:]
        expected = counts.sum() / 3.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 <= CHI2_999[2]

    def test_singleton_block_rejected(self):
        ds = data.gen_blobs(100, 3, seed=24)
        with pytest.raises(ConfigError):
            data.inject_hierarchical(ds, 0.3, [[0, 1], [2]])

    def test_partition_must_cover(self):
        ds = data.gen_blobs(100, 3, seed=25)
        with pytest.raises(ConfigError):
            data.inject_hierarchical(ds, 0.3, [[0, 1]])


class TestSplit:
    def test_stratified_meta(self):
        ds = data.gen_blobs(900, 3, seed=26)
        split = data.split_meta(ds, 30, 0.2, seed=27)
        assert np.bincount(split.meta.y).tolist() == [10, 10, 10]
        assert len(split.test) == 180
        assert len(split.train) == 900 - 30 - 180

    def test_disjoint(self):
        ds = data.gen_blobs(300, 3, seed=28)
        split = data.split_meta(ds, 30, 0.3, seed=29)
        # rows are unique with probability 1, so compare feature tuples
        train = {tuple(r) for r in split.train.X}
        meta = {tuple(r) for r in split.meta.X}
        test = {tuple(r) for r in split.test.X}
        assert not (train & meta) and not (train & test) and not (meta & test)
        assert len(train | meta | test) == 300

    def test_absolute_test_size(self):
        ds = data.gen_blobs(4030, 3, seed=30)
        split = data.split_meta(ds, 30, 1000, seed=31)
        assert len(split.test) == 1000 and len(split.train) == 3000

    def test_deterministic(self):
        ds = data.gen_blobs(300, 3, seed=32)
        a = data.split_meta(ds, 30, 0.2, seed=33)
        b = data.split_meta(ds, 30, 0.2, seed=33)
        np.testing.assert_array_equal(a.train.X, b.train.X)
        np.testing.assert_array_equal(a.meta.y, b.meta.y)

    def test_infeasible(self):
        ds = data.gen_blobs(100, 2, seed=34)
        with pytest.raises(ConfigError):
            data.split_meta(ds, 80, 0.5)

    def test_nonintegral_count_rejected(self):
        ds = data.gen_blobs(100, 2, seed=34)
        with pytest.raises(ConfigError, match="test_fraction=2.5"):
            data.split_meta(ds, 30, 2.5)

    def test_parts_clean_until_injected(self):
        ds = data.gen_blobs(300, 3, seed=36)
        split = data.split_meta(ds, 30, 0.2, seed=37)
        for part in (split.train, split.meta, split.test):
            assert part.y_clean is part.y and not part.flip_mask.any()
        noisy = data.inject_symmetric(split.train, 0.5, seed=38)
        assert noisy.flip_mask.any()
        # a second injector flips from the clean labels, not the noisy ones
        again = data.inject_symmetric(noisy, 0.0, seed=39)
        np.testing.assert_array_equal(again.y, split.train.y)
        assert not again.flip_mask.any()


class TestCsv:
    def test_label_remap(self, tmp_path):
        # labels map to 0..c-1 in sorted order, not in the order they are first read
        path = tmp_path / "two.csv"
        path.write_text("1.5,2.5,9\n3.5,4.5,5\n0.5,1.5,9\n")
        ds = data.load_csv(path)
        assert ds.c == 2
        assert ds.y.dtype == np.int64
        np.testing.assert_array_equal(ds.y, [1, 0, 1])
        np.testing.assert_array_equal(ds.y_clean, ds.y)

    def test_roundtrip(self, tmp_path):
        ds = data.gen_blobs(50, 3, seed=35)
        path = tmp_path / "blobs.csv"
        data.write_csv(ds, path)
        back = data.load_csv(path)
        np.testing.assert_allclose(back.X, ds.X, rtol=1e-8)
        np.testing.assert_array_equal(back.y, ds.y)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError):
            data.load_csv(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,0\n1.0,zzz,1\n")
        with pytest.raises(DataFormatError, match=":2"):
            data.load_csv(path)

    def test_inconsistent_width(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0,0\n1.0,1\n")
        with pytest.raises(DataFormatError, match="columns"):
            data.load_csv(path)

    @pytest.mark.parametrize("feature", ["nan", "inf", "-inf"])
    def test_nonfinite_feature_names_line(self, tmp_path, feature):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"1.0,2.0,0\n1.0,2.0,1\n{feature},2.0,1\n")
        with pytest.raises(DataFormatError, match=r"nonfinite\.csv:3: non-finite"):
            data.load_csv(path)

    @pytest.mark.parametrize("label", ["1.7", "inf", "nan"])
    def test_nonintegral_label_names_line(self, tmp_path, label):
        # "1.7" used to load as class 1
        path = tmp_path / "fractional.csv"
        path.write_text(f"1.0,2.0,0\n1.0,2.0,{label}\n")
        with pytest.raises(DataFormatError, match=r"fractional\.csv:2: label .* not an integer"):
            data.load_csv(path)

    def test_integral_float_label_loads(self, tmp_path):
        path = tmp_path / "float_labels.csv"
        path.write_text("1.0,2.0,0.0\n1.0,2.0,3.0\n")
        ds = data.load_csv(path)
        assert ds.c == 2
        np.testing.assert_array_equal(ds.y, [0, 1])
