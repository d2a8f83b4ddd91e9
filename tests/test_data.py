"""Dataset loading, preprocessing/augmentation, and deterministic splits."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pndnet.data import (AugmentConfig, Dataset, SplitPlan, augment,
                         bilinear_resize, compute_channel_means, kfold_split,
                         load_dataset, preprocess, split_train_test)
from pndnet.errors import ArgumentError, IngestionError, SplitError
from pndnet.imageio import read_ppm, write_ppm
from pndnet.tensor import Rng

from conftest import no_augment


def write_corpus(root: Path, per_class: dict[str, int], size=16, value=100):
    rng = Rng(0)
    for name, count in per_class.items():
        d = root / name
        d.mkdir(parents=True)
        for i in range(count):
            img = rng.integers(0, 255, (size, size, 3)).astype(np.uint8)
            write_ppm(d / f"img_{i:03d}.ppm", img)


def fake_dataset(class_sizes: list[int]) -> Dataset:
    """Label-only dataset for split tests; paths are never opened."""
    samples = []
    for c, n in enumerate(class_sizes):
        samples.extend((Path(f"/fake/c{c}/i{i}.ppm"), c) for i in range(n))
    return Dataset(samples=samples, class_names=[f"c{c}" for c in range(len(class_sizes))],
                   root=Path("/fake"))


class TestLoadDataset:
    def test_basic_layout(self, tmp_path):
        write_corpus(tmp_path, {"cats": 3, "dogs": 3})
        ds = load_dataset(tmp_path)
        assert len(ds) == 6 and ds.n_classes == 2
        assert ds.class_names == ["cats", "dogs"]
        assert all(label == 0 for _, label in ds.samples[:3])

    def test_empty_root(self, tmp_path):
        with pytest.raises(IngestionError, match="no class directories"):
            load_dataset(tmp_path)
        with pytest.raises(IngestionError, match="not a directory"):
            load_dataset(tmp_path / "missing")

    def test_empty_class_directory_named(self, tmp_path):
        write_corpus(tmp_path, {"full": 2})
        (tmp_path / "empty").mkdir()
        with pytest.raises(IngestionError, match="empty"):
            load_dataset(tmp_path)

    def test_deterministic_order(self, tmp_path):
        write_corpus(tmp_path, {"b": 4, "a": 2})
        first = [str(p) for p, _ in load_dataset(tmp_path).samples]
        second = [str(p) for p, _ in load_dataset(tmp_path).samples]
        assert first == second
        assert load_dataset(tmp_path).class_names == ["a", "b"]

    def test_unreadable_file_reports_path(self, tmp_path):
        write_corpus(tmp_path, {"x": 1})
        broken = tmp_path / "x" / "img_zzz.ppm"
        broken.symlink_to(tmp_path / "x" / "does-not-exist.ppm")
        with pytest.raises(IngestionError, match="img_zzz"):
            load_dataset(tmp_path)


class TestPpmCodec:
    def test_round_trip(self, tmp_path):
        img = Rng(1).integers(0, 255, (5, 7, 3)).astype(np.uint8)
        write_ppm(tmp_path / "a.ppm", img)
        np.testing.assert_array_equal(read_ppm(tmp_path / "a.ppm"), img)

    def test_comments_in_header(self, tmp_path):
        img = np.zeros((2, 2, 3), dtype=np.uint8)
        (tmp_path / "c.ppm").write_bytes(b"P6\n# a comment\n2 2\n255\n" + img.tobytes())
        np.testing.assert_array_equal(read_ppm(tmp_path / "c.ppm"), img)

    def test_truncated_raster(self, tmp_path):
        (tmp_path / "t.ppm").write_bytes(b"P6\n4 4\n255\n\x00\x00")
        with pytest.raises(IngestionError, match="raster"):
            read_ppm(tmp_path / "t.ppm")

    def test_wrong_magic(self, tmp_path):
        (tmp_path / "m.ppm").write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 4)
        with pytest.raises(IngestionError, match="P6"):
            read_ppm(tmp_path / "m.ppm")


class TestPreprocess:
    def test_center_crop_offset(self):
        # 256x256 eval input: crop starts at (16, 16)
        img = np.zeros((256, 256, 3), dtype=np.uint8)
        img[:, :, 0] = np.arange(256, dtype=np.uint8)[:, None].T  # red encodes column
        img[:, :, 1] = np.arange(256, dtype=np.uint8)[:, None]    # green encodes row
        out = preprocess(img, "eval")
        assert out.shape == (224, 224, 3)
        assert out[0, 0, 0] == 16.0 and out[0, 0, 1] == 16.0

    def test_constant_image_minus_means(self):
        img = np.full((300, 260, 3), 77, dtype=np.uint8)
        out = preprocess(img, "eval", channel_means=(10.0, 20.0, 30.0))
        np.testing.assert_allclose(out[..., 0], 67.0, atol=1e-4)
        np.testing.assert_allclose(out[..., 1], 57.0, atol=1e-4)
        np.testing.assert_allclose(out[..., 2], 47.0, atol=1e-4)

    def test_train_mode_deterministic_under_seed(self):
        img = Rng(2).integers(0, 255, (256, 300, 3)).astype(np.uint8)
        a = preprocess(img, "train", rng=Rng(9))
        b = preprocess(img, "train", rng=Rng(9))
        np.testing.assert_array_equal(a, b)

    def test_shorter_side_resized(self):
        img = Rng(3).integers(0, 255, (128, 512, 3)).astype(np.uint8)
        out = preprocess(img, "eval", resize_size=64, crop_size=48)
        assert out.shape == (48, 48, 3)

    def test_train_needs_rng(self):
        img = np.zeros((256, 256, 3), dtype=np.uint8)
        with pytest.raises(ArgumentError):
            preprocess(img, "train")

    def test_bad_mode(self):
        with pytest.raises(ArgumentError):
            preprocess(np.zeros((8, 8, 3), dtype=np.uint8), "test")

    def test_non_rgb_rejected(self):
        with pytest.raises(IngestionError):
            preprocess(np.zeros((8, 8), dtype=np.uint8), "eval")


class TestAugment:
    def test_all_disabled_is_identity(self):
        img = Rng(4).uniform(0, 255, (64, 64, 3)).astype(np.float32)
        out = augment(img, no_augment(), Rng(0))
        np.testing.assert_array_equal(out, img)

    def test_zero_rotation_unit_scale_identity_path(self):
        img = Rng(5).uniform(0, 255, (32, 32, 3)).astype(np.float32)
        cfg = AugmentConfig(rotation_deg=0.0, scale_delta=0.0, flip_p=0.0, blur_p=0.0)
        np.testing.assert_array_equal(augment(img, cfg, Rng(1)), img)

    @pytest.mark.parametrize("seed", range(100))
    def test_output_range_bounded(self, seed):
        rng = Rng(seed)
        img = rng.uniform(0, 255, (40, 40, 3)).astype(np.float32)
        out = augment(img, AugmentConfig(), rng)
        assert out.min() >= img.min() - 1e-3
        assert out.max() <= img.max() + 1e-3

    def test_flip_only(self):
        img = Rng(6).uniform(0, 255, (8, 8, 3)).astype(np.float32)
        cfg = AugmentConfig(rotation_deg=0.0, scale_delta=0.0, flip_p=1.0, blur_p=0.0)
        np.testing.assert_array_equal(augment(img, cfg, Rng(2)), img[:, ::-1, :])

    def test_bad_probabilities(self):
        with pytest.raises(ArgumentError):
            AugmentConfig(flip_p=1.5).validate()


class TestResize:
    def test_constant_preserved(self):
        img = np.full((10, 10, 3), 42.0, dtype=np.float32)
        out = bilinear_resize(img, 17, 23)
        np.testing.assert_allclose(out, 42.0, atol=1e-4)

    def test_identity_shape(self):
        img = Rng(7).uniform(0, 1, (9, 9, 3))
        assert bilinear_resize(img, 9, 9) is img


class TestChannelMeans:
    def test_constant_corpus(self, tmp_path):
        for c in range(2):
            d = tmp_path / f"c{c}"
            d.mkdir()
            img = np.zeros((40, 40, 3), dtype=np.uint8)
            img[..., 0], img[..., 1], img[..., 2] = 10, 20, 30
            write_ppm(d / "i.ppm", img)
        ds = load_dataset(tmp_path)
        means = compute_channel_means(ds, range(len(ds)), resize_size=32, crop_size=32)
        np.testing.assert_allclose(means, [10.0, 20.0, 30.0], atol=1e-3)


class_sizes = st.lists(st.integers(2, 60), min_size=1, max_size=8)
ratios = st.floats(0.05, 0.95)


class TestSplits:
    def test_balanced_seventy_thirty(self):
        ds = fake_dataset([100] * 10)
        plan = split_train_test(ds, ratio=0.7, seed=1)
        assert len(plan.train) == 700 and len(plan.test) == 300
        labels = ds.labels()
        for c in range(10):
            assert sum(1 for i in plan.train if labels[i] == c) == 70
            assert sum(1 for i in plan.test if labels[i] == c) == 30

    def test_two_per_class_half_ratio(self):
        plan = split_train_test(fake_dataset([2, 2]), ratio=0.5, seed=0)
        assert len(plan.train) == 2 and len(plan.test) == 2

    def test_same_seed_identical_plan(self):
        ds = fake_dataset([13, 21, 8])
        a = split_train_test(ds, seed=5).to_json()
        b = split_train_test(ds, seed=5).to_json()
        assert a == b
        assert split_train_test(ds, seed=6).to_json() != a

    @settings(max_examples=100, deadline=None)
    @given(sizes=class_sizes, ratio=ratios, seed=st.integers(0, 2 ** 32 - 1))
    def test_disjoint_and_covering(self, sizes, ratio, seed):
        plan = split_train_test(fake_dataset(sizes), ratio=ratio, seed=seed)
        assert set(plan.train) & set(plan.test) == set()
        assert sorted(plan.train + plan.test) == list(range(sum(sizes)))

    @settings(max_examples=100, deadline=None)
    @given(sizes=class_sizes, ratio=ratios, seed=st.integers(0, 2 ** 32 - 1))
    def test_stratification_within_one_sample(self, sizes, ratio, seed):
        ds = fake_dataset(sizes)
        plan = split_train_test(ds, ratio=ratio, seed=seed)
        labels = ds.labels()
        for c, n in enumerate(sizes):
            got = sum(1 for i in plan.train if labels[i] == c)
            assert abs(got - n * ratio) <= 1.0

    def test_small_class_rejected(self):
        with pytest.raises(SplitError, match="c1"):
            split_train_test(fake_dataset([5, 1]), seed=0)

    def test_bad_ratio(self):
        with pytest.raises(ArgumentError):
            split_train_test(fake_dataset([4, 4]), ratio=1.0)


class TestKfold:
    def test_five_folds_of_twenty(self):
        plan = SplitPlan(train=list(range(100)), test=list(range(100, 120)), seed=0)
        plan = kfold_split(plan, k=5, seed=0)
        assert [len(f) for f in plan.folds] == [20] * 5

    @settings(max_examples=100, deadline=None)
    @given(train=st.sets(st.integers(0, 10 ** 6), min_size=6, max_size=300),
           k=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1))
    @example(train=set(range(0, 206, 2)), k=5, seed=4)
    def test_disjoint_union_is_train(self, train, k, seed):
        plan = kfold_split(SplitPlan(train=sorted(train), test=[-1], seed=0), k=k, seed=seed)
        all_fold = sorted(i for f in plan.folds for i in f)
        assert all_fold == sorted(plan.train)          # disjoint (no repeats) and covering
        sizes = sorted(len(f) for f in plan.folds)
        assert sizes[-1] - sizes[0] <= 1
        for fold in range(k):                         # (k-1):1, so 4:1 at k=5, within one sample
            assert abs(len(plan.fold_train(fold)) - len(train) * (k - 1) / k) <= 1

    def test_potato_protocol_arithmetic(self):
        # 2010 train samples -> five folds of 402, per-fold train side 1608
        plan = SplitPlan(train=list(range(2010)), test=list(range(2010, 2879)), seed=0)
        plan = kfold_split(plan, k=5, seed=0)
        assert all(len(f) == 402 for f in plan.folds)
        for fold in range(5):
            assert len(plan.fold_train(fold)) == 1608
        assert len(plan.test) == 869

    def test_test_side_unaltered(self):
        base = SplitPlan(train=list(range(50)), test=list(range(50, 70)), seed=9)
        folded = kfold_split(base, k=5, seed=1)
        assert folded.test == base.test and folded.train == base.train

    def test_k_bounds(self):
        plan = SplitPlan(train=list(range(4)), test=[9], seed=0)
        with pytest.raises(ArgumentError):
            kfold_split(plan, k=5, seed=0)
        with pytest.raises(ArgumentError):
            kfold_split(plan, k=1, seed=0)

    def test_json_round_trip(self):
        plan = kfold_split(SplitPlan(train=list(range(10)), test=[11, 12], seed=3), k=2, seed=3)
        again = SplitPlan.from_json(plan.to_json())
        assert again.to_json() == plan.to_json()
        assert again.folds == plan.folds
