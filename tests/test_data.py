"""Dataset loading, preprocessing/augmentation, and deterministic splits."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pndnet.data import (AugmentConfig, Dataset, SplitPlan, _resize_taps, _taps, augment,
                         bilinear_resize, compute_channel_means, kfold_split,
                         load_dataset, preprocess, resized_input, split_train_test)
from pndnet.errors import ArgumentError, IngestionError, SplitError
from pndnet.imageio import read_image, read_ppm, write_ppm
from pndnet.tensor import Rng

import oracles
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

    @pytest.mark.parametrize("size", [b"0 0", b"0 4", b"4 0", b"-2 3"])
    def test_size_below_one_rejected(self, tmp_path, size):
        # a 0x0 image used to load and then divide by zero in the resize; a
        # negative width used to read as a raster of a negative expected size
        (tmp_path / "z.ppm").write_bytes(b"P6\n" + size + b"\n255\n" + b"\x00" * 12)
        with pytest.raises(IngestionError, match="malformed PPM header.*at least 1"):
            read_ppm(tmp_path / "z.ppm")

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

    @settings(max_examples=60, deadline=None)
    @given(h=st.integers(8, 70), w=st.integers(8, 70), resize=st.integers(8, 40),
           crop=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1), float_means=st.booleans())
    @example(h=256, w=300, resize=256, crop=224, seed=0, float_means=False)   # the paper geometry
    @example(h=64, w=64, resize=36, crop=32, seed=1, float_means=True)        # the test-suite geometry
    def test_eval_bytes_equal_the_broadcast_subtraction(self, h, w, resize, crop, seed, float_means):
        # eval mode centres channel by channel, as train mode does; the bytes
        # must equal one (1, 1, 3) broadcast subtraction over the crop
        crop = min(crop, resize)
        rng = Rng(seed)
        raw = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
        means = rng.uniform(-300, 300, 3) if float_means else (0.0, 0.0, 0.0)
        got = preprocess(raw, "eval", channel_means=means, resize_size=resize, crop_size=crop)
        want = oracles.preprocess_eval(raw, means, resize, crop)
        assert got.dtype == np.float32 and got.flags.c_contiguous
        assert got.shape == want.shape == (crop, crop, 3) and got.tobytes() == want.tobytes()

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

    @settings(max_examples=60, deadline=None)
    @given(h=st.integers(20, 70), w=st.integers(20, 70), resize=st.integers(20, 40),
           crop=st.integers(8, 20), seed=st.integers(0, 2 ** 32 - 1))
    @example(h=64, w=64, resize=36, crop=16, seed=0)   # the test-suite geometry, 64 -> 36
    @example(h=30, w=45, resize=30, crop=16, seed=0)   # already at resize_size
    def test_resized_input_gives_same_bytes(self, h, w, resize, crop, seed):
        # training resizes each image once and hands preprocess the result
        raw = Rng(seed).integers(0, 256, (h, w, 3)).astype(np.uint8)
        resized = resized_input(raw, resize)
        if min(h, w) == resize:
            assert resized is raw   # held as the 8-bit original, not a float32 copy
        else:
            assert min(resized.shape[:2]) == resize and resized.dtype == np.float32
            want = bilinear_resize(raw.astype(np.float32), *resized.shape[:2])
            assert resized.tobytes() == want.tobytes()
        assert resized_input(resized, resize) is resized
        kw = dict(channel_means=(10.0, 20.0, 30.0), resize_size=resize, crop_size=crop)
        assert preprocess(resized, "eval", **kw).tobytes() == preprocess(raw, "eval", **kw).tobytes()
        want = preprocess(raw, "train", rng=Rng(seed + 1), **kw)
        assert preprocess(resized, "train", rng=Rng(seed + 1), **kw).tobytes() == want.tobytes()


class TestEvalWindow:
    """Eval ``preprocess`` resizes only the centre crop it keeps; its bytes
    must equal resizing the whole image, then cropping (``oracles``)."""

    @settings(max_examples=100, deadline=None)
    @given(orient=st.sampled_from(["portrait", "landscape", "square"]),
           scale=st.sampled_from(["down", "up", "at"]), short=st.integers(1, 60),
           extra=st.integers(1, 60), step=st.integers(1, 40), crop_cut=st.integers(0, 12),
           dtype=st.sampled_from([np.uint8, np.float32]), held=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(orient="square", scale="down", short=64, extra=1, step=28, crop_cut=4,
             dtype=np.uint8, held=False, seed=0)   # the test-suite geometry, 64 -> 36, crop 32
    @example(orient="landscape", scale="down", short=60, extra=60, step=50, crop_cut=0,
             dtype=np.uint8, held=False, seed=1)   # 6x down: the y-taps skip most source rows
    @example(orient="portrait", scale="up", short=5, extra=3, step=30, crop_cut=0,
             dtype=np.float32, held=True, seed=2)  # 7x up, crop equal to resize_size, held
    def test_equals_resize_then_crop_oracle(self, orient, scale, short, extra, step, crop_cut,
                                            dtype, held, seed):
        long = short if orient == "square" else short + extra
        h, w = (long, short) if orient == "portrait" else (short, long)
        resize = {"down": max(1, short - step), "up": short + step, "at": short}[scale]
        crop = max(1, resize - crop_cut)   # crop_cut 0: the crop is the whole short side
        rng = Rng(seed)
        raw = rng.uniform(0, 255, (h, w, 3)).astype(dtype)
        means = rng.uniform(-300, 300, 3)
        image = resized_input(raw, resize) if held else raw
        got = preprocess(image, "eval", channel_means=means, resize_size=resize, crop_size=crop)
        want = oracles.preprocess_eval(raw, means, resize, crop)
        assert got.dtype == np.float32 and got.flags.c_contiguous
        assert got.shape == want.shape == (crop, crop, 3) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(768, 1024), (1100, 700)])
    def test_photo_sized_images_at_paper_geometry(self, shape):
        raw = Rng(sum(shape)).integers(0, 256, (*shape, 3)).astype(np.uint8)
        means = (123.5, 117.25, 104.0)
        got = preprocess(raw, "eval", channel_means=means)
        assert got.tobytes() == oracles.preprocess_eval(raw, means, 256, 224).tobytes()

    def test_image_at_resize_size_is_cropped_before_its_cast(self, monkeypatch):
        # an 8-bit image already at resize_size is neither resized nor cast whole
        import pndnet.data

        def no_resize(*args):
            raise AssertionError("resized an image already at resize_size")

        monkeypatch.setattr(pndnet.data, "_resize_window", no_resize)
        raw = Rng(3).integers(0, 256, (36, 50, 3)).astype(np.uint8)
        got = preprocess(raw, "eval", resize_size=36, crop_size=32)
        assert got.tobytes() == oracles.preprocess_eval(raw, (0.0, 0.0, 0.0), 36, 32).tobytes()


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

    @pytest.mark.parametrize("sigma", [(0.0, 0.0), (0.0, 1.0), (-1.0, 1.0), (1.5, 0.5)])
    def test_blur_sigma_must_be_positive_and_ordered(self, sigma):
        with pytest.raises(ArgumentError, match="blur sigma"):
            AugmentConfig(blur_sigma=sigma).validate()

    def test_equal_blur_sigmas_accepted(self):
        AugmentConfig(blur_sigma=(0.5, 0.5)).validate()

    @pytest.mark.parametrize("field,overrides", [
        ("rotation_deg", dict(rotation_deg=float("nan"))),
        ("rotation_deg", dict(rotation_deg=float("inf"))),
        ("scale_delta", dict(scale_delta=float("nan"))),
        ("blur_sigma_lo", dict(blur_sigma=(float("nan"), 1.0))),
        ("blur_sigma_hi", dict(blur_sigma=(0.5, float("inf")))),
    ])
    def test_non_finite_values_rejected(self, field, overrides):
        # nan > 0 is false, so rotation=nan used to train with rotation off;
        # rotation=inf and blur_sigma_hi=inf used to raise numpy's OverflowError
        with pytest.raises(ArgumentError, match=f"{field} must be finite"):
            AugmentConfig(**overrides).validate()
        with pytest.raises(ArgumentError, match=field):
            augment(np.zeros((8, 8, 3), np.float32), AugmentConfig(**overrides, blur_p=1.0), Rng(0))


def crop_origin(seed: int, cfg: AugmentConfig, h: int, w: int, crop: int) -> tuple[int, int]:
    """The crop's top and left that train-mode ``preprocess`` draws from
    ``Rng(seed)`` on an h x w resized image: the oracle's augment draws come
    first."""
    rng = Rng(seed)
    oracles.augment(np.zeros((h, w, 3), np.float32), cfg, rng)
    return int(rng.integers(0, h - crop + 1)), int(rng.integers(0, w - crop + 1))


class TestWindowedAugment:
    """Train-mode ``preprocess`` augments only its crop window, channel-planar;
    ``augment`` is the same code on the whole image. Both must give the bytes
    of the whole-image chain in ``oracles`` and consume the same draws."""

    @staticmethod
    def check(img, cfg, seed, resize, crop):
        kw = dict(channel_means=(10.0, 20.0, 30.0), resize_size=resize, crop_size=crop)
        got_rng, want_rng = Rng(seed), Rng(seed)
        got = preprocess(img, "train", rng=got_rng, augment_cfg=cfg, **kw)
        want = oracles.preprocess_train(img, want_rng, augment_cfg=cfg, **kw)
        assert got.dtype == want.dtype == np.float32 and got.shape == want.shape == (crop, crop, 3)
        assert got.tobytes() == want.tobytes()
        assert got_rng.uniform() == want_rng.uniform()   # the same draws were consumed
        got_rng, want_rng = Rng(seed), Rng(seed)
        got = augment(img, cfg, got_rng)
        want = oracles.augment(img, cfg, want_rng)
        assert got.dtype == want.dtype == img.dtype and got.tobytes() == want.tobytes()
        assert got_rng.uniform() == want_rng.uniform()

    @settings(max_examples=150, deadline=None)
    @given(h=st.integers(4, 60), w=st.integers(4, 60), resize=st.integers(4, 40),
           margin=st.integers(0, 6), flip_p=st.sampled_from([0.0, 0.5, 1.0]),
           rotation=st.sampled_from([0.0, 25.0]), scale=st.sampled_from([0.0, 0.25]),
           blur_p=st.sampled_from([0.0, 0.5, 1.0]), sigma_hi=st.floats(0.5, 4.0),
           dtype=st.sampled_from([np.uint8, np.float32]), seed=st.integers(0, 2 ** 32 - 1))
    @example(h=64, w=64, resize=36, margin=4, flip_p=0.5, rotation=25.0, scale=0.25, blur_p=1.0,
             sigma_hi=4.0, dtype=np.uint8, seed=0)    # test geometry, radius 12 > margin 4
    @example(h=36, w=50, resize=36, margin=0, flip_p=1.0, rotation=25.0, scale=0.25, blur_p=1.0,
             sigma_hi=1.5, dtype=np.float32, seed=1)  # resize_size == crop_size, non-square
    @example(h=40, w=40, resize=36, margin=4, flip_p=1.0, rotation=0.0, scale=0.0, blur_p=1.0,
             sigma_hi=2.0, dtype=np.uint8, seed=2)    # no warp: flip and blur only
    @example(h=40, w=30, resize=36, margin=4, flip_p=0.0, rotation=0.0, scale=0.0, blur_p=0.0,
             sigma_hi=0.5, dtype=np.float32, seed=3)  # nothing drawn to change: the crop alone
    def test_equals_whole_image_oracle(self, h, w, resize, margin, flip_p, rotation, scale,
                                       blur_p, sigma_hi, dtype, seed):
        rng = Rng(seed)
        if dtype == np.uint8:
            img = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
        else:
            img = rng.uniform(-300, 300, (h, w, 3)).astype(np.float32)
        cfg = AugmentConfig(rotation_deg=rotation, scale_delta=scale, flip_p=flip_p, blur_p=blur_p,
                            blur_sigma=(0.5, sigma_hi))
        self.check(img, cfg, seed + 1, resize, max(1, resize - margin))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("blur_p", [0.0, 1.0])
    def test_paper_geometry_spans_several_bands(self, seed, blur_p):
        # 224-px rows go in bands of about 36, the last one partial; the
        # small geometries above fit in one band
        img = Rng(seed).integers(0, 256, (256, 300, 3)).astype(np.uint8)
        self.check(img, AugmentConfig(blur_p=blur_p), seed, 256, 224)

    def test_crops_touching_each_edge(self):
        # sigma in [3.5, 4] gives a blur radius of 11 or 12 against a margin of 4
        cfg = AugmentConfig(blur_p=1.0, blur_sigma=(3.5, 4.0))
        img = Rng(9).integers(0, 256, (36, 45, 3)).astype(np.uint8)
        touched = set()
        for seed in range(40):
            top, left = crop_origin(seed, cfg, 36, 45, 32)
            touched |= {name for name, hit in (("top", top == 0), ("bottom", top == 4),
                                               ("left", left == 0), ("right", left == 13)) if hit}
            self.check(img, cfg, seed, 36, 32)
        assert touched == {"top", "bottom", "left", "right"}


class TestResize:
    def test_constant_preserved(self):
        img = np.full((10, 10, 3), 42.0, dtype=np.float32)
        out = bilinear_resize(img, 17, 23)
        np.testing.assert_allclose(out, 42.0, atol=1e-4)

    def test_identity_shape(self):
        img = Rng(7).uniform(0, 1, (9, 9, 3))
        assert bilinear_resize(img, 9, 9) is img

    @settings(max_examples=200, deadline=None)
    @given(h=st.integers(1, 30), w=st.integers(1, 30), out_h=st.integers(1, 45), out_w=st.integers(1, 45),
           c=st.integers(1, 3), dtype=st.sampled_from([np.float32, np.float64, np.uint8]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(h=64, w=64, out_h=36, out_w=36, c=3, dtype=np.float32, seed=0)
    @example(h=1, w=1, out_h=5, out_w=3, c=1, dtype=np.float32, seed=0)
    def test_separable_equals_sample_on_grid(self, h, w, out_h, out_w, c, dtype, seed):
        # up- and down-scaling, non-square, 1-pixel extents: bytes equal the 2-D sampler's
        img = Rng(seed).uniform(0, 255, (h, w, c)).astype(dtype)
        sy = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
        sx = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
        want = oracles.bilinear_sample(img, *np.meshgrid(sy, sx, indexing="ij"))
        got = bilinear_resize(img, out_h, out_w)
        assert got.dtype == want.dtype == dtype and got.shape == want.shape == (out_h, out_w, c)
        assert got.tobytes() == want.tobytes()


class TestResizeTapsCache:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 300), out=st.integers(1, 300), c=st.integers(1, 4))
    def test_cached_equals_fresh_and_is_read_only(self, n, out, c):
        taps = _resize_taps(n, out, c)
        fresh = _resize_taps.__wrapped__(n, out, c)
        assert taps is _resize_taps(n, out, c)
        assert len(taps) == len(fresh) == 4
        for table, want in zip(taps, fresh):
            assert table.dtype == want.dtype and table.shape == want.shape == (out * c,)
            assert table.tobytes() == want.tobytes()
            with pytest.raises(ValueError):
                table[0] = 0


def fancy_index_sample(img: np.ndarray, sy: np.ndarray, sx: np.ndarray) -> np.ndarray:
    """Reference sampler: the four taps as 2-D fancy-index gathers."""
    h, w = img.shape[:2]
    y0, y1, wy = _taps(sy, h)
    x0, x1, wx = _taps(sx, w)
    wy = wy[..., None]
    wx = wx[..., None]
    top = img[y0, x0] * (1 - wx) + img[y0, x1] * wx
    bot = img[y1, x0] * (1 - wx) + img[y1, x1] * wx
    return (top * (1 - wy) + bot * wy).astype(img.dtype, copy=False)


class TestBilinearSample:
    @settings(max_examples=200, deadline=None)
    @given(h=st.integers(1, 20), w=st.integers(1, 20), out_h=st.integers(1, 20), out_w=st.integers(1, 20),
           c=st.integers(1, 3), dtype=st.sampled_from([np.float32, np.float64, np.uint8]),
           flip=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    @example(h=7, w=5, out_h=7, out_w=5, c=3, dtype=np.uint8, flip=True, seed=0)
    def test_flat_take_equals_fancy_index(self, h, w, out_h, out_w, c, dtype, flip, seed):
        # coordinates reach 3 pixels past every edge, so the taps clamp
        rng = Rng(seed)
        img = rng.uniform(0, 255, (h, w, c)).astype(dtype)
        if flip:
            img = img[:, ::-1, :]   # a non-contiguous view, as augment's flip passes it
        sy = rng.uniform(-3, h + 2, (out_h, out_w))
        sx = rng.uniform(-3, w + 2, (out_h, out_w))
        got = oracles.bilinear_sample(img, sy, sx)
        want = fancy_index_sample(img, sy, sx)
        assert got.dtype == want.dtype == dtype and got.shape == want.shape == (out_h, out_w, c)
        assert got.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("resize,crop", [(36, 32), (256, 224)])
    def test_bytes_equal_the_mean_of_each_eval_crop(self, tmp_path, resize, crop):
        # the channel sums must keep numpy's order for mean over the leading
        # axes; another numpy order would move every checkpoint's means
        rng = Rng(resize)
        shapes = [(40, 40), (37, 90), (100, 41), (resize, resize + 9), (300, 260), (20, 30)]
        for i, shape in enumerate(shapes):
            d = tmp_path / f"c{i % 2}"
            d.mkdir(exist_ok=True)
            write_ppm(d / f"i{i}.ppm", rng.integers(0, 256, (*shape, 3)).astype(np.uint8))
        ds = load_dataset(tmp_path)
        got = compute_channel_means(ds, range(len(ds)), resize_size=resize, crop_size=crop)
        want = np.zeros(3)
        for path, _ in ds.samples:
            want += preprocess(read_image(path), "eval", resize_size=resize,
                               crop_size=crop).mean(axis=(0, 1))
        assert got.dtype == np.float64 and got.tobytes() == (want / len(ds)).tobytes()


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
