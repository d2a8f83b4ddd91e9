"""Dataset ingestion, preprocessing, augmentation, and deterministic splits.

Datasets are directory-per-class trees; class order is lexicographic and the
sample order is path-sorted, so the same root always loads identically.
Preprocessing resizes the shorter side, augments (train mode), crops, and
zero-centers each channel by dataset-computed means without scaling.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ArgumentError, IngestionError, SplitError
from .imageio import IMAGE_SUFFIXES, read_image
from .tensor import Rng


@dataclass
class Dataset:
    samples: list[tuple[Path, int]]
    class_names: list[str]
    root: Path

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def __len__(self) -> int:
        return len(self.samples)

    def labels(self) -> np.ndarray:
        return np.array([label for _, label in self.samples], dtype=np.int64)


def load_dataset(root) -> Dataset:
    """Load a directory-per-class image tree; order is fully deterministic."""
    root = Path(root)
    if not root.is_dir():
        raise IngestionError(f"dataset root {root} is not a directory")
    class_dirs = sorted(d for d in root.iterdir() if d.is_dir())
    if not class_dirs:
        raise IngestionError(f"dataset root {root} contains no class directories")
    samples: list[tuple[Path, int]] = []
    class_names = []
    for index, class_dir in enumerate(class_dirs):
        class_names.append(class_dir.name)
        # broken symlinks fail is_file() but must surface as unreadable paths
        files = sorted(p for p in class_dir.iterdir()
                       if (p.is_file() or p.is_symlink()) and p.suffix.lower() in IMAGE_SUFFIXES)
        if not files:
            raise IngestionError(f"class directory {class_dir.name!r} has no image files")
        for path in files:
            try:
                with open(path, "rb") as fh:
                    fh.read(1)
            except OSError as err:
                raise IngestionError(f"unreadable image {path}: {err}") from err
            samples.append((path, index))
    return Dataset(samples=samples, class_names=class_names, root=root)


# ---------------------------------------------------------------------------
# resampling primitives


def _taps(s: np.ndarray, n: int):
    """Per-axis bilinear taps of fractional coords ``s`` on an axis of ``n``
    pixels: both neighbours, clamped to the edges, and the far one's weight."""
    i0f = np.floor(s)
    weight = np.clip(s - i0f, 0.0, 1.0)
    i0 = np.clip(i0f, 0, n - 1).astype(np.intp)
    i1 = np.clip(i0f + 1, 0, n - 1).astype(np.intp)
    return i0, i1, weight


@functools.lru_cache(maxsize=64)
def _resize_taps(n: int, out: int, c: int) -> tuple[np.ndarray, ...]:
    """(near, far, 1 - weight, weight) of an axis of ``n`` pixels of ``c``
    channels resized to ``out``: entry p * c + j is output pixel p's channel
    j. Cached per (n, out, c), so read-only, like ``tensor._bin_table``."""
    near, far, weight = _taps((np.arange(out) + 0.5) * (n / out) - 0.5, n)
    channel = np.arange(c)
    taps = ((near[:, None] * c + channel).ravel(), (far[:, None] * c + channel).ravel(),
            np.repeat(1 - weight, c), np.repeat(weight, c))
    for table in taps:
        table.flags.writeable = False
    return taps


def _resize_window(img: np.ndarray, out_h: int, out_w: int, rows: slice, cols: slice,
                   dtype) -> np.ndarray:
    """Only the window [rows, cols] of ``img`` resized to out_h x out_w, as
    ``dtype``: an x-pass over the window's columns of the source rows its
    y-taps read (cast to ``dtype`` as read), then a y-pass, each pixel in
    ``augment``'s float64 expressions and order."""
    h, w, c = img.shape
    near_y, far_y, keep_y, take_y = (t[rows] for t in _resize_taps(h, out_h, 1))
    near_x, far_x, keep_x, take_x = (t[cols.start * c:cols.stop * c] for t in _resize_taps(w, out_w, c))
    read = np.zeros(h, bool)
    read[near_y] = read[far_y] = True
    at = np.cumsum(read) - 1   # a read source row's place among the rows read
    src = img[read].reshape(-1, w * c)
    x_pass = src.take(near_x, axis=1).astype(dtype, copy=False) * keep_x
    x_pass += src.take(far_x, axis=1).astype(dtype, copy=False) * take_x   # [rows read, window * c], float64
    out = x_pass[at[near_y]] * keep_y[:, None]
    out += x_pass[at[far_y]] * take_y[:, None]
    return out.reshape(len(near_y), -1, c).astype(dtype, copy=False)


def _resized_shape(h: int, w: int, resize_size: int) -> tuple[int, int]:
    """The shape of an h x w image with its shorter side resized to ``resize_size``."""
    if h <= w:
        return resize_size, max(resize_size, round(w * resize_size / h))
    return max(resize_size, round(h * resize_size / w)), resize_size


def resized_input(image: np.ndarray, resize_size: int) -> np.ndarray:
    """The first step of train-mode ``preprocess``: the whole ``image`` with
    its shorter side resized to ``resize_size`` as float32 (pixels cast as
    read), or ``image`` itself (any dtype) if that leaves its shape unchanged.
    Idempotent, so a caller may hold this result instead of the original and
    get the same bytes from ``preprocess`` in either mode; an image already
    at ``resize_size`` stays 8-bit rather than a 4x float32 copy."""
    h, w = _resized_shape(*image.shape[:2], resize_size)
    if (h, w) == image.shape[:2]:
        return image
    return _resize_window(image, h, w, slice(0, h), slice(0, w), np.float32)


# ---------------------------------------------------------------------------
# augmentation


@dataclass
class AugmentConfig:
    rotation_deg: float = 25.0
    scale_delta: float = 0.25
    flip_p: float = 0.5
    blur_p: float = 0.3
    blur_sigma: tuple[float, float] = (0.5, 1.5)

    def validate(self):
        lo, hi = self.blur_sigma
        for name, v in (("rotation_deg", self.rotation_deg), ("scale_delta", self.scale_delta),
                        ("blur_sigma_lo", lo), ("blur_sigma_hi", hi)):
            if not np.isfinite(v):
                raise ArgumentError(f"{name} must be finite, got {v}")
        for name in ("flip_p", "blur_p"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ArgumentError(f"{name} must be in [0, 1], got {v}")
        if self.rotation_deg < 0 or self.scale_delta < 0:
            raise ArgumentError("rotation_deg and scale_delta must be >= 0")
        if self.scale_delta >= 1.0:
            raise ArgumentError(f"scale_delta must be < 1, got {self.scale_delta}")
        if not 0.0 < lo <= hi:
            raise ArgumentError(f"blur sigma needs 0 < blur_sigma_lo <= blur_sigma_hi, got {lo} and {hi}")


def _augment_window(img: np.ndarray, cfg: AugmentConfig, rng: Rng, crop: int | None) -> np.ndarray:
    """``img`` augmented, or with ``crop`` a random crop x crop window of it,
    as [C, H, W] planes of its dtype. Every draw comes first: flip, rotation,
    scale, blur gate, blur sigma, then the crop's top and left. Only the
    window and the blur's margin are computed, at indices clamped to the
    image (the blur's edge padding); multiplies run along pixels, not 3 channels."""
    cfg.validate()
    flip = cfg.flip_p > 0 and rng.uniform() < cfg.flip_p
    theta = float(rng.uniform(-cfg.rotation_deg, cfg.rotation_deg)) if cfg.rotation_deg > 0 else 0.0
    scale = 1.0 + (float(rng.uniform(-cfg.scale_delta, cfg.scale_delta)) if cfg.scale_delta > 0 else 0.0)
    sigma = float(rng.uniform(*cfg.blur_sigma)) if cfg.blur_p > 0 and rng.uniform() < cfg.blur_p else None
    h, w, c = img.shape
    out_h, out_w = (h, w) if crop is None else (crop, crop)
    top, left = [0, 0] if crop is None else [int(rng.integers(0, n - crop + 1)) for n in (h, w)]
    if flip:
        img = img[:, ::-1]
    r = 0 if sigma is None else max(1, int(np.ceil(3.0 * sigma)))
    ys = np.clip(np.arange(top - r, top + out_h + r), 0, h - 1)
    xs = np.clip(np.arange(left - r, left + out_w + r), 0, w - 1)
    band = max(1, 8192 // xs.size)   # rows per band of the warp and the blur: buffers stay in cache
    if theta == 0.0 and scale == 1.0:
        planes = img[ys[:, None], xs].transpose(2, 0, 1)
    else:   # rotate and scale about the centre: inverse mapping, bilinear taps clamped to the edges
        cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
        cos, sin = np.cos(np.deg2rad(theta)), np.sin(np.deg2rad(theta))
        dy, dx = (ys - cy) / scale, (xs - cx) / scale
        src = np.ascontiguousarray(img.transpose(2, 0, 1), dtype=np.float64).reshape(c, h * w)
        planes = np.empty((c, ys.size, xs.size), img.dtype)
        for a in range(0, ys.size, band):
            span = slice(a, a + band)
            # per pixel: cy + cos * dy - sin * dx and cx + sin * dy + cos * dx, in that order
            y0, y1, wy = _taps(((cy + cos * dy[span])[:, None] - sin * dx).ravel(), h)
            x0, x1, wx = _taps(((cx + sin * dy[span])[:, None] + cos * dx).ravel(), w)
            vwx, y0, y1 = 1 - wx, y0 * w, y1 * w
            upper = src.take(y0 + x0, axis=1) * vwx + src.take(y0 + x1, axis=1) * wx
            lower = src.take(y1 + x0, axis=1) * vwx + src.take(y1 + x1, axis=1) * wx
            planes[:, span] = (upper * (1 - wy) + lower * wy).reshape(c, -1, xs.size)
    if sigma is None:
        return planes
    # separable Gaussian blur, rows then columns: each pass sums k * x in kernel order from zero
    kernel = np.exp(-0.5 * (np.arange(-r, r + 1) / sigma) ** 2)
    kernel /= kernel.sum()
    src, out = planes.astype(np.float64), np.empty((c, out_h, out_w), img.dtype)
    for a in range(0, out_h, band):
        n = min(band, out_h - a)
        rows, acc = np.zeros((c, n, xs.size)), np.zeros((c, n, out_w))
        for i, k in enumerate(kernel):
            rows += k * src[:, a + i:a + i + n]
        for i, k in enumerate(kernel):
            acc += k * rows[:, :, i:i + out_w]
        out[:, a:a + n] = acc
    return out


def augment(img: np.ndarray, cfg: AugmentConfig, rng: Rng) -> np.ndarray:
    """Random flip, rotation, scale (one resample), and Gaussian blur.

    All resampling is convex, so output values stay within the input range.
    Draw order is fixed: flip, rotation, scale, blur gate, blur sigma.
    """
    return np.ascontiguousarray(_augment_window(img, cfg, rng, None).transpose(1, 2, 0))


# ---------------------------------------------------------------------------
# preprocessing


def _rgb(image, resize_size: int, crop_size: int) -> np.ndarray:
    """``image`` as an [H, W, 3] array, once it and the geometry are checked."""
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise IngestionError(f"expected [H, W, 3] RGB image, got shape {arr.shape}")
    if resize_size < crop_size:
        raise ArgumentError(f"resize_size {resize_size} smaller than crop_size {crop_size}")
    return arr


def _eval_crop(image, resize_size: int, crop_size: int) -> np.ndarray:
    """The uncentred eval centre crop: a view of ``image`` (8-bit stays 8-bit) if it is
    already at ``resize_size``, else float32 with the bytes of resize-then-crop."""
    arr = _rgb(image, resize_size, crop_size)
    h, w = _resized_shape(*arr.shape[:2], resize_size)
    top, left = (h - crop_size) // 2, (w - crop_size) // 2
    rows, cols = slice(top, top + crop_size), slice(left, left + crop_size)
    if (h, w) == arr.shape[:2]:
        return arr[rows, cols]
    return _resize_window(arr, h, w, rows, cols, np.float32)


def preprocess(image: np.ndarray, mode: str, rng: Rng | None = None,
               channel_means=(0.0, 0.0, 0.0), resize_size: int = 256,
               crop_size: int = 224, augment_cfg: AugmentConfig | None = None) -> np.ndarray:
    """8-bit RGB -> float32 [crop, crop, 3], augmented (train) and centered.

    ``image`` may also be ``resized_input(raw, resize_size)``, which gives
    the output bytes of ``raw``. Train mode augments only the crop window;
    eval mode centres ``_eval_crop``, so an image already at ``resize_size``
    is centred straight from its own (8-bit) pixels, never cast whole.
    """
    arr = _rgb(image, resize_size, crop_size)
    if mode not in ("train", "eval"):
        raise ArgumentError(f"preprocess mode must be 'train' or 'eval', got {mode!r}")
    if mode == "train" and rng is None:
        raise ArgumentError("train-mode preprocessing needs an Rng")
    means = np.asarray(channel_means, dtype=np.float32).reshape(3)
    if mode == "eval":   # row by row; the dtype casts each pixel (8-bit, float64) to float32 first
        out = np.empty((crop_size, crop_size, 3), np.float32)
        rows = _eval_crop(arr, resize_size, crop_size).reshape(crop_size, -1)
        np.subtract(rows, np.tile(means, crop_size), out=out.reshape(crop_size, -1), dtype=np.float32)
        return out
    img = resized_input(arr, resize_size).astype(np.float32, copy=False)   # nothing below writes to it
    planes = _augment_window(img, augment_cfg if augment_cfg is not None else AugmentConfig(), rng, crop_size)
    out = np.empty((crop_size, crop_size, 3), np.float32)   # after the augment: fewer page faults
    for c, mean in enumerate(means):
        np.subtract(planes[c], mean, out=out[:, :, c])   # one strided pass per channel
    return out


def compute_channel_means(dataset: Dataset, indices, resize_size: int = 256,
                          crop_size: int = 224) -> np.ndarray:
    """Per-channel means of the training images' uncentred eval crops, each with the
    bytes of ``preprocess(...).mean(axis=(0, 1))``: float32 sums pixel by pixel, divided
    in float64. While 255 * crop_size**2 <= 2**24 those sums are exact integers, so an
    8-bit crop is summed as integers; other crops take one ``accumulate``'s running sum."""
    indices = list(indices)
    if not indices:
        raise ArgumentError("channel means need at least one image")
    total = np.zeros(3, dtype=np.float64)
    for i in indices:
        crop = _eval_crop(read_image(dataset.samples[i][0]), resize_size, crop_size)
        if crop.dtype == np.uint8 and 255 * crop_size ** 2 <= 2 ** 24:
            sums = crop.sum(axis=0, dtype=np.uint32).sum(axis=0)   # below 2**24: never wraps
        else:
            sums = np.add.accumulate(crop.astype(np.float32).reshape(-1, 3), axis=0)[-1]
        total += (sums / np.float64(crop_size * crop_size)).astype(np.float32)
    return total / len(indices)


# ---------------------------------------------------------------------------
# splits


@dataclass
class SplitPlan:
    train: list[int]
    test: list[int]
    seed: int
    folds: list[list[int]] = field(default_factory=list)

    def fold_train(self, fold: int) -> list[int]:
        """Train indices with the given validation fold held out."""
        held = set(self.folds[fold])
        return [i for i in self.train if i not in held]

    def to_json(self) -> str:
        doc = {"seed": self.seed, "train": self.train, "test": self.test, "folds": self.folds}
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "SplitPlan":
        doc = json.loads(text)
        return SplitPlan(train=list(doc["train"]), test=list(doc["test"]),
                         seed=int(doc["seed"]), folds=[list(f) for f in doc.get("folds", [])])


def split_train_test(dataset: Dataset, ratio: float = 0.7, seed: int = 0) -> SplitPlan:
    """Stratified per-class split; per-class train count is round(n * ratio)."""
    if not 0.0 < ratio < 1.0:
        raise ArgumentError(f"split ratio must be in (0, 1), got {ratio}")
    labels = dataset.labels()
    rng = Rng(seed)
    train: list[int] = []
    test: list[int] = []
    for c, name in enumerate(dataset.class_names):
        class_idx = np.flatnonzero(labels == c)
        if class_idx.size < 2:
            raise SplitError(f"class {name!r} has {class_idx.size} samples; need at least 2 to split")
        n_train = int(np.floor(class_idx.size * ratio + 0.5))
        n_train = min(max(n_train, 1), class_idx.size - 1)
        order = class_idx[rng.permutation(class_idx.size)]
        train.extend(int(i) for i in order[:n_train])
        test.extend(int(i) for i in order[n_train:])
    return SplitPlan(train=sorted(train), test=sorted(test), seed=seed)


def kfold_split(plan: SplitPlan, k: int = 5, seed: int = 0) -> SplitPlan:
    """Partition plan.train into k disjoint folds with sizes differing by <= 1."""
    if k < 2:
        raise ArgumentError(f"k must be >= 2, got {k}")
    if k > len(plan.train):
        raise ArgumentError(f"k={k} exceeds train size {len(plan.train)}")
    rng = Rng(seed)
    order = [plan.train[i] for i in rng.permutation(len(plan.train))]
    folds = [sorted(order[i::k]) for i in range(k)]
    return SplitPlan(train=list(plan.train), test=list(plan.test), seed=plan.seed, folds=folds)
