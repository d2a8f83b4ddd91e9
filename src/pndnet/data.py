"""Dataset ingestion, preprocessing, augmentation, and deterministic splits.

Datasets are directory-per-class trees; class order is lexicographic and the
sample order is path-sorted, so the same root always loads identically.
Preprocessing resizes the shorter side, augments (train mode), crops, and
zero-centers each channel by dataset-computed means without scaling.
"""

from __future__ import annotations

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


def _bilinear_sample(img: np.ndarray, sy: np.ndarray, sx: np.ndarray) -> np.ndarray:
    """Sample img (H, W, C) at fractional coords; out-of-range clamps to edges.

    Each tap is one ``take`` of a pixel row of ``img.reshape(h * w, C)`` at
    ``y * w + x``, which moves the same bytes as 2-D fancy indexing in less
    time."""
    h, w = img.shape[:2]
    y0, y1, wy = _taps(sy, h)
    x0, x1, wx = _taps(sx, w)
    wy = wy[..., None]
    wx = wx[..., None]
    pixels = img.reshape(h * w, -1)
    y0 *= w
    y1 *= w
    top = pixels.take(y0 + x0, axis=0) * (1 - wx) + pixels.take(y0 + x1, axis=0) * wx
    bot = pixels.take(y1 + x0, axis=0) * (1 - wx) + pixels.take(y1 + x1, axis=0) * wx
    return (top * (1 - wy) + bot * wy).astype(img.dtype, copy=False)


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """``_bilinear_sample`` on the pixel-centre grid, done separably: each
    source row is interpolated along x, then those rows along y. Every output
    pixel evaluates the same float64 expressions, so the bytes are equal."""
    h, w = img.shape[:2]
    if (out_h, out_w) == (h, w):
        return img
    y0, y1, wy = _taps((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, h)
    x0, x1, wx = _taps((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, w)
    wx = wx[:, None]
    wy = wy[:, None, None]
    rows = img[:, x0] * (1 - wx) + img[:, x1] * wx       # [h, out_w, C], float64
    return (rows[y0] * (1 - wy) + rows[y1] * wy).astype(img.dtype, copy=False)


def resized_input(image: np.ndarray, resize_size: int) -> np.ndarray:
    """The first step of ``preprocess``: ``image`` cast to float32 with its
    shorter side resized to ``resize_size``, or ``image`` itself (any dtype)
    if that leaves its shape unchanged. The step is idempotent, so a caller
    that preprocesses an image many times may hold this result instead of the
    original: it gets the same bytes, and holds an image already at
    ``resize_size`` as its 8-bit original rather than a 4x float32 copy."""
    h, w = image.shape[:2]
    if h <= w:
        shape = resize_size, max(resize_size, round(w * resize_size / h))
    else:
        shape = max(resize_size, round(h * resize_size / w)), resize_size
    if shape == (h, w):
        return image
    return bilinear_resize(image.astype(np.float32, copy=False), *shape)


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
        for name in ("flip_p", "blur_p"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ArgumentError(f"{name} must be in [0, 1], got {v}")
        if self.rotation_deg < 0 or self.scale_delta < 0:
            raise ArgumentError("rotation_deg and scale_delta must be >= 0")
        if self.scale_delta >= 1.0:
            raise ArgumentError(f"scale_delta must be < 1, got {self.scale_delta}")
        lo, hi = self.blur_sigma
        if not 0.0 < lo <= hi:
            raise ArgumentError(f"blur sigma needs 0 < blur_sigma_lo <= blur_sigma_hi, got {lo} and {hi}")


def _warp_rotate_scale(img: np.ndarray, theta_deg: float, scale: float) -> np.ndarray:
    # inverse mapping about the center; clamped sampling replicates edges
    h, w = img.shape[:2]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rad = np.deg2rad(theta_deg)
    cos, sin = np.cos(rad), np.sin(rad)
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    dy, dx = (ys - cy) / scale, (xs - cx) / scale
    sy = cy + cos * dy - sin * dx
    sx = cx + sin * dy + cos * dx
    return _bilinear_sample(img, sy, sx)


def _gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    radius = max(1, int(np.ceil(3.0 * sigma)))
    offsets = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    kernel /= kernel.sum()
    padded = np.pad(img, ((radius, radius), (0, 0), (0, 0)), mode="edge")
    out = np.zeros_like(img, dtype=np.float64)
    for k, off in zip(kernel, offsets):
        out += k * padded[radius + off:radius + off + img.shape[0]]
    padded = np.pad(out, ((0, 0), (radius, radius), (0, 0)), mode="edge")
    out = np.zeros_like(img, dtype=np.float64)
    for k, off in zip(kernel, offsets):
        out += k * padded[:, radius + off:radius + off + img.shape[1]]
    return out.astype(img.dtype, copy=False)


def augment(img: np.ndarray, cfg: AugmentConfig, rng: Rng) -> np.ndarray:
    """Random flip, rotation, scale (one resample), and Gaussian blur.

    All resampling is convex, so output values stay within the input range.
    Draw order is fixed: flip, rotation, scale, blur gate, blur sigma.
    """
    cfg.validate()
    out = img
    if cfg.flip_p > 0 and rng.uniform() < cfg.flip_p:
        out = out[:, ::-1, :]
    theta = float(rng.uniform(-cfg.rotation_deg, cfg.rotation_deg)) if cfg.rotation_deg > 0 else 0.0
    scale = 1.0 + (float(rng.uniform(-cfg.scale_delta, cfg.scale_delta)) if cfg.scale_delta > 0 else 0.0)
    if theta != 0.0 or scale != 1.0:
        out = _warp_rotate_scale(out, theta, scale)
    if cfg.blur_p > 0 and rng.uniform() < cfg.blur_p:
        sigma = float(rng.uniform(*cfg.blur_sigma))
        out = _gaussian_blur(out, sigma)
    return np.ascontiguousarray(out)


# ---------------------------------------------------------------------------
# preprocessing


def preprocess(image: np.ndarray, mode: str, rng: Rng | None = None,
               channel_means=(0.0, 0.0, 0.0), resize_size: int = 256,
               crop_size: int = 224, augment_cfg: AugmentConfig | None = None) -> np.ndarray:
    """8-bit RGB -> float32 [crop, crop, 3], augmented (train) and centered.

    ``image`` may also be ``resized_input(raw, resize_size)``, which gives
    the output bytes of ``raw``.
    """
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise IngestionError(f"expected [H, W, 3] RGB image, got shape {arr.shape}")
    if mode not in ("train", "eval"):
        raise ArgumentError(f"preprocess mode must be 'train' or 'eval', got {mode!r}")
    if resize_size < crop_size:
        raise ArgumentError(f"resize_size {resize_size} smaller than crop_size {crop_size}")
    img = resized_input(arr, resize_size).astype(np.float32, copy=False)   # nothing below writes to it
    h, w = img.shape[:2]
    if mode == "train":
        if rng is None:
            raise ArgumentError("train-mode preprocessing needs an Rng")
        img = augment(img, augment_cfg if augment_cfg is not None else AugmentConfig(), rng)
        top = int(rng.integers(0, h - crop_size + 1))
        left = int(rng.integers(0, w - crop_size + 1))
    else:
        top = (h - crop_size) // 2
        left = (w - crop_size) // 2
    img = img[top:top + crop_size, left:left + crop_size]
    means = np.asarray(channel_means, dtype=np.float32).reshape(1, 1, 3)
    return np.ascontiguousarray(img - means, dtype=np.float32)


def compute_channel_means(dataset: Dataset, indices, resize_size: int = 256,
                          crop_size: int = 224) -> np.ndarray:
    """Per-channel means over eval-cropped training images (pre-centering)."""
    indices = list(indices)
    if not indices:
        raise ArgumentError("channel means need at least one image")
    total = np.zeros(3, dtype=np.float64)
    for i in indices:
        path, _ = dataset.samples[i]
        img = preprocess(read_image(path), "eval", channel_means=(0.0, 0.0, 0.0),
                         resize_size=resize_size, crop_size=crop_size)
        total += img.mean(axis=(0, 1))
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
