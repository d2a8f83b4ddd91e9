"""Minimal image codecs: binary PPM (P6) in, grayscale PGM (P5) out.

PPM keeps ingestion testable without heavyweight codecs; other formats are
read through Pillow when it is installed (optional extra), behind the same
``read_image`` interface.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import IngestionError

PPM_SUFFIXES = {".ppm"}
OPTIONAL_SUFFIXES = {".png", ".jpg", ".jpeg", ".bmp", ".pgm"}
IMAGE_SUFFIXES = PPM_SUFFIXES | OPTIONAL_SUFFIXES


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # whitespace-separated header token; '#' starts a comment to end of line
    while pos < len(data):
        ch = data[pos:pos + 1]
        if ch == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < len(data) and not data[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise IngestionError("truncated PPM header")
    return data[start:pos], pos


def read_ppm(path) -> np.ndarray:
    """Read a binary P6 PPM into a uint8 [H, W, 3] array."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as err:
        raise IngestionError(f"cannot read {path}: {err}") from err
    try:
        magic, pos = _read_token(data, 0)
        if magic != b"P6":
            raise IngestionError(f"{path}: expected P6 magic, got {magic!r}")
        width_tok, pos = _read_token(data, pos)
        height_tok, pos = _read_token(data, pos)
        maxval_tok, pos = _read_token(data, pos)
        width, height, maxval = int(width_tok), int(height_tok), int(maxval_tok)
        if width < 1 or height < 1:
            raise IngestionError(f"width and height must be at least 1, got {width}x{height}")
    except (ValueError, IngestionError) as err:
        raise IngestionError(f"{path}: malformed PPM header ({err})") from err
    if maxval != 255:
        raise IngestionError(f"{path}: only maxval 255 supported, got {maxval}")
    pos += 1  # single whitespace byte after the header
    expected = width * height * 3
    raster = data[pos:pos + expected]
    if len(raster) != expected:
        raise IngestionError(f"{path}: raster has {len(raster)} bytes, expected {expected}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3).copy()


def write_ppm(path, image: np.ndarray):
    """Write a uint8 [H, W, 3] array as binary P6."""
    arr = np.ascontiguousarray(np.asarray(image, dtype=np.uint8))
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise IngestionError(f"write_ppm needs [H, W, 3], got {arr.shape}")
    h, w = arr.shape[:2]
    Path(path).write_bytes(b"P6\n%d %d\n255\n" % (w, h) + arr.tobytes())


def write_pgm(path, image: np.ndarray):
    """Write a uint8 [H, W] array as binary P5 (8-bit grayscale)."""
    arr = np.ascontiguousarray(np.asarray(image, dtype=np.uint8))
    if arr.ndim != 2:
        raise IngestionError(f"write_pgm needs [H, W], got {arr.shape}")
    h, w = arr.shape
    Path(path).write_bytes(b"P5\n%d %d\n255\n" % (w, h) + arr.tobytes())


def read_image(path) -> np.ndarray:
    """Decode any supported image file to uint8 [H, W, 3] RGB."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix in PPM_SUFFIXES:
        return read_ppm(path)
    try:
        from PIL import Image
    except ImportError as err:
        raise IngestionError(
            f"{path}: only PPM is supported without Pillow (install the 'codecs' extra)") from err
    try:
        with Image.open(path) as img:
            return np.asarray(img.convert("RGB"), dtype=np.uint8)
    except OSError as err:
        raise IngestionError(f"cannot decode {path}: {err}") from err
