"""Binary PPM (P6) and PGM (P5) readers and writers, maxval 255, and the
atomic file writer that every output file of `stc` goes through.

Images are float arrays in [0,1]; on disk a pixel v is stored as
round(v*255) and read back as byte/255. Masks store raw label ids.
Errors always name the offending file.
"""
from __future__ import annotations

import os
import re
from pathlib import Path

import numpy as np


def write_atomic(path, data: str | bytes) -> None:
    """Writes `data` to a temporary file beside `path`, then renames it over
    `path`, so a failed write leaves the previous file as it was and no
    temporary file behind."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        if isinstance(data, str):
            tmp.write_text(data)
        else:
            tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def quantize01(values: np.ndarray) -> np.ndarray:
    """Snap [0,1] floats to the 8-bit grid k/255 used by the file formats."""
    return np.round(np.clip(values, 0.0, 1.0) * 255.0) / 255.0


def _to_bytes01(values: np.ndarray) -> np.ndarray:
    return np.round(np.clip(values, 0.0, 1.0) * 255.0).astype(np.uint8)


# whitespace and '#' comments, then a header token (width, height or maxval)
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def _read_pnm(path: Path, magic: bytes) -> np.ndarray:
    data = path.read_bytes()
    if not data.startswith(magic):
        raise ValueError(f"{path}: expected {magic.decode()} file")
    pos, fields = 2, []
    for field in ("width", "height", "maxval"):
        match = _HEADER_TOKEN.match(data, pos)
        token, pos = match[1], match.end()
        if not token:
            raise ValueError(f"{path}: truncated header")
        if not token.isdigit() or len(token) > 9 or int(token) == 0:
            raise ValueError(f"{path}: header field {field} is {token!r}, not in 1..999999999")
        fields.append(int(token))
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    channels = 3 if magic == b"P6" else 1
    size, need = max(len(data) - pos, 0), width * height * channels
    if size != need:
        kind = "truncated" if size < need else "oversized"
        raise ValueError(f"{path}: {kind} pixel data ({size} bytes, the header gives {need})")
    arr = np.frombuffer(data[pos:], dtype=np.uint8)
    return arr.reshape(height, width, 3) if channels == 3 else arr.reshape(height, width)


def write_ppm(path, image: np.ndarray) -> None:
    """image: (H, W, 3) floats in [0,1]. Written atomically (`write_atomic`)."""
    h, w, _ = image.shape
    write_atomic(path, f"P6\n{w} {h}\n255\n".encode() + _to_bytes01(image).tobytes())


def read_ppm_bytes(path) -> np.ndarray:
    """Returns the raw (H, W, 3) uint8 pixel values."""
    return _read_pnm(Path(path), b"P6")


def read_ppm(path) -> np.ndarray:
    """Returns (H, W, 3) floats in [0,1], the bytes divided by 255."""
    return read_ppm_bytes(path) / 255.0


def write_pgm(path, values: np.ndarray) -> None:
    """values: (H, W) integers in 0..255, written verbatim and atomically
    (`write_atomic`)."""
    v = np.asarray(values)
    if v.min() < 0 or v.max() > 255:
        raise ValueError(f"{path}: values outside 0..255 cannot be stored in PGM")
    h, w = v.shape
    write_atomic(path, f"P5\n{w} {h}\n255\n".encode() + v.astype(np.uint8).tobytes())


def read_pgm(path) -> np.ndarray:
    """Returns raw (H, W) uint8 values."""
    return _read_pnm(Path(path), b"P5")


def write_saliency_pgm(path, saliency: np.ndarray) -> None:
    """saliency: (H, W) floats in [0,1], stored as round(v*255)."""
    write_pgm(path, _to_bytes01(saliency))


def read_saliency_pgm(path) -> np.ndarray:
    return read_pgm(path).astype(np.float64) / 255.0
