"""Named parameter store with gradient and momentum state.

Holds the network weights as an insertion-ordered mapping of name ->
(value, gradient, velocity), all float64 arrays of identical shape. The
values are the master weights: training computes each step through a
float32 copy of them (`float32_copy`), and its gradients, momentum SGD and
the binary checkpoint format (magic "STCP") stay float64.
Gradients are checked against central finite differences in the test
suite (`numeric_grad` and `rel_err` in its helpers).
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .imageio import write_atomic

CHECKPOINT_MAGIC = b"STCP"
CHECKPOINT_VERSION = 1


@dataclass
class Param:
    value: np.ndarray
    grad: np.ndarray
    velocity: np.ndarray


class ParamSet:
    """Ordered name -> Param mapping; iteration order is insertion order."""

    def __init__(self) -> None:
        self._entries: dict[str, Param] = {}

    def add(self, name: str, value) -> Param:
        if name in self._entries:
            raise ValueError(f"duplicate parameter name {name!r}")
        v = np.array(value, dtype=np.float64)
        p = Param(v, np.zeros_like(v), np.zeros_like(v))
        self._entries[name] = p
        return p

    def __getitem__(self, name: str) -> Param:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def subset(self, names: Iterable[str]) -> "ParamSet":
        """View over a subset of entries; Param objects are shared, not copied."""
        out = ParamSet()
        for name in names:
            out._entries[name] = self._entries[name]
        return out

    def float32_copy(self) -> "ParamSet":
        """float32 copies of the values that share this set's gradient and
        velocity arrays, so a `backward` through the copy adds into the
        float64 gradients; `np.copyto` refreshes its values after an update."""
        out = ParamSet()
        for name, p in self._entries.items():
            out._entries[name] = Param(p.value.astype(np.float32), p.grad, p.velocity)
        return out

    def copy(self) -> "ParamSet":
        """Copies of the values with zero gradient and momentum: the state
        `load_params` restores, since a checkpoint holds values only."""
        out = ParamSet()
        for name, p in self._entries.items():
            out.add(name, p.value)
        return out


def sgd_step(params: ParamSet, lr: float, momentum: float, weight_decay: float) -> None:
    """One momentum-SGD update over every entry; gradients are zeroed afterward.

    velocity <- momentum*velocity + grad + weight_decay*value
    value    <- value - lr*velocity
    """
    for name, p in params.items():
        if not np.all(np.isfinite(p.grad)):
            raise ValueError(f"non-finite gradient for parameter {name!r}")
        p.velocity *= momentum
        p.velocity += p.grad
        p.velocity += weight_decay * p.value
        p.value -= lr * p.velocity
        p.grad[...] = 0.0


def save_params(params: ParamSet, path) -> None:
    """Binary checkpoint: magic, version u32, count u32, then per entry
    name (u16 length + UTF-8), rank u8, dims u32 each, little-endian f64 values.
    Gradient and velocity are not serialized. Written atomically
    (`write_atomic`), so a failed write leaves the previous checkpoint as
    it was."""
    parts = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(params))]
    for name, p in params.items():
        nb = name.encode("utf-8")
        dims = p.value.shape
        parts += [
            struct.pack("<H", len(nb)),
            nb,
            struct.pack(f"<B{len(dims)}I", len(dims), *dims),
            np.ascontiguousarray(p.value, dtype="<f8").tobytes(),
        ]
    write_atomic(path, b"".join(parts))


def load_params(path) -> ParamSet:
    """Reads a checkpoint written by save_params; gradient/velocity start at
    zero. Each error names the file: truncation, a bad name, a non-finite value."""
    path = Path(path)
    data = path.read_bytes()

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise ValueError(f"{path}: truncated checkpoint while reading {what}")
        chunk = data[off : off + n]
        off += n
        return chunk

    off = 0
    if take(4, "magic") != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic")
    version, count = struct.unpack("<II", take(8, "header"))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    out = ParamSet()
    for i in range(count):
        (nlen,) = struct.unpack("<H", take(2, "name length"))
        try:
            name = take(nlen, "name").decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: name of entry {i} is not UTF-8") from None
        if name in out:
            raise ValueError(f"{path}: duplicate parameter {name!r}")
        (rank,) = struct.unpack("<B", take(1, "rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims"))
        values = np.frombuffer(take(8 * math.prod(dims), f"values of {name!r}"), dtype="<f8")
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: parameter {name!r} has a non-finite value")
        try:
            out.add(name, values.reshape(dims))
        except ValueError:  # a zero dim beside dims whose product overflows
            raise ValueError(f"{path}: {name!r} has shape {dims}, too large for an array") from None
    if off != len(data):
        raise ValueError(
            f"{path}: {len(data) - off} trailing bytes after the last of {count} entries"
        )
    return out
