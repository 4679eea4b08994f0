"""Dense-array numerics shared by every other module.

All math runs on plain numpy arrays in 64-bit precision.  Randomness always
flows through :func:`make_rng` (PCG64), so any pipeline rerun with the same
seed is bit-identical.
"""

import math
import os
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

CHECKPOINT_MAGIC = b"RCNN1\x00"
_DTYPE_CODES = {np.dtype("float64"): 0, np.dtype("float32"): 1}
_CODE_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<f4")}
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class NonFiniteValue(ArithmeticError):
    pass


def make_rng(seed, *stream):
    """Deterministic PCG64 generator.

    Extra integers select independent, reproducible substreams of the same
    seed (e.g. ``make_rng(7, 1)`` for shuffling, ``make_rng(7, 2)`` for
    dropout).
    """
    entropy = (int(seed),) + tuple(int(s) for s in stream)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def glorot_init(shape, rng):
    """Uniform draw in +-sqrt(6 / (fan_in + fan_out)).

    For rank >= 2 the trailing dimensions count as the receptive field
    (so a C_out x C_in x 3 x 3 kernel gets fan_in = 9*C_in).
    """
    shape = tuple(int(d) for d in shape)
    if len(shape) == 0 or any(d <= 0 for d in shape):
        raise ValueError(f"glorot_init: invalid shape {shape}")
    if len(shape) == 1:
        fan_in = fan_out = shape[0]
    else:
        receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
        fan_in = shape[1] * receptive if len(shape) > 2 else shape[0]
        fan_out = shape[0] * receptive if len(shape) > 2 else shape[1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


# -- parameter storage and Adam ---------------------------------------------

@dataclass
class Param:
    """A parameter's value.  Its gradient and Adam moments are zero arrays
    made on first read, so a network that only runs inference never holds
    them."""

    value: np.ndarray

    @cached_property
    def grad(self):
        return np.zeros_like(self.value)

    @cached_property
    def adam_m(self):
        return np.zeros_like(self.value)

    @cached_property
    def adam_v(self):
        return np.zeros_like(self.value)


@dataclass
class ParameterStore:
    """Named parameters; gradients and Adam moments are made when training
    first reads them (see Param)."""

    entries: dict = field(default_factory=dict)
    step_count: int = 0

    def add(self, name, value):
        if name in self.entries:
            raise ValueError(f"duplicate parameter name '{name}'")
        self.entries[name] = Param(np.asarray(value))
        return self.entries[name]

    def __getitem__(self, name):
        return self.entries[name]

    def names(self):
        return list(self.entries)

    def n_params(self):
        return sum(p.value.size for p in self.entries.values())

    def zero_grads(self):
        for p in self.entries.values():
            p.grad[...] = 0.0


def adam_step(store, lr):
    """One Adam update with bias correction (ADAM_BETA1, ADAM_BETA2,
    ADAM_EPS); zeroes gradients afterwards."""
    store.step_count += 1
    t = store.step_count
    for name, p in store.entries.items():
        if not np.all(np.isfinite(p.grad)):
            raise NonFiniteValue(f"non-finite gradient for parameter '{name}'")
        g = p.grad
        p.adam_m[...] = ADAM_BETA1 * p.adam_m + (1.0 - ADAM_BETA1) * g
        p.adam_v[...] = ADAM_BETA2 * p.adam_v + (1.0 - ADAM_BETA2) * g * g
        m_hat = p.adam_m / (1.0 - ADAM_BETA1 ** t)
        v_hat = p.adam_v / (1.0 - ADAM_BETA2 ** t)
        p.value[...] = p.value - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        p.grad[...] = 0.0
    return store


# -- checkpoint format --------------------------------------------------------
#
# Binary layout: magic "RCNN1\0", little-endian u32 entry count, then per
# entry: u32 name length, UTF-8 name, u8 dtype code (0=f64, 1=f32),
# u32 rank, u32 per dimension, raw little-endian array data.

def save_checkpoint(store, path):
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(store.entries)))
        for name, p in store.entries.items():
            raw = name.encode("utf-8")
            arr = p.value
            code = _DTYPE_CODES.get(arr.dtype)
            if code is None:
                raise ValueError(f"unsupported dtype {arr.dtype} for '{name}'")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", code))
            fh.write(struct.pack("<I", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<I", d))
            fh.write(np.ascontiguousarray(arr, dtype=_CODE_DTYPES[code]).tobytes())


def load_checkpoint(path):
    """Read a checkpoint back into a fresh ParameterStore of values alone
    (a checkpoint keeps no gradients or moments; they start at zero).

    A malformed file raises ValueError naming `path`.
    """
    try:
        return _read_checkpoint(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_checkpoint(path):
    store = ParameterStore()
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n):
            # never ask for more than the file holds: a corrupt length would
            # otherwise allocate it
            at = fh.tell()
            raw = fh.read(n) if n <= size - at else b""
            if len(raw) != n:
                raise ValueError(
                    f"truncated checkpoint: {n} bytes wanted at offset {at} of {size}")
            return raw

        def unpack(fmt):
            return struct.unpack(fmt, read(struct.calcsize(fmt)))

        if read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise ValueError("bad checkpoint magic")
        (count,) = unpack("<I")
        for _ in range(count):
            (name_len,) = unpack("<I")
            name = read(name_len).decode("utf-8")
            (code,) = unpack("<B")
            if code not in _CODE_DTYPES:
                raise ValueError(f"unknown dtype code {code}")
            (rank,) = unpack("<I")
            dims = unpack(f"<{rank}I")
            raw = read(math.prod(dims) * _CODE_DTYPES[code].itemsize)
            value = np.frombuffer(raw, dtype=_CODE_DTYPES[code]).reshape(dims)
            store.add(name, value.astype(_CODE_DTYPES[code].newbyteorder("=")))
    return store
