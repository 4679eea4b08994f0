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
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def make_rng(seed, *stream):
    """Deterministic PCG64 generator.

    Extra integers select independent, reproducible substreams of the same
    seed.  The streams in use: training takes 1 for initialisation, 2 for
    shuffling and 3 for dropout; `rcasr synth` takes 10 for the phoneme
    spec and 11 for the utterances; `rcasr partition` takes 20.
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
            raise FloatingPointError(f"non-finite gradient for parameter '{name}'")
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
# entry: u32 name length, UTF-8 name, u8 dtype code (always 0: float64),
# u32 rank, u32 per dimension, raw little-endian float64 data.

def save_checkpoint(store, path):
    """Write the store's values to `path`; a value that is not float64 is a
    ValueError naming its parameter."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(store.entries)))
        for name, p in store.entries.items():
            arr, raw = p.value, name.encode("utf-8")
            if arr.dtype != np.float64:
                raise ValueError(f"parameter '{name}' is {arr.dtype}; "
                                 "checkpoints hold float64 only")
            fh.write(struct.pack(f"<I{len(raw)}sBI{arr.ndim}I",
                                 len(raw), raw, 0, arr.ndim, *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


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
            code, rank = unpack("<BI")
            if code != 0:
                raise ValueError(f"parameter '{name}' has dtype code {code}; "
                                 "checkpoints hold float64 (code 0) only")
            dims = unpack(f"<{rank}I")
            value = np.frombuffer(read(math.prod(dims) * 8), dtype="<f8").reshape(dims)
            store.add(name, value.astype(np.float64))
    return store
