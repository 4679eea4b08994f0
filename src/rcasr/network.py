"""Network layers (forward + hand-derived backward) and the model catalog.

Layer kinds: recurrent (ELU inside the recurrence), conv2d (3x3 kernel,
stride 1, zero padding 1 -- always shape preserving), dense, elu, dropout,
linear_output.  A config is an ordered layer list plus optional residual
spans; a span wraps a conv/elu run whose feature-map count never changes and
computes elu(x + F(x)) with an identity shortcut, where F is the run minus
its trailing activation.

Representation handling between stages: a T x D sequence entering a conv
stage becomes a one-channel T x D image; a C x T x F stack entering a
recurrent or dense stage is flattened per time step to T x (C*F).

A forward runs one utterance or a chunk of them with their frames stacked
along T (see _Chunk): per-frame steps run once over the stack, the recurrent
steps keep one state per utterance and conv2d one zero border per utterance.
An inference forward of more frames than a chunk may hold runs each
utterance through every step depth first, in blocks of frames, instead (see
Network.forward).  Every step's forward(x, training, chunk) is given the
forward's chunk, which also carries the dropout generator, or the _Stream
of a streamed utterance, so a step keeps nothing between forwards.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .features import N_FEATURES
from .numerics import ParameterStore, glorot_init, make_rng
from .textio import reading

KERNEL = 3

# Each layer kind takes exactly one parameter: (config key, type, value used
# when a config omits it or None when it is required, valid range).  The ELU
# runs at alpha 1 only; its key stays so that written configs read back.
LAYER_PARAMS = {
    "recurrent": ("hidden_units", int, 128, ">= 1"),
    "conv2d": ("feature_maps", int, None, ">= 1"),
    "dense": ("units", int, None, ">= 1"),
    "elu": ("alpha", float, 1.0, "1"),
    "dropout": ("rate", float, 0.1, "in [0, 1)"),
    "linear_output": ("units", int, 62, ">= 1"),
}
_IN_RANGE = {
    ">= 1": lambda v: v >= 1,
    "1": lambda v: v == 1,
    "in [0, 1)": lambda v: 0 <= v < 1,
}


@dataclass(frozen=True)
class LayerSpec:
    """A layer kind and its one parameter (see LAYER_PARAMS); None stands for
    the kind's default."""
    kind: str
    value: float = None


def _layer_param(spec):
    """The value of spec's one parameter, or its kind's default; a spec that
    names an unknown kind, lacks a required value or has one out of range is
    a ValueError."""
    if spec.kind not in LAYER_PARAMS:
        raise ValueError(f"unknown layer kind '{spec.kind}'")
    name, _, default, valid = LAYER_PARAMS[spec.kind]
    value = default if spec.value is None else spec.value
    if value is None:
        raise ValueError(f"{spec.kind} needs {name}=")
    if not _IN_RANGE[valid](value):
        raise ValueError(f"{spec.kind} {name}= must be {valid}, got {value}")
    return value


def recurrent(hidden_units=128):
    return LayerSpec("recurrent", hidden_units)


def conv2d(feature_maps):
    return LayerSpec("conv2d", feature_maps)


def dense(units):
    return LayerSpec("dense", units)


def elu():
    return LayerSpec("elu", 1.0)


def dropout(rate=0.1):
    return LayerSpec("dropout", rate)


def linear_output(units=62):
    return LayerSpec("linear_output", units)


@dataclass
class NetworkConfig:
    name: str
    layers: list
    residual_groups: list = field(default_factory=list)

    def validate(self):
        if not self.layers:
            raise ValueError(f"network '{self.name}' has no layers")
        for spec in self.layers:
            _layer_param(spec)
        if self.layers[-1].kind != "linear_output":
            raise ValueError(f"network '{self.name}' must end in a linear_output layer")
        if self.layers[:-1] and any(s.kind == "linear_output" for s in self.layers[:-1]):
            raise ValueError("linear_output must be the final layer")
        spans = sorted(self.residual_groups)
        for (a, b), nxt in zip(spans, spans[1:]):
            if nxt[0] < b:
                raise ValueError(f"residual spans {(a, b)} and {nxt} overlap")
        for a, b in spans:
            if not (0 <= a < b <= len(self.layers)):
                raise ValueError(f"residual span {(a, b)} out of range")
            run = self.layers[a:b]
            if len(run) % 2 != 0:
                raise ValueError(f"residual span {(a, b)} must cover conv/elu pairs")
            for i, spec in enumerate(run):
                want = "conv2d" if i % 2 == 0 else "elu"
                if spec.kind != want:
                    raise ValueError(
                        f"residual span {(a, b)}: layer {a + i} is {spec.kind}, expected {want}"
                    )
        return self


# -- layer implementations ----------------------------------------------------

class _Chunk:
    """Utterances whose frames one forward stacks along time, lengths[i]
    frames each, in order.

    Utterance i holds stacked rows spans[i] = (start, end); conv2d gives
    each its own zero border (see _tiles).  Recurrent steps run time-major
    over the utterances still active, longest first: `packed` lists the
    stacked rows of time step 0, then of step 1, ..., sizes[t] rows at step
    t, and each step's utterances are a prefix of the previous step's.
    prev[k] is the packed row one time step before packed row first + k.
    rng draws the dropout masks of a training forward.
    """

    def __init__(self, lengths, rng=None):
        self.rng = rng
        lengths = np.asarray(lengths, dtype=np.intp)
        starts = np.cumsum(lengths) - lengths
        self.spans = list(zip(starts.tolist(), (starts + lengths).tolist()))
        order = np.argsort(-lengths, kind="stable")
        steps = np.arange(lengths.max(initial=0))[:, None]
        active = steps < lengths[order]
        sizes = active.sum(axis=1)
        self.packed = (starts[order] + steps)[active]
        self.sizes = sizes.tolist()
        self.first = self.sizes[0] if self.sizes else 0
        self.prev = np.arange(self.first, len(self.packed)) - np.repeat(sizes[:-1], sizes[1:])
        # each utterance's conv window (see _tiles): its own frames in and out
        self.windows = [(s, e, s, e) for s, e in self.spans]

    def recurrence(self, step, frames):
        """(packed, sizes, state before step 0) of a recurrent step over the
        whole chunk: every utterance starts from h_0 = 0 (None)."""
        return self.packed, self.sizes, None

    def hold(self, step, h):
        """A chunk runs each utterance whole, so no state outlives the step."""

    def conv_input(self, step, x):
        """(x, windows) of a conv over the whole chunk (see _tiles)."""
        return x, self.windows

    def shortcut(self, step, x, frames):
        """The shortcut inputs of a residual branch's output: all of x."""
        return x


class _Stream:
    """What the steps of one utterance streamed in blocks (see
    Network.forward) hold between its blocks: `carry` maps a step to the
    frames it has taken in but not yet used up, or a recurrent step to its
    last state, copied so that they do not keep their block alive, and
    `last` tells whether the block ends its utterance, whose frames every
    step then passes on in full."""

    def __init__(self):
        self.carry = {}
        self.last = False

    def recurrence(self, step, frames):
        """(packed, sizes, state before step 0) of a recurrent step over this
        block's frames of one utterance: one row per time step, starting
        from the state the previous block ended in (None at the start)."""
        return np.arange(frames), [1] * frames, self.carry.get(step)

    def hold(self, step, h):
        """Keep step's last state h (None before any frame) for the next
        block."""
        self.carry[step] = h if h is None else h.copy()

    def _joined(self, step, x):
        """(step's held frames followed by x, the held frames or None)."""
        held = self.carry.pop(step, None)
        return (x, None) if held is None else (np.concatenate((held, x), axis=1), held)

    def conv_input(self, step, x):
        """A conv's input for this block, its held frames then x, and its one
        window (see _tiles).  Output frame t reads input frames t-1..t+1, so
        the output waits one frame for the right neighbour unless the
        utterance ends here; the conv keeps the two input frames its next
        output reads, or one while it has output nothing (frame -1 is the
        utterance's zero border)."""
        x, held = self._joined(step, x)
        w = x.shape[1]
        lo = 0 if held is None else held.shape[1] - 1
        hi = w if self.last else max(w - 1, 0)
        if hi < w:
            self.carry[step] = x[:, max(hi - 1, 0):].copy()
        return x, [(0, w, lo, hi)]

    def shortcut(self, step, x, frames):
        """The shortcut inputs that line up with a residual branch's `frames`
        outputs, which lag its inputs; the rest wait for the branch."""
        x, _ = self._joined(step, x)
        if frames < x.shape[1]:
            self.carry[step] = x[:, frames:].copy()
        return x[:, :frames]


# Byte budget of one chunk's training contexts, as Network.frame_bytes counts
# them (each kept array once): the trainer runs each mini-batch as the longest
# runs of consecutive utterances that fit, and an inference forward of more
# frames than fit streams in blocks of that many (Network.forward).  Bigger
# chunks share more per-step Python work and hold more memory.  On RC-small
# toy training (32-utterance batches, mean T 30, 15416 B/frame), through the
# CLI so that freed heap pages are kept, 2 / 3 / 4 / 6 MiB ran 1.46 / 1.62 /
# 1.59 / 1.70x as fast as one utterance at a time (medians of 12 alternating
# sweeps on a 2-core Xeon whose speed drifted by half: quartiles 1.29-1.59 /
# 1.36-2.07 / 1.38-1.93 / 1.49-1.97), with peak RSS up 3.0-3.5 / 5.8-6.3 /
# 8.5-9.1 / 15.8-16.3%.  One RC1 utterance of 3 s keeps 74.8 MiB, so
# paper-size training stays one utterance per chunk.
_CHUNK_BYTES = 3 << 20


# Elements per block of the ELU forward loop below: each block's passes run
# on operands that stay in cache.  On RC1's 48 x 298 x 128 map stack (a Xeon
# with 4 MiB of L2, medians of 25 interleaved runs) 4k / 8k / 16k / 32k /
# 64k / 256k elements ran the forward in 12.7 / 10.2 / 8.9 / 9.0 / 9.3 /
# 11.4 ms; the masked whole-array form took 29.7 ms.
_ELU_BLOCK = 1 << 14


def _elu_block(x, y, pos):
    """y = max(x, 0) + (exp(min(x, 0)) - 1), the ELU at alpha 1, with pos, of
    x's shape, as scratch; pos may be x itself when x is not needed
    afterwards.  Each term is exactly 0 where the other applies, so this is
    np.where(x > 0, x, exp(min(x, 0)) - 1) without a mask.  The four-pass
    max(exp(min(x, 0)) - 1, x) would differ for some x in (-1.2e-8, 0),
    where the rounded exp(x) - 1 falls below x."""
    np.minimum(x, 0.0, out=y)
    np.exp(y, out=y)
    y -= 1.0
    np.maximum(x, 0.0, out=pos)
    y += pos


def _elu_fwd(x):
    """The ELU of x (see _elu_block) as a new C-contiguous array, in
    consecutive flat blocks of _ELU_BLOCK elements."""
    y = np.empty(x.shape, dtype=x.dtype)
    xf, yf = np.ravel(x), y.reshape(-1)
    scratch = np.empty(min(xf.size, _ELU_BLOCK), dtype=y.dtype)   # one buffer for every block
    for a in range(0, xf.size, _ELU_BLOCK):
        xb = xf[a:a + _ELU_BLOCK]
        _elu_block(xb, yf[a:a + _ELU_BLOCK], scratch[:len(xb)])
    return y


def _elu_slope_from_output(y):
    """The ELU slope from the ELU's output y: 1 where y > 0 and y + 1
    (exp(x)) elsewhere, that is min(y, 0) + 1 in two whole-array passes:
    0 + 1 where y > 0 (+inf included), the one rounding of y + 1 elsewhere,
    and nan at nan."""
    d = np.minimum(y, 0.0)
    d += 1.0
    return d


class _Elu:
    """Keeps its output, not its input, for the slope: the next step's
    context is then the same array, and the output of the step before is
    freed once the ELU has run."""

    def forward(self, x, training, chunk):
        y = _elu_fwd(x)
        return y, y

    def backward(self, ctx, g):
        d = _elu_slope_from_output(ctx)
        d *= g
        return d


class _Dropout:
    def __init__(self, rate):
        self.rate = rate

    def forward(self, x, training, chunk):
        if not training or self.rate == 0.0:
            return x, None
        if chunk.rng is None:
            raise ValueError("training-mode dropout needs an rng")
        mask = (chunk.rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        return x * mask, mask

    def backward(self, ctx, g):
        return g if ctx is None else g * ctx


class _Affine:
    """Per-time-step x @ W + b; used for dense and linear_output layers."""

    def __init__(self, store, name, in_dim, units, rng):
        self.w = store.add(f"{name}/W", glorot_init((in_dim, units), rng))
        self.b = store.add(f"{name}/b", np.zeros(units))

    def forward(self, x, training, chunk):
        return x @ self.w.value + self.b.value, x

    def backward(self, ctx, g):
        self.w.grad += ctx.T @ g
        self.b.grad += g.sum(axis=0)
        return g @ self.w.value.T


class _Recurrent:
    """h_t = elu(W_xh x_t + W_hh h_{t-1} + b), h_0 = 0, in each
    utterance of the chunk; backward is full BPTT.  Each time step is one
    GEMM over the utterances still running (see _Chunk), and allocates
    nothing: forward writes each step's W_hh product into one buffer and
    its ELU into h's rows, backward its carry into one buffer.  The context
    keeps h, whose ELU slope backward derives, and not the pre-activations."""

    def __init__(self, store, name, in_dim, hidden, rng):
        self.hidden = hidden
        self.w_xh = store.add(f"{name}/W_xh", glorot_init((in_dim, hidden), rng))
        self.w_hh = store.add(f"{name}/W_hh", glorot_init((hidden, hidden), rng))
        self.b = store.add(f"{name}/b", np.zeros(hidden))

    def forward(self, x, training, chunk):
        # pre and h are time-major: step t's rows follow step t-1's, and the
        # first sizes[t] rows of step t-1 are the same utterances' previous
        # step; prev is the previous step's state (None: h_0 = 0)
        packed, sizes, prev = chunk.recurrence(self, len(x))
        pre = (x @ self.w_xh.value + self.b.value)[packed]
        h = np.empty_like(pre)
        tmp = np.empty_like(pre[:max(sizes, default=0)])   # every step's W_hh GEMM
        a = 0   # step t's first packed row
        for n in sizes:
            p = pre[a:a + n]
            if prev is not None:
                np.matmul(prev[:n], self.w_hh.value, out=tmp[:n])
                p += tmp[:n]
            prev = h[a:a + n]
            _elu_block(p, prev, p)   # nothing keeps pre: p is the scratch
            a += n
        chunk.hold(self, prev)
        out = np.empty_like(h)
        out[packed] = h
        return out, (x, h, chunk)

    def backward(self, ctx, g):
        # only the carry is sequential; every gradient is one GEMM over all steps
        x, h, chunk = ctx
        slope = _elu_slope_from_output(h)
        g = g[chunk.packed]
        da = np.empty_like(h)
        carry = np.zeros((chunk.first, self.hidden), dtype=h.dtype)
        b = len(h)      # one past step t's last packed row
        for t, n in reversed(list(enumerate(chunk.sizes))):
            d = da[b - n:b]
            np.add(g[b - n:b], carry[:n], out=d)
            d *= slope[b - n:b]
            if t:
                np.matmul(d, self.w_hh.value.T, out=carry[:n])
            b -= n
        self.w_hh.grad += h[chunk.prev].T @ da[chunk.first:]
        da_x = np.empty_like(da)
        da_x[chunk.packed] = da
        self.w_xh.grad += x.T @ da_x
        self.b.grad += da_x.sum(axis=0)
        return da_x @ self.w_xh.value.T


# Byte budget of one tile's window matrix.  A whole-utterance window matrix
# is 3x its input (44 MB at RC1's 48-map layers for 3 s of audio); tiles
# keep it bounded in T and each GEMM operand near cache size.  RC1's conv
# forward at T=300 (one BLAS thread, a 2-core host, medians of 5) took the
# same time within 2% at 0.5 to 4 MiB, 5% more at 0.25 MiB and 20% more at
# 8 MiB.  2.5 MiB exceeds the largest toy window matrix (RC-small, 24 x
# 59*64 doubles, 0.7 MB), so toy training runs each utterance's conv as one
# tile, and so does every block of a streamed inference forward (12 frames
# for RC1; see Network.forward).
_TILE_BYTES = 5 << 19


def _kernel_rows(k):
    """An O x C x 3 x 3 kernel as 3 x O x 3C: [di] is the O x 3C matrix of
    kernel row di, its columns ordered (dj, c) like the rows of a window
    matrix (see _tiles)."""
    o, c = k.shape[:2]
    return k.transpose(2, 0, 3, 1).reshape(KERNEL, o, KERNEL * c)


def _tile_frames(x, windows):
    """(output frames per tile, frames in the largest tile) of a conv over
    C x frames x F maps x in these windows."""
    c, _, f = x.shape
    rows = max(1, _TILE_BYTES // (KERNEL * c * f * x.itemsize))
    return rows, min(rows, max(e - s for _, _, s, e in windows))


def _tiles(x, windows):
    """Split output frames of C x frames x F maps into time tiles.  Each
    window (a, b, s, e) asks for output frames s:e of the frames a:b that x
    holds of one utterance, a <= s <= e <= b: the whole utterance in a
    chunk, or a block of it in a streamed forward (see _Stream).  A tile has
    at most as many output frames as _TILE_BYTES holds 3C x F blocks of
    window matrix, and at least one.  Yields (t0, t1, low): low is the 3C x
    (t1-t0+2)*F window matrix of output frames t0:t1, whose row dj*C + c
    holds map c over frames t0-1 ... t1 shifted by dj-1 along F.  Frames
    outside a:b and the columns shifted in from beyond F are zeros: where a
    or b is the utterance's end, its zero border.  Every tile is written
    into one buffer, so low is valid only until the next tile is drawn."""
    c, _, f = x.shape
    rows, widest = _tile_frames(x, windows)
    buf = np.empty(KERNEL * c * (widest + 2) * f, dtype=x.dtype)
    for a, b, s, e in windows:
        for t0 in range(s, e, rows):
            t1 = min(e, t0 + rows)
            low = buf[:KERNEL * c * (t1 - t0 + 2) * f].reshape(KERNEL, c, t1 - t0 + 2, f)
            ia, ib = max(a, t0 - 1), min(b, t1 + 1)   # the frames x has
            ra, rb = ia - t0 + 1, ib - t0 + 1         # ... at these rows of low
            low[:, :, :ra] = 0.0
            low[:, :, rb:] = 0.0
            src = x[:, ia:ib]
            low[0, :, ra:rb, 0] = 0.0
            low[0, :, ra:rb, 1:] = src[:, :, :-1]
            low[1, :, ra:rb] = src
            low[2, :, ra:rb, :-1] = src[:, :, 1:]
            low[2, :, ra:rb, -1] = 0.0
            yield t0, t1, low.reshape(KERNEL * c, -1)


def _correlate(kr, x, windows, bias=None):
    """The kernel rows kr (3 x O x 3C, see _kernel_rows) against the 3x3
    window of every output frame of C x frames x F maps x in these windows
    (see _tiles), plus bias: an O x (output frames*F) matrix, the windows'
    output frames in order.  A tile's output columns are the sum over di of
    kr[di] times the window matrix's columns di*F onward: three GEMMs on
    slices of one matrix.  The first writes in place; the other two go
    through one buffer, sized for the largest tile, and are added."""
    f = x.shape[2]
    frames = sum(e - s for _, _, s, e in windows)
    out = np.empty((kr.shape[1], frames * f), dtype=np.result_type(kr, x))
    part = np.empty((kr.shape[1], _tile_frames(x, windows)[1] * f), dtype=out.dtype)
    col = 0
    for t0, t1, low in _tiles(x, windows):
        n = (t1 - t0) * f
        y = out[:, col:col + n]
        np.matmul(kr[0], low[:, :n], out=y)
        for di in range(1, KERNEL):
            np.matmul(kr[di], low[:, di * f:di * f + n], out=part[:, :n])
            y += part[:, :n]
        if bias is not None:
            y += bias[:, None]
        col += n
    return out


class _Conv2d:
    """3x3, stride 1, zero-pad 1 convolution over C x T x F maps.  Every
    utterance of a chunk has its own zero border and its own GEMMs, so none
    reads another's frames and its values do not depend on the chunk."""

    def __init__(self, store, name, in_maps, out_maps, rng):
        self.in_maps = in_maps
        self.out_maps = out_maps
        self.k = store.add(f"{name}/K", glorot_init((out_maps, in_maps, KERNEL, KERNEL), rng))
        self.b = store.add(f"{name}/b", np.zeros(out_maps))

    def forward(self, x, training, chunk):
        c, _, f = x.shape
        if c != self.in_maps:
            raise ValueError(f"conv2d expected {self.in_maps} input maps, got {c}")
        src, windows = chunk.conv_input(self, x)
        y = _correlate(_kernel_rows(self.k.value), src, windows, self.b.value)
        return y.reshape(self.out_maps, -1, f), (x, x.shape, chunk)

    def backward(self, ctx, g):
        x, (c, t, f), chunk = ctx
        # dX is the correlation of g with the flipped, in/out-swapped kernel
        flipped = self.k.value[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        dx = _correlate(_kernel_rows(flipped), g, chunk.windows).reshape(c, t, f)
        gm = g.reshape(self.out_maps, t * f)
        dk = np.zeros((KERNEL, self.out_maps, KERNEL * c))
        for t0, t1, low in _tiles(x, chunk.windows):
            n = (t1 - t0) * f
            for di in range(KERNEL):
                dk[di] += gm[:, t0 * f:t1 * f] @ low[:, di * f:di * f + n].T
        self.k.grad += dk.reshape(KERNEL, self.out_maps, KERNEL, c).transpose(1, 3, 0, 2)
        self.b.grad += gm.sum(axis=1)
        return dx


class _SeqToMaps:
    def forward(self, x, training, chunk):
        return x[None, :, :], None

    def backward(self, ctx, g):
        return g[0]


class _MapsToSeq:
    def forward(self, x, training, chunk):
        c, t, f = x.shape
        return x.transpose(1, 0, 2).reshape(t, c * f), (c, t, f)

    def backward(self, ctx, g):
        c, t, f = ctx
        return g.reshape(t, c, f).transpose(1, 0, 2)


def _run_forward(steps, h, training, chunk):
    """Run steps in order: (output, contexts).  Only a training-mode forward
    keeps the contexts backward needs; an inference forward returns None for
    them and frees each context as soon as its step returns."""
    ctxs = [] if training else None
    for step in steps:
        h, ctx = step.forward(h, training, chunk)
        if training:
            ctxs.append(ctx)
        del ctx
    return h, ctxs


def _run_backward(steps, ctxs, g):
    """Backpropagate g through the steps of a training-mode _run_forward.
    Each context is released as soon as its step is done, so ctxs ends up
    empty."""
    for step in reversed(steps):
        g = step.backward(ctxs.pop(), g)
    return g


def _kept_bytes(ctxs):
    """Bytes of the distinct arrays in a training forward's contexts: a view
    counts as the array that owns its memory, and an array kept by two steps
    counts once.  A _Chunk's index arrays are not counted."""
    owners = {}

    def walk(obj):
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            owners[id(obj)] = obj.nbytes
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                walk(item)

    walk(ctxs)
    return sum(owners.values())


class _ResidualBlock:
    """elu(x + F(x)) with an identity shortcut; F is a conv/elu run.  Like
    _Elu, the block keeps its output for the closing ELU's slope."""

    def __init__(self, inner):
        self.inner = inner

    def forward(self, x, training, chunk):
        h, inner_ctx = _run_forward(self.inner, x, training, chunk)
        x = chunk.shortcut(self, x, h.shape[1])
        if h.shape != x.shape:
            raise ValueError(
                f"residual branch changed shape {x.shape} -> {h.shape}; identity shortcut impossible"
            )
        y = _elu_fwd(x + h)
        return y, (inner_ctx, y) if training else None

    def backward(self, ctx, g):
        inner_ctx, y = ctx
        da = g * _elu_slope_from_output(y)
        return da + _run_backward(self.inner, inner_ctx, da)


class Network:
    """A built, runnable stack bound to its ParameterStore."""

    def __init__(self, config, store, steps, input_dim, output_units):
        self.config = config
        self.store = store
        self.steps = steps
        self.input_dim = input_dim
        self.output_units = output_units
        # the bytes per frame a training forward's contexts keep, measured on
        # two frames: at one, _MapsToSeq's reshape of one frame is a view
        # and not the copy it is at every longer input
        _, ctxs = _run_forward(steps, np.zeros((2, input_dim)), True, _Chunk([2], make_rng(0)))
        self.frame_bytes = _kept_bytes(ctxs) // 2

    def forward(self, x, training=False, rng=None):
        """(logits, contexts) of one utterance, a T x D matrix, or of a chunk,
        a list of them, whose logits come stacked in order; the contexts are
        None unless training.  A training forward, or one of at most as many
        frames as _CHUNK_BYTES holds training contexts of, runs each step
        over the whole chunk in turn.  A longer inference forward runs each
        utterance depth first in blocks of that many frames: a block passes
        every step before the next one enters, with a _Stream carrying what
        the steps hold between blocks, so its memory does not grow with T.
        A conv's output for a frame waits for the frame after it (see
        _Stream), so a block's output lags its input, and the utterance's
        last block flushes what is held."""
        xs = [np.asarray(u) for u in x] if isinstance(x, list) else [np.asarray(x)]
        for u in xs:
            if u.ndim != 2 or u.shape[1] != self.input_dim:
                raise ValueError(f"expected T x {self.input_dim} input, got {u.shape}")
        lengths = [len(u) for u in xs]
        frames, rows = sum(lengths), max(1, _CHUNK_BYTES // self.frame_bytes)
        if training or frames <= rows:
            return _run_forward(self.steps, np.concatenate(xs), training, _Chunk(lengths, rng))
        out = np.empty((frames, self.output_units))
        done = 0
        for u in xs:
            stream = _Stream()
            for t0 in range(0, len(u), rows):
                stream.last = t0 + rows >= len(u)
                y, _ = _run_forward(self.steps, u[t0:t0 + rows], False, stream)
                out[done:done + len(y)] = y
                done += len(y)
        return out, None

    def backward(self, ctxs, g):
        if ctxs is None:
            raise ValueError("backward needs the contexts of a training-mode forward "
                             "(forward(..., training=True))")
        return _run_backward(self.steps, ctxs, g)

    def chunks(self, lengths):
        """Cut utterances of these frame counts into runs of consecutive
        ones whose contexts fit _CHUNK_BYTES: yields (a, b) index ranges.
        An utterance over the budget runs alone."""
        a, used = 0, 0
        for i, n in enumerate(lengths):
            if i > a and used + n * self.frame_bytes > _CHUNK_BYTES:
                yield a, i
                a, used = i, 0
            used += n * self.frame_bytes
        if a < len(lengths):
            yield a, len(lengths)


def build_network(config, input_dim=N_FEATURES, output_units=None, rng=None,
                  dropout_override=None):
    """Instantiate a config into a Network plus a fresh ParameterStore.

    output_units, when given, replaces the final layer's unit count (the
    catalog entries default to 62).  dropout_override, range-checked even
    without a dropout layer, replaces every dropout rate (0.0 disables them).
    """
    config.validate()
    if dropout_override is not None:
        _layer_param(LayerSpec("dropout", dropout_override))
    store = ParameterStore()
    rng = rng if rng is not None else make_rng(0)
    spans = {a: (a, b) for a, b in sorted(config.residual_groups)}

    steps = []
    # the current stage: `maps` feature maps of T x `width`, or (maps None) a
    # T x `width` sequence; conv stages keep T x width intact
    maps, width = None, input_dim

    def make_step(i, spec):
        nonlocal maps, width
        name = f"L{i:02d}_{spec.kind}"
        value = _layer_param(spec)
        if spec.kind == "elu":
            step = _Elu()
        elif spec.kind == "dropout":
            step = _Dropout(value if dropout_override is None else dropout_override)
        elif spec.kind == "recurrent":
            step = _Recurrent(store, name, width, value, rng)
            width = value
        elif spec.kind in ("dense", "linear_output"):
            if spec.kind == "linear_output" and output_units is not None:
                value = output_units
            step = _Affine(store, name, width, value, rng)
            width = value
        else:
            step = _Conv2d(store, name, maps, value, rng)
            maps = value
        return step

    i = 0
    while i < len(config.layers):
        # a stage change puts its reshape before the layer that needs it (a
        # residual span starts with a conv layer)
        kind = config.layers[i].kind
        if kind == "conv2d" and maps is None:
            steps.append(_SeqToMaps())
            maps = 1
        elif kind in ("recurrent", "dense", "linear_output") and maps is not None:
            steps.append(_MapsToSeq())
            maps, width = None, maps * width
        if i in spans:
            a, b = spans[i]
            for j in range(a, b, 2):
                if config.layers[j].value != maps:
                    raise ValueError(
                        f"residual span {(a, b)} in '{config.name}': conv layer {j} has "
                        f"{config.layers[j].value} maps but the span carries {maps}"
                    )
            inner = [make_step(j, config.layers[j]) for j in range(a, b - 1)]
            steps.append(_ResidualBlock(inner))
            i = b
        else:
            steps.append(make_step(i, config.layers[i]))
            i += 1

    return Network(config, store, steps, input_dim, width)


# -- config text format --------------------------------------------------------

def dump_config(config):
    """One layer per line `kind key=value`; spans as `residual a..b`.  Every
    value reads back equal (parse_config)."""
    lines = [f"network {config.name}"]
    for spec in config.layers:
        key, typ = LAYER_PARAMS[spec.kind][:2]
        val = spec.value
        line = spec.kind
        if val is not None:
            text = str(val)
            if typ is float:
                # :g unless it rounds the value; repr is the shortest exact text
                text = f"{val:g}"
                if float(text) != val:
                    text = repr(float(val))
            line += f" {key}={text}"
        lines.append(line)
    for a, b in config.residual_groups:
        lines.append(f"residual {a}..{b}")
    return "\n".join(lines) + "\n"


def parse_config(text):
    name = "unnamed"
    layers = []
    spans = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        if head == "network":
            name = parts[1] if len(parts) > 1 else name
            continue
        if head == "residual":
            try:
                a, b = parts[1].split("..")
                spans.append((int(a), int(b)))
            except (IndexError, ValueError):
                raise ValueError(f"line {ln}: malformed residual span {raw!r}") from None
            continue
        try:
            layers.append(_parse_layer(head, parts[1:]))
        except ValueError as exc:
            raise ValueError(f"line {ln}: {exc}") from None
    return NetworkConfig(name=name, layers=layers, residual_groups=spans).validate()


def _parse_layer(kind, items):
    """The LayerSpec of a `kind [key=value]` line."""
    if kind not in LAYER_PARAMS:
        raise ValueError(f"unknown layer kind {kind!r}")
    key, typ = LAYER_PARAMS[kind][:2]
    value = None
    for item in items:
        k, eq, val = item.partition("=")
        if k != key or not eq:
            raise ValueError(f"{kind} takes {key}=, not {item!r}")
        if value is not None:
            raise ValueError(f"{kind} sets {key}= twice")
        value = typ(val)
    spec = LayerSpec(kind, value)
    _layer_param(spec)
    return spec


def save_config(config, path):
    with open(path, "w") as fh:
        fh.write(dump_config(config))


def load_config(path):
    """parse_config of a file; every ValueError names the path."""
    with reading(path) as fh:
        return parse_config(fh.read())


# -- catalog --------------------------------------------------------------------

def _stack(name, *, conv_first, conv_maps, n_rec, hidden, dense_units):
    layers = []

    def rec_block():
        for _ in range(n_rec):
            layers.append(recurrent(hidden))
            layers.append(dropout())

    def conv_block():
        for m in conv_maps:
            layers.append(conv2d(m))
            layers.append(elu())

    if conv_first:
        conv_block()
        rec_block()
    else:
        rec_block()
        conv_block()
    layers.append(dense(dense_units))
    layers.append(elu())
    layers.append(dropout())
    layers.append(linear_output())
    return NetworkConfig(name=name, layers=layers)


def conv_residual_spans(config, max_spans=None):
    """Candidate identity spans: for each equal-feature-map conv run, wrap
    everything after the run's first (map-changing) conv."""
    spans = []
    layers = config.layers
    i = 0
    while i < len(layers):
        if layers[i].kind != "conv2d":
            i += 1
            continue
        maps = layers[i].value
        run_start = i
        j = i
        while j + 1 < len(layers) and layers[j].kind == "conv2d" \
                and layers[j].value == maps and layers[j + 1].kind == "elu":
            j += 2
        n_convs = (j - run_start) // 2
        if n_convs > 1:
            spans.append((run_start + 2, j))
        i = max(j, i + 1)
    if max_spans is not None:
        spans = spans[:max_spans]
    return spans


def _with_residual(cfg, name, max_spans=None):
    spans = conv_residual_spans(cfg, max_spans=max_spans)
    return replace(cfg, name=name, residual_groups=spans).validate()


def catalog():
    """All named architectures, constructible via build_network.

    RC1-RC4 follow their stated layer schedules exactly (128-unit recurrent
    layers, 256-unit dense stage).  CR1-CR4, RC5 and RC6 are representative
    reconstructions pinned only by target parameter counts (19k/22k/26k/18k
    and 15k/15k, within +-15%), so they use narrower recurrent stacks; all
    of them are overridable via config files.  *-toy entries are scaled-down
    analogues for desk-size experiments.
    """
    rc1_maps = (24, 24, 48, 48, 24, 24, 12, 12, 6, 6, 3, 3)
    rc2_maps = (16, 16, 16, 16, 16, 16, 8, 8, 4, 4, 2, 2)
    cat = {}

    def add(cfg):
        cat[cfg.name] = cfg.validate()

    add(_stack("RC1", conv_first=False, conv_maps=rc1_maps, n_rec=4, hidden=128, dense_units=256))
    add(_stack("RC2", conv_first=False, conv_maps=rc2_maps, n_rec=4, hidden=128, dense_units=256))
    add(_stack("RC3", conv_first=False, conv_maps=rc1_maps, n_rec=2, hidden=128, dense_units=256))
    add(_stack("RC4", conv_first=False, conv_maps=rc2_maps, n_rec=2, hidden=128, dense_units=256))
    add(_stack("RC5", conv_first=False, n_rec=2, hidden=32, dense_units=64,
               conv_maps=(6,) * 12 + (4, 2)))
    add(_stack("RC6", conv_first=False, n_rec=2, hidden=32, dense_units=64,
               conv_maps=(8,) * 7 + (4, 4, 2, 2)))
    add(_stack("CR1", conv_first=True, conv_maps=(12, 12, 6, 6, 3, 3, 2, 2),
               n_rec=4, hidden=32, dense_units=64))
    add(_stack("CR2", conv_first=True, conv_maps=(16, 16, 8, 8, 4, 4, 2, 2),
               n_rec=4, hidden=32, dense_units=64))
    add(_stack("CR3", conv_first=True, conv_maps=(8, 8, 4, 4, 2, 2),
               n_rec=4, hidden=40, dense_units=72))
    add(_stack("CR4", conv_first=True, conv_maps=(6, 6, 3, 3, 2, 2),
               n_rec=4, hidden=32, dense_units=64))
    add(_with_residual(cat["RC2"], "Res-RC2"))
    add(_with_residual(cat["CR2"], "Res-CR2", max_spans=2))

    add(_stack("RC-small", conv_first=False, conv_maps=(8, 8),
               n_rec=2, hidden=64, dense_units=96))
    add(_stack("RC2-toy", conv_first=False, conv_maps=(8, 8, 8, 4, 4),
               n_rec=2, hidden=48, dense_units=64))
    add(_stack("CR2-toy", conv_first=True, conv_maps=(8, 8, 4, 4),
               n_rec=2, hidden=48, dense_units=64))
    add(_with_residual(cat["RC2-toy"], "Res-RC2-toy"))
    add(_with_residual(cat["CR2-toy"], "Res-CR2-toy"))

    add(NetworkConfig(name="baseline", layers=[
        recurrent(16), dense(32), elu(), linear_output(62),
    ]))
    return cat


def get_config(name_or_path):
    """Catalog entry by name, or a config file parsed from disk."""
    cat = catalog()
    if name_or_path in cat:
        return cat[name_or_path]
    import os

    if os.path.exists(str(name_or_path)):
        return load_config(name_or_path)
    raise KeyError(f"unknown network '{name_or_path}' (not in catalog, not a file)")
