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
"""

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numerics import DEFAULT_DTYPE, ParameterStore, glorot_init, make_rng

KERNEL = 3
STRIDE = 1
PAD = 1

# Each layer kind takes exactly one parameter: (LayerSpec field, type, value
# used when a config omits it or None when it is required, valid range).
LAYER_PARAMS = {
    "recurrent": ("hidden_units", int, 128, ">= 1"),
    "conv2d": ("feature_maps", int, None, ">= 1"),
    "dense": ("units", int, None, ">= 1"),
    "elu": ("alpha", float, 1.0, "finite and >= 0"),
    "dropout": ("rate", float, 0.1, "in [0, 1)"),
    "linear_output": ("units", int, 62, ">= 1"),
}
_IN_RANGE = {
    ">= 1": lambda v: v >= 1,
    "finite and >= 0": lambda v: math.isfinite(v) and v >= 0,
    "in [0, 1)": lambda v: 0 <= v < 1,
}


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    hidden_units: int = None
    feature_maps: int = None
    units: int = None
    rate: float = None
    alpha: float = None


def _layer_param(spec):
    """The value of spec's one parameter, or its kind's default; a spec that
    names an unknown kind, sets another kind's field, lacks a required value
    or has one out of range is a ValueError."""
    if spec.kind not in LAYER_PARAMS:
        raise ValueError(f"unknown layer kind '{spec.kind}'")
    name, _, default, valid = LAYER_PARAMS[spec.kind]
    for f in fields(LayerSpec)[1:]:
        if f.name != name and getattr(spec, f.name) is not None:
            raise ValueError(f"{spec.kind} takes {name}=, not {f.name}=")
    value = getattr(spec, name)
    if value is None and default is None:
        raise ValueError(f"{spec.kind} needs {name}=")
    value = default if value is None else value
    if not _IN_RANGE[valid](value):
        raise ValueError(f"{spec.kind} {name}= must be {valid}, got {value}")
    return value


def recurrent(hidden_units=128):
    return LayerSpec(kind="recurrent", hidden_units=hidden_units)


def conv2d(feature_maps):
    return LayerSpec(kind="conv2d", feature_maps=feature_maps)


def dense(units):
    return LayerSpec(kind="dense", units=units)


def elu(alpha=1.0):
    return LayerSpec(kind="elu", alpha=alpha)


def dropout(rate=0.1):
    return LayerSpec(kind="dropout", rate=rate)


def linear_output(units=62):
    return LayerSpec(kind="linear_output", units=units)


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
    each its own zero border (see _pad).  Recurrent steps run time-major
    over the utterances still active, longest first: `packed` lists the
    stacked rows of time step 0, then of step 1, ..., sizes[t] rows at step
    t, and each step's utterances are a prefix of the previous step's.
    prev[k] is the packed row one time step before packed row first + k.
    """

    def __init__(self, lengths):
        lengths = np.asarray(lengths, dtype=np.intp)
        starts = np.cumsum(lengths) - lengths
        frames = int(lengths.sum())
        self.frames = frames
        self.spans = list(zip(starts.tolist(), (starts + lengths).tolist()))
        order = np.argsort(-lengths, kind="stable")
        steps = np.arange(lengths.max(initial=0))[:, None]
        active = steps < lengths[order]
        sizes = active.sum(axis=1)
        self.packed = (starts[order] + steps)[active]
        self.sizes = sizes.tolist()
        self.first = self.sizes[0] if self.sizes else 0
        self.prev = np.arange(self.first, frames) - np.repeat(sizes[:-1], sizes[1:])


class _Layout:
    """The chunk of the forward a network is running.  Network.forward sets
    it for the length of the forward; the network's conv2d and recurrent
    steps share this one instance.  A step called on its own sees its input
    as one utterance."""

    def __init__(self):
        self.chunk = None

    def chunk_of(self, frames):
        return self.chunk if self.chunk is not None else _Chunk([frames])


# Byte budget of one chunk's training contexts, as Network.frame_bytes
# estimates them: the trainer runs each mini-batch as the longest runs of
# consecutive utterances that fit.  Bigger chunks share more per-step Python
# work and hold more memory.  On RC-small toy training (32-utterance
# batches, mean T 30) 2 / 3 / 4 / 6 MiB ran 1.21-1.33 / 1.32-1.45 /
# 1.43-1.48 / 1.49x as fast as one utterance at a time, with peak RSS up
# 1-2 / 4-5 / 7-9 / 12%.  One RC1 utterance of 3 s keeps about 145 MiB, so
# paper-size training stays one utterance per chunk.
_CHUNK_BYTES = 3 << 20


# in place on one new array, which keeps a chunk's transient memory to one
# copy of x; the same arithmetic as np.where(x > 0, x, alpha * (exp - 1))
def _elu_fwd(x, alpha):
    y = np.minimum(x, 0.0)
    np.exp(y, out=y)
    y -= 1.0
    y *= alpha
    np.copyto(y, x, where=x > 0)
    return y


def _elu_grad(x, alpha):
    d = np.minimum(x, 0.0)
    np.exp(d, out=d)
    d *= alpha
    d[x > 0] = 1.0
    return d


class _Elu:
    def __init__(self, alpha):
        self.alpha = alpha

    def forward(self, x, training, rng):
        return _elu_fwd(x, self.alpha), x

    def backward(self, ctx, g):
        d = _elu_grad(ctx, self.alpha)
        d *= g
        return d


class _Dropout:
    def __init__(self, rate):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate

    def forward(self, x, training, rng):
        if not training or self.rate == 0.0:
            return x, None
        if rng is None:
            raise ValueError("training-mode dropout needs an rng")
        mask = (rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        return x * mask, mask

    def backward(self, ctx, g):
        return g if ctx is None else g * ctx


class _Affine:
    """Per-time-step x @ W + b; used for dense and linear_output layers."""

    def __init__(self, store, name, in_dim, units, rng, dtype):
        self.w = store.add(f"{name}/W", glorot_init((in_dim, units), rng, dtype))
        self.b = store.add(f"{name}/b", np.zeros(units, dtype=dtype))

    def forward(self, x, training, rng):
        return x @ self.w.value + self.b.value, x

    def backward(self, ctx, g):
        self.w.grad += ctx.T @ g
        self.b.grad += g.sum(axis=0)
        return g @ self.w.value.T


class _Recurrent:
    """h_t = elu(W_xh x_t + W_hh h_{t-1} + b), h_0 = 0, in each utterance of
    the chunk; backward is full BPTT.  Each time step is one GEMM over the
    utterances still running (see _Chunk)."""

    def __init__(self, store, name, in_dim, hidden, rng, dtype, alpha=1.0, layout=None):
        self.alpha = alpha
        self.hidden = hidden
        self.layout = layout if layout is not None else _Layout()
        self.w_xh = store.add(f"{name}/W_xh", glorot_init((in_dim, hidden), rng, dtype))
        self.w_hh = store.add(f"{name}/W_hh", glorot_init((hidden, hidden), rng, dtype))
        self.b = store.add(f"{name}/b", np.zeros(hidden, dtype=dtype))

    def forward(self, x, training, rng):
        chunk = self.layout.chunk_of(len(x))
        # pre and h are time-major: step t's rows follow step t-1's, and the
        # first sizes[t] rows of step t-1 are the same utterances' previous step
        pre = (x @ self.w_xh.value + self.b.value)[chunk.packed]
        h = np.empty_like(pre)
        a = 0   # step t's first packed row; the previous step's is a - last
        for t, n in enumerate(chunk.sizes):
            if t:
                pre[a:a + n] += h[a - last:a - last + n] @ self.w_hh.value
            h[a:a + n] = _elu_fwd(pre[a:a + n], self.alpha)
            a, last = a + n, n
        out = np.empty_like(h)
        out[chunk.packed] = h
        return out, (x, pre, h, chunk)

    def backward(self, ctx, g):
        # only the carry is sequential; every gradient is one GEMM over all steps
        x, pre, h, chunk = ctx
        slope = _elu_grad(pre, self.alpha)
        g = g[chunk.packed]
        da = np.empty_like(pre)
        carry = np.zeros((chunk.first, self.hidden), dtype=pre.dtype)
        b = len(pre)    # one past step t's last packed row
        for t, n in reversed(list(enumerate(chunk.sizes))):
            da[b - n:b] = (g[b - n:b] + carry[:n]) * slope[b - n:b]
            if t:
                carry[:n] = da[b - n:b] @ self.w_hh.value.T
            b -= n
        self.w_hh.grad += h[chunk.prev].T @ da[chunk.first:]
        da_x = np.empty_like(da)
        da_x[chunk.packed] = da
        self.w_xh.grad += x.T @ da_x
        self.b.grad += da_x.sum(axis=0)
        return da_x @ self.w_xh.value.T


def _pad(x, chunk):
    """A chunk's C x frames x F maps with a zero border around each
    utterance: C x (frames + utterances + 1) x (F+2), frame t of utterance i
    at row t + i + 1."""
    c, t, f = x.shape
    xp = np.zeros((c, t + len(chunk.spans) + 1, f + 2 * PAD), dtype=x.dtype)
    for i, (s, e) in enumerate(chunk.spans):
        xp[:, s + i + PAD:e + i + PAD, PAD:-PAD] = x[:, s:e]
    return xp


def _cols(xp):
    """im2col: the 3x3 windows of a padded C x (T+2) x (F+2) stack as a
    contiguous (C*9) x (T*F) matrix, rows ordered (c, di, dj) like
    K.reshape(C_out, -1)."""
    win = sliding_window_view(xp, (KERNEL, KERNEL), axis=(1, 2))   # C, T, F, 3, 3
    cols = np.ascontiguousarray(win.transpose(0, 3, 4, 1, 2))
    return cols.reshape(xp.shape[0] * KERNEL * KERNEL, -1)


# Byte budget of one tile's window matrix.  A whole-utterance window matrix
# is 9x its input (133 MB at RC1's 48-map layers for 3 s of audio); tiles keep
# conv memory bounded in T and each GEMM operand near cache size.  On a Xeon
# with 4 MiB of L2, RC1's convs ran as fast at 1 and 2.5 MiB and slower from
# 4 MiB up.  2.5 MiB exceeds the largest toy window matrix (RC-small, 72 x
# 57*64 doubles, 2.1 MB), so toy training runs each utterance's conv as one
# tile.
_TILE_BYTES = 5 << 19


def _tiles(xp, chunk):
    """Split the frames of a chunk's padded stack (see _pad) into time tiles
    of one utterance each, of at most _TILE_BYTES of window matrix (and at
    least one frame): yields (a, b, cols), the im2col matrix of output
    columns a:b of frames*F."""
    c, _, fp = xp.shape
    f = fp - 2 * PAD
    rows = max(1, _TILE_BYTES // (c * KERNEL * KERNEL * f * xp.itemsize))
    for i, (s, e) in enumerate(chunk.spans):
        for t0 in range(s, e, rows):
            t1 = min(e, t0 + rows)
            # frame t of utterance i sits at padded row t + i + 1
            yield t0 * f, t1 * f, _cols(xp[:, t0 + i:t1 + i + 2 * PAD])


def _correlate(kmat, xp, chunk):
    """kmat (O x C*9) against the 3x3 window of every frame of a chunk's
    padded stack: an O x (frames*F) matrix, one GEMM per time tile written
    in place."""
    out = np.empty((kmat.shape[0], chunk.frames * (xp.shape[2] - 2 * PAD)),
                   dtype=np.result_type(kmat, xp))
    for a, b, cols in _tiles(xp, chunk):
        np.matmul(kmat, cols, out=out[:, a:b])
        del cols    # before the next tile is built
    return out


class _Conv2d:
    """3x3, stride 1, zero-pad 1 convolution over C x T x F maps.  Every
    utterance of a chunk has its own zero border and its own GEMMs, so none
    reads another's frames and its values do not depend on the chunk."""

    def __init__(self, store, name, in_maps, out_maps, rng, dtype, layout=None):
        self.in_maps = in_maps
        self.out_maps = out_maps
        self.layout = layout if layout is not None else _Layout()
        self.k = store.add(f"{name}/K", glorot_init((out_maps, in_maps, KERNEL, KERNEL), rng, dtype))
        self.b = store.add(f"{name}/b", np.zeros(out_maps, dtype=dtype))

    def forward(self, x, training, rng):
        c, t, f = x.shape
        if c != self.in_maps:
            raise ValueError(f"conv2d expected {self.in_maps} input maps, got {c}")
        chunk = self.layout.chunk_of(t)
        xp = _pad(x, chunk)
        y = _correlate(self.k.value.reshape(self.out_maps, -1), xp, chunk)
        y += self.b.value[:, None]
        return y.reshape(self.out_maps, t, f), (xp, (c, t, f), chunk)

    def backward(self, ctx, g):
        xp, (c, t, f), chunk = ctx
        # dX is the correlation of the padded g with the flipped, in/out-swapped
        # kernel
        flipped = self.k.value[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
        dx = _correlate(flipped, _pad(g, chunk), chunk).reshape(c, t, f)
        gm = g.reshape(self.out_maps, t * f)
        for a, b, cols in _tiles(xp, chunk):
            self.k.grad += (gm[:, a:b] @ cols.T).reshape(self.k.value.shape)
            del cols
        self.b.grad += gm.sum(axis=1)
        return dx


class _SeqToMaps:
    def forward(self, x, training, rng):
        return x[None, :, :], None

    def backward(self, ctx, g):
        return g[0]


class _MapsToSeq:
    def forward(self, x, training, rng):
        c, t, f = x.shape
        return x.transpose(1, 0, 2).reshape(t, c * f), (c, t, f)

    def backward(self, ctx, g):
        c, t, f = ctx
        return g.reshape(t, c, f).transpose(1, 0, 2)


def _run_forward(steps, h, training, rng):
    """Run steps in order: (output, contexts).  Only a training-mode forward
    keeps the contexts backward needs; an inference forward returns None for
    them and frees each context as soon as its step returns."""
    ctxs = [] if training else None
    for step in steps:
        h, ctx = step.forward(h, training, rng)
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


class _ResidualBlock:
    """elu(x + F(x)) with an identity shortcut; F is a conv/elu run."""

    def __init__(self, inner, alpha):
        self.inner = inner
        self.alpha = alpha

    def forward(self, x, training, rng):
        h, inner_ctx = _run_forward(self.inner, x, training, rng)
        if h.shape != x.shape:
            raise ValueError(
                f"residual branch changed shape {x.shape} -> {h.shape}; identity shortcut impossible"
            )
        pre = x + h
        return _elu_fwd(pre, self.alpha), (inner_ctx, pre) if training else None

    def backward(self, ctx, g):
        inner_ctx, pre = ctx
        da = g * _elu_grad(pre, self.alpha)
        return da + _run_backward(self.inner, inner_ctx, da)


class Network:
    """A built, runnable stack bound to its ParameterStore."""

    def __init__(self, config, store, steps, input_dim, output_units, layout, frame_bytes):
        self.config = config
        self.store = store
        self.steps = steps
        self.input_dim = input_dim
        self.output_units = output_units
        self.layout = layout
        # about what one frame keeps for backward: every layer's output
        self.frame_bytes = frame_bytes

    def forward(self, x, training=False, rng=None):
        """(logits, contexts) of one utterance, a T x D matrix, or of a chunk,
        a list of them, whose logits come stacked in order; the contexts are
        None unless training."""
        xs = [np.asarray(u) for u in x] if isinstance(x, list) else [np.asarray(x)]
        for u in xs:
            if u.ndim != 2 or u.shape[1] != self.input_dim:
                raise ValueError(f"expected T x {self.input_dim} input, got {u.shape}")
        self.layout.chunk = _Chunk([len(u) for u in xs])
        try:
            return _run_forward(self.steps, np.concatenate(xs), training, rng)
        finally:
            self.layout.chunk = None

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

    def n_params(self):
        return self.store.n_params()


def build_network(config, input_dim=39, output_units=None, rng=None,
                  dropout_override=None, dtype=DEFAULT_DTYPE):
    """Instantiate a config into a Network plus a fresh ParameterStore.

    output_units, when given, replaces the final layer's unit count (the
    catalog entries default to 62).  dropout_override replaces every
    dropout rate, e.g. 0.0 to disable regularization.
    """
    config.validate()
    store = ParameterStore()
    rng = rng if rng is not None else make_rng(0)
    spans = {a: (a, b) for a, b in sorted(config.residual_groups)}

    steps = []
    layout = _Layout()
    # the current stage: `maps` feature maps of T x `width`, or (maps None) a
    # T x `width` sequence; conv stages keep T x width intact
    maps, width = None, input_dim
    frame_width = 0     # summed per-frame output widths of the layers

    def make_step(i, spec):
        nonlocal maps, width, frame_width
        name = f"L{i:02d}_{spec.kind}"
        value = _layer_param(spec)
        if spec.kind == "elu":
            step = _Elu(value)
        elif spec.kind == "dropout":
            step = _Dropout(value if dropout_override is None else dropout_override)
        elif spec.kind == "recurrent":
            step = _Recurrent(store, name, width, value, rng, dtype, layout=layout)
            width = value
        elif spec.kind in ("dense", "linear_output"):
            if spec.kind == "linear_output" and output_units is not None:
                value = output_units
            step = _Affine(store, name, width, value, rng, dtype)
            width = value
        else:
            step = _Conv2d(store, name, maps, value, rng, dtype, layout=layout)
            maps = value
        frame_width += (maps or 1) * width
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
                if config.layers[j].feature_maps != maps:
                    raise ValueError(
                        f"residual span {(a, b)} in '{config.name}': conv layer {j} has "
                        f"{config.layers[j].feature_maps} maps but the span carries {maps}"
                    )
            inner = [make_step(j, config.layers[j]) for j in range(a, b - 1)]
            steps.append(_ResidualBlock(inner, _layer_param(config.layers[b - 1])))
            frame_width += maps * width
            i = b
        else:
            steps.append(make_step(i, config.layers[i]))
            i += 1

    return Network(config, store, steps, input_dim, width, layout,
                   frame_width * np.dtype(dtype).itemsize)


# -- config text format --------------------------------------------------------

def dump_config(config):
    """One layer per line `kind key=value`; spans as `residual a..b`."""
    lines = [f"network {config.name}"]
    for spec in config.layers:
        key, typ = LAYER_PARAMS[spec.kind][:2]
        val = getattr(spec, key)
        line = spec.kind
        if val is not None:
            line += f" {key}={val:g}" if typ is float else f" {key}={val}"
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
    values = {}
    for item in items:
        k, eq, val = item.partition("=")
        if k != key or not eq:
            raise ValueError(f"{kind} takes {key}=, not {item!r}")
        if key in values:
            raise ValueError(f"{kind} sets {key}= twice")
        values[key] = typ(val)
    spec = LayerSpec(kind=kind, **values)
    _layer_param(spec)
    return spec


def save_config(config, path):
    with open(path, "w") as fh:
        fh.write(dump_config(config))


def load_config(path):
    """parse_config of a file; every ValueError names the path."""
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# -- catalog --------------------------------------------------------------------

def _stack(name, *, conv_first, conv_maps, n_rec, hidden, dense_units,
           out_units=62, rate=0.1):
    layers = []

    def rec_block():
        for _ in range(n_rec):
            layers.append(recurrent(hidden))
            layers.append(dropout(rate))

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
    layers.append(dropout(rate))
    layers.append(linear_output(out_units))
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
        maps = layers[i].feature_maps
        run_start = i
        j = i
        while j + 1 < len(layers) and layers[j].kind == "conv2d" \
                and layers[j].feature_maps == maps and layers[j + 1].kind == "elu":
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
