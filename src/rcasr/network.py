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
"""

from dataclasses import dataclass, field, fields, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numerics import DEFAULT_DTYPE, ParameterStore, glorot_init, make_rng

KERNEL = 3
STRIDE = 1
PAD = 1

# Each layer kind takes exactly one parameter: (LayerSpec field, type, value
# used when a config omits it, None when it is required).
LAYER_PARAMS = {
    "recurrent": ("hidden_units", int, 128),
    "conv2d": ("feature_maps", int, None),
    "dense": ("units", int, None),
    "elu": ("alpha", float, 1.0),
    "dropout": ("rate", float, 0.1),
    "linear_output": ("units", int, 62),
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
    names an unknown kind, sets another kind's field or lacks a required
    value is a ValueError."""
    if spec.kind not in LAYER_PARAMS:
        raise ValueError(f"unknown layer kind '{spec.kind}'")
    name, _, default = LAYER_PARAMS[spec.kind]
    for f in fields(LayerSpec)[1:]:
        if f.name != name and getattr(spec, f.name) is not None:
            raise ValueError(f"{spec.kind} takes {name}=, not {f.name}=")
    value = getattr(spec, name)
    if value is None and default is None:
        raise ValueError(f"{spec.kind} needs {name}=")
    return default if value is None else value


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

def _elu_fwd(x, alpha):
    return np.where(x > 0, x, alpha * (np.exp(np.minimum(x, 0.0)) - 1.0))


def _elu_grad(x, alpha):
    return np.where(x > 0, 1.0, alpha * np.exp(np.minimum(x, 0.0)))


class _Elu:
    def __init__(self, alpha):
        self.alpha = alpha

    def forward(self, x, training, rng):
        return _elu_fwd(x, self.alpha), x

    def backward(self, ctx, g):
        return g * _elu_grad(ctx, self.alpha)


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
    """h_t = elu(W_xh x_t + W_hh h_{t-1} + b), h_0 = 0; backward is full BPTT."""

    def __init__(self, store, name, in_dim, hidden, rng, dtype, alpha=1.0):
        self.alpha = alpha
        self.hidden = hidden
        self.w_xh = store.add(f"{name}/W_xh", glorot_init((in_dim, hidden), rng, dtype))
        self.w_hh = store.add(f"{name}/W_hh", glorot_init((hidden, hidden), rng, dtype))
        self.b = store.add(f"{name}/b", np.zeros(hidden, dtype=dtype))

    def forward(self, x, training, rng):
        pre = x @ self.w_xh.value + self.b.value
        h = np.empty_like(pre)
        prev = np.zeros(self.hidden, dtype=pre.dtype)
        for t in range(len(pre)):
            pre[t] += prev @ self.w_hh.value
            prev = h[t] = _elu_fwd(pre[t], self.alpha)
        return h, (x, pre, h)

    def backward(self, ctx, g):
        # only the carry is sequential; every gradient is one GEMM over all steps
        x, pre, h = ctx
        slope = _elu_grad(pre, self.alpha)
        da = np.empty_like(pre)
        carry = np.zeros(self.hidden, dtype=pre.dtype)
        for t in range(len(pre) - 1, -1, -1):
            da[t] = (g[t] + carry) * slope[t]
            carry = da[t] @ self.w_hh.value.T
        self.w_xh.grad += x.T @ da
        self.w_hh.grad += h[:-1].T @ da[1:]
        self.b.grad += da.sum(axis=0)
        return da @ self.w_xh.value.T


def _pad(x):
    return np.pad(x, ((0, 0), (PAD, PAD), (PAD, PAD)))


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
# 57*64 doubles, 2.1 MB), so toy training runs every conv as one tile.
_TILE_BYTES = 5 << 19


def _tiles(xp):
    """Split a padded C x (T+2) x (F+2) stack into time tiles of at most
    _TILE_BYTES of window matrix (and at least one time row): yields
    (a, b, cols), the im2col matrix of output columns a:b of T*F."""
    c, tp, fp = xp.shape
    t, f = tp - 2 * PAD, fp - 2 * PAD
    rows = max(1, _TILE_BYTES // (c * KERNEL * KERNEL * f * xp.itemsize))
    for t0 in range(0, t, rows):
        t1 = min(t, t0 + rows)
        yield t0 * f, t1 * f, _cols(xp[:, t0:t1 + 2 * PAD])


def _correlate(kmat, xp):
    """kmat (O x C*9) against every 3x3 window of a padded C x (T+2) x (F+2)
    stack: an O x (T*F) matrix, one GEMM per time tile written in place."""
    _, tp, fp = xp.shape
    out = np.empty((kmat.shape[0], (tp - 2 * PAD) * (fp - 2 * PAD)),
                   dtype=np.result_type(kmat, xp))
    for a, b, cols in _tiles(xp):
        np.matmul(kmat, cols, out=out[:, a:b])
    return out


class _Conv2d:
    """3x3, stride 1, zero-pad 1 convolution over C x T x F maps."""

    def __init__(self, store, name, in_maps, out_maps, rng, dtype):
        self.in_maps = in_maps
        self.out_maps = out_maps
        self.k = store.add(f"{name}/K", glorot_init((out_maps, in_maps, KERNEL, KERNEL), rng, dtype))
        self.b = store.add(f"{name}/b", np.zeros(out_maps, dtype=dtype))

    def forward(self, x, training, rng):
        c, t, f = x.shape
        if c != self.in_maps:
            raise ValueError(f"conv2d expected {self.in_maps} input maps, got {c}")
        xp = _pad(x)
        y = _correlate(self.k.value.reshape(self.out_maps, -1), xp)
        y += self.b.value[:, None]
        return y.reshape(self.out_maps, t, f), (xp, (c, t, f))

    def backward(self, ctx, g):
        xp, (c, t, f) = ctx
        # dX is the correlation of the padded g with the flipped, in/out-swapped
        # kernel.  It goes first: the loop below keeps its last window matrix
        # until return, which must not overlap dX's window matrices.
        flipped = self.k.value[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
        dx = _correlate(flipped, _pad(g)).reshape(c, t, f)
        gm = g.reshape(self.out_maps, t * f)
        for a, b, cols in _tiles(xp):
            self.k.grad += (gm[:, a:b] @ cols.T).reshape(self.k.value.shape)
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
    """Backpropagate g through the steps of a training-mode _run_forward."""
    for step, ctx in zip(reversed(steps), reversed(ctxs)):
        g = step.backward(ctx, g)
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

    def __init__(self, config, store, steps, input_dim, output_units):
        self.config = config
        self.store = store
        self.steps = steps
        self.input_dim = input_dim
        self.output_units = output_units

    def forward(self, x, training=False, rng=None):
        """(logits, contexts); the contexts are None unless training."""
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"expected T x {self.input_dim} input, got {x.shape}")
        return _run_forward(self.steps, x, training, rng)

    def backward(self, ctxs, g):
        if ctxs is None:
            raise ValueError("backward needs the contexts of a training-mode forward "
                             "(forward(..., training=True))")
        return _run_backward(self.steps, ctxs, g)

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
    # the current stage: `maps` feature maps of T x `width`, or (maps None) a
    # T x `width` sequence; conv stages keep T x width intact
    maps, width = None, input_dim

    def make_step(i, spec):
        nonlocal maps, width
        name = f"L{i:02d}_{spec.kind}"
        value = _layer_param(spec)
        if spec.kind == "elu":
            return _Elu(value)
        if spec.kind == "dropout":
            return _Dropout(value if dropout_override is None else dropout_override)
        if spec.kind == "recurrent":
            layer = _Recurrent(store, name, width, value, rng, dtype)
            width = value
            return layer
        if spec.kind == "linear_output" and output_units is not None:
            value = output_units
        if spec.kind in ("dense", "linear_output"):
            layer = _Affine(store, name, width, value, rng, dtype)
            width = value
            return layer
        layer = _Conv2d(store, name, maps, value, rng, dtype)
        maps = value
        return layer

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
            i = b
        else:
            steps.append(make_step(i, config.layers[i]))
            i += 1

    return Network(config, store, steps, input_dim, width)


# -- config text format --------------------------------------------------------

def dump_config(config):
    """One layer per line `kind key=value`; spans as `residual a..b`."""
    lines = [f"network {config.name}"]
    for spec in config.layers:
        key, typ, _ = LAYER_PARAMS[spec.kind]
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
    key, typ, _ = LAYER_PARAMS[kind]
    values = {}
    for item in items:
        k, eq, val = item.partition("=")
        if k != key or not eq:
            raise ValueError(f"{kind} takes {key}=, not {item!r}")
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
