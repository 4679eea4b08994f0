"""Independent reference implementations the test suite checks against.

Everything here but run_alone, which calls one network step on its own,
forward_breadth_first, which calls each step of a network in turn, and the
recurrent step loops, which read a _Chunk or _Stream's layout, is
deliberately naive (loops, enumeration, recursion) and shares no code with
the library paths it verifies.
"""

import itertools
import math
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from rcasr.network import _Chunk


def naive_matmul(a, b):
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            s = 0.0
            for p in range(k):
                s += a[i, p] * b[p, j]
            out[i, j] = s
    return out


def naive_dft(x):
    """O(N^2) discrete Fourier transform, full spectrum."""
    n = len(x)
    ks = np.arange(n)
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        out[k] = np.sum(x * np.exp(-2j * np.pi * k * ks / n))
    return out


def naive_dct2_ortho(x):
    """Orthonormal DCT-II by direct summation."""
    n = len(x)
    out = np.zeros(n)
    for k in range(n):
        s = 0.0
        for m in range(n):
            s += x[m] * np.cos(np.pi * k * (2 * m + 1) / (2 * n))
        scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
        out[k] = scale * s
    return out


def save_feature_dump_by_rows(path, mat):
    """The feature dump writer `save_feature_dump` replaced, frozen: one
    f-string per value and one write per row."""
    mat = np.asarray(mat, dtype=np.float64)
    with open(path, "w") as fh:
        fh.write(f"{mat.shape[0]} {mat.shape[1]}\n")
        for row in mat:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def sliding_conv2d(x, kernels, bias):
    """Brute-force 3x3 stride-1 pad-1 convolution over C x T x F maps."""
    c_out, c_in, kh, kw = kernels.shape
    _, t, f = x.shape
    xp = np.zeros((c_in, t + 2, f + 2))
    xp[:, 1:-1, 1:-1] = x
    out = np.zeros((c_out, t, f))
    for co in range(c_out):
        for i in range(t):
            for j in range(f):
                s = bias[co]
                for ci in range(c_in):
                    for di in range(kh):
                        for dj in range(kw):
                            s += kernels[co, ci, di, dj] * xp[ci, i + di, j + dj]
                out[co, i, j] = s
    return out


def conv2d_grads_by_loops(x, kernels, g):
    """Brute-force (dK, db, dX) of the 3x3 stride-1 pad-1 convolution above
    for the upstream gradient g (C_out x T x F)."""
    c_out, c_in, kh, kw = kernels.shape
    _, t, f = x.shape
    xp = np.zeros((c_in, t + 2, f + 2))
    xp[:, 1:-1, 1:-1] = x
    dk = np.zeros(kernels.shape)
    dxp = np.zeros(xp.shape)
    for co in range(c_out):
        for i in range(t):
            for j in range(f):
                for ci in range(c_in):
                    for di in range(kh):
                        for dj in range(kw):
                            dk[co, ci, di, dj] += g[co, i, j] * xp[ci, i + di, j + dj]
                            dxp[ci, i + di, j + dj] += g[co, i, j] * kernels[co, ci, di, dj]
    db = np.array([g[co].sum() for co in range(c_out)])
    return dk, db, dxp[:, 1:-1, 1:-1]


def recurrent_backward_by_steps(x, pre, h, g, w_xh, w_hh):
    """BPTT for h_t = elu(x_t W_xh + h_{t-1} W_hh + b), one time step at a
    time; returns (dW_xh, dW_hh, db, dX)."""
    t_len, hidden = pre.shape
    dw_xh = np.zeros(w_xh.shape)
    dw_hh = np.zeros(w_hh.shape)
    db = np.zeros(hidden)
    dx = np.zeros(x.shape)
    carry = np.zeros(hidden)
    for t in range(t_len - 1, -1, -1):
        slope = np.where(pre[t] > 0, 1.0, np.exp(np.minimum(pre[t], 0.0)))
        da = (g[t] + carry) * slope
        h_prev = h[t - 1] if t > 0 else np.zeros(hidden)
        dw_xh += np.outer(x[t], da)
        dw_hh += np.outer(h_prev, da)
        db += da
        dx[t] = da @ w_xh.T
        carry = da @ w_hh.T
    return dw_xh, dw_hh, db, dx


# -- the per-utterance training step, frozen -----------------------------------

def _elu(x):
    return np.where(x > 0, x, np.exp(np.minimum(x, 0.0)) - 1.0)


def _elu_slope(x):
    return np.where(x > 0, 1.0, np.exp(np.minimum(x, 0.0)))


def _elu_grad(x):
    """The ELU slope from the input x, in the mask-free form rcasr used
    before its steps kept the ELU's output: d = exp(min(x, 0)), then with h
    the 0/1 floats of x > 0, d -= d * h and d += h.  Whole-array; the
    blocked form gave the same bytes."""
    d = np.exp(np.minimum(x, 0.0))
    h = (x > 0).astype(d.dtype)
    d -= d * h
    d += h
    return d


def _im2col(xp):
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(1, 2))
    return np.ascontiguousarray(win.transpose(0, 3, 4, 1, 2)).reshape(xp.shape[0] * 9, -1)


def _pad1(x):
    return np.pad(x, ((0, 0), (1, 1), (1, 1)))


def conv2d_by_im2col(x, kernels, bias, g):
    """The whole-utterance im2col convolution that `rcasr.network._Conv2d`
    replaced, frozen: (y, dK, db, dX) of the 3x3 stride-1 pad-1 convolution
    of one C x T x F utterance for the upstream gradient g, each product one
    GEMM over a 9C x T*F window matrix."""
    c_out = kernels.shape[0]
    c, t, f = x.shape
    cols = _im2col(_pad1(x))
    y = kernels.reshape(c_out, -1) @ cols + bias[:, None]
    gm = g.reshape(c_out, -1)
    dk = (gm @ cols.T).reshape(kernels.shape)
    del cols
    flipped = kernels[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
    dx = flipped @ _im2col(_pad1(g))
    return y.reshape(c_out, t, f), dk, gm.sum(axis=1), dx.reshape(c, t, f)


def run_alone(step, x, training, rng=None):
    """step.forward with x as a chunk of one utterance, whose frames are the
    rows of a sequence or the second axis of C x T x F maps."""
    frames = x.shape[1] if x.ndim == 3 else len(x)
    return step.forward(x, training, _Chunk([frames], rng))


def forward_breadth_first(net, xs):
    """The logits of a chunk of utterances xs (T x D each), stacked, with
    each step's inference forward run over the whole chunk before the next
    step's: the order every inference forward ran in before a forward longer
    than the chunk budget streamed each utterance through every step in
    blocks."""
    chunk = _Chunk([len(x) for x in xs])
    h = np.concatenate(xs)
    for step in net.steps:
        h, _ = step.forward(h, False, chunk)
    return h


# -- the recurrent time steps and ELU slope before they stopped allocating -----

def elu_slope_from_output_blocked(y):
    """The ELU slope from the ELU's output y in the six-pass blocked form
    rcasr ran before the two-pass min(y, 0) + 1: d = min(y, 0) + 1, then
    with h the 0/1 floats of y > 0, d -= d * h and d += h, over flat blocks
    of 2**14 elements."""
    block = 1 << 14
    d = np.empty(y.shape, dtype=y.dtype)
    yf, df = np.ravel(y), d.reshape(-1)
    for a in range(0, max(yf.size, 1), block):
        yb, db = yf[a:a + block], df[a:a + block]
        h = (yb > 0).astype(d.dtype)
        np.minimum(yb, 0.0, out=db)
        db += 1.0
        db -= db * h
        db += h
    return d


def recurrent_forward_allocating(layer, x, chunk):
    """_Recurrent.forward with a fresh W_hh product per time step and the
    np.where ELU: (output, context) of the layer over `chunk`."""
    packed, sizes, prev = chunk.recurrence(layer, len(x))
    pre = (x @ layer.w_xh.value + layer.b.value)[packed]
    h = np.empty_like(pre)
    a = 0
    for n in sizes:
        if prev is not None:
            pre[a:a + n] += prev[:n] @ layer.w_hh.value
        h[a:a + n] = _elu(pre[a:a + n])
        prev = h[a:a + n]
        a += n
    chunk.hold(layer, prev)
    out = np.empty_like(h)
    out[packed] = h
    return out, (x, h, chunk)


def recurrent_backward_allocating(layer, ctx, g):
    """_Recurrent.backward with a fresh carry product and slope product per
    time step and the blocked slope: adds the layer's gradients to its store
    and returns the input gradient."""
    x, h, chunk = ctx
    slope = elu_slope_from_output_blocked(h)
    g = g[chunk.packed]
    da = np.empty_like(h)
    carry = np.zeros((chunk.first, layer.hidden), dtype=h.dtype)
    b = len(h)
    for t, n in reversed(list(enumerate(chunk.sizes))):
        da[b - n:b] = (g[b - n:b] + carry[:n]) * slope[b - n:b]
        if t:
            carry[:n] = da[b - n:b] @ layer.w_hh.value.T
        b -= n
    layer.w_hh.grad += h[chunk.prev].T @ da[chunk.first:]
    da_x = np.empty_like(da)
    da_x[chunk.packed] = da
    layer.w_xh.grad += x.T @ da_x
    layer.b.grad += da_x.sum(axis=0)
    return da_x @ layer.w_xh.value.T


def _step_forward_one(step, x):
    """(output, context) of one step of a built rcasr network on one
    utterance, by the per-utterance code the chunked steps replaced."""
    kind = type(step).__name__
    if kind == "_Recurrent":
        pre = x @ step.w_xh.value + step.b.value
        h = np.empty_like(pre)
        prev = np.zeros(step.hidden)
        for t in range(len(pre)):
            pre[t] += prev @ step.w_hh.value
            prev = h[t] = _elu(pre[t])
        return h, (x, pre, h)
    if kind == "_Conv2d":
        _, t, f = x.shape
        xp = _pad1(x)
        y = step.k.value.reshape(step.out_maps, -1) @ _im2col(xp) + step.b.value[:, None]
        return y.reshape(step.out_maps, t, f), xp
    if kind == "_ResidualBlock":
        h, ctxs = x, []
        for inner in step.inner:
            h, ctx = _step_forward_one(inner, h)
            ctxs.append(ctx)
        return _elu(x + h), (ctxs, x + h)
    if kind == "_Elu":
        return _elu(x), x
    if kind == "_Affine":
        return x @ step.w.value + step.b.value, x
    if kind == "_Dropout":
        assert step.rate == 0.0, "the per-utterance oracle runs without dropout"
        return x, None
    if kind == "_SeqToMaps":
        return x[None], None
    assert kind == "_MapsToSeq", kind
    c, t, f = x.shape
    return x.transpose(1, 0, 2).reshape(t, c * f), (c, t, f)


def _step_backward_one(step, ctx, g):
    """Adds one step's parameter gradients for one utterance to the store
    and returns its input gradient."""
    kind = type(step).__name__
    if kind == "_Recurrent":
        x, pre, h = ctx
        grads = recurrent_backward_by_steps(x, pre, h, g, step.w_xh.value, step.w_hh.value)
        for p, d in zip((step.w_xh, step.w_hh, step.b), grads):
            p.grad += d
        return grads[3]
    if kind == "_Conv2d":
        xp = ctx
        c, (_, t, f) = xp.shape[0], g.shape
        flipped = step.k.value[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
        gm = g.reshape(step.out_maps, -1)
        step.k.grad += (gm @ _im2col(xp).T).reshape(step.k.value.shape)
        step.b.grad += gm.sum(axis=1)
        return (flipped @ _im2col(_pad1(g))).reshape(c, t, f)
    if kind == "_ResidualBlock":
        ctxs, pre = ctx
        da = g * _elu_slope(pre)
        d = da
        for inner, inner_ctx in zip(reversed(step.inner), reversed(ctxs)):
            d = _step_backward_one(inner, inner_ctx, d)
        return da + d
    if kind == "_Elu":
        return g * _elu_slope(ctx)
    if kind == "_Affine":
        step.w.grad += ctx.T @ g
        step.b.grad += g.sum(axis=0)
        return g @ step.w.value.T
    if kind == "_Dropout":
        return g
    if kind == "_SeqToMaps":
        return g[0]
    c, t, f = ctx
    return g.reshape(t, c, f).transpose(1, 0, 2)


def train_step_per_utterance(net, xs, labels):
    """The per-utterance training step the chunked one replaced, frozen: each
    utterance runs forward, CTC (`ctc_loss_and_grad_log_space`) and backward
    on its own, through a recurrent loop of vector-matrix products and one
    im2col GEMM per conv.  Adds every utterance's parameter gradients to the
    store's; returns (losses, input gradient per utterance)."""
    losses, dxs = [], []
    for x, lab in zip(xs, labels):
        h, ctxs = x, []
        for step in net.steps:
            h, ctx = _step_forward_one(step, h)
            ctxs.append(ctx)
        loss, g = ctc_loss_and_grad_log_space(h, lab)
        for step, ctx in zip(reversed(net.steps), reversed(ctxs)):
            g = _step_backward_one(step, ctx, g)
        losses.append(loss)
        dxs.append(g)
    return np.array(losses), dxs


def collapse_path(path, blank):
    out = []
    prev = None
    for p in path:
        if p != prev and p != blank:
            out.append(p)
        prev = p
    return tuple(out)


def ctc_prob_by_enumeration(y, labels):
    """p(l|x) as a sum over every length-T path that collapses to l."""
    t_len, n_labels = y.shape
    blank = n_labels - 1
    labels = tuple(labels)
    total = 0.0
    for path in itertools.product(range(n_labels), repeat=t_len):
        if collapse_path(path, blank) == labels:
            p = 1.0
            for t, k in enumerate(path):
                p *= y[t, k]
            total += p
    return total


def best_labelling_by_enumeration(y):
    """argmax_l p(l|x) over all labellings, by exhausting paths."""
    t_len, n_labels = y.shape
    blank = n_labels - 1
    probs = {}
    for path in itertools.product(range(n_labels), repeat=t_len):
        lab = collapse_path(path, blank)
        p = 1.0
        for t, k in enumerate(path):
            p *= y[t, k]
        probs[lab] = probs.get(lab, 0.0) + p
    return max(probs.items(), key=lambda kv: kv[1])


def _ctc_min_frames(labels):
    labels = tuple(labels)
    return len(labels) + sum(1 for a, b in zip(labels, labels[1:]) if a == b)


def ctc_forward_two_loops(y, labels):
    """The scaled trellis `rcasr.ctc.ctc_forward` replaced, frozen: an alpha
    loop and a mirror-image beta loop, each with its own start, window and
    skip mask.  Returns alpha and beta with every row normalised to sum to
    1, their ln row sums (log_alpha_scale, log_beta_scale), log_prob,
    l_prime and y."""
    NEG_INF = float("-inf")
    y = np.asarray(y, dtype=np.float64)
    T, L = y.shape
    sums = y.sum(axis=1)
    if not np.allclose(sums, 1.0, rtol=0.0, atol=1e-9):
        worst = int(np.argmax(np.abs(sums - 1.0)))
        raise ValueError(f"row {worst} of y sums to {sums[worst]!r}, expected 1")
    blank = L - 1
    labels = tuple(int(s) for s in labels)
    if any(s < 0 or s >= blank for s in labels):
        raise ValueError(f"label out of range for {L}-label alphabet: {labels}")
    lp = [blank]
    for s in labels:
        lp += [s, blank]
    lp = np.asarray(lp, dtype=np.intp)
    S = lp.size

    empty = SimpleNamespace(
        alpha=np.zeros((T, S)), beta=np.zeros((T, S)),
        log_alpha_scale=np.full(T, NEG_INF), log_beta_scale=np.full(T, NEG_INF),
        log_prob=NEG_INF, l_prime=lp, y=y,
    )
    if T < _ctc_min_frames(labels):
        return empty

    # skip transition s-2 -> s is legal when l'_s is a non-blank differing
    # from l'_{s-2}
    can_skip = np.zeros(S, dtype=bool)
    for s in range(2, S):
        can_skip[s] = lp[s] != blank and lp[s] != lp[s - 2]

    # states outside [lo_t, hi_t) either cannot be reached from the start or
    # cannot reach an accepting end state; excluding them makes the row sums
    # (and hence sum_t ln C_t) equal the exact path probability
    def window(t):
        lo = max(0, S - 2 * (T - t))
        hi = min(S, 2 * (t + 1))
        return lo, hi

    alpha = np.zeros((T, S))
    log_c = np.zeros(T)
    lo, hi = window(0)
    if lo <= 0:
        alpha[0, 0] = y[0, blank]
    if S > 1 and lo <= 1:
        alpha[0, 1] = y[0, lp[1]]
    total = alpha[0].sum()
    if total == 0.0:
        return empty
    alpha[0] /= total
    log_c[0] = math.log(total)
    for t in range(1, T):
        lo, hi = window(t)
        prev = alpha[t - 1]
        acc = prev.copy()
        acc[1:] += prev[:-1]
        acc[2:][can_skip[2:]] += prev[:-2][can_skip[2:]]
        row = np.zeros(S)
        row[lo:hi] = acc[lo:hi] * y[t, lp[lo:hi]]
        total = row.sum()
        if total == 0.0:
            return empty
        alpha[t] = row / total
        log_c[t] = math.log(total)

    beta = np.zeros((T, S))
    log_d = np.zeros(T)
    lo, hi = window(T - 1)
    beta[T - 1, S - 1] = y[T - 1, blank]
    if S > 1:
        beta[T - 1, S - 2] = y[T - 1, lp[S - 2]]
    beta[T - 1, :lo] = 0.0
    total = beta[T - 1].sum()
    beta[T - 1] /= total
    log_d[T - 1] = math.log(total)
    for t in range(T - 2, -1, -1):
        lo, hi = window(t)
        nxt = beta[t + 1]
        acc = nxt.copy()
        acc[:-1] += nxt[1:]
        acc[:-2][can_skip[2:]] += nxt[2:][can_skip[2:]]
        row = np.zeros(S)
        row[lo:hi] = acc[lo:hi] * y[t, lp[lo:hi]]
        total = row.sum()
        if total == 0.0:
            return empty
        beta[t] = row / total
        log_d[t] = math.log(total)

    return SimpleNamespace(
        alpha=alpha, beta=beta,
        log_alpha_scale=log_c, log_beta_scale=log_d,
        log_prob=float(log_c.sum()), l_prime=lp, y=y,
    )


def _ctc_extend(labels, blank):
    lp = [blank]
    for s in labels:
        lp += [int(s), blank]
    return np.asarray(lp, dtype=np.intp)


def ctc_log_trellis_by_frames(log_y, labels):
    """Log-space alpha and beta (Graves et al., ICML 2006): one loop over
    frames each, vectorised over the states of l', alpha from the two start
    states and beta back from the two end states.  Both count the frame's
    own emission; unreachable entries are -inf."""
    NEG_INF = float("-inf")
    log_y = np.asarray(log_y, dtype=np.float64)
    T, L = log_y.shape
    blank = L - 1
    lp = _ctc_extend(labels, blank)
    S = lp.size
    log_skip = np.full(S, NEG_INF)
    for s in range(2, S):
        if lp[s] != blank and lp[s] != lp[s - 2]:
            log_skip[s] = 0.0
    alpha = np.full((T, S), NEG_INF)
    beta = np.full((T, S), NEG_INF)
    if T == 0:
        log_prob = 0.0 if S == 1 else NEG_INF
        return SimpleNamespace(log_alpha=alpha, log_beta=beta, log_prob=log_prob, l_prime=lp)
    alpha[0, :2] = log_y[0, lp[:2]]
    for t in range(1, T):
        prev = alpha[t - 1]
        acc = prev.copy()
        acc[1:] = np.logaddexp(acc[1:], prev[:-1])
        acc[2:] = np.logaddexp(acc[2:], prev[:-2] + log_skip[2:])
        alpha[t] = acc + log_y[t, lp]
    beta[T - 1, max(S - 2, 0):] = log_y[T - 1, lp[max(S - 2, 0):]]
    for t in range(T - 2, -1, -1):
        nxt = beta[t + 1]
        acc = nxt.copy()
        acc[:-1] = np.logaddexp(acc[:-1], nxt[1:])
        acc[:-2] = np.logaddexp(acc[:-2], nxt[2:] + log_skip[2:])
        beta[t] = acc + log_y[t, lp]
    log_prob = alpha[T - 1, -1] if S == 1 else np.logaddexp(alpha[T - 1, -1], alpha[T - 1, -2])
    return SimpleNamespace(log_alpha=alpha, log_beta=beta, log_prob=float(log_prob), l_prime=lp)


def ctc_loss_and_grad_log_space(u, labels):
    """The CTC loss and gradient of one utterance from
    `ctc_log_trellis_by_frames`: gamma by one scatter per frame of
    exp(ln alpha + ln beta - ln y - ln p) over the reachable states."""
    u = np.asarray(u, dtype=np.float64)
    if not np.all(np.isfinite(u)):
        raise ValueError("non-finite pre-activations passed to CTC")
    shifted = u - u.max(axis=1, keepdims=True)
    log_y = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    tr = ctc_log_trellis_by_frames(log_y, labels)
    if tr.log_prob == float("-inf"):
        raise ValueError(f"infeasible label length {len(tuple(labels))} for {len(u)} frames")
    lp = tr.l_prime
    gamma = np.zeros(u.shape)
    for t in range(len(u)):
        w = tr.log_alpha[t] + tr.log_beta[t]
        mask = np.isfinite(w)
        np.add.at(gamma[t], lp[mask], np.exp(w[mask] - log_y[t, lp[mask]] - tr.log_prob))
    return -tr.log_prob, np.exp(log_y) - gamma


def ctc_loss_and_grad_scaled(u, labels, lengths=None):
    """The scaled-trellis CTC loss and gradient the log-space recursion
    replaced, frozen: one normalised alpha pass per chunk, beta as the same
    pass on the mirrored problem, a state window, ln of each row sum by
    math.log, and gamma scaled by exp(cum_c + cum_d - ln p).  Raises
    ArithmeticError where a row underflows to zero and FloatingPointError
    where that scale overflows, both on feasible labellings too."""
    u = np.asarray(u, dtype=np.float64)
    single = lengths is None
    if single:
        labels, lengths = [labels], [len(u)]
    labels = [tuple(int(s) for s in lab) for lab in labels]
    if not np.all(np.isfinite(u)):
        raise ValueError("non-finite pre-activations passed to CTC")
    e = np.exp(u - u.max(axis=1, keepdims=True))
    y = e / e.sum(axis=1, keepdims=True)
    for lab, t in zip(labels, lengths):
        if t < _ctc_min_frames(lab):
            raise ValueError(f"infeasible label length {len(lab)} for {t} frames")

    blank = y.shape[1] - 1
    lengths = np.asarray(lengths, dtype=np.intp)
    order = np.argsort(-lengths, kind="stable")
    T = lengths[order]
    rows = [_ctc_extend(labels[i], blank) for i in order]
    S = np.array([r.size for r in rows])
    n, t_max, s_max = len(rows), int(T.max(initial=0)), int(S.max())
    lp = np.full((n, s_max), blank, dtype=np.intp)
    for k, r in enumerate(rows):
        lp[k, :r.size] = r
    t = np.arange(t_max)[:, None]
    s = np.arange(s_max)
    frames = t < T
    live = frames[:, :, None] & (s < S[:, None])
    window = live & (s >= (S - 2 * (T - t))[:, :, None]) & (s < 2 * (t + 1))[:, None]
    frame = np.minimum((np.cumsum(lengths) - lengths)[order] + t, max(len(y) - 1, 0))
    emit = np.where(window, y[frame[:, :, None], lp], 0.0)
    t_rev = np.maximum(T - 1 - t, 0)
    s_rev = np.maximum(S[:, None] - 1 - s, 0)
    kk = np.arange(n)[:, None]

    def mirror(a):
        return np.where(live, a[t_rev[:, :, None], kk, s_rev], 0.0)

    def skips(lp):
        return ((lp[:, 2:] != blank) & (lp[:, 2:] != lp[:, :-2])).astype(np.float64)

    def scaled_pass(emit, skip):
        rows = np.zeros(emit.shape)
        sums = np.ones(emit.shape[:2])
        prev = np.zeros(emit.shape[1:])
        prev[:, 0] = 1.0
        for t, m in enumerate(frames.sum(axis=1).tolist()):
            p = prev[:m]
            acc = p.copy()
            acc[:, 1:] += p[:, :-1]
            acc[:, 2:] += p[:, :-2] * skip[:m]
            row = rows[t, :m]
            np.multiply(acc, emit[t, :m], out=row)
            total = row.sum(axis=1)
            row /= total[:, None]
            sums[t, :m] = total
            prev = row
        return rows, sums

    def log(a):
        return np.array([math.log(v) for v in a.ravel().tolist()]).reshape(a.shape)

    lp_rev = np.where(s < S[:, None], lp[kk, s_rev], blank)
    with np.errstate(invalid="ignore", divide="ignore"):
        alpha, c = scaled_pass(emit, skips(lp))
        beta_rev, d_rev = scaled_pass(mirror(emit), skips(lp_rev))
    beta = mirror(beta_rev)
    dead = (c == 0.0).any(axis=0) | (d_rev == 0.0).any(axis=0)
    if dead.any():
        raise ArithmeticError("CTC path probability underflowed to zero (saturated softmax?)")
    log_c, log_d_rev = log(c), log(d_rev)
    log_d = np.where(frames, log_d_rev[t_rev, kk.T], 0.0)
    log_prob = np.ascontiguousarray(log_c.T).sum(axis=1)
    cum_c = np.cumsum(log_c, axis=0)
    cum_d = np.cumsum(log_d[::-1], axis=0)[::-1]
    with np.errstate(over="ignore"):
        scale = np.exp(cum_c + cum_d - log_prob)
    if not np.isfinite(scale).all():
        raise FloatingPointError("overflow in the CTC posterior scale")
    w = alpha * beta * scale[:, :, None]
    t, k, s = np.nonzero(w)
    rows, cols = frame[t, k], lp[k, s]
    gamma = np.bincount(rows * y.shape[1] + cols, w[t, k, s] / y[rows, cols],
                        minlength=y.size).reshape(y.shape)
    losses = np.empty(len(labels))
    losses[order] = -log_prob
    return (float(losses[0]) if single else losses), y - gamma


def ctc_trellises_two_passes(log_y, labels, lengths):
    """The chunk trellises as two log-space passes, frozen: alpha over the
    emissions, then beta as a second call of the same pass on the mirrored
    problem.  Returns what `rcasr.ctc._trellises` returns."""
    NEG_INF = float("-inf")
    blank = log_y.shape[1] - 1
    lengths = np.asarray(lengths, dtype=np.intp)
    order = np.argsort(-lengths, kind="stable")
    T = lengths[order]
    rows = [_ctc_extend(labels[i], blank) for i in order]
    S = np.array([r.size for r in rows])
    n, t_max, s_max = len(rows), int(T.max(initial=0)), int(S.max())
    lp = np.full((n, s_max), blank, dtype=np.intp)
    for k, r in enumerate(rows):
        lp[k, :r.size] = r
    t = np.arange(t_max)[:, None]
    s = np.arange(s_max)
    frames = t < T
    live = frames[:, :, None] & (s < S[:, None])
    frame = np.minimum((np.cumsum(lengths) - lengths)[order] + t, max(len(log_y) - 1, 0))
    emit = np.where(live, log_y[frame[:, :, None], lp], NEG_INF)
    t_rev = np.maximum(T - 1 - t, 0)
    s_rev = np.maximum(S[:, None] - 1 - s, 0)
    idx = np.arange(n)
    kk = idx[:, None]

    def mirror(a):
        return np.where(live, a[t_rev[:, :, None], kk, s_rev], NEG_INF)

    def log_skips(lp):
        return np.where((lp[:, 2:] != blank) & (lp[:, 2:] != lp[:, :-2]), 0.0, NEG_INF)

    def log_pass(emit, log_skip):
        out = np.full((emit.shape[0] + 1,) + emit.shape[1:], NEG_INF)
        out[0, :, 0] = 0.0
        for t, m in enumerate(frames.sum(axis=1).tolist()):
            p, row = out[t, :m], out[t + 1, :m]
            row[:, 0] = p[:, 0]
            np.logaddexp(p[:, 1:], p[:, :-1], out=row[:, 1:])
            np.logaddexp(row[:, 2:], p[:, :-2] + log_skip[:m], out=row[:, 2:])
            row += emit[t, :m]
        return out

    lp_rev = np.where(s < S[:, None], lp[kk, s_rev], blank)
    alpha = log_pass(emit, log_skips(lp))
    beta_rev = log_pass(mirror(emit), log_skips(lp_rev))
    last = alpha[T, idx]
    return SimpleNamespace(
        log_alpha=alpha[1:], log_beta=mirror(beta_rev[1:]),
        log_prob=np.logaddexp(last[idx, S - 1], np.where(S > 1, last[idx, S - 2], NEG_INF)),
        lp=lp, frame=frame, order=order,
    )


def ctc_posterior_check(trellis):
    """Reconstruct p(l|x) independently at every t from log alpha_t and
    log beta_t.

    sum_s alpha_t(s) beta_t(s) / y_{l'_s}^t is p(l|x) for every t; returns
    that value per t so callers can verify it is constant.
    """
    if trellis.log_prob == float("-inf"):
        raise ValueError("posterior check undefined for infeasible trellis")
    T = trellis.log_alpha.shape[0]
    out = np.zeros(T)
    for t in range(T):
        w = trellis.log_alpha[t] + trellis.log_beta[t]
        mask = np.isfinite(w)
        w = w[mask] - np.log(trellis.y[t, trellis.l_prime[mask]])
        top = w.max()
        out[t] = math.exp(top) * float(np.sum(np.exp(w - top)))
    return out


def beam_decode_by_dicts(y, width=16):
    """The dict-of-prefixes prefix beam search `rcasr.ctc.beam_decode`
    replaced, frozen (minus its forward-LM fusion): per-extension tuple and
    dict work."""
    NEG_INF = float("-inf")
    y = np.asarray(y, dtype=np.float64)
    T, L = y.shape
    blank = L - 1
    with np.errstate(divide="ignore"):
        ly = np.log(y)

    beams = {(): [0.0, NEG_INF]}   # prefix -> [log p_blank, log p_nonblank]

    def total(item):
        return np.logaddexp(item[1][0], item[1][1])

    for t in range(T):
        nxt = {}
        for prefix, (lpb, lpnb) in beams.items():
            lp_tot = np.logaddexp(lpb, lpnb)
            cur = nxt.setdefault(prefix, [NEG_INF, NEG_INF])
            cur[0] = np.logaddexp(cur[0], lp_tot + ly[t, blank])
            if prefix:
                cur[1] = np.logaddexp(cur[1], lpnb + ly[t, prefix[-1]])
            for c in range(blank):
                if ly[t, c] == NEG_INF:
                    continue
                src = lpb if (prefix and c == prefix[-1]) else lp_tot
                if src == NEG_INF:
                    continue
                ext = nxt.setdefault(prefix + (c,), [NEG_INF, NEG_INF])
                ext[1] = np.logaddexp(ext[1], src + ly[t, c])
        if width is not None and len(nxt) > width:
            ranked = sorted(nxt.items(), key=total, reverse=True)
            nxt = dict(ranked[:width])
        beams = nxt

    order = sorted(beams.items(), key=total, reverse=True)
    return [(prefix, float(np.logaddexp(m[0], m[1]))) for prefix, m in order]


def lm_order_probability(model, order, direction, window, symbol):
    """One order's smoothed P(symbol | window), window being exactly order-1
    symbols, read from the model's {context: {symbol: count}} table; the
    context's total is the sum of its row."""
    row = model.table(order, direction).get(window, {})
    return ((row.get(symbol, 0) + model.smoothing_k)
            / (sum(row.values()) + model.smoothing_k * model.event_count))


def lm_order_conditional(model, symbol, context, order, direction="F"):
    """One order's smoothed P(symbol | context), the context padded with
    start markers and cut to its last order-1 symbols."""
    padded = ("<s>",) * (order - 1) + tuple(context)
    return lm_order_probability(model, order, direction, padded[len(padded) - (order - 1):], symbol)


def lm_conditional_full_history(model, symbol, context, direction="F"):
    """Interpolated P(symbol | context) that maps and pads the whole history,
    as the n-gram model did before it read only the last few symbols."""
    vocab = frozenset(model.vocab)
    symbol = symbol if symbol in vocab or symbol == "</s>" else "<unk>"
    context = tuple(s if s in vocab or s == "<s>" else "<unk>" for s in context)
    return sum(model.interp_weights[n] * lm_order_conditional(model, symbol, context, n, direction)
               for n in (2, 3, 4))


def lm_directional_score_full_history(model, seq, direction):
    """One direction's log score, growing and copying the whole history at
    every symbol (quadratic in the sequence length)."""
    vocab = frozenset(model.vocab)
    total = 0.0
    history = ()
    for sym in tuple(seq) + ("</s>",):
        total += math.log(lm_conditional_full_history(model, sym, history, direction))
        history = history + (sym if sym in vocab else "<unk>",)
    return total


def lm_directional_score_unmemoised(model, seq, direction):
    """One direction's log score with a fresh model.conditional per symbol,
    as lm scored a sequence before it computed each distinct window once."""
    vocab = frozenset(model.vocab)
    total = 0.0
    history = ()
    for sym in tuple(seq) + ("</s>",):
        total += math.log(model.conditional(sym, history, direction))
        history = (history + (sym if sym in vocab else "<unk>",))[-3:]
    return total


def lm_rectify_unmemoised(model, hypotheses, lam):
    """lm.rectify before the memo: each hypothesis scored on its own."""
    best = None
    for seq, ctc_score in hypotheses:
        seq = tuple(seq)
        lm_score = (model.mu * lm_directional_score_unmemoised(model, seq, "F")
                    + (1.0 - model.mu) * lm_directional_score_unmemoised(model, seq[::-1], "B"))
        combined = ctc_score + lam * lm_score
        key = (combined, ctc_score)
        if best is None or key > best[0]:
            best = (key, seq)
    return best[1], best[0][0]


def osa_distance_by_search(a, b):
    """Exhaustive edit-script search for the restricted (OSA) distance.

    Explores insert/delete/substitute and adjacent-transposition choices
    recursively; a transposed pair is consumed whole, which is exactly the
    'no substring edited twice' restriction.
    """
    a = tuple(a)
    b = tuple(b)

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        options = []
        if a[i] == b[j]:
            options.append(rec(i + 1, j + 1))
        options.append(rec(i + 1, j + 1) + 1)      # substitute
        options.append(rec(i + 1, j) + 1)          # delete
        options.append(rec(i, j + 1) + 1)          # insert
        if i + 1 < len(a) and j + 1 < len(b) and a[i] == b[j + 1] and a[i + 1] == b[j]:
            options.append(rec(i + 2, j + 2) + 1)  # adjacent transposition
        return min(options)

    return rec(0, 0)


def fd_gradient(fn, arr, h=1e-6):
    """Central finite differences of scalar fn w.r.t. every entry of arr."""
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn()
        flat[i] = orig - h
        down = fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def max_relative_error(analytic, numeric):
    """Worst entry difference measured against the gradient's own scale."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(float(np.max(np.abs(numeric))), float(np.max(np.abs(analytic))), 1e-12)
    return float(np.max(np.abs(analytic - numeric))) / scale
