"""Connectionist temporal classification.

Forward/backward dynamic program over the blank-extended label in log space
(Graves et al., ICML 2006), so no feasible labelling underflows; loss and
analytic gradient through an internal softmax; greedy and prefix beam
decoding.  The blank is always the LAST label index.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

NEG_INF = float("-inf")


class InfeasibleLabel(ValueError):
    """Raised when a label cannot be emitted in the available frames."""


@dataclass(frozen=True)
class Alphabet:
    """61 (or fewer) non-blank symbols plus one trailing blank."""

    non_blank: tuple

    def __post_init__(self):
        if len(set(self.non_blank)) != len(self.non_blank):
            raise ValueError("alphabet symbols must be unique")

    @property
    def blank(self):
        return len(self.non_blank)

    @property
    def size(self):
        return len(self.non_blank) + 1

    def encode(self, symbols):
        index = {s: i for i, s in enumerate(self.non_blank)}
        try:
            return tuple(index[s] for s in symbols)
        except KeyError as exc:
            raise KeyError(f"symbol {exc.args[0]!r} not in alphabet") from None

    def decode(self, ids):
        return tuple(self.non_blank[i] for i in ids)


TIMIT_PHONES = (
    "aa", "ae", "ah", "ao", "aw", "ax", "ax-h", "axr", "ay", "b", "bcl",
    "ch", "d", "dcl", "dh", "dx", "eh", "el", "em", "en", "eng", "epi",
    "er", "ey", "f", "g", "gcl", "h#", "hh", "hv", "ih", "ix", "iy", "jh",
    "k", "kcl", "l", "m", "n", "ng", "nx", "ow", "oy", "p", "pau", "pcl",
    "q", "r", "s", "sh", "t", "tcl", "th", "uh", "uw", "ux", "v", "w",
    "y", "z", "zh",
)


def timit_alphabet():
    return Alphabet(non_blank=TIMIT_PHONES)


def synthetic_alphabet(n_phonemes):
    return Alphabet(non_blank=tuple(f"p{i}" for i in range(n_phonemes)))


def extend_label(labels, blank):
    """Interleave blanks: l -> (blank, l1, blank, l2, ..., blank)."""
    ext = [blank]
    for s in labels:
        ext.append(int(s))
        ext.append(blank)
    return np.asarray(ext, dtype=np.intp)


def min_frames(labels):
    """Fewest frames that can emit `labels` (repeats force a blank between)."""
    labels = tuple(labels)
    repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    return len(labels) + repeats


@dataclass
class CtcTrellis:
    """Log-space forward/backward variables over the extended label.

    log_alpha[t, s] is ln of the probability mass of the path prefixes that
    are in state s of l' at frame t, log_beta[t, s] that of the path
    suffixes from state s at frame t to an end state; both count
    y[t, l'_s].  Unreachable entries are -inf, and log_prob = ln p(l|x).
    """

    log_alpha: np.ndarray
    log_beta: np.ndarray
    log_prob: float
    l_prime: np.ndarray
    y: np.ndarray


def _check_rows_stochastic(y):
    sums = y.sum(axis=1)
    if not np.allclose(sums, 1.0, rtol=0.0, atol=1e-9):
        worst = int(np.argmax(np.abs(sums - 1.0)))
        raise ValueError(f"row {worst} of y sums to {sums[worst]!r}, expected 1")


def _check_labels(labels, n_labels):
    if any(s < 0 or s >= n_labels - 1 for s in labels):
        raise ValueError(f"label out of range for {n_labels}-label alphabet: {labels}")


def ctc_forward(y, labels):
    """Fill the log-space alpha/beta trellis for label sequence `labels`.

    y is a T x L row-stochastic matrix whose last column is the blank.
    Infeasible (or zero-probability) labellings come back with
    log_prob = -inf rather than raising.
    """
    y = np.asarray(y, dtype=np.float64)
    T, L = y.shape
    _check_rows_stochastic(y)
    labels = tuple(int(s) for s in labels)
    _check_labels(labels, L)
    with np.errstate(divide="ignore"):
        tr = _trellises(np.log(y), [labels], [T])
    return CtcTrellis(log_alpha=tr.log_alpha[:, 0], log_beta=tr.log_beta[:, 0],
                      log_prob=float(tr.log_prob[0]), l_prime=tr.lp[0], y=y)


def _log_skips(lp, blank):
    """log_skip[k, s - 2] = 0 where s-2 -> s is legal in row k of l' (l'_s is
    a non-blank differing from l'_{s-2}), -inf elsewhere."""
    return np.where((lp[:, 2:] != blank) & (lp[:, 2:] != lp[:, :-2]), 0.0, NEG_INF)


def _trellises(log_y, labels, lengths):
    """The log-space alpha and beta trellises of every utterance of a chunk.

    log_y (N x L) stacks the utterances' log emissions, lengths[i] frames
    for label sequence labels[i].  Arrays are time x utterance x state,
    utterances longest first (column k is utterance order[k]), -inf outside
    each one's frames and states.

    beta is the alpha recursion run on each utterance's time- and
    label-reversed problem: reversing l' keeps its skip rule and its two
    start states, and its end states are the start states of l'.
    """
    blank = log_y.shape[1] - 1
    lengths = np.asarray(lengths, dtype=np.intp)
    order = np.argsort(-lengths, kind="stable")
    T = lengths[order]
    rows = [extend_label(labels[i], blank) for i in order]
    S = np.array([r.size for r in rows])
    n, t_max, s_max = len(rows), int(T.max(initial=0)), int(S.max())
    lp = np.full((n, s_max), blank, dtype=np.intp)
    for k, r in enumerate(rows):
        lp[k, :r.size] = r

    t = np.arange(t_max)[:, None]
    s = np.arange(s_max)
    frames = t < T                                        # t_max x n
    live = frames[:, :, None] & (s < S[:, None])
    frame = np.minimum((np.cumsum(lengths) - lengths)[order] + t, max(len(log_y) - 1, 0))
    emit = np.where(live, log_y[frame[:, :, None], lp], NEG_INF)

    # the mirror image (t, k, s) <-> (T_k - 1 - t, k, S_k - 1 - s)
    t_rev = np.maximum(T - 1 - t, 0)
    s_rev = np.maximum(S[:, None] - 1 - s, 0)
    idx = np.arange(n)
    k = idx[:, None]

    def mirror(a):
        return np.where(live, a[t_rev[:, :, None], k, s_rev], NEG_INF)

    lp_rev = np.where(s < S[:, None], lp[k, s_rev], blank)
    sizes = frames.sum(axis=1).tolist()
    alpha = _log_pass(emit, _log_skips(lp, blank), sizes)
    beta_rev = _log_pass(mirror(emit), _log_skips(lp_rev, blank), sizes)
    # row T_k is utterance k's last frame (row 0 its start, for T_k = 0)
    last = alpha[T, idx]
    return SimpleNamespace(
        log_alpha=alpha[1:], log_beta=mirror(beta_rev[1:]),
        log_prob=np.logaddexp(last[idx, S - 1], np.where(S > 1, last[idx, S - 2], NEG_INF)),
        lp=lp, frame=frame, order=order,
    )


def _log_pass(emit, log_skip, sizes):
    """The log-space alpha recursion over time x utterance x state log
    emissions, -inf outside each utterance's states; the first sizes[t]
    utterances run at time t.

    Returns (T + 1) x utterance x state rows: row 0 is a virtual start whose
    successors are the two start states, row t + 1 frame t; -inf where an
    utterance has ended.
    """
    T, n, S = emit.shape
    rows = np.full((T + 1, n, S), NEG_INF)
    rows[0, :, 0] = 0.0
    for t, m in enumerate(sizes):
        p, row = rows[t, :m], rows[t + 1, :m]
        row[:, 0] = p[:, 0]
        np.logaddexp(p[:, 1:], p[:, :-1], out=row[:, 1:])
        np.logaddexp(row[:, 2:], p[:, :-2] + log_skip[:m], out=row[:, 2:])
        row += emit[t, :m]
    return rows


def softmax(u):
    u = np.asarray(u, dtype=np.float64)
    shifted = u - u.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _utterance_error(exc, i):
    """exc, naming the chunk utterance it is about in `exc.utterance`."""
    exc.utterance = i
    return exc


def ctc_loss_and_grad(u, labels, lengths=None):
    """Negative log likelihood and its gradient w.r.t. pre-activations u.

    The softmax lives inside: u is the network's linear output.  With
    lengths None, u is one utterance (T x L), labels its label sequence, and
    the result is (loss, grad).  Otherwise u stacks the frames of a chunk,
    lengths[i] of them with label sequence labels[i], and the result is
    (per-utterance losses, stacked grad) from one recursion over the whole
    chunk.  An error about one utterance carries its chunk index in
    `exc.utterance`.
    """
    u = np.asarray(u, dtype=np.float64)
    single = lengths is None
    if single:
        labels, lengths = [labels], [len(u)]
    labels = [tuple(int(s) for s in lab) for lab in labels]
    ends = np.cumsum(lengths)
    if ends[-1] != len(u) or len(labels) != len(lengths):
        raise ValueError(f"{len(u)} frames and {len(labels)} labels do not match "
                         f"lengths {list(lengths)}")
    bad = np.flatnonzero(~np.isfinite(u).all(axis=1))
    if bad.size:
        raise _utterance_error(ValueError("non-finite pre-activations passed to CTC"),
                               int(np.searchsorted(ends, bad[0], side="right")))
    shifted = u - u.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    y, log_y = e / total, shifted - np.log(total)
    for i, (lab, t) in enumerate(zip(labels, lengths)):
        try:
            _check_labels(lab, y.shape[1])
            if t < min_frames(lab):
                raise InfeasibleLabel(f"infeasible label length {len(lab)} for {t} frames")
        except ValueError as exc:
            raise _utterance_error(exc, i) from None
    tr = _trellises(log_y, labels, lengths)
    log_w = tr.log_alpha + tr.log_beta
    t, k, s = np.nonzero(np.isfinite(log_w))
    rows, cols = tr.frame[t, k], tr.lp[k, s]
    w = np.exp(log_w[t, k, s] - log_y[rows, cols] - tr.log_prob[k])
    gamma = np.bincount(rows * y.shape[1] + cols, w, minlength=y.size).reshape(y.shape)
    losses = np.empty(len(labels))
    losses[tr.order] = -tr.log_prob
    return (float(losses[0]) if single else losses), y - gamma


def collapse(path, blank):
    """The label-collapsing map: drop repeats, then drop blanks."""
    out = []
    prev = None
    for p in path:
        if p != prev:
            if p != blank:
                out.append(int(p))
            prev = p
    return tuple(out)


def greedy_decode(y):
    """Best-path decoding: frame argmax, collapse repeats, strip blanks.

    Ties break toward the lowest label index.
    """
    y = np.asarray(y)
    blank = y.shape[1] - 1
    return collapse(np.argmax(y, axis=1), blank)


def beam_decode(y, width=16):
    """Prefix beam search; returns hypotheses as (label_ids, ctc_log_prob),
    best first.

    Each live prefix keeps separate blank/non-blank log masses.  width=None
    disables pruning, which makes the top hypothesis the exact most probable
    labelling.

    Each frame is one (W, L) candidate matrix over the W live prefixes:
    column 0 is the prefix itself, column c + 1 the prefix extended by label
    c.  When more than `width` candidates are live, the best survive, ranked
    by score with ties to the earlier cell in row-major order; a live prefix
    that extends an earlier live prefix takes that extension's cell.  Memory
    is O(W * (L + T)).
    """
    if width is not None and width < 1:
        raise ValueError(f"beam width must be >= 1, got {width}")
    y = np.asarray(y, dtype=np.float64)
    T, L = y.shape
    blank = L - 1
    with np.errstate(divide="ignore"):
        ly = np.log(y)

    prefixes = [()]
    pb = np.array([0.0])      # log mass of paths ending in blank
    pnb = np.array([NEG_INF])  # log mass of paths ending in the last label

    for t in range(T):
        n = len(prefixes)
        lt = ly[t]
        total = np.logaddexp(pb, pnb)
        ends = np.flatnonzero([len(p) > 0 for p in prefixes])
        last = np.array([prefixes[i][-1] for i in ends], dtype=np.intp)

        b = np.full((n, L), NEG_INF)
        nb = np.empty((n, L))
        b[:, 0] = total + lt[blank]
        nb[:, 0] = NEG_INF
        nb[ends, 0] = pnb[ends] + lt[last]
        # a label repeated right after itself extends only the blank-ending paths
        src = np.repeat(total[:, None], blank, axis=1)
        src[ends, last] = pb[ends]
        nb[:, 1:] = src + lt[:blank]
        live = np.empty((n, L), dtype=bool)
        live[:, 0] = True
        live[:, 1:] = (src != NEG_INF) & (lt[:blank] != NEG_INF)

        # an extension equal to a live prefix merges into it, in the cell of
        # whichever of the two comes first
        index = {p: i for i, p in enumerate(prefixes)}
        for j in ends:
            i = index.get(prefixes[j][:-1])
            cell = prefixes[j][-1] + 1
            if i is None or not live[i, cell]:
                continue
            merged = np.logaddexp(nb[j, 0], nb[i, cell])
            if i < j:
                b[i, cell], nb[i, cell] = b[j, 0], merged
                live[j, 0] = False
            else:
                nb[j, 0] = merged
                live[i, cell] = False

        cand = np.flatnonzero(live)
        score = np.logaddexp(b, nb).ravel()[cand]
        if width is not None and cand.size > width:
            # the width best; of those tied with the worst kept, the earliest cells
            cut = np.partition(score, cand.size - width)[cand.size - width]
            above = np.flatnonzero(score > cut)
            keep = np.concatenate([above, np.flatnonzero(score == cut)[:width - above.size]])
            cand = cand[keep[np.argsort(-score[keep], kind="stable")]]

        rows, cols = np.divmod(cand, L)
        prefixes = [prefixes[i] + (c - 1,) if c else prefixes[i]
                    for i, c in zip(rows.tolist(), cols.tolist())]
        pb = b.ravel()[cand]
        pnb = nb.ravel()[cand]

    final = np.logaddexp(pb, pnb)
    order = np.argsort(-final, kind="stable")
    return [(prefixes[k], float(final[k])) for k in order]
