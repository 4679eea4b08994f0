"""Connectionist temporal classification.

Forward/backward dynamic program over the blank-extended label, with per-step
normalization of both variable sets (scaled arithmetic, not log space); loss
and analytic gradient through an internal softmax; greedy and prefix beam
decoding.  The blank is always the LAST label index.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .lm import HISTORY

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
    """Scaled forward/backward variables over the extended label.

    alpha[t] and beta[t] each sum to 1; log_alpha_scale[t] holds ln C_t so
    that the unscaled alpha_t(s) = alpha[t,s] * exp(sum_{t'<=t} ln C_t'),
    and log_prob = sum_t ln C_t.
    """

    alpha: np.ndarray
    beta: np.ndarray
    log_alpha_scale: np.ndarray
    log_beta_scale: np.ndarray
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
    """Fill the scaled alpha/beta trellis for label sequence `labels`.

    y is a T x L row-stochastic matrix whose last column is the blank.
    Infeasible (or zero-probability) labellings come back with
    log_prob = -inf rather than raising.
    """
    y = np.asarray(y, dtype=np.float64)
    T, L = y.shape
    _check_rows_stochastic(y)
    labels = tuple(int(s) for s in labels)
    _check_labels(labels, L)
    if T >= min_frames(labels):
        tr = _trellises(y, [labels], [T])
        if not tr.dead[0]:
            return CtcTrellis(
                alpha=tr.alpha[:, 0], beta=tr.beta[:, 0],
                log_alpha_scale=tr.log_c[:, 0], log_beta_scale=tr.log_d[:, 0],
                log_prob=float(tr.log_prob[0]), l_prime=tr.lp[0], y=y,
            )
    S = 2 * len(labels) + 1
    return CtcTrellis(
        alpha=np.zeros((T, S)), beta=np.zeros((T, S)),
        log_alpha_scale=np.full(T, NEG_INF), log_beta_scale=np.full(T, NEG_INF),
        log_prob=NEG_INF, l_prime=extend_label(labels, L - 1), y=y,
    )


def _skips(lp, blank):
    """skip[k, s - 2] = 1 where s-2 -> s is legal in row k of l': l'_s is a
    non-blank differing from l'_{s-2}."""
    return ((lp[:, 2:] != blank) & (lp[:, 2:] != lp[:, :-2])).astype(np.float64)


def _trellises(y, labels, lengths):
    """The scaled alpha and beta trellises of every utterance of a chunk.

    y (N x L) stacks the utterances' frames, lengths[i] of them for label
    sequence labels[i].  Arrays are time x utterance x state, utterances
    longest first (column k is utterance order[k]), zero outside each one's
    frames, states and window.  `dead` marks the utterances with a row that
    sums to zero; their numbers are meaningless.

    beta is the alpha recursion run on each utterance's time- and
    label-reversed problem: reversing l' keeps its skip rule and its two
    start states, and maps every frame's window onto the mirrored frame's
    window.
    """
    blank = y.shape[1] - 1
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
    # states outside [S - 2(T - t), 2(t + 1)) either cannot be reached from
    # the start or cannot reach an accepting end state; excluding them makes
    # the row sums (and hence sum_t ln C_t) equal the exact path probability
    window = live & (s >= (S - 2 * (T - t))[:, :, None]) & (s < 2 * (t + 1))[:, None]
    frame = np.minimum((np.cumsum(lengths) - lengths)[order] + t, max(len(y) - 1, 0))
    emit = np.where(window, y[frame[:, :, None], lp], 0.0)

    # the mirror image (t, k, s) <-> (T_k - 1 - t, k, S_k - 1 - s)
    t_rev = np.maximum(T - 1 - t, 0)
    s_rev = np.maximum(S[:, None] - 1 - s, 0)
    k = np.arange(n)[:, None]

    def mirror(a):
        return np.where(live, a[t_rev[:, :, None], k, s_rev], 0.0)

    lp_rev = np.where(s < S[:, None], lp[k, s_rev], blank)
    sizes = frames.sum(axis=1).tolist()
    with np.errstate(invalid="ignore", divide="ignore"):
        alpha, c = _scaled_pass(emit, _skips(lp, blank), sizes)
        beta_rev, d_rev = _scaled_pass(mirror(emit), _skips(lp_rev, blank), sizes)
    dead = (c == 0.0).any(axis=0) | (d_rev == 0.0).any(axis=0)
    c[:, dead] = d_rev[:, dead] = 1.0
    log_c, log_d_rev = _log(c), _log(d_rev)
    return SimpleNamespace(
        alpha=alpha, beta=mirror(beta_rev), log_c=log_c,
        log_d=np.where(frames, log_d_rev[t_rev, k.T], 0.0),
        log_prob=np.ascontiguousarray(log_c.T).sum(axis=1),
        lp=lp, frame=frame, order=order, dead=dead,
    )


def _log(a):
    """math.log of every entry (np.log can differ from it in the last bit)."""
    return np.array([math.log(v) for v in a.ravel().tolist()]).reshape(a.shape)


def _scaled_pass(emit, skip, sizes):
    """The scaled alpha recursion over time x utterance x state emissions,
    zero outside each utterance's window; the first sizes[t] utterances run
    at time t.

    Returns the rows, each normalised to sum to 1, and each row's sum C_t
    (1 where an utterance has ended).  A row that sums to zero turns its
    utterance's later rows into nan.
    """
    T, n, S = emit.shape
    rows = np.zeros((T, n, S))
    sums = np.ones((T, n))
    # a virtual row before t = 0 whose successors are the two start states
    prev = np.zeros((n, S))
    prev[:, 0] = 1.0
    for t, m in enumerate(sizes):
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
    y = softmax(u)
    for i, (lab, t) in enumerate(zip(labels, lengths)):
        try:
            _check_labels(lab, y.shape[1])
            if t < min_frames(lab):
                raise InfeasibleLabel(f"infeasible label length {len(lab)} for {t} frames")
        except ValueError as exc:
            raise _utterance_error(exc, i) from None
    tr = _trellises(y, labels, lengths)
    if tr.dead.any():
        raise _utterance_error(
            ArithmeticError("CTC path probability underflowed to zero (saturated softmax?)"),
            int(tr.order[tr.dead].min()))
    cum_c = np.cumsum(tr.log_c, axis=0)
    cum_d = np.cumsum(tr.log_d[::-1], axis=0)[::-1]
    with np.errstate(over="ignore"):
        k = np.exp(cum_c + cum_d - tr.log_prob)
    over = ~np.isfinite(k).all(axis=0)
    if over.any():
        raise _utterance_error(FloatingPointError("overflow in the CTC posterior scale"),
                               int(tr.order[over].min()))
    w = tr.alpha * tr.beta * k[:, :, None]
    t, kk, s = np.nonzero(w)
    rows, cols = tr.frame[t, kk], tr.lp[kk, s]
    gamma = np.bincount(rows * y.shape[1] + cols, w[t, kk, s] / y[rows, cols],
                        minlength=y.size).reshape(y.shape)
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


def beam_decode(y, width=16, lm=None, lam=0.3, alphabet=None):
    """Prefix beam search; returns hypotheses as (label_ids, ctc_log_prob).

    Each live prefix keeps separate blank/non-blank log masses.  With an
    n-gram model attached, every label extension also adds
    lam * forward LM log probability to the pruning score (the reported
    score stays the pure CTC log probability).  width=None disables pruning,
    which makes the top hypothesis the exact most probable labelling.

    Each frame is one (W, L) candidate matrix over the W live prefixes:
    column 0 is the prefix itself, column c + 1 the prefix extended by label
    c.  When more than `width` candidates are live, the best survive, ranked
    by score with ties to the earlier cell in row-major order; a live prefix
    that extends an earlier live prefix takes that extension's cell.  Memory
    is O(W * (L + T)).
    """
    if width is not None and width < 1:
        raise ValueError(f"beam width must be >= 1, got {width}")
    if lm is not None and alphabet is None:
        raise ValueError("beam_decode needs an alphabet to query the language model")
    y = np.asarray(y, dtype=np.float64)
    T, L = y.shape
    blank = L - 1
    with np.errstate(divide="ignore"):
        ly = np.log(y)

    prefixes = [()]
    pb = np.array([0.0])      # log mass of paths ending in blank
    pnb = np.array([NEG_INF])  # log mass of paths ending in the last label
    # live prefix -> its LM bonus followed by the bonuses of its L-1 extensions
    lm_rows = {(): _lm_row(lm, lam, alphabet, (), 0.0, blank)} if lm is not None else None

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
        score = np.logaddexp(b, nb)
        if lm is not None:
            score += np.array([lm_rows[p] for p in prefixes])
        score = score.ravel()[cand]
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
        if lm is not None:
            lm_rows = {
                p: lm_rows[p] if p in lm_rows
                else _lm_row(lm, lam, alphabet, p, lm_rows[p[:-1]][p[-1] + 1], blank)
                for p in prefixes
            }

    final = np.logaddexp(pb, pnb)
    fused = final + np.array([lm_rows[p][0] for p in prefixes]) if lm is not None else final
    order = np.argsort(-fused, kind="stable")
    return [(prefixes[k], float(final[k])) for k in order]


def _lm_row(lm, lam, alphabet, prefix, bonus, blank):
    """[bonus, bonus + lam * log P(c | prefix) for each label c < blank]."""
    context = alphabet.decode(prefix[-HISTORY:])    # all the model reads
    logp = np.array(lm.forward_logprobs(alphabet.non_blank[:blank], context))
    return np.concatenate([[bonus], bonus + lam * logp])


def format_hypotheses(utt_id, hyps, alphabet):
    """One text line per hypothesis: `utt_id score ph1 ph2 ...`."""
    lines = []
    for ids, score in hyps:
        symbols = " ".join(alphabet.decode(ids))
        lines.append(f"{utt_id} {score:.6f} {symbols}".rstrip())
    return lines
