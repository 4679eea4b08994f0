"""Connectionist temporal classification.

Forward/backward dynamic program over the blank-extended label, with per-step
normalization of both variable sets (scaled arithmetic, not log space); loss
and analytic gradient through an internal softmax; greedy and prefix beam
decoding.  The blank is always the LAST label index.
"""

import math
from dataclasses import dataclass

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


def ctc_forward(y, labels):
    """Fill the scaled alpha/beta trellis for label sequence `labels`.

    y is a T x L row-stochastic matrix whose last column is the blank.
    Infeasible (or zero-probability) labellings come back with
    log_prob = -inf rather than raising.

    beta is the alpha recursion run on the time- and label-reversed
    problem: reversing l' keeps its skip rule and its two start states, and
    maps every frame's window onto the mirrored frame's window.
    """
    y = np.asarray(y, dtype=np.float64)
    T, L = y.shape
    _check_rows_stochastic(y)
    blank = L - 1
    labels = tuple(int(s) for s in labels)
    if any(s < 0 or s >= blank for s in labels):
        raise ValueError(f"label out of range for {L}-label alphabet: {labels}")
    lp = extend_label(labels, blank)
    S = lp.size

    empty = CtcTrellis(
        alpha=np.zeros((T, S)), beta=np.zeros((T, S)),
        log_alpha_scale=np.full(T, NEG_INF), log_beta_scale=np.full(T, NEG_INF),
        log_prob=NEG_INF, l_prime=lp, y=y,
    )
    if T < min_frames(labels):
        return empty

    emit = y[:, lp]
    # skip[s - 2] = 1 where s-2 -> s is legal: l'_s is a non-blank differing
    # from l'_{s-2}
    skip = ((lp[2:] != blank) & (lp[2:] != lp[:-2])).astype(np.float64)
    forward = _scaled_pass(emit, skip)
    backward = _scaled_pass(emit[::-1, ::-1], skip[::-1])
    if forward is None or backward is None:
        return empty
    alpha, log_c = forward
    beta, log_d = backward[0][::-1, ::-1], backward[1][::-1]
    return CtcTrellis(
        alpha=alpha, beta=beta,
        log_alpha_scale=log_c, log_beta_scale=log_d,
        log_prob=float(log_c.sum()), l_prime=lp, y=y,
    )


def _scaled_pass(emit, skip):
    """The scaled alpha recursion over T x S emissions.

    Returns the rows, each normalised to sum to 1, and ln C_t of every row;
    None when a row sums to zero.
    """
    T, S = emit.shape
    rows = np.zeros((T, S))
    log_scale = np.zeros(T)
    # a virtual row before t = 0 whose successors are the two start states
    prev = np.zeros(S)
    prev[0] = 1.0
    for t in range(T):
        acc = prev.copy()
        acc[1:] += prev[:-1]
        acc[2:] += prev[:-2] * skip
        # states outside [lo, hi) either cannot be reached from the start or
        # cannot reach an accepting end state; excluding them makes the row
        # sums (and hence sum_t ln C_t) equal the exact path probability
        lo, hi = max(0, S - 2 * (T - t)), min(S, 2 * (t + 1))
        row = rows[t]
        row[lo:hi] = acc[lo:hi] * emit[t, lo:hi]
        total = row.sum()
        if total == 0.0:
            return None
        row /= total
        log_scale[t] = math.log(total)
        prev = row
    return rows, log_scale


def softmax(u):
    u = np.asarray(u, dtype=np.float64)
    shifted = u - u.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def ctc_loss_and_grad(u, labels):
    """Negative log likelihood and its gradient w.r.t. pre-activations u.

    The softmax lives inside: u is the network's linear T x L output.
    """
    u = np.asarray(u, dtype=np.float64)
    if not np.all(np.isfinite(u)):
        raise ValueError("non-finite pre-activations passed to CTC")
    y = softmax(u)
    trellis = ctc_forward(y, labels)
    if trellis.log_prob == NEG_INF:
        if u.shape[0] < min_frames(labels):
            raise InfeasibleLabel(
                f"infeasible label length {len(tuple(labels))} for {u.shape[0]} frames"
            )
        raise ArithmeticError("CTC path probability underflowed to zero (saturated softmax?)")
    lp = trellis.l_prime
    cum_c = np.cumsum(trellis.log_alpha_scale)
    cum_d = np.cumsum(trellis.log_beta_scale[::-1])[::-1]
    # an overflowing factor raises FloatingPointError, an ArithmeticError,
    # rather than filling gamma with inf * 0 = nan
    with np.errstate(over="raise"):
        k = np.exp(cum_c + cum_d - trellis.log_prob)
    w = trellis.alpha * trellis.beta * k[:, None]
    t, s = np.nonzero(w)
    gamma = np.zeros_like(y)
    np.add.at(gamma, (t, lp[s]), w[t, s] / y[t, lp[s]])
    return -trellis.log_prob, y - gamma


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
