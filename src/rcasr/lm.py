"""Bidirectional statistical n-gram phoneme language model.

Forward tables count left-to-right transitions with (N-1) start markers;
backward tables are built by running the identical procedure on reversed
sentences.  Conditional probabilities use additive-k smoothing over the
event space vocab + end marker, orders 2-4 are mixed with fixed
interpolation weights, and a sequence score blends the forward and backward
interpolated log scores with weight mu.
"""

import logging
import math
from dataclasses import dataclass, field

from .textio import LineError, reading

log = logging.getLogger(__name__)

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

ORDERS = (2, 3, 4)
HISTORY = max(ORDERS) - 1   # the most preceding symbols any order reads
DEFAULT_WEIGHTS = {2: 0.4, 3: 0.35, 4: 0.25}
DEFAULT_K = 1.0
DEFAULT_MU = 0.5


@dataclass
class NgramModel:
    vocab: tuple
    smoothing_k: float = DEFAULT_K
    interp_weights: dict = field(default_factory=lambda: dict(DEFAULT_WEIGHTS))
    mu: float = DEFAULT_MU
    counts: dict = field(default_factory=dict)    # (order, dir) -> {ctx: {sym: n}}
    totals: dict = field(default_factory=dict)    # (order, dir) -> {ctx: n}

    def __post_init__(self):
        # written so that nan fails every test
        w = self.interp_weights
        if not (all(w[n] >= 0 for n in ORDERS) and abs(sum(w[n] for n in ORDERS) - 1.0) <= 1e-12):
            raise ValueError(f"interpolation weights must be >= 0 and sum to 1: {w}")
        if not 0.0 < self.smoothing_k < math.inf:
            raise ValueError(f"smoothing k must be positive and finite, got {self.smoothing_k}")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mu must lie in [0, 1], got {self.mu}")
        for key in [(n, d) for n in ORDERS for d in "FB"]:
            self.counts.setdefault(key, {})
            self.totals.setdefault(key, {})
        self._vocab_set = frozenset(self.vocab)

    # event space: every vocab symbol plus the end-of-sentence marker
    @property
    def event_count(self):
        return len(self.vocab) + 1

    def conditional(self, symbol, context, direction="F"):
        """Interpolated smoothed P(symbol | context) for one direction.

        `context` is the preceding history (most recent last).  Only its last
        HISTORY symbols are read: each order slices its own last n-1 symbols
        after start-marker padding, and no order is longer than HISTORY + 1.
        """
        vocab = self._vocab_set
        symbol = symbol if symbol in vocab or symbol == EOS else UNK
        context = tuple(s if s in vocab or s == BOS else UNK for s in tuple(context)[-HISTORY:])
        p = 0.0
        for n in ORDERS:
            padded = (BOS,) * (n - 1) + context
            ctx = padded[len(padded) - (n - 1):]
            row = self.counts[(n, direction)].get(ctx, {})
            denom = self.totals[(n, direction)].get(ctx, 0) + self.smoothing_k * self.event_count
            p += self.interp_weights[n] * ((row.get(symbol, 0) + self.smoothing_k) / denom)
        return p


def _count_sentence(model, sentence, direction):
    for n in ORDERS:
        padded = (BOS,) * (n - 1) + tuple(sentence) + (EOS,)
        counts = model.counts[(n, direction)]
        totals = model.totals[(n, direction)]
        for i in range(len(sentence) + 1):
            ctx = padded[i:i + n - 1]
            sym = padded[i + n - 1]
            counts.setdefault(ctx, {})
            counts[ctx][sym] = counts[ctx].get(sym, 0) + 1
            totals[ctx] = totals.get(ctx, 0) + 1


def train_lm(corpus, smoothing_k=DEFAULT_K, mu=DEFAULT_MU):
    """Count forward and backward tables of orders 2-4 over label sequences."""
    corpus = [tuple(s) for s in corpus]
    if not corpus:
        raise ValueError("train_lm: empty corpus")
    vocab = tuple(sorted({sym for sent in corpus for sym in sent}))
    model = NgramModel(vocab=vocab, smoothing_k=smoothing_k, mu=mu)
    for sent in corpus:
        if not sent:
            log.warning("train_lm: skipping empty sentence")
            continue
        _count_sentence(model, sent, "F")
        _count_sentence(model, tuple(reversed(sent)), "B")
    return model


def _directional_score(model, seq, direction, memo):
    """One direction's log score, the plain sequential sum of the log
    conditionals.  `memo` maps (direction, history, symbol) to a log
    conditional already computed; rectify shares one across its hypotheses,
    because an n-best list repeats most of its windows."""
    total = 0.0
    history = ()
    for sym in tuple(seq) + (EOS,):
        key = (direction, history, sym)
        logp = memo.get(key)
        if logp is None:
            logp = memo[key] = math.log(model.conditional(sym, history, direction))
        total += logp
        history = (history + (sym if sym in model._vocab_set else UNK,))[-HISTORY:]
    return total


def _warn_oov(model, seqs, caller):
    """One warning for all the out-of-vocabulary symbols of seqs."""
    n = sum(s not in model._vocab_set for seq in seqs for s in seq)
    if n:
        log.warning("%s: mapping %d out-of-vocabulary symbols to %s", caller, n, UNK)


def _score(model, seq, memo):
    seq = tuple(seq)
    fwd = _directional_score(model, seq, "F", memo)
    bwd = _directional_score(model, tuple(reversed(seq)), "B", memo)
    return model.mu * fwd + (1.0 - model.mu) * bwd


def score(model, seq):
    """Bidirectional log score: mu * forward + (1 - mu) * backward."""
    _warn_oov(model, [seq], "score")
    return _score(model, seq, {})


def rectify(model, hypotheses, lam):
    """Pick the hypothesis maximizing ctc_log_score + lam * lm score.

    `hypotheses` is a ranked list of (label_sequence, ctc_log_score); ties
    go to the higher CTC score.  Returns (best_sequence, best_combined).
    """
    if not hypotheses:
        raise ValueError("rectify: empty hypothesis list")
    _warn_oov(model, [seq for seq, _ in hypotheses], "rectify")
    memo = {}
    best = None
    for seq, ctc_score in hypotheses:
        combined = ctc_score + lam * _score(model, seq, memo)
        key = (combined, ctc_score)
        if best is None or key > best[0]:
            best = (key, tuple(seq))
    return best[1], best[0][0]


# -- plain-text model format ---------------------------------------------------

def save_lm(path, model):
    """Sorted `N DIR context... symbol count` lines under a small header."""
    with open(path, "w") as fh:
        fh.write("NGRAM-LM v1\n")
        fh.write(f"k {model.smoothing_k:.17g}\n")
        fh.write("weights " + " ".join(f"{model.interp_weights[n]:.17g}" for n in ORDERS) + "\n")
        fh.write(f"mu {model.mu:.17g}\n")
        fh.write("vocab " + " ".join(model.vocab) + "\n")
        lines = []
        for (n, d), table in model.counts.items():
            for ctx, syms in table.items():
                for sym, c in syms.items():
                    lines.append(f"{n} {d} {' '.join(ctx)} {sym} {c}")
        for line in sorted(lines):
            fh.write(line + "\n")


def load_lm(path):
    """Read a save_lm file; a malformed line is a ValueError naming the path
    and line."""
    with reading(path) as fh:
        if fh.readline().strip() != "NGRAM-LM v1":
            raise ValueError("not an n-gram model file")
        head = []
        for ln, (key, count) in enumerate((("k", 1), ("weights", len(ORDERS)), ("mu", 1)), start=2):
            parts = fh.readline().split()
            if parts[:1] != [key] or len(parts) != count + 1:
                raise LineError(ln, f"expected `{key}` and {count} number(s)")
            try:
                head.append([float(v) for v in parts[1:]])
            except ValueError as exc:
                raise LineError(ln, exc) from None
        (k,), weights, (mu,) = head
        vocab = fh.readline().split()
        if vocab[:1] != ["vocab"]:
            raise LineError(5, "expected `vocab` and the symbols")
        model = NgramModel(vocab=tuple(vocab[1:]), smoothing_k=k,
                           interp_weights=dict(zip(ORDERS, weights)), mu=mu)
        # (order, direction) as written -> (counts, totals, context length)
        tables = {(str(n), d): (model.counts[(n, d)], model.totals[(n, d)], n - 1)
                  for n in ORDERS for d in "FB"}
        for ln, line in enumerate(fh, start=6):
            parts = line.split()
            if not parts:
                continue
            if len(parts) < 4:
                raise LineError(ln, "malformed count line")
            n, d, ctx, sym, c = parts[0], parts[1], tuple(parts[2:-2]), parts[-2], parts[-1]
            table = tables.get((n, d))
            if table is None:
                raise LineError(ln, f"direction {d!r} is not F or B" if (n, "F") in tables
                                else f"order {n!r} is not one of {ORDERS}")
            counts, totals, width = table
            if len(ctx) != width:
                raise LineError(ln, f"order {n} takes {width} context symbols, got {len(ctx)}")
            if not c.isdecimal():
                raise LineError(ln, f"count {c!r} is not a non-negative integer")
            row = counts.setdefault(ctx, {})
            if sym in row:
                raise LineError(ln, f"repeats the order-{n} {d} count of {sym!r} "
                                f"after {' '.join(ctx)!r}")
            row[sym] = c = int(c)
            totals[ctx] = totals.get(ctx, 0) + c
    return model
