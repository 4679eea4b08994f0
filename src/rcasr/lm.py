"""Bidirectional statistical n-gram phoneme language model.

Forward tables count left-to-right transitions with (N-1) start markers;
backward tables are built by running the identical procedure on reversed
sentences.  Conditional probabilities use additive-k smoothing over the
event space vocab + end marker, orders 2-4 are mixed with fixed
interpolation weights, and a sequence score blends the forward and backward
interpolated log scores with weight mu.

The counts are held as sorted integer-coded arrays (the layout of KenLM's
sorted tables, Heafield, WMT 2011).  A symbol's id is its vocab index, then
<s>, </s> and <unk>, so the base is B = |vocab| + 3.  A sequence of m ids
has the key off(m) + (its ids read as a base-B number), with
off(m) = B + B^2 + ... + B^(m-1), so sequences of different lengths never
share a key.  Each direction holds two tables: the key of every n-gram of
orders 2-4 beside its count, and the key of every context (1-3 symbols)
beside its total, the sum of that context's counts.  Each is a sorted int64
array ending in a sentinel key no sequence has, searched with searchsorted.
"""

import logging
import math
from array import array
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

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

_SENTINEL = np.iinfo(np.int64).max   # ends every table; no key reaches it


def _table(keys, values):
    """A sorted key array and its values, each with the sentinel appended."""
    return np.append(keys, _SENTINEL), np.append(values, 0)


def _lookup(table, queries):
    """The value held under each query key, 0 where the table lacks it."""
    keys, values = table
    at = np.searchsorted(keys, queries)
    return np.where(keys[at] == queries, values[at], 0)


@dataclass(eq=False)
class NgramModel:
    vocab: tuple
    smoothing_k: float = DEFAULT_K
    interp_weights: dict = field(default_factory=lambda: dict(DEFAULT_WEIGHTS))
    mu: float = DEFAULT_MU

    def __post_init__(self):
        # written so that nan fails every test
        w = self.interp_weights
        if not (all(w[n] >= 0 for n in ORDERS) and abs(sum(w[n] for n in ORDERS) - 1.0) <= 1e-12):
            raise ValueError(f"interpolation weights must be >= 0 and sum to 1: {w}")
        if not 0.0 < self.smoothing_k < math.inf:
            raise ValueError(f"smoothing k must be positive and finite, got {self.smoothing_k}")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mu must lie in [0, 1], got {self.mu}")
        names = tuple(self.vocab) + (BOS, EOS, UNK)
        base = len(names)
        # _offsets[m] = off(m), the first key of a sequence of m ids (m = 1..5)
        self._offsets = (0,) + tuple(accumulate((base ** m for m in range(1, max(ORDERS) + 1)),
                                                initial=0))
        if self._offsets[-1] > _SENTINEL:
            raise ValueError(f"a vocab of {len(self.vocab)} symbols is too large: its "
                             f"{max(ORDERS)}-gram keys do not fit in int64")
        self._base = base
        # a name's id is its first position, so a marker the vocab also
        # lists is one symbol, as in the text format
        self._ids = {}
        for i, s in enumerate(names):
            self._ids.setdefault(s, i)
        self._names = names
        self._known = {s: self._ids[s] for s in self.vocab}
        self._event_ids = sorted(set(self._known.values()) | {self._ids[EOS]})
        self._bos, self._eos, self._unk = (self._ids[s] for s in (BOS, EOS, UNK))
        self._start = self._bos * (base ** HISTORY - 1) // (base - 1)   # HISTORY start markers
        empty = _table(np.zeros(0, np.int64), np.zeros(0, np.int64))
        self._tables = {d: (empty, empty) for d in "FB"}   # dir -> (n-grams, contexts)

    # event space: every distinct vocab symbol plus the end-of-sentence
    # marker, which a vocab that lists it does not add twice
    @property
    def event_count(self):
        return len(self._event_ids)

    def _set_counts(self, direction, keys, counts):
        """Hold one direction's n-gram counts: int64 keys, unique, in any
        order, each of 2-4 ids.  Every context's total is summed here."""
        order = np.argsort(keys, kind="stable")
        keys, counts = keys[order], counts[order]
        off, base = self._offsets, self._base
        # an n-gram's context is its ids but the last
        bounds = np.searchsorted(keys, off[min(ORDERS):])
        ctx = np.concatenate([(keys[lo:hi] - off[n]) // base + off[n - 1]
                              for n, lo, hi in zip(ORDERS, bounds, bounds[1:])])
        first = np.flatnonzero(np.diff(ctx, prepend=-1))
        totals = np.add.reduceat(counts, first) if len(first) else counts
        self._tables[direction] = (_table(keys, counts), _table(ctx[first], totals))

    def _ids_of(self, codes, length):
        """The ids, first to last, of sequences of `length` ids from their
        codes (an int or an array)."""
        return [codes // self._base ** j % self._base for j in reversed(range(length))]

    def table(self, order, direction):
        """One order and direction's counts as {context: {symbol: count}}."""
        (keys, counts), _ = self._tables[direction]
        lo, hi = np.searchsorted(keys, self._offsets[order:order + 2])
        digits = [d.tolist() for d in self._ids_of(keys[lo:hi] - self._offsets[order], order)]
        names = self._names
        out = {}
        for *ids, c in zip(*digits, counts[lo:hi].tolist()):
            out.setdefault(tuple(names[i] for i in ids[:-1]), {})[names[ids[-1]]] = c
        return out

    def _windows(self, seq):
        """The window of each conditional one direction's score of seq reads
        (its symbols, then the end marker): the ids of the last HISTORY
        mapped symbols before it, start markers first, and its own id, read
        in base B."""
        known, eos, unk, base = self._known, self._eos, self._unk, self._base
        keep = base ** (HISTORY - 1)
        history = self._start
        out = []
        for s in seq:
            out.append(history * base + known.get(s, eos if s == EOS else unk))
            history = history % keep * base + known.get(s, unk)
        out.append(history * base + eos)
        return out

    def _probabilities(self, windows, direction):
        """Interpolated smoothed P(symbol | history) of each window: each
        order's (count + k) / (total + k * event_count), weighted and added
        in ORDERS order (the pinned scores of the tests hold it to that)."""
        grams, contexts = self._tables[direction]
        base, off, k = self._base, self._offsets, self.smoothing_k
        windows = np.asarray(windows, dtype=np.int64)
        # order n's n-gram is the window's last n ids, its context the n-1
        # ids before the symbol
        counts = _lookup(grams, np.stack([windows % base ** n + off[n] for n in ORDERS]))
        totals = _lookup(contexts, np.stack([windows // base % base ** (n - 1) + off[n - 1]
                                             for n in ORDERS]))
        p = 0.0
        for row, n in enumerate(ORDERS):
            p += self.interp_weights[n] * ((counts[row] + k) / (totals[row] + k * self.event_count))
        return p

    def conditional(self, symbol, context, direction="F"):
        """Interpolated smoothed P(symbol | context) for one direction.

        `context` is the preceding history (most recent last).  Only its last
        HISTORY symbols are read: each order slices its own last n-1 symbols
        after start-marker padding, and no order is longer than HISTORY + 1.
        """
        known, unk, base = self._known, self._unk, self._base
        history = self._start
        for s in tuple(context)[-HISTORY:]:
            i = known.get(s, self._bos if s == BOS else unk)
            history = history % base ** (HISTORY - 1) * base + i
        window = history * base + known.get(symbol, self._eos if symbol == EOS else unk)
        return float(self._probabilities([window], direction)[0])


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
    base, off = model._base, model._offsets
    for d in "FB":
        # a window's last n ids are its order-n n-gram
        windows = np.array([w for sent in corpus if sent
                            for w in model._windows(sent if d == "F" else sent[::-1])], dtype=np.int64)
        keys, counts = np.unique(np.concatenate([windows % base ** n + off[n] for n in ORDERS]),
                                 return_counts=True)
        model._set_counts(d, keys, counts)
    return model


def _directional_scores(model, seqs, direction):
    """Each sequence's log score in one direction, the plain sequential sum
    of its log conditionals.  The conditional of each distinct window is
    computed once, in one batch: an n-best list repeats most of its
    windows."""
    windows = [model._windows(seq) for seq in seqs]
    distinct = list(set().union(*windows))
    logp = dict(zip(distinct, map(math.log, model._probabilities(distinct, direction).tolist())))
    scores = []
    for seq_windows in windows:
        total = 0.0
        for w in seq_windows:
            total += logp[w]
        scores.append(total)
    return scores


def _warn_oov(model, seqs, caller):
    """One warning for all the out-of-vocabulary symbols of seqs."""
    n = sum(s not in model._known for seq in seqs for s in seq)
    if n:
        log.warning("%s: mapping %d out-of-vocabulary symbols to %s", caller, n, UNK)


def _scores(model, seqs):
    seqs = [tuple(seq) for seq in seqs]
    fwd = _directional_scores(model, seqs, "F")
    bwd = _directional_scores(model, [seq[::-1] for seq in seqs], "B")
    return [model.mu * f + (1.0 - model.mu) * b for f, b in zip(fwd, bwd)]


def score(model, seq):
    """Bidirectional log score: mu * forward + (1 - mu) * backward."""
    _warn_oov(model, [seq], "score")
    return _scores(model, [seq])[0]


def rectify(model, hypotheses, lam):
    """Pick the hypothesis maximizing ctc_log_score + lam * lm score.

    `hypotheses` is a ranked list of (label_sequence, ctc_log_score); ties
    go to the higher CTC score.  Returns (best_sequence, best_combined).
    """
    if not hypotheses:
        raise ValueError("rectify: empty hypothesis list")
    seqs = [tuple(seq) for seq, _ in hypotheses]
    _warn_oov(model, seqs, "rectify")
    best = None
    for seq, (_, ctc_score), lm_score in zip(seqs, hypotheses, _scores(model, seqs)):
        combined = ctc_score + lam * lm_score
        key = (combined, ctc_score)
        if best is None or key > best[0]:
            best = (key, seq)
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
        # a line starts with its order and direction, so sorting the lines
        # of each order and direction in turn sorts them all
        for n in ORDERS:
            for d in sorted("FB"):
                lines = sorted(f"{n} {d} {' '.join(ctx)} {sym} {c}"
                               for ctx, syms in model.table(n, d).items() for sym, c in syms.items())
                fh.writelines(line + "\n" for line in lines)


def _first_fault(model, found):
    """The LineError of the first count line that repeats an earlier line's
    n-gram or counts a symbol outside the event space (<s> or <unk> after
    its context), or None.  `found` maps a direction to its keys and their
    line numbers, in file order."""
    faults = []   # (line, direction, key, repeat)
    for d, (keys, _, lines) in found.items():
        keys = np.frombuffer(keys, dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        # of equal keys the stable sort puts the earlier line first
        later = order[1:][keys[order[1:]] == keys[order[:-1]]]
        if len(later):
            faults.append((lines[later.min()], d, int(keys[later.min()]), True))
        # every off(n) is a multiple of B, so a key's last base-B digit is
        # its counted symbol's id
        outside = np.flatnonzero(~np.isin(keys % model._base, model._event_ids))
        if len(outside):
            faults.append((lines[outside[0]], d, int(keys[outside[0]]), False))
    if not faults:
        return None
    ln, d, key, repeat = min(faults)
    n = max(m for m in ORDERS if key >= model._offsets[m])
    *ctx, sym = (model._names[i] for i in model._ids_of(key - model._offsets[n], n))
    if repeat:
        return LineError(ln, f"repeats the order-{n} {d} count of {sym!r} after {' '.join(ctx)!r}")
    return LineError(ln, f"counts {sym!r} after {' '.join(ctx)!r}, which is neither a vocab "
                     f"symbol nor {EOS!r}")


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
        seen = set()
        for s in vocab[1:]:
            if s in seen:
                raise LineError(5, f"vocab repeats symbol {s!r}")
            seen.add(s)
        model = NgramModel(vocab=tuple(vocab[1:]), smoothing_k=k,
                           interp_weights=dict(zip(ORDERS, weights)), mu=mu)
        ids, base = model._ids, model._base
        # direction -> (n-gram keys, counts, line numbers), in file order
        found = {d: (array("q"), array("q"), array("q")) for d in "FB"}
        # (order, direction) as written -> (key offset, n-gram length, found)
        tables = {(str(n), d): (model._offsets[n], n, found[d]) for n in ORDERS for d in "FB"}
        try:
            for ln, line in enumerate(fh, start=6):
                parts = line.split()
                if not parts:
                    continue
                if len(parts) < 4:
                    raise LineError(ln, "malformed count line")
                n, d, gram, c = parts[0], parts[1], parts[2:-1], parts[-1]
                table = tables.get((n, d))
                if table is None:
                    raise LineError(ln, f"direction {d!r} is not F or B" if (n, "F") in tables
                                    else f"order {n!r} is not one of {ORDERS}")
                offset, width, (keys, counts, lines) = table
                if len(gram) != width:
                    raise LineError(ln, f"order {n} takes {width - 1} context symbols, "
                                    f"got {len(gram) - 1}")
                if not c.isdecimal():
                    raise LineError(ln, f"count {c!r} is not a non-negative integer")
                code = 0
                try:
                    for s in gram:
                        code = code * base + ids[s]
                    counts.append(int(c))
                except KeyError as exc:
                    raise LineError(ln, f"symbol {exc.args[0]!r} is not in the vocab") from None
                except OverflowError:
                    raise LineError(ln, f"count {c!r} is past 2**63 - 1") from None
                keys.append(offset + code)
                lines.append(ln)
        except LineError as exc:
            # a fault on an earlier line comes first
            raise _first_fault(model, found) or exc from None
        fault = _first_fault(model, found)
        if fault:
            raise fault
        for d, (keys, counts, _) in found.items():
            if sum(counts) > _SENTINEL:
                raise ValueError(f"the {d} counts sum past 2**63 - 1")
            model._set_counts(d, np.frombuffer(keys, dtype=np.int64).copy(),
                              np.frombuffer(counts, dtype=np.int64).copy())
    return model
