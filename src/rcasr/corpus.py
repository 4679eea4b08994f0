"""Dataset handling: ingestion, partitioning, and a synthetic corpus generator.

Real data follows the layout ``root/wav/<id>.wav`` + ``root/phn/<id>.txt``
(one whitespace-separated phoneme transcript per utterance).  Synthetic
corpora use the same pairing with plain-text feature dumps under
``root/feat/`` instead of audio, plus an ``alphabet.txt`` listing the label
set.  Utterances whose frame count cannot emit their transcript under CTC
are loaded but flagged infeasible; training skips them with a warning.
"""

import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from . import features as feats
from .ctc import Alphabet, min_frames, synthetic_alphabet, timit_alphabet
from .textio import LineError, reading
from .trainer import TrainConfig, train

log = logging.getLogger(__name__)

DEFAULT_SPLIT = (5000, 1000, 300)      # train / val / test at full corpus scale

# the small fixed-seed baseline select_partition trains on each candidate
SELECTION_BASELINE = TrainConfig(network="baseline", lr=0.01, epochs=3, batch_size=8,
                                 seed=0, dropout=0.0)


@dataclass
class Utterance:
    id: str
    labels: tuple
    features: np.ndarray = None

    @property
    def n_frames(self):
        return 0 if self.features is None else self.features.shape[0]

    @property
    def ctc_feasible(self):
        return self.n_frames >= min_frames(self.labels)


@dataclass
class Corpus:
    utterances: dict
    alphabet: Alphabet

    def __len__(self):
        return len(self.utterances)

    def __getitem__(self, utt_id):
        return self.utterances[utt_id]

    def ids(self):
        return list(self.utterances)


@dataclass
class Partition:
    train: tuple
    val: tuple
    test: tuple

    def check_covers(self, ids, where="partition"):
        """self, if each corpus id is in exactly one set and no set lists
        another id; else a ValueError naming `where` (the partition
        directory) and one offending id."""
        sets = {}
        for name in ("train", "val", "test"):
            for utt_id in getattr(self, name):
                if utt_id in sets:
                    raise ValueError(
                        f"{where}: utterance {utt_id!r} is in {sets[utt_id]} and again in {name}")
                sets[utt_id] = name
        known = set(ids)
        for utt_id, name in sets.items():
            if utt_id not in known:
                raise ValueError(f"{where}: {name} lists {utt_id!r}, which the corpus lacks")
        for utt_id in ids:
            if utt_id not in sets:
                raise ValueError(f"{where}: corpus utterance {utt_id!r} is in no set")
        return self


def scaled_split_sizes(n):
    """Shrink the DEFAULT_SPLIT of 5000/1000/300 proportionally to n utterances."""
    total = sum(DEFAULT_SPLIT)
    test = max(1, round(n * DEFAULT_SPLIT[2] / total))
    val = max(1, round(n * DEFAULT_SPLIT[1] / total))
    train = n - val - test
    if train < 1:
        raise ValueError(f"corpus of {n} utterances is too small to split (need >= 3)")
    return train, val, test


def make_partitions(ids, n_partitions, rng, sizes=None):
    """Draw n_partitions random train/val/test splits of the utterance ids
    from rng."""
    n = len(ids)
    n_train, n_val, n_test = sizes if sizes is not None else scaled_split_sizes(n)
    if n_train + n_val + n_test != n:
        raise ValueError(
            f"split sizes {n_train}+{n_val}+{n_test} must cover all {n} utterances"
        )
    parts = []
    for _ in range(n_partitions):
        order = [ids[i] for i in rng.permutation(n)]
        part = Partition(
            train=tuple(order[:n_train]),
            val=tuple(order[n_train:n_train + n_val]),
            test=tuple(order[n_train + n_val:]),
        )
        parts.append(part.check_covers(ids))
    return parts


def select_partition(partitions, corpus):
    """Pick the partition whose baseline validation cost descends best.

    Trains SELECTION_BASELINE on each candidate and returns the one with the
    lowest final validation cost; ties break toward the smoothest descent
    (smallest maximum epoch-to-epoch cost increase), then toward the lowest
    index.
    """
    if not partitions:
        raise ValueError("select_partition: no partitions given")
    if len(partitions) == 1:
        return partitions[0]
    scored = []
    for idx, part in enumerate(partitions):
        try:
            _, curve = train(SELECTION_BASELINE, corpus, part)
        except ArithmeticError as exc:
            log.warning("select_partition: candidate %d diverged (%s)", idx, exc)
            continue
        costs = [row.val_cost for row in curve.rows]
        final = costs[-1]
        worst_rise = max((b - a for a, b in zip(costs, costs[1:])), default=0.0)
        scored.append((final, worst_rise, idx))
    if not scored:
        raise ArithmeticError("select_partition: baseline training diverged on every partition")
    scored.sort()
    return partitions[scored[0][2]]


# -- synthetic corpus -----------------------------------------------------------

@dataclass
class SyntheticSpec:
    """Generator settings: phonemes emit Gaussian frames around fixed means,
    sentences follow a ground-truth bigram over phonemes."""

    means: np.ndarray                  # n_phonemes x feature_dim
    transitions: np.ndarray            # row-stochastic n x n
    start_probs: np.ndarray
    sigma: float = 0.25
    duration_range: tuple = (3, 8)     # frames per phoneme, inclusive
    sentence_length_range: tuple = (3, 8)

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=np.float64)
        self.transitions = np.asarray(self.transitions, dtype=np.float64)
        self.start_probs = np.asarray(self.start_probs, dtype=np.float64)
        if not 0 <= self.sigma < math.inf:     # written so that nan fails
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        n = self.means.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                if np.array_equal(self.means[i], self.means[j]):
                    raise ValueError(f"phoneme means {i} and {j} coincide")
        if self.transitions.shape != (n, n) or not np.allclose(self.transitions.sum(axis=1), 1.0):
            raise ValueError("transition matrix must be row-stochastic n x n")

    @property
    def n_phonemes(self):
        return self.means.shape[0]

    @property
    def feature_dim(self):
        return self.means.shape[1]

    @classmethod
    def default(cls, n_phonemes=10, rng=None, sigma=0.25):
        if n_phonemes < 1:
            raise ValueError(f"n_phonemes must be >= 1, got {n_phonemes}")
        rng = rng if rng is not None else np.random.default_rng(0)
        means = rng.normal(0.0, 1.0, size=(n_phonemes, feats.N_FEATURES))
        transitions = rng.dirichlet(np.ones(n_phonemes) * 2.0, size=n_phonemes)
        start = rng.dirichlet(np.ones(n_phonemes) * 2.0)
        return cls(means=means, transitions=transitions, start_probs=start, sigma=sigma)


def generate_synthetic(spec, n_utterances, rng):
    """Draw a corpus of labelled feature matrices from the generator spec."""
    if n_utterances < 0:
        raise ValueError(f"n_utterances must be >= 0, got {n_utterances}")
    alphabet = synthetic_alphabet(spec.n_phonemes)
    lo_len, hi_len = spec.sentence_length_range
    lo_dur, hi_dur = spec.duration_range
    utterances = {}
    width = max(5, len(str(max(n_utterances - 1, 0))))
    for u in range(n_utterances):
        length = int(rng.integers(lo_len, hi_len + 1))
        phones = [int(rng.choice(spec.n_phonemes, p=spec.start_probs))]
        for _ in range(length - 1):
            phones.append(int(rng.choice(spec.n_phonemes, p=spec.transitions[phones[-1]])))
        frames = []
        for ph in phones:
            dur = int(rng.integers(lo_dur, hi_dur + 1))
            noise = rng.normal(0.0, 1.0, size=(dur, spec.feature_dim))
            frames.append(spec.means[ph] + spec.sigma * noise)
        utt_id = f"synth_{u:0{width}d}"
        utterances[utt_id] = Utterance(
            id=utt_id,
            labels=tuple(alphabet.non_blank[p] for p in phones),
            features=np.concatenate(frames),
        )
    return Corpus(utterances=utterances, alphabet=alphabet)


# -- on-disk layout --------------------------------------------------------------

def save_corpus(corpus, root):
    root = str(root)
    os.makedirs(os.path.join(root, "feat"), exist_ok=True)
    os.makedirs(os.path.join(root, "phn"), exist_ok=True)
    with open(os.path.join(root, "alphabet.txt"), "w") as fh:
        fh.write(" ".join(corpus.alphabet.non_blank) + "\n")
    for utt in corpus.utterances.values():
        feats.save_feature_dump(os.path.join(root, "feat", f"{utt.id}.txt"), utt.features)
        with open(os.path.join(root, "phn", f"{utt.id}.txt"), "w") as fh:
            fh.write(" ".join(utt.labels) + "\n")


def _scan(root):
    """The alphabet and the (utt_id, data path, kind, labels) entries of a
    corpus directory, reading its transcripts but no features: every feature
    or wav file needs a transcript, every transcript a file, and every label
    must be in the alphabet."""
    root = str(root)
    feat_dir = os.path.join(root, "feat")
    wav_dir = os.path.join(root, "wav")
    phn_dir = os.path.join(root, "phn")
    alpha_path = os.path.join(root, "alphabet.txt")
    if os.path.exists(alpha_path):
        with reading(alpha_path) as fh:
            alphabet = Alphabet(non_blank=tuple(fh.read().split()))
    else:
        alphabet = timit_alphabet()

    files = []
    if os.path.isdir(feat_dir):
        files = [(f[:-4], os.path.join(feat_dir, f), "feat")
                 for f in sorted(os.listdir(feat_dir)) if f.endswith(".txt")]
    elif os.path.isdir(wav_dir):
        files = [(f[:-4], os.path.join(wav_dir, f), "wav")
                 for f in sorted(os.listdir(wav_dir)) if f.endswith(".wav")]
    if not files:
        log.warning("load_corpus: no feature or wav files under %s", root)
        return alphabet, []

    entries = []
    symbols = set(alphabet.non_blank)
    for utt_id, path, kind in files:
        phn_path = os.path.join(phn_dir, f"{utt_id}.txt")
        if not os.path.exists(phn_path):
            raise FileNotFoundError(f"{path}: missing transcript {phn_path}")
        with reading(phn_path) as fh:
            labels = tuple(fh.read().split())
            if not labels:
                raise ValueError(f"utterance '{utt_id}' has an empty transcript")
            for sym in labels:
                if sym not in symbols:
                    raise ValueError(f"utterance '{utt_id}': symbol {sym!r} not in alphabet")
        entries.append((utt_id, path, kind, labels))
    known = {utt_id for utt_id, _, _ in files}
    for f in sorted(os.listdir(phn_dir)) if os.path.isdir(phn_dir) else []:
        if f.endswith(".txt") and f[:-4] not in known:
            raise FileNotFoundError(f"{os.path.join(phn_dir, f)}: transcript '{f[:-4]}' "
                                    "has no feature or wav file")
    return alphabet, entries


def load_corpus(root, ids=None):
    """Load a corpus directory; wav audio is run through the MFCC front end.

    The alphabet is ``root/alphabet.txt``, else the built-in 61-phone set.
    Transcript symbols outside the alphabet are a hard error.  `ids` keeps
    only those utterances, so only they are read or run through the front
    end; every transcript is still checked.
    """
    alphabet, entries = _scan(root)
    if ids is not None:
        wanted = set(ids)
        missing = wanted - {utt_id for utt_id, _, _, _ in entries}
        if missing:
            raise ValueError(f"{root}: no utterance {min(missing)!r}")
        entries = [e for e in entries if e[0] in wanted]
    utterances = {}
    for utt_id, path, kind, labels in entries:
        if kind == "feat":
            mat = feats.load_feature_dump(path)
        else:
            samples = feats.read_wav(path)
            try:
                mat = feats.extract(samples)
            except ValueError as exc:     # a clip shorter than one frame
                raise ValueError(f"{path}: {exc}") from None
        utterances[utt_id] = Utterance(id=utt_id, labels=labels, features=mat)

    corpus = Corpus(utterances=utterances, alphabet=alphabet)
    infeasible = [u.id for u in utterances.values() if not u.ctc_feasible]
    if infeasible:
        log.warning("load_corpus: %d utterances too short for their labels: %s",
                    len(infeasible), ", ".join(infeasible[:5]))
    return corpus


def load_transcripts(root):
    """utt_id -> labels of a corpus directory, with load_corpus's checks of
    the file pairing and the labels but no feature or audio read."""
    return {utt_id: labels for utt_id, _, _, labels in _scan(root)[1]}


def save_partition(partition, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    for name in ("train", "val", "test"):
        with open(os.path.join(out_dir, f"{name}.txt"), "w") as fh:
            for utt_id in getattr(partition, name):
                fh.write(utt_id + "\n")


def load_partition(part_dir):
    return Partition(**{name: tuple(read_ids(os.path.join(part_dir, f"{name}.txt")))
                        for name in ("train", "val", "test")})


def read_ids(path, known=None):
    """The utterance ids listed in `path`, one per line.  A repeated id, or
    with `known` an id not in it, is a ValueError naming the file and id."""
    ids = {}
    with reading(path) as fh:
        for ln, line in enumerate(fh, start=1):
            utt_id = line.strip()
            if not utt_id:
                continue
            if utt_id in ids:
                raise LineError(ln, f"repeated utterance id {utt_id!r}")
            if known is not None and utt_id not in known:
                raise ValueError(f"no utterance {utt_id!r} in the corpus")
            ids[utt_id] = None
    return list(ids)
