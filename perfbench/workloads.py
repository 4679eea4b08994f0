"""The four benchmark workloads: set-up, one timed round, and its checks.

A round calls rcasr's command-line entry point in-process with the same
arguments a user would type.  Checks run after a round, outside its timing,
and raise ``CheckFailed``; the round's utterances then count as failed.
"""

import contextlib
import io
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

import generators as gen
from rcasr import cli, ctc, features
from rcasr import corpus as corpus_mod
from rcasr import lm as lm_mod
from rcasr.network import build_network, load_config
from rcasr.numerics import load_checkpoint, save_checkpoint

FRAME_S = 0.01          # one feature frame covers a 10 ms hop of audio
DECODE_BEAM = 16
DECODE_LAMBDA = 0.3


class CheckFailed(Exception):
    pass


class Workload:
    """Set-up, one timed round, and the checks of that round."""

    def setup(self, root, seed):
        raise NotImplementedError

    def run(self, st, k):
        raise NotImplementedError

    def check(self, st, rnd):
        raise NotImplementedError

    def skipped(self, st):
        """Utterances of a round the program leaves out without an error."""
        return 0


def rcasr(*argv):
    """Run ``rcasr argv...`` in-process; its stdout is captured and returned."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"`rcasr {argv[0]}` exited with code {code}")
    return out.getvalue()


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class State:
    root: str
    seed: int
    utts_per_round: int
    info: dict = field(default_factory=dict)


@dataclass
class Round:
    audio_s: float
    out: object


def _read_ids(path):
    with open(path) as fh:
        return [line.strip() for line in fh if line.strip()]


def _dump_frames(path):
    with open(path) as fh:
        return int(fh.readline().split()[0])


def osa_distance(a, b):
    """Restricted Damerau-Levenshtein distance, written independently of rcasr."""
    d = [[i + j if i * j == 0 else 0 for j in range(len(b) + 1)] for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                d[i][j] = min(d[i][j], d[i - 2][j - 2] + 1)
    return d[len(a)][len(b)]


# -- training ---------------------------------------------------------------------

class Train(Workload):
    """``rcasr train`` on a generated corpus; one round is one whole training run."""

    def __init__(self, name, config, epochs, batch_size, extra=()):
        self.name = name
        self.config, self.epochs, self.batch_size = config, epochs, batch_size
        self.extra = tuple(extra)

    def write_corpus(self, data, part, seed):
        raise NotImplementedError

    def setup(self, root, seed):
        data, part = os.path.join(root, "data"), os.path.join(root, "part")
        self.write_corpus(data, part, seed)
        train_ids = _read_ids(os.path.join(part, "train.txt"))
        frames = sum(_dump_frames(os.path.join(data, "feat", f"{i}.txt")) for i in train_ids)
        return State(root, seed, utts_per_round=len(train_ids) * self.epochs,
                     info={"data": data, "part": part, "frames": frames})

    def run(self, st, k):
        out = os.path.join(st.root, f"round_{k}")
        rcasr("train", "--config", self.config, "--data", st.info["data"],
              "--partition", st.info["part"], "--out", out, "--epochs", self.epochs,
              "--batch-size", self.batch_size, "--seed", st.seed, *self.extra)
        return Round(audio_s=st.info["frames"] * self.epochs * FRAME_S, out=out)

    def check(self, st, rnd):
        out = rnd.out
        with open(os.path.join(out, f"{self.config}_curve.csv")) as fh:
            rows = [line.strip().split(",") for line in fh.readlines()[1:]]
        costs = [float(r[2]) for r in rows]
        val_per = float(rows[-1][4])
        expect(len(costs) == self.epochs, f"curve has {len(costs)} epochs, want {self.epochs}")
        expect(all(math.isfinite(c) for c in costs), f"non-finite train cost in {costs}")
        expect(costs[-1] < costs[0], f"final cost {costs[-1]} not below first {costs[0]}")

        ckpt = os.path.join(out, f"{self.config}_{self.epochs}.ckpt")
        with open(ckpt, "rb") as fh:
            raw = fh.read()
        again = os.path.join(out, "roundtrip.ckpt")
        save_checkpoint(load_checkpoint(ckpt), again)
        with open(again, "rb") as fh:
            expect(fh.read() == raw, "checkpoint does not round-trip bit-exact")
        # every round trains the same seed on the same data
        first = st.info.setdefault("first_round", (raw, costs, val_per))
        expect(first == (raw, costs, val_per), "training is not reproducible run to run")
        shutil.rmtree(out)
        return {"train_cost_first": costs[0], "train_cost_final": costs[-1], "val_per": val_per}

    def skipped(self, st):
        # the trainer leaves CTC-infeasible training utterances out of every epoch
        if "infeasible" not in st.info:
            corp = corpus_mod.load_corpus(st.info["data"])
            train_ids = _read_ids(os.path.join(st.info["part"], "train.txt"))
            st.info["infeasible"] = sum(not corp[i].ctc_feasible for i in train_ids)
        return st.info["infeasible"] * self.epochs


class TrainToy(Train):
    def write_corpus(self, data, part, seed):
        # the Tier-1 synthetic protocol: 10 phonemes, sigma 0.15, 300 utterances
        rcasr("synth", "--out", data, "--n", 300, "--seed", seed,
              "--n-phonemes", 10, "--sigma", 0.15)
        rcasr("partition", "--data", data, "--out", part, "--seed", seed)


class TrainPaper(Train):
    def write_corpus(self, data, part, seed):
        gen.write_paper_feature_corpus(data, seed, n_utts=3)
        rcasr("partition", "--data", data, "--out", part, "--seed", seed, "--sizes", "1,1,1")


# -- decoding ---------------------------------------------------------------------

def reference_beam(y, width):
    """Prefix beam search without an LM, written independently of ``rcasr.ctc``.

    The same search the program documents: every prefix keeps a blank and a
    non-blank log mass, a label repeated right after itself needs a blank in
    between, an extension that equals a live prefix merges into it, and after
    each frame the `width` prefixes of highest total mass survive.  Returns
    the surviving ``(prefix, log mass)`` pairs, best first.
    """
    ly = np.log(np.asarray(y, dtype=np.float64))
    n_frames, n_labels = ly.shape
    blank = n_labels - 1
    prefixes, pb, pnb = [()], np.array([0.0]), np.array([-np.inf])
    for t in range(n_frames):
        total = np.logaddexp(pb, pnb)
        last = np.array([p[-1] if p else -1 for p in prefixes])
        ends = last >= 0
        stay_b = total + ly[t, blank]
        stay_nb = np.full(len(prefixes), -np.inf)
        stay_nb[ends] = pnb[ends] + ly[t, last[ends]]
        src = np.repeat(total[:, None], blank, axis=1)
        src[ends, last[ends]] = pb[ends]
        ext = src + ly[t, :blank]
        index = {p: i for i, p in enumerate(prefixes)}
        for j, p in enumerate(prefixes):
            i = index.get(p[:-1]) if p else None
            if i is not None:
                stay_nb[j] = np.logaddexp(stay_nb[j], ext[i, p[-1]])
                ext[i, p[-1]] = -np.inf
        cand = np.concatenate([np.logaddexp(stay_b, stay_nb), ext.ravel()])
        keep = np.argsort(-cand, kind="stable")[:width]
        n_live, kept = len(prefixes), []
        for k in keep:
            if k < n_live:
                kept.append((prefixes[k], stay_b[k], stay_nb[k]))
            else:
                i, c = divmod(k - n_live, blank)
                kept.append((prefixes[i] + (c,), -np.inf, ext[i, c]))
        prefixes = [p for p, _, _ in kept]
        pb = np.array([b for _, b, _ in kept])
        pnb = np.array([nb for _, _, nb in kept])
    total = np.logaddexp(pb, pnb)
    order = np.argsort(-total, kind="stable")
    return [(prefixes[k], float(total[k])) for k in order]


class Decode(Workload):
    """``rcasr decode`` with beam search and LM rescoring, then ``rcasr score``.

    The data directory holds a few 3 s clips; every round decodes the same
    one (``--ids``), so the rounds of a run are like for like.
    """

    name = "decode-paper"
    n_clips = 4
    clip = "utt_0000"

    def setup(self, root, seed):
        data = os.path.join(root, "data")
        audio = gen.write_wav_corpus(data, seed, [3.0] * self.n_clips)
        ckpt = gen.write_untrained_checkpoint(os.path.join(root, "model"), seed)
        lm_path = os.path.join(root, "model.lm")
        gen.write_lm(lm_path, seed)
        ids = os.path.join(root, "decode.ids")
        with open(ids, "w") as fh:
            fh.write(self.clip + "\n")
        return State(root, seed, utts_per_round=1,
                     info={"data": data, "ckpt": ckpt, "lm": lm_path, "ids": ids, "audio": audio})

    def run(self, st, k):
        hyps = os.path.join(st.root, f"hyps_{k}.txt")
        report = os.path.join(st.root, f"per_{k}.csv")
        rcasr("decode", "--ckpt", st.info["ckpt"], "--data", st.info["data"],
              "--beam", DECODE_BEAM, "--lm", st.info["lm"], "--lambda", DECODE_LAMBDA,
              "--out", hyps, "--ids", st.info["ids"])
        rcasr("score", "--refs", st.info["data"], "--hyps", hyps, "--out", report)
        return Round(audio_s=st.info["audio"][self.clip], out=(hyps, report))

    def _reference(self, st):
        """The clip's posteriors and its expected hypothesis, computed once."""
        if "reference" not in st.info:
            model_dir = os.path.dirname(st.info["ckpt"])
            net = build_network(load_config(os.path.join(model_dir, "RC1.netcfg")),
                                output_units=gen.N_PHONES + 1)
            for name, p in load_checkpoint(st.info["ckpt"]).entries.items():
                net.store[name].value[...] = p.value
            model = lm_mod.load_lm(st.info["lm"])
            clip = features.read_wav(os.path.join(st.info["data"], "wav", f"{self.clip}.wav"))
            logits, _ = net.forward(features.extract(clip), training=False)
            y = ctc.softmax(logits)
            alphabet = ctc.timit_alphabet()
            best = None
            for prefix, mass in reference_beam(y, DECODE_BEAM):
                phones = tuple(alphabet.decode(prefix))
                key = (mass + DECODE_LAMBDA * lm_mod.score(model, phones), mass)
                if best is None or key > best[0]:
                    best = (key, phones)
            (score, beam_ctc), phones = best
            exact = ctc.ctc_forward(y, alphabet.encode(phones)).log_prob
            st.info["reference"] = (phones, score, beam_ctc, exact)
        return st.info["reference"]

    def check(self, st, rnd):
        hyps, report = rnd.out
        with open(hyps) as fh:
            lines = [line.split() for line in fh if line.strip()]
        expect(len(lines) == 1 and lines[0][0] == self.clip, f"unexpected hypothesis file {lines}")
        printed, phones = float(lines[0][1]), tuple(lines[0][2:])
        ref_phones, ref_score, beam_ctc, exact = self._reference(st)
        expect(phones == ref_phones, f"hypothesis {phones} != reference {ref_phones}")
        # 5e-7 is the printed precision
        expect(abs(printed - ref_score) <= 5e-7 + 1e-12 * abs(ref_score),
               f"score {printed} != reference {ref_score:.6f}")
        # a pruned beam keeps only part of a prefix's paths, so its CTC mass is
        # at most the exact path sum (equal when nothing of it was pruned)
        expect(beam_ctc <= exact + 1e-9 * abs(exact),
               f"beam CTC mass {beam_ctc} exceeds the exact {exact}")

        with open(os.path.join(st.info["data"], "phn", f"{self.clip}.txt")) as fh:
            ref = tuple(fh.read().split())
        dist = osa_distance(ref, phones)
        with open(report) as fh:
            rows = {r[0]: r[1:] for r in (line.strip().split(",") for line in fh)}
        expect(rows.get(self.clip, [None])[:2] == [str(dist), str(len(ref))],
               f"PER row {rows.get(self.clip)} != distance {dist} over {len(ref)}")
        expect(rows["AGGREGATE"][2] == f"{dist / len(ref):.6f}", "aggregate PER mismatch")
        os.remove(hyps)
        os.remove(report)
        return {"decode_per": dist / len(ref), "beam_pruned_nats": exact - beam_ctc}


# -- ingestion --------------------------------------------------------------------

class Ingest(Workload):
    """``rcasr features --stats-out`` over WAV clips, then ``load_corpus`` on the dumps."""

    name = "ingest-wav"
    n_clips = 40
    total_s = 100.0

    def setup(self, root, seed):
        data = os.path.join(root, "data")
        # lengths vary with the seed, the total amount of audio does not
        audio = gen.write_wav_corpus(data, seed, gen.clip_durations(seed, self.n_clips, self.total_s))
        return State(root, seed, utts_per_round=self.n_clips, info={"data": data, "audio": audio})

    def run(self, st, k):
        out = os.path.join(st.root, f"feat_{k}")
        stats = os.path.join(st.root, f"stats_{k}.txt")
        rcasr("features", "--data", st.info["data"], "--out", out, "--stats-out", stats)
        loaded = corpus_mod.load_corpus(out)
        return Round(audio_s=sum(st.info["audio"].values()), out=(out, stats, loaded))

    def _expected(self, st):
        if "expected" not in st.info:
            ids = sorted(st.info["audio"])
            mats = [features.extract(features.read_wav(
                os.path.join(st.info["data"], "wav", f"{i}.wav"))) for i in ids]
            normed, stats = features.normalize_corpus(mats)
            labels = {}
            for i in ids:
                with open(os.path.join(st.info["data"], "phn", f"{i}.txt")) as fh:
                    labels[i] = tuple(fh.read().split())
            st.info["expected"] = (dict(zip(ids, normed)), stats, labels)
        return st.info["expected"]

    def check(self, st, rnd):
        out, stats_path, loaded = rnd.out
        normed, stats, labels = self._expected(st)
        expect(sorted(loaded.ids()) == sorted(normed), "loaded ids differ from the wav ids")
        for utt_id, mat in normed.items():
            got = loaded[utt_id]
            expect(got.features.dtype == mat.dtype and np.array_equal(got.features, mat),
                   f"{utt_id}: dump read back differs from the in-memory features")
            expect(got.labels == labels[utt_id], f"{utt_id}: transcript changed")
        with open(stats_path) as fh:
            rows = [np.array([float(v) for v in line.split()]) for line in fh]
        expect(len(rows) == 2 and np.array_equal(rows[0], stats.mean)
               and np.array_equal(rows[1], stats.std), "stats file differs from the fitted stats")
        pooled = np.concatenate([loaded[i].features for i in normed])
        expect(np.all(np.abs(pooled.mean(axis=0)) < 1e-9), "normalized mean is not 0")
        expect(np.all(np.abs(pooled.std(axis=0) - 1.0) < 1e-9), "normalized std is not 1")
        shutil.rmtree(out)
        os.remove(stats_path)
        return {}


# why each workload was chosen: BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w for w in (
        TrainToy("train-toy", config="RC-small", epochs=2, batch_size=32, extra=("--dropout", 0)),
        TrainPaper("train-paper", config="RC1", epochs=2, batch_size=1),
        Decode(),
        Ingest(),
    )
}
