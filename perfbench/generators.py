"""Seeded input generators for the benchmark workloads.

Every generator draws from ``numpy.random.Generator(PCG64(SeedSequence((seed,
stream))))``, so the same seed always writes byte-identical files (asserted
by ``test_generators.py``).  WAV files are written here with the standard
``wave`` module, so the audio format does not depend on the program under
test; feature dumps, checkpoints and the n-gram model are written through
rcasr's own writers, because those formats belong to the program.
"""

import os
import wave

import numpy as np

from rcasr import corpus as corpus_mod
from rcasr import lm as lm_mod
from rcasr.ctc import TIMIT_PHONES, timit_alphabet
from rcasr.network import build_network, get_config, save_config
from rcasr.numerics import make_rng, save_checkpoint

SAMPLE_RATE = 16000
N_PHONES = len(TIMIT_PHONES)            # 61, so the CTC output has L = 62
PHONES_PER_SECOND = 13                  # roughly TIMIT's speaking rate
PAPER_FRAMES = 300                      # 3 s of 10 ms frames, as in the paper
PAPER_PHONES = 40
LM_SENTENCES = 300

# independent substreams of one workload seed
_BIGRAM, _TRANSCRIPT, _AUDIO, _FEATURES, _LM_LENGTHS, _WEIGHTS = range(6)
_LM_PHONES, _CLIP_LENGTHS = 14, 50


def rng(seed, stream):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), stream))))


def phone_bigram(seed):
    """A sparse-ish ground-truth bigram over the 61 phones: (start, transitions)."""
    r = rng(seed, _BIGRAM)
    start = r.dirichlet(np.full(N_PHONES, 0.5))
    transitions = r.dirichlet(np.full(N_PHONES, 0.2), size=N_PHONES)
    return start, transitions


def transcripts(seed, stream, lengths):
    """One phone-index sequence per requested length, drawn from the bigram."""
    start, transitions = phone_bigram(seed)
    r = rng(seed, stream)
    out = []
    for n in lengths:
        seq = [int(r.choice(N_PHONES, p=start))]
        for _ in range(int(n) - 1):
            seq.append(int(r.choice(N_PHONES, p=transitions[seq[-1]])))
        out.append(seq)
    return out


def _segments(r, n_items, total, minimum):
    """Split `total` units into `n_items` parts of at least `minimum` each."""
    extra = r.multinomial(total - n_items * minimum, np.full(n_items, 1.0 / n_items))
    return extra + minimum


def synth_speech(r, phones, n_samples):
    """Phone-shaped audio: two phone-specific partials plus noise per segment."""
    bounds = np.concatenate([[0], np.cumsum(_segments(r, len(phones), n_samples, 160))])
    t = np.arange(n_samples) / SAMPLE_RATE
    x = np.empty(n_samples)
    for ph, a, b in zip(phones, bounds[:-1], bounds[1:]):
        f1 = 250.0 + 12.0 * ph
        f2 = 900.0 + 35.0 * ph
        seg = t[a:b]
        x[a:b] = 0.30 * np.sin(2 * np.pi * f1 * seg) + 0.15 * np.sin(2 * np.pi * f2 * seg)
    x += 0.03 * r.standard_normal(n_samples)
    return np.clip(np.round(x * 32767.0), -32768, 32767).astype("<i2")


def write_wav(path, pcm):
    with wave.open(path, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(pcm.tobytes())


def clip_durations(seed, n_clips, total_s, lo=1.0, hi=4.0):
    """Clip lengths drawn from [lo, hi] s and rescaled to `total_s` in total."""
    lengths = rng(seed, _CLIP_LENGTHS).uniform(lo, hi, size=n_clips)
    return np.round(lengths * total_s / lengths.sum(), 2)


def write_wav_corpus(root, seed, durations_s):
    """`root/wav/<id>.wav` + `root/phn/<id>.txt` over the 61-phone alphabet.

    Returns {utt_id: seconds of audio}.
    """
    os.makedirs(os.path.join(root, "wav"), exist_ok=True)
    os.makedirs(os.path.join(root, "phn"), exist_ok=True)
    n_samples = [int(round(d * SAMPLE_RATE)) for d in durations_s]
    lengths = [max(2, int(round(n / SAMPLE_RATE * PHONES_PER_SECOND))) for n in n_samples]
    seqs = transcripts(seed, _TRANSCRIPT, lengths)
    r = rng(seed, _AUDIO)
    audio = {}
    for k, (n, seq) in enumerate(zip(n_samples, seqs)):
        utt_id = f"utt_{k:04d}"
        write_wav(os.path.join(root, "wav", f"{utt_id}.wav"), synth_speech(r, seq, n))
        with open(os.path.join(root, "phn", f"{utt_id}.txt"), "w") as fh:
            fh.write(" ".join(TIMIT_PHONES[p] for p in seq) + "\n")
        audio[utt_id] = n / SAMPLE_RATE
    return audio


def write_paper_feature_corpus(root, seed, n_utts):
    """Feature-level corpus at paper size: 39-dim frames, 61 phones.

    Each phone emits Gaussian frames (sigma 0.5) around its own mean.  Every
    utterance has exactly PAPER_FRAMES frames and PAPER_PHONES phones, so
    activation sizes do not depend on the seed.
    """
    r = rng(seed, _FEATURES)
    means = r.standard_normal((N_PHONES, 39))
    utts = {}
    for k, seq in enumerate(transcripts(seed, _TRANSCRIPT, [PAPER_PHONES] * n_utts)):
        durations = _segments(r, PAPER_PHONES, PAPER_FRAMES, 2)
        mats = [means[p] + 0.5 * r.standard_normal((d, 39)) for p, d in zip(seq, durations)]
        utt_id = f"utt_{k:04d}"
        utts[utt_id] = corpus_mod.Utterance(
            id=utt_id, labels=tuple(TIMIT_PHONES[p] for p in seq),
            features=np.concatenate(mats))
    corpus_mod.save_corpus(corpus_mod.Corpus(utterances=utts, alphabet=timit_alphabet()), root)


def write_untrained_checkpoint(out_dir, seed):
    """A seeded, untrained RC1 checkpoint plus its `.netcfg`; returns the checkpoint path."""
    net_config = get_config("RC1")
    net = build_network(net_config, output_units=N_PHONES + 1,
                        rng=make_rng(seed, 100 + _WEIGHTS))
    os.makedirs(out_dir, exist_ok=True)
    save_config(net_config, os.path.join(out_dir, f"{net_config.name}.netcfg"))
    path = os.path.join(out_dir, f"{net_config.name}_0.ckpt")
    save_checkpoint(net.store, path)
    return path


def write_lm(path, seed):
    """Bidirectional n-gram model trained on transcripts the decode corpus never uses."""
    lengths = rng(seed, _LM_LENGTHS).integers(20, 61, size=LM_SENTENCES)
    sentences = [tuple(TIMIT_PHONES[p] for p in seq)
                 for seq in transcripts(seed, _LM_PHONES, lengths)]
    lm_mod.save_lm(path, lm_mod.train_lm(sentences))
