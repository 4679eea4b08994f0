import struct
import wave

import numpy as np
import pytest

from rcasr import corpus as corpus_mod
from rcasr.numerics import make_rng


def write_wav_at(path, samples, rate):
    """A 16-bit mono WAV at any sample rate (rcasr reads only 16 kHz)."""
    pcm = np.clip(np.round(np.asarray(samples) * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(pcm.tobytes())


def write_float32_checkpoint(store, path):
    """The store in the checkpoint layout with float32 entries (dtype code 1),
    which rcasr no longer reads."""
    with open(path, "wb") as fh:
        fh.write(b"RCNN1\x00" + struct.pack("<I", len(store.entries)))
        for name, p in store.entries.items():
            raw, arr = name.encode("utf-8"), p.value
            fh.write(struct.pack(f"<I{len(raw)}sBI{arr.ndim}I",
                                 len(raw), raw, 1, arr.ndim, *arr.shape))
            fh.write(arr.astype("<f4").tobytes())


@pytest.fixture(scope="session")
def tiny_corpus():
    """30 utterances over 3 well-separated phonemes; plenty of frames."""
    spec = corpus_mod.SyntheticSpec.default(
        n_phonemes=3, rng=make_rng(101, 1), sigma=0.15)
    spec.duration_range = (4, 7)
    spec.sentence_length_range = (2, 4)
    return corpus_mod.generate_synthetic(spec, 30, make_rng(101, 2))


@pytest.fixture(scope="session")
def tiny_partition(tiny_corpus):
    parts = corpus_mod.make_partitions(
        tiny_corpus.ids(), n_partitions=1, rng=make_rng(101, 3), sizes=(20, 6, 4))
    return parts[0]


@pytest.fixture(scope="session")
def trained_tiny(tmp_path_factory, tiny_corpus, tiny_partition):
    """A confidently trained toy model on disk, for decode-path tests."""
    from rcasr import trainer

    out = tmp_path_factory.mktemp("trained_tiny")
    cfg = trainer.TrainConfig(
        network="RC2-toy", lr=0.01, batch_size=8, epochs=12, seed=5,
        dropout=0.0, out_dir=str(out),
    )
    store, curve = trainer.train(cfg, tiny_corpus, tiny_partition)
    return {
        "dir": out,
        "ckpt": out / "RC2-toy_12.ckpt",
        "netcfg": out / "RC2-toy.netcfg",
        "store": store,
        "curve": curve,
        "config": cfg,
    }


@pytest.fixture(scope="session")
def tiny_corpus_dir(tmp_path_factory, tiny_corpus):
    root = tmp_path_factory.mktemp("tiny_corpus")
    corpus_mod.save_corpus(tiny_corpus, root)
    return root
