import numpy as np
import pytest

from conftest import write_wav_at
from rcasr import corpus as C
from rcasr.numerics import make_rng


def quick_spec(n_phonemes=3, sigma=0.2, seed=200):
    spec = C.SyntheticSpec.default(n_phonemes=n_phonemes, rng=make_rng(seed), sigma=sigma)
    spec.duration_range = (3, 6)
    spec.sentence_length_range = (2, 4)
    return spec


class TestPartitions:
    def test_exact_cover(self):
        corp = C.generate_synthetic(quick_spec(), 10, make_rng(201))
        parts = C.make_partitions(corp.ids(), n_partitions=1, rng=make_rng(202), sizes=(6, 2, 2))
        p = parts[0]
        assert len(p.train) == 6 and len(p.val) == 2 and len(p.test) == 2
        assert set(p.train) | set(p.val) | set(p.test) == set(corp.ids())
        assert not (set(p.train) & set(p.val) or set(p.val) & set(p.test))

    def test_seed_determinism(self):
        corp = C.generate_synthetic(quick_spec(), 12, make_rng(203))
        a = C.make_partitions(corp.ids(), 3, rng=make_rng(7), sizes=(8, 2, 2))
        b = C.make_partitions(corp.ids(), 3, rng=make_rng(7), sizes=(8, 2, 2))
        for pa, pb in zip(a, b):
            assert pa.train == pb.train and pa.val == pb.val and pa.test == pb.test

    def test_six_partitions_differ(self):
        corp = C.generate_synthetic(quick_spec(), 20, make_rng(204))
        parts = C.make_partitions(corp.ids(), 6, rng=make_rng(8), sizes=(14, 4, 2))
        signatures = {p.train for p in parts}
        assert len(signatures) == 6

    def test_scaled_default_sizes(self):
        assert C.scaled_split_sizes(6300) == (5000, 1000, 300)
        train, val, test = C.scaled_split_sizes(10)
        assert train + val + test == 10
        assert min(train, val, test) >= 1

    def test_too_small_corpus_rejected(self):
        corp = C.generate_synthetic(quick_spec(), 2, make_rng(205))
        with pytest.raises(ValueError):
            C.make_partitions(corp.ids(), 1, rng=make_rng(0))

    def test_bad_sizes_rejected(self):
        corp = C.generate_synthetic(quick_spec(), 10, make_rng(206))
        with pytest.raises(ValueError, match="cover"):
            C.make_partitions(corp.ids(), 1, rng=make_rng(0), sizes=(5, 2, 2))


class TestSynthetic:
    def test_seed_determinism_bit_exact(self):
        spec = quick_spec()
        a = C.generate_synthetic(spec, 8, make_rng(207))
        b = C.generate_synthetic(spec, 8, make_rng(207))
        assert a.ids() == b.ids()
        for i in a.ids():
            assert np.array_equal(a[i].features, b[i].features)
            assert a[i].labels == b[i].labels

    def test_sigma_zero_frames_equal_means(self):
        spec = quick_spec(sigma=0.0)
        corp = C.generate_synthetic(spec, 5, make_rng(208))
        for utt in corp.utterances.values():
            for frame in utt.features:
                dists = np.linalg.norm(spec.means - frame, axis=1)
                assert np.min(dists) == 0.0
        # a nearest-mean classifier is perfect in the noiseless limit
        utt = corp[corp.ids()[0]]
        frame_labels = [int(np.argmin(np.linalg.norm(spec.means - f, axis=1)))
                        for f in utt.features]
        assert set(f"p{i}" for i in frame_labels) == set(utt.labels)

    def test_empirical_bigram_matches_spec(self):
        spec = quick_spec(n_phonemes=3, seed=210)
        corp = C.generate_synthetic(spec, 4000, make_rng(211))
        counts = np.zeros((3, 3))
        for utt in corp.utterances.values():
            ids = [int(s[1:]) for s in utt.labels]
            for a, b in zip(ids, ids[1:]):
                counts[a, b] += 1
        freqs = counts / counts.sum(axis=1, keepdims=True)
        assert np.max(np.abs(freqs - spec.transitions)) < 0.02

    def test_coinciding_means_rejected(self):
        means = np.zeros((2, 39))
        with pytest.raises(ValueError, match="coincide"):
            C.SyntheticSpec(means=means, transitions=np.full((2, 2), 0.5),
                            start_probs=np.array([0.5, 0.5]))

    def test_feasibility_flag(self):
        utt = C.Utterance(id="x", labels=("p0", "p0"), features=np.zeros((2, 39)))
        assert not utt.ctc_feasible
        utt2 = C.Utterance(id="y", labels=("p0", "p0"), features=np.zeros((3, 39)))
        assert utt2.ctc_feasible


class TestLoadSave:
    def test_round_trip(self, tmp_path):
        corp = C.generate_synthetic(quick_spec(), 4, make_rng(212))
        C.save_corpus(corp, tmp_path)
        back = C.load_corpus(tmp_path)
        assert back.ids() == corp.ids()
        assert back.alphabet.non_blank == corp.alphabet.non_blank
        for i in corp.ids():
            assert np.array_equal(back[i].features, corp[i].features)
            assert back[i].labels == corp[i].labels

    def test_empty_directory_warns(self, tmp_path, caplog):
        corp = C.load_corpus(tmp_path)
        assert len(corp) == 0

    def test_wav_corpus_loads(self, tmp_path):
        rng = make_rng(213)
        (tmp_path / "wav").mkdir()
        (tmp_path / "phn").mkdir()
        write_wav_at(tmp_path / "wav" / "u1.wav", rng.normal(scale=0.1, size=8000), 16000)
        (tmp_path / "phn" / "u1.txt").write_text("aa b ch\n")
        corp = C.load_corpus(tmp_path)
        assert len(corp) == 1
        assert corp["u1"].labels == ("aa", "b", "ch")
        assert corp["u1"].features.shape[1] == 39
        assert corp.alphabet.non_blank[0] == "aa"   # TIMIT default

    def test_missing_transcript_names_id(self, tmp_path):
        corp = C.generate_synthetic(quick_spec(), 2, make_rng(214))
        C.save_corpus(corp, tmp_path)
        victim = corp.ids()[1]
        (tmp_path / "phn" / f"{victim}.txt").unlink()
        with pytest.raises(FileNotFoundError, match=victim):
            C.load_corpus(tmp_path)

    def test_orphan_transcript_rejected(self, tmp_path):
        corp = C.generate_synthetic(quick_spec(), 2, make_rng(215))
        C.save_corpus(corp, tmp_path)
        (tmp_path / "phn" / "ghost.txt").write_text("p0\n")
        with pytest.raises(FileNotFoundError, match="ghost"):
            C.load_corpus(tmp_path)

    def test_unknown_symbol_names_it(self, tmp_path):
        corp = C.generate_synthetic(quick_spec(), 2, make_rng(216))
        C.save_corpus(corp, tmp_path)
        victim = corp.ids()[0]
        (tmp_path / "phn" / f"{victim}.txt").write_text("p0 mystery\n")
        with pytest.raises(ValueError, match="mystery"):
            C.load_corpus(tmp_path)

    def test_empty_transcript_rejected(self, tmp_path):
        corp = C.generate_synthetic(quick_spec(), 2, make_rng(225))
        C.save_corpus(corp, tmp_path)
        victim = corp.ids()[0]
        (tmp_path / "phn" / f"{victim}.txt").write_text("\n")
        with pytest.raises(ValueError, match="empty transcript"):
            C.load_corpus(tmp_path)

    def test_partition_files_round_trip(self, tmp_path):
        corp = C.generate_synthetic(quick_spec(), 9, make_rng(217))
        part = C.make_partitions(corp.ids(), 1, rng=make_rng(218), sizes=(5, 2, 2))[0]
        C.save_partition(part, tmp_path / "part")
        back = C.load_partition(tmp_path / "part")
        assert back.train == part.train
        assert back.val == part.val
        assert back.test == part.test


class TestSelectPartition:
    def test_single_partition_returned_without_training(self):
        corp = C.generate_synthetic(quick_spec(), 6, make_rng(219))
        part = C.make_partitions(corp.ids(), 1, rng=make_rng(220), sizes=(4, 1, 1))[0]
        assert C.select_partition([part], corp) is part

    def test_identical_candidates_tie_break_deterministic(self):
        corp = C.generate_synthetic(quick_spec(), 12, make_rng(221))
        part = C.make_partitions(corp.ids(), 1, rng=make_rng(222), sizes=(8, 2, 2))[0]
        chosen = C.select_partition([part, part, part], corp)
        assert chosen is part

    def test_mismatched_partition_avoided(self):
        # corrupt a subset of utterances; the bad candidate puts them in val
        spec = quick_spec(seed=223)
        corp = C.generate_synthetic(spec, 12, make_rng(224))
        ids = corp.ids()
        bad_ids = ids[:3]
        for i in bad_ids:
            corp.utterances[i].features = corp[i].features * 40.0
        clean = [i for i in ids if i not in bad_ids]
        good = C.Partition(train=tuple(clean[:7]), val=tuple(clean[7:9] + [bad_ids[0]]),
                           test=tuple(clean[9:] + bad_ids[1:]))
        bad = C.Partition(train=tuple(clean[:7] + [bad_ids[0]]), val=tuple(bad_ids[1:]),
                          test=tuple(clean[7:]))
        good.check_covers(ids)
        bad.check_covers(ids)
        chosen = C.select_partition([bad, good], corp)
        assert chosen is good
