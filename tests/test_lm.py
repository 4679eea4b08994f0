import logging
import math
import os
import re
import tracemalloc

import pytest

from oracles import (lm_conditional_full_history, lm_directional_score_full_history,
                     lm_directional_score_unmemoised, lm_order_conditional, lm_order_probability,
                     lm_rectify_unmemoised)
from rcasr import ctc as ctc_mod
from rcasr import lm as L
from rcasr.ctc import TIMIT_PHONES
from rcasr.numerics import make_rng

GOLDEN_LM = os.path.join(os.path.dirname(__file__), "golden", "lm_small.lm")


def small_corpus():
    return [("a", "b"), ("b", "a", "b"), ("a", "b", "b")]


class TestTraining:
    def test_hand_counted_bigram(self):
        # corpus {(a, b)}: vocab {a, b}, event space adds the end marker
        model = L.train_lm([("a", "b")], smoothing_k=1.0)
        v = model.event_count
        assert v == 3
        p = lm_order_conditional(model, "b", ("a",), order=2, direction="F")
        assert p == pytest.approx((1 + 1.0) / (1 + 1.0 * v), abs=1e-15)

    def test_backward_equals_forward_of_reversed_corpus(self):
        corpus = small_corpus()
        model = L.train_lm(corpus)
        rev = L.train_lm([tuple(reversed(s)) for s in corpus])
        for n in L.ORDERS:
            assert model.table(n, "B") == rev.table(n, "F")

    def test_palindrome_gives_symmetric_trigrams(self):
        model = L.train_lm([("a", "b", "a")])
        assert model.table(3, "F") == model.table(3, "B")

    def test_empty_sentence_skipped(self):
        model = L.train_lm([("a",), ()])
        assert sum(model.table(2, "F").get(("a",), {}).values()) == 1

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            L.train_lm([])

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            L.NgramModel(vocab=("a",), interp_weights={2: 0.5, 3: 0.5, 4: 0.5})


class TestDistributions:
    def test_conditionals_sum_to_one_per_context(self):
        model = L.train_lm(small_corpus())
        events = list(model.vocab) + [L.EOS]
        for n in L.ORDERS:
            for d in "FB":
                for ctx in model.table(n, d):
                    total = sum(lm_order_probability(model, n, d, ctx, e) for e in events)
                    assert abs(total - 1.0) <= 1e-12, (n, d, ctx)

    def test_unseen_context_sums_to_one(self):
        model = L.train_lm(small_corpus())
        events = list(model.vocab) + [L.EOS]
        total = sum(lm_order_probability(model, 3, "F", ("b", "b"), e) for e in events)
        assert abs(total - 1.0) <= 1e-12

    def test_monotonicity_in_counts(self):
        base = small_corpus()
        m1 = L.train_lm(base)
        m2 = L.train_lm(base + [("a", "b")])
        p1 = lm_order_conditional(m1, "b", ("a",), order=2)
        p2 = lm_order_conditional(m2, "b", ("a",), order=2)
        assert p2 >= p1

    def test_interpolated_conditional_mixes_orders(self):
        model = L.train_lm(small_corpus())
        mix = model.conditional("b", ("a",))
        parts = [model.interp_weights[n] * lm_order_conditional(model, "b", ("a",), n)
                 for n in L.ORDERS]
        assert mix == pytest.approx(sum(parts), abs=1e-15)


class TestHistoryBound:
    """Reading only the last HISTORY symbols changes no probability."""

    def model_and_context(self):
        rng = make_rng(92)
        vocab = ("a", "b", "c", "d")
        model = L.train_lm([tuple(vocab[i] for i in rng.integers(0, 4, int(rng.integers(1, 9))))
                            for _ in range(30)])
        # an out-of-vocabulary symbol, a literal start marker and the unknown
        # marker each take one of the mapping branches
        pool = vocab + ("zz", L.BOS, L.UNK)
        return model, tuple(pool[i] for i in rng.integers(0, len(pool), 50)), pool + (L.EOS,)

    def test_conditional_on_long_context_exact(self):
        model, context, events = self.model_and_context()
        for cut in (0, 1, 2, 3, 4, 17, 50):
            for d in "FB":
                for sym in events:
                    assert model.conditional(sym, context[:cut], d) == \
                        lm_conditional_full_history(model, sym, context[:cut], d)

    def test_score_on_long_sequence_exact(self):
        model, seq, _ = self.model_and_context()
        for d in "FB":
            assert L._directional_scores(model, [seq], d) == [lm_directional_score_full_history(model, seq, d)]
        assert L.score(model, seq) == (
            model.mu * lm_directional_score_full_history(model, seq, "F")
            + (1.0 - model.mu) * lm_directional_score_full_history(model, tuple(reversed(seq)), "B"))


class TestScore:
    def test_empty_sequence_finite(self):
        model = L.train_lm(small_corpus())
        val = L.score(model, ())
        assert math.isfinite(val)

    def test_mu_one_is_pure_forward(self):
        model = L.train_lm(small_corpus(), mu=1.0)
        seq = ("a", "b")
        assert L.score(model, seq) == pytest.approx(
            L._directional_scores(model, [seq], "F")[0], abs=1e-15)

    def test_mu_zero_is_pure_backward(self):
        model = L.train_lm(small_corpus(), mu=0.0)
        seq = ("a", "b")
        assert L.score(model, seq) == pytest.approx(
            L._directional_scores(model, [tuple(reversed(seq))], "B")[0], abs=1e-15)

    def test_training_sentence_beats_permutation(self):
        # single-sentence corpus is enough to rank the real ordering first
        sent = ("a", "b", "c", "d", "a", "b")
        model = L.train_lm([sent])
        shuffled = ("b", "a", "d", "c", "b", "a")
        assert L.score(model, sent) > L.score(model, shuffled)

    def test_out_of_vocab_finite(self):
        model = L.train_lm(small_corpus())
        val = L.score(model, ("a", "zz", "b"))
        assert math.isfinite(val)


class TestRectify:
    def test_single_hypothesis_returned(self):
        model = L.train_lm(small_corpus())
        seq, _ = L.rectify(model, [(("a", "b"), -2.0)], lam=0.7)
        assert seq == ("a", "b")

    def test_lambda_zero_returns_top_ctc(self):
        model = L.train_lm(small_corpus())
        hyps = [(("b", "b"), -1.0), (("a", "b"), -1.5)]
        seq, comb = L.rectify(model, hyps, lam=0.0)
        assert seq == ("b", "b")
        assert comb == -1.0

    def test_crossover_lambda(self):
        model = L.train_lm([("a", "b")] * 10 + [("b", "b")])
        h_ctc = ("b", "b")      # better CTC score
        h_lm = ("a", "b")       # better LM score
        c1, c2 = -1.0, -1.4
        s1, s2 = L.score(model, h_ctc), L.score(model, h_lm)
        assert s2 > s1
        lam_star = (c1 - c2) / (s2 - s1)
        hyps = [(h_ctc, c1), (h_lm, c2)]
        below, _ = L.rectify(model, hyps, lam=lam_star * 0.5)
        above, _ = L.rectify(model, hyps, lam=lam_star * 2.0)
        assert below == h_ctc
        assert above == h_lm

    def test_tie_prefers_higher_ctc(self):
        model = L.train_lm([("a",), ("b",)])
        sa, sb = L.score(model, ("a",)), L.score(model, ("b",))
        assert sa == pytest.approx(sb, abs=1e-12)   # symmetric corpus
        seq, _ = L.rectify(model, [(("a",), -2.0), (("b",), -1.0)], lam=1.0)
        assert seq == ("b",)

    def test_empty_list_rejected(self):
        model = L.train_lm(small_corpus())
        with pytest.raises(ValueError):
            L.rectify(model, [], lam=0.1)

    def test_out_of_vocab_warned_once_per_call(self, caplog):
        model = L.train_lm(small_corpus())
        hyps = [(("a", "zz", "b")[:1 + i % 3] + ("yy",), -float(i)) for i in range(16)]
        with caplog.at_level(logging.WARNING, logger=L.__name__):
            L.rectify(model, hyps, lam=0.5)
            L.score(model, ("zz", "a", "yy"))
        assert [r.getMessage() for r in caplog.records] == [
            "rectify: mapping 26 out-of-vocabulary symbols to <unk>",
            "score: mapping 2 out-of-vocabulary symbols to <unk>",
        ]


class TestMemoisedRescoring:
    """rectify's batched windows against scoring each symbol on its own, exactly."""

    def model(self):
        rng = make_rng(93)
        return L.train_lm([tuple(f"p{i}" for i in rng.integers(0, 5, int(rng.integers(2, 12))))
                           for _ in range(40)], mu=0.3)

    def assert_exact(self, model, hyps, lam):
        assert L.rectify(model, hyps, lam) == lm_rectify_unmemoised(model, hyps, lam)
        for d, seqs in (("F", [seq for seq, _ in hyps]),
                        ("B", [tuple(reversed(seq)) for seq, _ in hyps])):
            assert L._directional_scores(model, seqs, d) == \
                [lm_directional_score_unmemoised(model, s, d) for s in seqs]

    @pytest.mark.parametrize("lam", [0.0, 0.3, 2.0])
    def test_beam_output(self, lam):
        # flat posteriors keep 16 long, overlapping hypotheses
        alphabet = ctc_mod.synthetic_alphabet(6)
        y = ctc_mod.softmax(make_rng(94).normal(scale=0.5, size=(80, alphabet.size)))
        hyps = [(alphabet.decode(h), s) for h, s in ctc_mod.beam_decode(y, width=16)]
        assert len(hyps) == 16
        self.assert_exact(self.model(), hyps, lam)

    def test_unknown_start_markers_and_duplicates(self):
        model = self.model()
        hyps = [(("p0", "zz", "p1"), -3.0), (("p0", L.UNK, "p1"), -3.5),
                ((L.BOS, "p2", L.BOS), -4.0), (("zz", "yy", "p0", "p1"), -2.5),
                (("p0", "zz", "p1"), -3.0), ((), -9.0), (("p0", "zz", "p1"), -3.25)]
        for lam in (0.1, 1.0, 10.0):
            self.assert_exact(model, hyps, lam)


class TestSaveLoad:
    def test_round_trip_scores_identical(self, tmp_path):
        model = L.train_lm(small_corpus(), smoothing_k=0.5, mu=0.3)
        path = tmp_path / "model.lm"
        L.save_lm(path, model)
        back = L.load_lm(path)
        assert back.vocab == model.vocab
        assert back.smoothing_k == model.smoothing_k
        assert back.mu == model.mu
        for n in L.ORDERS:
            for d in "FB":
                assert back.table(n, d) == model.table(n, d)
        for seq in [("a",), ("a", "b", "b"), ()]:
            assert L.score(back, seq) == L.score(model, seq)

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "m1.lm", tmp_path / "m2.lm"
        L.save_lm(p1, L.train_lm(small_corpus()))
        L.save_lm(p2, L.train_lm(small_corpus()))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "junk.lm"
        path.write_text("NOT A MODEL\n")
        with pytest.raises(ValueError):
            L.load_lm(path)

    HEADER = "NGRAM-LM v1\nk 1\nweights 0.4 0.35 0.25\nmu 0.5\nvocab p0 p1\n"

    def test_first_repeat_reported_before_later_faults(self, tmp_path):
        # the B repeat on line 9 comes before the F repeat on line 10 and
        # the bad count on line 11, as a line-by-line reader meets them
        lines = ["2 B <s> p1 1", "2 F <s> p0 1", "2 F <s> p1 1", "2 B <s> p1 4",
                 "2 F <s> p0 2", "2 F <s> p0 x"]
        for n in (5, 6):
            path = tmp_path / f"m{n}.lm"
            path.write_text(self.HEADER + "\n".join(lines[:n]) + "\n")
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:9: repeats the "
                                                 "order-2 B count of 'p1' after '<s>'$"):
                L.load_lm(path)

    def test_counts_summing_past_int64_rejected(self, tmp_path):
        path = tmp_path / "m.lm"
        path.write_text(self.HEADER + f"2 F <s> p0 {2 ** 62}\n2 F <s> p1 {2 ** 62}\n")
        with pytest.raises(ValueError, match=r"the F counts sum past 2\*\*63 - 1$"):
            L.load_lm(path)

    def test_header_only_model_scores(self, tmp_path):
        path = tmp_path / "m.lm"
        path.write_text(self.HEADER)
        model = L.load_lm(path)
        assert model.table(2, "F") == {}
        # every count 0: each order gives k / (k * 3)
        assert model.conditional("p0", ()) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_vocab_listing_the_end_marker_sums_to_one(self, tmp_path):
        # a marker the vocab lists is one event: a, b and </s>, not four
        path = tmp_path / "m.lm"
        path.write_text(self.HEADER.replace("p0 p1", "a b </s>")
                        + "2 F a b 2\n2 F a </s> 1\n3 F <s> a b 1\n")
        model = L.load_lm(path)
        assert model.event_count == 3
        for ctx in [("a",), ("b",), ()]:
            total = sum(model.conditional(e, ctx) for e in ("a", "b", L.EOS))
            assert abs(total - 1.0) <= 1e-12, ctx

    @pytest.mark.parametrize("sym", ["b", L.EOS, L.BOS, L.UNK])
    def test_conditionals_of_a_loaded_model_sum_to_one(self, tmp_path, sym):
        # the events after a are a, b and </s>: a count of <s> or <unk>
        # there would take 5 / 9 of their mass (at k 1), so it is refused
        path = tmp_path / "m.lm"
        path.write_text(self.HEADER.replace("p0 p1", "a b") + f"2 F a {sym} 5\n2 F a a 1\n")
        if sym in (L.BOS, L.UNK):
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:6: counts "
                                                 f"'{sym}' after 'a', which is neither"):
                L.load_lm(path)
            return
        model = L.load_lm(path)
        total = sum(model.conditional(e, ("a",)) for e in ("a", "b", L.EOS))
        assert abs(total - 1.0) <= 1e-12

    def test_count_outside_the_events_reported_before_later_faults(self, tmp_path):
        path = tmp_path / "m.lm"
        path.write_text(self.HEADER + "2 F <s> p0 1\n2 B p0 <s> 1\n2 F <s> p0 2\n2 F <s> x 1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:7: counts '<s>' after "
                                             "'p0', which is neither a vocab symbol nor '</s>'$"):
            L.load_lm(path)

    def test_vocab_whose_keys_overflow_int64_rejected(self):
        # B + B^2 + B^3 + B^4 keys fit in int64 up to B = 55108, |vocab| = 55105
        L.NgramModel(vocab=tuple(map(str, range(55105))))
        with pytest.raises(ValueError, match="55106 symbols is too large"):
            L.NgramModel(vocab=tuple(map(str, range(55106))))


def golden_corpus():
    """The 300 seeded sentences of 2-8 TIMIT phones that golden/lm_small.lm
    was trained on.  Phone i is drawn with weight 1 / (1 + rank(i)), so
    n-grams repeat as in real transcripts."""
    rng = make_rng(27)
    p = 1.0 / (1.0 + rng.permutation(len(TIMIT_PHONES)))
    p /= p.sum()
    return [tuple(TIMIT_PHONES[i] for i in rng.choice(len(TIMIT_PHONES), size=int(rng.integers(2, 9)), p=p))
            for _ in range(300)]


# an empty sequence, a training sentence, a long one, out-of-vocabulary
# symbols and literal markers
GOLDEN_SEQUENCES = (
    (),
    ("h#", "sh", "iy"),
    TIMIT_PHONES[::2] + TIMIT_PHONES[1::3],
    ("aa", "zz", "b", L.BOS, L.EOS, L.UNK, "iy"),
    TIMIT_PHONES[40:] * 3,
)


class TestGolden:
    """The text format and every score, pinned before the count tables
    became integer-coded arrays."""

    # float.hex of score(model, seq) for GOLDEN_SEQUENCES, from the dict tables
    SCORES = ("-0x1.7910b2e25d669p+2", "-0x1.021d477f5e242p+4", "-0x1.b129bc7c9cde4p+7",
              "-0x1.077fae2f90e17p+5", "-0x1.0d1ad3dd007f2p+8")

    def golden_bytes(self):
        with open(GOLDEN_LM, "rb") as fh:
            return fh.read()

    def test_train_and_save_reproduce_the_file(self, tmp_path):
        path = tmp_path / "m.lm"
        L.save_lm(path, L.train_lm(golden_corpus()))
        assert path.read_bytes() == self.golden_bytes()

    def test_load_and_save_reproduce_the_file(self, tmp_path):
        path = tmp_path / "m.lm"
        L.save_lm(path, L.load_lm(GOLDEN_LM))
        assert path.read_bytes() == self.golden_bytes()

    def test_scores_pinned(self):
        for model in (L.load_lm(GOLDEN_LM), L.train_lm(golden_corpus())):
            assert tuple(L.score(model, seq).hex() for seq in GOLDEN_SEQUENCES) == self.SCORES

    def test_held_bytes_per_count_line(self):
        with open(GOLDEN_LM) as fh:
            lines = sum(1 for _ in fh) - 5
        tracemalloc.start()
        try:
            model = L.load_lm(GOLDEN_LM)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert model.vocab and held / lines <= 48, held / lines
