import itertools
import tracemalloc

import numpy as np
import pytest

from oracles import (beam_decode_by_dicts, best_labelling_by_enumeration,
                     ctc_forward_two_loops, ctc_log_trellis_by_frames,
                     ctc_loss_and_grad_log_space, ctc_loss_and_grad_scaled,
                     ctc_posterior_check, ctc_prob_by_enumeration, fd_gradient,
                     max_relative_error)
from rcasr import ctc as C
from rcasr.numerics import make_rng

NEG_INF = float("-inf")


def random_stochastic(rng, t, n_labels):
    return rng.dirichlet(np.ones(n_labels), size=t)


class TestAlphabet:
    def test_timit_has_61_plus_blank(self):
        a = C.timit_alphabet()
        assert len(a.non_blank) == 61
        assert a.blank == 61
        assert a.size == 62

    def test_encode_decode_round_trip(self):
        a = C.synthetic_alphabet(5)
        ids = a.encode(("p0", "p3", "p3"))
        assert ids == (0, 3, 3)
        assert a.decode(ids) == ("p0", "p3", "p3")

    def test_unknown_symbol_rejected(self):
        with pytest.raises(KeyError, match="zz"):
            C.synthetic_alphabet(3).encode(("p0", "zz"))

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ValueError):
            C.Alphabet(non_blank=("a", "a"))


class TestExtendedLabel:
    def test_interleaving(self):
        assert list(C.extend_label((0, 1), 9)) == [9, 0, 9, 1, 9]

    def test_length_and_parity(self):
        for n in range(5):
            ext = C.extend_label(tuple(range(n)), 99)
            assert ext.size == 2 * n + 1
            assert all(ext[i] == 99 for i in range(0, ext.size, 2))

    def test_min_frames_counts_repeats(self):
        assert C.min_frames(()) == 0
        assert C.min_frames((1, 2, 3)) == 3
        assert C.min_frames((1, 1)) == 3
        assert C.min_frames((1, 1, 1, 2)) == 6


class TestForward:
    def test_single_frame_single_label(self):
        y = np.array([[0.3, 0.2, 0.5]])
        tr = C.ctc_forward(y, (0,))
        assert np.exp(tr.log_prob) == pytest.approx(0.3, abs=1e-12)

    def test_two_frame_uniform_three_quarters(self):
        # paths aa, a-, -a all collapse to (a); only -- does not
        y = np.array([[0.5, 0.5], [0.5, 0.5]])
        tr = C.ctc_forward(y, (0,))
        assert np.exp(tr.log_prob) == pytest.approx(0.75, abs=1e-12)

    def test_repeated_label_forces_blank(self):
        rng = make_rng(70)
        y = random_stochastic(rng, 3, 3)
        tr = C.ctc_forward(y, (0, 0))
        expected = y[0, 0] * y[1, 2] * y[2, 0]
        assert np.exp(tr.log_prob) == pytest.approx(expected, abs=1e-14)

    def test_empty_label_is_all_blanks(self):
        rng = make_rng(71)
        y = random_stochastic(rng, 4, 3)
        tr = C.ctc_forward(y, ())
        assert np.exp(tr.log_prob) == pytest.approx(np.prod(y[:, 2]), abs=1e-14)

    def test_too_short_returns_sentinel(self):
        y = random_stochastic(make_rng(72), 2, 3)
        assert C.ctc_forward(y, (0, 0)).log_prob == NEG_INF
        assert C.ctc_forward(y, (0, 1, 0)).log_prob == NEG_INF

    def test_alpha_end_states_give_log_prob(self):
        y = random_stochastic(make_rng(73), 6, 4)
        tr = C.ctc_forward(y, (0, 1, 2))
        assert np.logaddexp(*tr.log_alpha[-1, -2:]) == tr.log_prob

    def test_beta_start_states_agree_with_alpha(self):
        y = random_stochastic(make_rng(74), 7, 4)
        tr = C.ctc_forward(y, (1, 0))
        assert np.logaddexp(*tr.log_beta[0, :2]) == pytest.approx(tr.log_prob, abs=1e-12)
        # states that cannot reach an end state keep a finite alpha
        assert np.isneginf(tr.log_beta[-1, :-2]).all() and np.isfinite(tr.log_alpha[-1]).all()

    def test_row_sum_validated(self):
        y = np.full((3, 3), 0.5)
        with pytest.raises(ValueError, match="sums to"):
            C.ctc_forward(y, (0,))

    def test_label_out_of_range(self):
        y = random_stochastic(make_rng(75), 3, 3)
        with pytest.raises(ValueError, match="out of range"):
            C.ctc_forward(y, (2,))   # 2 is the blank here


class TestExhaustiveEquivalence:
    def test_dp_equals_enumeration(self):
        rng = make_rng(76)
        worst = 0.0
        for t in range(1, 7):
            for n_labels in (2, 3):
                y = random_stochastic(rng, t, n_labels)
                for ll in range(0, 4):
                    for lab in itertools.product(range(n_labels - 1), repeat=ll):
                        tr = C.ctc_forward(y, lab)
                        p_dp = 0.0 if tr.log_prob == NEG_INF else np.exp(tr.log_prob)
                        worst = max(worst, abs(p_dp - ctc_prob_by_enumeration(y, lab)))
        assert worst <= 1e-10

    def test_labellings_partition_path_space(self):
        rng = make_rng(77)
        for t in range(1, 5):
            y = random_stochastic(rng, t, 3)
            total = 0.0
            for ll in range(0, t + 1):
                for lab in itertools.product(range(2), repeat=ll):
                    tr = C.ctc_forward(y, lab)
                    if tr.log_prob != NEG_INF:
                        total += np.exp(tr.log_prob)
            assert total == pytest.approx(1.0, abs=1e-10)


class TestLossAndGrad:
    def test_uniform_example_loss(self):
        u = np.zeros((2, 2))   # softmax -> uniform halves
        loss, _ = C.ctc_loss_and_grad(u, (0,))
        assert loss == pytest.approx(-np.log(0.75), abs=1e-12)

    def test_grad_rows_sum_to_zero(self):
        rng = make_rng(78)
        u = rng.normal(size=(5, 4))
        _, grad = C.ctc_loss_and_grad(u, (0, 2))
        assert np.max(np.abs(grad.sum(axis=1))) <= 1e-12

    def test_finite_difference_agreement(self):
        rng = make_rng(79)
        u = rng.normal(size=(5, 4))
        labels = (0, 1)
        _, grad = C.ctc_loss_and_grad(u, labels)

        def loss():
            val, _ = C.ctc_loss_and_grad(u, labels)
            return val

        assert max_relative_error(grad, fd_gradient(loss, u)) <= 1e-6

    def test_many_random_instances(self):
        rng = make_rng(80)
        for _ in range(25):
            t = int(rng.integers(2, 7))
            n_labels = int(rng.integers(2, 5))
            max_l = min(t, 3)
            ll = int(rng.integers(1, max_l + 1))
            labels = tuple(rng.integers(0, n_labels - 1, size=ll))
            if C.min_frames(labels) > t:
                continue
            u = rng.normal(size=(t, n_labels))
            _, grad = C.ctc_loss_and_grad(u, labels)

            def loss():
                val, _ = C.ctc_loss_and_grad(u, labels)
                return val

            assert max_relative_error(grad, fd_gradient(loss, u)) <= 1e-5

    def test_infeasible_raises(self):
        u = np.zeros((2, 3))
        with pytest.raises(C.InfeasibleLabel, match="infeasible"):
            C.ctc_loss_and_grad(u, (0, 0))

    def test_nonfinite_input_rejected(self):
        u = np.zeros((2, 3))
        u[0, 0] = np.nan
        with pytest.raises(ValueError):
            C.ctc_loss_and_grad(u, (0,))


class TestPosteriorCheck:
    def test_constant_across_time(self):
        rng = make_rng(81)
        for _ in range(10):
            t = int(rng.integers(1, 9))
            y = random_stochastic(rng, t, 4)
            labels = (0, 1) if t >= 2 else (0,)
            tr = C.ctc_forward(y, labels)
            rec = ctc_posterior_check(tr)
            p = np.exp(tr.log_prob)
            assert np.max(np.abs(rec / p - 1.0)) <= 1e-9

    def test_single_frame(self):
        y = np.array([[0.25, 0.75]])
        tr = C.ctc_forward(y, (0,))
        rec = ctc_posterior_check(tr)
        assert rec[0] == pytest.approx(0.25, abs=1e-14)

    def test_matches_enumeration_on_small_instances(self):
        rng = make_rng(82)
        for t in range(1, 5):
            y = random_stochastic(rng, t, 3)
            for lab in [(), (0,), (1,), (0, 1)]:
                tr = C.ctc_forward(y, lab)
                if tr.log_prob == NEG_INF:
                    continue
                rec = ctc_posterior_check(tr)
                ref = ctc_prob_by_enumeration(y, lab)
                assert np.allclose(rec, ref, atol=1e-12)


def labels_filling(rng, n_symbols, frames, repeats):
    """A random label of `frames - repeats` symbols, exactly `repeats` of
    them equal to their predecessor, so that its min_frames is `frames`;
    None where no such label exists."""
    length = frames - repeats
    if not 0 <= repeats < length or (n_symbols == 1 and repeats != length - 1):
        return None
    same = np.zeros(length - 1, dtype=bool)
    same[rng.choice(length - 1, size=repeats, replace=False)] = True
    labels = [int(rng.integers(n_symbols))]
    for repeat in same:
        step = 0 if repeat else 1 + int(rng.integers(n_symbols - 1))
        labels.append((labels[-1] + step) % n_symbols)
    return tuple(labels)


def trellis_cases(rng):
    """(y, labels) over T from 1 to 300: the empty label, random labels with
    repeats, labels with min_frames = T with and without repeats, labels with
    repeats and slack, and rows with exact zeros."""
    for n_labels in (2, 3, 11, 62):
        n_sym = n_labels - 1

        def with_repeats(frames):
            return labels_filling(rng, n_sym, frames,
                                  (frames - 1) // 2 if n_sym == 1 else frames // 3)

        for t in (1, 2, 3, 4, 5, 6, 7, 9, 12, 16, 23, 31, 47, 64, 100, 151, 222, 300):
            labelings = [(), tuple(rng.integers(n_sym, size=int(rng.integers(1, t + 1)))),
                         labels_filling(rng, n_sym, t, 0), with_repeats(t),
                         with_repeats(t // 2 + 1)]
            for zeros in (False, True):
                y = random_stochastic(rng, t, n_labels)
                if zeros:
                    y[rng.random(y.shape) < 0.2] = 0.0
                    y[y.sum(axis=1) == 0.0, -1] = 1.0
                    y /= y.sum(axis=1, keepdims=True)
                for labels in labelings:
                    if labels is not None:
                        yield y, labels


def assert_loss_and_grad_close(got, want, case):
    """Loss within 1e-12 relative, gradient within 5e-12 absolute."""
    assert abs(got[0] - want[0]) <= 1e-12 * max(1.0, abs(want[0])), case
    assert np.max(np.abs(got[1] - want[1]), initial=0.0) <= 5e-12, case


class TestTrellisMatchesTwoLoopOracle:
    """One log-space pass, run forward and on the reversed problem, against
    the frame-loop log-space oracle, and against the scaled two-loop
    trellis and scaled loss it replaced wherever those give a number."""

    def test_forward_backward(self):
        checked = scaled = 0
        for y, labels in trellis_cases(make_rng(92)):
            got = C.ctc_forward(y, labels)
            with np.errstate(divide="ignore"):
                want = ctc_log_trellis_by_frames(np.log(y), labels)
            case = (y.shape, labels)
            for a, b in ((got.log_alpha, want.log_alpha), (got.log_beta, want.log_beta)):
                assert np.array_equal(np.isfinite(a), np.isfinite(b)), case
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0, err_msg=str(case))
            assert got.log_prob == pytest.approx(want.log_prob, rel=1e-12), case
            checked += 1
            old = ctc_forward_two_loops(y, labels)
            if old.log_prob == NEG_INF:
                continue
            scaled += 1
            # inside the scaled window, alpha (beta) unscaled by the running
            # sum of ln C_t (ln D_t) are the log-space values; 5e-12 because
            # both differ by a few ulps of ln values up to about 1500
            T, S = got.log_alpha.shape
            cum_c = np.cumsum(old.log_alpha_scale)
            cum_d = np.cumsum(old.log_beta_scale[::-1])[::-1]
            for t in range(T):
                lo, hi = max(0, S - 2 * (T - t)), min(S, 2 * (t + 1))
                np.testing.assert_allclose(np.exp(got.log_alpha[t, lo:hi] - cum_c[t]),
                                           old.alpha[t, lo:hi], rtol=0.0, atol=5e-12,
                                           err_msg=str(case))
                np.testing.assert_allclose(np.exp(got.log_beta[t, lo:hi] - cum_d[t]),
                                           old.beta[t, lo:hi], rtol=0.0, atol=5e-12,
                                           err_msg=str(case))
            assert got.log_prob == pytest.approx(old.log_prob, rel=1e-12), case
        assert checked == 650 and scaled > 400, (checked, scaled)

    def test_loss_and_grad(self):
        """Only the infeasible labellings raise; every other one matches the
        log-space oracle as a one-utterance call and in a chunk of up to 7,
        and the frozen scaled loss wherever that one does not abort."""
        rng = make_rng(93)
        infeasible = scaled = 0
        by_width = {}
        for y, labels in trellis_cases(rng):
            # softmax(-1000) underflows to an exact zero
            u = np.where(y == 0.0, -1000.0, rng.normal(scale=3.0, size=y.shape))
            case = (y.shape, labels)
            if C.min_frames(labels) > len(u):
                with pytest.raises(C.InfeasibleLabel):
                    C.ctc_loss_and_grad(u, labels)
                infeasible += 1
                continue
            got = C.ctc_loss_and_grad(u, labels)
            want = ctc_loss_and_grad_log_space(u, labels)
            assert_loss_and_grad_close(got, want, case)
            by_width.setdefault(y.shape[1], []).append((u, labels, want))
            try:
                old = ctc_loss_and_grad_scaled(u, labels)
            except ArithmeticError:
                continue
            assert_loss_and_grad_close(got, old, case)
            scaled += 1
        feasible = 0
        for cases in by_width.values():
            for c0 in range(0, len(cases), 7):
                chunk = cases[c0:c0 + 7]
                lengths = [len(u) for u, _, _ in chunk]
                losses, grad = C.ctc_loss_and_grad(np.concatenate([u for u, _, _ in chunk]),
                                                   [lab for _, lab, _ in chunk], lengths)
                for (u, labels, want), got in zip(chunk, zip(
                        losses, np.split(grad, np.cumsum(lengths)[:-1]))):
                    assert_loss_and_grad_close(got, want, (u.shape, labels))
                    feasible += 1
        assert (infeasible, feasible, scaled) == (28, 622, 415)

    def test_saturated_label_filling_all_frames(self):
        # 200 symbols, 100 of them repeats, in 300 frames: the scaled
        # recursion's posterior scale needed exp(814) and overflowed
        rng = make_rng(0)
        labels = labels_filling(rng, 10, 300, 100)
        u = rng.normal(scale=3.0, size=(300, 11))
        assert C.min_frames(labels) == 300
        with pytest.raises(FloatingPointError):
            ctc_loss_and_grad_scaled(u, labels)
        got = C.ctc_loss_and_grad(u, labels)
        assert np.isfinite(got[0])
        assert_loss_and_grad_close(got, ctc_loss_and_grad_log_space(u, labels), labels)


class TestChunkMatchesOneUtterancePath:
    """One recursion over a chunk of utterances against each utterance's
    own, on chunks that mix frame counts (1 to 300) and label lengths."""

    def test_loss_and_grad(self):
        rng = make_rng(94)
        by_width = {}
        for y, labels in trellis_cases(rng):
            if C.min_frames(labels) <= len(y):
                by_width.setdefault(y.shape[1], []).append(
                    (rng.normal(scale=3.0, size=y.shape), labels))
        compared = failed = 0
        for cases in by_width.values():
            for c0 in range(0, len(cases), 7):
                chunk = cases[c0:c0 + 7]
                want = []
                for u, labels in chunk:
                    try:
                        want.append(C.ctc_loss_and_grad(u, labels))
                    except ArithmeticError:
                        failed += 1
                if len(want) < len(chunk):
                    continue
                lengths = [len(u) for u, _ in chunk]
                losses, grad = C.ctc_loss_and_grad(np.concatenate([u for u, _ in chunk]),
                                                   [lab for _, lab in chunk], lengths)
                for (loss, g), got_loss, got_g in zip(
                        want, losses, np.split(grad, np.cumsum(lengths)[:-1])):
                    assert abs(got_loss - loss) <= 1e-12 * max(1.0, abs(loss))
                    assert np.max(np.abs(got_g - g)) <= 1e-12
                    compared += 1
        assert compared > 600 and failed == 0, (compared, failed)

    def test_empty_utterance_and_errors_name_the_utterance(self):
        u = make_rng(95).normal(size=(9, 4))
        lengths = [2, 0, 3, 4]
        losses, grad = C.ctc_loss_and_grad(u, [(0,), (), (1, 2), (2,)], lengths)
        assert losses[1] == 0.0 and grad.shape == u.shape
        want, _ = C.ctc_loss_and_grad(u[5:], (2,))
        assert abs(losses[3] - want) <= 1e-12
        with pytest.raises(C.InfeasibleLabel) as info:
            C.ctc_loss_and_grad(u, [(0,), (), (1, 1, 1), (2,)], lengths)
        assert info.value.utterance == 2
        u[6, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite") as info:
            C.ctc_loss_and_grad(u, [(0,), (), (1, 2), (2,)], lengths)
        assert info.value.utterance == 3


class TestGreedy:
    def test_hand_case(self):
        # frame argmaxes: a a blank a b b  -> (a, a, b)
        blank = 2
        y = np.zeros((6, 3))
        for t, k in enumerate([0, 0, blank, 0, 1, 1]):
            y[t, k] = 1.0
        assert C.greedy_decode(y) == (0, 0, 1)

    def test_all_blank_empty(self):
        y = np.zeros((4, 3))
        y[:, 2] = 1.0
        assert C.greedy_decode(y) == ()

    def test_collapse_idempotence_facets(self):
        # The literal composite map is NOT idempotent: (a, blank, a) collapses
        # to (a, a), which a second application would merge.  What does hold:
        # repeat-merging alone is idempotent, and collapsing a repeat-merged
        # path gives the same labelling as collapsing the original.
        def merge_repeats(path):
            out = []
            for p in path:
                if not out or p != out[-1]:
                    out.append(p)
            return tuple(out)

        rng = make_rng(83)
        for _ in range(50):
            path = tuple(int(v) for v in rng.integers(0, 4, size=10))
            merged = merge_repeats(path)
            assert merge_repeats(merged) == merged
            assert C.collapse(merged, 3) == C.collapse(path, 3)
        # the documented counterexample to full idempotence
        assert C.collapse((0, 3, 0), 3) == (0, 0)
        assert C.collapse((0, 0), 3) == (0,)


class TestBeam:
    def test_invalid_width(self):
        y = np.full((2, 2), 0.5)
        with pytest.raises(ValueError, match="width"):
            C.beam_decode(y, width=0)

    def test_exhaustive_width_is_exact(self):
        rng = make_rng(84)
        for _ in range(15):
            t = int(rng.integers(1, 5))
            y = random_stochastic(rng, t, 2)
            best_lab, best_p = best_labelling_by_enumeration(y)
            hyps = C.beam_decode(y, width=None)
            assert hyps[0][0] == best_lab
            assert np.exp(hyps[0][1]) == pytest.approx(best_p, abs=1e-10)

    def test_width_one_equals_greedy_when_dominant(self):
        rng = make_rng(85)
        for _ in range(10):
            t = int(rng.integers(2, 6))
            # strongly peaked rows: one label takes ~97% per frame
            y = np.full((t, 3), 0.015)
            for ti in range(t):
                y[ti, int(rng.integers(0, 3))] = 0.97
            y /= y.sum(axis=1, keepdims=True)
            hyps = C.beam_decode(y, width=1)
            assert hyps[0][0] == C.greedy_decode(y)

    def test_scores_are_exact_label_probs(self):
        y = random_stochastic(make_rng(86), 3, 3)
        for lab, log_p in C.beam_decode(y, width=None):
            assert np.exp(log_p) == pytest.approx(
                ctc_prob_by_enumeration(y, lab), abs=1e-12)


def posteriors(rng, kind, t, n_labels):
    """T x L rows of one kind: dirichlet `random`, `zeros` (about a third of
    the entries exactly 0, some rows a single label), or `uniform` (every
    candidate ties, so only the tie order decides)."""
    if kind == "uniform":
        return np.full((t, n_labels), 1.0 / n_labels)
    y = random_stochastic(rng, t, n_labels)
    if kind == "zeros":
        y[rng.random(y.shape) < 0.35] = 0.0
        single = rng.random(t) < 0.2
        y[single] = 0.0
        y[single, rng.integers(0, n_labels, int(single.sum()))] = 1.0
        y[y.sum(axis=1) == 0.0, -1] = 1.0
        y /= y.sum(axis=1, keepdims=True)
    return y


def oracle_cases(rng):
    """Seeded (y, width) pairs over L in {2, 3, 12, 62}, T from 1 to 300."""
    for n_labels in (2, 3, 12, 62):
        for t in (1, 2, 3, 4, 9, 40):
            widths = [1, 4, 16]
            if t <= (4 if n_labels <= 12 else 2):
                widths.append(None)
            for kind in ("random", "zeros", "uniform"):
                y = posteriors(rng, kind, t, n_labels)
                for width in widths:
                    yield y, width
    for kind, t in (("random", 300), ("zeros", 120), ("uniform", 120)):
        yield posteriors(rng, kind, t, 62), 16


class TestBeamMatchesDictOracle:
    """The array-form search against the dict-of-prefixes search it replaced:
    the same prefixes in the same order, ties included."""

    def test_without_lm_exact(self):
        for y, width in oracle_cases(make_rng(89)):
            got = C.beam_decode(y, width=width)
            want = beam_decode_by_dicts(y, width=width)
            assert [h[0] for h in got] == [h[0] for h in want], (y.shape, width)
            assert [h[1] for h in got] == [h[1] for h in want], (y.shape, width)


class TestBeamMemory:
    def test_peak_independent_of_prefixes_generated(self):
        # nothing may be kept per prefix ever generated, O(T * W * L): the
        # dict search's LM bonuses took over 100 MB already at T=300
        rng = make_rng(91)
        y = random_stochastic(rng, 600, C.timit_alphabet().size)
        tracemalloc.start()
        try:
            C.beam_decode(y, width=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"
