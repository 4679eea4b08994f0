"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  The end-to-end learning run (criteria 10 and 12) trains the
same seeded protocol twice and takes a few minutes of CPU.
"""

import itertools
from pathlib import Path

import numpy as np
import pytest

from conftest import read_curve
from oracles import (best_labelling_by_enumeration, ctc_posterior_check,
                     ctc_prob_by_enumeration, fd_gradient, lm_order_probability,
                     max_relative_error, osa_distance_by_search, run_alone)
from rcasr import corpus as corpus_mod
from rcasr import ctc as C
from rcasr import evaluate
from rcasr import lm as lm_mod
from rcasr import network as N
from rcasr import trainer
from rcasr.numerics import ParameterStore, make_rng

H = 1e-6


def _pass(num, text):
    print(f"\n[acceptance] criterion {num:02d} PASS - {text}")


def random_stochastic(rng, t, n_labels):
    return rng.dirichlet(np.ones(n_labels), size=t)


# --- criteria 1-2: CTC against exhaustive path enumeration --------------------

def test_criterion_01_ctc_oracle_equivalence():
    rng = make_rng(1001)
    worst = 0.0
    checked = 0
    for t in range(1, 7):
        for n_labels in (2, 3):
            for _ in range(2):
                y = random_stochastic(rng, t, n_labels)
                for ll in range(0, 4):
                    for lab in itertools.product(range(n_labels - 1), repeat=ll):
                        tr = C.ctc_forward(y, lab)
                        p_dp = 0.0 if tr.log_prob == C.NEG_INF else float(np.exp(tr.log_prob))
                        worst = max(worst, abs(p_dp - ctc_prob_by_enumeration(y, lab)))
                        checked += 1
    assert worst <= 1e-10
    _pass(1, f"forward-backward p(l|x) matches enumeration on {checked} instances "
             f"(worst abs diff {worst:.2e})")


def test_criterion_02_ctc_normalization():
    rng = make_rng(1002)
    worst = 0.0
    for t in range(1, 5):
        for n_labels in (2, 3):
            for _ in range(2):
                y = random_stochastic(rng, t, n_labels)
                total = 0.0
                for ll in range(0, t + 1):
                    for lab in itertools.product(range(n_labels - 1), repeat=ll):
                        tr = C.ctc_forward(y, lab)
                        if tr.log_prob != C.NEG_INF:
                            total += float(np.exp(tr.log_prob))
                worst = max(worst, abs(total - 1.0))
    assert worst <= 1e-10
    _pass(2, f"labellings partition path space (worst |sum-1| = {worst:.2e})")


# --- criterion 3: gradient suite ----------------------------------------------

def _layer_instances(kind, rng):
    """One random small instance: returns (loss_fn, [(analytic, value_array)])."""
    if kind == "elu":
        x = rng.normal(size=(int(rng.integers(1, 5)), int(rng.integers(1, 6))))
        layer = N._Elu(1.0)
        target = rng.normal(size=x.shape)

        def loss():
            y, _ = run_alone(layer, x, False)
            return float(np.sum(y * target))

        _, ctx = run_alone(layer, x, False)
        return loss, [(layer.backward(ctx, target), x)]

    store = ParameterStore()
    if kind == "dense":
        d, u = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        layer = N._Affine(store, "p", d, u, rng)
        x = rng.normal(size=(int(rng.integers(1, 5)), d))
        target = rng.normal(size=(x.shape[0], u))
    elif kind == "recurrent":
        d, h = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        layer = N._Recurrent(store, "p", d, h, rng)
        x = rng.normal(size=(int(rng.integers(1, 5)), d))
        target = rng.normal(size=(x.shape[0], h))
    elif kind == "conv2d":
        ci, co = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        layer = N._Conv2d(store, "p", ci, co, rng)
        x = rng.normal(size=(ci, int(rng.integers(1, 5)), int(rng.integers(1, 5))))
        target = rng.normal(size=(co,) + x.shape[1:])
    elif kind == "residual":
        ci = int(rng.integers(1, 4))
        inner = [N._Conv2d(store, "p", ci, ci, rng), N._Elu(1.0),
                 N._Conv2d(store, "q", ci, ci, rng)]
        layer = N._ResidualBlock(inner, 1.0)
        x = rng.normal(size=(ci, int(rng.integers(1, 5)), int(rng.integers(1, 5))))
        target = rng.normal(size=x.shape)
    else:
        raise ValueError(kind)

    def loss():
        y, _ = run_alone(layer, x, False)
        return float(np.sum(y * target))

    _, ctx = run_alone(layer, x, True)
    store.zero_grads()
    dx = layer.backward(ctx, target)
    checks = [(dx, x)] + [(p.grad, p.value) for p in store.entries.values()]
    return loss, checks


def test_criterion_03_gradient_suite():
    rng = make_rng(1003)
    worst = {}
    for kind in ("elu", "dense", "recurrent", "conv2d", "residual"):
        w = 0.0
        for _ in range(100):
            loss, checks = _layer_instances(kind, rng)
            for analytic, value in checks:
                w = max(w, max_relative_error(analytic, fd_gradient(loss, value, h=H)))
        worst[kind] = w
        assert w <= 1e-5, (kind, w)

    w = 0.0
    for _ in range(100):
        t = int(rng.integers(2, 6))
        n_labels = int(rng.integers(2, 5))
        labels = tuple(rng.integers(0, n_labels - 1, size=int(rng.integers(1, 3))))
        if C.min_frames(labels) > t:
            continue
        u = rng.normal(size=(t, n_labels))
        _, grad = C.ctc_loss_and_grad(u, labels)

        def loss():
            val, _ = C.ctc_loss_and_grad(u, labels)
            return val

        w = max(w, max_relative_error(grad, fd_gradient(loss, u, h=H)))
    worst["ctc_loss"] = w
    assert w <= 1e-5

    # end-to-end: recurrent + residual conv pair + dense through the CTC loss
    cfg = N.NetworkConfig(name="tiny", layers=[
        N.recurrent(3), N.conv2d(2), N.elu(), N.conv2d(2), N.elu(),
        N.dense(4), N.elu(), N.linear_output(4),
    ], residual_groups=[(3, 5)])
    w = 0.0
    for i in range(100):
        net = N.build_network(cfg, input_dim=2, rng=make_rng(2000 + i))
        assert net.store.n_params() <= 500
        x = rng.normal(size=(int(rng.integers(3, 6)), 2))
        labels = (0, 1) if x.shape[0] >= 2 else (0,)

        def loss():
            logits, _ = net.forward(x)
            val, _ = C.ctc_loss_and_grad(logits, labels)
            return val

        logits, ctxs = net.forward(x, training=True)
        _, dlogits = C.ctc_loss_and_grad(logits, labels)
        net.store.zero_grads()
        net.backward(ctxs, dlogits)
        for p in net.store.entries.values():
            w = max(w, max_relative_error(p.grad, fd_gradient(loss, p.value, h=H)))
    worst["end_to_end"] = w
    assert w <= 1e-4
    _pass(3, "100-instance FD checks per component, worst rel errors: "
             + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()))


# --- criteria 4-7: trellis diagnostic, residual, shapes, beam -----------------

def test_criterion_04_posterior_reconstruction_constant():
    rng = make_rng(1004)
    worst = 0.0
    for _ in range(50):
        t = int(rng.integers(1, 11))
        n_labels = int(rng.integers(2, 6))
        max_l = min(3, t)
        labels = tuple(rng.integers(0, n_labels - 1, size=int(rng.integers(0, max_l + 1))))
        if C.min_frames(labels) > t:
            continue
        y = random_stochastic(rng, t, n_labels)
        tr = C.ctc_forward(y, labels)
        if tr.log_prob == C.NEG_INF:
            continue
        rec = ctc_posterior_check(tr)
        worst = max(worst, float(np.max(np.abs(rec / np.exp(tr.log_prob) - 1.0))))
    assert worst <= 1e-9
    _pass(4, f"per-t reconstruction constant across t (worst rel spread {worst:.2e})")


def test_criterion_05_residual_identity():
    rng = make_rng(1005)
    store = ParameterStore()
    inner = [N._Conv2d(store, "f1", 2, 2, rng), N._Elu(1.0),
             N._Conv2d(store, "f2", 2, 2, rng)]
    for p in store.entries.values():
        p.value[...] = 0.0
    block = N._ResidualBlock(inner, 1.0)
    for _ in range(10):
        x = np.abs(rng.normal(size=(2, 4, 5)))
        y, ctx = run_alone(block, x, True)
        assert np.array_equal(y, x)
        g = rng.normal(size=x.shape)
        assert np.array_equal(block.backward(ctx, g), g)
    _pass(5, "zeroed-branch residual block is an exact identity (values and gradient)")


def test_criterion_06_conv_shape_preservation():
    rng = make_rng(1006)
    store = ParameterStore()
    layer = N._Conv2d(store, "c", 2, 3, rng)
    for i in range(50):
        t, f = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        y, _ = run_alone(layer, rng.normal(size=(2, t, f)), False)
        assert y.shape == (3, t, f)
    _pass(6, "3x3/stride-1/pad-1 convolution preserved T x F on 50 random shapes")


def test_criterion_07_beam_search_exactness():
    rng = make_rng(1007)
    checked = 0
    for t in range(1, 5):
        for _ in range(10):
            y = random_stochastic(rng, t, 2)
            best_lab, best_p = best_labelling_by_enumeration(y)
            hyps = C.beam_decode(y, width=None)
            assert hyps[0][0] == best_lab
            assert np.exp(hyps[0][1]) == pytest.approx(best_p, abs=1e-10)
            checked += 1
    _pass(7, f"unpruned beam top hypothesis equals brute-force argmax on {checked} instances")


# --- criteria 8-9: edit distance, language model ------------------------------

def test_criterion_08_damerau_levenshtein():
    symbols = range(3)
    seqs = [s for n in range(5) for s in itertools.product(symbols, repeat=n)]
    for a in seqs:
        for b in seqs:
            assert evaluate.damerau_levenshtein(a, b) == osa_distance_by_search(a, b)
    rng = make_rng(1008)
    for _ in range(200):
        a = tuple(rng.integers(0, 4, size=int(rng.integers(0, 8))))
        b = tuple(rng.integers(0, 4, size=int(rng.integers(0, 8))))
        d = evaluate.damerau_levenshtein(a, b)
        assert d == evaluate.damerau_levenshtein(b, a)
        assert (d == 0) == (a == b)
        assert d >= abs(len(a) - len(b))
    _pass(8, f"OSA distance matches exhaustive search on all {len(seqs) ** 2} short pairs; "
             "identity/symmetry/length bound hold")


def test_criterion_09_lm_properties():
    rng = make_rng(1009)
    vocab = ("a", "b", "c", "d")
    corpus = [tuple(rng.choice(vocab, size=int(rng.integers(1, 7)))) for _ in range(40)]
    model = lm_mod.train_lm(corpus)

    events = list(model.vocab) + [lm_mod.EOS]
    worst = 0.0
    for n in lm_mod.ORDERS:
        for d in "FB":
            for ctx in model.table(n, d):
                total = sum(lm_order_probability(model, n, d, ctx, e) for e in events)
                worst = max(worst, abs(total - 1.0))
    for _ in range(20):   # unseen contexts too
        ctx = tuple(rng.choice(vocab, size=2))
        total = sum(lm_order_probability(model, 3, "F", ctx, e) for e in events)
        worst = max(worst, abs(total - 1.0))
    assert worst <= 1e-12

    reversed_model = lm_mod.train_lm([tuple(reversed(s)) for s in corpus])
    for n in lm_mod.ORDERS:
        assert model.table(n, "B") == reversed_model.table(n, "F")

    for _ in range(20):
        hyps = [(tuple(rng.choice(vocab, size=int(rng.integers(0, 5)))),
                 float(rng.normal())) for _ in range(5)]
        best, combined = lm_mod.rectify(model, hyps, lam=0.0)
        top_ctc = max(h[1] for h in hyps)
        assert combined == top_ctc
        assert best in [h[0] for h in hyps if h[1] == top_ctc]
    _pass(9, f"smoothed conditionals sum to 1 (worst {worst:.1e}); backward tables equal "
             "forward-of-reversed exactly; lambda=0 rectification is ranking-neutral")


# --- criteria 10-12: end-to-end protocol --------------------------------------

PROTOCOL_SEED = 900
PROTOCOL_EPOCHS = 50


def protocol_corpus():
    """Seeded 10-phoneme corpus: 300 utterances split 200/50/50."""
    spec = corpus_mod.SyntheticSpec.default(
        n_phonemes=10, rng=make_rng(PROTOCOL_SEED, 1), sigma=0.15)
    spec.means = spec.means * 5.0
    spec.duration_range = (3, 4)
    spec.sentence_length_range = (6, 9)
    corp = corpus_mod.generate_synthetic(spec, 300, make_rng(PROTOCOL_SEED, 2))
    part = corpus_mod.make_partitions(
        corp.ids(), 1, rng=make_rng(PROTOCOL_SEED, 3), sizes=(200, 50, 50))[0]
    return corp, part


def run_protocol(tmpdir):
    corp, part = protocol_corpus()
    cfg = trainer.TrainConfig(
        network="RC-small", lr=5e-5, batch_size=32, epochs=PROTOCOL_EPOCHS,
        seed=PROTOCOL_SEED, dropout=0.0, out_dir=str(tmpdir),
    )
    store, curve = trainer.train(cfg, corp, part)
    return corp, part, store, curve


@pytest.fixture(scope="module")
def protocol_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("protocol_a")
    return out, *run_protocol(out)


def _decode_split(net, corp, ids, decoder):
    refs, hyps = {}, {}
    for i in ids:
        logits, _ = net.forward(corp[i].features)
        y = C.softmax(logits)
        refs[i] = corp[i].labels
        hyps[i] = decoder(y)
    return evaluate.per(refs, hyps).aggregate


def test_criterion_10_end_to_end_learning(protocol_run):
    _, corp, part, store, curve = protocol_run
    initial, final = curve.rows[0].train_cost, curve.rows[-1].train_cost
    assert final < 0.5 * initial, (initial, final)

    net = N.build_network(N.catalog()["RC-small"], output_units=corp.alphabet.size,
                          rng=make_rng(0), dropout_override=0.0)
    for name, p in store.entries.items():
        net.store[name].value[...] = p.value

    greedy = lambda y: corp.alphabet.decode(C.greedy_decode(y))
    greedy_test = _decode_split(net, corp, part.test, greedy)
    assert greedy_test < 0.5 * 1.0, greedy_test   # empty-hypothesis baseline PER is 1.0

    model = lm_mod.train_lm([corp[i].labels for i in part.train])

    def rescored(lam):
        def decode(y):
            hyps = C.beam_decode(y, width=16)
            sym = [(corp.alphabet.decode(h), s) for h, s in hyps]
            best, _ = lm_mod.rectify(model, sym, lam)
            return best
        return decode

    grid = (0.0, 0.1, 0.3, 0.5, 1.0)
    val_pers = {lam: _decode_split(net, corp, part.val, rescored(lam)) for lam in grid}
    best_lam = min(grid, key=lambda l: (val_pers[l], l))
    lm_test = _decode_split(net, corp, part.test, rescored(best_lam))
    assert lm_test <= greedy_test, (lm_test, greedy_test)
    _pass(10, f"train cost {initial:.1f} -> {final:.2f} (ratio {final / initial:.3f} < 0.5); "
              f"greedy test PER {greedy_test:.4f} < 0.5; beam-16 + LM (lambda={best_lam}) "
              f"test PER {lm_test:.4f} <= greedy")


def test_criterion_11_comparison_harness(tmp_path, tiny_corpus, tiny_partition):
    names = ["RC2-toy", "CR2-toy", "Res-RC2-toy", "Res-CR2-toy"]
    cfg = trainer.TrainConfig(lr=0.002, batch_size=8, epochs=3, seed=77, dropout=0.0)
    results, errors = trainer.compare_architectures(
        names, cfg, tiny_corpus, tiny_partition, str(tmp_path))
    assert not errors
    logs = {}
    for name in names:
        curve = read_curve(results[name])
        assert len(curve.rows) == 3                       # one marker per epoch
        assert [r.epoch for r in curve.rows] == [1, 2, 3]
        minutes = [r.wall_clock_minutes for r in curve.rows]
        assert minutes == sorted(minutes)                 # usable as a time axis
        with open(results[name]) as fh:
            header = fh.readline().strip()
        assert header == "epoch,wall_clock_minutes,train_cost,val_cost,val_per"
        text = Path(tmp_path, f"{name}_batches.log").read_text()
        logs[name] = [ln for ln in text.splitlines() if " ids " in ln]
    assert all(logs[n] == logs[names[0]] for n in names)  # identical batch streams
    _pass(11, "compare harness emitted cost-vs-wall-clock CSVs for the four toy "
              "architectures on identical seeds/data")


def test_criterion_12_protocol_determinism(protocol_run, tmp_path_factory):
    out_a, corp_a, part_a, store_a, curve_a = protocol_run
    out_b = tmp_path_factory.mktemp("protocol_b")
    corp_b, part_b, store_b, curve_b = run_protocol(out_b)

    assert len(curve_a.rows) == len(curve_b.rows) == PROTOCOL_EPOCHS
    for ra, rb in zip(curve_a.rows, curve_b.rows):
        # wall clock is the one machine-dependent column; every numeric
        # training quantity must be bit-identical
        assert ra.train_cost == rb.train_cost
        assert ra.val_cost == rb.val_cost
        assert ra.val_per == rb.val_per

    ckpt = f"RC-small_{PROTOCOL_EPOCHS}.ckpt"
    assert Path(out_a, ckpt).read_bytes() == Path(out_b, ckpt).read_bytes()
    log = "RC-small_batches.log"
    assert Path(out_a, log).read_text() == Path(out_b, log).read_text()
    _pass(12, "repeated protocol run is bit-identical (cost curve, batch stream, "
              "checkpoint bytes)")
