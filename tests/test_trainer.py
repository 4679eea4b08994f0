import importlib.util
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import read_curve
from oracles import train_step_per_utterance
from rcasr import cli  # noqa: F401  (the benchmark tracer wraps every rcasr module)
from rcasr import corpus as corpus_mod
from rcasr import ctc as ctc_mod
from rcasr import network as N
from rcasr import trainer as T
from rcasr.network import build_network, catalog
from rcasr.numerics import adam_step, load_checkpoint, make_rng


def small_setup(n=12, seed=400):
    spec = corpus_mod.SyntheticSpec.default(n_phonemes=3, rng=make_rng(seed), sigma=0.2)
    spec.duration_range = (3, 6)
    spec.sentence_length_range = (2, 4)
    corp = corpus_mod.generate_synthetic(spec, n, make_rng(seed + 1))
    part = corpus_mod.make_partitions(corp.ids(), 1, rng=make_rng(seed + 2),
                                      sizes=(n - 4, 2, 2))[0]
    return corp, part


class TestTrainBasics:
    def test_zero_epochs_returns_initial_parameters(self):
        corp, part = small_setup()
        cfg = T.TrainConfig(network="RC2-toy", epochs=0, seed=3, dropout=0.0)
        store, curve = T.train(cfg, corp, part)
        fresh = build_network(catalog()["RC2-toy"], output_units=corp.alphabet.size,
                              rng=make_rng(3, 1), dropout_override=0.0)
        assert curve.rows == []
        for name in fresh.store.names():
            assert np.array_equal(store[name].value, fresh.store[name].value)

    def test_lr_zero_freezes_parameters(self):
        corp, part = small_setup()
        cfg = T.TrainConfig(network="RC2-toy", lr=0.0, epochs=2, batch_size=4,
                            seed=4, dropout=0.0)
        store, curve = T.train(cfg, corp, part)
        fresh = build_network(catalog()["RC2-toy"], output_units=corp.alphabet.size,
                              rng=make_rng(4, 1), dropout_override=0.0)
        for name in fresh.store.names():
            assert np.array_equal(store[name].value, fresh.store[name].value)
        assert len(curve.rows) == 2

    def test_invalid_config_rejected(self):
        for lr in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=r"learning rate must be in \[0, inf\)"):
                T.TrainConfig(lr=lr)
        with pytest.raises(ValueError):
            T.TrainConfig(batch_size=0)
        with pytest.raises(ValueError, match="epochs"):
            T.TrainConfig(epochs=-2)
        with pytest.raises(ValueError, match="checkpoint_every"):
            T.TrainConfig(checkpoint_every=-1)

    def test_infeasible_utterances_skipped_with_warning(self, caplog):
        corp, part = small_setup()
        first_train = part.train[0]
        utt = corp[first_train]
        corp.utterances[first_train] = corpus_mod.Utterance(
            id=first_train, labels=utt.labels, features=utt.features[:1])
        cfg = T.TrainConfig(network="baseline", lr=0.001, epochs=1, batch_size=4,
                            seed=5, dropout=0.0)
        import logging

        with caplog.at_level(logging.WARNING):
            T.train(cfg, corp, part)
        assert any("infeasible" in rec.message for rec in caplog.records)

    def test_nonfinite_abort_carries_context(self):
        corp, part = small_setup()
        bad = corp[part.train[0]]
        # forces an overflow to inf downstream (1e200 only saturated the
        # softmax, which the log-space CTC trains through)
        bad.features[0, 0] = 1e308
        cfg = T.TrainConfig(network="baseline", lr=0.5, epochs=1, batch_size=4,
                            seed=6, dropout=0.0)
        with pytest.raises((FloatingPointError, ValueError), match="epoch|non-finite"):
            T.train(cfg, corp, part)


    def test_abort_names_the_failing_utterance(self):
        corp, part = small_setup()
        bad = corp[part.train[3]]
        bad.features[1, 2] = np.inf
        cfg = T.TrainConfig(network="RC-small", lr=0.001, epochs=1, batch_size=32,
                            seed=6, dropout=0.0)
        with pytest.raises(FloatingPointError, match=f"epoch 1, batch 1, utterance '{bad.id}': "
                                                     "non-finite logits"):
            T.train(cfg, corp, part)


def context_bytes(ctxs):
    """Bytes of the distinct base arrays in a training forward's contexts;
    a chunk's index arrays (_Chunk) are not counted."""
    bases = {}

    def walk(obj):
        if isinstance(obj, np.ndarray):
            while obj.base is not None:
                obj = obj.base
            bases[id(obj)] = obj.nbytes
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                walk(item)

    walk(ctxs)
    return sum(bases.values())


# Bytes per frame of every catalog model's training contexts at dropout None
# (each config's own rate, 0.1), 0 and 0.1.  They set the chunk boundaries,
# and so which random numbers each utterance's dropout masks get.
DROPOUTS = (None, 0.0, 0.1)
FRAME_BYTES = {
    "CR1": (19896, 17848, 19896),
    "CR2": (24264, 22216, 24264),
    "CR2-toy": (12888, 11096, 12888),
    "CR3": (15240, 12808, 15240),
    "CR4": (12408, 10360, 12408),
    "RC-small": (17976, 15416, 17976),
    "RC1": (261432, 253240, 261432),
    "RC2": (147768, 139576, 147768),
    "RC2-toy": (17976, 16184, 17976),
    "RC3": (255288, 249144, 255288),
    "RC4": (141624, 135480, 141624),
    "RC5": (23864, 22328, 23864),
    "RC6": (21304, 19768, 21304),
    "Res-CR2": (24264, 22216, 24264),
    "Res-CR2-toy": (12888, 11096, 12888),
    "Res-RC2": (147768, 139576, 147768),
    "Res-RC2-toy": (17976, 16184, 17976),
    "baseline": (824, 824, 824),
}


class _KeepsScaledInput:
    """A test-only step with no byte description: it passes its input on and
    keeps a new array of its shape."""

    def forward(self, x, training, chunk):
        return x, 2.0 * x

    def backward(self, ctx, g):
        return g


class TestChunks:
    def test_chunks_cut_consecutive_runs_within_the_budget(self, monkeypatch):
        net = build_network(catalog()["RC-small"], output_units=4)
        monkeypatch.setattr(N, "_CHUNK_BYTES", 10 * net.frame_bytes)
        lengths = [3, 4, 3, 12, 1, 2, 9, 9]
        assert list(net.chunks(lengths)) == [(0, 3), (3, 4), (4, 6), (6, 7), (7, 8)]
        assert list(net.chunks([])) == []

    @pytest.mark.parametrize("dropout", DROPOUTS)
    @pytest.mark.parametrize("name", sorted(catalog()))
    def test_frame_bytes_count_each_kept_array_once(self, name, dropout):
        net = build_network(catalog()[name], dropout_override=dropout)
        assert net.frame_bytes == FRAME_BYTES[name][DROPOUTS.index(dropout)]
        lengths = [7, 1, 4]
        _, ctxs = net.forward([np.ones((t, 39)) for t in lengths], training=True,
                              rng=make_rng(84))
        assert context_bytes(ctxs) == net.frame_bytes * sum(lengths)
        # one frame alone may keep less: its one-map reshape is a view
        _, ctxs = net.forward(np.ones((1, 39)), training=True, rng=make_rng(84))
        assert context_bytes(ctxs) <= net.frame_bytes

    def test_frame_bytes_count_a_step_without_a_byte_description(self):
        base = build_network(catalog()["baseline"])
        net = N.Network(base.config, base.store, [_KeepsScaledInput()] + base.steps,
                        base.input_dim, base.output_units)
        assert net.frame_bytes == base.frame_bytes + 39 * 8
        _, ctxs = net.forward(np.ones((5, 39)), training=True)
        assert context_bytes(ctxs) == net.frame_bytes * 5

    @pytest.mark.parametrize("name", sorted(catalog()))
    def test_multi_utterance_chunks_keep_at_most_the_budget(self, name):
        rng = make_rng(85)
        lengths = [1, 2, 3, 2] + [int(t) for t in rng.integers(1, 60, size=30)]
        net = build_network(catalog()[name], dropout_override=0.1)
        multi = [(a, b) for a, b in net.chunks(lengths) if b - a > 1]
        assert multi
        for a, b in multi:
            _, ctxs = net.forward([rng.normal(size=(t, 39)) for t in lengths[a:b]],
                                  training=True, rng=rng)
            assert context_bytes(ctxs) <= N._CHUNK_BYTES

    def test_paper_size_forward_keeps_under_80_mib(self):
        net = build_network(catalog()["RC1"])
        _, ctxs = net.forward(make_rng(86).normal(size=(300, 39)), training=True,
                              rng=make_rng(87))
        assert context_bytes(ctxs) <= 80 << 20

    @pytest.mark.parametrize("name", ["RC-small", "CR2-toy", "Res-RC2-toy"])
    def test_chunk_matches_per_utterance_oracle(self, name):
        # lengths differ by more than 2x and one utterance has a single frame
        rng = make_rng(80)
        lengths = [1, 23, 9, 4, 17, 2]
        xs = [rng.normal(size=(t, 39)) for t in lengths]
        labels = [tuple(int(v) for v in rng.integers(0, 10, size=max(1, t // 3)))
                  for t in lengths]
        net = build_network(catalog()[name], output_units=11, rng=make_rng(81),
                            dropout_override=0.0)
        logits, ctxs = net.forward(xs, training=True)
        losses, dlogits = ctc_mod.ctc_loss_and_grad(logits, labels, lengths)
        dxs = np.split(net.backward(ctxs, dlogits), np.cumsum(lengths)[:-1])
        chunked = {name: p.grad.copy() for name, p in net.store.entries.items()}
        net.store.zero_grads()
        want_losses, want_dxs = train_step_per_utterance(net, xs, labels)
        assert np.max(np.abs(losses - want_losses)) <= 1e-12
        for dx, want in zip(dxs, want_dxs):
            assert np.max(np.abs(dx - want)) <= 1e-12
        for param, p in net.store.entries.items():
            assert np.max(np.abs(chunked[param] - p.grad)) <= 1e-12, param


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTrainingMemoryBounded:
    def test_toy_batch_peak_follows_the_chunk_budget(self, monkeypatch):
        # one mini-batch of 32 toy utterances (mean T about 26): its peak is
        # one chunk's contexts (the budget) plus one step's transient arrays
        # over that chunk (at most about as much again); the whole batch at
        # once keeps several times the budget in contexts alone
        spec = corpus_mod.SyntheticSpec.default(n_phonemes=10, rng=make_rng(82, 1), sigma=0.15)
        spec.duration_range = (3, 4)
        spec.sentence_length_range = (6, 9)
        corp = corpus_mod.generate_synthetic(spec, 32, make_rng(82, 2))
        cfg = T.TrainConfig(network="RC-small", epochs=1, batch_size=32, seed=7, dropout=0.0)
        bound = 3 * N._CHUNK_BYTES
        assert _traced_peak(lambda: T.train(cfg, corp)) <= bound
        monkeypatch.setattr(N, "_CHUNK_BYTES", 1 << 40)
        assert _traced_peak(lambda: T.train(cfg, corp)) > bound

    def test_paper_size_utterances_run_one_at_a_time(self):
        # one RC1 utterance of 3 s keeps 74.8 MiB of contexts, far over
        # the budget: a batch of two peaks no higher than one utterance plus
        # the logits of the other
        alphabet = ctc_mod.timit_alphabet()
        rng = make_rng(83)

        def corpus_of(n):
            return corpus_mod.Corpus(alphabet=alphabet, utterances={
                f"u{i}": corpus_mod.Utterance(
                    id=f"u{i}", features=rng.normal(size=(300, 39)),
                    labels=tuple(rng.choice(alphabet.non_blank, size=40)))
                for i in range(n)})

        cfg = T.TrainConfig(network="RC1", epochs=1, batch_size=2, seed=8, dropout=0.0)
        one = _traced_peak(lambda: T.train(cfg, corpus_of(1)))
        two = _traced_peak(lambda: T.train(cfg, corpus_of(2)))
        assert two <= one + 300 * alphabet.size * 8


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _all_steps(steps):
    for step in steps:
        yield step
        yield from _all_steps(getattr(step, "inner", ()))


@pytest.mark.parametrize("name", ["RC-small", "Res-RC2-toy"])
def test_benchmark_tracer_sees_chunked_training(name, tiny_corpus, tiny_partition):
    """The benchmark's tracer (perfbench/tracing.py) times each step kind
    and counts conv2d flops from step inputs and contexts; chunked training
    must keep every step visible to it."""
    tracing = _load_tracer()
    steps = list(_all_steps(build_network(catalog()[name], output_units=4).steps))
    assert all(type(s).__name__ in tracing.STEP_KINDS for s in steps)
    cfg = T.TrainConfig(network=name, lr=0.001, batch_size=8, epochs=1, seed=9, dropout=0.0)
    with tracing.Tracer() as tracer:
        T.train(cfg, tiny_corpus, tiny_partition)
    for kind in {tracing.STEP_KINDS[type(s).__name__] for s in steps}:
        assert tracer.durations[f"network.{kind}.forward"], kind
        assert tracer.durations[f"network.{kind}.backward"], kind
    # each conv's F is the width of the last recurrent layer before it; a
    # training frame costs one forward and a twice-as-costly backward
    width = [s for s in steps if isinstance(s, N._Recurrent)][-1].hidden
    per_frame = sum(2 * s.out_maps * 9 * s.in_maps * width
                    for s in steps if isinstance(s, N._Conv2d))
    frames = {split: sum(tiny_corpus[i].n_frames for i in ids if tiny_corpus[i].ctc_feasible)
              for split, ids in (("train", tiny_partition.train), ("val", tiny_partition.val))}
    assert tracer.counts["network.conv2d.flops"] == per_frame * (3 * frames["train"]
                                                                 + frames["val"])


@pytest.mark.parametrize("name, kinds", [("RC1", ("recurrent", "conv2d", "elu", "affine")),
                                         ("Res-RC2", ("conv2d", "elu", "residual"))],
                         ids=["RC1", "Res-RC2"])
def test_benchmark_tracer_sees_streamed_inference(name, kinds):
    """Inference streams each utterance through every step in blocks; the
    benchmark's tracer must still time every step kind through the wrappers
    it puts on the built network, and count each conv's flops from the
    frames it is given, so that a frame a conv carries into the next block
    counts once."""
    tracing = _load_tracer()
    plain = list(_all_steps(build_network(catalog()[name]).steps))
    frames = 300
    with tracing.Tracer() as tracer:
        net = N.build_network(catalog()[name], rng=make_rng(10))
        net.forward(make_rng(11).normal(size=(frames, 39)))
    convs = [s for s in plain if isinstance(s, N._Conv2d)]
    recurrents = [s for s in plain if isinstance(s, N._Recurrent)]
    for kind in kinds:
        assert tracer.durations[f"network.{kind}.forward"], kind
    # several blocks: each conv and recurrent step runs once per block
    assert len(tracer.durations["network.conv2d.forward"]) > len(convs)
    assert len(tracer.durations["network.recurrent.forward"]) > len(recurrents)
    # every conv runs over the 128-wide output frames of the recurrent stack
    per_frame = sum(2 * s.out_maps * 9 * s.in_maps * 128 for s in convs)
    assert tracer.counts["network.conv2d.flops"] == per_frame * frames


class TestDeterminism:
    def test_same_seed_bit_identical(self, tmp_path):
        corp, part = small_setup()

        def run(out):
            cfg = T.TrainConfig(network="RC2-toy", lr=0.005, epochs=2, batch_size=4,
                                seed=8, out_dir=str(out))
            return T.train(cfg, corp, part)

        s1, c1 = run(tmp_path / "a")
        s2, c2 = run(tmp_path / "b")
        for r1, r2 in zip(c1.rows, c2.rows):
            assert r1.train_cost == r2.train_cost
            assert r1.val_cost == r2.val_cost
            assert r1.val_per == r2.val_per
        assert (tmp_path / "a" / "RC2-toy_2.ckpt").read_bytes() == \
               (tmp_path / "b" / "RC2-toy_2.ckpt").read_bytes()
        log = "RC2-toy_batches.log"
        assert (tmp_path / "a" / log).read_text() == (tmp_path / "b" / log).read_text()

    def test_different_seed_differs(self):
        corp, part = small_setup()
        cfg1 = T.TrainConfig(network="baseline", lr=0.005, epochs=1, batch_size=4, seed=9)
        cfg2 = T.TrainConfig(network="baseline", lr=0.005, epochs=1, batch_size=4, seed=10)
        _, a = T.train(cfg1, corp, part)
        _, b = T.train(cfg2, corp, part)
        assert a.rows[0].train_cost != b.rows[0].train_cost


class TestCostHalves:
    def test_thirty_epochs_halve_training_cost(self):
        # threshold validated by a baseline run before pinning: the fixed
        # seed reaches a ratio of ~1e-4, far inside the 0.5 requirement
        spec = corpus_mod.SyntheticSpec.default(n_phonemes=3, rng=make_rng(500, 1),
                                                sigma=0.2)
        spec.duration_range = (3, 6)
        spec.sentence_length_range = (2, 4)
        corp = corpus_mod.generate_synthetic(spec, 20, make_rng(500, 2))
        cfg = T.TrainConfig(network="RC-small", lr=0.01, batch_size=32, epochs=30,
                            seed=500, dropout=0.0)
        _, curve = T.train(cfg, corp, None)
        assert curve.rows[-1].train_cost < 0.5 * curve.rows[0].train_cost


class TestOverfitSingleUtterance:
    def test_loss_below_tenth_nat_within_500_steps(self):
        corp, _ = small_setup(n=1, seed=420)
        utt = corp[corp.ids()[0]]
        labels = corp.alphabet.encode(utt.labels)
        for name in ("RC2-toy", "CR2-toy", "Res-RC2-toy", "Res-CR2-toy"):
            net = build_network(catalog()[name], output_units=corp.alphabet.size,
                                rng=make_rng(421), dropout_override=0.0)
            loss = np.inf
            for _ in range(500):
                logits, ctxs = net.forward(utt.features, training=True)
                loss, dlogits = ctc_mod.ctc_loss_and_grad(logits, labels)
                if loss < 0.1:
                    break
                net.backward(ctxs, dlogits)
                adam_step(net.store, 0.02)
            assert loss < 0.1, name


class TestCompare:
    def test_batch_streams_identical_across_models(self, tmp_path):
        corp, part = small_setup(n=14, seed=430)
        cfg = T.TrainConfig(lr=0.005, epochs=2, batch_size=4, seed=11, dropout=0.0)
        results, errors = T.compare_architectures(
            ["baseline", "RC2-toy"], cfg, corp, part, str(tmp_path))
        assert not errors
        logs = {}
        for name in ("baseline", "RC2-toy"):
            text = (tmp_path / f"{name}_batches.log").read_text()
            logs[name] = [ln for ln in text.splitlines() if " ids " in ln]
        assert logs["baseline"] == logs["RC2-toy"]

    def test_single_model_matches_train(self, tmp_path):
        corp, part = small_setup(n=12, seed=431)
        cfg = T.TrainConfig(lr=0.005, epochs=1, batch_size=4, seed=12, dropout=0.0)
        results, errors = T.compare_architectures(["baseline"], cfg, corp, part, str(tmp_path))
        assert list(results) == ["baseline"]
        curve = read_curve(results["baseline"])
        direct_cfg = T.TrainConfig(network="baseline", lr=0.005, epochs=1,
                                   batch_size=4, seed=12, dropout=0.0)
        _, direct = T.train(direct_cfg, corp, part)
        assert curve.rows[0].train_cost == direct.rows[0].train_cost

    def test_failures_do_not_stop_others(self, tmp_path):
        corp, part = small_setup(n=12, seed=432)
        cfg = T.TrainConfig(lr=0.005, epochs=1, batch_size=4, seed=13, dropout=0.0)
        results, errors = T.compare_architectures(
            ["nonexistent-model", "baseline"], cfg, corp, part, str(tmp_path))
        assert "baseline" in results
        assert "nonexistent-model" in errors


class TestCurveCsv:
    def test_round_trip(self, tmp_path):
        curve = T.CostCurve(rows=[
            T.CurveRow(1, 0.5, 3.25, 3.5, 0.9),
            T.CurveRow(2, 1.0, 2.75, 3.0, 0.8),
        ])
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "epoch,wall_clock_minutes,train_cost,val_cost,val_per"
        back = read_curve(path)
        assert back.rows == curve.rows

    def test_checkpoint_cadence(self, tmp_path):
        corp, part = small_setup(n=12, seed=433)
        cfg = T.TrainConfig(network="baseline", lr=0.005, epochs=4, batch_size=4,
                            seed=14, dropout=0.0, out_dir=str(tmp_path),
                            checkpoint_every=2)
        T.train(cfg, corp, part)
        names = sorted(p.name for p in tmp_path.glob("*.ckpt"))
        assert names == ["baseline_2.ckpt", "baseline_4.ckpt"]
        assert (tmp_path / "baseline.netcfg").exists()
        loaded = load_checkpoint(tmp_path / "baseline_4.ckpt")
        assert loaded.n_params() > 0

    def test_without_out_dir_writes_nothing(self, tmp_path, monkeypatch):
        corp, part = small_setup(n=12, seed=433)
        monkeypatch.chdir(tmp_path)
        T.train(T.TrainConfig(network="baseline", lr=0.005, epochs=1, batch_size=4, seed=14),
                corp, part)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["RC2-toy", "my_net_2"])
    def test_config_beside_any_checkpoint(self, name):
        for epoch in (1, 12):
            ckpt = T.run_path(os.path.join("runs", "a"), name, epoch)
            assert T.config_beside(ckpt) == T.run_path(os.path.join("runs", "a"), name, "netcfg")
