import numpy as np
import pytest

from rcasr import corpus as corpus_mod
from rcasr import ctc as ctc_mod
from rcasr import trainer as T
from rcasr.network import build_network, catalog
from rcasr.numerics import adam_step, load_checkpoint, make_rng


def small_setup(n=12, seed=400):
    spec = corpus_mod.SyntheticSpec.default(n_phonemes=3, rng=make_rng(seed), sigma=0.2)
    spec.duration_range = (3, 6)
    spec.sentence_length_range = (2, 4)
    corp = corpus_mod.generate_synthetic(spec, n, make_rng(seed + 1))
    part = corpus_mod.make_partitions(corp, 1, rng=make_rng(seed + 2),
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
        with pytest.raises(ValueError):
            T.TrainConfig(lr=-1.0)
        with pytest.raises(ValueError):
            T.TrainConfig(batch_size=0)

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
        bad.features[0, 0] = 1e200    # forces an overflow downstream
        cfg = T.TrainConfig(network="baseline", lr=0.5, epochs=1, batch_size=4,
                            seed=6, dropout=0.0)
        with pytest.raises((T.TrainingAborted, ValueError), match="epoch|non-finite"):
            T.train(cfg, corp, part)


class TestDeterminism:
    def test_same_seed_bit_identical(self, tmp_path):
        corp, part = small_setup()

        def run(out):
            cfg = T.TrainConfig(network="RC2-toy", lr=0.005, epochs=2, batch_size=4,
                                seed=8, checkpoint_dir=str(out),
                                log_path=str(out / "b.log"))
            return T.train(cfg, corp, part)

        s1, c1 = run(tmp_path / "a")
        s2, c2 = run(tmp_path / "b")
        for r1, r2 in zip(c1.rows, c2.rows):
            assert r1.train_cost == r2.train_cost
            assert r1.val_cost == r2.val_cost
            assert r1.val_per == r2.val_per
        assert (tmp_path / "a" / "RC2-toy_2.ckpt").read_bytes() == \
               (tmp_path / "b" / "RC2-toy_2.ckpt").read_bytes()
        assert (tmp_path / "a" / "b.log").read_text() == (tmp_path / "b" / "b.log").read_text()

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
        curve = T.CostCurve.from_csv(results["baseline"])
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
        back = T.CostCurve.from_csv(path)
        assert back.rows == curve.rows

    def test_checkpoint_cadence(self, tmp_path):
        corp, part = small_setup(n=12, seed=433)
        cfg = T.TrainConfig(network="baseline", lr=0.005, epochs=4, batch_size=4,
                            seed=14, dropout=0.0, checkpoint_dir=str(tmp_path),
                            checkpoint_every=2)
        T.train(cfg, corp, part)
        names = sorted(p.name for p in tmp_path.glob("*.ckpt"))
        assert names == ["baseline_2.ckpt", "baseline_4.ckpt"]
        assert (tmp_path / "baseline.netcfg").exists()
        loaded = load_checkpoint(tmp_path / "baseline_4.ckpt")
        assert loaded.n_params() > 0
