import ctypes
import os
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import write_float32_checkpoint, write_wav_at
from rcasr import cli
from rcasr import corpus as corpus_mod
from rcasr import ctc as ctc_mod
from rcasr import features as F
from rcasr import lm as lm_mod
from rcasr.network import build_network, catalog, load_config
from rcasr.numerics import load_checkpoint, make_rng, save_checkpoint


def run_rcasr(*argv):
    """`python -m rcasr argv...` in a process of its own, whose stderr holds
    all it prints, numpy warnings included."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "rcasr", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=120)


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


class TestSynth:
    def test_zero_utterances(self, tmp_path):
        out = tmp_path / "c"
        assert cli.main(["synth", "--out", str(out), "--n", "0", "--seed", "1"]) == 0
        assert (out / "alphabet.txt").exists()
        assert list((out / "feat").iterdir()) == []

    def test_same_seed_identical_trees(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(["synth", "--out", str(out), "--n", "7", "--seed", "3",
                             "--n-phonemes", "4"]) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_file_counts(self, tmp_path):
        out = tmp_path / "c"
        assert cli.main(["synth", "--out", str(out), "--n", "100", "--seed", "2"]) == 0
        feats = sorted(p.name for p in (out / "feat").iterdir())
        phns = sorted(p.name for p in (out / "phn").iterdir())
        assert len(feats) == 100 and len(phns) == 100
        assert [f[:-4] for f in feats] == [p[:-4] for p in phns]

    def test_spec_flag_gone(self, tmp_path, capsys):
        # the flags are the one source of the generator settings
        spec = tmp_path / "gen.spec"
        spec.write_text("n_phonemes 4\n")
        out = tmp_path / "c"
        assert cli.main(["synth", "--spec", str(spec), "--out", str(out), "--n", "5"]) == 1
        assert "unrecognized arguments: --spec" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_missing_config_usage_error(self, tmp_path, capsys):
        rc = cli.main(["train", "--config", str(tmp_path / "nope.netcfg"),
                       "--data", str(tmp_path), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "usage" in captured.err

    def test_zero_epochs_header_only_curve(self, tmp_path, tiny_corpus_dir):
        out = tmp_path / "run"
        rc = cli.main(["train", "--config", "baseline", "--data", str(tiny_corpus_dir),
                       "--out", str(out), "--epochs", "0"])
        assert rc == 0
        curve = (out / "baseline_curve.csv").read_text().splitlines()
        assert curve == ["epoch,wall_clock_minutes,train_cost,val_cost,val_per"]

    def test_row_count_matches_epochs(self, tmp_path, tiny_corpus_dir):
        out = tmp_path / "run"
        rc = cli.main(["train", "--config", "baseline", "--data", str(tiny_corpus_dir),
                       "--out", str(out), "--epochs", "3", "--lr", "0.002",
                       "--batch-size", "8", "--seed", "4"])
        assert rc == 0
        lines = (out / "baseline_curve.csv").read_text().splitlines()
        assert len(lines) == 4
        assert (out / "baseline_3.ckpt").exists()
        assert (out / "baseline.netcfg").exists()

    def test_feature_width_mismatch_data_error(self, tmp_path, tiny_corpus, capsys):
        narrow = corpus_mod.Corpus(
            utterances={i: corpus_mod.Utterance(id=i, labels=u.labels, features=u.features[:, :13])
                        for i, u in tiny_corpus.utterances.items()},
            alphabet=tiny_corpus.alphabet)
        data = tmp_path / "narrow"
        corpus_mod.save_corpus(narrow, data)
        rc = cli.main(["train", "--config", "baseline", "--data", str(data),
                       "--out", str(tmp_path / "run"), "--epochs", "1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"'{narrow.ids()[0]}'" in err and "13" in err and "39" in err

    @pytest.mark.parametrize("layer, message", [
        ("conv2d rate=0.5", "line 2: conv2d takes feature_maps=, not 'rate=0.5'"),
        ("recurrent units=64", "line 2: recurrent takes hidden_units=, not 'units=64'"),
        ("conv2d", "line 2: conv2d needs feature_maps="),
        ("conv2d feature_maps=x", "line 2: invalid literal for int() with base 10: 'x'"),
        ("conv2d feature_maps=0", "line 2: conv2d feature_maps= must be >= 1, got 0"),
        ("recurrent hidden_units=-3", "line 2: recurrent hidden_units= must be >= 1, got -3"),
        ("dense units=0", "line 2: dense units= must be >= 1, got 0"),
        ("elu alpha=nan", "line 2: elu alpha= must be finite and >= 0, got nan"),
        ("dropout rate=1.5", "line 2: dropout rate= must be in [0, 1), got 1.5"),
        ("conv2d feature_maps=2 feature_maps=3", "line 2: conv2d sets feature_maps= twice"),
    ], ids=["conv2d-rate", "recurrent-units", "conv2d-no-maps", "non-numeric", "zero-maps",
            "negative-hidden", "zero-units", "nan-alpha", "rate-above-one", "repeated-key"])
    def test_malformed_config_data_error(self, tmp_path, tiny_corpus_dir, capsys, layer, message):
        cfg = tmp_path / "bad.netcfg"
        cfg.write_text(f"network bad\n{layer}\nelu\nlinear_output units=4\n")
        rc = cli.main(["train", "--config", str(cfg), "--data", str(tiny_corpus_dir),
                       "--out", str(tmp_path / "run"), "--epochs", "1"])
        assert rc == 2
        assert f"{cfg}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--epochs", "-2", "epochs must be >= 0"),
        ("--checkpoint-every", "-1", "checkpoint_every must be >= 0"),
        ("--batch-size", "0", "batch size must be >= 1"),
        ("--dropout", "1.5", "dropout rate= must be in [0, 1), got 1.5"),
        ("--lr", "nan", "learning rate must be in [0, inf), got nan"),
        ("--lr", "inf", "learning rate must be in [0, inf), got inf"),
    ], ids=["epochs", "checkpoint-every", "batch-size", "dropout", "lr-nan", "lr-inf"])
    def test_negative_schedule_usage_error(self, tmp_path, tiny_corpus_dir, capsys,
                                           flag, value, message):
        out = tmp_path / "run"
        rc = cli.main(["train", "--config", "baseline", "--data", str(tiny_corpus_dir),
                       "--out", str(out), flag, value])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_divergence_seen_by_validation_numeric_abort(self, tmp_path):
        # lr 1e300 leaves the first epoch's training forwards finite and
        # blows up the weights before its validation
        data, part = tmp_path / "data", tmp_path / "part"
        assert cli.main(["synth", "--out", str(data), "--n", "6", "--seed", "1"]) == 0
        assert cli.main(["partition", "--data", str(data), "--out", str(part),
                         "--sizes", "4,1,1"]) == 0
        proc = run_rcasr("train", "--config", "baseline", "--data", data, "--partition", part,
                         "--out", tmp_path / "run", "--epochs", "2", "--lr", "1e300",
                         "--batch-size", "8")
        assert proc.returncode == 3
        (val_id,) = (part / "val.txt").read_text().split()
        # the one line, with no numpy overflow warnings before it
        assert proc.stderr.splitlines() == [
            f"numeric abort: numeric failure at epoch 1, validation, utterance '{val_id}': "
            "non-finite logits"]

    def test_non_numeric_feature_dump_data_error(self, tmp_path, tiny_corpus, capsys):
        data = tmp_path / "data"
        corpus_mod.save_corpus(tiny_corpus, data)
        dump = data / "feat" / f"{tiny_corpus.ids()[3]}.txt"
        lines = dump.read_text().splitlines()
        lines[2] = " ".join(["abc"] + lines[2].split()[1:])
        dump.write_text("\n".join(lines) + "\n")
        rc = cli.main(["train", "--config", "baseline", "--data", str(data),
                       "--out", str(tmp_path / "run"), "--epochs", "1"])
        assert rc == 2
        assert f"{dump}:3: could not convert string to float: 'abc'" in capsys.readouterr().err


class TestPartitionCmd:
    def test_writes_cover(self, tmp_path, tiny_corpus_dir, tiny_corpus):
        out = tmp_path / "part"
        rc = cli.main(["partition", "--data", str(tiny_corpus_dir), "--out", str(out),
                       "--seed", "6", "--sizes", "20,6,4"])
        assert rc == 0
        part = corpus_mod.load_partition(out)
        part.check_covers(tiny_corpus.ids())

    @pytest.mark.parametrize("flags, message", [
        (["--candidates", "0"], "--candidates must be >= 1, got 0"),
        (["--candidates", "-2"], "--candidates must be >= 1, got -2"),
        (["--sizes", "x,y,z"], "--sizes wants three comma-separated counts"),
        (["--sizes", "20,6"], "--sizes wants three comma-separated counts"),
        (["--sizes", "20,-1,11"], "--sizes wants three comma-separated counts"),
        (["--candidates", "2", "--budget-epochs", "0"], "unrecognized arguments: --budget-epochs"),
    ], ids=["zero-candidates", "negative-candidates", "non-integer-sizes", "two-sizes",
            "negative-size", "budget-epochs"])
    def test_bad_flag_usage_error(self, tmp_path, tiny_corpus_dir, capsys, flags, message):
        out = tmp_path / "part"
        rc = cli.main(["partition", "--data", str(tiny_corpus_dir), "--out", str(out)] + flags)
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestFeaturesCmd:
    def test_wav_to_normalized_dumps(self, tmp_path):
        rng = make_rng(440)
        data = tmp_path / "raw"
        (data / "wav").mkdir(parents=True)
        (data / "phn").mkdir()
        for i in range(3):
            write_wav_at(data / "wav" / f"u{i}.wav", rng.normal(scale=0.1, size=8000), 16000)
            (data / "phn" / f"u{i}.txt").write_text("aa b\n")
        out = tmp_path / "featcorpus"
        stats_path = tmp_path / "stats.txt"
        rc = cli.main(["features", "--data", str(data), "--out", str(out),
                       "--stats-out", str(stats_path)])
        assert rc == 0
        corp = corpus_mod.load_corpus(out)
        assert len(corp) == 3
        pooled = np.concatenate([corp[i].features for i in corp.ids()])
        assert np.max(np.abs(pooled.mean(axis=0))) < 1e-9
        stats = F.load_stats(stats_path)
        assert stats.mean.shape == (39,)

    def test_other_sample_rate_data_error(self, tmp_path, capsys):
        data = tmp_path / "raw"
        (data / "wav").mkdir(parents=True)
        (data / "phn").mkdir()
        write_wav_at(data / "wav" / "u0.wav", make_rng(441).normal(scale=0.1, size=8000), 8000)
        (data / "phn" / "u0.txt").write_text("aa b\n")
        rc = cli.main(["features", "--data", str(data), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "u0.wav" in capsys.readouterr().err

    def test_clip_shorter_than_one_frame_names_the_wav(self, tmp_path, capsys):
        data = tmp_path / "raw"
        (data / "wav").mkdir(parents=True)
        (data / "phn").mkdir()
        wav = data / "wav" / "u0.wav"
        write_wav_at(wav, make_rng(443).normal(scale=0.1, size=300), 16000)
        (data / "phn" / "u0.txt").write_text("aa b\n")
        rc = cli.main(["features", "--data", str(data), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert (f"data error: {wav}: clip of 300 samples is shorter than one 400-sample frame"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("std", ["0", "-1"], ids=["zero", "negative"])
    def test_stats_std_not_positive_data_error(self, tmp_path, tiny_corpus_dir, capsys, std):
        # normalize_corpus clamps a zero std to 1, so only a foreign file has one
        stats = tmp_path / "stats.txt"
        stats.write_text(" ".join(["0"] * 39) + "\n" + " ".join(["1"] * 38 + [std]) + "\n")
        out = tmp_path / "out"
        rc = cli.main(["features", "--data", str(tiny_corpus_dir), "--out", str(out),
                       "--stats-in", str(stats)])
        assert rc == 2
        assert f"data error: {stats}:2: std values must be > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_stats_data_error(self, tmp_path, capsys):
        data = tmp_path / "raw"
        (data / "wav").mkdir(parents=True)
        (data / "phn").mkdir()
        write_wav_at(data / "wav" / "u0.wav", make_rng(442).normal(scale=0.1, size=8000),
                     16000)
        (data / "phn" / "u0.txt").write_text("aa b\n")
        stats = tmp_path / "stats.txt"
        stats.write_text("x\n1\n")
        rc = cli.main(["features", "--data", str(data), "--out", str(tmp_path / "out"),
                       "--stats-in", str(stats)])
        assert rc == 2
        assert f"{stats}: could not convert string to float: 'x'" in capsys.readouterr().err

    def test_stats_of_another_width_data_error(self, tmp_path, tiny_corpus_dir, capsys):
        stats = tmp_path / "stats.txt"
        stats.write_text("0 0\n1 1\n")
        out = tmp_path / "out"
        rc = cli.main(["features", "--data", str(tiny_corpus_dir), "--out", str(out),
                       "--stats-in", str(stats)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{stats}: 2-wide stats, but utterance " in err and "has 39-wide features" in err
        assert not out.exists()

    def test_unknown_train_id_names_the_id_file(self, tmp_path, tiny_corpus_dir, capsys):
        ids = tmp_path / "train.txt"
        ids.write_text("nosuch\n")
        out = tmp_path / "out"
        rc = cli.main(["features", "--data", str(tiny_corpus_dir), "--out", str(out),
                       "--train-ids", str(ids)])
        assert rc == 2
        assert f"data error: {ids}: no utterance 'nosuch'" in capsys.readouterr().err
        assert not out.exists()


class TestLmTrainCmd:
    def test_model_file_written(self, tmp_path, tiny_corpus_dir):
        out = tmp_path / "model.lm"
        rc = cli.main(["lm-train", "--data", str(tiny_corpus_dir), "--out", str(out)])
        assert rc == 0
        from rcasr.lm import load_lm, score

        model = load_lm(out)
        assert score(model, ("p0", "p1")) < 0.0

    def test_unknown_id_names_the_id_file(self, tmp_path, tiny_corpus_dir, tiny_corpus, capsys):
        ids = tmp_path / "ids.txt"
        ids.write_text(f"{tiny_corpus.ids()[0]}\nnosuch\n")
        out = tmp_path / "model.lm"
        rc = cli.main(["lm-train", "--data", str(tiny_corpus_dir), "--ids", str(ids),
                       "--out", str(out)])
        assert rc == 2
        assert f"data error: {ids}: no utterance 'nosuch'" in capsys.readouterr().err
        assert not out.exists()


def trained_posteriors(trained_tiny, corpus):
    """utt_id -> the softmax of the trained toy model's logits, in-process."""
    net = build_network(load_config(trained_tiny["netcfg"]), output_units=corpus.alphabet.size)
    for name, p in load_checkpoint(trained_tiny["ckpt"]).entries.items():
        net.store[name].value[...] = p.value
    # decode runs chunks of several utterances; these are each one's alone
    assert len(list(net.chunks([corpus[i].n_frames for i in corpus.ids()]))) < len(corpus)
    return {i: ctc_mod.softmax(net.forward(corpus[i].features)[0]) for i in corpus.ids()}


# the LM file of test_malformed_lm_data_error, one line replaced per case
LM_TEXT = "NGRAM-LM v1\nk 1\nweights 0.4 0.35 0.25\nmu 0.5\nvocab p0 p1 p2\n2 F <s> p0 3\n"


class TestDecode:
    def test_beam_one_equals_greedy(self, tmp_path, trained_tiny, tiny_corpus_dir, tiny_corpus):
        out = tmp_path / "hyp.txt"
        rc = cli.main(["decode", "--ckpt", str(trained_tiny["ckpt"]),
                       "--data", str(tiny_corpus_dir), "--beam", "1",
                       "--out", str(out)])
        assert rc == 0
        decoded = cli.read_hypotheses(out)
        for utt_id, y in trained_posteriors(trained_tiny, tiny_corpus).items():
            assert decoded[utt_id] == tiny_corpus.alphabet.decode(ctc_mod.greedy_decode(y)), utt_id

    def test_lm_rectifies_beam_hypotheses(self, tmp_path, trained_tiny, tiny_corpus_dir,
                                          tiny_corpus):
        lm_path, out = tmp_path / "m.lm", tmp_path / "hyp.txt"
        assert cli.main(["lm-train", "--data", str(tiny_corpus_dir), "--out", str(lm_path)]) == 0
        assert cli.main(["decode", "--ckpt", str(trained_tiny["ckpt"]),
                         "--data", str(tiny_corpus_dir), "--beam", "4", "--lm", str(lm_path),
                         "--lambda", "0.3", "--out", str(out)]) == 0
        model = lm_mod.load_lm(lm_path)
        want = []
        for utt_id, y in trained_posteriors(trained_tiny, tiny_corpus).items():
            hyps = [(tiny_corpus.alphabet.decode(h), s) for h, s in ctc_mod.beam_decode(y, width=4)]
            seq, combined = lm_mod.rectify(model, hyps, 0.3)
            want.append(f"{utt_id} {combined:.6f} {' '.join(seq)}".rstrip())
        assert out.read_text().splitlines() == want

    @pytest.mark.parametrize("lam", ["nan", "inf", "-0.5"])
    def test_lambda_must_be_finite_and_nonnegative(self, tmp_path, trained_tiny,
                                                   tiny_corpus_dir, capsys, lam):
        lm_path, out = tmp_path / "m.lm", tmp_path / "hyp.txt"
        assert cli.main(["lm-train", "--data", str(tiny_corpus_dir), "--out", str(lm_path)]) == 0
        capsys.readouterr()
        assert cli.main(["decode", "--ckpt", str(trained_tiny["ckpt"]),
                         "--data", str(tiny_corpus_dir), "--lm", str(lm_path),
                         "--lambda", lam, "--out", str(out)]) == 1
        assert f"error: --lambda must be finite and >= 0, got {float(lam)}" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, replace, message", [
        (2, None, "2: expected `k` and 1 number(s)"),
        (3, "weights 0.5 0.5", "3: expected `weights` and 3 number(s)"),
        (6, "5 F a b c d p0 3", "6: order '5' is not one of (2, 3, 4)"),
        (6, "2 X <s> p0 3", "6: direction 'X' is not F or B"),
        (6, "3 F p0 p1 3", "6: order 3 takes 2 context symbols, got 1"),
        (6, "2 F <s> p0 x", "6: count 'x' is not a non-negative integer"),
        (6, "2 F <s> p0 -1", "6: count '-1' is not a non-negative integer"),
        (7, "2 F <s> p0 1", "7: repeats the order-2 F count of 'p0' after '<s>'"),
    ], ids=["header-only", "two-weights", "order-5", "direction", "short-context",
            "non-integer-count", "negative-count", "repeated-count"])
    def test_malformed_lm_data_error(self, tmp_path, trained_tiny, tiny_corpus_dir, capsys,
                                     line, replace, message):
        lines = LM_TEXT.splitlines()
        lines = lines[:1] if replace is None else lines[:line - 1] + [replace] + lines[line:]
        lm_path, out = tmp_path / "bad.lm", tmp_path / "hyp.txt"
        lm_path.write_text("\n".join(lines) + "\n")
        rc = cli.main(["decode", "--ckpt", str(trained_tiny["ckpt"]),
                       "--data", str(tiny_corpus_dir), "--lm", str(lm_path), "--out", str(out)])
        assert rc == 2
        assert f"{lm_path}:{message}" in capsys.readouterr().err
        assert not out.exists()

    def test_lambda_zero_equals_no_lm(self, tmp_path, trained_tiny, tiny_corpus_dir):
        lm_path = tmp_path / "m.lm"
        assert cli.main(["lm-train", "--data", str(tiny_corpus_dir),
                         "--out", str(lm_path)]) == 0
        plain, fused = tmp_path / "plain.txt", tmp_path / "fused.txt"
        base = ["decode", "--ckpt", str(trained_tiny["ckpt"]),
                "--data", str(tiny_corpus_dir), "--beam", "4"]
        assert cli.main(base + ["--out", str(plain)]) == 0
        assert cli.main(base + ["--out", str(fused), "--lm", str(lm_path),
                                "--lambda", "0"]) == 0
        assert plain.read_bytes() == fused.read_bytes()

    def test_idempotent_output(self, tmp_path, trained_tiny, tiny_corpus_dir):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        base = ["decode", "--ckpt", str(trained_tiny["ckpt"]),
                "--data", str(tiny_corpus_dir), "--beam", "2"]
        assert cli.main(base + ["--out", str(a)]) == 0
        assert cli.main(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_checkpoint_magic_data_error(self, tmp_path, trained_tiny, tiny_corpus_dir):
        bad = trained_tiny["dir"] / "RC2-toy_99.ckpt"
        bad.write_bytes(b"GARBAGE!" * 4)
        rc = cli.main(["decode", "--ckpt", str(bad), "--data", str(tiny_corpus_dir),
                       "--beam", "1", "--out", str(tmp_path / "x.txt")])
        assert rc == 2
        assert not (tmp_path / "x.txt").exists()

    def test_truncated_checkpoint_data_error(self, tmp_path, trained_tiny, tiny_corpus_dir,
                                             capsys):
        blob = trained_tiny["ckpt"].read_bytes()
        bad = trained_tiny["dir"] / "RC2-toy_98.ckpt"
        for cut in (7, 10, len(blob) // 2, len(blob) - 1):
            bad.write_bytes(blob[:cut])
            rc = cli.main(["decode", "--ckpt", str(bad), "--data", str(tiny_corpus_dir),
                           "--beam", "1", "--out", str(tmp_path / "x.txt")])
            assert rc == 2, cut
            assert f"{bad}: truncated checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "x.txt").exists()

    def test_float32_checkpoint_data_error(self, tmp_path, trained_tiny, tiny_corpus_dir,
                                           capsys):
        bad = trained_tiny["dir"] / "RC2-toy_97.ckpt"
        write_float32_checkpoint(load_checkpoint(trained_tiny["ckpt"]), bad)
        rc = cli.main(["decode", "--ckpt", str(bad), "--data", str(tiny_corpus_dir),
                       "--beam", "1", "--out", str(tmp_path / "x.txt")])
        assert rc == 2
        assert f"data error: {bad}: parameter " in capsys.readouterr().err
        assert not (tmp_path / "x.txt").exists()

    def test_hypothesis_line(self):
        assert cli.hypothesis_line("utt1", -1.5, ("p0", "p2")) == "utt1 -1.500000 p0 p2"
        # an empty hypothesis leaves no trailing space
        assert cli.hypothesis_line("utt1", -2.0, ()) == "utt1 -2.000000"

    def test_diverged_checkpoint_numeric_abort(self, tmp_path, trained_tiny, tiny_corpus_dir):
        # non-finite posteriors left the beam empty: an IndexError traceback
        store = load_checkpoint(trained_tiny["ckpt"])
        for p in store.entries.values():
            p.value *= 1e200
        ckpt, out = tmp_path / "RC2-toy_1.ckpt", tmp_path / "hyp.txt"
        save_checkpoint(store, ckpt)
        proc = run_rcasr("decode", "--ckpt", ckpt, "--config", trained_tiny["netcfg"],
                         "--data", tiny_corpus_dir, "--out", out)
        assert proc.returncode == 3
        first = corpus_mod.load_corpus(tiny_corpus_dir).ids()[0]
        assert proc.stderr.splitlines() == [
            f"numeric abort: numeric failure at decoding, utterance '{first}': "
            "non-finite logits"]
        assert not out.exists()

    def test_invalid_beam_usage_error(self, tmp_path, trained_tiny, tiny_corpus_dir):
        rc = cli.main(["decode", "--ckpt", str(trained_tiny["ckpt"]),
                       "--data", str(tiny_corpus_dir), "--beam", "0",
                       "--out", str(tmp_path / "x.txt")])
        assert rc == 1

    def test_inference_creates_no_training_state(self, tmp_path):
        # decode builds RC1 and adopts a checkpoint's values.  With every
        # parameter's gradient and Adam moments made up front, that traced
        # 8.0x the weight bytes at its peak; values alone trace 2.0x
        ckpt = tmp_path / "RC1.ckpt"
        save_checkpoint(build_network(catalog()["RC1"], rng=make_rng(90)).store, ckpt)
        tracemalloc.start()
        try:
            net = build_network(catalog()["RC1"])
            cli._adopt_values(net.store, load_checkpoint(ckpt))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        weights = sum(p.value.nbytes for p in net.store.entries.values())
        assert peak <= 3 * weights
        net.forward(make_rng(91).normal(size=(20, 39)), training=False)
        for name, p in net.store.entries.items():
            assert not {"grad", "adam_m", "adam_v"} & set(vars(p)), name


class TestScore:
    def write_hyps(self, path, hyps):
        with open(path, "w") as fh:
            for utt_id, seq in hyps.items():
                fh.write(f"{utt_id} 0.0 {' '.join(seq)}".rstrip() + "\n")

    def test_perfect_hypotheses_zero(self, tmp_path, tiny_corpus_dir, tiny_corpus):
        hyp_path = tmp_path / "h.txt"
        self.write_hyps(hyp_path, {i: tiny_corpus[i].labels for i in tiny_corpus.ids()})
        out = tmp_path / "per.csv"
        rc = cli.main(["score", "--refs", str(tiny_corpus_dir), "--hyps", str(hyp_path),
                       "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[-1].endswith("0.000000")

    def test_empty_hypotheses_per_one(self, tmp_path, tiny_corpus_dir, tiny_corpus):
        hyp_path = tmp_path / "h.txt"
        self.write_hyps(hyp_path, {i: () for i in tiny_corpus.ids()})
        out = tmp_path / "per.csv"
        assert cli.main(["score", "--refs", str(tiny_corpus_dir), "--hyps", str(hyp_path),
                         "--out", str(out)]) == 0
        assert out.read_text().splitlines()[-1].endswith("1.000000")

    def test_hand_built_third(self, tmp_path):
        data = tmp_path / "refs"
        (data / "feat").mkdir(parents=True)
        (data / "phn").mkdir()
        (data / "alphabet.txt").write_text("a b c\n")
        for utt_id, labels, t in (("u1", "a b", 3), ("u2", "c", 2)):
            F.save_feature_dump(data / "feat" / f"{utt_id}.txt", np.zeros((t, 39)))
            (data / "phn" / f"{utt_id}.txt").write_text(labels + "\n")
        hyp_path = tmp_path / "h.txt"
        self.write_hyps(hyp_path, {"u1": ("a", "c"), "u2": ("c",)})
        out = tmp_path / "per.csv"
        assert cli.main(["score", "--refs", str(data), "--hyps", str(hyp_path),
                         "--out", str(out)]) == 0
        assert out.read_text().splitlines()[-1] == "AGGREGATE,1,3,0.333333"

    def test_line_without_score_names_the_line(self, tmp_path, tiny_corpus_dir, tiny_corpus,
                                               capsys):
        # `u1 p0 p1 p2` would read as the hypothesis p1 p2 if the score were not parsed
        utt_id = tiny_corpus.ids()[0]
        hyp_path = tmp_path / "h.txt"
        hyp_path.write_text(f"{utt_id} {' '.join(tiny_corpus[utt_id].labels)}\n")
        out = tmp_path / "per.csv"
        assert cli.main(["score", "--refs", str(tiny_corpus_dir), "--hyps", str(hyp_path),
                         "--out", str(out)]) == 2
        first = tiny_corpus[utt_id].labels[0]
        assert f"data error: {hyp_path}:1: score {first!r} is not a number" \
            in capsys.readouterr().err
        assert not out.exists()


class TestTrainingFlags:
    @pytest.mark.parametrize("argv", [["train", "--config", "baseline"],
                                      ["compare", "--models", "baseline"]])
    def test_defaults_are_train_config_defaults(self, argv):
        from rcasr.trainer import TrainConfig

        args = cli.build_parser().parse_args(argv + ["--data", "d", "--out", "o"])
        want = TrainConfig()
        assert (args.epochs, args.lr, args.batch_size, args.seed) == (
            want.epochs, want.lr, want.batch_size, want.seed)
        assert args.partition is None
        if argv[0] == "train":
            assert (args.dropout, args.checkpoint_every) == (want.dropout, want.checkpoint_every)


class TestCompareCmd:
    def test_two_models_two_curves(self, tmp_path, tiny_corpus_dir):
        out = tmp_path / "cmp"
        rc = cli.main(["compare", "--models", "baseline,RC2-toy",
                       "--data", str(tiny_corpus_dir), "--out", str(out),
                       "--epochs", "1", "--lr", "0.002", "--batch-size", "8"])
        assert rc == 0
        assert (out / "baseline_curve.csv").exists()
        assert (out / "RC2-toy_curve.csv").exists()

    def test_config_file_curve_named_after_its_network(self, tmp_path, tiny_corpus_dir,
                                                       capsys):
        cfg = tmp_path / "small.netcfg"
        cfg.write_text("network mynet\ndense units=8\nelu\nlinear_output units=4\n")
        out = tmp_path / "cmp"
        assert cli.main(["compare", "--models", str(cfg), "--data", str(tiny_corpus_dir),
                         "--out", str(out), "--epochs", "1"]) == 0
        assert capsys.readouterr().out == f"{cfg}: {out / 'mynet_curve.csv'}\n"
        assert (out / "mynet_curve.csv").exists()

    def test_feature_width_mismatch_data_error(self, tmp_path, tiny_corpus, capsys):
        # a data error concerns the corpus, not one model: exit 2 as in train
        narrow = corpus_mod.Corpus(
            utterances={i: corpus_mod.Utterance(id=i, labels=u.labels, features=u.features[:, :13])
                        for i, u in tiny_corpus.utterances.items()},
            alphabet=tiny_corpus.alphabet)
        data = tmp_path / "narrow"
        corpus_mod.save_corpus(narrow, data)
        rc = cli.main(["compare", "--models", "baseline,RC2-toy", "--data", str(data),
                       "--out", str(tmp_path / "cmp"), "--epochs", "1"])
        assert rc == 2
        assert "13" in capsys.readouterr().err

    def test_each_numeric_abort_reported_once(self, tmp_path):
        data, part = tmp_path / "c", tmp_path / "p"
        assert run_rcasr("synth", "--n", 6, "--seed", 1, "--out", data).returncode == 0
        assert run_rcasr("partition", "--data", data, "--out", part,
                         "--sizes", "4,1,1").returncode == 0
        proc = run_rcasr("compare", "--models", "baseline,RC2-toy", "--data", data,
                         "--partition", part, "--out", tmp_path / "cmp", "--lr", "1e300",
                         "--epochs", 2, "--batch-size", 8)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert [ln.split(":")[0] for ln in lines] == ["baseline", "RC2-toy"]
        assert all("FAILED (numeric failure at epoch 1" in ln for ln in lines)

    def test_unknown_model_usage_error(self, tmp_path, tiny_corpus_dir, capsys):
        rc = cli.main(["compare", "--models", "no-such-net",
                       "--data", str(tiny_corpus_dir), "--out", str(tmp_path / "x"),
                       "--epochs", "1"])
        assert rc == 1

    @pytest.mark.parametrize("models, message", [
        (",", "--models names no model: ','"),
        ("", "--models names no model: ''"),
        ("RC2-toy,RC2-toy", "--models names network 'RC2-toy' twice ('RC2-toy' and 'RC2-toy')"),
        ("baseline, RC2-toy,baseline",
         "--models names network 'baseline' twice ('baseline' and 'baseline')"),
        ("RC2-toy,{cfg}", "--models names network 'RC2-toy' twice ('RC2-toy' and '{cfg}')"),
    ], ids=["comma", "empty", "twice", "twice-apart", "name-and-file"])
    def test_empty_or_repeated_models_usage_error(self, tmp_path, tiny_corpus_dir, capsys,
                                                  models, message):
        # a config file whose network has a catalog model's name
        cfg = tmp_path / "rc2.netcfg"
        cfg.write_text("network RC2-toy\ndense units=8\nelu\nlinear_output units=4\n")
        models, message = models.format(cfg=cfg), message.format(cfg=cfg)
        out = tmp_path / "x"
        rc = cli.main(["compare", "--models", models, "--data", str(tiny_corpus_dir),
                       "--out", str(out), "--epochs", "1"])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestRunDirectory:
    """train and compare leave the same four files per model in --out."""

    @staticmethod
    def run_files(model, epochs):
        return {f"{model}.netcfg", f"{model}_{epochs}.ckpt", f"{model}_batches.log",
                f"{model}_curve.csv"}

    def test_train_and_compare_leave_the_same_files(self, tmp_path, tiny_corpus_dir):
        flags = ["--data", str(tiny_corpus_dir), "--epochs", "2", "--lr", "0.002",
                 "--batch-size", "8", "--seed", "3"]
        one, cmp = tmp_path / "one", tmp_path / "cmp"
        assert cli.main(["train", "--config", "RC2-toy", "--out", str(one)] + flags) == 0
        assert cli.main(["compare", "--models", "baseline,RC2-toy", "--out", str(cmp)]
                        + flags) == 0
        assert set(os.listdir(one)) == self.run_files("RC2-toy", 2)
        assert set(os.listdir(cmp)) == self.run_files("RC2-toy", 2) | self.run_files("baseline", 2)
        # the same run twice: the same bytes, but for the curve's wall-clock column
        for name in ("RC2-toy.netcfg", "RC2-toy_2.ckpt", "RC2-toy_batches.log"):
            assert (one / name).read_bytes() == (cmp / name).read_bytes(), name

        def costs(run):
            rows = (run / "RC2-toy_curve.csv").read_text().splitlines()
            return [row.split(",")[:1] + row.split(",")[2:] for row in rows]

        assert len(costs(one)) == 3 and costs(one) == costs(cmp)

    def test_compare_model_decodes_without_config(self, tmp_path, tiny_corpus_dir, capsys):
        cmp = tmp_path / "cmp"
        assert cli.main(["compare", "--models", "RC2-toy", "--data", str(tiny_corpus_dir),
                         "--out", str(cmp), "--epochs", "1"]) == 0
        decode = ["decode", "--data", str(tiny_corpus_dir), "--beam", "1",
                  "--out", str(tmp_path / "h.txt")]
        assert cli.main(decode + ["--ckpt", str(cmp / "RC2-toy_1.ckpt")]) == 0
        assert len(cli.read_hypotheses(tmp_path / "h.txt")) == 30
        # without its config beside it, the checkpoint names the file it needs
        lone = tmp_path / "lone"
        lone.mkdir()
        shutil.copy(cmp / "RC2-toy_1.ckpt", lone)
        assert cli.main(decode + ["--ckpt", str(lone / "RC2-toy_1.ckpt")]) == 1
        assert f"keep {lone / 'RC2-toy.netcfg'}" in capsys.readouterr().err

    def test_compare_invalid_schedule_leaves_no_directory(self, tmp_path, tiny_corpus_dir):
        # train's case is TestTrain::test_negative_schedule_usage_error
        out = tmp_path / "D"
        assert cli.main(["compare", "--models", "baseline", "--data", str(tiny_corpus_dir),
                         "--out", str(out), "--epochs", "-2"]) == 1
        assert not out.exists()


class TestRepeatedIds:
    """An id listed twice, or a second hypothesis line for one id, is a data
    error naming path:line and the id."""

    @pytest.mark.parametrize("command", ["decode", "lm-train", "features", "train", "score"])
    def test_names_the_line(self, tmp_path, tiny_corpus_dir, tiny_corpus, trained_tiny,
                            capsys, command):
        ids, data = tiny_corpus.ids(), str(tiny_corpus_dir)
        listed = tmp_path / "ids.txt"
        listed.write_text(f"{ids[0]}\n{ids[1]}\n\n{ids[1]}\n")
        hyps = tmp_path / "h.txt"
        hyps.write_text(f"{ids[0]} 0.0 p0\n{ids[1]} 0.0 p1\n\n{ids[1]} 0.0 p2\n")
        part = tmp_path / "part"
        corpus_mod.save_partition(corpus_mod.Partition(
            train=tuple(ids[:20]) + (ids[1],), val=tuple(ids[20:26]), test=tuple(ids[26:])),
            part)
        bad, line, argv = {
            "decode": (listed, 4, ["decode", "--ckpt", str(trained_tiny["ckpt"]),
                                   "--data", data, "--ids", str(listed)]),
            "lm-train": (listed, 4, ["lm-train", "--data", data, "--ids", str(listed)]),
            "features": (listed, 4, ["features", "--data", data, "--train-ids", str(listed)]),
            "train": (part / "train.txt", 21, ["train", "--config", "baseline", "--data", data,
                                               "--partition", str(part)]),
            "score": (hyps, 4, ["score", "--refs", data, "--hyps", str(hyps)]),
        }[command]
        out = tmp_path / "out"
        assert cli.main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"data error: {bad}:{line}: repeated utterance id {ids[1]!r}" in err
        assert not out.exists()


class TestPartitionCover:
    """A partition that lists an id twice, misses a corpus id or lists one
    the corpus lacks is a data error naming the partition directory and the
    id."""

    @pytest.mark.parametrize("case", ["overlap", "missing", "extra"])
    def test_names_directory_and_id(self, tmp_path, tiny_corpus_dir, tiny_corpus, capsys, case):
        ids = tiny_corpus.ids()
        train, val, test = list(ids[:20]), list(ids[20:26]), list(ids[26:])
        if case == "overlap":
            test.append(val[0])
            want = f"utterance {val[0]!r} is in val and again in test"
        elif case == "missing":
            want = f"corpus utterance {test.pop()!r} is in no set"
        else:
            test.append("nosuch")
            want = "test lists 'nosuch', which the corpus lacks"
        part = tmp_path / "part"
        corpus_mod.save_partition(corpus_mod.Partition(tuple(train), tuple(val), tuple(test)),
                                  part)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", "baseline", "--data", str(tiny_corpus_dir),
                         "--partition", str(part), "--out", str(out)]) == 2
        assert f"data error: {part}: {want}" in capsys.readouterr().err
        assert not out.exists()


class TestFrontEndCalls:
    """decode runs the front end only for the clips it decodes; score,
    partition and lm-train never read features."""

    @pytest.fixture
    def wav_corpus(self, tmp_path):
        data = tmp_path / "wavs"
        (data / "wav").mkdir(parents=True)
        (data / "phn").mkdir()
        (data / "alphabet.txt").write_text("p0 p1 p2\n")
        rng = make_rng(443)
        for i in range(4):
            write_wav_at(data / "wav" / f"u{i}.wav", rng.normal(scale=0.1, size=8000), 16000)
            (data / "phn" / f"u{i}.txt").write_text(f"p{i % 3} p{(i + 1) % 3}\n")
        return data

    @pytest.fixture
    def extract_calls(self, monkeypatch):
        calls = []

        def counted(samples):
            calls.append(samples)
            return extract(samples)

        extract = F.extract
        monkeypatch.setattr(F, "extract", counted)
        return calls

    def test_decode_ids_extracts_only_listed(self, tmp_path, trained_tiny, wav_corpus,
                                             extract_calls):
        base = ["decode", "--ckpt", str(trained_tiny["ckpt"]), "--data", str(wav_corpus),
                "--beam", "4"]
        assert cli.main(base + ["--out", str(tmp_path / "all.txt")]) == 0
        assert len(extract_calls) == 4
        ids = tmp_path / "ids.txt"
        ids.write_text("u2\n")
        assert cli.main(base + ["--ids", str(ids), "--out", str(tmp_path / "one.txt")]) == 0
        assert len(extract_calls) == 5
        every = (tmp_path / "all.txt").read_text().splitlines()
        assert (tmp_path / "one.txt").read_text().splitlines() == [every[2]]

    def test_decode_unknown_id_data_error(self, tmp_path, trained_tiny, wav_corpus,
                                          extract_calls, capsys):
        ids = tmp_path / "ids.txt"
        ids.write_text("u1\nu9\n")
        rc = cli.main(["decode", "--ckpt", str(trained_tiny["ckpt"]), "--data", str(wav_corpus),
                       "--ids", str(ids), "--out", str(tmp_path / "h.txt")])
        assert rc == 2
        assert f"data error: {ids}: no utterance 'u9' in the corpus" in capsys.readouterr().err
        assert extract_calls == []

    def test_partition_and_lm_train_read_no_features(self, tmp_path, wav_corpus,
                                                     tiny_corpus_dir, extract_calls, monkeypatch):
        dumps = []
        load = F.load_feature_dump
        monkeypatch.setattr(F, "load_feature_dump", lambda path: dumps.append(path) or load(path))
        for data, sizes in ((wav_corpus, "2,1,1"), (tiny_corpus_dir, "20,6,4")):
            out = tmp_path / data.name
            assert cli.main(["partition", "--data", str(data), "--out", str(out / "part"),
                             "--sizes", sizes]) == 0
            assert cli.main(["lm-train", "--data", str(data), "--out", str(out / "m.lm")]) == 0
        assert extract_calls == [] and dumps == []

    def test_score_reads_no_audio(self, tmp_path, wav_corpus, extract_calls, capsys):
        hyps = tmp_path / "h.txt"
        hyps.write_text("u0 0.0 p0 p1\nu3 0.0 p2\n")
        out = tmp_path / "per.csv"
        assert cli.main(["score", "--refs", str(wav_corpus), "--hyps", str(hyps),
                         "--out", str(out)]) == 0
        assert extract_calls == []
        # u3's reference is p0 p1: one substitution and one deletion
        assert out.read_text().splitlines()[-1] == "AGGREGATE,2,4,0.500000"
        hyps.write_text("u0 0.0 p0\nu7 0.0 p1\n")
        assert cli.main(["score", "--refs", str(wav_corpus), "--hyps", str(hyps),
                         "--out", str(out)]) == 2
        assert "'u7' has no transcript" in capsys.readouterr().err

    def test_score_keeps_pairing_check(self, tmp_path, wav_corpus, capsys):
        (wav_corpus / "wav" / "u1.wav").unlink()
        hyps = tmp_path / "h.txt"
        hyps.write_text("u0 0.0 p0 p1\n")
        assert cli.main(["score", "--refs", str(wav_corpus), "--hyps", str(hyps),
                         "--out", str(tmp_path / "per.csv")]) == 2
        assert "transcript 'u1' has no feature or wav file" in capsys.readouterr().err


class TestUndecodableText:
    """Every text input whose bytes do not decode is a data error naming the
    file."""

    @pytest.mark.parametrize("target", [
        "feat", "phn", "alphabet", "stats", "lm", "hyps", "ids", "partition"])
    def test_names_the_file(self, tmp_path, tiny_corpus_dir, trained_tiny, capsys, target):
        data = tmp_path / "data"
        shutil.copytree(tiny_corpus_dir, data)
        first = sorted(os.listdir(data / "feat"))[0]
        stats, lm, hyps, ids = (tmp_path / name for name in (
            "stats.txt", "m.lm", "h.txt", "ids.txt"))
        part = tmp_path / "part"
        # a valid text file in every input a case does not break
        hyps.write_text("")
        part.mkdir()
        for name in ("train", "val", "test"):
            (part / f"{name}.txt").write_text("")
        bad, argv = {
            "feat": (data / "feat" / first, ["partition", "--data", str(data),
                                             "--candidates", "2"]),
            "phn": (data / "phn" / first, ["score", "--refs", str(data), "--hyps", str(hyps)]),
            "alphabet": (data / "alphabet.txt", ["partition", "--data", str(data)]),
            "stats": (stats, ["features", "--data", str(data), "--stats-in", str(stats)]),
            "lm": (lm, ["decode", "--data", str(data), "--lm", str(lm),
                        "--ckpt", str(trained_tiny["ckpt"]), "--beam", "1"]),
            "hyps": (hyps, ["score", "--refs", str(data), "--hyps", str(hyps)]),
            "ids": (ids, ["lm-train", "--data", str(data), "--ids", str(ids)]),
            "partition": (part / "train.txt", ["train", "--config", "baseline",
                                               "--data", str(data), "--partition", str(part)]),
        }[target]
        bad.write_bytes(b"\xff\xfe 1 2\n" if target != "lm" else
                        LM_TEXT.replace("vocab p0", "vocab p0 \xff").encode("latin-1"))
        rc = cli.main(argv + ["--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"data error: {bad}: " in err and "can't decode byte 0xff" in err


class TestNonFiniteNumbers:
    """A feature dump or stats file holding nan or inf is a data error naming
    the file and line."""

    @pytest.mark.parametrize("target, value", [
        ("feat", "nan"), ("feat", "-inf"), ("stats", "inf"), ("stats", "nan")])
    def test_names_the_line(self, tmp_path, tiny_corpus_dir, trained_tiny, capsys, target, value):
        data = tmp_path / "data"
        shutil.copytree(tiny_corpus_dir, data)
        if target == "feat":
            bad = data / "feat" / sorted(os.listdir(data / "feat"))[0]
            lines = bad.read_text().splitlines()
            lines[2] = " ".join([value] + lines[2].split()[1:])
            bad.write_text("\n".join(lines) + "\n")
            argv, message = (["decode", "--data", str(data), "--ckpt", str(trained_tiny["ckpt"]),
                              "--beam", "1"], f"{bad}:3: non-finite feature value")
        else:
            bad = tmp_path / "stats.txt"
            bad.write_text(f"0 0\n1 {value}\n")
            argv, message = (["features", "--data", str(data), "--stats-in", str(bad)],
                             f"{bad}:2: non-finite stats value")
        rc = cli.main(argv + ["--out", str(tmp_path / "out")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestTopLevel:
    def test_dump_catalog_entry(self, capsys):
        assert cli.main(["--dump-catalog", "RC2"]) == 0
        text = capsys.readouterr().out
        assert "network RC2" in text
        assert "conv2d feature_maps=16" in text

    def test_dump_catalog_matches_golden(self, capsys):
        # the text format is an interface: a .netcfg written by one version
        # is read by the next, so the dump stays byte for byte
        golden = os.path.join(os.path.dirname(__file__), "golden", "dump_catalog.txt")
        assert cli.main(["--dump-catalog", "*"]) == 0
        with open(golden, "rb") as fh:
            assert capsys.readouterr().out.encode() == fh.read()

    def test_dump_unknown_entry(self, capsys):
        assert cli.main(["--dump-catalog", "XX9"]) == 1

    def test_no_command_usage(self, capsys):
        assert cli.main([]) == 1

    def test_unknown_flag_rejected(self, capsys):
        assert cli.main(["synth", "--frobnicate", "--out", "x", "--n", "1"]) == 1

    def test_python_dash_m(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "rcasr", "--dump-catalog", "RC-small"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("network RC-small\n")


TRAIN_TWICE = """
import os, resource, sys
from rcasr import cli

root = sys.argv[1]
data, part = os.path.join(root, "data"), os.path.join(root, "part")
runs = [["synth", "--out", data, "--n", "80", "--seed", "7", "--sigma", "0.15"],
        ["partition", "--data", data, "--out", part, "--seed", "7"]]
runs += [["train", "--config", "RC-small", "--data", data, "--partition", part,
          "--out", os.path.join(root, f"run{k}"), "--epochs", "1", "--dropout", "0"]
         for k in range(2)]
for argv in runs:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert cli.main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _has_mallopt():
    return os.name == "posix" and hasattr(ctypes.CDLL(None), "mallopt")


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt, so the CLI leaves "
                                               "the allocator as it is")
def test_cli_keeps_freed_heap_pages(tmp_path):
    # The second of two RC-small training runs in one process faulted its
    # chunk temporaries in afresh 11.7k-13.8k times while the heap handed
    # freed top pages back; with them kept, 13-350 times.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", TRAIN_TWICE, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    faults = int(proc.stdout.split()[-1])
    assert faults < 2000
