import os
import subprocess
import sys

import numpy as np
import pytest

from rcasr import cli
from rcasr import corpus as corpus_mod
from rcasr import ctc as ctc_mod
from rcasr import features as F
from rcasr.network import build_network, load_config
from rcasr.numerics import load_checkpoint, make_rng


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
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

    def test_spec_file(self, tmp_path):
        spec = tmp_path / "gen.spec"
        spec.write_text("n_phonemes 4\nsigma 0.1\nduration 3 5\nsentence 2 3\nseed 9\n")
        out = tmp_path / "c"
        assert cli.main(["synth", "--spec", str(spec), "--out", str(out), "--n", "5"]) == 0
        corp = corpus_mod.load_corpus(out)
        assert len(corp.alphabet.non_blank) == 4
        assert all(2 <= len(u.labels) <= 3 for u in corp.utterances.values())


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
    ], ids=["epochs", "checkpoint-every", "batch-size"])
    def test_negative_schedule_data_error(self, tmp_path, tiny_corpus_dir, capsys,
                                          flag, value, message):
        out = tmp_path / "run"
        rc = cli.main(["train", "--config", "baseline", "--data", str(tiny_corpus_dir),
                       "--out", str(out), flag, value])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not list(out.glob("*.ckpt"))


class TestPartitionCmd:
    def test_writes_cover(self, tmp_path, tiny_corpus_dir, tiny_corpus):
        out = tmp_path / "part"
        rc = cli.main(["partition", "--data", str(tiny_corpus_dir), "--out", str(out),
                       "--seed", "6", "--sizes", "20,6,4"])
        assert rc == 0
        part = corpus_mod.load_partition(out)
        part.check_covers(tiny_corpus)


class TestFeaturesCmd:
    def test_wav_to_normalized_dumps(self, tmp_path):
        rng = make_rng(440)
        data = tmp_path / "raw"
        (data / "wav").mkdir(parents=True)
        (data / "phn").mkdir()
        for i in range(3):
            clip = F.AudioClip(rng.normal(scale=0.1, size=8000))
            F.write_wav(data / "wav" / f"u{i}.wav", clip)
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
        F.write_wav(data / "wav" / "u0.wav",
                    F.AudioClip(make_rng(441).normal(scale=0.1, size=8000), sample_rate=8000))
        (data / "phn" / "u0.txt").write_text("aa b\n")
        rc = cli.main(["features", "--data", str(data), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "u0.wav" in capsys.readouterr().err


class TestLmTrainCmd:
    def test_model_file_written(self, tmp_path, tiny_corpus_dir):
        out = tmp_path / "model.lm"
        rc = cli.main(["lm-train", "--data", str(tiny_corpus_dir), "--out", str(out)])
        assert rc == 0
        from rcasr.lm import load_lm, score

        model = load_lm(out)
        assert score(model, ("p0", "p1")) < 0.0


class TestDecode:
    def test_beam_one_equals_greedy(self, tmp_path, trained_tiny, tiny_corpus_dir, tiny_corpus):
        out = tmp_path / "hyp.txt"
        rc = cli.main(["decode", "--ckpt", str(trained_tiny["ckpt"]),
                       "--data", str(tiny_corpus_dir), "--beam", "1",
                       "--out", str(out)])
        assert rc == 0
        decoded = cli.read_hypotheses(out)

        net_config = load_config(trained_tiny["netcfg"])
        net = build_network(net_config, output_units=tiny_corpus.alphabet.size)
        store = load_checkpoint(trained_tiny["ckpt"])
        for name, p in store.entries.items():
            net.store[name].value[...] = p.value
        for utt_id in tiny_corpus.ids():
            logits, _ = net.forward(tiny_corpus[utt_id].features)
            greedy = tiny_corpus.alphabet.decode(
                ctc_mod.greedy_decode(ctc_mod.softmax(logits)))
            assert decoded[utt_id] == greedy, utt_id

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

    def test_invalid_beam_usage_error(self, tmp_path, trained_tiny, tiny_corpus_dir):
        rc = cli.main(["decode", "--ckpt", str(trained_tiny["ckpt"]),
                       "--data", str(tiny_corpus_dir), "--beam", "0",
                       "--out", str(tmp_path / "x.txt")])
        assert rc == 1


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


class TestCompareCmd:
    def test_two_models_two_curves(self, tmp_path, tiny_corpus_dir):
        out = tmp_path / "cmp"
        rc = cli.main(["compare", "--models", "baseline,RC2-toy",
                       "--data", str(tiny_corpus_dir), "--out", str(out),
                       "--epochs", "1", "--lr", "0.002", "--batch-size", "8"])
        assert rc == 0
        assert (out / "baseline_curve.csv").exists()
        assert (out / "RC2-toy_curve.csv").exists()

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

    def test_unknown_model_usage_error(self, tmp_path, tiny_corpus_dir, capsys):
        rc = cli.main(["compare", "--models", "no-such-net",
                       "--data", str(tiny_corpus_dir), "--out", str(tmp_path / "x"),
                       "--epochs", "1"])
        assert rc == 1


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
