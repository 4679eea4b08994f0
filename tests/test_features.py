import wave

import numpy as np
import pytest

from conftest import write_wav_at
from oracles import naive_dct2_ortho, naive_dft, save_feature_dump_by_rows
from rcasr import features as F
from rcasr.numerics import make_rng


class TestFraming:
    def test_one_second_gives_98_frames(self):
        frames = F.frame_and_window(np.zeros(16000) + 0.1)
        assert frames.shape == (98, 400)

    def test_frame_count_formula(self):
        rng = make_rng(20)
        for _ in range(10):
            n = int(rng.integers(400, 20000))
            assert F.frame_and_window(rng.normal(size=n)).shape[0] == (n - 400) // 160 + 1

    def test_too_short_clip_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            F.frame_and_window(np.zeros(399))

    def test_constant_frame_is_hamming_window(self):
        # pre-emphasis leaves the first sample and turns every later 1 into
        # 1 - 0.97, so frames after the first are that multiple of the window
        frames = F.frame_and_window(np.ones(800))
        for row in frames[1:]:
            assert np.array_equal(row, (1.0 - F.PREEMPHASIS) * F.hamming_window())

    def test_deterministic(self):
        x = make_rng(21).normal(size=3000)
        a = F.frame_and_window(x)
        b = F.frame_and_window(x.copy())
        assert np.array_equal(a, b)


def test_fft_against_naive_dft():
    rng = make_rng(22)
    frame = rng.normal(size=512)
    fast = np.fft.rfft(frame, n=512)
    slow = naive_dft(frame)[:257]
    assert np.max(np.abs(fast - slow)) <= 1e-8


def test_power_spectrum_matches_oracle():
    rng = make_rng(23)
    frame = rng.normal(size=400)
    padded = np.concatenate([frame, np.zeros(112)])
    slow = np.abs(naive_dft(padded)[:257]) ** 2
    assert np.max(np.abs(F.power_spectrum(frame) - slow)) <= 1e-7


class TestMfcc:
    def test_all_zero_frame_is_floored(self):
        ceps = F.mfcc(np.zeros(400))
        # every filter energy hits the floor, log vector is constant
        expected = naive_dct2_ortho(np.full(26, np.log(1e-10)))[:13]
        expected[0] = np.log(1e-10)      # c0 is replaced by log energy
        assert np.allclose(ceps, expected, atol=1e-12)

    def test_sine_energy_lands_in_1khz_filters(self):
        t = np.arange(400) / 16000.0
        frame = np.sin(2 * np.pi * 1000.0 * t) * F.hamming_window()
        energies = F.mel_filterbank() @ F.power_spectrum(frame)
        centers = F.filter_centers_hz()
        peak = int(np.argmax(energies))
        assert abs(centers[peak] - 1000.0) < 200.0
        # cross-check the spectrum path with the naive DFT oracle
        slow = np.abs(naive_dft(np.concatenate([frame, np.zeros(112)]))[:257]) ** 2
        energies_slow = F.mel_filterbank() @ slow
        assert int(np.argmax(energies_slow)) == peak

    def test_doubling_input_shifts_c0_by_ln4(self):
        rng = make_rng(24)
        frame = rng.normal(size=400) + 2.0   # keeps all filters off the floor
        a = F.mfcc(frame)
        b = F.mfcc(2.0 * frame)
        assert b[0] - a[0] == pytest.approx(np.log(4.0), abs=1e-12)
        assert np.max(np.abs(b[1:] - a[1:])) <= 1e-9

    def test_dct_matrix_matches_oracle(self):
        rng = make_rng(25)
        x = rng.normal(size=26)
        fast = F.dct_matrix(26, 26) @ x
        assert np.allclose(fast, naive_dct2_ortho(x), atol=1e-12)

    def test_matrix_rows_equal_single_frame_mfcc(self):
        rng = make_rng(36)
        x = rng.normal(size=4000)
        x[1200:1800] = 0.0                   # silent frames exercise the floors
        mat = F.mfcc_matrix(x)
        frames = F.frame_and_window(x)
        assert mat.shape == (frames.shape[0], 13)
        for row, frame in zip(mat, frames):
            assert np.max(np.abs(row - F.mfcc(frame))) <= 1e-12


class TestDeltas:
    def test_constant_track(self):
        out = F.deltas(np.ones((6, 13)) * 3.0)
        assert out.shape == (6, 39)
        assert np.all(out[:, 13:] == 0.0)

    def test_linear_ramp(self):
        t = np.arange(10, dtype=float)[:, None]
        out = F.deltas(np.repeat(t, 13, axis=1))
        # interior delta of c_t = t is exactly 1; delta-delta vanishes
        assert np.allclose(out[2:-2, 13:26], 1.0, atol=1e-12)
        assert np.allclose(out[4:-4, 26:], 0.0, atol=1e-12)

    def test_single_frame(self):
        out = F.deltas(np.full((1, 13), 2.5))
        assert np.all(out[:, 13:] == 0.0)


class TestNormalize:
    def test_pooled_moments(self):
        rng = make_rng(26)
        mats = [rng.normal(5.0, 3.0, size=(int(rng.integers(5, 20)), 39)) for _ in range(4)]
        normed, stats = F.normalize_corpus(mats)
        pooled = np.concatenate(normed)
        assert np.max(np.abs(pooled.mean(axis=0))) <= 1e-9
        assert np.max(np.abs(pooled.std(axis=0) - 1.0)) <= 1e-9

    def test_stats_reuse_and_idempotence(self):
        rng = make_rng(27)
        mats = [rng.normal(size=(8, 39))]
        normed, stats = F.normalize_corpus(mats)
        again = F.apply_stats(mats[0], stats)
        assert np.array_equal(again, normed[0])
        twice, _ = F.normalize_corpus(normed)
        assert np.allclose(twice[0], normed[0], atol=1e-12)

    def test_constant_column_clamped(self, caplog):
        rng = make_rng(28)
        mat = rng.normal(size=(10, 39))
        mat[:, 7] = 4.2
        with caplog.at_level("WARNING", logger="rcasr.features"):
            normed, stats = F.normalize_corpus([mat])
        assert stats.std[7] == 1.0
        assert np.all(normed[0][:, 7] == 0.0)
        assert "zero variance in dims (7,)" in caplog.text


class TestFileFormats:
    def test_wav_round_trip(self, tmp_path):
        rng = make_rng(32)
        samples = np.round(rng.uniform(-0.5, 0.5, size=2000) * 32768) / 32768
        path = tmp_path / "x.wav"
        write_wav_at(path, samples, 16000)
        back = F.read_wav(path)
        with wave.open(str(path), "rb") as wf:
            assert wf.getframerate() == 16000
        assert np.allclose(back, samples, atol=1.0 / 32768)

    def test_other_sample_rate_rejected(self, tmp_path):
        # frame, hop and filterbank constants hold only at 16 kHz
        path = tmp_path / "narrow.wav"
        write_wav_at(path, make_rng(36).normal(scale=0.1, size=4000), 8000)
        with pytest.raises(ValueError, match="narrow.wav.*8000 Hz"):
            F.read_wav(path)

    def test_feature_dump_round_trip(self, tmp_path):
        mat = make_rng(33).normal(size=(7, 39))
        path = tmp_path / "f.txt"
        F.save_feature_dump(path, mat)
        assert np.array_equal(F.load_feature_dump(path), mat)
        header = path.read_text().splitlines()[0]
        assert header == "7 39"

    @pytest.mark.parametrize("shape", [(7, 39), (0, 39), (3, 1), (2, 0)])
    def test_feature_dump_bytes_match_row_writer(self, tmp_path, shape):
        # signed zeros, subnormals, the largest and smallest doubles and
        # values that need all 17 digits
        mat = make_rng(37).normal(size=shape) * 10.0 ** make_rng(38).integers(
            -300, 300, size=shape)
        special = [-0.0, 0.0, 5e-324, -2.2250738585072009e-308, 1e308, -1e308,
                   1.7976931348623157e308, 0.1, 1 / 3, -123456789.0]
        flat = mat.reshape(-1)
        flat[:len(special)] = special[:flat.size]
        got, want = tmp_path / "got.txt", tmp_path / "want.txt"
        F.save_feature_dump(got, mat)
        save_feature_dump_by_rows(want, mat)
        assert got.read_bytes() == want.read_bytes()

    def test_dump_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 3\n1 2 3\n4 5\n")
        with pytest.raises(ValueError, match=":3"):
            F.load_feature_dump(path)

    def test_stats_round_trip(self, tmp_path):
        rng = make_rng(34)
        _, stats = F.normalize_corpus([rng.normal(size=(6, 39))])
        path = tmp_path / "stats.txt"
        F.save_stats(path, stats)
        back = F.load_stats(path)
        assert np.array_equal(back.mean, stats.mean)
        assert np.array_equal(back.std, stats.std)
        assert len(path.read_text().splitlines()) == 2


def test_extract_pipeline_is_pure():
    rng = make_rng(35)
    x = rng.normal(size=4000)
    a = F.extract(x)
    b = F.extract(x.copy())
    assert a.shape[1] == 39
    assert np.array_equal(a, b)
