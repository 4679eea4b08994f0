"""Audio front end: 16 kHz mono speech to normalized 39-dim feature matrices.

Pipeline: pre-emphasis (0.97) -> 25 ms Hamming frames every 10 ms -> power
spectrum (FFT 512) -> 26-triangle mel filterbank over 0-8 kHz -> log (floored
at 1e-10) -> DCT-II -> 13 cepstra with c0 replaced by log frame energy ->
delta and delta-delta appended (regression window 2, edges replicated) ->
per-dimension corpus normalization.

The c0 := log-energy substitution is one reading of "log energy
coefficients"; it is applied uniformly and recorded here on purpose.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .textio import open_text

log = logging.getLogger(__name__)

SAMPLE_RATE = 16000
FRAME_LENGTH = 400        # 25 ms at 16 kHz
FRAME_SHIFT = 160         # 10 ms hop
FFT_SIZE = 512
N_MELS = 26
N_CEPS = 13
N_FEATURES = 39           # 13 cepstra + 13 deltas + 13 delta-deltas
PREEMPHASIS = 0.97
LOG_FLOOR = 1e-10
DELTA_WINDOW = 2


def hamming_window():
    n = np.arange(FRAME_LENGTH)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / (FRAME_LENGTH - 1))


_HAMMING = hamming_window()


def frame_count(n_samples):
    return (n_samples - FRAME_LENGTH) // FRAME_SHIFT + 1


def frame_and_window(samples):
    """Pre-emphasise 16 kHz samples and slice them into Hamming-windowed frames
    of 400 samples every 160.  The trailing partial frame is dropped.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size < FRAME_LENGTH:
        raise ValueError(
            f"clip of {x.size} samples is shorter than one {FRAME_LENGTH}-sample frame"
        )
    x = np.concatenate([x[:1], x[1:] - PREEMPHASIS * x[:-1]])
    n = frame_count(x.size)
    idx = np.arange(FRAME_LENGTH)[None, :] + FRAME_SHIFT * np.arange(n)[:, None]
    return x[idx] * _HAMMING[None, :]


def power_spectrum(frame):
    spec = np.fft.rfft(frame, n=FFT_SIZE)
    return (spec.real ** 2 + spec.imag ** 2)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


# the filters' edges and centres: N_MELS + 2 points equally spaced in mel
# from 0 Hz to the Nyquist frequency
_MEL_POINTS_HZ = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(SAMPLE_RATE / 2.0), N_MELS + 2))


def mel_filterbank():
    """Triangular mel filters as an (N_MELS, FFT_SIZE//2 + 1) weight matrix."""
    bins = np.floor((FFT_SIZE + 1) * _MEL_POINTS_HZ / SAMPLE_RATE).astype(int)
    fbank = np.zeros((N_MELS, FFT_SIZE // 2 + 1))
    for m in range(1, N_MELS + 1):
        left, center, right = bins[m - 1], bins[m], bins[m + 1]
        for k in range(left, center):
            fbank[m - 1, k] = (k - left) / max(center - left, 1)
        for k in range(center, right):
            fbank[m - 1, k] = (right - k) / max(right - center, 1)
    return fbank


def filter_centers_hz():
    """Center frequency of each mel filter, in Hz."""
    return _MEL_POINTS_HZ[1:-1].copy()


def dct_matrix(n_out, n_in):
    """Orthonormal DCT-II basis, rows are output coefficients."""
    k = np.arange(n_out)[:, None]
    m = np.arange(n_in)[None, :]
    mat = np.cos(np.pi * k * (2 * m + 1) / (2.0 * n_in))
    mat *= np.sqrt(2.0 / n_in)
    mat[0] *= np.sqrt(0.5)
    return mat


_FBANK = mel_filterbank()
_DCT = dct_matrix(N_CEPS, N_MELS)


def mfcc(frames):
    """13 cepstral coefficients of each windowed frame along the last axis (one
    frame or a T x 400 matrix); c0 is log frame energy."""
    log_e = np.log(np.maximum(power_spectrum(frames) @ _FBANK.T, LOG_FLOOR))
    ceps = log_e @ _DCT.T
    ceps[..., 0] = np.log(np.maximum(np.sum(frames ** 2, axis=-1), LOG_FLOOR))
    return ceps


def mfcc_matrix(samples):
    return mfcc(frame_and_window(samples))


def deltas(coeffs):
    """Append regression deltas and delta-deltas: T x D -> T x 3D.

    Delta_t = sum_n n*(c_{t+n} - c_{t-n}) / (2 * sum_n n^2) with edge frames
    replicated; the second derivative is the delta of the delta.
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=np.float64))
    window = DELTA_WINDOW

    def one(track):
        padded = np.concatenate([
            np.repeat(track[:1], window, axis=0),
            track,
            np.repeat(track[-1:], window, axis=0),
        ])
        denom = 2.0 * sum(n * n for n in range(1, window + 1))
        out = np.zeros_like(track)
        for n in range(1, window + 1):
            out += n * (padded[window + n:window + n + len(track)]
                        - padded[window - n:window - n + len(track)])
        return out / denom

    d1 = one(coeffs)
    d2 = one(d1)
    return np.concatenate([coeffs, d1, d2], axis=1)


def extract(samples):
    """Full front end for one clip of 16 kHz samples: T x 39 unnormalized
    features."""
    return deltas(mfcc_matrix(samples))


# -- corpus-level normalization ----------------------------------------------

@dataclass
class FeatureStats:
    mean: np.ndarray
    std: np.ndarray


def normalize_corpus(mats):
    """Zero-mean/unit-variance each column over all frames of `mats`.

    Returns the normalized matrices plus the stats, which should be reused
    verbatim on held-out data.  Zero-variance columns are clamped to
    std = 1 with a warning naming them.
    """
    if not mats:
        raise ValueError("normalize_corpus: need at least one matrix")
    pooled = np.concatenate([np.asarray(m, dtype=np.float64) for m in mats])
    mean = pooled.mean(axis=0)
    std = pooled.std(axis=0)
    constant = pooled.max(axis=0) == pooled.min(axis=0)
    clamped = tuple(int(i) for i in np.nonzero(constant)[0])
    if clamped:
        log.warning("normalize_corpus: zero variance in dims %s, std clamped to 1", clamped)
        std = std.copy()
        std[constant] = 1.0
        mean = mean.copy()
        mean[constant] = pooled[0, constant]
    stats = FeatureStats(mean=mean, std=std)
    return [apply_stats(m, stats) for m in mats], stats


def apply_stats(mat, stats):
    return (np.asarray(mat, dtype=np.float64) - stats.mean) / stats.std


# -- file formats -------------------------------------------------------------

def read_wav(path):
    """Read 16 kHz 16-bit PCM mono WAV into samples scaled to [-1, 1).

    The frame, hop and filterbank constants are fixed for SAMPLE_RATE, so a
    file at any other rate is refused rather than framed wrongly.
    """
    import wave

    with wave.open(str(path), "rb") as wf:
        if wf.getnchannels() != 1:
            raise ValueError(f"{path}: expected mono audio, got {wf.getnchannels()} channels")
        if wf.getsampwidth() != 2:
            raise ValueError(f"{path}: expected 16-bit PCM, got {8 * wf.getsampwidth()}-bit")
        rate = wf.getframerate()
        if rate != SAMPLE_RATE:
            raise ValueError(f"{path}: expected {SAMPLE_RATE} Hz audio, got {rate} Hz")
        raw = wf.readframes(wf.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0


def save_feature_dump(path, mat):
    """Plain-text dump: header "T 39", then T whitespace-separated rows."""
    mat = np.asarray(mat, dtype=np.float64)
    t, d = mat.shape
    row = " ".join(["%.17g"] * d) + "\n"
    with open(path, "w") as fh:
        fh.write(f"{t} {d}\n" + row * t % tuple(mat.ravel().tolist()))


def load_feature_dump(path):
    """A T x D matrix of finite values; a malformed file is a ValueError
    naming path and line."""
    with open_text(path) as fh:
        header = fh.readline().split()
        if len(header) != 2 or not all(v.isdecimal() for v in header):
            raise ValueError(f"{path}:1: malformed feature dump header")
        t, d = int(header[0]), int(header[1])
        rows, lines = [], []
        for i, line in enumerate(fh, start=2):
            vals = line.split()
            if not vals:
                continue
            if len(vals) != d:
                raise ValueError(f"{path}:{i}: expected {d} values, got {len(vals)}")
            try:
                rows.append([float(v) for v in vals])
            except ValueError as exc:
                raise ValueError(f"{path}:{i}: {exc}") from None
            lines.append(i)
    if len(rows) != t:
        raise ValueError(f"{path}: header claims {t} rows, found {len(rows)}")
    mat = np.asarray(rows, dtype=np.float64).reshape(t, d)
    if not np.isfinite(mat).all():
        first = int(np.argmin(np.isfinite(mat).all(axis=1)))
        raise ValueError(f"{path}:{lines[first]}: non-finite feature value")
    return mat


def save_stats(path, stats):
    """Stats as a 2 x D text matrix: mean row then std row."""
    with open(path, "w") as fh:
        for row in (stats.mean, stats.std):
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_stats(path):
    """A save_stats file; a malformed one is a ValueError naming the path
    (and the line of a non-finite value or of a std not all > 0)."""
    try:
        with open(path) as fh:
            mean = np.asarray([float(v) for v in fh.readline().split()])
            std = np.asarray([float(v) for v in fh.readline().split()])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if mean.size != std.size or mean.size == 0:
        raise ValueError(f"{path}: malformed stats file")
    for ln, row in enumerate((mean, std), start=1):
        if not np.isfinite(row).all():
            raise ValueError(f"{path}:{ln}: non-finite stats value")
    if not (std > 0).all():
        raise ValueError(f"{path}:2: std values must be > 0")
    return FeatureStats(mean=mean, std=std)
