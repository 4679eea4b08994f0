"""From raw audio samples to normalized 39-dimensional feature matrices.

Builds two synthetic tones, walks them through framing, MFCC extraction,
deltas, and corpus normalization.
"""

import numpy as np

from rcasr import features as F

sr = 16000
t = np.arange(int(0.8 * sr)) / sr
tone = 0.4 * np.sin(2 * np.pi * 440 * t)
chirp = 0.4 * np.sin(2 * np.pi * (200 + 1200 * t) * t)

print("== Framing: 25 ms windows every 10 ms ==")
frames = F.frame_and_window(tone)
expected = (tone.size - F.FRAME_LENGTH) // F.FRAME_SHIFT + 1
print(f"{tone.size} samples -> {frames.shape[0]} frames "
      f"of {frames.shape[1]} (formula gives {expected})")

print("\n== MFCC of one frame ==")
ceps = F.mfcc(frames[10])
print("13 coefficients, c0 = log frame energy:", np.round(ceps[:4], 3), "...")

print("\n== Where the filterbank puts a 440 Hz tone ==")
energies = F.mel_filterbank() @ F.power_spectrum(frames[10])
centers = F.filter_centers_hz()
peak = int(np.argmax(energies))
print(f"strongest mel filter #{peak} centered at {centers[peak]:.0f} Hz")

print("\n== Full per-clip pipeline: T x 39 (cepstra + deltas + delta-deltas) ==")
mats = [F.extract(tone), F.extract(chirp)]
print("shapes:", [m.shape for m in mats])

print("\n== Corpus normalization (reusable stats) ==")
normed, stats = F.normalize_corpus(mats)
pooled = np.concatenate(normed)
print("pooled column means ~0:", float(np.abs(pooled.mean(axis=0)).max()))
print("pooled column stds  ~1:", float(np.abs(pooled.std(axis=0) - 1).max()))
held_out = F.apply_stats(F.extract(tone), stats)
print("held-out clip normalized with the same stats:", held_out.shape)
