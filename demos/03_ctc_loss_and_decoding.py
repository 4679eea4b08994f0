"""CTC from first principles on instances small enough to enumerate.

Shows the path-sum definition, the scaled forward/backward trellis, the
analytic gradient, and greedy vs beam decoding.
"""

import itertools

import numpy as np

from rcasr.ctc import beam_decode, collapse, ctc_forward, ctc_loss_and_grad, greedy_decode

# three frames, alphabet {A, B, blank}; rows are per-frame distributions
y = np.array([
    [0.6, 0.2, 0.2],
    [0.3, 0.3, 0.4],
    [0.1, 0.7, 0.2],
])
blank = 2
target = (0, 1)   # "A B"

print("== p(l|x) by brute-force path enumeration ==")
total = 0.0
for path in itertools.product(range(3), repeat=3):
    if collapse(path, blank) == target:
        p = np.prod([y[t, k] for t, k in enumerate(path)])
        print("  path", path, "prob", round(float(p), 4))
        total += p
print("enumerated p =", round(float(total), 6))

trellis = ctc_forward(y, target)
print("dynamic program p =", round(float(np.exp(trellis.log_prob)), 6))

print("\n== loss and gradient through the built-in softmax ==")
logits = np.log(y)          # softmax(log y) = y
loss, grad = ctc_loss_and_grad(logits, target)
print("loss -ln p =", round(float(loss), 6))
print("gradient rows sum to zero:", np.round(grad.sum(axis=1), 12))

print("\n== decoding ==")
print("greedy best path:", greedy_decode(y))
for labels, score in beam_decode(y, width=None)[:5]:
    print(f"  beam hypothesis {labels!s:10s} log p = {score:.4f}")
