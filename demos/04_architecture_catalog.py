"""The architecture catalog: recurrent-convolutional (RC), convolutional-
recurrent (CR), and residual variants, with parameter counts and the
plain-text config format.
"""

from rcasr.network import build_network, catalog, dump_config
from rcasr.numerics import make_rng

cat = catalog()

print("== catalog entries (input 39, output 62) ==")
for name, cfg in cat.items():
    net = build_network(cfg, rng=make_rng(0))
    kinds = [s.kind for s in cfg.layers]
    shape = f"{kinds.count('recurrent')} rec / {kinds.count('conv2d')} conv"
    spans = f", {len(cfg.residual_groups)} residual spans" if cfg.residual_groups else ""
    print(f"  {name:12s} {net.store.n_params():>8,d} params  ({shape}{spans})")

print("\n== RC2 feature-map schedule ==")
print([s.value for s in cat["RC2"].layers if s.kind == "conv2d"])

print("\n== Res-RC2: identity shortcuts wrap each equal-width conv run ==")
print(dump_config(cat["Res-RC2"]))

print("== a residual block with zeroed branch is exactly the identity ==")
import numpy as np

from rcasr.network import _Chunk, _Conv2d, _ResidualBlock
from rcasr.numerics import ParameterStore

store = ParameterStore()
inner = [_Conv2d(store, "f", 2, 2, make_rng(1))]
for p in store.entries.values():
    p.value[...] = 0.0
block = _ResidualBlock(inner, alpha=1.0)
x = np.abs(make_rng(2).normal(size=(2, 3, 4)))
out, _ = block.forward(x, False, _Chunk([3]))
print("elu(x + 0) == x for x >= 0:", np.array_equal(out, x))
