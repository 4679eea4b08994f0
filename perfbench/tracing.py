"""Span tracing of rcasr's public functions, installed from outside the package.

A traced run rebinds each wrapped function wherever a loaded module looks it
up (``rcasr.trainer`` imports ``adam_step`` by name, ``rcasr.cli`` calls
``ctc_mod.beam_decode`` through the module), patches ``Network.forward`` and
``Network.backward``, and wraps every step object of each network that
``build_network`` returns.  Nothing inside ``src/`` changes.

Spans nest on one thread.  A span's self time is its duration minus the
time its child spans cover.  The workloads are single closed-loop callers
with no queues, so there is no waiting to record.
"""

import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# module -> public functions wrapped in the traced run
TRACED = {
    "ctc": ("beam_decode", "softmax", "greedy_decode", "ctc_loss_and_grad"),
    "network": ("forward", "backward"),
    "numerics": ("adam_step", "save_checkpoint", "load_checkpoint"),
    "features": ("extract", "normalize_corpus", "apply_stats", "save_feature_dump",
                 "load_feature_dump", "read_wav"),
    "corpus": ("load_corpus", "save_corpus", "make_partitions"),
    "lm": ("train_lm", "load_lm", "rectify"),
    "evaluate": ("per",),
    "trainer": ("train",),
    "cli": ("main",),
}
MODULES = tuple(TRACED)

STEP_KINDS = {
    "_Recurrent": "recurrent", "_Conv2d": "conv2d", "_Affine": "affine", "_Elu": "elu",
    "_Dropout": "dropout", "_ResidualBlock": "residual",
    "_SeqToMaps": "reshape", "_MapsToSeq": "reshape",
}
KINDS = ("recurrent", "conv2d", "affine", "elu", "dropout", "residual", "reshape")

# functions that run only in set-up, or about once per round, get no tail percentile
SETUP_ONLY = {"corpus.make_partitions", "lm.train_lm"}
_NO_TAIL = {"cli.main", "trainer.train", "corpus.load_corpus", "corpus.save_corpus",
            "lm.load_lm", "numerics.load_checkpoint"}
_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
_F64 = 8


def _nbytes(obj):
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    return 0


def _count_beam(counts, args, kwargs, result):
    # computed from shapes: every frame scores W x (L-1) label extensions of
    # W live prefixes and keeps W
    t_len, n_labels = np.shape(args[0])
    width = kwargs.get("width", args[1] if len(args) > 1 else 16)
    counts["ctc.beam_decode.extensions"] += t_len * width * (n_labels - 1)
    counts["ctc.beam_decode.kept"] += t_len * width


def _count_corpus(counts, args, kwargs, result):
    counts["corpus.loaded"] += len(result)
    counts["corpus.infeasible"] += sum(not u.ctc_feasible for u in result.utterances.values())


_COUNTERS = {"ctc.beam_decode": _count_beam, "corpus.load_corpus": _count_corpus}


def top_percentile(n):
    """Highest percentile with at least ten samples beyond it (None below 20)."""
    for p in _PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return None


class Tracer:
    """Collects spans and computed counts while installed (``with tracer:``)."""

    def __init__(self, extra_modules=()):
        self.durations = defaultdict(list)   # span name -> durations in s
        self.self_s = defaultdict(float)     # span name -> self time in s
        self.counts = defaultdict(int)       # computed counts
        self._stack = []
        self._undo = []
        self._extra = tuple(extra_modules)

    # -- spans -----------------------------------------------------------------

    def _enter(self):
        self._stack.append([perf_counter(), 0.0])

    def _exit(self, name):
        start, child = self._stack.pop()
        dur = perf_counter() - start
        self.durations[name].append(dur)
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    def _wrap(self, name, fn):
        count = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------------

    def _modules(self):
        mods = [m for n, m in sys.modules.items() if n == "rcasr" or n.startswith("rcasr.")]
        return mods + list(self._extra)

    def _rebind(self, fn, wrapper):
        for mod in self._modules():
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, attr, wrapper)

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def __enter__(self):
        import rcasr.network as net_mod

        for module, names in TRACED.items():
            if module == "network":
                continue
            mod = sys.modules[f"rcasr.{module}"]
            for attr in names:
                fn = getattr(mod, attr)
                self._rebind(fn, self._wrap(f"{module}.{attr}", fn))
        build = net_mod.build_network
        self._rebind(build, self._wrap_build(build))
        net_cls = net_mod.Network
        self._set(net_cls, "forward", self._wrap_forward(net_cls.forward))
        self._set(net_cls, "backward", self._wrap("network.backward", net_cls.backward))
        return self

    def __exit__(self, *exc):
        for obj, attr, old in reversed(self._undo):
            setattr(obj, attr, old)
        self._undo.clear()
        return False

    def _wrap_forward(self, forward):
        def traced(net, x, training=False, rng=None):
            self._enter()
            try:
                return forward(net, x, training, rng)
            finally:
                self._exit("network.forward")
                if training:
                    self.counts["network.training_forwards"] += 1
        return traced

    def _wrap_build(self, build):
        def traced(*args, **kwargs):
            net = build(*args, **kwargs)
            net.steps = [self._traced_step(s) for s in net.steps]
            return net
        return traced

    def _traced_step(self, step):
        kind = STEP_KINDS[type(step).__name__]
        if kind == "residual":
            step.inner = [self._traced_step(s) for s in step.inner]
        return _TracedStep(self, step, kind)

    # -- summary -----------------------------------------------------------------

    def module_self_s(self):
        out = dict.fromkeys(MODULES, 0.0)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return out

    def function_stats(self, rounds):
        """Per wrapped function: calls and self seconds per round, ms p50 and tail."""
        stats = {}
        for module, names in TRACED.items():
            for fn in names:
                name = f"{module}.{fn}"
                durs = np.asarray(self.durations.get(name, ()), dtype=np.float64) * 1e3
                p = top_percentile(durs.size)
                stats[name] = {
                    "calls": durs.size / rounds,
                    "self_s": self.self_s.get(name, 0.0) / rounds,
                    "ms_p50": float(np.median(durs)) if durs.size else 0.0,
                    "ms_top": float(np.percentile(durs, p) if p else durs.max()) if durs.size else 0.0,
                    "top_percentile": p if durs.size >= 20 else "max",
                }
        return stats


class _TracedStep:
    """Times one network step and counts what its forward context keeps."""

    def __init__(self, tracer, step, kind):
        self.tracer = tracer
        self.step = step
        self.kind = kind
        self._fwd = f"network.{kind}.forward"
        self._bwd = f"network.{kind}.backward"

    def forward(self, x, training, rng):
        t = self.tracer
        t._enter()
        try:
            out, ctx = self.step.forward(x, training, rng)
        finally:
            t._exit(self._fwd)
        if training:
            # a residual context holds its inner steps' contexts, counted by them
            kept = ctx[1] if self.kind == "residual" else ctx
            t.counts[f"network.{self.kind}.saved_bytes"] += _nbytes(kept)
        if self.kind == "conv2d":
            c, tt, f = x.shape
            o, k, n = self.step.out_maps, 9 * c, tt * f
            t.counts["network.conv2d.flops"] += 2 * o * k * n
            # im2col copy, then the kernel, patch and output operands of one GEMM
            t.counts["network.conv2d.bytes"] += _F64 * (k * n + o * k + k * n + o * n)
        return out, ctx

    def backward(self, ctx, g):
        t = self.tracer
        t._enter()
        try:
            return self.step.backward(ctx, g)
        finally:
            t._exit(self._bwd)
            if self.kind == "conv2d":
                o, (c, tt, f) = self.step.out_maps, ctx[1]
                k, n = 9 * c, tt * f
                # kernel-gradient GEMM plus nine shifted input-gradient GEMMs
                t.counts["network.conv2d.flops"] += 2 * (2 * o * k * n)
                t.counts["network.conv2d.bytes"] += _F64 * (
                    (o * n + k * n + o * k) + 9 * (o * c + o * n + c * n))


def per_layer_metrics():
    """(name, unit) of every per-layer metric a traced run reports, in order.

    Calls, self time, flops and bytes are per round, so they do not depend on
    how many rounds fit in the run.
    """
    out = []
    for module, fns in TRACED.items():
        for fn in fns:
            name = f"{module}.{fn}"
            if name in SETUP_ONLY:
                continue
            out += [(f"{name}.calls", "count/round"), (f"{name}.self_s", "s/round"),
                    (f"{name}.ms_p50", "ms")]
            if name not in _NO_TAIL:
                out.append((f"{name}.ms_top", "ms"))
    for kind in KINDS:
        out += [(f"network.{kind}.forward_s", "s/round"), (f"network.{kind}.backward_s", "s/round")]
    out += [(f"network.{kind}.saved_bytes", "B/forward") for kind in KINDS if kind != "reshape"]
    out += [("network.conv2d.flops", "flop/round"), ("network.conv2d.bytes", "B/round"),
            ("ctc.beam_decode.extensions", "count/round"), ("ctc.beam_decode.kept_ratio", "ratio"),
            ("corpus.infeasible_frac", "ratio"), ("trainer.trained_ratio", "ratio")]
    out += [(f"{m}.share", "ratio") for m in MODULES]
    out += [(f"setup.{m}.share", "ratio") for m in MODULES]
    out.append(("trace_overhead", "ratio"))
    return out
