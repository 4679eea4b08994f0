"""Mutation fuzzing of the text loaders.

Each loader reads a file from outside the program, so whatever bytes a
valid file is mutated into, a loader may only raise ValueError (which the
CLI reports as a data error naming the file) or OSError.
"""

import math
import os

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcasr import cli
from rcasr import corpus as corpus_mod
from rcasr import features as F
from rcasr import lm as lm_mod


def _valid_files(root):
    """One valid input per loader, written by the library's own writers."""
    files = {}
    files["feat"] = os.path.join(root, "u.feat")
    F.save_feature_dump(files["feat"], np.arange(12.0).reshape(3, 4) / 7.0)
    files["stats"] = os.path.join(root, "stats.txt")
    F.save_stats(files["stats"], F.FeatureStats(mean=np.array([0.5, -1.0]),
                                                std=np.array([1.0, 2.0])))
    files["lm"] = os.path.join(root, "m.lm")
    lm_mod.save_lm(files["lm"], lm_mod.train_lm([("a", "b", "a"), ("b", "c")]))
    files["hyps"] = os.path.join(root, "h.txt")
    with open(files["hyps"], "w") as fh:
        fh.write("u1 -1.500000 a b\nu2 -2.000000\n")
    files["partition"] = os.path.join(root, "part")
    corpus_mod.save_partition(corpus_mod.Partition(train=("u1", "u2"), val=("u3",),
                                                   test=("u4",)), files["partition"])
    return files


_LOADERS = {
    "feat": F.load_feature_dump,
    "stats": F.load_stats,
    "lm": lm_mod.load_lm,
    "hyps": cli.read_hypotheses,
    "partition": corpus_mod.load_partition,
}

# tokens that mean something to some loader, or that number parsers mishandle
_TOKENS = st.sampled_from([
    " ", "\t", "\n", "\r", "0", "1", "-1", "3", "39", "1e999", "nan", "inf", "-inf",
    "99999999999999999999", "١", "²", "x", "F", "B", "k", "mu", "weights",
    "vocab", "NGRAM-LM v1", ".", "e"])
_INSERT = st.one_of(_TOKENS.map(str.encode), st.binary(min_size=1, max_size=3))
_EDIT = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 400), _INSERT),
    st.tuples(st.just("delete"), st.integers(0, 400), st.integers(1, 12)),
    st.tuples(st.just("truncate"), st.integers(0, 400), st.just(0)))


def _mutate(raw, edits):
    for op, at, arg in edits:
        at = min(at, len(raw))
        if op == "insert":
            raw = raw[:at] + arg + raw[at:]
        elif op == "delete":
            raw = raw[:at] + raw[at + arg:]
        else:
            raw = raw[:at]
    return raw


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(sorted(_LOADERS)), part=st.sampled_from(["train", "val", "test"]),
       edits=st.lists(_EDIT, min_size=1, max_size=4))
# an empty feature dump is a 0 x D matrix, not a flat empty array
@example(kind="feat", part="train", edits=[("truncate", 0, 0), ("insert", 0, b"0 4\n")])
# an LM with smoothing k 0 (or a nan weight) loaded, then failed or scored nan
@example(kind="lm", part="train", edits=[("delete", 14, 1), ("insert", 14, b"0")])
@example(kind="lm", part="train", edits=[("delete", 24, 19), ("insert", 24, b"nan")])
# an LM count line naming a symbol outside the vocab was loaded into the totals
@example(kind="lm", part="train", edits=[("insert", 88, b"2 F a x 5\n")])
def test_mutated_inputs_raise_only_value_or_os_errors(tmp_path_factory, kind, part, edits):
    root = str(tmp_path_factory.mktemp("loaders"))
    path = _valid_files(root)[kind]
    target = os.path.join(path, f"{part}.txt") if kind == "partition" else path
    with open(target, "rb") as fh:
        raw = fh.read()
    with open(target, "wb") as fh:
        fh.write(_mutate(raw, edits))
    try:
        loaded = _LOADERS[kind](path)
    except (ValueError, OSError):
        return
    # what loads is usable
    if kind == "feat":
        with open(target, "rb") as fh:
            t, d = (int(v) for v in fh.readline().split())
        assert loaded.shape == (t, d)
    elif kind == "lm":
        assert math.isfinite(lm_mod.score(loaded, ("a", "b", "unseen")))
