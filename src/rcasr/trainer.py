"""End-to-end mini-batch training with cost-curve logging and checkpoints.

Each epoch shuffles the training ids (seed-deterministic), cuts mini-batches,
and accumulates per-utterance CTC gradients (batch loss = mean utterance
loss) before one Adam step.  A mini-batch runs as chunks: the longest runs
of consecutive utterances whose training contexts fit the network's chunk
budget (`Network.chunks`).  A chunk is one forward, one CTC loss and one
backward over its utterances' frames stacked along time; no frame is padded
or computed twice, and each utterance keeps its own recurrent state, conv
border and CTC trellis.  Inference (validation here, `rcasr decode`) runs
in chunks the same way, through `infer`.

The same (seed, config, corpus) always reproduces the same batch stream,
cost values and checkpoint bytes; wall-clock stamps are the one
machine-dependent column.
"""

import logging
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import ctc as ctc_mod
from . import evaluate
from .features import N_FEATURES
from .network import (LayerSpec, NetworkConfig, _layer_param, build_network, get_config,
                      save_config)
from .numerics import adam_step, make_rng, save_checkpoint

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    network: object = "RC2-toy"        # catalog name, config path, or NetworkConfig
    lr: float = 0.00005
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0
    dropout: float = None              # None keeps the config's own rates
    out_dir: str = None                # the run's files (see run_path); None writes none
    checkpoint_every: int = 0          # also checkpoints the final epoch when out_dir is set

    def __post_init__(self):
        if not 0.0 <= self.lr < math.inf:     # written so that nan fails
            raise ValueError(f"learning rate must be in [0, inf), got {self.lr}")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.dropout is not None:
            _layer_param(LayerSpec("dropout", self.dropout))


@dataclass
class CurveRow:
    epoch: int
    wall_clock_minutes: float
    train_cost: float
    val_cost: float
    val_per: float


@dataclass
class CostCurve:
    rows: list = field(default_factory=list)

    CSV_HEADER = "epoch,wall_clock_minutes,train_cost,val_cost,val_per"

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.CSV_HEADER + "\n")
            for r in self.rows:
                fh.write(f"{r.epoch},{r.wall_clock_minutes:.6f},{r.train_cost:.17g},"
                         f"{r.val_cost:.17g},{r.val_per:.17g}\n")


def run_path(out_dir, name, what):
    """The file train writes into out_dir for the network `name`: `what` is
    "netcfg", "batches" (the batch log), "curve" (the cost-curve CSV), or an
    epoch number (the checkpoint after that epoch)."""
    suffix = {"netcfg": ".netcfg", "batches": "_batches.log", "curve": "_curve.csv"}
    return os.path.join(out_dir, name + suffix.get(what, f"_{what}.ckpt"))


def config_beside(ckpt):
    """The network config train wrote next to the checkpoint `ckpt`."""
    name = os.path.basename(ckpt).rsplit("_", 1)[0]
    return run_path(os.path.dirname(ckpt), name, "netcfg")


def _resolve_config(network):
    if isinstance(network, NetworkConfig):
        return network
    return get_config(network)


def train(config, corpus, partition=None):
    """Run the training loop; returns (ParameterStore, CostCurve).

    A train or val utterance whose feature width is not N_FEATURES is a
    ValueError before the first epoch.  Infeasible utterances (too few
    frames for their label) are skipped with a warning.  A numeric failure
    is a FloatingPointError: non-finite logits name the epoch, the batch or
    validation, and the utterance (see _forward).

    With config.out_dir set, the run leaves there (see run_path) its network
    config, a checkpoint every checkpoint_every epochs and after the last,
    and at the end its batch log and cost curve.
    """
    net_config = _resolve_config(config.network)
    alphabet = corpus.alphabet
    net = build_network(
        net_config,
        output_units=alphabet.size,
        rng=make_rng(config.seed, 1),
        dropout_override=config.dropout,
    )
    # gradients are made on first read: make them before the first backward,
    # so that every chunk's backward runs with them already held
    net.store.zero_grads()
    shuffle_rng = make_rng(config.seed, 2)
    dropout_rng = make_rng(config.seed, 3)

    train_ids = list(partition.train) if partition is not None else corpus.ids()
    val_ids = list(partition.val) if partition is not None else []
    for utt_id in train_ids + val_ids:
        utt = corpus[utt_id]
        if utt.n_frames and utt.features.shape[1] != N_FEATURES:
            raise ValueError(
                f"utterance '{utt_id}' has {utt.features.shape[1]}-wide features, "
                f"but the network takes {N_FEATURES}"
            )
    feasible = [i for i in train_ids if corpus[i].ctc_feasible]
    skipped = sorted(set(train_ids) - set(feasible))
    if skipped:
        log.warning("train: skipping %d infeasible utterances: %s",
                    len(skipped), ", ".join(skipped[:5]))

    log_lines = []
    curve = CostCurve()
    start = time.monotonic()
    out, name = config.out_dir, net_config.name
    if out:
        os.makedirs(out, exist_ok=True)
        save_config(net_config, run_path(out, name, "netcfg"))

    for epoch in range(1, config.epochs + 1):
        order = [feasible[i] for i in shuffle_rng.permutation(len(feasible))]
        epoch_losses = []
        for b0 in range(0, len(order), config.batch_size):
            batch_ids = order[b0:b0 + config.batch_size]
            batch_no = b0 // config.batch_size + 1
            log_lines.append(f"epoch {epoch} batch {batch_no} ids {','.join(batch_ids)}")
            scale = 1.0 / len(batch_ids)
            utts = [corpus[i] for i in batch_ids]
            for a, b in net.chunks([u.n_frames for u in utts]):
                epoch_losses += _train_chunk(net, utts[a:b], alphabet, dropout_rng, scale,
                                             f"epoch {epoch}, batch {batch_no}")
            adam_step(net.store, config.lr)

        train_cost = float(np.mean(epoch_losses)) if epoch_losses else float("nan")
        val_cost, val_per = _validate(net, corpus, alphabet, val_ids,
                                      f"epoch {epoch}, validation")
        minutes = (time.monotonic() - start) / 60.0
        curve.rows.append(CurveRow(epoch, minutes, train_cost, val_cost, val_per))
        log_lines.append(
            f"epoch {epoch} train_cost {train_cost:.17g} val_cost {val_cost:.17g} "
            f"val_per {val_per:.17g}"
        )
        if out and (
            (config.checkpoint_every and epoch % config.checkpoint_every == 0)
            or epoch == config.epochs
        ):
            save_checkpoint(net.store, run_path(out, name, epoch))

    if out:
        with open(run_path(out, name, "batches"), "w") as fh:
            fh.write("\n".join(log_lines) + ("\n" if log_lines else ""))
        curve.to_csv(run_path(out, name, "curve"))
    return net.store, curve


def _forward(net, chunk, where, training=False, rng=None):
    """Network.forward over a chunk's utterances, (logits, contexts): the one
    guard of every forward.  Non-finite logits are a FloatingPointError naming
    `where` and the first utterance they reach, with no numpy warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        logits, ctxs = net.forward([u.features for u in chunk], training=training, rng=rng)
    bad = np.flatnonzero(~np.isfinite(logits).all(axis=1))
    if bad.size:
        i = int(np.searchsorted(np.cumsum([u.n_frames for u in chunk]), bad[0], side="right"))
        raise FloatingPointError(f"numeric failure at {where}, utterance '{chunk[i].id}': "
                                 "non-finite logits")
    return logits, ctxs


def infer(net, utts, where):
    """Inference forwards over the Utterances `utts` in chunks (Network.chunks),
    guarded as _forward: yields each chunk, its stacked logits and a list of
    its utterances' softmax posteriors."""
    lengths = [u.n_frames for u in utts]
    for a, b in net.chunks(lengths):
        logits, _ = _forward(net, utts[a:b], where)
        yield utts[a:b], logits, np.split(ctc_mod.softmax(logits), np.cumsum(lengths[a:b - 1]))


def _train_chunk(net, chunk, alphabet, rng, scale, where):
    """One training forward, CTC loss and backward over a chunk's utterances:
    adds scale times their gradients to the store's and returns their losses."""
    logits, ctxs = _forward(net, chunk, where, True, rng)
    losses, dlogits = ctc_mod.ctc_loss_and_grad(
        logits, [alphabet.encode(u.labels) for u in chunk], [u.n_frames for u in chunk])
    dlogits *= scale
    net.backward(ctxs, dlogits)
    return losses.tolist()


def _validate(net, corpus, alphabet, val_ids, where):
    """Mean CTC loss and greedy PER of the val utterances, run through infer."""
    if not val_ids:
        return float("nan"), float("nan")
    refs = {i: corpus[i].labels for i in val_ids}
    hyps = dict.fromkeys(val_ids, ())       # an infeasible utterance decodes to nothing
    utts = [corpus[i] for i in val_ids if corpus[i].ctc_feasible]
    losses = []
    for chunk, logits, ys in infer(net, utts, where):
        loss, _ = ctc_mod.ctc_loss_and_grad(
            logits, [alphabet.encode(u.labels) for u in chunk], [u.n_frames for u in chunk])
        losses.extend(loss.tolist())
        for u, y in zip(chunk, ys):
            hyps[u.id] = alphabet.decode(ctc_mod.greedy_decode(y))
    val_cost = float(np.mean(losses)) if losses else float("nan")
    return val_cost, evaluate.per(refs, hyps).aggregate


def compare_architectures(names, config, corpus, partition, out_dir):
    """Train several catalog models on identical data/seed, each writing
    its run's files into out_dir as train does.

    Returns {name: curve_path} for the successes and {name: error} for the
    models that abort numerically or are not found, which never stops the
    others.  A data error (ValueError, OSError) propagates, as from train.
    """
    results = {}
    errors = {}
    for name in names:
        try:
            train(replace(config, network=name, out_dir=out_dir), corpus, partition)
        except (ArithmeticError, KeyError) as exc:
            errors[name] = exc
            continue
        results[name] = run_path(out_dir, _resolve_config(name).name, "curve")
    return results, errors
