"""Command-line pipeline: synth, features, partition, train, compare,
lm-train, decode, score.

Exit codes: 0 success, 1 usage error (bad flags or flag values, missing
input paths), 2 data error (malformed files), 3 numeric abort (diverged
training, or non-finite logits in decoding).
"""

import argparse
import ctypes
import math
import os
import sys

from . import corpus as corpus_mod
from . import ctc as ctc_mod
from . import features as feats
from . import lm as lm_mod
from . import evaluate, trainer
from .corpus import read_ids
from .network import build_network, catalog, dump_config, get_config, load_config
from .numerics import load_checkpoint, make_rng
from .textio import LineError, reading

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


# Free bytes glibc's malloc keeps at the top of its heap (mallopt M_TOP_PAD).
# By default it hands freed top pages back at once, so each training chunk's
# temporaries came back as fresh zero-filled pages: 102k-119k minor faults
# and 0.21-0.30 s of system time per 1.5-1.9 s train-toy round (RC-small,
# two epochs on 238 utterances, in-process rounds of perfbench/workloads.py
# on a 2-core Xeon), and 4.0k-4.7k per decode-paper round.  With 64 MiB, from
# the second round on: 19-229 and 1-318.  Setting M_TOP_PAD also stops glibc
# from raising its mmap threshold past 128 KiB, so a block the heap top
# cannot hold is mmapped afresh: at 32 MiB RC1's 14.7 MB maps were, with
# 8.9k-9.1k faults per decode-paper round.  Peak RSS did not move (benchmark
# medians 52.7 and 104.6-104.7 MB): kept pages are pages a run touched.
_HEAP_TOP_PAD = 64 << 20
_M_TOP_PAD = -2                  # glibc's malloc.h parameter number


def _keep_freed_heap_pages():
    """Set _HEAP_TOP_PAD through glibc's mallopt; a no-op where libc has none.
    Only the command-line entry calls it: importing rcasr leaves the
    allocator alone."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _require_path(path, what):
    if not os.path.exists(str(path)):
        raise UsageError(f"{what} not found: {path}")
    return path


_TRAIN_DEFAULTS = trainer.TrainConfig()


def _add_training_flags(p, partition_help=None):
    """The flags train and compare share, with TrainConfig's defaults."""
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--partition", help=partition_help)
    p.add_argument("--epochs", type=int, default=_TRAIN_DEFAULTS.epochs)
    p.add_argument("--lr", type=float, default=_TRAIN_DEFAULTS.lr)
    p.add_argument("--batch-size", type=int, default=_TRAIN_DEFAULTS.batch_size)
    p.add_argument("--seed", type=int, default=_TRAIN_DEFAULTS.seed)


def build_parser():
    parser = _Parser(prog="rcasr", description=__doc__)
    parser.add_argument("--dump-catalog", metavar="NAME", nargs="?", const="*",
                        help="print catalog config(s) as text and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-phonemes", type=int, default=10)
    p.add_argument("--sigma", type=float, default=0.25)

    p = sub.add_parser("features", help="extract 39-dim features from wav data")
    p.add_argument("--data", required=True, help="corpus root with wav/ and phn/")
    p.add_argument("--out", required=True, help="output corpus root (feat/ dumps)")
    p.add_argument("--stats-out", help="write normalization stats here")
    fit = p.add_mutually_exclusive_group()
    fit.add_argument("--stats-in", help="apply existing stats instead of fitting")
    fit.add_argument("--train-ids", help="fit stats on these ids only (one per line)")

    p = sub.add_parser("partition", help="write train/val/test id files")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sizes", help="train,val,test counts (default: scaled 5000/1000/300)")
    p.add_argument("--candidates", type=int, default=1,
                   help="draw this many candidates and keep the best by baseline cross-validation")

    p = sub.add_parser("train", help="train a network")
    p.add_argument("--config", required=True, help="catalog name or network config file")
    _add_training_flags(p, partition_help="directory with train/val/test id files")
    p.add_argument("--dropout", type=float, default=_TRAIN_DEFAULTS.dropout)
    p.add_argument("--checkpoint-every", type=int, default=_TRAIN_DEFAULTS.checkpoint_every)

    p = sub.add_parser("compare", help="train several models on identical data")
    p.add_argument("--models", required=True, help="comma-separated catalog names")
    _add_training_flags(p)

    p = sub.add_parser("lm-train", help="train the bidirectional n-gram model")
    p.add_argument("--data", required=True, help="corpus root (phn/ transcripts)")
    p.add_argument("--out", required=True)
    p.add_argument("--ids", help="restrict to these utterance ids (one per line)")
    p.add_argument("--k", type=float, default=lm_mod.DEFAULT_K)
    p.add_argument("--mu", type=float, default=lm_mod.DEFAULT_MU)

    p = sub.add_parser("decode", help="decode a corpus with a trained checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--beam", type=int, default=16)
    p.add_argument("--lm")
    p.add_argument("--lambda", dest="lam", type=float, default=0.3)
    p.add_argument("--config", help="network config (default: <name>.netcfg next to the checkpoint)")
    p.add_argument("--ids", help="decode only these utterance ids (one per line)")

    p = sub.add_parser("score", help="score hypotheses against reference transcripts")
    p.add_argument("--refs", required=True, help="corpus root with phn/ transcripts")
    p.add_argument("--hyps", required=True, help="hypothesis file (utt_id score ph...)")
    p.add_argument("--out", required=True)
    return parser


def cmd_synth(args):
    spec = _from_flags(corpus_mod.SyntheticSpec.default, n_phonemes=args.n_phonemes,
                       rng=make_rng(args.seed, 10), sigma=args.sigma)
    corp = _from_flags(corpus_mod.generate_synthetic, spec=spec, n_utterances=args.n,
                       rng=make_rng(args.seed, 11))
    corpus_mod.save_corpus(corp, args.out)
    print(f"wrote {len(corp)} utterances to {args.out}")
    return EXIT_OK


def cmd_features(args):
    _require_path(args.data, "data directory")
    corp = corpus_mod.load_corpus(args.data)
    if len(corp) == 0:
        raise UsageError(f"no utterances under {args.data}")
    ids = corp.ids()
    fit_ids = read_ids(args.train_ids, corp.utterances) if args.train_ids else ids
    if args.stats_in:
        _require_path(args.stats_in, "stats file")
        stats = feats.load_stats(args.stats_in)
        for i in ids:
            width = corp[i].features.shape[1]
            if width != stats.mean.size:
                raise ValueError(f"{args.stats_in}: {stats.mean.size}-wide stats, but "
                                 f"utterance '{i}' has {width}-wide features")
    else:
        _, stats = feats.normalize_corpus([corp[i].features for i in fit_ids])
    out = corpus_mod.Corpus(
        utterances={
            i: corpus_mod.Utterance(
                id=i, labels=corp[i].labels,
                features=feats.apply_stats(corp[i].features, stats))
            for i in ids
        },
        alphabet=corp.alphabet,
    )
    corpus_mod.save_corpus(out, args.out)
    if args.stats_out:
        feats.save_stats(args.stats_out, stats)
    print(f"extracted features for {len(out)} utterances to {args.out}")
    return EXIT_OK


def cmd_partition(args):
    if args.candidates < 1:
        raise UsageError(f"--candidates must be >= 1, got {args.candidates}")
    sizes = None
    if args.sizes:
        sizes = args.sizes.split(",")
        if len(sizes) != 3 or not all(v.strip().isdecimal() for v in sizes):
            raise UsageError("--sizes wants three comma-separated counts")
        sizes = tuple(int(v) for v in sizes)
    _require_path(args.data, "data directory")
    ids = list(corpus_mod.load_transcripts(args.data))
    parts = corpus_mod.make_partitions(
        ids, n_partitions=args.candidates, rng=make_rng(args.seed, 20), sizes=sizes)
    chosen = parts[0]
    if args.candidates > 1:     # only the baselines that pick one read features
        chosen = corpus_mod.select_partition(parts, corpus_mod.load_corpus(args.data))
    corpus_mod.save_partition(chosen, args.out)
    print(f"wrote partition ({len(chosen.train)}/{len(chosen.val)}/{len(chosen.test)}) to {args.out}")
    return EXIT_OK


def _load_training_inputs(args):
    _require_path(args.data, "data directory")
    corp = corpus_mod.load_corpus(args.data)
    part = None
    if args.partition:
        _require_path(args.partition, "partition directory")
        part = corpus_mod.load_partition(args.partition).check_covers(corp.ids(),
                                                                      args.partition)
    return corp, part


def _from_flags(make, **flags):
    """make(**flags), which checks these flag values; a value it refuses is a
    usage error."""
    try:
        return make(**flags)
    except ValueError as exc:
        raise UsageError(exc) from None


def cmd_train(args):
    try:
        net_config = get_config(args.config)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None
    cfg = _from_flags(
        trainer.TrainConfig, network=net_config, lr=args.lr, batch_size=args.batch_size,
        epochs=args.epochs, seed=args.seed, dropout=args.dropout,
        out_dir=args.out, checkpoint_every=args.checkpoint_every,
    )
    corp, part = _load_training_inputs(args)
    trainer.train(cfg, corp, part)
    print(f"trained {net_config.name} for {args.epochs} epochs; outputs in {args.out}")
    return EXIT_OK


def cmd_compare(args):
    names = [n.strip() for n in args.models.split(",") if n.strip()]
    if not names:
        raise UsageError(f"--models names no model: {args.models!r}")
    given = {}      # network name -> the --models entry that names it
    for name in names:
        try:
            net_name = get_config(name).name
        except KeyError as exc:
            raise UsageError(exc.args[0]) from None
        if net_name in given:
            # a run's files in --out are named after its network
            raise UsageError(f"--models names network {net_name!r} twice "
                             f"({given[net_name]!r} and {name!r})")
        given[net_name] = name
    cfg = _from_flags(trainer.TrainConfig, network=names[0], lr=args.lr,
                      batch_size=args.batch_size, epochs=args.epochs, seed=args.seed)
    corp, part = _load_training_inputs(args)
    results, errors = trainer.compare_architectures(names, cfg, corp, part, args.out)
    for name, path in results.items():
        print(f"{name}: {path}")
    for name, exc in errors.items():
        print(f"{name}: FAILED ({exc})", file=sys.stderr)
    return EXIT_OK if results else EXIT_NUMERIC


def cmd_lm_train(args):
    _from_flags(lm_mod.NgramModel, vocab=(), smoothing_k=args.k, mu=args.mu)
    _require_path(args.data, "data directory")
    transcripts = corpus_mod.load_transcripts(args.data)
    ids = read_ids(args.ids, transcripts) if args.ids else list(transcripts)
    sentences = [transcripts[i] for i in ids]
    model = lm_mod.train_lm(sentences, smoothing_k=args.k, mu=args.mu)
    lm_mod.save_lm(args.out, model)
    print(f"trained n-gram model on {len(sentences)} sentences -> {args.out}")
    return EXIT_OK


def _decode_config_path(args):
    if args.config:
        return _require_path(args.config, "network config")
    sibling = trainer.config_beside(args.ckpt)
    if os.path.exists(sibling):
        return sibling
    raise UsageError(f"no network config: pass --config or keep {sibling}")


def cmd_decode(args):
    _require_path(args.ckpt, "checkpoint")
    _require_path(args.data, "data directory")
    if args.beam < 1:
        raise UsageError(f"beam width must be >= 1, got {args.beam}")
    if not 0.0 <= args.lam < math.inf:     # written so that nan fails
        raise UsageError(f"--lambda must be finite and >= 0, got {args.lam}")
    config_path = _decode_config_path(args)
    net_config = load_config(config_path)
    ids = read_ids(args.ids, corpus_mod.load_transcripts(args.data)) if args.ids else None
    corp = corpus_mod.load_corpus(args.data, ids)
    net = build_network(net_config, output_units=corp.alphabet.size)
    _adopt_values(net, load_checkpoint(args.ckpt), args.ckpt, config_path, args.data)
    model = None
    if args.lm:
        _require_path(args.lm, "language model")
        model = lm_mod.load_lm(args.lm)
    if ids is None:
        ids = corp.ids()
    lines = []
    for chunk, _, ys in trainer.infer(net, [corp[i] for i in ids], "decoding"):
        for utt, y in zip(chunk, ys):
            hyps = [(corp.alphabet.decode(h), s) for h, s in ctc_mod.beam_decode(y, args.beam)]
            seq, score = hyps[0] if model is None else lm_mod.rectify(model, hyps, args.lam)
            lines.append(hypothesis_line(utt.id, score, seq))
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    print(f"decoded {len(ids)} utterances -> {args.out}")
    return EXIT_OK


def _adopt_values(net, loaded, ckpt, config, data):
    """Copy a loaded checkpoint's values into the network's store; another
    parameter set or shape is a ValueError naming the two files, and an
    output layer of another width one naming the data directory, whose
    alphabet sets that width."""
    ours = set(net.store.entries)
    theirs = set(loaded.entries)
    if ours != theirs:
        raise ValueError(f"{ckpt} does not fit {config}: missing {sorted(ours - theirs)}, "
                         f"unexpected {sorted(theirs - ours)}")
    output = net.steps[-1]      # the linear_output layer
    for name, p in net.store.entries.items():
        shape = loaded[name].value.shape
        if p.value.shape != shape:
            if p is output.w or p is output.b:
                raise ValueError(f"{ckpt} scores {shape[-1]} labels, but the alphabet of "
                                 f"{data} has {net.output_units} (blank included)")
            raise ValueError(f"{ckpt} does not fit {config}: '{name}' is "
                             f"{shape}, not {p.value.shape}")
        p.value[...] = loaded[name].value


def hypothesis_line(utt_id, score, symbols):
    """`utt_id score ph1 ph2 ...`, the line read_hypotheses reads back."""
    return f"{utt_id} {score:.6f} {' '.join(symbols)}".rstrip()


def read_hypotheses(path):
    """utt_id -> symbols of a hypothesis file; a malformed line, or a second
    line for one id, is a ValueError naming path:line."""
    hyps = {}
    with reading(path) as fh:
        for ln, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) < 2:
                raise LineError(ln, "expected `utt_id score ph...`")
            try:
                float(parts[1])
            except ValueError:
                raise LineError(ln, f"score {parts[1]!r} is not a number "
                                "(expected `utt_id score ph...`)") from None
            if parts[0] in hyps:
                raise LineError(ln, f"repeated utterance id {parts[0]!r}")
            hyps[parts[0]] = tuple(parts[2:])
    return hyps


def cmd_score(args):
    _require_path(args.refs, "reference directory")
    _require_path(args.hyps, "hypothesis file")
    transcripts = corpus_mod.load_transcripts(args.refs)
    hyps = read_hypotheses(args.hyps)
    for utt_id in hyps:
        if utt_id not in transcripts:
            raise ValueError(
                f"{args.hyps}: utterance {utt_id!r} has no transcript under {args.refs}")
    refs = {utt_id: transcripts[utt_id] for utt_id in hyps}
    report = evaluate.per(refs, hyps)
    report.to_csv(args.out)
    print(f"PER {report.aggregate:.4f} over {len(hyps)} utterances -> {args.out}")
    return EXIT_OK


_COMMANDS = {
    "synth": cmd_synth,
    "features": cmd_features,
    "partition": cmd_partition,
    "train": cmd_train,
    "compare": cmd_compare,
    "lm-train": cmd_lm_train,
    "decode": cmd_decode,
    "score": cmd_score,
}


def main(argv=None):
    _keep_freed_heap_pages()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.dump_catalog:
            cat = catalog()
            names = sorted(cat) if args.dump_catalog == "*" else [args.dump_catalog]
            for name in names:
                if name not in cat:
                    raise UsageError(f"unknown catalog entry '{name}'")
                sys.stdout.write(dump_config(cat[name]) + "\n")
            return EXIT_OK
        if not args.command:
            parser.print_usage()
            return EXIT_USAGE
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
