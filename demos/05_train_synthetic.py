"""End-to-end training on a synthetic phoneme corpus.

Generates labelled feature sequences from a bigram ground truth, trains a
small recurrent-convolutional network with CTC, and scores the held-out
split by phoneme error rate.  Runs in well under a minute.
"""

from rcasr import corpus as corpus_mod
from rcasr import ctc as ctc_mod
from rcasr import evaluate, trainer
from rcasr.network import build_network, catalog
from rcasr.numerics import make_rng

spec = corpus_mod.SyntheticSpec.default(n_phonemes=4, rng=make_rng(11, 1), sigma=0.15)
spec.duration_range = (4, 7)
spec.sentence_length_range = (3, 5)
corp = corpus_mod.generate_synthetic(spec, 60, make_rng(11, 2))
part = corpus_mod.make_partitions(corp.ids(), 1, rng=make_rng(11, 3), sizes=(44, 8, 8))[0]
print(f"corpus: {len(corp)} utterances over {len(corp.alphabet.non_blank)} phonemes, "
      f"split {len(part.train)}/{len(part.val)}/{len(part.test)}")

config = trainer.TrainConfig(network="RC-small", lr=0.01, batch_size=8, epochs=8,
                             seed=11, dropout=0.0)
store, curve = trainer.train(config, corp, part)
for row in curve.rows:
    print(f"  epoch {row.epoch}: train {row.train_cost:7.3f}  "
          f"val {row.val_cost:7.3f}  val PER {row.val_per:.3f}")

net = build_network(catalog()["RC-small"], output_units=corp.alphabet.size,
                    rng=make_rng(0), dropout_override=0.0)
for name, p in store.entries.items():
    net.store[name].value[...] = p.value

print("\n== greedy decoding the test split ==")
refs, hyps = {}, {}
for chunk, _, ys in trainer.infer(net, [corp[i] for i in part.test], "the test split"):
    for utt, y in zip(chunk, ys):
        decoded = corp.alphabet.decode(ctc_mod.greedy_decode(y))
        refs[utt.id], hyps[utt.id] = utt.labels, decoded
        mark = "ok " if decoded == utt.labels else "ERR"
        print(f"  {mark} {utt.id}: {' '.join(decoded)}")
report = evaluate.per(refs, hyps)
print(f"test PER = {report.aggregate:.4f} "
      f"({report.total_distance} edits / {report.total_ref_length} reference labels)")
