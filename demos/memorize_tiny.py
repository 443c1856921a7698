"""End-to-end library run: train on a tiny synthetic corpus, sample
scanpaths, and score them against the trivial baselines.

Run:  python3 demos/memorize_tiny.py        (a few seconds)
"""

import time

import numpy as np

from scanpath_diffusion import (Corpus, ModelConfig, ScanpathRecord,
                                TrainStats, baseline_corpus, build_vocab,
                                encode_instance, evaluation_report, generate,
                                init_model, sentence_rng, synthetic_corpus,
                                tokenize_sentence, train)

# ---------------------------------------------------------------------------
# A rule-generated corpus: 8 sentences, two synthetic readers each.

corpus = synthetic_corpus(n_sentences=8, min_words=4, max_words=7, seed=3)
vocab = build_vocab(corpus.sentences.values())
toks = {sid: tokenize_sentence(words, vocab)
        for sid, words in corpus.sentences.items()}
print(f"{len(corpus.sentences)} sentences, {len(corpus.records)} scanpaths, "
      f"{len(vocab)} vocabulary entries")
sid0 = sorted(corpus.sentences)[0]
print(f"example: {sid0} = {' '.join(corpus.sentences[sid0])}")
for r in corpus.records:
    if r.sentence_id == sid0:
        print(f"  reader {r.reader_id}: {list(r.fixations)}")

# ---------------------------------------------------------------------------
# Train a small model long enough to memorize the corpus.

max_len = 24
config = ModelConfig(max_len=max_len, dim=32, d_bert=32, n_blocks=2,
                     n_heads=2, v_idx=max_len, v_bert=len(vocab), t_max=100,
                     schedule="sqrt", s=1e-4, beta_zero=None,
                     emb_target_low_t=True)
model = init_model(config, np.random.default_rng(1))
instances = [encode_instance(toks[r.sentence_id], r.fixations, max_len, vocab)
             for r in corpus.records]

t0 = time.perf_counter()
result = train(model, instances, steps=600, batch=8, lr=1e-3, seed=1)
print(f"\ntrained {len(result.rows)} steps in {time.perf_counter() - t0:.1f}s, "
      f"final loss {result.rows[-1]['total']:.4f}")

# ---------------------------------------------------------------------------
# Sample one scanpath per sentence, all chains in lockstep. The budget covers
# the longest training scanpath; each sentence draws from its own stream,
# sentence_rng(seed, i), the rule the CLI's generate uses, so neither order
# nor the lockstep batch changes a sample.

budget = max(len(r.fixations) for r in corpus.records) + 2
sids = sorted(corpus.sentences)
outs = generate(model, [toks[sid] for sid in sids], vocab,
                rngs=[sentence_rng(42, i) for i in range(len(sids))],
                target_budget=budget)
records = [ScanpathRecord("model", sid, tuple(out.fixations))
           for sid, out in zip(sids, outs)]
generated = Corpus(sentences=dict(corpus.sentences), records=records)

print("\nsampled scanpaths:")
for rec in records[:4]:
    print(f"  {rec.sentence_id}: {list(rec.fixations)}")

# ---------------------------------------------------------------------------
# Score against the human records; compare with the trivial baselines.

stats = TrainStats.from_corpus(corpus)
rng = np.random.default_rng(7)
rows = [("trained model", evaluation_report(corpus, generated))]
for kind in ("trainlabel", "uniform"):
    pred = baseline_corpus(kind, corpus.sentences, stats, rng)
    rows.append((kind, evaluation_report(corpus, pred)))

print("\nmean NLD on the training sentences (lower is better)")
for name, report in rows:
    print(f"  {name:14s} {report.mean_nld:.4f}")
