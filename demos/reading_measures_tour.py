"""What the evaluation stack computes: edit distances, word-level reading
measures, inter-reader agreement, and the report files.

Run:  python3 demos/reading_measures_tour.py
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from scanpath_diffusion import (SUMMARY_MEASURES, Corpus, ScanpathRecord,
                                evaluation_report, human_baseline, levenshtein,
                                levenshtein_many, nld, pearson, reading_measures,
                                record_measures, write_evaluation_report)

# ---------------------------------------------------------------------------
# Scanpaths are 1-based word indices in fixation order. NLD is edit distance
# over the longer length, so 0 is identical and 1 shares nothing.

a, b = [1, 2, 3, 5], [1, 2, 4, 5, 5]
print(f"levenshtein({a}, {b}) = {levenshtein(a, b)}")
print(f"nld          = {nld(a, b):.4f}")

# ---------------------------------------------------------------------------
# Reading measures for a path over a 5-word sentence. The path skips word 2,
# regresses from 4 back to 2, and refixates word 5.

path = [1, 3, 4, 2, 5, 5]
rm = reading_measures(path, 5)
print(f"\npath {path} over 5 words")
print(f"  skipped (sr)          {rm.sr.tolist()}")
print(f"  first-pass count (ffc) {rm.ffc.tolist()}")
print(f"  total count (tfc)     {rm.tfc.tolist()}")
print(f"  first-pass regression {rm.fpr.tolist()}")
print(f"  regression rate {rm.regression_rate:.3f}, "
      f"skipping rate {rm.skipping_rate:.3f}, "
      f"fixations per word {rm.normalized_fixation_count:.3f}")

# ---------------------------------------------------------------------------
# A small two-reader corpus and its inter-reader agreement.

sentences = {
    "s1": ("the", "cat", "sat", "down"),
    "s2": ("dogs", "bark", "at", "night"),
}
records = [
    ScanpathRecord("r1", "s1", (1, 2, 3, 4)),
    ScanpathRecord("r2", "s1", (1, 2, 2, 3, 4)),
    ScanpathRecord("r1", "s2", (1, 2, 4)),
    ScanpathRecord("r2", "s2", (1, 3, 2, 4)),
]
truth = Corpus(sentences=sentences, records=records)
hb = human_baseline(truth)
print(f"\ninter-reader mean NLD {hb.mean:.4f} +- {hb.se:.4f} "
      f"over {hb.count} scanpaths")

# ---------------------------------------------------------------------------
# Score a prediction corpus and write the report files: per-scanpath NLD,
# per-reader measure means, and true-vs-predicted measure correlations.

pred = Corpus(sentences=sentences, records=[
    ScanpathRecord("model", "s1", (1, 2, 3, 4)),
    ScanpathRecord("model", "s2", (1, 2, 3, 4)),
])
report = evaluation_report(truth, pred)
with tempfile.TemporaryDirectory(prefix="scanpath_report_") as tmp:
    out = Path(tmp)
    write_evaluation_report(report, out)
    print(f"\nmodel mean NLD {report.mean_nld:.4f}; report files (first lines):")
    for f in sorted(out.iterdir()):
        print(f"  {f.name}: {f.read_text().splitlines()[0]}")

# ---------------------------------------------------------------------------
# Long scanpaths: a side of more than 64 fixations spans several 64-bit
# words of the edit-distance kernel. Both results are checked against a
# plain two-row DP.


def dp_distance(a, b):
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


rng = np.random.default_rng(0)
long_words = tuple(f"w{i}" for i in range(40))
long_records = [
    ScanpathRecord(f"r{k}", sid, tuple(rng.integers(1, 41, size=int(n)).tolist()))
    for sid in ("long1", "long2")
    for k, n in enumerate(rng.integers(129, 260, size=4))
]
long_pairs = [(a.fixations, b.fixations) for a in long_records for b in long_records]
dists = levenshtein_many(long_pairs)
assert dists == [dp_distance(a, b) for a, b in long_pairs], "levenshtein_many != DP"

long_corpus = Corpus(sentences={"long1": long_words, "long2": long_words},
                     records=long_records)
per_scanpath = [
    np.mean([dp_distance(rec.fixations, o.fixations)
             / max(len(rec.fixations), len(o.fixations))
             for o in long_records
             if o.sentence_id == rec.sentence_id and o.reader_id != rec.reader_id])
    for rec in long_records
]
hb = human_baseline(long_corpus)
assert (hb.count, hb.mean) == (len(per_scanpath), np.mean(per_scanpath)), \
    "human_baseline != DP"
lengths = [len(rec.fixations) for rec in long_records]
print(f"\n{len(long_pairs)} distances between scanpaths of {min(lengths)}-{max(lengths)} "
      f"fixations match a plain DP; inter-reader mean NLD {hb.mean:.4f}")

# ---------------------------------------------------------------------------
# A corpus is scored by one kernel call (record_measures); each record's
# measures must equal those of its own one-record call.

for corpus in (truth, long_corpus):
    for rec, together in zip(corpus.records, record_measures(corpus)):
        alone = reading_measures(rec.fixations, len(corpus.sentences[rec.sentence_id]))
        if not (all(np.array_equal(getattr(together, name), getattr(alone, name))
                    for name in ("sr", "ffc", "tfc", "fpr"))
                and all(together.scalar(name) == alone.scalar(name)
                        for name in SUMMARY_MEASURES)):
            print(f"record_measures differs from reading_measures on "
                  f"({rec.reader_id}, {rec.sentence_id})")
            sys.exit(1)
print(f"\nrecord_measures of {len(truth.records) + len(long_corpus.records)} records "
      f"matches one reading_measures call per record")

r, p = pearson([1.0, 2.0, 3.0, 4.0], [1.1, 1.9, 3.2, 3.9])
print(f"\npearson on a 4-point example: r={r:.4f}, p={p:.4f}")
