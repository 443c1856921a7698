"""What the evaluation stack computes: edit distances, word-level reading
measures, inter-reader agreement, and the report files.

Run:  python3 demos/reading_measures_tour.py
"""

import tempfile
from pathlib import Path

from scanpath_diffusion import (Corpus, ScanpathRecord, evaluation_report,
                                human_baseline, levenshtein, nld, pearson,
                                reading_measures, write_evaluation_report)

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

r, p = pearson([1.0, 2.0, 3.0, 4.0], [1.1, 1.9, 3.2, 3.9])
print(f"\npearson on a 4-point example: r={r:.4f}, p={p:.4f}")
