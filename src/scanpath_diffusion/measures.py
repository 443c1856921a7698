"""Reading measures extracted from a scanpath over a sentence of M words.

Word-level (arrays indexed by word - 1):

  sr    1 if the word was skipped: the rightmost-fixated frontier moved
        past it before it was ever fixated (words the frontier never
        reaches are not skipped)
  ffc   fixation count of the word's first pass: the consecutive run of
        fixations starting at its first visit, provided that visit came
        before the frontier passed the word (else 0)
  tfc   total fixation count
  fpr   1 if the word's first pass ended with a regressive saccade
        (launched from the word's first visit run)

Scanpath-level scalars: skipping_rate and regression_rate are the skipped
and regression-launching word shares (distinct words, over M);
normalized_fixation_count is N/M; the saccade lengths are mean |delta| in
word units over progressive (delta > 0) / regressive (delta < 0) moves,
0.0 when a class is empty (delta = 0 refixations count as neither);
first_pass_count is the mean of ffc over words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["ReadingMeasures", "reading_measures", "SUMMARY_MEASURES"]

SUMMARY_MEASURES = (
    "regression_rate",
    "normalized_fixation_count",
    "progressive_saccade_len",
    "regressive_saccade_len",
    "skipping_rate",
    "first_pass_count",
)


@dataclass(frozen=True)
class ReadingMeasures:
    sr: np.ndarray
    ffc: np.ndarray
    tfc: np.ndarray
    fpr: np.ndarray
    regression_rate: float
    normalized_fixation_count: float
    progressive_saccade_len: float
    regressive_saccade_len: float
    skipping_rate: float
    first_pass_count: float

    def scalar(self, name: str) -> float:
        if name not in SUMMARY_MEASURES:
            raise ValidationError(f"unknown summary measure {name!r}")
        return float(getattr(self, name))


def reading_measures(scanpath, word_count: int) -> ReadingMeasures:
    path = [int(f) for f in scanpath]
    m = int(word_count)
    if m < 1:
        raise ValidationError(f"word count must be >= 1, got {m}")
    if not path:
        raise ValidationError("cannot compute measures of an empty scanpath")
    for f in path:
        if not 1 <= f <= m:
            raise ValidationError(f"fixation index {f} out of range 1..{m}")
    n = len(path)

    sr = np.zeros(m, dtype=np.int64)
    tfc = np.zeros(m, dtype=np.int64)
    ffc = np.zeros(m, dtype=np.int64)
    fpr = np.zeros(m, dtype=np.int64)
    first_visit = {}   # word -> (index into path, frontier before that visit)
    frontier = 0
    for j, f in enumerate(path):
        tfc[f - 1] += 1
        if f not in first_visit:
            first_visit[f] = (j, frontier)
        if f > frontier:
            for w in range(frontier + 1, f):
                if w not in first_visit:
                    sr[w - 1] = 1
            frontier = f

    for f, (j, prior_frontier) in first_visit.items():
        if prior_frontier > f:
            continue  # entered after being passed: no first pass
        run = 0
        k = j
        while k < n and path[k] == f:
            run += 1
            k += 1
        ffc[f - 1] = run
        if k < n and path[k] < f:
            fpr[f - 1] = 1

    deltas = np.diff(path) if n > 1 else np.array([], dtype=np.int64)
    prog = deltas[deltas > 0]
    regr = deltas[deltas < 0]
    regression_starts = {path[j] for j in range(n - 1) if path[j + 1] < path[j]}

    return ReadingMeasures(
        sr=sr, ffc=ffc, tfc=tfc, fpr=fpr,
        regression_rate=len(regression_starts) / m,
        normalized_fixation_count=n / m,
        progressive_saccade_len=float(prog.mean()) if prog.size else 0.0,
        regressive_saccade_len=float(np.abs(regr).mean()) if regr.size else 0.0,
        skipping_rate=float(sr.sum()) / m,
        first_pass_count=float(ffc.sum()) / m,
    )
