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

One kernel, `reading_measures_many`, computes these for a whole list of
records in one numpy pass; `reading_measures` is its one-record case. It
numbers every word of every record once: word w of record r is
g = offset_r + w - 1, offset_r being the word count of the records before
r, so a record's numbers all lie above the previous record's and below
the next one's. Over the concatenated fixations, as these numbers:

  frontier  the running maximum; it never crosses into a record from the
            one before, so it is each record's own running maximum
  tfc       bincount of the fixations
  first     each word's first visit, from np.unique; the end of its
            record for a word never fixated
  sr        1 where the first fixation that moves the frontier past the
            word (searchsorted on the frontier) comes before `first`; past
            a record's end the frontier lies above all its words, so a word
            its record's frontier never passes is not skipped
  ffc, fpr  a first visit starts a run of equal fixations (run boundaries
            of the concatenation never join two records); a word that is
            fixated and not skipped takes its run's length, and fpr = 1
            when the fixation after the run is a lower word (the next
            record's fixations are all higher)

The integer sums behind the scalars (skips, first-pass fixations,
regression-launching words, saccade lengths and their counts) are
bincounts per record, and each mean is that sum over its count, as
`ndarray.mean` computes it, so every value equals the per-scanpath
definitions above exactly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ValidationError

__all__ = ["ReadingMeasures", "reading_measures", "reading_measures_many",
           "first_non_integer", "SUMMARY_MEASURES"]

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


def first_non_integer(paths):
    """(k, f) for the first value f, over the paths in order, that is not an
    integer, k being its path's position; None if there is none. An integer
    is a Python int or anything `operator.index` takes (numpy integers),
    never a float or a string. `paths` is read twice."""
    # an int total means every value is an int: a float, a numpy integer or
    # any other number turns the total into its own type (or raises), and
    # only then are the values looked at one by one; numpy integers may
    # leave int64 on the way, which sends them to that loop all the same
    try:
        with np.errstate(over="ignore"):
            if type(sum(chain.from_iterable(paths))) is int:
                return None
    except TypeError:
        pass
    for k, path in enumerate(paths):
        for f in path:
            try:
                operator.index(f)
            except TypeError:
                return k, f
    return None


def _check_ranges(paths, counts) -> None:
    """Raise ValidationError at the first fixation outside 1..M."""
    for path, m in zip(paths, counts):
        for f in map(operator.index, path):
            if not 1 <= f <= m:
                raise ValidationError(f"fixation index {f} out of range 1..{m}")


def _per_record(values, record, count) -> np.ndarray:
    """Sum of `values` per record, as float64 (exact for these integers)."""
    return np.bincount(record, weights=values, minlength=count)


def reading_measures_many(records) -> list[ReadingMeasures]:
    """The reading measures of every (scanpath, word_count) record, in order.

    One numpy pass over the records' concatenated fixations (see the module
    docstring); a record's measures do not depend on the other records in
    the call. The checks run one after another over all records: integer
    fixations, word counts of at least 1, non-empty paths, fixations within
    1..word_count; the first that fails raises ValidationError on its first
    bad value.
    """
    paths, counts = [], []
    for path, m in records:
        paths.append(tuple(path))
        counts.append(m)
    bad = first_non_integer(paths)
    if bad is not None:
        raise ValidationError(f"fixation index {bad[1]!r} is not an integer")
    counts = [int(m) for m in counts]
    for m in counts:
        if m < 1:
            raise ValidationError(f"word count must be >= 1, got {m}")
    lengths = list(map(len, paths))
    if not all(lengths):
        raise ValidationError("cannot compute measures of an empty scanpath")
    count = len(paths)
    if not count:
        return []
    n = np.array(lengths, np.int64)
    m = np.array(counts, np.int64)
    try:
        fix = np.fromiter(chain.from_iterable(paths), np.int64, int(n.sum()))
    except OverflowError:
        fix = None
    rec = np.repeat(np.arange(count), n)
    if fix is None or fix.min() < 1 or np.any(fix > m[rec]):
        _check_ranges(paths, counts)
    total = int(m.sum())
    offset = np.cumsum(m) - m
    end = np.cumsum(n)
    g = offset[rec] + fix - 1
    word_rec = np.repeat(np.arange(count), m)

    tfc = np.bincount(g, minlength=total)
    words, first_visit = np.unique(g, return_index=True)
    first = end[word_rec]
    first[words] = first_visit
    passed = np.searchsorted(np.maximum.accumulate(g), np.arange(total), side="right")
    sr = (passed < first).astype(np.int64)

    run_start = np.flatnonzero(np.concatenate(([True], g[1:] != g[:-1])))
    run_end = np.append(run_start[1:], fix.size)
    run_len = run_end - run_start
    lower_after = np.zeros(run_start.size, bool)
    lower_after[:-1] = g[run_end[:-1]] < g[run_start[:-1]]
    read = words[sr[words] == 0]
    run_of = np.searchsorted(run_start, first[read])
    ffc = np.zeros(total, np.int64)
    ffc[read] = run_len[run_of]
    fpr = np.zeros(total, np.int64)
    fpr[read] = lower_after[run_of]

    delta = np.where(rec[1:] == rec[:-1], fix[1:] - fix[:-1], 0)
    prog, regr = delta > 0, delta < 0
    launch = np.zeros(total, bool)
    launch[g[:-1][regr]] = True
    prog_n = np.bincount(rec[1:][prog], minlength=count)
    regr_n = np.bincount(rec[1:][regr], minlength=count)
    prog_mean = np.divide(_per_record(np.where(prog, delta, 0), rec[1:], count), prog_n,
                          out=np.zeros(count), where=prog_n > 0)
    regr_mean = np.divide(_per_record(np.where(regr, -delta, 0), rec[1:], count), regr_n,
                          out=np.zeros(count), where=regr_n > 0)

    scalars = zip(
        (np.bincount(word_rec[launch], minlength=count) / m).tolist(),
        (n / m).tolist(),
        prog_mean.tolist(),
        regr_mean.tolist(),
        (_per_record(sr, word_rec, count) / m).tolist(),
        (_per_record(ffc, word_rec, count) / m).tolist(),
    )
    bounds = zip(offset.tolist(), (offset + m).tolist())
    return [ReadingMeasures(sr[lo:hi], ffc[lo:hi], tfc[lo:hi], fpr[lo:hi], *values)
            for (lo, hi), values in zip(bounds, scalars)]


def reading_measures(scanpath, word_count: int) -> ReadingMeasures:
    """The reading measures of one scanpath over `word_count` words: the
    one-record case of `reading_measures_many`."""
    return reading_measures_many([(scanpath, word_count)])[0]
