"""Trivial scanpath generators and the inter-reader reference score.

The two generative baselines share the empirical scanpath-length
distribution of a training corpus; the saccade-walk baseline additionally
draws signed word-index jumps from the training saccade distribution. The
inter-reader score tells how far human readers are from each other, the
floor any generator is measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, ScanpathRecord
from .errors import ValidationError
from .metrics import levenshtein_many

__all__ = [
    "TrainStats", "uniform_baseline", "trainlabel_baseline",
    "human_baseline", "HumanBaseline", "baseline_corpus",
]


@dataclass(frozen=True)
class TrainStats:
    """Empirical length and signed-saccade distributions of a corpus."""

    lengths: np.ndarray   # one entry per scanpath
    saccades: np.ndarray  # one entry per consecutive fixation pair

    @classmethod
    def from_corpus(cls, corpus: Corpus) -> "TrainStats":
        if not corpus.records:
            raise ValidationError("cannot collect statistics from an empty corpus")
        lengths = []
        saccades = []
        for rec in corpus.records:
            lengths.append(len(rec.fixations))
            saccades.extend(np.diff(rec.fixations).tolist())
        return cls(
            lengths=np.asarray(lengths, dtype=np.int64),
            saccades=np.asarray(saccades, dtype=np.int64),
        )


def uniform_baseline(word_count: int, stats: TrainStats, rng: np.random.Generator) -> list[int]:
    """Length from the training distribution, each fixation uniform on [1, M]."""
    if word_count < 1:
        raise ValidationError(f"word count must be >= 1, got {word_count}")
    n = int(rng.choice(stats.lengths))
    return (rng.integers(1, word_count + 1, size=n)).tolist()


def trainlabel_baseline(word_count: int, stats: TrainStats, rng: np.random.Generator) -> list[int]:
    """Clamped saccade walk from word 1, jumps from the training distribution."""
    if word_count < 1:
        raise ValidationError(f"word count must be >= 1, got {word_count}")
    if stats.saccades.size == 0:
        raise ValidationError("saccade distribution is empty (all scanpaths length 1)")
    n = int(rng.choice(stats.lengths))
    pos = 1
    path = [pos]
    for _ in range(n - 1):
        pos = min(max(pos + int(rng.choice(stats.saccades)), 1), word_count)
        path.append(pos)
    return path


def baseline_corpus(kind: str, sentences: dict[str, tuple[str, ...]],
                    stats: TrainStats, rng: np.random.Generator) -> Corpus:
    """One baseline scanpath per sentence, under reader_id = the kind."""
    makers = {"uniform": uniform_baseline, "trainlabel": trainlabel_baseline}
    if kind not in makers:
        raise ValidationError(f"unknown baseline kind {kind!r}; expected uniform|trainlabel")
    records = [
        ScanpathRecord(
            reader_id=kind, sentence_id=sid,
            fixations=tuple(makers[kind](len(words), stats, rng)),
        )
        for sid, words in sentences.items()
    ]
    return Corpus(sentences=dict(sentences), records=records)


@dataclass(frozen=True)
class HumanBaseline:
    mean: float
    se: float
    count: int


def human_baseline(corpus: Corpus) -> HumanBaseline:
    """Inter-reader agreement: grand mean (± standard error) over scanpaths
    of each scanpath's mean distance to other readers' scanpaths on the
    same sentence.

    The distance is symmetric, so each unordered pair of records by two
    different readers on a sentence is scored once, all pairs of the
    corpus in one batched edit-distance call, and both records read it
    from the same table.
    """
    if len(corpus.readers) < 2:
        raise ValidationError("inter-reader score needs at least 2 readers")
    by_sentence: dict[str, list[ScanpathRecord]] = {}
    for rec in corpus.records:
        by_sentence.setdefault(rec.sentence_id, []).append(rec)
    groups = list(by_sentence.values())
    keys = [(g, i, k) for g, recs in enumerate(groups)
            for i in range(len(recs)) for k in range(i + 1, len(recs))
            if recs[i].reader_id != recs[k].reader_id]
    dists = levenshtein_many((groups[g][i].fixations, groups[g][k].fixations)
                             for g, i, k in keys)
    table: dict[tuple[int, int, int], int] = {}
    for (g, i, k), d in zip(keys, dists):
        table[g, i, k] = table[g, k, i] = d
    per_scanpath = []
    for g, recs in enumerate(groups):
        for i, rec in enumerate(recs):
            others = [k for k, o in enumerate(recs) if o.reader_id != rec.reader_id]
            if not others:
                continue
            per_scanpath.append(float(np.mean([
                table[g, i, k] / max(len(rec.fixations), len(recs[k].fixations))
                for k in others
            ])))
    if not per_scanpath:
        raise ValidationError("no sentence is shared by two readers")
    arr = np.asarray(per_scanpath)
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return HumanBaseline(mean=float(arr.mean()), se=se, count=arr.size)
