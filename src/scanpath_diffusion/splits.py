"""Deterministic cross-validation splits over readers and/or sentences.

Three holdout modes:

  new_sentence             test folds hold out sentences, readers shared
  new_reader               test folds hold out readers, sentences shared
  new_reader_new_sentence  fold i holds out reader chunk i AND sentence
                           chunk i; test records pair a held-out reader
                           with a held-out sentence, and train records use
                           neither (mixed records are discarded)

Unit ids are sorted lexicographically, shuffled with a seeded generator,
and cut into near-equal contiguous chunks, so a (corpus, mode, k, seed)
tuple always yields the same plan.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import Corpus
from .errors import ValidationError

log = logging.getLogger(__name__)

# mode -> (holds out readers, holds out sentences)
_HOLDOUT = {
    "new_sentence": (False, True),
    "new_reader": (True, False),
    "new_reader_new_sentence": (True, True),
}
MODES = tuple(_HOLDOUT)

Key = tuple[str, str]


@dataclass(frozen=True)
class Fold:
    test_readers: tuple[str, ...]
    test_sentences: tuple[str, ...]
    train: tuple[Key, ...]
    test: tuple[Key, ...]


@dataclass(frozen=True)
class SplitPlan:
    mode: str
    seed: int
    n_folds: int
    folds: tuple[Fold, ...]


def _chunks(ids, k: int, rng) -> list[list[str]]:
    ids = sorted(ids)
    if len(ids) < k:
        raise ValidationError(f"cannot make {k} folds from {len(ids)} units")
    order = rng.permutation(len(ids))
    shuffled = [ids[i] for i in order]
    return [list(part) for part in np.array_split(shuffled, k)]


def make_splits(corpus: Corpus, mode: str, k: int, seed: int) -> SplitPlan:
    """Build a k-fold split plan for the given holdout mode."""
    if mode not in MODES:
        raise ValidationError(f"unknown split mode {mode!r}; expected one of {MODES}")
    if k < 2:
        raise ValidationError(f"need at least 2 folds, got {k}")
    if not corpus.records:
        raise ValidationError("cannot split an empty corpus")
    rng = np.random.default_rng(seed)
    keys = [(rec.reader_id, rec.sentence_id) for rec in corpus.records]
    held_axes = _HOLDOUT[mode]
    n_held = sum(held_axes)
    units = (corpus.readers, {rec.sentence_id for rec in corpus.records})
    # one rng draw per held-out axis, readers first; an axis not held out
    # gets empty chunks
    chunks = [_chunks(ids, k, rng) if on else [[]] * k
              for ids, on in zip(units, held_axes)]

    folds = []
    for i, (readers, sentences) in enumerate(zip(*chunks)):
        held = (set(readers), set(sentences))
        # test keys are held out on every axis the mode holds out, train keys on none
        hits = [sum(part in ids for part, ids in zip(key, held)) for key in keys]
        test = tuple(key for key, n in zip(keys, hits) if n == n_held)
        train = tuple(key for key, n in zip(keys, hits) if n == 0)
        if not test:
            log.warning("fold %d has an empty test set", i)
        folds.append(Fold(test_readers=tuple(sorted(readers)),
                          test_sentences=tuple(sorted(sentences)), train=train, test=test))
    return SplitPlan(mode=mode, seed=seed, n_folds=k, folds=tuple(folds))


def save_split_plan(plan: SplitPlan, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(plan), fh, indent=1)
        fh.write("\n")


def load_split_plan(path) -> SplitPlan:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        folds = tuple(
            Fold(
                test_readers=tuple(f["test_readers"]),
                test_sentences=tuple(f["test_sentences"]),
                train=tuple((r, s) for r, s in f["train"]),
                test=tuple((r, s) for r, s in f["test"]),
            )
            for f in doc["folds"]
        )
        if doc["n_folds"] != len(folds):
            raise ValueError(f"n_folds is {doc['n_folds']} but it holds {len(folds)} folds")
        return SplitPlan(mode=doc["mode"], seed=doc["seed"], n_folds=doc["n_folds"], folds=folds)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed split plan ({exc})") from exc
