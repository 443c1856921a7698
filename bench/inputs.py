"""Seeded workload inputs: multi-reader corpora written in the CLI's formats.

The package's own `synthetic_corpus` has two deterministic readers that
never skip, so its scanpaths are short and regular. That understates the
cost of Levenshtein and of the reading measures, and it cannot feed a
12-reader human baseline. `reader_corpus` draws human-like readers instead:
each reader has its own skip, refixation and regression rates, sentences
have 5-40 words, and every scanpath is capped so its frame fits `max_len`.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from scanpath_diffusion import (Corpus, ScanpathRecord, build_vocab, save_corpus,
                                save_sentences)

# consonant-vowel syllables; words are 1-4 syllables long, so word lengths
# (a column of the word export) vary the way real ones do
_SYLLABLES = tuple(c + v for c in "bdfgklmnprst" for v in "aeiou")


def _word_pool(rng: np.random.Generator, size: int) -> list[str]:
    pool: dict[str, None] = {}
    while len(pool) < size:
        n = int(rng.integers(1, 5))
        pool["".join(_SYLLABLES[int(k)] for k in rng.integers(0, len(_SYLLABLES), n))] = None
    return list(pool)


def _read(rng: np.random.Generator, words: int, rates: dict, cap: int) -> tuple[int, ...]:
    """One left-to-right pass with skips, refixations and short regressions."""
    path: list[int] = []
    w = 1
    while w <= words and len(path) < cap:
        if path and w < words and rng.random() < rates["skip"]:
            w += 1
            continue
        path.append(w)
        if rng.random() < rates["refix"]:
            path.append(w)
        if w > 1 and rng.random() < rates["regress"]:
            back = max(1, w - int(rng.integers(1, 4)))
            path.append(back)
            if back + 1 < w:
                path.append(back + 1)
        w += 1
    return tuple(path[:cap])


def reader_corpus(seed: int, *, readers: int, sentences: int, max_len: int,
                  min_words: int = 5, max_words: int = 40) -> Corpus:
    """A corpus read by `readers` simulated readers, each with its own habits.

    Every scanpath satisfies words + fixations + 4 <= max_len, the frame-fit
    rule of `filter_encodable` for a whole-word vocabulary.
    """
    rng = np.random.default_rng([seed, 0x5CA9])
    pool = _word_pool(rng, 400)
    # Rates and sentence lengths are spread evenly over their ranges and
    # shuffled, so the seed changes the text and the paths but hardly the
    # amount of work, which grows with the squared scanpath length.
    grid = (np.arange(readers) + 0.5) / readers
    habits = [{"skip": 0.1 + 0.25 * s, "refix": 0.05 + 0.2 * f, "regress": 0.05 + 0.15 * g}
              for s, f, g in zip(grid, rng.permutation(grid), rng.permutation(grid))]
    lengths = rng.permutation(np.linspace(min_words, max_words, sentences).round().astype(int))
    sents: dict[str, tuple[str, ...]] = {}
    records: list[ScanpathRecord] = []
    for i, m in enumerate(lengths.tolist()):
        sid = f"s{i:03d}"
        sents[sid] = tuple(pool[int(k)] for k in rng.integers(0, len(pool), m))
        cap = max_len - m - 4
        for r, rates in enumerate(habits):
            records.append(ScanpathRecord(f"r{r:02d}", sid, _read(rng, m, rates, cap)))
    return Corpus(sentences=sents, records=records)


def corpus_stats(corpus: Corpus, max_len: int) -> dict:
    """Scanpath-length mean and max, and the frame padding share at max_len."""
    lengths = [len(r.fixations) for r in corpus.records]
    used = [len(corpus.sentences[r.sentence_id]) + n + 4
            for r, n in zip(corpus.records, lengths)]
    return {"scanpaths": len(lengths), "sentences": len(corpus.sentences),
            "readers": len(corpus.readers),
            "scanpath_len_mean": float(np.mean(lengths)),
            "scanpath_len_max": int(max(lengths)),
            "padding_share": 1.0 - float(np.mean(used)) / max_len}


def write_corpus(corpus: Corpus, work: Path) -> dict[str, Path]:
    """Sentence, scanpath and whole-word vocabulary files for the CLI."""
    files = {"sentences": work / "sentences.csv", "corpus": work / "corpus.csv",
             "vocab": work / "vocab.txt"}
    save_sentences(corpus.sentences, files["sentences"])
    save_corpus(corpus, files["corpus"])
    vocab = build_vocab(corpus.sentences.values())
    files["vocab"].write_text("".join(t + "\n" for t in vocab.tokens), encoding="utf-8")
    return files
