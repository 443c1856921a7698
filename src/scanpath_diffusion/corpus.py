"""Canonical corpus files: sentences, scanpaths, word predictors.

Two CSV formats make up a corpus on disk:

  sentences:  sentence_id,text            (text = whitespace-joined words)
  scanpaths:  reader_id,sentence_id,fixation_word_index

Scanpath rows with the same (reader_id, sentence_id) key belong to one
scanpath, in row order. fixation_word_index is 1-based and must stay within
the word count of the referenced sentence.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field

from .encoding import scanpath_room
from .errors import CorpusFormatError, ValidationError
from .tokenization import Vocabulary, tokenize_sentence

log = logging.getLogger(__name__)

SCANPATH_HEADER = ["reader_id", "sentence_id", "fixation_word_index"]
SENTENCE_HEADER = ["sentence_id", "text"]


@dataclass(frozen=True)
class ScanpathRecord:
    """One reader's fixation sequence over one sentence."""

    reader_id: str
    sentence_id: str
    fixations: tuple[int, ...]


@dataclass
class Corpus:
    """Sentences plus the scanpaths recorded on them.

    Sentences without scanpaths are allowed (they can still be generation
    targets); scanpaths must reference a known sentence.
    """

    sentences: dict[str, tuple[str, ...]]
    records: list[ScanpathRecord] = field(default_factory=list)

    def __post_init__(self):
        for rec in self.records:
            self._check_record(rec)

    def _check_record(self, rec: ScanpathRecord) -> None:
        if rec.sentence_id not in self.sentences:
            raise ValidationError(f"scanpath references unknown sentence {rec.sentence_id!r}")
        if not rec.fixations:
            raise ValidationError(f"empty scanpath for ({rec.reader_id!r}, {rec.sentence_id!r})")
        m = len(self.sentences[rec.sentence_id])
        for f in rec.fixations:
            if not 1 <= f <= m:
                raise ValidationError(
                    f"fixation index {f} out of range 1..{m} "
                    f"for ({rec.reader_id!r}, {rec.sentence_id!r})"
                )

    @property
    def readers(self) -> set[str]:
        return {rec.reader_id for rec in self.records}

    def by_key(self) -> dict[tuple[str, str], ScanpathRecord]:
        return {(rec.reader_id, rec.sentence_id): rec for rec in self.records}

    def subset(self, keys) -> "Corpus":
        """Corpus restricted to the given (reader_id, sentence_id) keys."""
        keys = set(keys)
        records = [r for r in self.records if (r.reader_id, r.sentence_id) in keys]
        return Corpus(sentences=dict(self.sentences), records=records)


def _read_rows(path, expected_header):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CorpusFormatError(path, 1, "missing header") from None
        if header != expected_header:
            raise CorpusFormatError(
                path, 1, f"expected header {expected_header}, got {header}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected_header):
                raise CorpusFormatError(
                    path, line_no, f"expected {len(expected_header)} fields, got {len(row)}"
                )
            yield line_no, row


def load_sentences(path) -> dict[str, tuple[str, ...]]:
    """Load a sentence file into an id -> word-tuple map."""
    sentences: dict[str, tuple[str, ...]] = {}
    for line_no, (sid, text) in _read_rows(path, SENTENCE_HEADER):
        if sid in sentences:
            raise CorpusFormatError(path, line_no, f"duplicate sentence_id {sid!r}")
        words = tuple(text.split())
        if not words:
            raise CorpusFormatError(path, line_no, f"sentence {sid!r} has no words")
        sentences[sid] = words
    return sentences


def save_sentences(sentences: dict[str, tuple[str, ...]], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SENTENCE_HEADER)
        for sid, words in sentences.items():
            writer.writerow([sid, " ".join(words)])


def load_corpus(scanpath_path, sentence_path) -> Corpus:
    """Load and validate a scanpath corpus against its sentence file."""
    sentences = load_sentences(sentence_path)
    groups: dict[tuple[str, str], list[int]] = {}
    for line_no, (reader_id, sid, fix) in _read_rows(scanpath_path, SCANPATH_HEADER):
        if sid not in sentences:
            raise CorpusFormatError(scanpath_path, line_no, f"unknown sentence_id {sid!r}")
        try:
            f = int(fix)
        except ValueError:
            raise CorpusFormatError(
                scanpath_path, line_no, f"fixation_word_index {fix!r} is not an integer"
            ) from None
        m = len(sentences[sid])
        if not 1 <= f <= m:
            raise CorpusFormatError(
                scanpath_path, line_no, f"fixation_word_index {f} out of range 1..{m}"
            )
        groups.setdefault((reader_id, sid), []).append(f)
    records = [
        ScanpathRecord(reader_id=r, sentence_id=s, fixations=tuple(fx))
        for (r, s), fx in groups.items()
    ]
    return Corpus(sentences=sentences, records=records)


def save_corpus(corpus: Corpus, path) -> None:
    """Write scanpath rows; one row per fixation, groups in record order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCANPATH_HEADER)
        for rec in corpus.records:
            for f in rec.fixations:
                writer.writerow([rec.reader_id, rec.sentence_id, f])


def load_predictors(path) -> dict[tuple[str, int], dict[str, str]]:
    """Load per-word predictor values keyed by (sentence_id, word_index).

    The file must start with sentence_id,word_index; any further columns
    (frequency, surprisal, ...) are carried through as strings and joined
    into the word-measure export.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CorpusFormatError(path, 1, "missing header") from None
        if header[:2] != ["sentence_id", "word_index"] or len(header) < 3:
            raise CorpusFormatError(
                path, 1, "expected header sentence_id,word_index,<predictor...>"
            )
        extra = header[2:]
        table: dict[tuple[str, int], dict[str, str]] = {}
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise CorpusFormatError(
                    path, line_no, f"expected {len(header)} fields, got {len(row)}"
                )
            try:
                widx = int(row[1])
            except ValueError:
                raise CorpusFormatError(
                    path, line_no, f"word_index {row[1]!r} is not an integer"
                ) from None
            table[(row[0], widx)] = dict(zip(extra, row[2:]))
    return table


def filter_encodable(corpus: Corpus, vocab: Vocabulary, max_len: int) -> Corpus:
    """Drop sentences/records that cannot fit in a max_len frame.

    A frame holds the subword pieces, the fixations, and 4 marker slots. A
    sentence is dropped when even a single-fixation scanpath would not fit;
    a record is dropped when its own fixation count does not fit. Drops are
    warnings, not errors.
    """
    kept_sentences: dict[str, tuple[str, ...]] = {}
    n_pieces: dict[str, int] = {}
    for sid, words in corpus.sentences.items():
        n = len(tokenize_sentence(words, vocab).pieces)
        if scanpath_room(n, max_len) < 1:
            log.warning(
                "dropping sentence %s: %d subword pieces cannot fit in frame of %d",
                sid, n, max_len,
            )
            continue
        kept_sentences[sid] = words
        n_pieces[sid] = n
    kept_records = []
    for rec in corpus.records:
        if rec.sentence_id not in kept_sentences:
            continue
        if len(rec.fixations) > scanpath_room(n_pieces[rec.sentence_id], max_len):
            log.warning(
                "dropping scanpath (%s, %s): %d pieces + %d fixations exceed frame of %d",
                rec.reader_id, rec.sentence_id,
                n_pieces[rec.sentence_id], len(rec.fixations), max_len,
            )
            continue
        kept_records.append(rec)
    return Corpus(sentences=kept_sentences, records=kept_records)
