"""Canonical corpus files: sentences, scanpaths, word predictors.

Two CSV formats make up a corpus on disk:

  sentences:  sentence_id,text            (text = whitespace-joined words)
  scanpaths:  reader_id,sentence_id,fixation_word_index

Scanpath rows with the same (reader_id, sentence_id) key belong to one
scanpath, in row order. fixation_word_index is 1-based and must stay within
the word count of the referenced sentence.

Table rule: every CSV table the package writes goes through write_table or
table_writer (UTF-8, a header line, CRLF line endings, floats as their
shortest round-trip repr); every table it reads goes through _read_table,
which reads it in chunks of rows, each as columns, checks the header and
each row's field count, and raises a bad row only after the chunk of the
rows before it: a load reports the first bad row of a file.
"""

from __future__ import annotations

import csv
import logging
import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from itertools import groupby, islice

from .encoding import scanpath_room
from .errors import CorpusFormatError, ValidationError
from .measures import first_non_integer
from .tokenization import TokenizedSentence, Vocabulary, tokenize_sentence

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
        bad = first_non_integer([rec.fixations for rec in self.records])
        if bad is not None:
            k, f = bad
            raise ValidationError(f"fixation index {f!r} is not an integer for "
                                  f"({self.records[k].reader_id!r}, "
                                  f"{self.records[k].sentence_id!r})")
        valid: dict[int, frozenset[int]] = {}  # word count -> the indices 1..M
        for rec in self.records:
            words = self.sentences.get(rec.sentence_id)
            if words is None:
                raise ValidationError(
                    f"scanpath references unknown sentence {rec.sentence_id!r}")
            if not rec.fixations:
                raise ValidationError(
                    f"empty scanpath for ({rec.reader_id!r}, {rec.sentence_id!r})")
            m = len(words)
            if m not in valid:
                valid[m] = frozenset(range(1, m + 1))
            if not valid[m].issuperset(rec.fixations):
                f = next(f for f in rec.fixations if not 1 <= f <= m)
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


@contextmanager
def table_writer(target, header):
    """Write the header to a path (opened and closed here) or an open text
    file (left open), then yield write_rows(rows), which writes and flushes."""
    opened = (open(target, "w", newline="", encoding="utf-8")
              if isinstance(target, (str, os.PathLike)) else nullcontext(target))
    with opened as fh:
        writer = csv.writer(fh)
        writer.writerow(header)

        def write_rows(rows):
            writer.writerows(rows)
            fh.flush()

        yield write_rows


def write_table(target, header, rows) -> None:
    """Write a whole CSV table (see table_writer)."""
    with table_writer(target, header) as write_rows:
        write_rows(rows)


# rows the table reader parses into columns at a time: a table read holds
# one chunk's fields, so neither the memory of a whole file's strings nor
# the csv reader's row lists, which the garbage collector tracks, pile up
_CHUNK_ROWS = 256


def _read_table(path, expected_header, more=None):
    """Yield a CSV table's header, then its rows in chunks of up to
    _CHUNK_ROWS rows, each as (line numbers, columns): a tuple per header
    field, an entry per row.

    The header must equal expected_header or, given `more` (the error
    message's name for them), extend it by one or more columns. Blank rows
    are skipped but keep their place in the line numbering. A row with
    another field count than the header's, or a read error, is raised after
    the chunk of the rows before it: a caller that checks each chunk before
    it takes the next reports the first bad row of the file.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CorpusFormatError(path, 1, "missing header") from None
        n = len(expected_header)
        if more is None and header != expected_header:
            raise CorpusFormatError(
                path, 1, f"expected header {expected_header}, got {header}"
            )
        if more is not None and (header[:n] != expected_header or len(header) <= n):
            raise CorpusFormatError(
                path, 1, f"expected header {','.join(expected_header)},{more}"
            )
        yield header
        width, line_no, error = len(header), 2, None
        while True:
            rows: list[list[str]] = []
            try:
                rows.extend(islice(reader, _CHUNK_ROWS))
            except (csv.Error, UnicodeDecodeError) as exc:
                error = exc  # raised after the rows read before it
            last = len(rows) < _CHUNK_ROWS
            line_nos = range(line_no, line_no + len(rows))
            line_no += len(rows)
            widths = set(map(len, rows))
            if 0 in widths:
                line_nos = [k for k, row in zip(line_nos, rows) if row]
                rows = [row for row in rows if row]
                widths.discard(0)
            if widths - {width}:
                k = next(k for k, row in enumerate(rows) if len(row) != width)
                error = CorpusFormatError(
                    path, line_nos[k], f"expected {width} fields, got {len(rows[k])}"
                )
                rows = rows[:k]
            if rows:
                yield line_nos, tuple(zip(*rows))
            if error is not None:
                raise error
            if last:
                return


def _table_rows(chunks):
    """(line number, *fields) for each row of the chunks _read_table yields."""
    for line_nos, columns in chunks:
        yield from zip(line_nos, *columns)


def load_sentences(path) -> dict[str, tuple[str, ...]]:
    """Load a sentence file into an id -> word-tuple map."""
    sentences: dict[str, tuple[str, ...]] = {}
    chunks = _read_table(path, SENTENCE_HEADER)
    next(chunks)
    for line_no, sid, text in _table_rows(chunks):
        if sid in sentences:
            raise CorpusFormatError(path, line_no, f"duplicate sentence_id {sid!r}")
        words = tuple(text.split())
        if not words:
            raise CorpusFormatError(path, line_no, f"sentence {sid!r} has no words")
        sentences[sid] = words
    return sentences


def save_sentences(sentences: dict[str, tuple[str, ...]], path) -> None:
    write_table(path, SENTENCE_HEADER,
                ((sid, " ".join(words)) for sid, words in sentences.items()))


def _int_or_none(text: str) -> int | None:
    """text's integer when it is an optional "-" and ASCII digits, else None
    (`int` would also read "1_0", " 3", "+3" and non-ASCII digits)."""
    digits = text[1:] if text.startswith("-") else text
    return int(text) if digits.isascii() and digits.isdigit() else None


def _add_scanpath_rows(path, groups, valid, line_nos, readers, sids, texts) -> None:
    """Check a chunk of scanpath rows column by column and add their
    fixations to `groups`; raise CorpusFormatError at the first bad row.

    The checks run one after the other: known sentences, integer fixations
    (`_int_or_none`, each distinct text once), fixations within 1..M
    (`valid` maps a sentence to its word indices; a run of rows with one key
    at a time, as the rows are grouped). Each looks only at the rows before
    the first bad row the checks before it found, so the error raised is
    that of the first bad row, as a row-by-row read would give it: its line
    number, and the first check it fails.
    """
    n, error = len(sids), None  # the rows before the first bad row found so far
    unknown = set(sids).difference(valid)
    if unknown:
        n = next(k for k, sid in enumerate(sids) if sid in unknown)
        error = CorpusFormatError(path, line_nos[n], f"unknown sentence_id {sids[n]!r}")
    value_of = {text: _int_or_none(text) for text in set(texts[:n])}
    if None in value_of.values():
        n = next(k for k in range(n) if value_of[texts[k]] is None)
        error = CorpusFormatError(
            path, line_nos[n], f"fixation_word_index {texts[n]!r} is not an integer"
        )
    values = list(map(value_of.__getitem__, texts[:n]))
    # the rows of one scanpath usually follow each other
    lo = 0
    for key, run in groupby(zip(readers[:n], sids[:n])):
        hi = lo + len(list(run))
        indices = valid[key[1]]
        if not indices.issuperset(values[lo:hi]):
            k = next(k for k in range(lo, hi) if values[k] not in indices)
            raise CorpusFormatError(path, line_nos[k], f"fixation_word_index {values[k]} "
                                    f"out of range 1..{len(indices)}")
        groups.setdefault(key, []).extend(values[lo:hi])
        lo = hi
    if error is not None:
        raise error


def load_corpus(scanpath_path, sentence_path) -> Corpus:
    """Load and validate a scanpath corpus against its sentence file.

    The scanpath file is read once, a chunk of rows at a time, each chunk as
    columns (reader ids, sentence ids, fixation texts) checked column by
    column (see _add_scanpath_rows). A file with several bad rows is
    reported at the first: its line number, and the first check it fails.
    """
    sentences = load_sentences(sentence_path)
    valid = {sid: frozenset(range(1, len(words) + 1)) for sid, words in sentences.items()}
    groups: dict[tuple[str, str], list[int]] = {}
    chunks = _read_table(scanpath_path, SCANPATH_HEADER)
    next(chunks)
    for line_nos, columns in chunks:
        _add_scanpath_rows(scanpath_path, groups, valid, line_nos, *columns)
    records = [
        ScanpathRecord(reader_id=r, sentence_id=s, fixations=tuple(fx))
        for (r, s), fx in groups.items()
    ]
    return Corpus(sentences=sentences, records=records)


def save_corpus(corpus: Corpus, path) -> None:
    """Write scanpath rows; one row per fixation, groups in record order."""
    write_table(path, SCANPATH_HEADER,
                ((rec.reader_id, rec.sentence_id, f)
                 for rec in corpus.records for f in rec.fixations))


def load_predictors(path, sentences=None) -> dict[tuple[str, int], dict[str, str]]:
    """Load per-word predictor values keyed by (sentence_id, word_index).

    The file must start with sentence_id,word_index; any further columns
    (frequency, surprisal, ...) are carried through as strings and joined
    into the word-measure export. A key may appear once. Given `sentences`
    (id -> words), a row for one of them must name a word in 1..M; rows for
    other sentences are kept (a corpus-wide file is fine) and counted in
    one warning.
    """
    chunks = _read_table(path, ["sentence_id", "word_index"], more="<predictor...>")
    extra = next(chunks)[2:]
    table: dict[tuple[str, int], dict[str, str]] = {}
    first_line: dict[tuple[str, int], int] = {}
    unlisted = 0
    for line_no, *row in _table_rows(chunks):
        sid = row[0]
        widx = _int_or_none(row[1])
        if widx is None:
            raise CorpusFormatError(path, line_no, f"word_index {row[1]!r} is not an integer")
        key = (sid, widx)
        if key in first_line:
            raise CorpusFormatError(
                path, line_no, f"duplicate row for sentence {sid!r} word {widx} "
                f"(first at line {first_line[key]})"
            )
        if sentences is not None:
            if sid not in sentences:
                unlisted += 1
            elif not 1 <= widx <= len(sentences[sid]):
                raise CorpusFormatError(
                    path, line_no, f"word_index {widx} outside 1..{len(sentences[sid])} "
                    f"of sentence {sid!r}"
                )
        first_line[key] = line_no
        table[key] = dict(zip(extra, row[2:]))
    if unlisted:
        log.warning("%s: %d predictor rows name sentences outside the sentence file; "
                    "they are never joined", path, unlisted)
    return table


def filter_encodable(corpus: Corpus, vocab: Vocabulary,
                     max_len: int) -> tuple[Corpus, dict[str, TokenizedSentence]]:
    """Drop sentences/records that cannot fit in a max_len frame; returns
    the kept corpus and the tokenization of each kept sentence.

    A frame holds the subword pieces, the fixations, and 4 marker slots. A
    sentence is dropped when even a single-fixation scanpath would not fit;
    a record is dropped when its own fixation count does not fit. Drops are
    warnings, not errors.
    """
    toks: dict[str, TokenizedSentence] = {}
    for sid, words in corpus.sentences.items():
        tok = tokenize_sentence(words, vocab)
        if scanpath_room(len(tok.pieces), max_len) < 1:
            log.warning(
                "dropping sentence %s: %d subword pieces cannot fit in frame of %d",
                sid, len(tok.pieces), max_len,
            )
            continue
        toks[sid] = tok
    kept_records = []
    for rec in corpus.records:
        if rec.sentence_id not in toks:
            continue
        n_pieces = len(toks[rec.sentence_id].pieces)
        if len(rec.fixations) > scanpath_room(n_pieces, max_len):
            log.warning(
                "dropping scanpath (%s, %s): %d pieces + %d fixations exceed frame of %d",
                rec.reader_id, rec.sentence_id, n_pieces, len(rec.fixations), max_len,
            )
            continue
        kept_records.append(rec)
    kept = Corpus(sentences={sid: corpus.sentences[sid] for sid in toks},
                  records=kept_records)
    return kept, toks
