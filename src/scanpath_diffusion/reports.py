"""Corpus-level evaluation: pairing, distance tables, correlation reports.

Predictions pair with true records by (reader_id, sentence_id); a
prediction file written under a single synthetic reader id (the usual
output of generation or a baseline) pairs by sentence instead. Four CSV
tables come out of one evaluation:

  nld_per_scanpath.csv          one row per paired scanpath
  measure_summary.csv           mean/sd of each summary measure, true vs
                                predicted sides
  reader_correlations.csv       across readers: mean true measure vs mean
                                distance
  nld_measure_correlations.csv  across scanpaths: true measure vs distance

plus an optional per-word export joining word-level measures with outside
predictor columns. The report and the export read the true records'
reading measures from one `record_measures` list, so a caller that
writes both computes them once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .corpus import Corpus, ScanpathRecord, write_table
from .errors import ValidationError
from .measures import SUMMARY_MEASURES, ReadingMeasures, reading_measures_many
from .metrics import levenshtein_many, pearson

__all__ = [
    "pair_records", "record_measures", "evaluation_report", "write_evaluation_report",
    "export_word_measures", "EvaluationReport",
]


def pair_records(true: Corpus, pred: Corpus) -> list[tuple[ScanpathRecord, ScanpathRecord]]:
    """Match every true record to its prediction; unmatched true -> error."""
    if not true.records:
        raise ValidationError("true corpus has no scanpaths")
    pred_by_key = pred.by_key()
    pred_readers = pred.readers
    single = next(iter(pred_readers)) if len(pred_readers) == 1 else None
    pairs = []
    for rec in true.records:
        hit = pred_by_key.get((rec.reader_id, rec.sentence_id))
        if hit is None and single is not None:
            hit = pred_by_key.get((single, rec.sentence_id))
        if hit is None:
            raise ValidationError(
                f"no prediction for ({rec.reader_id!r}, {rec.sentence_id!r})"
            )
        pairs.append((rec, hit))
    return pairs


def record_measures(corpus: Corpus) -> list[ReadingMeasures]:
    """The reading measures of every record, in record order (one kernel
    call)."""
    return reading_measures_many((rec.fixations, len(corpus.sentences[rec.sentence_id]))
                                 for rec in corpus.records)


def _check_measures(corpus: Corpus, measures) -> list[ReadingMeasures]:
    if measures is None:
        return record_measures(corpus)
    if len(measures) != len(corpus.records):
        raise ValidationError(f"{len(measures)} measure sets for "
                              f"{len(corpus.records)} records")
    return measures


def _mean_sd(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), sd


@dataclass
class EvaluationReport:
    mean_nld: float
    nld_rows: list[dict]
    measure_rows: list[dict]
    reader_rows: list[dict]
    scanpath_rows: list[dict]


def _correlation_rows(columns: dict[str, list], distances: list[float],
                      count_name: str) -> list[dict]:
    """One row per measure: Pearson r of its column against the distances."""
    stats = {name: pearson(xs, distances) for name, xs in columns.items()}
    return [{"measure": name, "pearson_r": r_val, "p_value": p_val,
             count_name: len(distances), "note": "undefined" if math.isnan(r_val) else ""}
            for name, (r_val, p_val) in stats.items()]


def evaluation_report(true: Corpus, pred: Corpus,
                      true_measures: list[ReadingMeasures] | None = None) -> EvaluationReport:
    """Score the predictions against the true records; `true_measures`
    (default: computed here) are the true records' `record_measures`."""
    pairs = pair_records(true, pred)
    true_measures = _check_measures(true, true_measures)

    dists = levenshtein_many((t.fixations, p.fixations) for t, p in pairs)
    nld_rows = []
    for (t, p), dist in zip(pairs, dists):
        nld_rows.append({
            "reader_id": t.reader_id,
            "sentence_id": t.sentence_id,
            "true_len": len(t.fixations),
            "pred_len": len(p.fixations),
            "levenshtein": dist,
            "nld": dist / max(len(t.fixations), len(p.fixations)),
        })
    mean_nld = float(np.mean([row["nld"] for row in nld_rows]))

    def scalars(rm: ReadingMeasures):
        return {name: rm.scalar(name) for name in SUMMARY_MEASURES}

    true_scalars = [scalars(rm) for rm in true_measures]
    pred_unique = {(p.reader_id, p.sentence_id): p for _, p in pairs}
    pred_scalars = [scalars(rm) for rm in reading_measures_many(
        (p.fixations, len(true.sentences[p.sentence_id])) for p in pred_unique.values())]

    measure_rows = []
    for name in SUMMARY_MEASURES:
        tm, ts = _mean_sd([s[name] for s in true_scalars])
        pm, ps = _mean_sd([s[name] for s in pred_scalars])
        measure_rows.append({
            "measure": name,
            "true_mean": tm, "true_sd": ts,
            "pred_mean": pm, "pred_sd": ps,
        })

    by_reader: dict[str, list[int]] = {}
    for i, (t, _) in enumerate(pairs):
        by_reader.setdefault(t.reader_id, []).append(i)
    readers = sorted(by_reader)
    reader_nld = [float(np.mean([nld_rows[i]["nld"] for i in by_reader[r]])) for r in readers]
    reader_rows = _correlation_rows(
        {name: [float(np.mean([true_scalars[i][name] for i in by_reader[r]])) for r in readers]
         for name in SUMMARY_MEASURES},
        reader_nld, "n_readers")
    scanpath_rows = _correlation_rows(
        {name: [s[name] for s in true_scalars] for name in SUMMARY_MEASURES},
        [row["nld"] for row in nld_rows], "n")

    return EvaluationReport(
        mean_nld=mean_nld, nld_rows=nld_rows, measure_rows=measure_rows,
        reader_rows=reader_rows, scanpath_rows=scanpath_rows,
    )


def write_evaluation_report(report: EvaluationReport, out_dir) -> dict[str, Path]:
    """Write the four report tables; each takes its columns from its rows' keys."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tables = {
        "nld_per_scanpath": report.nld_rows,
        "measure_summary": report.measure_rows,
        "reader_correlations": report.reader_rows,
        "nld_measure_correlations": report.scanpath_rows,
    }
    files = {}
    for name, rows in tables.items():
        files[name] = out / f"{name}.csv"
        write_table(files[name], list(rows[0]), (row.values() for row in rows))
    return files


WORD_EXPORT_BASE = ["reader_id", "sentence_id", "word_index", "word",
                    "word_length", "sr", "ffc", "tfc", "fpr"]


def export_word_measures(corpus: Corpus, path,
                         predictors: dict[tuple[str, int], dict[str, str]] | None = None,
                         measures: list[ReadingMeasures] | None = None) -> None:
    """Per-word measure rows for every scanpath, joined with predictors;
    `measures` (default: computed here) are the corpus's `record_measures`.

    Predictor columns whose names collide with the computed base columns
    are dropped from the join. The rows are written from flat columns, one
    entry per word of every record, in one `writerows`: the word and
    predictor columns are built once per sentence, the measure columns are
    the records' word arrays end to end.
    """
    measures = _check_measures(corpus, measures)
    extra_names: list[str] = []
    if predictors:
        seen = set()
        for cols in predictors.values():
            for name in cols:
                if name not in seen and name not in WORD_EXPORT_BASE:
                    seen.add(name)
                    extra_names.append(name)
    sids = [rec.sentence_id for rec in corpus.records]
    counts = [len(corpus.sentences[sid]) for sid in sids]
    if [rm.sr.size for rm in measures] != counts:
        raise ValidationError("the measures' word counts differ from the records' sentences")

    # csv.writer formats an int field with str() each time; the integer
    # columns go in as that text instead, formatted once per sentence
    # (word indices and lengths) or once per distinct value (the measures)
    by_sentence = {}  # word indices, words, word lengths, predictor columns
    for sid in dict.fromkeys(sids):
        words = corpus.sentences[sid]
        joined = [(predictors or {}).get((sid, w), {}) for w in range(1, len(words) + 1)]
        by_sentence[sid] = ([str(w) for w in range(1, len(words) + 1)], words,
                            [str(len(word)) for word in words],
                            *([cols.get(name, "") for cols in joined] for name in extra_names))
    word_measures = np.zeros((4, sum(counts)), np.int64)
    for row, name in zip(word_measures, ("sr", "ffc", "tfc", "fpr")):
        if measures:
            np.concatenate([getattr(rm, name) for rm in measures], out=row)
    as_text = np.array([str(v) for v in range(int(word_measures.max(initial=0)) + 1)], object)

    def per_word(values_of_record):
        return chain.from_iterable(map(repeat, values_of_record, counts))

    def per_sentence(k):
        return chain.from_iterable(by_sentence[sid][k] for sid in sids)

    columns = [
        per_word(rec.reader_id for rec in corpus.records),
        per_word(sids),
        per_sentence(0),
        per_sentence(1),
        per_sentence(2),
        *as_text[word_measures].tolist(),
        *(per_sentence(k) for k in range(3, 3 + len(extra_names))),
    ]
    write_table(path, WORD_EXPORT_BASE + extra_names, zip(*columns))
