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
predictor columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus, ScanpathRecord, write_table
from .errors import ValidationError
from .measures import SUMMARY_MEASURES, reading_measures
from .metrics import levenshtein_many, pearson

__all__ = [
    "pair_records", "evaluation_report", "write_evaluation_report",
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


def evaluation_report(true: Corpus, pred: Corpus) -> EvaluationReport:
    pairs = pair_records(true, pred)

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

    def scalars(rec: ScanpathRecord):
        m = len(true.sentences[rec.sentence_id])
        rm = reading_measures(rec.fixations, m)
        return {name: rm.scalar(name) for name in SUMMARY_MEASURES}

    true_scalars = [scalars(t) for t, _ in pairs]
    pred_unique = {(p.reader_id, p.sentence_id): p for _, p in pairs}
    pred_scalars = [scalars(p) for p in pred_unique.values()]

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
    reader_rows = []
    for name in SUMMARY_MEASURES:
        xs = [float(np.mean([true_scalars[i][name] for i in by_reader[r]])) for r in readers]
        r_val, p_val = pearson(xs, reader_nld)
        reader_rows.append({
            "measure": name, "pearson_r": r_val, "p_value": p_val,
            "n_readers": len(readers),
            "note": "" if not math.isnan(r_val) else "undefined",
        })

    scanpath_rows = []
    dists = [row["nld"] for row in nld_rows]
    for name in SUMMARY_MEASURES:
        xs = [s[name] for s in true_scalars]
        r_val, p_val = pearson(xs, dists)
        scanpath_rows.append({
            "measure": name, "pearson_r": r_val, "p_value": p_val,
            "n": len(pairs),
            "note": "" if not math.isnan(r_val) else "undefined",
        })

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
                         predictors: dict[tuple[str, int], dict[str, str]] | None = None) -> None:
    """Per-word measure rows for every scanpath, joined with predictors.

    Predictor columns whose names collide with the computed base columns
    are dropped from the join.
    """
    extra_names: list[str] = []
    if predictors:
        seen = set()
        for cols in predictors.values():
            for name in cols:
                if name not in seen and name not in WORD_EXPORT_BASE:
                    seen.add(name)
                    extra_names.append(name)

    def rows():
        for rec in corpus.records:
            words = corpus.sentences[rec.sentence_id]
            rm = reading_measures(rec.fixations, len(words))
            measures = zip(rm.sr.tolist(), rm.ffc.tolist(), rm.tfc.tolist(), rm.fpr.tolist())
            for w, (word, counts) in enumerate(zip(words, measures), start=1):
                joined = (predictors or {}).get((rec.sentence_id, w), {})
                yield [rec.reader_id, rec.sentence_id, w, word, len(word), *counts,
                       *(joined.get(name, "") for name in extra_names)]

    write_table(path, WORD_EXPORT_BASE + extra_names, rows())
