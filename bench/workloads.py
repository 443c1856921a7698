"""The three workloads, driven through `scanpath_diffusion.cli.main(argv)`.

Every workload is a closed loop with one client: each CLI command starts
after the previous one returns. A workload is a set-up (seeded input files)
plus a round of CLI commands; a run repeats the round until `seconds` is
spent (at least once) and reports medians over rounds.
"""

from __future__ import annotations

import contextlib
import csv
import io
import logging
import math
import statistics
from functools import lru_cache
from pathlib import Path

import numpy as np

from scanpath_diffusion import build_vocab, synthetic_corpus
from scanpath_diffusion.cli import main as cli_main

import inputs
import speed

SETUP_REPEATS = 9
ORACLE_SAMPLE = 48

WHY = {
    "desk-fit": "whole user flow at the criterion-6 desk size: dispatch-bound "
                "training, the B=1 reverse chain and the 2-worker pool",
    "paper-train": "training at the paper config: BLAS matmuls, erf GELU and L=128 "
                   "softmax dominate, half of every frame is padding",
    "eval-corpus": "pure-Python scoring of a 12-reader corpus: Levenshtein, reading "
                   "measures, reports and the inter-reader baseline",
}

# the speedometer probe that tracks each workload's code (see speed.py)
PROBE = {"desk-fit": "numpy", "paper-train": "numpy", "eval-corpus": "interpreter"}

# full: what the benchmark measures; smoke: a seconds-long self-check
CONFIGS = {
    "desk-fit": {
        "full": {"sentences": 32, "min_words": 5, "max_words": 10, "hidden_dim": 64,
                 "d_bert": 64, "blocks": 4, "heads": 4, "max_len": 32, "batch": 16,
                 "t_max": 200, "lr": 1e-3, "steps": 300, "workers": 2},
        "smoke": {"sentences": 4, "min_words": 5, "max_words": 10, "hidden_dim": 16,
                  "d_bert": 16, "blocks": 1, "heads": 2, "max_len": 32, "batch": 4,
                  "t_max": 10, "lr": 1e-3, "steps": 10, "workers": 2},
    },
    "paper-train": {
        "full": {"readers": 12, "sentences": 24, "hidden_dim": 256, "d_bert": 768,
                 "blocks": 12, "heads": 8, "max_len": 128, "batch": 16,
                 "t_max": 2000, "lr": 1e-4, "steps": 4},
        "smoke": {"readers": 3, "sentences": 4, "hidden_dim": 32, "d_bert": 48,
                  "blocks": 1, "heads": 2, "max_len": 128, "batch": 2,
                  "t_max": 20, "lr": 1e-4, "steps": 2},
    },
    "eval-corpus": {
        "full": {"readers": 12, "sentences": 24, "max_len": 128},
        "smoke": {"readers": 3, "sentences": 4, "max_len": 128},
    },
}


# ---------------------------------------------------------------------------
# output checks

class Checks:
    """Counts checked operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def tally(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{failed} x {what}")

    def expect(self, ok: bool, what: str) -> bool:
        self.tally(1, 0 if ok else 1, what)
        return ok


class WarningLog(logging.Handler):
    """Appends the package's warnings to a file.

    A file, not a list: forked pool workers inherit the handler, and their
    appends land in the same file, so generation warnings are seen whatever
    the worker count.
    """

    def __init__(self, path: Path):
        super().__init__(logging.WARNING)
        self.path = path
        self.path.touch()
        self._seen = 0

    def emit(self, record):
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(f"{record.name}\t{record.getMessage()}\n")

    def new_lines(self) -> list[tuple[str, str]]:
        lines = self.path.read_text(encoding="utf-8").splitlines()
        fresh, self._seen = lines[self._seen:], len(lines)
        return [tuple(line.split("\t", 1)) for line in fresh]


def count_warnings(log: WarningLog, checks: Checks, attempted: int, logger: str,
                   prefix: str, what: str) -> None:
    """`attempted` operations, each a failure if a matching warning was logged."""
    bad = sum(1 for name, msg in log.new_lines()
              if name == logger and msg.startswith(prefix))
    checks.tally(attempted, bad, what)


def run_cli(checks: Checks, clock: speed.Clock, argv: list[str]) -> tuple[float, str]:
    """One CLI command in-process, timed on `clock`; returns (wall s, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code, wall = clock.time(cli_main, argv)
    checks.expect(code == 0, f"`{argv[0]}` exited {code}")
    return wall, buf.getvalue()


def read_rows(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_scanpaths(path: Path) -> dict[tuple[str, str], list[int]]:
    paths: dict[tuple[str, str], list[int]] = {}
    for row in read_rows(path):
        paths.setdefault((row["reader_id"], row["sentence_id"]), []).append(
            int(row["fixation_word_index"]))
    return paths


def check_predictions(checks: Checks, path: Path, sentences: dict) -> None:
    """Every sentence has a prediction, every fixation is inside 1..M."""
    by_sentence = {sid: fx for (_, sid), fx in read_scanpaths(path).items()}
    for sid, words in sentences.items():
        fx = by_sentence.get(sid)
        if checks.expect(fx is not None, f"no prediction for sentence {sid}"):
            checks.expect(all(1 <= f <= len(words) for f in fx),
                          f"fixation outside 1..{len(words)} for sentence {sid}")


def check_training(checks: Checks, run_dir: Path, steps: int) -> float:
    """A full, finite loss curve; returns the mean `total` of its last tenth."""
    totals = [float(r["total"]) for r in read_rows(run_dir / "metrics.csv")]
    checks.expect(len(totals) == steps, f"training stopped at {len(totals)}/{steps} steps")
    checks.expect(all(math.isfinite(v) for v in totals), "non-finite loss in metrics.csv")
    checks.expect((run_dir / "checkpoint.bin").exists(), "no checkpoint written")
    tail = totals[-max(1, len(totals) // 10):]
    return statistics.fmean(tail) if tail else math.nan


def oracle_levenshtein(a, b) -> int:
    """Textbook recursion, independent of the package's two-row DP."""
    a, b = tuple(a), tuple(b)

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(go(i - 1, j) + 1, go(i, j - 1) + 1,
                   go(i - 1, j - 1) + (a[i - 1] != b[j - 1]))

    return go(len(a), len(b))


def check_report(checks: Checks, report_dir: Path, true_paths: dict, pred_path: Path,
                 seed: int) -> list[dict]:
    """Row count of nld_per_scanpath.csv, and a seeded sample of its rows
    recomputed exactly by the oracle. Returns the rows."""
    rows = read_rows(report_dir / "nld_per_scanpath.csv")
    checks.expect(len(rows) == len(true_paths),
                  f"nld_per_scanpath.csv has {len(rows)} rows, expected {len(true_paths)}")
    pred = read_scanpaths(pred_path)
    single = {sid: fx for (_, sid), fx in pred.items()}
    rng = np.random.default_rng([seed, 7])
    picks = rng.choice(len(rows), size=min(ORACLE_SAMPLE, len(rows)), replace=False)
    for i in sorted(int(k) for k in picks):
        row = rows[i]
        key = (row["reader_id"], row["sentence_id"])
        t = true_paths.get(key)
        p = pred.get(key, single.get(row["sentence_id"]))
        ok = t is not None and p is not None
        if ok:
            dist = oracle_levenshtein(t, p)
            ok = (int(row["levenshtein"]) == dist and int(row["true_len"]) == len(t)
                  and int(row["pred_len"]) == len(p)
                  and float(row["nld"]) == dist / max(len(t), len(p)))
        checks.expect(ok, f"oracle mismatch on nld row {key}")
    return rows


# ---------------------------------------------------------------------------
# set-up: seeded input files

def setup(name: str, cfg: dict, seed: int, work: Path) -> dict:
    work.mkdir(parents=True)
    if name == "desk-fit":
        corpus = synthetic_corpus(cfg["sentences"], cfg["min_words"], cfg["max_words"],
                                  seed=seed)
    else:
        corpus = inputs.reader_corpus(seed, readers=cfg["readers"],
                                      sentences=cfg["sentences"], max_len=cfg["max_len"])
    return {"corpus": corpus, "files": inputs.write_corpus(corpus, work),
            "true_paths": {(r.reader_id, r.sentence_id): list(r.fixations)
                           for r in corpus.records}}


def inputs_record(cfg: dict, state: dict) -> dict:
    stats = inputs.corpus_stats(state["corpus"], cfg["max_len"])
    stats["vocab"] = len(build_vocab(state["corpus"].sentences.values()).tokens)
    return stats


# ---------------------------------------------------------------------------
# one round of CLI commands

def _train(checks, clock, log, state, cfg, seed, out: Path) -> dict:
    f = state["files"]
    argv = ["train", "--corpus", str(f["corpus"]), "--sentences", str(f["sentences"]),
            "--vocab", str(f["vocab"]), "--out-dir", str(out), "--seed", str(seed)]
    for key in ("t_max", "hidden_dim", "d_bert", "blocks", "heads", "max_len",
                "steps", "batch", "lr"):
        argv += ["--" + key.replace("_", "-"), str(cfg[key])]
    wall, _ = run_cli(checks, clock, argv)
    count_warnings(log, checks, len(state["corpus"].records), "scanpath_diffusion.corpus",
                   "dropping", "record dropped by filter_encodable")
    return {"train_s": wall,
            "train_frames_per_s": cfg["steps"] * cfg["batch"] / wall,
            "train_loss_end": check_training(checks, out, cfg["steps"])}


def _evaluate(checks, clock, state, pred: Path, out: Path, seed: int,
              word_export: bool) -> dict:
    f = state["files"]
    argv = ["evaluate", "--true", str(f["corpus"]), "--pred", str(pred),
            "--sentences", str(f["sentences"]), "--out-dir", str(out / "report")]
    if word_export:
        argv += ["--word-export", str(out / "words.csv")]
    wall, _ = run_cli(checks, clock, argv)
    rows = check_report(checks, out / "report", state["true_paths"], pred, seed)
    if word_export:
        n_words = sum(len(state["corpus"].sentences[r.sentence_id])
                      for r in state["corpus"].records)
        got = len(read_rows(out / "words.csv"))
        checks.expect(got == n_words, f"word export has {got} rows, expected {n_words}")
    nlds = [float(r["nld"]) for r in rows]
    return {"eval_s": wall, "eval_pairs_per_s": len(state["true_paths"]) / wall,
            "mean_nld": statistics.fmean(nlds) if nlds else math.nan}


def run_round(name: str, cfg: dict, seed: int, state: dict, out: Path, checks: Checks,
              log: WarningLog, workers: int) -> dict:
    """Run the workload's commands once; returns stage times, outputs and the
    commands' time intervals."""
    out.mkdir(parents=True)
    f = state["files"]
    clock = speed.Clock()
    res: dict = {}
    if name in ("desk-fit", "paper-train"):
        res.update(_train(checks, clock, log, state, cfg, seed, out / "run"))
    if name == "desk-fit":
        pred = out / "pred.csv"
        wall, _ = run_cli(checks, clock, [
            "generate", "--checkpoint", str(out / "run" / "checkpoint.bin"),
            "--sentences", str(f["sentences"]), "--vocab", str(f["vocab"]),
            "--out", str(pred), "--seed", str(seed), "--workers", str(workers)])
        sentences = state["corpus"].sentences
        count_warnings(log, checks, len(sentences), "scanpath_diffusion.inference",
                       "generation produced an empty scanpath", "empty-scanpath fallback")
        check_predictions(checks, pred, sentences)
        res["gen_s"] = wall
        res["gen_sentences_per_s"] = len(sentences) / wall
        ev = _evaluate(checks, clock, state, pred, out, seed, word_export=False)
        res["gen_nld"] = ev.pop("mean_nld")
        res.update(ev)
    if name == "eval-corpus":
        pred = out / "trainlabel.csv"
        run_cli(checks, clock, ["baseline", "trainlabel", "--corpus", str(f["corpus"]),
                                "--sentences", str(f["sentences"]), "--seed", str(seed),
                                "--out", str(pred)])
        check_predictions(checks, pred, state["corpus"].sentences)
        ev = _evaluate(checks, clock, state, pred, out, seed, word_export=True)
        res["trainlabel_nld"] = ev.pop("mean_nld")
        res.update(ev)
        records = state["corpus"].records
        wall, text = run_cli(checks, clock, ["baseline", "human",
                                             "--corpus", str(f["corpus"]),
                                             "--sentences", str(f["sentences"])])
        checks.expect(f"over {len(records)} scanpaths" in text,
                      "human baseline did not score every scanpath")
        per_sentence: dict[str, int] = {}
        for r in records:
            per_sentence[r.sentence_id] = per_sentence.get(r.sentence_id, 0) + 1
        pairs = sum(n * (n - 1) for n in per_sentence.values())
        res["human_s"] = wall
        res["human_pairs_per_s"] = pairs / wall
        res["human_baseline"] = text.strip()
    res["flow_wall_s"] = clock.wall_s
    res["intervals"] = clock.intervals
    return res


# result keys that depend only on the inputs, so rounds must agree on them
DETERMINISTIC = ("train_loss_end", "gen_nld", "trainlabel_nld", "human_baseline")
