"""Spans around the package's public functions, recorded from outside it.

`Tracer.install` wraps each target and rebinds the wrapper under every name
the package holds for the original, so a call through `reports.levenshtein`,
`inference.posterior_params`, `model.build_schedule` or `dn.forward` is
recorded just like a call through the defining module. Spans live in
memory as parallel lists (name, start, end, parent, child time) and are
written once, at the end, as one compressed `.npz`.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from pathlib import Path

import numpy as np

PACKAGE = "scanpath_diffusion"

# span name -> (module, attribute path) of the wrapped callable; the first
# part of a span name is the module (layer) it belongs to
TARGETS = {
    "cli.train": ("cli", "_cmd_train"),
    "cli.generate": ("cli", "_cmd_generate"),
    "cli.evaluate": ("cli", "_cmd_evaluate"),
    "cli.baseline": ("cli", "_cmd_baseline"),
    "denoiser.forward": ("denoiser", "forward"),
    "denoiser.backward": ("denoiser", "backward"),
    "training.train": ("training", "train"),
    "training.loss_forward": ("training", "loss_forward"),
    "training.loss_backward": ("training", "loss_backward"),
    "training.clip_global_norm": ("training", "clip_global_norm"),
    "training.AdamW.step": ("training", "AdamW.step"),
    "schedules.TimestepSampler.sample": ("schedules", "TimestepSampler.sample"),
    "schedules.TimestepSampler.update": ("schedules", "TimestepSampler.update"),
    "schedules.build_schedule": ("schedules", "build_schedule"),
    "schedules.posterior_params": ("schedules", "posterior_params"),
    "encoding.stack_instances": ("encoding", "stack_instances"),
    "encoding.encode_instance": ("encoding", "encode_instance"),
    "embedding.embed_parts": ("embedding", "embed_parts"),
    "embedding.round_argmax": ("embedding", "round_argmax"),
    "inference.generate": ("inference", "generate"),
    "model.save_checkpoint": ("model", "save_checkpoint"),
    "model.load_checkpoint": ("model", "load_checkpoint"),
    "metrics.levenshtein": ("metrics", "levenshtein"),
    "metrics.nld": ("metrics", "nld"),
    "metrics.pearson": ("metrics", "pearson"),
    "measures.reading_measures": ("measures", "reading_measures"),
    "reports.evaluation_report": ("reports", "evaluation_report"),
    "reports.write_evaluation_report": ("reports", "write_evaluation_report"),
    "reports.export_word_measures": ("reports", "export_word_measures"),
    "baselines.human_baseline": ("baselines", "human_baseline"),
    "baselines.baseline_corpus": ("baselines", "baseline_corpus"),
    "corpus.load_corpus": ("corpus", "load_corpus"),
    "corpus.save_corpus": ("corpus", "save_corpus"),
    "corpus.filter_encodable": ("corpus", "filter_encodable"),
    "tokenization.tokenize_sentence": ("tokenization", "tokenize_sentence"),
}

# the denoiser forward is reported per caller: B=1 inside the reverse chain,
# batched (with cache, followed by backward) inside training
SPAN_NAMES = [n for n in TARGETS if n != "denoiser.forward"] + [
    "denoiser.forward.train", "denoiser.forward.gen"]

# span-name prefix -> (end-to-end or per-command metric it should move, on which
# workloads); every span also moves `flow_s` there
MAPS_TO = {
    "denoiser.forward.train": ("train_frames_per_s, peak_rss_mb", "paper-train, desk-fit"),
    "denoiser.backward": ("train_frames_per_s, peak_rss_mb", "paper-train, desk-fit"),
    "denoiser.forward.gen": ("gen_sentences_per_s", "desk-fit"),
    "training.": ("train_frames_per_s", "desk-fit, paper-train"),
    "schedules.TimestepSampler.": ("train_frames_per_s", "desk-fit"),
    "schedules.build_schedule": ("gen_sentences_per_s", "desk-fit"),
    "schedules.posterior_params": ("gen_sentences_per_s", "desk-fit"),
    "encoding.": ("train_frames_per_s", "paper-train, desk-fit"),
    "embedding.": ("train_frames_per_s, gen_sentences_per_s", "desk-fit"),
    "inference.": ("gen_sentences_per_s", "desk-fit"),
    "model.": ("train_frames_per_s, gen_sentences_per_s", "paper-train, desk-fit"),
    "metrics.": ("human_pairs_per_s, eval_pairs_per_s", "eval-corpus"),
    "measures.": ("eval_pairs_per_s", "eval-corpus"),
    "reports.": ("eval_pairs_per_s", "eval-corpus"),
    "baselines.": ("human_pairs_per_s", "eval-corpus"),
    "corpus.": ("the rate of the command it runs in", "all"),
    "tokenization.": ("the rate of the command it runs in", "all"),
    "cli.": ("flow_s (root spans)", "all"),
}

COUNTERS = {
    "encoding.padding_share": "ratio",
    "inference.denoiser_calls": "count",
    "model.checkpoint_bytes": "bytes",
    "metrics.levenshtein.cells": "count",
}


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.child_ns: list[int] = []
        self._stack: list[int] = []
        self.counts = {"pad_slots": 0, "frame_slots": 0, "gen_forwards": 0,
                       "ckpt_bytes": 0, "lev_cells": 0}

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.child_ns.append(0)
        self.name_of.append(nid)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()
        par = self.parent[idx]
        if par >= 0:
            self.child_ns[par] += self.end[idx] - self.start[idx]

    def in_span(self, name: str) -> bool:
        nid = self._name_ids.get(name)
        return nid is not None and any(self.name_of[i] == nid for i in self._stack)

    def _wrap(self, span: str, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = span
            if span == "denoiser.forward":
                name = "denoiser.forward.gen" if self.in_span("inference.generate") \
                    else "denoiser.forward.train"
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(name, args, kwargs, out)
            return out
        return wrapper

    def _observe(self, name, args, kwargs, out):
        c = self.counts
        if name == "encoding.stack_instances" and self.in_span("training.train"):
            c["pad_slots"] += int((~out.pad_mask).sum())
            c["frame_slots"] += int(out.pad_mask.size)
        elif name == "denoiser.forward.gen":
            c["gen_forwards"] += 1
        elif name == "model.save_checkpoint":
            path = args[1] if len(args) > 1 else kwargs["path"]
            c["ckpt_bytes"] += os.path.getsize(path)
        elif name == "metrics.levenshtein":
            c["lev_cells"] += len(args[0]) * len(args[1])

    # -- installation ----------------------------------------------------

    def install(self) -> list:
        """Wrap every target; returns the undo list for `uninstall`."""
        undo = []
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for span, (mod_name, attr) in TARGETS.items():
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(span, orig, self._observe))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(span, orig, self._observe)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        undo.append((m, name, orig))
                        setattr(m, name, wrapped)
        return undo

    @staticmethod
    def uninstall(undo) -> None:
        for owner, name, orig in reversed(undo):
            setattr(owner, name, orig)

    # -- results ---------------------------------------------------------

    def summary(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics, averaged per round of the workload."""
        name_of = np.asarray(self.name_of, dtype=np.int64)
        dur = np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)
        own = dur - np.asarray(self.child_ns, dtype=np.int64)
        out: dict[str, float] = {}
        for span in SPAN_NAMES:
            nid = self._name_ids.get(span)
            sel = name_of == nid if nid is not None else np.zeros(len(dur), dtype=bool)
            calls = int(sel.sum())
            out[f"{span}.calls"] = calls / rounds
            out[f"{span}.self_ms"] = float(own[sel].sum()) / 1e6 / rounds
            out[f"{span}.ms_p50"] = float(np.median(dur[sel])) / 1e6 if calls else 0.0
        c = self.counts
        out["encoding.padding_share"] = (c["pad_slots"] / c["frame_slots"]
                                         if c["frame_slots"] else 0.0)
        out["inference.denoiser_calls"] = c["gen_forwards"] / rounds
        out["model.checkpoint_bytes"] = c["ckpt_bytes"] / rounds
        out["metrics.levenshtein.cells"] = c["lev_cells"] / rounds
        return out

    def write(self, path: Path) -> None:
        """All spans as columns: name id, start and end (ns), parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.asarray(self.names),
            name=np.asarray(self.name_of, dtype=np.int32),
            start_ns=np.asarray(self.start, dtype=np.int64),
            end_ns=np.asarray(self.end, dtype=np.int64),
            parent=np.asarray(self.parent, dtype=np.int32),
        )
