"""Command-line front end.

Subcommands: prepare, train, generate, evaluate, baseline, schedule-dump,
trace. Every subcommand accepts --config (flat key=value file) plus flag
overrides; flags win. Exit codes: 0 success, 1 bad input or usage, 2
runtime failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .baselines import TrainStats, baseline_corpus, human_baseline
from .config import (SCHEMA, ModelConfig, parse_kv_file, resolve_settings,
                     write_kv_file)
from .corpus import (Corpus, ScanpathRecord, filter_encodable, load_corpus,
                     load_predictors, load_sentences, save_corpus)
from .embedding import load_table
from .encoding import encode_instance
from .errors import ValidationError
from .inference import dump_latent_trace, fitting_sentence_ids, generate, sentence_rng
from .model import at_checkpoint_precision, init_model, load_checkpoint
from .reports import evaluation_report, export_word_measures, write_evaluation_report
from .schedules import KINDS, build_schedule, dump_schedule
from .splits import MODES, load_split_plan, make_splits, save_split_plan
from .tokenization import Vocabulary, tokenize_sentence
from .training import check_train_settings, train as run_training

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, per the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_config_flags(p: _Parser, keys) -> None:
    p.add_argument("--config", help="flat key=value config file")
    p.set_defaults(config_keys=tuple(keys))
    choices = {"schedule": KINDS, "split_mode": MODES}
    for key in keys:
        parse, default = SCHEMA[key]
        flag = "--" + key.replace("_", "-")
        if isinstance(default, bool):
            p.add_argument(flag, dest=key, default=None, action="store_const", const=True)
        else:
            p.add_argument(flag, dest=key, default=None, type=parse,
                           choices=choices.get(key))


def _settings(args) -> dict:
    file_values = parse_kv_file(args.config) if args.config else None
    overrides = {key: getattr(args, key) for key in args.config_keys}
    return resolve_settings(file_values, overrides)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_prepare(args) -> int:
    st = _settings(args)
    vocab = Vocabulary.from_file(args.vocab)
    corpus = load_corpus(args.corpus, args.sentences)
    n_sent, n_rec = len(corpus.sentences), len(corpus.records)
    kept = filter_encodable(corpus, vocab, st["max_len"])
    plan = make_splits(kept, st["split_mode"], st["folds"], st["seed"])
    save_split_plan(plan, args.out)
    print(f"sentences kept {len(kept.sentences)}/{n_sent}, "
          f"scanpaths kept {len(kept.records)}/{n_rec}")
    for i, fold in enumerate(plan.folds):
        print(f"fold {i}: train {len(fold.train)}, test {len(fold.test)}")
    print(f"split plan written to {args.out}")
    return 0


def _cmd_train(args) -> int:
    st = _settings(args)
    if args.fold is not None and not args.split:
        raise ValidationError("--fold needs --split")
    vocab = Vocabulary.from_file(args.vocab)
    corpus = load_corpus(args.corpus, args.sentences)
    if args.split:
        plan = load_split_plan(args.split)
        fold = args.fold or 0
        if not 0 <= fold < plan.n_folds:
            raise ValidationError(f"fold {fold} outside 0..{plan.n_folds - 1}")
        corpus = corpus.subset(plan.folds[fold].train)
    kept = filter_encodable(corpus, vocab, st["max_len"])
    toks = {sid: tokenize_sentence(words, vocab) for sid, words in kept.sentences.items()}
    instances = [encode_instance(toks[rec.sentence_id], rec.fixations, st["max_len"], vocab)
                 for rec in kept.records]
    if not instances:
        raise ValidationError("no encodable training scanpaths")

    e_bert = None
    if args.frozen_table:
        e_bert = load_table(args.frozen_table)
        st["d_bert"] = e_bert.shape[1]
    config = ModelConfig.from_settings(st, v_bert=len(vocab))
    rng = np.random.default_rng(st["seed"])
    model = at_checkpoint_precision(init_model(config, rng, e_bert=e_bert))

    check_train_settings(steps=st["steps"], batch=st["batch"], lr=st["lr"],
                         weight_decay=st["weight_decay"], clip_norm=st["clip_norm"],
                         sampler_history=st["sampler_history"],
                         ckpt_interval=st["ckpt_interval"])
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_kv_file(st, out_dir / "config.txt")
    result = run_training(
        model, instances,
        steps=st["steps"], batch=st["batch"], lr=st["lr"], seed=st["seed"],
        weight_decay=st["weight_decay"], clip_norm=st["clip_norm"],
        sampler_history=st["sampler_history"],
        metrics_path=out_dir / "metrics.csv",
        ckpt_path=out_dir / "checkpoint.bin",
        ckpt_interval=st["ckpt_interval"],
        log_every=max(1, st["steps"] // 20) if st["steps"] else 0,
    )
    if result.aborted:
        print("training aborted on non-finite loss; last good checkpoint retained",
              file=sys.stderr)
        return 2
    print(f"trained {result.steps_done} steps on {len(instances)} scanpaths; "
          f"artifacts in {out_dir}")
    return 0


# (model, vocab, seed, mean_only) of this process's latest generate run: set
# once per run in the CLI process and once in every pool worker
_generation = None


def _start_generation(checkpoint, vocab_path, seed, mean_only):
    global _generation
    _generation = (load_checkpoint(checkpoint), Vocabulary.from_file(vocab_path),
                   seed, mean_only)
    return _generation


def _generate_sentence(job):
    """(fixations, clamped) for one (index, words) job of the current run."""
    index, words = job
    model, vocab, seed, mean_only = _generation
    res = generate(model, tokenize_sentence(words, vocab), vocab,
                   rng=sentence_rng(seed, index), mean_only=mean_only)
    return res.fixations, res.clamped


def _cmd_generate(args) -> int:
    st = _settings(args)
    if st["workers"] < 1:
        raise ValidationError(f"workers must be >= 1, got {st['workers']}")
    setup = (args.checkpoint, args.vocab, st["seed"], st["mean_only"])
    model, vocab, _, _ = _start_generation(*setup)
    sentences = load_sentences(args.sentences)
    usable = fitting_sentence_ids(sentences, vocab, model.config.max_len)
    for sid in sorted(set(sentences) - set(usable)):
        log.warning("skipping sentence %s: does not fit the model frame", sid)

    jobs = [(i, sentences[sid]) for i, sid in enumerate(usable)]
    if st["workers"] > 1:
        with ProcessPoolExecutor(max_workers=st["workers"],
                                 initializer=_start_generation,
                                 initargs=setup) as pool:
            outputs = list(pool.map(_generate_sentence, jobs))
    else:
        outputs = list(map(_generate_sentence, jobs))

    out = Corpus(
        sentences={sid: sentences[sid] for sid in usable},
        records=[ScanpathRecord("model", sid, tuple(fixations))
                 for sid, (fixations, _) in zip(usable, outputs)],
    )
    save_corpus(out, args.out)
    print(f"wrote {len(out.records)} scanpaths to {args.out} "
          f"({sum(clamped for _, clamped in outputs)} out-of-range indices clamped)")
    return 0


def _cmd_evaluate(args) -> int:
    _settings(args)  # validate --config if given
    sentences_true = load_corpus(args.true, args.sentences)
    sentences_pred = load_corpus(args.pred, args.sentences)
    predictors = (load_predictors(args.predictors, sentences_true.sentences)
                  if args.predictors else None)
    report = evaluation_report(sentences_true, sentences_pred)
    print(f"mean NLD {report.mean_nld:.6f} over {len(report.nld_rows)} scanpaths")
    if args.out_dir:
        files = write_evaluation_report(report, args.out_dir)
        for name, path in files.items():
            print(f"{name}: {path}")
    if args.word_export:
        export_word_measures(sentences_true, args.word_export, predictors)
        print(f"word measures: {args.word_export}")
    return 0


def _cmd_baseline(args) -> int:
    st = _settings(args)
    corpus = load_corpus(args.corpus, args.sentences)
    if args.kind == "human":
        hb = human_baseline(corpus)
        print(f"inter-reader mean NLD {hb.mean:.6f} +- {hb.se:.6f} "
              f"over {hb.count} scanpaths")
        return 0
    stats = TrainStats.from_corpus(corpus)
    targets = load_sentences(args.target_sentences) if args.target_sentences \
        else corpus.sentences
    rng = np.random.default_rng(st["seed"])
    out = baseline_corpus(args.kind, targets, stats, rng)
    if not args.out:
        raise ValidationError("--out is required for uniform/trainlabel baselines")
    save_corpus(out, args.out)
    print(f"wrote {len(out.records)} {args.kind} scanpaths to {args.out}")
    return 0


def _cmd_schedule_dump(args) -> int:
    st = _settings(args)
    kind = args.kind if args.kind else st["schedule"]
    sched = build_schedule(kind, st["t_max"], st["s"])
    dump_schedule(sched, args.out or sys.stdout)
    if args.out:
        print(f"wrote schedule to {args.out}")
    return 0


def _cmd_trace(args) -> int:
    st = _settings(args)
    model = load_checkpoint(args.checkpoint)
    vocab = Vocabulary.from_file(args.vocab)
    sentences = load_sentences(args.sentences)
    if args.sentence_id not in sentences:
        raise ValidationError(f"unknown sentence_id {args.sentence_id!r}")
    usable = fitting_sentence_ids(sentences, vocab, model.config.max_len)
    if args.sentence_id not in usable:
        raise ValidationError(f"sentence {args.sentence_id}: does not fit the model frame")
    tok = tokenize_sentence(sentences[args.sentence_id], vocab)
    rng = sentence_rng(st["seed"], usable.index(args.sentence_id))
    res = dump_latent_trace(model, tok, vocab, args.out, rng=rng,
                            stride=st["trace_stride"], mean_only=st["mean_only"])
    print(f"trace written to {args.out}; decoded scanpath {res.fixations}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="scanpath-diffusion",
                     description="Diffusion-based scanpath generation and evaluation")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("prepare", help="validate corpora and write a split plan")
    _add_config_flags(p, ("seed", "max_len", "split_mode", "folds"))
    p.add_argument("--corpus", required=True)
    p.add_argument("--sentences", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True, help="split plan JSON path")
    p.set_defaults(func=_cmd_prepare)

    p = sub.add_parser("train", help="train a model")
    _add_config_flags(p, ("seed", "t_max", "schedule", "s", "hidden_dim", "d_bert",
                          "blocks", "heads", "max_len", "steps", "batch", "lr"))
    p.add_argument("--corpus", required=True)
    p.add_argument("--sentences", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--frozen-table", help="frozen context-table file")
    p.add_argument("--split", help="split plan JSON (train on one fold)")
    p.add_argument("--fold", type=int, help="fold of --split to train on (default 0)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("generate", help="sample scanpaths for sentences")
    _add_config_flags(p, ("seed", "workers", "mean_only"))
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sentences", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True, help="predictions CSV path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("evaluate", help="score predictions against human data")
    _add_config_flags(p, ())
    p.add_argument("--true", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--sentences", required=True)
    p.add_argument("--out-dir", help="directory for report CSVs")
    p.add_argument("--word-export", help="per-word measure CSV path")
    p.add_argument("--predictors", help="predictor file to join into the word export")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("baseline", help="trivial baselines and inter-reader score")
    p.add_argument("kind", choices=("uniform", "trainlabel", "human"))
    _add_config_flags(p, ("seed",))
    p.add_argument("--corpus", required=True, help="source of empirical statistics")
    p.add_argument("--sentences", required=True)
    p.add_argument("--target-sentences", help="sentences to generate for (default: --sentences)")
    p.add_argument("--out", help="predictions CSV path (uniform/trainlabel)")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("schedule-dump", help="emit t,beta,alpha,alpha_bar CSV")
    _add_config_flags(p, ("t_max", "s"))
    p.add_argument("--kind", choices=list(KINDS))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_schedule_dump)

    p = sub.add_parser("trace", help="dump latent snapshots during one generation")
    _add_config_flags(p, ("seed", "trace_stride", "mean_only"))
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sentences", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--sentence-id", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_trace)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    # progress (train's step lines) is INFO from the package; stdout keeps
    # only each command's result lines
    logging.getLogger(__package__).setLevel(logging.INFO)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValidationError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
