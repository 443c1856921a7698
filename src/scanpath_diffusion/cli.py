"""Command-line front end.

Subcommands: prepare, train, generate, evaluate, baseline, schedule-dump,
trace. Every subcommand accepts --config (flat key=value file) plus flag
overrides; flags win. Exit codes: 0 success, 1 bad input or usage, 2
runtime failure.

train and generate run their jobs, training shards and generation chunks,
through the one forked runner (`workers.Forked`): `generate --workers N`
samples its chunks on N processes, this one counted, and the N - 1 forked
ones inherit the loaded model and vocabulary rather than read them again.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
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
from .inference import dump_latent_trace, fitting_sentences, generate, sentence_rng
from .model import at_checkpoint_precision, init_model, load_checkpoint
from .reports import (evaluation_report, export_word_measures, record_measures,
                      write_evaluation_report)
from .schedules import KINDS, build_schedule, dump_schedule
from .splits import MODES, load_split_plan, make_splits, save_split_plan
from .tokenization import Vocabulary
from .training import LOOP_SETTINGS, check_train_settings, train as run_training
from .workers import Forked


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
    kept, _ = filter_encodable(corpus, vocab, st["max_len"])
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
    kept, toks = filter_encodable(corpus, vocab, st["max_len"])
    instances = [encode_instance(toks[rec.sentence_id], rec.fixations, st["max_len"], vocab)
                 for rec in kept.records]
    if not instances:
        raise ValidationError("no encodable training scanpaths")

    e_bert = load_table(args.frozen_table) if args.frozen_table else None
    if e_bert is not None and args.d_bert is None:  # init_model rejects a --d-bert unlike it
        st["d_bert"] = e_bert.shape[1]
    config = ModelConfig.from_settings(st, v_bert=len(vocab))
    rng = np.random.default_rng(st["seed"])
    model = at_checkpoint_precision(init_model(config, rng, e_bert=e_bert))

    loop = {key: st[key] for key in LOOP_SETTINGS}
    check_train_settings(**loop)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_kv_file(st, out_dir / "config.txt")
    result = run_training(
        model, instances, seed=st["seed"], **loop,
        metrics_path=out_dir / "metrics.csv",
        ckpt_path=out_dir / "checkpoint.bin",
        log_every=max(1, st["steps"] // 20) if st["steps"] else 0,
    )
    if result.aborted:
        print("training aborted on non-finite loss; last good checkpoint retained",
              file=sys.stderr)
        return 2
    print(f"trained {len(result.rows)} steps on {len(instances)} scanpaths; "
          f"artifacts in {out_dir}")
    return 0


# sentences per lockstep chain, cut from the sentence order alone, never
# from --workers: by 8 a chain has shed most of its per-call cost, and at
# the paper size it adds about 9 MB of memory (16: 72 MB; README,
# "Performance")
GENERATE_CHUNK = 8


def _generate_chunk(state, jobs):
    """The results of a chunk of (index, tokenized sentence) jobs, sampled
    in one lockstep chain from state, a run's (model, vocab, seed,
    mean_only)."""
    model, vocab, seed, mean_only = state
    return generate(model, [tok for _, tok in jobs], vocab,
                    rngs=[sentence_rng(seed, index) for index, _ in jobs],
                    mean_only=mean_only)


def _cmd_generate(args) -> int:
    st = _settings(args)
    if st["workers"] < 1:
        raise ValidationError(f"workers must be >= 1, got {st['workers']}")
    model, vocab = load_checkpoint(args.checkpoint), Vocabulary.from_file(args.vocab)
    sentences = load_sentences(args.sentences)
    usable = fitting_sentences(sentences, vocab, model.config.max_len)
    if not usable:
        raise ValidationError(
            f"no sentence fits the model frame of {model.config.max_len} slots")

    jobs = list(enumerate(usable.values()))
    chunks = [jobs[lo:lo + GENERATE_CHUNK] for lo in range(0, len(jobs), GENERATE_CHUNK)]
    # this process counts among the workers, and a worker without a chunk
    # is not started; the forked ones inherit the loaded model
    with Forked(_generate_chunk, (model, vocab, st["seed"], st["mean_only"]),
                min(st["workers"], len(chunks)), "generation chunk") as runner:
        per_chunk = runner.map([(chunk,) for chunk in chunks])
    results = [res for chunk in per_chunk for res in chunk]

    out = Corpus(
        sentences={sid: sentences[sid] for sid in usable},
        records=[ScanpathRecord("model", sid, tuple(res.fixations))
                 for sid, res in zip(usable, results)],
    )
    save_corpus(out, args.out)
    print(f"wrote {len(out.records)} scanpaths to {args.out} "
          f"({sum(res.clamped for res in results)} out-of-range indices clamped, "
          f"{sum(not res.ended for res in results)} without an end marker)")
    return 0


def _cmd_evaluate(args) -> int:
    _settings(args)  # validate --config if given
    if args.predictors and not args.word_export:
        raise ValidationError("--predictors needs --word-export")
    sentences_true = load_corpus(args.true, args.sentences)
    sentences_pred = load_corpus(args.pred, args.sentences)
    predictors = (load_predictors(args.predictors, sentences_true.sentences)
                  if args.predictors else None)
    measures = record_measures(sentences_true)  # for the report and the export
    report = evaluation_report(sentences_true, sentences_pred, measures)
    print(f"mean NLD {report.mean_nld:.6f} over {len(report.nld_rows)} scanpaths")
    if args.out_dir:
        files = write_evaluation_report(report, args.out_dir)
        for name, path in files.items():
            print(f"{name}: {path}")
    if args.word_export:
        export_word_measures(sentences_true, args.word_export, predictors, measures)
        print(f"word measures: {args.word_export}")
    return 0


def _cmd_baseline(args) -> int:
    # the human baseline draws nothing, so a seed flag would be silently ignored
    # (a --config file may still set seed: one file serves every command)
    if args.kind == "human" and (args.out or args.target_sentences or args.seed is not None):
        raise ValidationError("the human baseline takes no --out, --target-sentences "
                              "or --seed")
    st = _settings(args)
    if args.kind != "human" and not args.out:
        raise ValidationError("--out is required for uniform/trainlabel baselines")
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
    usable = fitting_sentences(sentences, vocab, model.config.max_len)
    if args.sentence_id not in usable:
        raise ValidationError(f"sentence {args.sentence_id}: does not fit the model frame")
    rng = sentence_rng(st["seed"], list(usable).index(args.sentence_id))
    res = dump_latent_trace(model, usable[args.sentence_id], vocab, args.out, rng=rng,
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


@functools.cache
def _parser() -> _Parser:
    """build_parser's parser, built once per process: it depends on no
    argument, and each parse_args call fills a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    # progress (train's step lines) is INFO from the package; stdout keeps
    # only each command's result lines
    logging.getLogger(__package__).setLevel(logging.INFO)
    try:
        args = _parser().parse_args(argv)
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
