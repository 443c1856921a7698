"""Every subcommand end to end through main(), plus exit-code contracts."""

import csv
import json
import logging
import multiprocessing
import os
import re
import subprocess
import sys
import threading
from collections.abc import Iterator
from pathlib import Path

import numpy as np
import pytest

from scanpath_diffusion import (Corpus, ScanpathRecord, Vocabulary,
                                build_vocab, fitting_sentences, generate,
                                load_checkpoint, load_corpus, load_sentences,
                                save_checkpoint, save_corpus, save_sentences,
                                reading_measures_many, save_table, sentence_rng,
                                synthetic_corpus, tokenize_sentence)
import scanpath_diffusion
from scanpath_diffusion import cli as cli_mod
from scanpath_diffusion import training
from scanpath_diffusion import workers as workers_mod
from scanpath_diffusion.cli import main

from conftest import within


def write_vocab(vocab, path):
    path.write_text("".join(tok + "\n" for tok in vocab.tokens))


def count_calls(monkeypatch, fn):
    """A list that gets the positional arguments of each call of the package
    function `fn` (an iterator argument read into a list), under every name
    the package's modules bind it to."""
    calls = []

    def counted(*args, **kwargs):
        args = [list(a) if isinstance(a, Iterator) else a for a in args]
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "scanpath_diffusion":
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def make_world(root):
    corpus = synthetic_corpus(n_sentences=4, min_words=3, max_words=5, seed=11)
    vocab = build_vocab(corpus.sentences.values())
    paths = {"sentences": root / "sentences.csv",
             "corpus": root / "corpus.csv",
             "vocab": root / "vocab.txt"}
    save_sentences(corpus.sentences, paths["sentences"])
    save_corpus(corpus, paths["corpus"])
    write_vocab(vocab, paths["vocab"])
    return corpus, vocab, paths


TRAIN_FLAGS = ["--t-max", "6", "--hidden-dim", "8", "--d-bert", "8",
               "--blocks", "1", "--heads", "2", "--max-len", "20",
               "--steps", "2", "--batch", "4", "--lr", "1e-3", "--seed", "5"]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny trained run shared by the generation-side tests."""
    root = tmp_path_factory.mktemp("cli_world")
    corpus, vocab, paths = make_world(root)
    out_dir = root / "run"
    rc = main(["train",
               "--corpus", str(paths["corpus"]),
               "--sentences", str(paths["sentences"]),
               "--vocab", str(paths["vocab"]),
               "--out-dir", str(out_dir), *TRAIN_FLAGS])
    assert rc == 0
    return {"corpus": corpus, "vocab": vocab, "paths": paths,
            "out_dir": out_dir, "ckpt": out_dir / "checkpoint.bin"}


# ---------------------------------------------------------------------------
# schedule-dump

def test_schedule_dump_stdout(capsys):
    assert main(["schedule-dump", "--kind", "linear", "--t-max", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,beta,alpha,alpha_bar"
    assert len(lines) == 5
    assert float(lines[1].split(",")[1]) == 1e-4
    assert float(lines[4].split(",")[1]) == 0.02


def test_schedule_dump_to_file(tmp_path, capsys):
    out = tmp_path / "sched.csv"
    assert main(["schedule-dump", "--kind", "sqrt", "--t-max", "6",
                 "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 7
    assert str(out) in capsys.readouterr().out


def test_schedule_dump_flags_beat_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_max = 8\nschedule = cosine\n")
    assert main(["schedule-dump", "--config", str(cfg)]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 9

    assert main(["schedule-dump", "--config", str(cfg), "--t-max", "3",
                 "--kind", "linear"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert float(lines[1].split(",")[1]) == 1e-4  # linear, not cosine


# ---------------------------------------------------------------------------
# prepare / train

def test_prepare_writes_split_plan(tmp_path, capsys):
    _, _, paths = make_world(tmp_path)
    out = tmp_path / "plan.json"
    rc = main(["prepare", "--corpus", str(paths["corpus"]),
               "--sentences", str(paths["sentences"]),
               "--vocab", str(paths["vocab"]),
               "--out", str(out),
               "--split-mode", "new_sentence", "--folds", "2",
               "--max-len", "20"])
    assert rc == 0
    assert out.exists()
    text = capsys.readouterr().out
    assert "fold 0:" in text and "fold 1:" in text


def test_train_artifacts(trained):
    out_dir = trained["out_dir"]
    assert (out_dir / "checkpoint.bin").exists()
    assert (out_dir / "config.txt").exists()
    metrics = (out_dir / "metrics.csv").read_text().strip().splitlines()
    assert len(metrics) == 3  # header + 2 steps
    cfg = (out_dir / "config.txt").read_text()
    assert "t_max = 6" in cfg and "hidden_dim = 8" in cfg


def test_train_rejects_frozen_table_of_wrong_vocab_size(tmp_path, capsys):
    _, vocab, paths = make_world(tmp_path)
    table = tmp_path / "table.bin"
    save_table(np.ones((len(vocab) + 1, 8)), table)
    rc = main(["train", "--corpus", str(paths["corpus"]),
               "--sentences", str(paths["sentences"]),
               "--vocab", str(paths["vocab"]), "--frozen-table", str(table),
               "--out-dir", str(tmp_path / "run"), *TRAIN_FLAGS])
    assert rc == 1
    assert "frozen table" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def frozen_table_train(tmp_path, width, flags):
    """Train with a frozen table of the given width and TRAIN_FLAGS without
    its --d-bert, plus flags; returns the exit code and the run directory."""
    _, vocab, paths = make_world(tmp_path)
    save_table(np.ones((len(vocab), width)), tmp_path / "table.bin")
    i = TRAIN_FLAGS.index("--d-bert")
    rc = main(["train", "--corpus", str(paths["corpus"]),
               "--sentences", str(paths["sentences"]),
               "--vocab", str(paths["vocab"]), "--frozen-table", str(tmp_path / "table.bin"),
               "--out-dir", str(tmp_path / "run"),
               *TRAIN_FLAGS[:i], *TRAIN_FLAGS[i + 2:], *flags])
    return rc, tmp_path / "run"


def test_train_takes_d_bert_from_the_frozen_table(tmp_path):
    rc, run = frozen_table_train(tmp_path, 16, [])
    assert rc == 0
    assert "d_bert = 16" in (run / "config.txt").read_text().splitlines()
    assert load_checkpoint(run / "checkpoint.bin").config.d_bert == 16


def test_train_rejects_d_bert_other_than_the_frozen_table(tmp_path, capsys):
    rc, run = frozen_table_train(tmp_path, 16, ["--d-bert", "768"])
    assert rc == 1
    err = capsys.readouterr().err
    assert re.search(r"frozen table shape \(\d+, 16\) does not match the config's "
                     r"\(v_bert, d_bert\) = \(\d+, 768\)", err), err
    assert not run.exists()



def test_train_with_a_nan_weight_aborts(tmp_path, capsys):
    """A NaN in the float32 model runs through every layer, the GELU's CDF
    table included, without a warning, and ends in the non-finite abort."""
    _, vocab, paths = make_world(tmp_path)
    table = np.ones((len(vocab), 8))
    table[:, 3] = np.nan
    save_table(table, tmp_path / "table.bin")
    rc = main(["train", "--corpus", str(paths["corpus"]),
               "--sentences", str(paths["sentences"]),
               "--vocab", str(paths["vocab"]), "--frozen-table", str(tmp_path / "table.bin"),
               "--out-dir", str(tmp_path / "run"), *TRAIN_FLAGS])
    assert rc == 2
    assert "training aborted on non-finite loss" in capsys.readouterr().err

@pytest.mark.parametrize("line, flags, message", [
    ("beta_zero = -0.1", [], "beta_zero must be >= 0"),
    ("beta_zero = nan", [], "beta_zero must be >= 0"),
    ("schedule = bogus", [], "unknown schedule kind 'bogus'"),
    ("t_max = 0", [], "t_max must be >= 1"),
    ("s = -5", [], "s must be in [0, 1)"),
    ("", ["--lr", "0"], "learning rate must be > 0"),
    ("", ["--batch", "0"], "bad steps/batch: 2/0"),
    ("", ["--steps", "-1"], "bad steps/batch: -1/4"),
    ("weight_decay = -1", [], "weight_decay and clip_norm must be >= 0"),
    ("clip_norm = -1", [], "weight_decay and clip_norm must be >= 0"),
    ("sampler_history = 0", [], "sampler_history must be >= 1"),
    ("sampler_history = -1", [], "sampler_history must be >= 1"),
    ("ckpt_interval = -2", [], "ckpt_interval must be >= 0"),
    ("", ["--hidden-dim", "0"], "dim must be >= 1, got 0"),
    ("", ["--d-bert", "0"], "d_bert must be >= 1, got 0"),
    ("", ["--heads", "-2"], "n_heads must be >= 1, got -2"),
    ("", ["--heads", "0"], "n_heads must be >= 1, got 0"),
    ("", ["--lr", "nan"], "learning rate must be > 0 and finite, got nan"),
    ("", ["--lr", "inf"], "learning rate must be > 0 and finite, got inf"),
    ("weight_decay = inf", [], "weight_decay and clip_norm must be >= 0"),
    ("clip_norm = nan", [], "weight_decay and clip_norm must be >= 0"),
], ids=["beta_zero=-0.1", "beta_zero=nan", "schedule=bogus", "t_max=0", "s=-5",
        "lr=0", "batch=0", "steps=-1", "weight_decay=-1", "clip_norm=-1",
        "sampler_history=0", "sampler_history=-1", "ckpt_interval=-2",
        "hidden_dim=0", "d_bert=0", "heads=-2", "heads=0", "lr=nan", "lr=inf",
        "weight_decay=inf", "clip_norm=nan"])
def test_train_rejects_bad_model_config_before_writing(tmp_path, capsys, line, flags,
                                                        message):
    """--config values skip argparse's checks, and argparse checks no ranges;
    a bad model config or training setting is still rejected before train
    writes any file."""
    _, _, paths = make_world(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out_dir = tmp_path / "run"
    # flags win over the file, so drop TRAIN_FLAGS' leading --t-max for that
    # case; argparse keeps the last value, so `flags` override TRAIN_FLAGS
    train_flags = TRAIN_FLAGS[2:] if line.startswith("t_max") else TRAIN_FLAGS
    rc = main(["train", "--config", str(cfg), "--corpus", str(paths["corpus"]),
               "--sentences", str(paths["sentences"]),
               "--vocab", str(paths["vocab"]), "--out-dir", str(out_dir),
               *train_flags, *flags])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (out_dir / "config.txt").exists()
    assert not (out_dir / "metrics.csv").exists()


def test_train_on_split_fold(tmp_path, capsys):
    _, _, paths = make_world(tmp_path)
    plan = tmp_path / "plan.json"
    assert main(["prepare", "--corpus", str(paths["corpus"]),
                 "--sentences", str(paths["sentences"]),
                 "--vocab", str(paths["vocab"]), "--out", str(plan),
                 "--split-mode", "new_sentence", "--folds", "2",
                 "--max-len", "20"]) == 0
    base = ["train", "--corpus", str(paths["corpus"]),
            "--sentences", str(paths["sentences"]),
            "--vocab", str(paths["vocab"]), "--split", str(plan)]
    assert main(base + ["--fold", "0", "--out-dir", str(tmp_path / "f0"),
                        *TRAIN_FLAGS]) == 0
    capsys.readouterr()
    assert main(base + ["--fold", "7", "--out-dir", str(tmp_path / "f7"),
                        *TRAIN_FLAGS]) == 1
    assert "fold 7" in capsys.readouterr().err


def test_train_rejects_fold_without_split_before_writing(tmp_path, capsys):
    _, _, paths = make_world(tmp_path)
    out_dir = tmp_path / "run"
    assert main(["train", "--corpus", str(paths["corpus"]),
                 "--sentences", str(paths["sentences"]),
                 "--vocab", str(paths["vocab"]), "--fold", "3",
                 "--out-dir", str(out_dir), *TRAIN_FLAGS]) == 1
    assert "--fold needs --split" in capsys.readouterr().err
    assert not out_dir.exists()


def test_train_rejects_split_plan_whose_fold_count_disagrees(tmp_path, capsys):
    _, _, paths = make_world(tmp_path)
    plan = tmp_path / "bad.json"
    assert main(["prepare", "--corpus", str(paths["corpus"]),
                 "--sentences", str(paths["sentences"]),
                 "--vocab", str(paths["vocab"]), "--out", str(plan),
                 "--folds", "2", "--max-len", "20"]) == 0
    plan.write_text(plan.read_text().replace('"n_folds": 2', '"n_folds": 3'))
    capsys.readouterr()
    out_dir = tmp_path / "run"
    assert main(["train", "--corpus", str(paths["corpus"]),
                 "--sentences", str(paths["sentences"]),
                 "--vocab", str(paths["vocab"]), "--split", str(plan), "--fold", "2",
                 "--out-dir", str(out_dir), *TRAIN_FLAGS]) == 1
    err = capsys.readouterr().err
    assert str(plan) in err and "n_folds is 3 but it holds 2 folds" in err
    assert not out_dir.exists()



def test_train_progress_goes_to_stderr_through_logging(tmp_path):
    """stdout holds only train's result line; the step lines are INFO
    records of scanpath_diffusion.training, which main shows on stderr."""
    _, _, paths = make_world(tmp_path)
    src = Path(scanpath_diffusion.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "scanpath_diffusion.cli", "train",
         "--corpus", str(paths["corpus"]), "--sentences", str(paths["sentences"]),
         "--vocab", str(paths["vocab"]), "--out-dir", str(tmp_path / "run"),
         *TRAIN_FLAGS],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"trained 2 steps on 8 scanpaths; artifacts in {tmp_path / 'run'}"]
    steps = [line for line in proc.stderr.splitlines() if " step " in line]
    assert [line.split(" total=")[0] for line in steps] == [
        "INFO scanpath_diffusion.training: step 1/2",
        "INFO scanpath_diffusion.training: step 2/2"]

# TRAIN_FLAGS at batch 12: two shards of 6 frames
SHARD_FLAGS = [*TRAIN_FLAGS[:TRAIN_FLAGS.index("--batch")], "--batch", "12",
               *TRAIN_FLAGS[TRAIN_FLAGS.index("--batch") + 2:]]


def train_args(paths, out_dir, flags=TRAIN_FLAGS):
    return ["train", "--corpus", str(paths["corpus"]), "--sentences", str(paths["sentences"]),
            "--vocab", str(paths["vocab"]), "--out-dir", str(out_dir), *flags]


def test_train_worker_count_does_not_change_output(tmp_path, monkeypatch, caplog):
    """The shards depend on the batch alone: a run of two shards on one
    process and on two (one worker) writes the same bytes, and the log
    says how it ran."""
    _, _, paths = make_world(tmp_path)
    for processes in (1, 2):
        monkeypatch.setattr(training, "shard_processes", lambda n_shards, k=processes: k)
        with caplog.at_level(logging.INFO, logger="scanpath_diffusion.training"):
            assert main(train_args(paths, tmp_path / f"run{processes}", SHARD_FLAGS)) == 0
        assert re.search(f"batches of 12 frames: 2 shards, {processes - 1} worker "
                         r"processes; \d+\.\d ms per step", caplog.text)
    for name in ("config.txt", "metrics.csv", "checkpoint.bin"):
        assert (tmp_path / "run1" / name).read_bytes() == (tmp_path / "run2" / name).read_bytes()


def test_train_with_a_failing_shard_exits_two(tmp_path, monkeypatch, capsys):
    """A shard that raises in its worker: exit 2 with the shard named, no
    worker left, and the checkpoint of the last good step, step 2, as a
    2-step run writes it."""
    _, _, paths = make_world(tmp_path)
    monkeypatch.setattr(training, "shard_processes", lambda n_shards: 2)
    flags = [*SHARD_FLAGS[:SHARD_FLAGS.index("--steps")], "--steps", "2",
             *SHARD_FLAGS[SHARD_FLAGS.index("--steps") + 2:]]
    assert main(train_args(paths, tmp_path / "good", flags)) == 0
    shard_step, main_pid, calls = training._shard_step, os.getpid(), []

    def failing(*args):
        if os.getpid() != main_pid:
            calls.append(1)
            if len(calls) == 3:
                raise ValueError("bad shard")
        return shard_step(*args)

    monkeypatch.setattr(training, "_shard_step", failing)
    flags[flags.index("--steps") + 1] = "4"
    (tmp_path / "ckpt.txt").write_text("ckpt_interval=2\n")
    assert main(train_args(paths, tmp_path / "run",
                           [*flags, "--config", str(tmp_path / "ckpt.txt")])) == 2
    assert "training shard 1 failed in its worker process: ValueError: bad shard" in \
        capsys.readouterr().err
    assert multiprocessing.active_children() == []
    assert (tmp_path / "run" / "checkpoint.bin").read_bytes() == \
        (tmp_path / "good" / "checkpoint.bin").read_bytes()


def test_train_on_more_shard_processes_than_cores_writes_the_bytes_of_one(tmp_path,
                                                                           monkeypatch):
    """A stress run of the shared state: batches of 18 frames cut into 3
    shards, and the optimizer into 3 groups, on 3 processes, more than
    CI's 2 cores, with a clip norm that clips every step. It writes the
    bytes of one process, the training process runs only its main thread
    during its shards, and no worker is left; each run is bounded in time."""
    _, _, paths = make_world(tmp_path)
    (tmp_path / "clip.txt").write_text("clip_norm=0.001\n")
    flags = [*TRAIN_FLAGS, "--config", str(tmp_path / "clip.txt")]
    flags[flags.index("--steps") + 1], flags[flags.index("--batch") + 1] = "4", "18"
    shard_step, main_pid, threads = training._shard_step, os.getpid(), []

    def counting(*args):
        if os.getpid() == main_pid:
            threads.append(threading.active_count())
        return shard_step(*args)

    monkeypatch.setattr(training, "_shard_step", counting)
    before = threading.active_count()
    for processes in (1, 3):
        monkeypatch.setattr(training, "shard_processes", lambda n_shards, k=processes: k)
        with within(120):
            assert main(train_args(paths, tmp_path / f"run{processes}", flags)) == 0
        assert multiprocessing.active_children() == []
    rows = list(csv.DictReader((tmp_path / "run3" / "metrics.csv").read_text().splitlines()))
    assert len(rows) == 4 and all(float(row["grad_norm"]) > 0.001 for row in rows)
    assert threads == [before] * (3 * 4 + 4)
    for name in ("metrics.csv", "checkpoint.bin"):
        assert (tmp_path / "run1" / name).read_bytes() == (tmp_path / "run3" / name).read_bytes()


def test_sharded_train_leaves_no_thread_before_a_forking_generate(tmp_path, monkeypatch):
    """train's shard workers end with it, and it starts no thread, so the
    process generate forks its workers from, right after, has neither."""
    corpus = synthetic_corpus(n_sentences=10, min_words=3, max_words=5, seed=11)
    vocab = build_vocab(corpus.sentences.values())
    paths = {"sentences": tmp_path / "sentences.csv", "corpus": tmp_path / "corpus.csv",
             "vocab": tmp_path / "vocab.txt"}
    save_sentences(corpus.sentences, paths["sentences"])
    save_corpus(corpus, paths["corpus"])
    write_vocab(vocab, paths["vocab"])
    monkeypatch.setattr(training, "shard_processes", lambda n_shards: 2)

    before = threading.active_count()
    assert main(train_args(paths, tmp_path / "run", SHARD_FLAGS)) == 0
    assert multiprocessing.active_children() == []
    assert threading.active_count() == before
    out = tmp_path / "pred.csv"
    assert main(["generate", "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"),
                 "--sentences", str(paths["sentences"]), "--vocab", str(paths["vocab"]),
                 "--out", str(out), "--seed", "9", "--workers", "2"]) == 0
    assert {r.sentence_id for r in load_corpus(out, paths["sentences"]).records} == \
        set(corpus.sentences)


def test_trained_checkpoint_is_float32_and_round_trips(trained, tmp_path):
    model = load_checkpoint(trained["ckpt"])
    assert {arr.dtype for arr in model.all_tensors().values()} == {np.dtype(np.float32)}
    again = tmp_path / "again.bin"
    save_checkpoint(model, again)
    assert again.read_bytes() == trained["ckpt"].read_bytes()


# ---------------------------------------------------------------------------
# generate

def gen_args(trained, out, extra=()):
    paths = trained["paths"]
    return ["generate", "--checkpoint", str(trained["ckpt"]),
            "--sentences", str(paths["sentences"]),
            "--vocab", str(paths["vocab"]),
            "--out", str(out), "--seed", "9", *extra]


def test_generate_output_corpus(trained, tmp_path, capsys):
    out = tmp_path / "pred.csv"
    assert main(gen_args(trained, out)) == 0
    assert "wrote 4 scanpaths" in capsys.readouterr().out
    pred = load_corpus(out, trained["paths"]["sentences"])
    assert pred.readers == {"model"}
    assert {r.sentence_id for r in pred.records} == set(trained["corpus"].sentences)
    for rec in pred.records:
        m = len(trained["corpus"].sentences[rec.sentence_id])
        assert all(1 <= f <= m for f in rec.fixations)


def test_generate_same_seed_same_bytes(trained, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(gen_args(trained, a)) == 0
    assert main(gen_args(trained, b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_worker_count_does_not_change_output(trained, tmp_path):
    a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert main(gen_args(trained, a, ["--workers", "1"])) == 0
    assert main(gen_args(trained, b, ["--workers", "2"])) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_generate_rejects_worker_count_below_one(trained, tmp_path, capsys, workers):
    out = tmp_path / "pred.csv"
    assert main(gen_args(trained, out, ["--workers", workers])) == 1
    assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err
    assert not out.exists()
    # rejected before the checkpoint is read: a missing one is not reported
    args = gen_args(trained, out, ["--workers", workers])
    args[args.index("--checkpoint") + 1] = str(tmp_path / "missing.bin")
    assert main(args) == 1
    assert "workers must be >= 1" in capsys.readouterr().err


def test_generate_skips_oversized_sentence(trained, tmp_path, caplog, capsys):
    # 16 single-piece words need 21 frame slots; the model was built at 20
    sentences = dict(trained["corpus"].sentences)
    sentences["s_long"] = ("bala",) * 16
    sent_path = tmp_path / "sent.csv"
    save_sentences(sentences, sent_path)
    out = tmp_path / "pred.csv"
    rc = main(["generate", "--checkpoint", str(trained["ckpt"]),
               "--sentences", str(sent_path),
               "--vocab", str(trained["paths"]["vocab"]),
               "--out", str(out), "--seed", "9"])
    assert rc == 0
    assert "wrote 4 scanpaths" in capsys.readouterr().out
    assert any("s_long" in r.message for r in caplog.records)
    pred = load_corpus(out, trained["paths"]["sentences"])
    assert "s_long" not in {r.sentence_id for r in pred.records}


def test_generate_matches_library_chain_per_sentence(trained, tmp_path, capsys):
    """The CLI's lockstep chains give each sentence the scanpath of
    `generate` with its `sentence_rng`, the chain `trace` replays."""
    out = tmp_path / "pred.csv"
    assert main(gen_args(trained, out)) == 0
    line = capsys.readouterr().out
    paths = trained["paths"]
    model = load_checkpoint(trained["ckpt"])
    vocab = Vocabulary.from_file(paths["vocab"])
    sentences = load_sentences(paths["sentences"])
    usable = list(fitting_sentences(sentences, vocab, model.config.max_len))
    pred = {r.sentence_id: list(r.fixations) for r in load_corpus(out, paths["sentences"]).records}
    assert set(pred) == set(usable)
    results = [generate(model, [tokenize_sentence(sentences[sid], vocab)], vocab,
                        rngs=[sentence_rng(9, i)])[0] for i, sid in enumerate(usable)]
    assert [pred[sid] for sid in usable] == [res.fixations for res in results]
    clamped = sum(res.clamped for res in results)
    open_ = sum(not res.ended for res in results)
    assert f"({clamped} out-of-range indices clamped, {open_} without an end marker)" in line


def test_generate_samples_each_chunk_through_inference_generate(trained, tmp_path,
                                                               monkeypatch, capsys):
    """`cli generate` runs its chains through the library's one sampling
    function, one call per chunk of GENERATE_CHUNK sentences."""
    words = list(trained["corpus"].sentences.values())
    sentences = {f"s{k}": words[k % len(words)] for k in range(9)}
    sent_path, out = tmp_path / "sent.csv", tmp_path / "pred.csv"
    save_sentences(sentences, sent_path)
    args = gen_args(trained, out, ["--workers", "1"])
    args[args.index("--sentences") + 1] = str(sent_path)
    calls = count_calls(monkeypatch, cli_mod.generate)
    assert main(args) == 0
    assert "wrote 9 scanpaths" in capsys.readouterr().out
    chunk = cli_mod.GENERATE_CHUNK  # 8: a full chunk and a ragged one
    assert [len(toks) for _, toks, _ in calls] == [min(chunk, 9 - lo) for lo in range(0, 9, chunk)]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_generate_chunking_does_not_change_output(trained, tmp_path, monkeypatch, workers):
    """Chunks of 3 (a full one and a ragged one) write the bytes of one chunk."""
    one, split = tmp_path / "one.csv", tmp_path / "split.csv"
    assert main(gen_args(trained, one)) == 0
    monkeypatch.setattr(cli_mod, "GENERATE_CHUNK", 3)
    assert main(gen_args(trained, split, ["--workers", workers])) == 0
    assert one.read_bytes() == split.read_bytes()


def test_generate_starts_no_pool_for_one_chunk(trained, tmp_path, monkeypatch):
    """The 4 fixture sentences are one chunk: --workers 2 runs it in process."""
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started for a single chunk")
    monkeypatch.setattr(workers_mod.Forked, "_fork", no_pool)
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    assert main(gen_args(trained, one)) == 0
    assert main(gen_args(trained, two, ["--workers", "2"])) == 0
    assert one.read_bytes() == two.read_bytes()


def test_generate_worker_counts_one_to_three_write_the_same_bytes(trained, tmp_path,
                                                                   monkeypatch):
    """Chunks of one sentence, 4 of them: --workers 1, 2 and 3 (no, one and
    two forked workers) write the same bytes, and leave no worker."""
    monkeypatch.setattr(cli_mod, "GENERATE_CHUNK", 1)
    outs = [tmp_path / f"w{workers}.csv" for workers in (1, 2, 3)]
    for workers, out in zip((1, 2, 3), outs):
        assert main(gen_args(trained, out, ["--workers", str(workers)])) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
    assert multiprocessing.active_children() == []


def test_generate_on_two_processes_forks_one_worker(trained, tmp_path, monkeypatch):
    """Two chunks on --workers 2: the pool gets one worker, and chunk 0 runs
    in this process, on the model this process loaded."""
    monkeypatch.setattr(cli_mod, "GENERATE_CHUNK", 3)
    fork, chunk, main_pid = workers_mod.Forked._fork, cli_mod._generate_chunk, os.getpid()
    pools, here = [], []

    def recording_fork(runner):
        fork(runner)
        pools.append(runner.workers)

    def recording_chunk(state, jobs):
        if os.getpid() == main_pid:
            here.append(jobs[0][0])  # the chunk's first sentence index
        return chunk(state, jobs)

    monkeypatch.setattr(workers_mod.Forked, "_fork", recording_fork)
    monkeypatch.setattr(cli_mod, "_generate_chunk", recording_chunk)
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    assert main(gen_args(trained, one)) == 0
    assert (pools, here) == ([], [0, 3])
    here.clear()
    assert main(gen_args(trained, two, ["--workers", "2"])) == 0
    assert (pools, here) == ([1], [0])
    assert one.read_bytes() == two.read_bytes()
    assert multiprocessing.active_children() == []


def bad_chunk():
    raise ValueError("bad chunk")


@pytest.mark.parametrize("fail, message", [
    (bad_chunk, "generation chunk 1 failed in its worker process: ValueError: bad chunk"),
    (lambda: os._exit(3), "the worker process running generation chunk 1 exited unexpectedly"),
], ids=["raises", "exits"])
def test_generate_with_a_failing_chunk_exits_two(trained, tmp_path, monkeypatch, capsys,
                                                 fail, message):
    """A chunk that fails in its worker, or whose worker exits: exit 2 with
    the chunk named, no worker left and no output written."""
    monkeypatch.setattr(cli_mod, "GENERATE_CHUNK", 3)  # 2 chunks, chunk 1 in the worker
    chunk, main_pid = cli_mod._generate_chunk, os.getpid()

    def failing(state, jobs):
        if os.getpid() != main_pid:
            fail()
        return chunk(state, jobs)

    monkeypatch.setattr(cli_mod, "_generate_chunk", failing)  # before the fork
    out = tmp_path / "pred.csv"
    assert main(gen_args(trained, out, ["--workers", "2"])) == 2
    assert message in capsys.readouterr().err
    assert multiprocessing.active_children() == []
    assert not out.exists()


def test_without_fork_generate_and_train_start_no_process(trained, tmp_path, monkeypatch,
                                                          caplog):
    """Where fork is unavailable, generate --workers 2 over two chunks and a
    two-shard train on two processes run every job in this process and
    write the bytes of one process."""
    _, _, paths = make_world(tmp_path)
    monkeypatch.setattr(cli_mod, "GENERATE_CHUNK", 3)
    monkeypatch.setattr(training, "shard_processes", lambda n_shards: 1)
    assert main(gen_args(trained, tmp_path / "one.csv")) == 0
    assert main(train_args(paths, tmp_path / "run1", SHARD_FLAGS)) == 0

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started without fork")
    monkeypatch.setattr(workers_mod.Forked, "_fork", no_pool)
    monkeypatch.setattr(workers_mod.multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    monkeypatch.setattr(training, "shard_processes", lambda n_shards: 2)
    assert main(gen_args(trained, tmp_path / "two.csv", ["--workers", "2"])) == 0
    with caplog.at_level(logging.INFO, logger="scanpath_diffusion.training"):
        assert main(train_args(paths, tmp_path / "run2", SHARD_FLAGS)) == 0
    assert "batches of 12 frames: 2 shards, 0 worker processes;" in caplog.text
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
    for name in ("config.txt", "metrics.csv", "checkpoint.bin"):
        assert (tmp_path / "run1" / name).read_bytes() == (tmp_path / "run2" / name).read_bytes()
    assert multiprocessing.active_children() == []


def test_generate_with_no_fitting_sentence_exits_one_before_writing(trained, tmp_path,
                                                                    capsys):
    sent_path = tmp_path / "sent.csv"
    save_sentences({"s_long": ("bala",) * 16}, sent_path)  # 21 slots; the model has 20
    out = tmp_path / "pred.csv"
    args = gen_args(trained, out)
    args[args.index("--sentences") + 1] = str(sent_path)
    assert main(args) == 1
    assert "no sentence fits the model frame of 20 slots" in capsys.readouterr().err
    assert not out.exists()


def test_generate_rejects_tampered_checkpoint_config(trained, tmp_path, capsys):
    """An edited header config fails at load, exit 1, not mid-generation."""
    header_line, payload = trained["ckpt"].read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    header["config"]["n_heads"] = 3
    ckpt = tmp_path / "tampered.bin"
    ckpt.write_bytes(json.dumps(header).encode("ascii") + b"\n" + payload)
    out = tmp_path / "pred.csv"
    args = gen_args(trained, out)
    args[args.index("--checkpoint") + 1] = str(ckpt)
    assert main(args) == 1
    assert "n_heads 3 does not divide dim 8" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# evaluate

def test_evaluate_self_is_zero(trained, tmp_path, capsys):
    paths = trained["paths"]
    rc = main(["evaluate", "--true", str(paths["corpus"]),
               "--pred", str(paths["corpus"]),
               "--sentences", str(paths["sentences"])])
    assert rc == 0
    assert "mean NLD 0.000000 over 8 scanpaths" in capsys.readouterr().out


def test_evaluate_report_files(trained, tmp_path, capsys):
    paths = trained["paths"]
    out_dir = tmp_path / "report"
    rc = main(["evaluate", "--true", str(paths["corpus"]),
               "--pred", str(paths["corpus"]),
               "--sentences", str(paths["sentences"]),
               "--out-dir", str(out_dir)])
    assert rc == 0
    for name in ("nld_per_scanpath.csv", "measure_summary.csv",
                 "reader_correlations.csv", "nld_measure_correlations.csv"):
        assert (out_dir / name).exists()


def test_evaluate_word_export_with_predictors(trained, tmp_path, capsys):
    paths = trained["paths"]
    sid = sorted(trained["corpus"].sentences)[0]
    pred_file = tmp_path / "predictors.csv"
    pred_file.write_text(f"sentence_id,word_index,freq\n{sid},1,2.5\n")
    word_csv = tmp_path / "words.csv"
    rc = main(["evaluate", "--true", str(paths["corpus"]),
               "--pred", str(paths["corpus"]),
               "--sentences", str(paths["sentences"]),
               "--word-export", str(word_csv),
               "--predictors", str(pred_file)])
    assert rc == 0
    with open(word_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "freq"
    hits = [r for r in rows[1:] if r[1] == sid and r[2] == "1"]
    assert hits and all(r[-1] == "2.5" for r in hits)


def test_evaluate_computes_each_scanpaths_measures_once(tmp_path, monkeypatch, capsys):
    # the report and the word export share the true records' measures: one
    # kernel call takes each true record once, and one more takes each
    # distinct prediction once (a single-reader file holds one per sentence)
    corpus, _, paths = make_world(tmp_path)
    pred = tmp_path / "pred.csv"
    assert main(["baseline", "trainlabel", "--corpus", str(paths["corpus"]),
                 "--sentences", str(paths["sentences"]), "--out", str(pred),
                 "--seed", "3"]) == 0
    predicted = {r.sentence_id: r.fixations for r in load_corpus(pred, paths["sentences"]).records}
    calls = count_calls(monkeypatch, reading_measures_many)
    assert main(["evaluate", "--true", str(paths["corpus"]), "--pred", str(pred),
                 "--sentences", str(paths["sentences"]),
                 "--out-dir", str(tmp_path / "report"),
                 "--word-export", str(tmp_path / "words.csv")]) == 0
    sentences = corpus.sentences
    assert [records for records, in calls] == [
        [(r.fixations, len(sentences[r.sentence_id])) for r in corpus.records],
        [(predicted[sid], len(sentences[sid]))
         for sid in dict.fromkeys(r.sentence_id for r in corpus.records)],
    ]


GOLDEN = Path(__file__).parent / "data" / "evaluate"


@pytest.mark.parametrize("with_predictors", [False, True])
def test_evaluate_writes_the_golden_bytes(tmp_path, capsys, with_predictors):
    # tests/data/evaluate holds a 4-reader, 8-sentence corpus of 1-20 words
    # (bench/inputs.reader_corpus(11, readers=4, sentences=8, max_len=48,
    # min_words=1, max_words=20)), its `baseline trainlabel --seed 5`
    # predictions, a predictor file (every other word, a column named like
    # a base column, a quoted value, a sentence outside the corpus), and the
    # report tables and word exports that `evaluate` wrote for them before
    # scoring ran on columns
    argv = ["evaluate", "--true", str(GOLDEN / "corpus.csv"), "--pred", str(GOLDEN / "pred.csv"),
            "--sentences", str(GOLDEN / "sentences.csv"), "--out-dir", str(tmp_path),
            "--word-export", str(tmp_path / "words.csv")]
    if with_predictors:
        argv += ["--predictors", str(GOLDEN / "predictors.csv")]
    assert main(argv) == 0
    assert "mean NLD 0.651178 over 32 scanpaths" in capsys.readouterr().out
    for name in ("nld_per_scanpath", "measure_summary", "reader_correlations",
                 "nld_measure_correlations"):
        assert (tmp_path / f"{name}.csv").read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
    words = "words_predictors.csv" if with_predictors else "words.csv"
    assert (tmp_path / "words.csv").read_bytes() == (GOLDEN / words).read_bytes()


def test_evaluate_rejects_bad_predictors_before_writing(trained, tmp_path, capsys):
    paths = trained["paths"]
    pred_file = tmp_path / "predictors.csv"
    pred_file.write_text("sentence_id,word\ns1,1\n")
    report_dir, word_csv = tmp_path / "report", tmp_path / "words.csv"
    rc = main(["evaluate", "--true", str(paths["corpus"]),
               "--pred", str(paths["corpus"]),
               "--sentences", str(paths["sentences"]),
               "--out-dir", str(report_dir), "--word-export", str(word_csv),
               "--predictors", str(pred_file)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "expected header sentence_id,word_index,<predictor...>" in captured.err
    assert captured.out == ""
    assert not report_dir.exists()
    assert not word_csv.exists()



def test_evaluate_rejects_predictor_word_outside_sentence_before_writing(
        trained, tmp_path, capsys):
    paths = trained["paths"]
    sid, words = sorted(trained["corpus"].sentences.items())[0]
    pred_file = tmp_path / "predictors.csv"
    pred_file.write_text(f"sentence_id,word_index,freq\n{sid},1,2.5\n"
                         f"{sid},{len(words) + 1},1.0\n")
    report_dir, word_csv = tmp_path / "report", tmp_path / "words.csv"
    rc = main(["evaluate", "--true", str(paths["corpus"]),
               "--pred", str(paths["corpus"]),
               "--sentences", str(paths["sentences"]),
               "--out-dir", str(report_dir), "--word-export", str(word_csv),
               "--predictors", str(pred_file)])
    assert rc == 1
    captured = capsys.readouterr()
    assert f":3: word_index {len(words) + 1} outside 1..{len(words)}" in captured.err
    assert captured.out == ""
    assert not report_dir.exists()
    assert not word_csv.exists()


def test_evaluate_rejects_predictors_without_word_export_before_writing(
        trained, tmp_path, capsys):
    paths = trained["paths"]
    sid = sorted(trained["corpus"].sentences)[0]
    pred_file = tmp_path / "predictors.csv"
    pred_file.write_text(f"sentence_id,word_index,freq\n{sid},1,2.5\n")
    report_dir = tmp_path / "report"
    rc = main(["evaluate", "--true", str(paths["corpus"]),
               "--pred", str(paths["corpus"]),
               "--sentences", str(paths["sentences"]),
               "--out-dir", str(report_dir), "--predictors", str(pred_file)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "--predictors needs --word-export" in captured.err
    assert captured.out == ""
    assert not report_dir.exists()


# ---------------------------------------------------------------------------
# baseline

def test_baseline_human_exact_zero(tmp_path, capsys):
    sentences = {"s1": ("bala", "deon", "firi")}
    corpus = Corpus(sentences=sentences, records=[
        ScanpathRecord("r1", "s1", (1, 2, 3)),
        ScanpathRecord("r2", "s1", (1, 2, 3)),
    ])
    sent_path, corp_path = tmp_path / "s.csv", tmp_path / "c.csv"
    save_sentences(sentences, sent_path)
    save_corpus(corpus, corp_path)
    rc = main(["baseline", "human", "--corpus", str(corp_path),
               "--sentences", str(sent_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "inter-reader mean NLD 0.000000 +- 0.000000 over 2 scanpaths" in out


def test_baseline_uniform_writes_corpus(tmp_path, capsys):
    corpus, _, paths = make_world(tmp_path)
    out = tmp_path / "uniform.csv"
    rc = main(["baseline", "uniform", "--corpus", str(paths["corpus"]),
               "--sentences", str(paths["sentences"]),
               "--out", str(out), "--seed", "3"])
    assert rc == 0
    pred = load_corpus(out, paths["sentences"])
    assert pred.readers == {"uniform"}
    assert {r.sentence_id for r in pred.records} == set(corpus.sentences)


def test_baseline_trainlabel_target_sentences(tmp_path):
    corpus, _, paths = make_world(tmp_path)
    targets = {"t1": ("bala", "deon")}
    target_path = tmp_path / "targets.csv"
    save_sentences(targets, target_path)
    out = tmp_path / "walk.csv"
    rc = main(["baseline", "trainlabel", "--corpus", str(paths["corpus"]),
               "--sentences", str(paths["sentences"]),
               "--target-sentences", str(target_path),
               "--out", str(out), "--seed", "3"])
    assert rc == 0
    pred = load_corpus(out, target_path)
    assert {r.sentence_id for r in pred.records} == {"t1"}


def test_baseline_generator_requires_out(tmp_path, capsys):
    _, _, paths = make_world(tmp_path)
    rc = main(["baseline", "uniform", "--corpus", str(paths["corpus"]),
               "--sentences", str(paths["sentences"])])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_baseline_human_rejects_out(tmp_path, capsys):
    _, _, paths = make_world(tmp_path)
    out = tmp_path / "human.csv"
    rc = main(["baseline", "human", "--corpus", str(paths["corpus"]),
               "--sentences", str(paths["sentences"]), "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "the human baseline takes no --out" in captured.err
    assert captured.out == ""
    assert not out.exists()



def test_baseline_human_rejects_seed_flag_before_loading(tmp_path, capsys):
    """The human baseline draws nothing: --seed is refused before any file
    is read, while a --config file that sets seed (for every command) is fine."""
    _, _, paths = make_world(tmp_path)
    rc = main(["baseline", "human", "--corpus", str(tmp_path / "missing.csv"),
               "--sentences", str(paths["sentences"]), "--seed", "5"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "the human baseline takes no --out, --target-sentences or --seed" in captured.err
    assert captured.out == ""

    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 5\n")
    rc = main(["baseline", "human", "--corpus", str(paths["corpus"]),
               "--sentences", str(paths["sentences"]), "--config", str(cfg)])
    assert rc == 0
    assert "inter-reader mean NLD" in capsys.readouterr().out


def test_only_evaluate_loads_scipy(tmp_path):
    """A fresh process that imports the CLI and runs a float32 train,
    generate and baseline human through main has loaded no scipy module;
    evaluate loads scipy.special at its first correlation."""
    _, _, paths = make_world(tmp_path)
    run, pred = tmp_path / "run", tmp_path / "pred.csv"
    commands = [
        train_args(paths, run),
        ["generate", "--checkpoint", str(run / "checkpoint.bin"),
         "--sentences", str(paths["sentences"]), "--vocab", str(paths["vocab"]),
         "--out", str(pred), "--seed", "9", "--workers", "1"],
        ["baseline", "human", "--corpus", str(paths["corpus"]),
         "--sentences", str(paths["sentences"])],
        ["evaluate", "--true", str(paths["corpus"]), "--pred", str(pred),
         "--sentences", str(paths["sentences"])],
    ]
    script = "\n".join([
        "import sys",
        "from scanpath_diffusion.cli import main",
        "def scipy(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
        f"commands = {commands!r}",
        "for args in commands[:3]:",
        "    assert main(args) == 0, args",
        "print('before evaluate:', scipy())",
        "assert main(commands[3]) == 0",
        "print('after evaluate:', 'scipy.special' in scipy())",
    ])
    src = Path(scanpath_diffusion.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "before evaluate: []" in lines
    assert lines[-1] == "after evaluate: True"


def test_each_command_tokenizes_each_sentence_once(trained, tmp_path, monkeypatch):
    # the fit rule's tokenization is the one that train, generate and trace use
    paths = trained["paths"]
    n_sentences = len(trained["corpus"].sentences)
    calls = count_calls(monkeypatch, tokenize_sentence)
    assert main(["train", "--corpus", str(paths["corpus"]),
                 "--sentences", str(paths["sentences"]), "--vocab", str(paths["vocab"]),
                 "--out-dir", str(tmp_path / "run"), *TRAIN_FLAGS]) == 0
    assert len(calls) == n_sentences
    calls.clear()
    assert main(gen_args(trained, tmp_path / "pred.csv", ["--workers", "1"])) == 0
    assert len(calls) == n_sentences
    calls.clear()
    assert main(["trace", "--checkpoint", str(trained["ckpt"]),
                 "--sentences", str(paths["sentences"]), "--vocab", str(paths["vocab"]),
                 "--sentence-id", sorted(trained["corpus"].sentences)[1],
                 "--out", str(tmp_path / "trace.csv")]) == 0
    assert len(calls) == n_sentences


# ---------------------------------------------------------------------------
# trace

def test_trace_writes_snapshots(trained, tmp_path, capsys):
    paths = trained["paths"]
    sid = sorted(trained["corpus"].sentences)[0]
    out = tmp_path / "trace.csv"
    rc = main(["trace", "--checkpoint", str(trained["ckpt"]),
               "--sentences", str(paths["sentences"]),
               "--vocab", str(paths["vocab"]),
               "--sentence-id", sid, "--out", str(out),
               "--trace-stride", "3", "--seed", "1"])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("t,")
    assert len(lines) > 1
    assert "decoded scanpath" in capsys.readouterr().out


def test_trace_unknown_sentence(trained, tmp_path, capsys):
    paths = trained["paths"]
    rc = main(["trace", "--checkpoint", str(trained["ckpt"]),
               "--sentences", str(paths["sentences"]),
               "--vocab", str(paths["vocab"]),
               "--sentence-id", "nope", "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "nope" in capsys.readouterr().err


def test_trace_replays_generate_chain(trained, tmp_path):
    # the latents, not just the decoded scanpath: a memorized model decodes
    # the same scanpath from any noise
    paths = trained["paths"]
    model = load_checkpoint(trained["ckpt"])
    vocab = Vocabulary.from_file(paths["vocab"])
    sentences = load_sentences(paths["sentences"])
    index = 2
    sid = list(fitting_sentences(sentences, vocab, model.config.max_len))[index]
    out = tmp_path / "trace.csv"
    assert main(["trace", "--checkpoint", str(trained["ckpt"]),
                 "--sentences", str(paths["sentences"]),
                 "--vocab", str(paths["vocab"]),
                 "--sentence-id", sid, "--out", str(out), "--seed", "9"]) == 0

    first = np.full((model.config.max_len, model.config.dim), np.nan)
    with open(out, newline="") as fh:
        for row in csv.DictReader(fh):
            if int(row["t"]) == model.config.t_max - 1:
                first[int(row["position"]), int(row["dim"])] = float(row["value"])
    after_step_1 = []

    def on_step(i, _t, z, _z0):
        if i == 1:
            after_step_1.append(z[0].copy())

    generate(model, [tokenize_sentence(sentences[sid], vocab)], vocab,
             rngs=[sentence_rng(9, index)], on_step=on_step)
    assert np.array_equal(first, after_step_1[0])


def test_trace_after_a_skipped_sentence_decodes_what_generate_wrote(trained, tmp_path,
                                                                   capsys):
    """A sentence too long for the frame takes no place in the seeding
    order: the sentence after it traces to the scanpath generate wrote."""
    sentences = dict(trained["corpus"].sentences)
    first, *_, last = sorted(sentences)
    sentences[first + "_long"] = ("bala",) * 16  # 21 frame slots; the model has 20
    sent_path, out = tmp_path / "sent.csv", tmp_path / "pred.csv"
    save_sentences(sentences, sent_path)
    args = gen_args(trained, out)
    args[args.index("--sentences") + 1] = str(sent_path)
    assert main(args) == 0
    capsys.readouterr()
    written = {r.sentence_id: list(r.fixations) for r in load_corpus(out, sent_path).records}
    assert main(["trace", "--checkpoint", str(trained["ckpt"]),
                 "--sentences", str(sent_path),
                 "--vocab", str(trained["paths"]["vocab"]),
                 "--sentence-id", last, "--out", str(tmp_path / "t.csv"),
                 "--seed", "9"]) == 0
    assert f"decoded scanpath {written[last]}" in capsys.readouterr().out


def test_trace_sentence_that_does_not_fit(trained, tmp_path, capsys):
    sentences = dict(trained["corpus"].sentences)
    sentences["s_long"] = ("bala",) * 16  # 21 frame slots; the model has 20
    sent_path = tmp_path / "sent.csv"
    save_sentences(sentences, sent_path)
    rc = main(["trace", "--checkpoint", str(trained["ckpt"]),
               "--sentences", str(sent_path),
               "--vocab", str(trained["paths"]["vocab"]),
               "--sentence-id", "s_long", "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "s_long" in err and "does not fit the model frame" in err


# ---------------------------------------------------------------------------
# exit codes

def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["schedule-dump", "--no-such-flag"]) == 1
    capsys.readouterr()  # argparse noise


def test_successive_calls_share_one_parser_and_no_values(tmp_path, monkeypatch, capsys):
    """main builds its parser once per process; each call parses into a
    fresh namespace, so no value or default of one command reaches the
    next, and --help and usage errors keep their exit codes."""
    builds = []
    build_parser = cli_mod.build_parser
    monkeypatch.setattr(cli_mod, "build_parser", lambda: builds.append(1) or build_parser())
    cli_mod._parser.cache_clear()
    seen = []
    settings = cli_mod._settings
    monkeypatch.setattr(cli_mod, "_settings",
                        lambda args: seen.append(vars(args).copy()) or settings(args))
    missing = str(tmp_path / "none.csv")

    assert main(["schedule-dump", "--kind", "linear", "--t-max", "4", "--s", "0.01",
                 "--out", str(tmp_path / "s.csv")]) == 0
    assert main(["evaluate", "--true", missing, "--pred", missing,
                 "--sentences", missing]) == 1
    assert main(["schedule-dump", "--t-max", "6"]) == 0
    assert main(["--help"]) == 0
    assert main(["schedule-dump", "--help"]) == 0
    assert main(["schedule-dump", "--kind", "cubic"]) == 1
    assert main([]) == 1
    capsys.readouterr()

    assert builds == [1]
    for ns in seen:
        del ns["func"]
    assert seen == [
        {"command": "schedule-dump", "config": None, "config_keys": ("t_max", "s"),
         "kind": "linear", "t_max": 4, "s": 0.01, "out": str(tmp_path / "s.csv")},
        {"command": "evaluate", "config": None, "config_keys": (), "true": missing,
         "pred": missing, "sentences": missing, "out_dir": None, "word_export": None,
         "predictors": None},
        {"command": "schedule-dump", "config": None, "config_keys": ("t_max", "s"),
         "kind": None, "t_max": 6, "s": None, "out": None},
    ]


def test_missing_input_file_exits_one(tmp_path, capsys):
    rc = main(["evaluate", "--true", str(tmp_path / "none.csv"),
               "--pred", str(tmp_path / "none.csv"),
               "--sentences", str(tmp_path / "none2.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bad_config_file_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("t_max = banana\n")
    rc = main(["schedule-dump", "--config", str(cfg)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
