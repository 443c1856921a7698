#!/usr/bin/env bash
# The whole CLI surface on a synthetic corpus: prepare, train, generate,
# evaluate, baselines, schedule dump, and a latent trace.
#
# Run from the repository root after `pip install -e .`:
#   bash demos/cli_pipeline.sh
set -euo pipefail

work=$(mktemp -d -t scanpath_cli_XXXX)
trap 'rm -rf "$work"' EXIT
echo "workspace: $work (removed on exit)"

# ---- inputs: a rule-generated corpus saved in the CSV formats ------------
python3 - "$work" <<'EOF'
import sys
from pathlib import Path
from scanpath_diffusion import build_vocab, save_corpus, save_sentences, synthetic_corpus
from scanpath_diffusion.synthetic import WORD_POOL

work = Path(sys.argv[1])
corpus = synthetic_corpus(n_sentences=18, min_words=4, max_words=6, seed=13)
# 20 pieces leave no scanpath slot in the 24-slot frame: every command skips
# this sentence, which has no scanpaths and sorts between s04 and s05
corpus.sentences["s04x"] = tuple(WORD_POOL[k % len(WORD_POOL)] for k in range(20))
save_sentences(corpus.sentences, work / "sentences.csv")
save_corpus(corpus, work / "corpus.csv")
vocab = build_vocab(corpus.sentences.values())
(work / "vocab.txt").write_text("".join(t + "\n" for t in vocab.tokens))
print(f"wrote {len(corpus.sentences)} sentences, {len(corpus.records)} scanpaths")
EOF

# ---- the noise schedule as data ------------------------------------------
scanpath-diffusion schedule-dump --kind sqrt --t-max 8

# ---- validate and split ---------------------------------------------------
scanpath-diffusion prepare \
  --corpus "$work/corpus.csv" --sentences "$work/sentences.csv" \
  --vocab "$work/vocab.txt" --folds 3 --out "$work/splits.json"

# ---- train a small model --------------------------------------------------
scanpath-diffusion train \
  --corpus "$work/corpus.csv" --sentences "$work/sentences.csv" \
  --vocab "$work/vocab.txt" --out-dir "$work/run" \
  --t-max 50 --hidden-dim 16 --d-bert 16 --blocks 2 --heads 2 \
  --max-len 24 --steps 200 --batch 8 --lr 1e-3 --seed 5
tail -2 "$work/run/metrics.csv"

# ---- training's bytes do not depend on the process count: batches of 12 --
# ---- frames are 2 shards, run on one process per core with BLAS on one ---
# ---- thread, and in turn in one process with BLAS unpinned ---------------
shard_train() {
  scanpath-diffusion train \
    --corpus "$work/corpus.csv" --sentences "$work/sentences.csv" \
    --vocab "$work/vocab.txt" --out-dir "$1" \
    --t-max 50 --hidden-dim 16 --d-bert 16 --blocks 2 --heads 2 \
    --max-len 24 --steps 40 --batch 12 --lr 1e-3 --seed 5 2>&1 | grep "worker processes"
}
(export OPENBLAS_NUM_THREADS=1; shard_train "$work/run_pinned")
(unset OPENBLAS_NUM_THREADS OMP_NUM_THREADS MKL_NUM_THREADS; shard_train "$work/run_unpinned")
cmp "$work/run_pinned/checkpoint.bin" "$work/run_unpinned/checkpoint.bin"
cmp "$work/run_pinned/metrics.csv" "$work/run_unpinned/metrics.csv"

# ---- sample scanpaths for the same sentences ------------------------------
scanpath-diffusion generate \
  --checkpoint "$work/run/checkpoint.bin" \
  --sentences "$work/sentences.csv" --vocab "$work/vocab.txt" \
  --out "$work/pred.csv" --seed 9

# ---- the same samples on 2 processes (18 fitting sentences, 3 chunks of ---
# ---- at most 8: chunks 0 and 2 in the command's process, chunk 1 in one ---
# ---- forked worker): the worker count changes no byte ---------------------
scanpath-diffusion generate \
  --checkpoint "$work/run/checkpoint.bin" \
  --sentences "$work/sentences.csv" --vocab "$work/vocab.txt" \
  --out "$work/pred_w2.csv" --seed 9 --workers 2
cmp "$work/pred.csv" "$work/pred_w2.csv"

# ---- the sentence after the skipped one traces to the scanpath generate ---
# ---- wrote for it: both take their seeds from the same order --------------
traced=$(scanpath-diffusion trace \
  --checkpoint "$work/run/checkpoint.bin" \
  --sentences "$work/sentences.csv" --vocab "$work/vocab.txt" \
  --sentence-id s05 --out "$work/trace_s05.csv" --seed 9)
python3 - "$work/pred.csv" "$traced" <<'EOF'
import csv
import sys

with open(sys.argv[1], newline="", encoding="utf-8") as fh:
    written = [int(row["fixation_word_index"]) for row in csv.DictReader(fh)
               if row["sentence_id"] == "s05"]
assert written and sys.argv[2].endswith(f"decoded scanpath {written}"), (sys.argv[2], written)
print(f"trace of s05 decodes to the scanpath generate wrote: {written}")
EOF

# ---- score against the human records --------------------------------------
scanpath-diffusion evaluate \
  --true "$work/corpus.csv" --pred "$work/pred.csv" \
  --sentences "$work/sentences.csv" \
  --out-dir "$work/report" --word-export "$work/words.csv"
ls "$work/report"

# ---- reference points: inter-reader agreement and a trivial baseline ------
scanpath-diffusion baseline human \
  --corpus "$work/corpus.csv" --sentences "$work/sentences.csv"
scanpath-diffusion baseline uniform \
  --corpus "$work/corpus.csv" --sentences "$work/sentences.csv" \
  --seed 5 --out "$work/uniform.csv"
scanpath-diffusion evaluate \
  --true "$work/corpus.csv" --pred "$work/uniform.csv" \
  --sentences "$work/sentences.csv"

# ---- watch one generation denoise -----------------------------------------
sid=$(python3 -c "import csv,sys; print(next(iter(csv.DictReader(open(sys.argv[1]))))['sentence_id'])" "$work/sentences.csv")
scanpath-diffusion trace \
  --checkpoint "$work/run/checkpoint.bin" \
  --sentences "$work/sentences.csv" --vocab "$work/vocab.txt" \
  --sentence-id "$sid" --trace-stride 10 --out "$work/trace.csv" --seed 3
head -2 "$work/trace.csv"

echo "done"
