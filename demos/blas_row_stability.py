"""Probe the BLAS property that lockstep generation's bit identity rests on.

`generate_batch` packs the real tokens of several frames into one
(N_real, K) @ (K, N) product per denoiser layer. A frame's rows match
those of its one-sentence chain only when the BLAS gives a block of m
rows inside a stacked product the same bits as the block alone. This
script checks that at the denoiser's per-token product shapes, for every
block size up to a full frame at a few offsets, in float32 and float64:

  python demos/blas_row_stability.py                     # paper size
  python demos/blas_row_stability.py --dim 64 --max-len 32

A frame gives every per-token layer at least 6 rows (one sentence piece,
four markers, one scanpath slot), so a difference at fewer rows is never
reached, and the time code is one row whatever the batch. A difference
at 6 rows or more breaks the identity, and the script exits 1. The other
products of a chain run one frame at a time by construction: the
sentence projection and attention are per-frame matmuls of one shape,
and the rounding runs one product per frame, because against the
transposed index table small stacked row blocks do differ.
"""

import argparse
import sys

import numpy as np

MIN_FRAME_ROWS = 6
OFFSETS = (0, 5, 37)


def differing_blocks(w: np.ndarray, max_rows: int, rng: np.random.Generator) -> list[int]:
    """Block sizes m whose rows in a stacked x @ w differ from x[s:s+m] @ w."""
    x = rng.standard_normal((max(OFFSETS) + max_rows, w.shape[0])).astype(w.dtype)
    full = x @ w
    return [m for m in range(1, max_rows + 1)
            if any(not np.array_equal(x[s:s + m] @ w, full[s:s + m]) for s in OFFSETS)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dim", type=int, default=256)
    ap.add_argument("--max-len", type=int, default=128)
    args = ap.parse_args()
    d, h = args.dim, 4 * args.dim
    rng = np.random.default_rng(0)
    products = [("attention projection", (d, d)), ("feed forward in", (d, h)),
                ("feed forward out", (h, d))]
    broken = False
    for dtype in (np.float32, np.float64):
        for name, shape in products:
            w = rng.standard_normal(shape).astype(dtype)
            bad = differing_blocks(w, args.max_len, rng)
            reached = [m for m in bad if m >= MIN_FRAME_ROWS]
            broken |= bool(reached)
            print(f"{np.dtype(dtype).name:8s} {name:21s} {shape}: differs at rows "
                  f"{bad or '-'}: {'BREAKS lockstep identity' if reached else 'ok'}")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
