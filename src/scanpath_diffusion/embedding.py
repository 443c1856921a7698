"""Latent embedding of frames and rounding back to discrete indices.

A frame position is embedded as the sum of three channels:

  index channel    trainable table over word-position values (this is the
                   channel the diffusion noises and the rounding step
                   decodes; it is weight-tied to the rounding logits)
  context channel  a frozen subword-vocabulary table pushed through a
                   trainable linear projection
  position channel trainable table over within-side positions

The frozen table ships in a container file (see `container`) whose header
is {"vocab": n, "dim": d}.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .container import read_container, write_container
from .errors import ValidationError


@dataclass
class EmbeddingParams:
    e_idx: np.ndarray    # (v_idx, d) trainable
    e_pos: np.ndarray    # (max_len, d) trainable
    e_bert: np.ndarray   # (v_bert, d_bert) frozen
    w_proj: np.ndarray   # (d_bert, d) trainable
    b_proj: np.ndarray   # (d,) trainable

    FROZEN = ("e_bert",)

    def tensors(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def dim(self) -> int:
        return self.e_idx.shape[1]


def init_embedding(
    v_idx: int,
    max_len: int,
    d: int,
    rng: np.random.Generator,
    e_bert: np.ndarray | None = None,
    v_bert: int | None = None,
    d_bert: int | None = None,
) -> EmbeddingParams:
    """Fresh embedding parameters.

    Index/position tables start unit-normal per entry so the signal and the
    injected noise share a scale; the projection starts small (0.02) like
    the denoiser weights. Pass e_bert to adopt a pretrained frozen table,
    else a seeded unit-normal table of shape (v_bert, d_bert) is drawn.
    """
    if e_bert is None:
        if v_bert is None or d_bert is None:
            raise ValidationError("need either e_bert or (v_bert, d_bert)")
        e_bert = rng.standard_normal((v_bert, d_bert))
    else:
        e_bert = np.asarray(e_bert, dtype=np.float64)
    return EmbeddingParams(
        e_idx=rng.standard_normal((v_idx, d)),
        e_pos=rng.standard_normal((max_len, d)),
        e_bert=e_bert,
        w_proj=rng.normal(0.0, 0.02, size=(e_bert.shape[1], d)),
        b_proj=np.zeros(d),
    )


def _check_ids(name, ids, table):
    if np.any(ids < 0) or np.any(ids >= table.shape[0]):
        raise ValidationError(
            f"{name} id out of range 0..{table.shape[0] - 1} "
            f"(max seen {int(np.max(ids))})"
        )


def embed_parts(params: EmbeddingParams, x_idx, x_bert, x_pos):
    """(index channel, context channel); their sum is the full embedding.

    The context channel (projected frozen table + positions) is the part
    that partial noising leaves intact.
    """
    _check_ids("x_idx", np.asarray(x_idx), params.e_idx)
    _check_ids("x_bert", np.asarray(x_bert), params.e_bert)
    _check_ids("x_pos", np.asarray(x_pos), params.e_pos)
    emb_idx = params.e_idx[x_idx]
    emb_ctx = params.e_bert[x_bert] @ params.w_proj + params.b_proj + params.e_pos[x_pos]
    return emb_idx, emb_ctx


def round_logits(z: np.ndarray, params: EmbeddingParams) -> np.ndarray:
    """Inner-product scores of latents against the index table rows."""
    return np.asarray(z) @ params.e_idx.T


def round_argmax(z: np.ndarray, params: EmbeddingParams) -> np.ndarray:
    """Nearest index-table row by inner product; ties take the lowest id."""
    return np.argmax(round_logits(z, params), axis=-1)


def save_table(arr: np.ndarray, path) -> None:
    """Write a float table as a container file (header {"vocab": n, "dim": d})."""
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise ValidationError(f"table must be 2-d, got shape {arr.shape}")
    write_container(path, {"vocab": int(arr.shape[0]), "dim": int(arr.shape[1])}, [arr])


def load_table(path) -> np.ndarray:
    """Read a table file back into a float64 array."""
    _, arrays = read_container(path, "table",
                               lambda h: {"table": (int(h["vocab"]), int(h["dim"]))})
    return arrays["table"].astype(np.float64)
