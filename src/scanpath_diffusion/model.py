"""Model bundle (embedding + denoiser + config) and checkpoint files.

`tensor_shapes(config)` is the tensor manifest: every model tensor's name
and shape, in checkpoint order; its denoiser part is the table that
`init_denoiser` fills. `Model.all_tensors` keys a model's arrays by
manifest name, and `Model.from_tensors` builds a model over such a
mapping, the one place the names are split into embedding and denoiser
tensors. A checkpoint is a container file (see `container`) whose header
holds the config and the manifest, so a checkpoint plus a sentence file
is self-sufficient. Loading checks the header's config by
the rule `init_model` applies (`check_model_config`), then the header's
manifest against the config's, naming the first entry that differs.

Precision: `init_model` builds a float64 model, and every layer computes
in the dtype of its model's tensors. A checkpoint stores float32, so
`load_checkpoint` returns the float32 tensors as stored, and
`at_checkpoint_precision` casts a fresh model to them before `cli train`
trains it: a model that goes to or comes from a file is computed in
float32, a library model stays float64 unless cast.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .config import ModelConfig
from .container import DTYPE, read_container, write_container
from .denoiser import DenoiserParams, denoiser_shapes, init_denoiser
from .embedding import EmbeddingParams, init_embedding
from .errors import ValidationError
from .schedules import NoiseSchedule, build_schedule

__all__ = ["Model", "check_model_config", "init_model", "at_checkpoint_precision",
           "tensor_shapes", "save_checkpoint", "load_checkpoint"]


@dataclass
class Model:
    config: ModelConfig
    emb: EmbeddingParams
    den: DenoiserParams

    @classmethod
    def from_tensors(cls, config: ModelConfig, tensors: dict[str, np.ndarray]) -> "Model":
        """The model over tensors, {all_tensors() name: array} in manifest
        order, its arrays shared, not copied."""
        parts = {"emb": {}, "den": {}}
        for name, arr in tensors.items():
            part, _, leaf = name.partition(".")
            parts[part][leaf] = arr
        den = DenoiserParams(config.dim, config.n_blocks, config.n_heads, parts["den"])
        return cls(config=config, emb=EmbeddingParams(**parts["emb"]), den=den)

    def all_tensors(self) -> dict[str, np.ndarray]:
        out = {f"emb.{k}": v for k, v in self.emb.tensors().items()}
        out.update({f"den.{k}": v for k, v in self.den.tensors.items()})
        return out

    def trainable_tensors(self) -> dict[str, np.ndarray]:
        frozen = {f"emb.{name}" for name in EmbeddingParams.FROZEN}
        return {k: v for k, v in self.all_tensors().items() if k not in frozen}

    def schedule(self) -> NoiseSchedule:
        return build_schedule(self.config.schedule, self.config.t_max, self.config.s)

    def beta_zero(self) -> float:
        if self.config.beta_zero is not None:
            return self.config.beta_zero
        return self.schedule().beta_zero


def check_model_config(config: ModelConfig) -> None:
    """Reject a config no model can be built from or run with."""
    for name in ("max_len", "dim", "d_bert", "n_blocks", "n_heads", "v_bert"):
        if getattr(config, name) < 1:
            raise ValidationError(f"{name} must be >= 1, got {getattr(config, name)}")
    if config.dim % config.n_heads:
        raise ValidationError(f"n_heads {config.n_heads} does not divide dim {config.dim}")
    if config.v_idx < config.max_len:
        raise ValidationError(
            f"v_idx {config.v_idx} < max_len {config.max_len}: the index table "
            "must cover every word position a frame can hold"
        )
    if config.beta_zero is not None and not config.beta_zero >= 0.0:  # NaN fails too
        raise ValidationError(f"beta_zero must be >= 0, got {config.beta_zero}")
    build_schedule(config.schedule, config.t_max, config.s)


def init_model(config: ModelConfig, rng: np.random.Generator,
               e_bert: np.ndarray | None = None) -> Model:
    """Fresh float64 model; pass e_bert to adopt a pretrained frozen table."""
    check_model_config(config)  # fails before any file is written
    want = tensor_shapes(config)["emb.e_bert"]
    if e_bert is not None and np.shape(e_bert) != want:
        raise ValidationError(f"frozen table shape {np.shape(e_bert)} does not match the "
                              f"config's (v_bert, d_bert) = {want}")
    emb = init_embedding(
        v_idx=config.v_idx,
        max_len=config.max_len,
        d=config.dim,
        rng=rng,
        e_bert=e_bert,
        v_bert=config.v_bert,
        d_bert=config.d_bert,
    )
    den = init_denoiser(config.dim, config.n_blocks, config.n_heads, rng)
    return Model(config=config, emb=emb, den=den)


def at_checkpoint_precision(model: Model) -> Model:
    """A copy of the model with every tensor in the checkpoint's float32."""
    return Model.from_tensors(model.config, {name: arr.astype(DTYPE)
                                             for name, arr in model.all_tensors().items()})


def tensor_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every model tensor, in checkpoint order."""
    d = config.dim
    shapes = {
        "emb.e_idx": (config.v_idx, d),
        "emb.e_pos": (config.max_len, d),
        "emb.e_bert": (config.v_bert, config.d_bert),
        "emb.w_proj": (config.d_bert, d),
        "emb.b_proj": (d,),
    }
    shapes.update({f"den.{name}": shape for name, shape
                   in denoiser_shapes(d, config.n_blocks).items()})
    return shapes


def save_checkpoint(model: Model, path) -> None:
    tensors = model.all_tensors()
    shapes = tensor_shapes(model.config)
    if {name: arr.shape for name, arr in tensors.items()} != shapes:
        raise ValidationError("model tensors do not match its config")
    manifest = [{"name": name, "shape": list(shape), "dtype": DTYPE.str}
                for name, shape in shapes.items()]
    write_container(path, {"config": model.config.to_dict(), "tensors": manifest},
                    (tensors[name] for name in shapes))


def _checkpoint_layout(header: dict) -> dict[str, tuple[int, ...]]:
    """The config's tensor shapes, once the config passes check_model_config
    and the header's manifest matches them."""
    config = ModelConfig.from_dict(header["config"])
    check_model_config(config)
    shapes = tensor_shapes(config)
    got = [(entry["name"], tuple(entry["shape"])) for entry in header["tensors"]]
    for i, (have, want) in enumerate(zip_longest(got, shapes.items())):
        if have != want:
            raise ValidationError(f"manifest entry {i} is {have}, the config implies {want}")
    return shapes


def load_checkpoint(path) -> Model:
    """The stored model, its tensors float32 as the file holds them."""
    header, tensors = read_container(path, "checkpoint", _checkpoint_layout)
    return Model.from_tensors(ModelConfig.from_dict(header["config"]), tensors)
