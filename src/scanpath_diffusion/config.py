"""Flat key=value run configuration.

A config file holds one `key = value` pair per line (# comments and blank
lines allowed). Command-line flags override file values, file values
override defaults. The same key set feeds model construction, training,
splitting, and generation; consumers pick the fields they need.

SCHEMA is the one table of keys, parsers and defaults: the CLI builds each
subcommand's flags from it (key `t_max` -> `--t-max`, parsed by its SCHEMA
parser; boolean keys are switches).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _optional(parse):
    """parse, except that `none` or an empty value reads as None."""
    def parse_optional(text: str):
        return None if text.strip().lower() in ("none", "") else parse(text)
    return parse_optional


# key -> (parser, default)
SCHEMA = {
    "seed": (int, 0),
    # model
    "max_len": (int, 128),
    "hidden_dim": (int, 256),
    "d_bert": (int, 768),
    "blocks": (int, 12),
    "heads": (int, 8),
    "v_idx": (_optional(int), None),          # default: max_len
    "t_max": (int, 2000),
    "schedule": (str, "sqrt"),
    "s": (float, 1e-4),
    "beta_zero": (_optional(float), None),    # default: schedule-derived
    "emb_target_low_t": (_parse_bool, True),
    # training
    "steps": (int, 80000),
    "batch": (int, 64),
    "lr": (float, 1e-4),
    "weight_decay": (float, 0.0),
    "clip_norm": (float, 1.0),
    "ckpt_interval": (int, 0),                # 0: final checkpoint only
    "sampler_history": (int, 10),
    # splitting
    "split_mode": (str, "new_sentence"),
    "folds": (int, 5),
    # generation
    "workers": (int, 1),
    "mean_only": (_parse_bool, False),
    "trace_stride": (int, 1),
}


def parse_kv_file(path) -> dict[str, str]:
    """Read raw key=value pairs; no typing or key checks yet."""
    raw: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{line_no}: expected key=value, got {stripped!r}")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key in raw:
                raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
            raw[key] = value.strip()
    return raw


def resolve_settings(file_values: dict[str, str] | None = None,
                     overrides: dict | None = None) -> dict:
    """Defaults <- config file <- explicit overrides, fully typed."""
    out = {key: default for key, (_, default) in SCHEMA.items()}
    for key, text in (file_values or {}).items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        parser = SCHEMA[key][0]
        try:
            out[key] = parser(text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    for key, value in (overrides or {}).items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        if value is not None:
            out[key] = value
    return out


def write_kv_file(values: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in values.items():
            fh.write(f"{key} = {'none' if value is None else value}\n")


@dataclass(frozen=True)
class ModelConfig:
    """Everything needed to rebuild a model from a checkpoint."""

    max_len: int
    dim: int
    d_bert: int
    n_blocks: int
    n_heads: int
    v_idx: int
    v_bert: int
    t_max: int
    schedule: str
    s: float
    beta_zero: float | None
    emb_target_low_t: bool

    @classmethod
    def from_settings(cls, st: dict, v_bert: int) -> "ModelConfig":
        return cls(
            max_len=st["max_len"],
            dim=st["hidden_dim"],
            d_bert=st["d_bert"],
            n_blocks=st["blocks"],
            n_heads=st["heads"],
            v_idx=st["v_idx"] if st["v_idx"] is not None else st["max_len"],
            v_bert=v_bert,
            t_max=st["t_max"],
            schedule=st["schedule"],
            s=st["s"],
            beta_zero=st["beta_zero"],
            emb_target_low_t=st["emb_target_low_t"],
        )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelConfig":
        names = {f.name for f in fields(cls)}
        unknown = set(doc) - names
        if unknown:
            raise ConfigError(f"unknown model-config fields {sorted(unknown)}")
        missing = names - set(doc)
        if missing:
            raise ConfigError(f"missing model-config fields {sorted(missing)}")
        return cls(**doc)
