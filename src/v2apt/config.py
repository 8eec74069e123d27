"""Architecture and run configuration with a canonical text form.

Configs are immutable values checked when built, `dataclasses.replace` too;
each field holds its declared type, a Python int or float.
Their text, key-sorted "key = value" lines, exists only in `--config` files
and checkpoints; parsing then serializing is a fixed point: ints print in
decimal, floats via repr (shortest round-trip form).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields

from .errors import ConfigError


@functools.cache  # one entry per config class; callers only read the dict
def _field_types(cls) -> dict[str, type]:
    return {f.name: f.type if isinstance(f.type, type) else {"int": int, "float": float}[f.type] for f in fields(cls)}


def hold_field_types(obj, error: type[Exception]) -> None:
    """Store each field of the frozen dataclass `obj` as its declared type, or
    raise `error` naming the field: an int field takes an integer (numpy's
    too), a float field an integer or a float, and neither takes a bool."""
    for name, ftype in _field_types(type(obj)).items():
        v = getattr(obj, name)
        if type(v) is ftype:  # already held as declared
            continue
        if isinstance(v, bool) or not isinstance(v, numbers.Integral if ftype is int else numbers.Real):
            raise error(f"{name} = {v!r} is not {ftype.__name__}")
        try:
            object.__setattr__(obj, name, ftype(v))
        except OverflowError:
            raise error(f"{name} is an integer too large for a float") from None


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    `prompt_len` is the total per-layer token budget k; `prompt_inst` of those
    are generated per input and the remaining `prompt_len - prompt_inst` are
    static domain prompts. `prompt_inst = 0` is the plain deep-prompting
    baseline, `prompt_len = 0` is head-only tuning.
    """

    image_size: int = 16
    patch_size: int = 4
    in_channels: int = 1
    num_classes: int = 4
    depth: int = 4
    dim: int = 48
    heads: int = 3
    mlp_ratio: int = 4
    prompt_len: int = 8
    prompt_inst: int = 4
    latent_dim: int = 8
    vae_hidden: int = 64

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def num_patches(self) -> int:
        return self.grid * self.grid

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * self.in_channels

    @property
    def prompt_dom(self) -> int:
        return self.prompt_len - self.prompt_inst

    def __post_init__(self) -> None:
        hold_field_types(self, ConfigError)
        for name in ("image_size", "patch_size", "in_channels", "depth", "dim", "heads",
                     "mlp_ratio", "latent_dim", "vae_hidden"):  # every size, before any division
            if (v := getattr(self, name)) < 1:
                raise ConfigError(f"{name} must be >= 1, got {v}")
        if self.image_size % self.patch_size != 0:
            raise ConfigError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}"
            )
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.prompt_len < 0 or not 0 <= self.prompt_inst <= self.prompt_len:
            raise ConfigError(
                f"prompt split invalid: prompt_inst {self.prompt_inst} of prompt_len {self.prompt_len}"
            )


@dataclass(frozen=True)
class RunConfig:
    """Optimization and reproducibility settings for one training run."""

    seed: int = 0
    batch_size: int = 64
    steps: int = 1000
    lr: float = 1e-3
    weight_decay: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    kl_beta: float = 1e-3
    train_frac: float = 0.8

    def __post_init__(self) -> None:
        hold_field_types(self, ConfigError)
        if not 0 <= self.seed < 2**32:  # the bound SeededStreams enforces
            raise ConfigError(f"seed must be in [0, 2**32), got {self.seed}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        # ranges are written so that NaN fails them, and bounded so that inf does
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        for name in ("adam_beta1", "adam_beta2"):
            v = getattr(self, name)
            if not 0 <= v < 1:
                raise ConfigError(f"{name} must be in [0, 1), got {v}")
        if not 0 < self.adam_eps < math.inf:
            raise ConfigError(f"adam_eps must be finite and > 0, got {self.adam_eps}")
        if not 0 <= self.kl_beta < math.inf:
            raise ConfigError(f"kl_beta must be finite and >= 0, got {self.kl_beta}")
        if not 0 < self.train_frac < 1:
            raise ConfigError(f"train_frac must be in (0, 1), got {self.train_frac}")


_MODEL_FIELDS = _field_types(ModelConfig)
_RUN_FIELDS = _field_types(RunConfig)
_OVERLAP = set(_MODEL_FIELDS) & set(_RUN_FIELDS)
assert not _OVERLAP, f"config field names collide: {_OVERLAP}"


def config_to_text(model: ModelConfig, run: RunConfig) -> str:
    """Canonical flat text form: one sorted "key = value" line per field. A
    config holds each value as its field's type, so `lr=1` writes `lr = 1.0`."""
    items = {k: getattr(model, k) for k in _MODEL_FIELDS}
    items.update({k: getattr(run, k) for k in _RUN_FIELDS})
    return "".join(f"{k} = {v!r}\n" for k, v in sorted(items.items()))


def config_from_text(text: str) -> tuple[ModelConfig, RunConfig]:
    """Parse the text form; unknown or repeated keys are rejected by name."""
    model: dict[str, int | float] = {}
    run: dict[str, int | float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in model or key in run:
            raise ConfigError(f"repeated key {key!r}")
        if key in _MODEL_FIELDS:
            target, ftype = model, _MODEL_FIELDS[key]
        elif key in _RUN_FIELDS:
            target, ftype = run, _RUN_FIELDS[key]
        else:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            target[key] = ftype(value)
        except ValueError as e:
            raise ConfigError(f"key {key!r}: cannot parse {value!r} as {ftype.__name__}") from e
    return ModelConfig(**model), RunConfig(**run)


def tiny_config() -> ModelConfig:
    """Smallest config exercising every code path; used by the gradient check."""
    return ModelConfig(
        num_classes=3,
        depth=2,
        dim=16,
        heads=2,
        mlp_ratio=4,
        prompt_len=4,
        prompt_inst=2,
        latent_dim=4,
        vae_hidden=16,
    )


def default_config() -> ModelConfig:
    return ModelConfig()
