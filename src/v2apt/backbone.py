"""Miniature vision transformer: patch embedding, pre-norm encoder, head.

Parameters live in a flat name -> Tensor dict. Backbone names share the
"backbone." prefix so the freeze mask is a prefix set; the classification
head ("head.*") stays trainable after freezing, as do prompts and the
prompt generator, which other modules add to the same dict.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .errors import ConfigError, ShapeError
from .rng import SeededStreams
from .tensor import Tensor

Params = dict[str, Tensor]


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_backbone(cfg: ModelConfig, streams: SeededStreams) -> Params:
    """Fresh trainable backbone + head parameters, deterministic per seed."""
    cfg.validate()
    rng = streams.generator("init.backbone")
    d, mlp = cfg.dim, cfg.dim * cfg.mlp_ratio
    p: Params = {}

    def t(name: str, value: np.ndarray) -> None:
        p[name] = Tensor(value, requires_grad=True)

    t("backbone.patch.w", _xavier(rng, cfg.patch_dim, d))
    t("backbone.patch.b", np.zeros(d))
    t("backbone.pos", rng.normal(0.0, 0.02, size=(cfg.num_patches, d)))
    t("backbone.cls", rng.normal(0.0, 0.02, size=(1, d)))
    for i in range(cfg.depth):
        base = f"backbone.layers.{i}"
        t(f"{base}.ln1.g", np.ones(d))
        t(f"{base}.ln1.b", np.zeros(d))
        for proj in ("wq", "wk", "wv", "wo"):
            t(f"{base}.attn.{proj}", _xavier(rng, d, d))
        for bias in ("bq", "bk", "bv", "bo"):
            t(f"{base}.attn.{bias}", np.zeros(d))
        t(f"{base}.ln2.g", np.ones(d))
        t(f"{base}.ln2.b", np.zeros(d))
        t(f"{base}.mlp.w1", _xavier(rng, d, mlp))
        t(f"{base}.mlp.b1", np.zeros(mlp))
        t(f"{base}.mlp.w2", _xavier(rng, mlp, d))
        t(f"{base}.mlp.b2", np.zeros(d))
    t("backbone.ln_f.g", np.ones(d))
    t("backbone.ln_f.b", np.zeros(d))
    head_rng = streams.generator("init.head")
    t("head.w", _xavier(head_rng, d, cfg.num_classes))
    t("head.b", np.zeros(cfg.num_classes))
    return p


def patchify(images: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """(B, H, W, C) pixels -> (B, num_patches, patch_dim) flattened patches."""
    if images.ndim != 4:
        raise ShapeError(f"images must be rank 4 (B, H, W, C), got {images.shape}")
    b, h, w, c = images.shape
    if h != w:
        raise ConfigError(f"images must be square, got {h}x{w}")
    if h % cfg.patch_size != 0:
        raise ConfigError(f"image side {h} not divisible by patch size {cfg.patch_size}")
    if h != cfg.image_size or c != cfg.in_channels:
        raise ConfigError(
            f"images {h}x{w}x{c} do not match config {cfg.image_size}x{cfg.image_size}x{cfg.in_channels}"
        )
    g, ps = cfg.grid, cfg.patch_size
    x = images.reshape(b, g, ps, g, ps, c)
    x = x.transpose(0, 1, 3, 2, 4, 5)  # (B, gy, gx, ps, ps, C), row-major patches
    return np.ascontiguousarray(x.reshape(b, g * g, ps * ps * c))


def patch_embed(images: np.ndarray, params: Mapping[str, Tensor], cfg: ModelConfig) -> Tensor:
    """Project flattened patches to width d and add positional embeddings."""
    e = T.linear(patchify(images, cfg), params["backbone.patch.w"], params["backbone.patch.b"])
    return e + params["backbone.pos"]


def encoder_layer_forward(
    layer_idx: int,
    tokens: Tensor,
    params: Mapping[str, Tensor],
    cfg: ModelConfig,
    rows: int | None = None,
) -> Tensor:
    """One pre-norm block: x + attn(LN(x)), then + MLP(LN(.)).

    Keeps S fixed, or with `rows` returns only the first `rows` tokens: keys
    and values still cover every token, but queries, the residual and the MLP
    run on those rows alone.
    """
    if not 0 <= layer_idx < cfg.depth:
        raise ConfigError(f"layer index {layer_idx} out of range for depth {cfg.depth}")
    if tokens.shape[-1] != cfg.dim:
        raise ShapeError(f"token width {tokens.shape[-1]} does not match model width {cfg.dim}")
    base = f"backbone.layers.{layer_idx}"

    def w(name: str) -> Tensor:
        return params[f"{base}.{name}"]

    h = T.layer_norm(tokens, w("ln1.g"), w("ln1.b"))
    k = T.linear(h, w("attn.wk"), w("attn.bk"))
    v = T.linear(h, w("attn.wv"), w("attn.bv"))
    if rows is not None:
        h = T.slice_axis(h, -2, 0, rows)
        tokens = T.slice_axis(tokens, -2, 0, rows)
    q = T.linear(h, w("attn.wq"), w("attn.bq"))
    x = tokens + T.linear(T.attention(q, k, v, cfg.heads), w("attn.wo"), w("attn.bo"))

    h2 = T.layer_norm(x, w("ln2.g"), w("ln2.b"))
    mlp = T.linear(T.gelu(T.linear(h2, w("mlp.w1"), w("mlp.b1"))), w("mlp.w2"), w("mlp.b2"))
    return x + mlp


def final_norm(tokens: Tensor, params: Mapping[str, Tensor]) -> Tensor:
    return T.layer_norm(tokens, params["backbone.ln_f.g"], params["backbone.ln_f.b"])


def classify(cls_out: Tensor, params: Mapping[str, Tensor]) -> Tensor:
    """Affine map from the CLS representation(s) to class logits."""
    return T.linear(cls_out, params["head.w"], params["head.b"])


def freeze_backbone(params: Params) -> frozenset[str]:
    """Mark every backbone buffer non-trainable; returns the frozen name set.

    Idempotent: freezing twice yields the same mask and state.
    """
    frozen = frozenset(name for name in params if name.startswith("backbone."))
    for name in frozen:
        params[name].requires_grad = False
        params[name].grad = None
    return frozen


def trainable_names(params: Params) -> list[str]:
    return sorted(name for name, p in params.items() if p.requires_grad)


def frozen_digest(params: Mapping[str, Tensor], frozen: Iterable[str]) -> str:
    """SHA-256 over the sorted frozen names and their raw bytes."""
    h = hashlib.sha256()
    for name in sorted(frozen):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(params[name].data).tobytes())
    return h.hexdigest()
