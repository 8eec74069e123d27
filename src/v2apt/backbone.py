"""Miniature vision transformer: patch embedding, pre-norm encoder, head.

Parameters live in a flat name -> Tensor dict. Backbone names share the
"backbone." prefix so the freeze mask is a prefix set; the classification
head ("head.*") stays trainable after freezing, as do prompts and the
prompt generator, which other modules add to the same dict.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
from typing import Callable, Iterable, Mapping, Sequence

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


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every backbone and head parameter, in draw order."""
    d, mlp = cfg.dim, cfg.dim * cfg.mlp_ratio
    shapes = {"backbone.patch.w": (cfg.patch_dim, d), "backbone.patch.b": (d,),
              "backbone.pos": (cfg.num_patches, d), "backbone.cls": (1, d)}
    for i in range(cfg.depth):
        base = f"backbone.layers.{i}"
        shapes.update({f"{base}.ln1.g": (d,), f"{base}.ln1.b": (d,)})
        shapes.update({f"{base}.attn.{proj}": (d, d) for proj in ("wq", "wk", "wv", "wo")})
        shapes.update({f"{base}.attn.{bias}": (d,) for bias in ("bq", "bk", "bv", "bo")})
        shapes.update({f"{base}.ln2.g": (d,), f"{base}.ln2.b": (d,),
                       f"{base}.mlp.w1": (d, mlp), f"{base}.mlp.b1": (mlp,),
                       f"{base}.mlp.w2": (mlp, d), f"{base}.mlp.b2": (d,)})
    shapes.update({"backbone.ln_f.g": (d,), "backbone.ln_f.b": (d,),
                   "head.w": (d, cfg.num_classes), "head.b": (cfg.num_classes,)})
    return shapes


@contextlib.contextmanager
def allocating(shapes_of: Callable[[], Mapping[str, tuple[int, ...]]]):
    """Yield `shapes_of()`, the shapes of a config's tensors, for the body to
    draw. A config whose tensors cannot be held raises ConfigError, naming a
    tensor no array can index or the allocation that failed, in the listing
    or in the draw."""
    try:
        shapes = shapes_of()
        for name, shape in shapes.items():
            if math.prod(shape) > np.iinfo(np.intp).max // 8:  # bytes of a float64 draw
                raise ConfigError(f"tensor {name!r} of shape {shape} is too large for an array")
        yield shapes
        return
    except MemoryError as e:
        cause = str(e) or "out of memory"
    # raised outside the handler, so that no traceback keeps a partial listing alive
    raise ConfigError(f"cannot allocate the parameters of this config: {cause}")


def init_backbone(cfg: ModelConfig, streams: SeededStreams) -> Params:
    """Fresh trainable backbone + head parameters, deterministic per seed.

    Norm gains start at one, biases at zero, the positional and CLS
    embeddings at N(0, 0.02^2), and every matrix Xavier-uniform; the head
    draws from its own stream.
    """
    rng, head_rng = streams.generator("init.backbone"), streams.generator("init.head")
    p: Params = {}
    with allocating(lambda: param_shapes(cfg)) as shapes:
        for name, shape in shapes.items():
            if name in ("backbone.pos", "backbone.cls"):
                value = rng.normal(0.0, 0.02, size=shape)
            elif name.endswith(".g"):
                value = np.ones(shape)
            elif len(shape) == 1:
                value = np.zeros(shape)
            else:
                value = _xavier(head_rng if name.startswith("head.") else rng, *shape)
            p[name] = Tensor(value, requires_grad=True)
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
    prompts: Sequence[Tensor] = (),
) -> Tensor:
    """One pre-norm block: x + attn(LN(x)), then + MLP(LN(.)).

    `prompts`, blocks of (B, k_j, d) rows, join the keys and values only: the
    block attends over the context [tokens | *prompts] and returns the rows of
    `tokens`. With `rows` it returns only the first `rows` of them; queries,
    the residual and the MLP run on the returned rows alone.
    """
    if not 0 <= layer_idx < cfg.depth:
        raise ConfigError(f"layer index {layer_idx} out of range for depth {cfg.depth}")
    if tokens.shape[-1] != cfg.dim:
        raise ShapeError(f"token width {tokens.shape[-1]} does not match model width {cfg.dim}")
    base = f"backbone.layers.{layer_idx}"

    def w(name: str) -> Tensor:
        return params[f"{base}.{name}"]

    context = T.concat([tokens, *prompts], axis=-2) if prompts else tokens
    h = T.layer_norm(context, w("ln1.g"), w("ln1.b"))
    k = T.linear(h, w("attn.wk"), w("attn.bk"))
    v = T.linear(h, w("attn.wv"), w("attn.bv"))
    rows = tokens.shape[-2] if rows is None else rows
    if not 0 < rows <= tokens.shape[-2]:
        raise ShapeError(f"rows {rows} out of range for {tokens.shape[-2]} tokens")
    if rows < context.shape[-2]:
        h = T.slice_axis(h, -2, 0, rows)
    if rows < tokens.shape[-2]:
        tokens = T.slice_axis(tokens, -2, 0, rows)
    q = T.linear(h, w("attn.wq"), w("attn.bq"))
    x = tokens + T.linear(T.attention(q, k, v, cfg.heads), w("attn.wo"), w("attn.bo"))

    h2 = T.layer_norm(x, w("ln2.g"), w("ln2.b"))
    return x + T.mlp(h2, w("mlp.w1"), w("mlp.b1"), w("mlp.w2"), w("mlp.b2"))


def final_norm(tokens: Tensor, params: Mapping[str, Tensor]) -> Tensor:
    return T.layer_norm(tokens, params["backbone.ln_f.g"], params["backbone.ln_f.b"])


def classify(cls_out: Tensor, params: Mapping[str, Tensor]) -> Tensor:
    """Affine map from the CLS representation(s) to class logits."""
    return T.linear(cls_out, params["head.w"], params["head.b"])


def freeze_backbone(params: Params) -> frozenset[str]:
    """Replace every backbone tensor by a non-trainable one over the same
    array, with no gradient; returns the frozen name set.

    Idempotent: freezing twice yields the same mask and values.
    """
    frozen = frozenset(name for name in params if name.startswith("backbone."))
    for name in frozen:
        params[name] = T.wrap(params[name].data, requires_grad=False)
    return frozen


def frozen_digest(params: Mapping[str, Tensor], frozen: Iterable[str]) -> str:
    """SHA-256 over the sorted frozen names and their raw bytes."""
    h = hashlib.sha256()
    for name in sorted(frozen):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(params[name].data).tobytes())
    return h.hexdigest()
