"""Full classifier: frozen-or-trainable backbone, prompts, latent generator.

One class covers every training flavor by which parameter groups exist:

- backbone + head only: plain ViT (the pretraining phase, or head-only tuning
  when the backbone is frozen);
- plus domain prompts: the deep prompting baseline;
- plus the latent generator: instance prompts composed with domain prompts.

With `prompt_inst = 0` the generator is never built, so that configuration is
the baseline itself, not an emulation of it: same parameters, same tape, same
random draws. Which groups a model of a config holds, and in what shapes, is
stated once, by `param_fault`; the constructor refuses any other parameters,
and nothing adds or drops one after it.

Importing this module, as every import of the package does, pins glibc's
heap for the whole process (`_pin_heap`): every caller runs on one policy.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import sys
from concurrent import futures
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import backbone as B
from . import prompts as P
from . import vae as V
from .config import ModelConfig
from .errors import ConfigError, ShapeError, ValidationError
from .rng import SeededStreams
from .tensor import Tensor, active_tape, concat, expand_leading, slice_axis

Params = dict[str, Tensor]

# images per eval-mode forward in `predict` and `analysis.latent_stats`
EVAL_CHUNK = 256

# A tape-free forward splits its batch for the encoder layers at a multiple of
# this many images. BLAS groups rows, and an image is 25 or 17 rows, so only a
# split on a whole group of images leaves every row's sums as they were; 64
# covers any grouping up to 64 rows. A 64-image batch measured no gain from a
# split, so batches under 128 images run whole.
SPLIT_IMAGES = 64


@functools.cache
def _blas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """Get and set the thread count of the OpenBLAS bundled with numpy, or
    None where numpy carries no such library; a forward then runs whole."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    if len(libs) != 1:
        return None
    try:
        lib = ctypes.CDLL(libs[0])
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def _pin_heap() -> None:
    """Pin glibc's mmap (-3) and trim (-1) thresholds, which it otherwise raises
    as large blocks are freed, and keep one arena (-8), so that the encoder
    worker reuses the heap too: see "Heap thresholds" in the README."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform == "linux" else None
    if mallopt is not None:
        mallopt(-3, 32 << 20)
        mallopt(-1, 64 << 20)
        mallopt(-8, 1)


_pin_heap()


@dataclass
class ForwardResult:
    logits: Tensor  # (B, C)
    kl: Tensor | None  # scalar, present only when the generator ran


def _adapter_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    shapes = P.param_shapes(cfg) if cfg.prompt_dom else {}
    if cfg.prompt_inst:
        shapes.update(V.param_shapes(cfg))
    return shapes


def adapter_params(cfg: ModelConfig, streams: SeededStreams) -> Params:
    """Fresh adapter groups of `cfg`: domain prompts when k_dom > 0, the
    latent generator when k_inst > 0, each drawn from its own named stream."""
    with B.allocating(lambda: _adapter_shapes(cfg)):
        params = P.init_domain_prompts(cfg, streams) if cfg.prompt_dom else {}
        if cfg.prompt_inst:
            params.update(V.init_vae(cfg, streams))
    return params


def param_fault(cfg: ModelConfig, params: Mapping[str, Tensor | np.ndarray]) -> str | None:
    """The first way `params` is not a model of `cfg`, or None: the one rule,
    which the constructor and every checkpoint apply. A model holds the
    backbone and head, plus no adapters or exactly the groups `adapter_params`
    draws, each tensor in the shape the config implies."""
    if cfg.depth > len(params):  # every layer holds tensors; this bounds each listing below
        return f"has {len(params)} tensor(s), too few for the {cfg.depth} layers of its config"
    adapters, expected = _adapter_shapes(cfg), B.param_shapes(cfg)
    if adapters.keys() & params.keys():
        expected.update(adapters)
    for problem, found in (("lacks tensor", expected.keys() - params.keys()),
                           ("has unexpected tensor", params.keys() - expected.keys())):
        if found:
            return f"{problem}(s) {', '.join(map(repr, sorted(found)))}"
    for name, shape in expected.items():
        if params[name].shape != shape:
            return f"tensor {name!r} has shape {params[name].shape}, its config implies {shape}"
    return None


class PromptedClassifier:
    """Parameter container plus the prompted forward pass; its parameters
    are a model of its config, as `param_fault` states."""

    def __init__(self, cfg: ModelConfig, params: Params):
        if (fault := param_fault(cfg, params)) is not None:
            raise ConfigError(f"model {fault}")
        self.cfg = cfg
        self.params = params

    # -- construction ------------------------------------------------------

    @classmethod
    def init(cls, cfg: ModelConfig, streams: SeededStreams) -> "PromptedClassifier":
        """Backbone and head only: a model to pretrain."""
        return cls(cfg, B.init_backbone(cfg, streams))

    @classmethod
    def from_pretrained(
        cls, pre: "PromptedClassifier", cfg: ModelConfig, streams: SeededStreams
    ) -> "PromptedClassifier":
        """Transfer setup: the backbone of `pre`, frozen, and its head, plus
        fresh adapters.

        The arrays are shared, not copied: none is ever written into, and a
        step replaces the head's tensors, so training leaves `pre` as it was.
        Any adapters the source model carried are dropped; the new ones are
        drawn from `streams` so two transfers with the same seed match.
        """
        for name in ("image_size", "patch_size", "in_channels", "num_classes",
                     "depth", "dim", "heads", "mlp_ratio"):
            have, want = getattr(pre.cfg, name), getattr(cfg, name)
            if have != want:
                raise ConfigError(
                    f"pretrained backbone disagrees on {name}: checkpoint has {have}, config wants {want}"
                )
        params = {
            n: Tensor(p.data, requires_grad=n.startswith("head."))
            for n, p in pre.params.items()
            if n.startswith("backbone.") or n.startswith("head.")
        }
        return cls(cfg, {**params, **adapter_params(cfg, streams)})

    def freeze(self) -> frozenset[str]:
        return B.freeze_backbone(self.params)

    @property
    def frozen(self) -> frozenset[str]:
        """The freeze mask: names of the parameters that take no gradient."""
        return frozenset(n for n, p in self.params.items() if not p.requires_grad)

    @property
    def has_prompts(self) -> bool:
        return "prompts.0" in self.params

    @property
    def has_generator(self) -> bool:
        return "vae.enc.w1" in self.params

    @property
    def active_budget(self) -> int:
        """Prompt tokens in each layer's context: k with the adapters, 0 without."""
        return self.cfg.prompt_len if self.has_prompts or self.has_generator else 0

    def trainables(self) -> Params:
        return {n: p for n, p in sorted(self.params.items()) if p.requires_grad}

    def frozen_digest(self) -> str:
        return B.frozen_digest(self.params, self.frozen)

    # -- forward -----------------------------------------------------------

    def posterior(self, images: np.ndarray) -> tuple[Tensor, V.LatentDistribution | None]:
        """Patch embeddings of a pixel batch and, with a generator, the latent
        posterior over them (None without one)."""
        embeddings = B.patch_embed(images, self.params, self.cfg)
        if not self.has_generator:
            return embeddings, None
        return embeddings, V.encode(V.pool_input_embeddings(embeddings), self.params, self.cfg)

    def _prelude(
        self, images: np.ndarray, rng: np.random.Generator | None
    ) -> tuple[Tensor, list[list[Tensor]], Tensor | None]:
        """The [CLS | patches] rows every layer carries, each layer's prompt
        blocks, and the KL (None without a generator)."""
        cfg, batch = self.cfg, images.shape[0]
        embeddings, dist = self.posterior(images)
        inst = dom = kl = None
        if dist is not None:
            inst = V.decode(V.reparameterize(dist, rng), self.params, cfg)
            # after the decoder, so that the tape keeps the order its gradients sum in
            kl = V.kl_divergence(dist)
        if self.has_prompts:
            dom = [expand_leading(self.params[f"prompts.{i}"], batch) for i in range(cfg.depth)]
        composed = V.compose_prompts(inst, dom) or [[] for _ in range(cfg.depth)]
        x = P.merge_sequence(expand_leading(self.params["backbone.cls"], batch), embeddings)
        return x, composed, kl

    def forward(self, images: np.ndarray, rng: np.random.Generator | None = None) -> ForwardResult:
        """Run the model on a pixel batch.

        With `rng` the latent is sampled from it (training); without one it is
        the posterior mean (evaluation). Nothing else differs: there is no
        dropout.

        With no tape open in the calling thread, where OpenBLAS may run more
        than one thread, a batch of at least 2 * SPLIT_IMAGES images runs its
        encoder layers on two row ranges at once, one on a worker thread that
        ends before the forward returns, with OpenBLAS at one thread for the
        whole forward. The values are those of the sequential path, bit for bit.
        """
        if images.ndim != 4:
            raise ShapeError(f"expected (B, H, W, C) pixels, got {images.shape}")
        split = images.shape[0] // (2 * SPLIT_IMAGES) * SPLIT_IMAGES
        blas = _blas_threads() if split and active_tape() is None else None
        threads = blas[0]() if blas else 1
        if threads < 2:  # on one core the two ranges would only take turns
            return self._forward(images, rng, 0)
        set_threads = blas[1]
        set_threads(1)  # a second BLAS thread would spin on the worker's core
        try:
            return self._forward(images, rng, split)
        finally:
            set_threads(threads)

    def _forward(self, images: np.ndarray, rng: np.random.Generator | None, split: int) -> ForwardResult:
        batch = images.shape[0]
        x, composed, kl = self._prelude(images, rng)
        if split:
            # the rows of different images never meet in the encoder layers
            def layers(lo: int, hi: int) -> Tensor:
                blocks = [[slice_axis(p, 0, lo, hi) for p in ps] for ps in composed]
                return self._encoder(slice_axis(x, 0, lo, hi), blocks)

            # a worker per forward, joined before it returns: a child forked
            # later inherits no executor whose thread it lacks
            with futures.ThreadPoolExecutor(1, thread_name_prefix="v2apt-encoder") as worker:
                tail = worker.submit(layers, split, batch)
                head = layers(0, split)
            x = concat([head, tail.result()], axis=0)
        else:
            x = self._encoder(x, composed)
        cls_out = B.final_norm(x, self.params).reshape(batch, self.cfg.dim)
        return ForwardResult(logits=B.classify(cls_out, self.params), kl=kl)

    def _encoder(self, x: Tensor, composed: list[list[Tensor]]) -> Tensor:
        cfg = self.cfg
        for i in range(cfg.depth):
            # CLS and patches carry all cross-layer state; each layer's fresh
            # prompt blocks join its keys and values only. The head reads only
            # CLS: the last layer runs its queries and MLP on that row alone.
            rows = 1 if i == cfg.depth - 1 else None
            x = B.encoder_layer_forward(i, x, self.params, cfg, rows=rows, prompts=composed[i])
        return x

    def probe_layers(
        self, images: np.ndarray, layers: Sequence[int]
    ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Eval mode, for analysis: layer -> (its composed prompt inputs
        (B, k, d), its output patch tokens (B, P, d)) as plain arrays, for
        each of `layers`. Runs the layers up to the deepest one listed, each
        on every carried row."""
        cfg = self.cfg
        if not all(0 <= i < cfg.depth for i in layers):
            raise ValidationError(f"layers {list(layers)} out of range [0, {cfg.depth})")
        x, composed, _ = self._prelude(images, None)
        probes: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for i in range(max(layers, default=-1) + 1):
            x = B.encoder_layer_forward(i, x, self.params, cfg, prompts=composed[i])
            if i in layers:
                blocks = [p.data for p in composed[i]] or [np.zeros((x.shape[0], 0, cfg.dim))]
                probes[i] = (np.concatenate(blocks, axis=-2), x.data[:, 1:].copy())
        return probes

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Eval-mode class predictions; ties resolve to the lowest index. A partial
        last chunk may differ in low bits from a full one (README, "Chunked predict")."""
        out = []
        for lo in range(0, images.shape[0], EVAL_CHUNK):
            logits = self.forward(images[lo:lo + EVAL_CHUNK]).logits.data
            out.append(np.argmax(logits, axis=1))
        return np.concatenate(out) if out else np.zeros(0, dtype=np.int64)
