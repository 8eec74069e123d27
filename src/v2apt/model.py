"""Full classifier: frozen-or-trainable backbone, prompts, latent generator.

One class covers every training flavor by which parameter groups exist:

- backbone + head only: plain ViT (the pretraining phase, or head-only tuning
  when the backbone is frozen);
- plus domain prompts: the deep prompting baseline;
- plus the latent generator: instance prompts composed with domain prompts.

With `prompt_inst = 0` the generator is never built, so that configuration is
the baseline itself, not an emulation of it: same parameters, same tape, same
random draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import backbone as B
from . import prompts as P
from . import vae as V
from .config import ModelConfig
from .errors import ConfigError, ShapeError
from .rng import SeededStreams
from .tensor import Tensor, expand_leading, slice_axis

Params = dict[str, Tensor]

# images per eval-mode forward in `predict` and `analysis.latent_stats`
EVAL_CHUNK = 256


@dataclass
class ForwardResult:
    logits: Tensor  # (B, C)
    kl: Tensor | None  # scalar, present only when the generator ran
    latent: V.LatentDistribution | None
    # layer -> (composed prompt inputs (B, k, d), output patch tokens (B, P, d))
    captures: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


class PromptedClassifier:
    """Parameter container plus the prompted forward pass."""

    def __init__(self, cfg: ModelConfig, params: Params):
        self.cfg = cfg.validate()
        self.params = params

    # -- construction ------------------------------------------------------

    @classmethod
    def init(cls, cfg: ModelConfig, streams: SeededStreams) -> "PromptedClassifier":
        """Backbone and head only; adapters are installed separately."""
        return cls(cfg, B.init_backbone(cfg, streams))

    @classmethod
    def from_pretrained(
        cls, pre: "PromptedClassifier", cfg: ModelConfig, streams: SeededStreams
    ) -> "PromptedClassifier":
        """Transfer setup: keep backbone and head weights, re-init adapters.

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
            n: Tensor(p.data.copy(), requires_grad=True)
            for n, p in pre.params.items()
            if n.startswith("backbone.") or n.startswith("head.")
        }
        model = cls(cfg, params)
        model.install_adapters(streams)
        model.freeze()
        return model

    def install_adapters(self, streams: SeededStreams) -> None:
        """Add the parameter groups the config calls for (idempotent)."""
        cfg = self.cfg
        if cfg.prompt_dom > 0 and "prompts.0" not in self.params:
            self.params.update(P.init_domain_prompts(cfg, streams))
        if cfg.prompt_inst > 0 and "vae.enc.w1" not in self.params:
            self.params.update(V.init_vae(cfg, streams))

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
        """Prompt tokens actually present in the sequence."""
        k = 0
        if self.has_generator:
            k += self.cfg.prompt_inst
        if self.has_prompts:
            k += self.cfg.prompt_dom
        return k

    def trainables(self) -> Params:
        return {n: p for n, p in sorted(self.params.items()) if p.requires_grad}

    def frozen_digest(self) -> str:
        return B.frozen_digest(self.params, self.frozen)

    # -- forward -----------------------------------------------------------

    def _composed_prompts(
        self, embeddings: Tensor, batch: int, rng: np.random.Generator | None
    ) -> tuple[list[list[Tensor]], Tensor | None, V.LatentDistribution | None]:
        cfg = self.cfg
        inst = dom = None
        kl = dist = None
        if self.has_generator:
            pooled = V.pool_input_embeddings(embeddings)
            dist = V.encode(pooled, self.params, cfg)
            z = V.reparameterize(dist, rng)
            inst = V.decode(z, self.params, cfg)
            kl = V.kl_divergence(dist)
        if self.has_prompts:
            dom = [
                expand_leading(self.params[f"prompts.{i}"], batch) for i in range(cfg.depth)
            ]
        return V.compose_prompts(inst, dom, cfg), kl, dist

    def forward(
        self,
        images: np.ndarray,
        rng: np.random.Generator | None = None,
        capture_layers: Sequence[int] = (),
    ) -> ForwardResult:
        """Run the model on a pixel batch.

        With `rng` the latent is sampled from it (training); without one it is
        the posterior mean (evaluation). Nothing else differs: there is no
        dropout. With `capture_layers`, the composed prompt inputs and output
        patch tokens of those layers are returned as plain arrays for analysis.
        """
        cfg = self.cfg
        if images.ndim != 4:
            raise ShapeError(f"expected (B, H, W, C) pixels, got {images.shape}")
        batch = images.shape[0]
        embeddings = B.patch_embed(images, self.params, cfg)
        composed, kl, dist = self._composed_prompts(embeddings, batch, rng)
        x = P.merge_sequence(expand_leading(self.params["backbone.cls"], batch), embeddings)

        captures: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # the head reads only CLS: the last layer runs its queries and MLP on
        # that row alone, unless its patch tokens are captured
        cls_only = cfg.depth - 1 not in capture_layers
        for i in range(cfg.depth):
            # CLS and patches carry all cross-layer state; each layer's fresh
            # prompt blocks join its keys and values only
            rows = 1 if cls_only and i == cfg.depth - 1 else None
            x = B.encoder_layer_forward(i, x, self.params, cfg, rows=rows, prompts=composed[i])
            if i in capture_layers:
                blocks = [p.data for p in composed[i]] or [np.zeros((batch, 0, cfg.dim))]
                prompt_in = np.concatenate(blocks, axis=-2)
                captures[i] = (prompt_in, x.data[:, 1:].copy())

        if not cls_only:
            x = slice_axis(x, -2, 0, 1)
        cls_out = B.final_norm(x, self.params).reshape(batch, cfg.dim)
        logits = B.classify(cls_out, self.params)
        return ForwardResult(logits=logits, kl=kl, latent=dist, captures=captures)

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Eval-mode class predictions; ties resolve to the lowest index."""
        out = []
        for lo in range(0, images.shape[0], EVAL_CHUNK):
            logits = self.forward(images[lo:lo + EVAL_CHUNK]).logits.data
            out.append(np.argmax(logits, axis=1))
        return np.concatenate(out) if out else np.zeros(0, dtype=np.int64)
