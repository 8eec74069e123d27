"""Static domain prompts and deep prompt injection.

Every encoder layer sees the same token layout: [CLS | prompts | patches].
Prompt outputs of a layer are discarded; the next layer gets that layer's
fresh prompt rows spliced into the same segment, so the token budget k is
constant across depth and the CLS/patch lanes carry all cross-layer state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbone import Params
from .config import ModelConfig
from .errors import ShapeError
from .rng import SeededStreams
from .tensor import Tensor


@dataclass(frozen=True)
class SequenceLayout:
    """Offsets of the [CLS | prompts | patches] segments in a token sequence."""

    prompt_len: int
    num_patches: int

    @property
    def patches_at(self) -> int:
        return 1 + self.prompt_len

    @property
    def total(self) -> int:
        return 1 + self.prompt_len + self.num_patches

    def check(self, tokens: Tensor) -> None:
        if tokens.shape[-2] != self.total:
            raise ShapeError(
                f"sequence length {tokens.shape[-2]} does not match layout of {self.total} tokens"
            )


def init_domain_prompts(cfg: ModelConfig, streams: SeededStreams) -> Params:
    """Per-layer domain prompts, uniform in [-v, v] with v = sqrt(6 / (d + d))."""
    rng = streams.generator("init.prompts")
    limit = np.sqrt(6.0 / (cfg.dim + cfg.dim))
    return {
        f"prompts.{i}": Tensor(
            rng.uniform(-limit, limit, size=(cfg.prompt_dom, cfg.dim)), requires_grad=True
        )
        for i in range(cfg.depth)
    }


def splice_prompts(prompts: Tensor, stripped: Tensor, layout: SequenceLayout) -> Tensor:
    """Insert prompt rows between the CLS and patch segments of a batch."""
    if stripped.shape[-2] != 1 + layout.num_patches:
        raise ShapeError(
            f"expected CLS + {layout.num_patches} patch tokens, got {stripped.shape[-2]}"
        )
    if layout.prompt_len == 0:
        return stripped
    if prompts.shape[-2] != layout.prompt_len or prompts.shape[-1] != stripped.shape[-1]:
        raise ShapeError(f"prompt block {prompts.shape} does not fit layout k={layout.prompt_len}")
    cls = T.slice_axis(stripped, -2, 0, 1)
    patches = T.slice_axis(stripped, -2, 1, 1 + layout.num_patches)
    return T.concat([cls, prompts, patches], axis=-2)


def strip_prompt_tokens(tokens: Tensor, layout: SequenceLayout) -> Tensor:
    """Drop the prompt segment, keeping CLS and patch tokens in order."""
    layout.check(tokens)
    if layout.prompt_len == 0:
        return tokens
    cls = T.slice_axis(tokens, -2, 0, 1)
    patches = T.slice_axis(tokens, -2, layout.patches_at, layout.total)
    return T.concat([cls, patches], axis=-2)


def patch_tokens(tokens: Tensor, layout: SequenceLayout) -> Tensor:
    layout.check(tokens)
    return T.slice_axis(tokens, -2, layout.patches_at, layout.total)


def cls_token(tokens: Tensor, layout: SequenceLayout) -> Tensor:
    layout.check(tokens)
    return T.slice_axis(tokens, -2, 0, 1)


def merge_sequence(cls: Tensor, prompts: Tensor | None, embeddings: Tensor) -> Tensor:
    """Assemble [CLS; prompts; patches]; prompts may be absent or empty."""
    if prompts is None or prompts.shape[-2] == 0:
        return T.concat([cls, embeddings], axis=-2)
    return T.concat([cls, prompts, embeddings], axis=-2)

