"""Static domain prompts and the token layout of the deep prompted encoder.

Every encoder layer attends over the same layout: [CLS | patches | prompts].
Only the CLS and patch rows are carried from layer to layer; each layer's
fresh prompt blocks (`vae.compose_prompts` orders them; the model's
parameter shapes fix the token budget k) join its keys and values alone, so
k is constant across depth and no prompt output is ever computed. `SequenceLayout`, `splice_prompts` and
`strip_prompt_tokens` have no caller in the package.
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
    """Segment sizes of the [CLS | patches | prompts] context of a layer."""

    prompt_len: int
    num_patches: int

    @property
    def prompts_at(self) -> int:
        """Rows before the prompt segment: CLS and the patches."""
        return 1 + self.num_patches

    @property
    def total(self) -> int:
        return self.prompts_at + self.prompt_len

    def check(self, tokens: Tensor) -> None:
        if tokens.shape[-2] != self.total:
            raise ShapeError(
                f"sequence length {tokens.shape[-2]} does not match layout of {self.total} tokens"
            )


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of the per-layer domain prompts, k_dom x d each."""
    return {f"prompts.{i}": (cfg.prompt_dom, cfg.dim) for i in range(cfg.depth)}


def init_domain_prompts(cfg: ModelConfig, streams: SeededStreams) -> Params:
    """Per-layer domain prompts, uniform in [-v, v] with v = sqrt(6 / (d + d))."""
    rng = streams.generator("init.prompts")
    limit = np.sqrt(6.0 / (cfg.dim + cfg.dim))
    return {
        name: Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)
        for name, shape in param_shapes(cfg).items()
    }


# kept without a caller: perfbench's DETAIL_SPANS wraps it by name
def splice_prompts(prompts: Tensor, stripped: Tensor, layout: SequenceLayout) -> Tensor:
    """Append prompt rows after the CLS and patch segments of a batch."""
    if stripped.shape[-2] != layout.prompts_at:
        raise ShapeError(
            f"expected CLS + {layout.num_patches} patch tokens, got {stripped.shape[-2]}"
        )
    if layout.prompt_len == 0:
        return stripped
    if prompts.shape[-2] != layout.prompt_len or prompts.shape[-1] != stripped.shape[-1]:
        raise ShapeError(f"prompt block {prompts.shape} does not fit layout k={layout.prompt_len}")
    return T.concat([stripped, prompts], axis=-2)


# kept without a caller: perfbench's DETAIL_SPANS wraps it by name
def strip_prompt_tokens(tokens: Tensor, layout: SequenceLayout) -> Tensor:
    """Drop the prompt segment, keeping CLS and patch tokens in order."""
    layout.check(tokens)
    if layout.prompt_len == 0:
        return tokens
    return T.slice_axis(tokens, -2, 0, layout.prompts_at)


def merge_sequence(cls: Tensor, embeddings: Tensor) -> Tensor:
    """Assemble [CLS | patches], the rows every layer carries."""
    return T.concat([cls, embeddings], axis=-2)
