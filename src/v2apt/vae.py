"""Latent prompt generator: encoder to a diagonal Gaussian, sampler, decoder.

The encoder maps the mean-pooled frozen patch embedding of an image to
(mu, logvar); a latent draw (sampled when given an rng, mu without one)
decodes in one shot to all N layers' instance prompt blocks. `compose_prompts`
is the one place that assembles each layer's prompts: the instance block before
the shared domain block, under the fixed token budget. The blocks stay
separate; each encoder layer concatenates them into its context once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import tensor as T
from .backbone import Params
from .config import ModelConfig
from .errors import ConfigError, ShapeError
from .rng import SeededStreams
from .tensor import Tensor

LOGVAR_LO = -10.0
LOGVAR_HI = 10.0


@dataclass
class LatentDistribution:
    """Diagonal Gaussian over the latent space; logvar is clamped on creation."""

    mu: Tensor  # (..., z)
    logvar: Tensor  # (..., z), natural log of the variance

    def __post_init__(self):
        if self.mu.shape != self.logvar.shape:
            raise ShapeError(f"mu {self.mu.shape} and logvar {self.logvar.shape} differ")


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of the encoder d -> h -> 2z and decoder z -> h -> N*k_inst*d."""
    d, h, z = cfg.dim, cfg.vae_hidden, cfg.latent_dim
    out = cfg.depth * cfg.prompt_inst * cfg.dim
    return {
        "vae.enc.w1": (d, h), "vae.enc.b1": (h,), "vae.enc.w2": (h, 2 * z), "vae.enc.b2": (2 * z,),
        "vae.dec.w1": (z, h), "vae.dec.b1": (h,), "vae.dec.w2": (h, out), "vae.dec.b2": (out,),
    }


def init_vae(cfg: ModelConfig, streams: SeededStreams) -> Params:
    """Xavier-uniform matrices and zero biases, all trainable."""
    rng = streams.generator("init.vae")

    def init(shape: tuple[int, ...]) -> np.ndarray:
        if len(shape) == 1:
            return np.zeros(shape)
        limit = np.sqrt(6.0 / sum(shape))
        return rng.uniform(-limit, limit, size=shape)

    return {n: Tensor(init(shape), requires_grad=True) for n, shape in param_shapes(cfg).items()}


def pool_input_embeddings(embeddings: Tensor) -> Tensor:
    """Arithmetic mean over the patch axis: (..., num_patches, d) -> (..., d)."""
    if embeddings.shape[-2] == 0:
        raise ShapeError("cannot pool zero patch embeddings")
    return embeddings.mean(axis=-2)


def encode(x: Tensor, params: Mapping[str, Tensor], cfg: ModelConfig) -> LatentDistribution:
    """GELU-hidden MLP to 2z values, split into mu and clamped logvar."""
    if x.shape[-1] != cfg.dim:
        raise ShapeError(f"encoder input width {x.shape[-1]} does not match d={cfg.dim}")
    both = T.mlp(x, params["vae.enc.w1"], params["vae.enc.b1"],
                 params["vae.enc.w2"], params["vae.enc.b2"])
    z = cfg.latent_dim
    mu = T.slice_axis(both, -1, 0, z)
    logvar = T.clamp(T.slice_axis(both, -1, z, 2 * z), LOGVAR_LO, LOGVAR_HI)
    return LatentDistribution(mu=mu, logvar=logvar)


def reparameterize(dist: LatentDistribution, rng: np.random.Generator | None = None) -> Tensor:
    """Z = mu + exp(logvar/2) * eps with eps drawn from `rng`; Z = mu exactly
    without one.

    Training passes an rng and evaluation does not, so the rng alone decides
    whether the latent is sampled. eps is a tape constant: gradients reach mu
    and logvar only.
    """
    if rng is None:
        return dist.mu
    std = T.texp(dist.logvar * 0.5)
    return dist.mu + std * T.gaussian(dist.mu.shape, rng)


def decode(z: Tensor, params: Mapping[str, Tensor], cfg: ModelConfig) -> list[Tensor]:
    """Latent draw -> N instance prompt blocks of k_inst x d, layer-major."""
    if z.shape[-1] != cfg.latent_dim:
        raise ShapeError(f"decoder input width {z.shape[-1]} does not match z={cfg.latent_dim}")
    flat = T.mlp(z, params["vae.dec.w1"], params["vae.dec.b1"],
                 params["vae.dec.w2"], params["vae.dec.b2"])
    k = cfg.prompt_inst
    rows = flat.reshape(*z.shape[:-1], cfg.depth * k, cfg.dim)
    return [T.slice_axis(rows, -2, i * k, (i + 1) * k) for i in range(cfg.depth)]


def kl_divergence(dist: LatentDistribution) -> Tensor:
    """Closed-form KL(N(mu, sigma^2) || N(0, I)), summed over latent dims.

    For batched inputs the per-sample divergences are averaged, giving the
    scalar regularizer added to the task loss.
    """
    term = dist.mu * dist.mu + T.texp(dist.logvar) - 1.0 - dist.logvar
    per_sample = term.sum(axis=-1) * 0.5
    if per_sample.ndim == 0:
        return per_sample
    return per_sample.mean()


def kl_monte_carlo(mu: np.ndarray, logvar: np.ndarray, n_samples: int, seed: int = 0) -> float:
    """Estimate E_q[log q(Z) - log p(Z)] by sampling; the oracle for the
    closed form.

    Two standard variance reductions keep the estimate inside a 0.01 gate at
    1e6 samples even for logvar around 2, where naive sampling has a standard
    error above that: antithetic pairing (+eps with -eps cancels the odd
    cross term exactly) and per-dimension stratified draws, eps = ndtri of
    jittered equal-probability bins. Stratifying each dimension on its own is
    sound because log q - log p of a diagonal Gaussian is a sum of
    per-dimension terms. The integrand itself never touches the closed form.
    """
    from scipy.special import ndtri  # here, so that float32 runs never load scipy.special

    mu = np.asarray(mu, dtype=np.float64).reshape(-1)
    logvar = np.asarray(logvar, dtype=np.float64).reshape(-1)
    sigma = np.exp(0.5 * logvar)
    rng = SeededStreams(seed).generator("kl_mc")
    half = max(1, n_samples // 2)
    total = 0.0
    for m, lv, s in zip(mu, logvar, sigma):
        # jitter floor keeps u strictly inside (0, 1); ndtri(0) is -inf
        u = (np.arange(half) + rng.random(half).clip(1e-12, None)) / half
        eps = ndtri(u)
        for signed in (eps, -eps):
            z = m + s * signed
            # log q - log p = -0.5*(logvar + eps^2) + 0.5*z^2 per dimension
            total += np.sum(-0.5 * (lv + signed**2) + 0.5 * z**2)
    return float(total / (2 * half))


def compose_prompts(
    inst: Sequence[Tensor] | None, dom: Sequence[Tensor] | None, cfg: ModelConfig
) -> list[list[Tensor]]:
    """Per layer, the prompt blocks [instance rows, domain rows]; enforces the budget.

    An absent side (None) contributes no block. With instance rows present a
    layer's rows add up to k = `prompt_len`; with domain rows alone they add
    up to `prompt_dom`, so `prompt_inst = 0` is the deep prompting baseline
    itself. With neither side there are no prompts and nothing to check.
    """
    sides = [side for side in (inst, dom) if side is not None]
    for side in sides:
        if len(side) != cfg.depth:
            raise ConfigError(f"expected {cfg.depth} prompt blocks per side, got {len(side)}")
    if not sides:
        return [[] for _ in range(cfg.depth)]
    budget = cfg.prompt_len if inst is not None else cfg.prompt_dom
    layers = [list(blocks) for blocks in zip(*sides)]
    for i, blocks in enumerate(layers):
        rows = [b.shape[-2] for b in blocks]
        if sum(rows) != budget:
            raise ConfigError(
                f"layer {i}: token budget violated, {' + '.join(map(str, rows))} != k = {budget}"
            )
    return layers
