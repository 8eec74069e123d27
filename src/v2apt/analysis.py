"""Prompt/patch cosine-similarity maps and latent-space statistics.

The map for layer L relates the composed prompt tokens fed INTO layer L to
the patch tokens coming OUT of it, one row per prompt, one column per patch.
Exports are deterministic: CSV at 9 significant digits, binary PGM with the
affine [-1, 1] -> [0, 255] byte mapping (round half up).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ShapeError, ValidationError
from .model import EVAL_CHUNK, PromptedClassifier
from .vae import kl_divergence

_FORMATS = ("csv", "pgm")


def cosine_similarity_map(prompt_tokens: np.ndarray, patch_features: np.ndarray) -> np.ndarray:
    """The (k, num_patches) float64 map: entry (i, j) = <p_i, f_j> / (|p_i| |f_j|),
    in [-1, 1]; zero-norm rows give 0."""
    p = np.asarray(prompt_tokens, dtype=np.float64)
    f = np.asarray(patch_features, dtype=np.float64)
    if p.ndim != 2 or f.ndim != 2 or p.shape[1] != f.shape[1]:
        raise ShapeError(f"width mismatch: prompts {p.shape} vs features {f.shape}")
    pn = np.linalg.norm(p, axis=1)
    fn = np.linalg.norm(f, axis=1)
    denom = np.outer(pn, fn)
    values = np.zeros((p.shape[0], f.shape[0]))
    nz = denom > 0.0
    values[nz] = (p @ f.T)[nz] / denom[nz]
    np.clip(values, -1.0, 1.0, out=values)  # shave float wobble just past +/-1
    return values


def mean_similarity(sim: np.ndarray) -> float:
    if sim.size == 0:
        raise ValidationError("similarity map is empty")
    return float(sim.mean())


def export_map(sim: np.ndarray, path, format: str) -> None:
    if format not in _FORMATS:
        raise ValidationError(f"unknown export format {format!r}; one of {_FORMATS}")
    k, n = sim.shape
    if format == "csv":
        lines = [",".join(str(j) for j in range(n))]
        for row in sim:
            lines.append(",".join(f"{x:.8e}" for x in row))
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write("\n".join(lines) + "\n")
    else:
        # affine [-1, 1] -> [0, 255], round half up, so 0.0 maps to 128
        scaled = (sim + 1.0) * 0.5 * 255.0
        bytes_ = np.clip(np.floor(scaled + 0.5), 0, 255).astype(np.uint8)
        header = f"P5\n{n} {k}\n255\n".encode("ascii")
        with open(path, "wb") as f:
            f.write(header + bytes_.tobytes())


def load_map_csv(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln for ln in f.read().splitlines() if ln]
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    return np.array(rows, dtype=np.float64)


def model_similarity_map(
    model: PromptedClassifier, images: np.ndarray, index: int, layer: int | None = None
) -> np.ndarray:
    """Map for one input image at one layer (default: the final layer)."""
    if model.active_budget == 0:
        raise ValidationError("model has no prompt tokens; nothing to map")
    if not 0 <= index < images.shape[0]:
        raise ValidationError(f"image index {index} out of range [0, {images.shape[0]})")
    layer = model.cfg.depth - 1 if layer is None else layer
    prompts_in, patches_out = model.probe_layers(images[index:index + 1], (layer,))[layer]
    return cosine_similarity_map(prompts_in[0], patches_out[0])


@dataclass
class LatentStats:
    mu_mean: np.ndarray  # (z,)
    mu_var: np.ndarray  # (z,) variance of mu across inputs
    mean_kl: float
    active_dims: int  # dimensions with mu variance above the floor

    ACTIVE_FLOOR = 0.01


def latent_stats(model: PromptedClassifier, ds: Dataset) -> LatentStats:
    """Eval-mode posterior statistics over a dataset; collapse diagnostic."""
    if not model.has_generator:
        raise ValidationError("model has no latent generator")
    if len(ds) == 0:
        raise ValidationError("empty dataset")
    mus, kls = [], []
    for lo in range(0, len(ds), EVAL_CHUNK):
        _, dist = model.posterior(ds.images[lo:lo + EVAL_CHUNK])
        mus.append(dist.mu.data.astype(np.float64))
        kls.append(float(kl_divergence(dist).item()) * dist.mu.shape[0])
    mu = np.concatenate(mus)
    mu_var = mu.var(axis=0)
    return LatentStats(
        mu_mean=mu.mean(axis=0),
        mu_var=mu_var,
        mean_kl=float(sum(kls) / len(ds)),
        active_dims=int((mu_var > LatentStats.ACTIVE_FLOOR).sum()),
    )


def compare_mean_similarity(
    with_generator: PromptedClassifier,
    baseline: PromptedClassifier,
    images: np.ndarray,
    indices: list[int] | None = None,
) -> dict[str, float]:
    """Mean final-layer prompt/patch similarity for the two flavors on
    identical inputs.

    Reported, not asserted: the expectation is directional only (generated
    prompts should sit closer to the patch features they steer).
    """
    idxs = list(range(images.shape[0])) if indices is None else indices
    def mean_over(model):
        vals = [mean_similarity(model_similarity_map(model, images, i)) for i in idxs]
        return float(np.mean(vals))

    return {
        "with_vae": mean_over(with_generator),
        "without_vae": mean_over(baseline),
    }
