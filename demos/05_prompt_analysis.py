"""
Looking inside: similarity maps and the latent posterior
========================================================

Two diagnostics probe what the prompts learned. Cosine similarity maps show
how strongly each prompt token aligns with each patch feature inside a
layer. Latent statistics show whether the per-image generator actually uses
its latent space or collapsed to the prior.
"""

# %%
# Set up the transfer pair the diagnostics are about: pretrain on shift-A,
# freeze, then tune composed prompts and a static-prompt baseline on
# shift-B. Reduced budgets keep this under a minute.

import dataclasses
import tempfile
from pathlib import Path

import numpy as np

from v2apt import (
    PromptedClassifier,
    RunConfig,
    SeededStreams,
    Trainer,
    default_config,
    evaluate,
    generate,
    preset,
    split,
)

cfg = default_config()
source = generate(preset("shift-A"), seed=0)
target = generate(preset("shift-B"), seed=0)
train_ds, test_ds = split(target, train_frac=0.8, seed=0)

pre = PromptedClassifier.init(cfg, SeededStreams(0))
Trainer(pre, RunConfig(seed=0, batch_size=64, steps=300), source).train()

def tuned(**overrides):
    c = dataclasses.replace(cfg, **overrides)
    model = PromptedClassifier.from_pretrained(pre, c, SeededStreams(0))
    Trainer(model, RunConfig(seed=0, batch_size=64, steps=200), train_ds).train()
    return model

model = tuned()                    # 4 generated + 4 static tokens
baseline = tuned(prompt_inst=0)    # 8 static tokens
print("test accuracy: composed", evaluate(model, test_ds),
      "| static", evaluate(baseline, test_ds))

# %%
# A similarity map for one image at the final layer: rows are the composed
# prompt tokens entering the layer (generated rows first, then static),
# columns are the layer's output patch tokens. Values are cosine
# similarities, clipped to [-1, 1].

from v2apt import mean_similarity, model_similarity_map

sim = model_similarity_map(model, target.images, index=0)
print("map shape (prompts x patches):", sim.shape)
print("mean similarity:", f"{mean_similarity(sim):.4f}")
print("rounded map:")
print(np.round(sim, 2))

# %%
# Maps export to CSV (9 significant digits) and binary PGM (the [-1, 1]
# range mapped affinely onto 0..255, so mid-gray means orthogonal). Both
# exports are byte-stable: the same checkpoint and input always produce the
# same file.

from v2apt import export_map, load_map_csv

with tempfile.TemporaryDirectory() as tmp:
    csv_path, pgm_path = Path(tmp) / "map.csv", Path(tmp) / "map.pgm"
    export_map(sim, csv_path, "csv")
    export_map(sim, pgm_path, "pgm")
    drift = np.abs(load_map_csv(csv_path) - sim).max()
    print(f"csv round-trip drift: {drift:.1e}")
    print("pgm header:", pgm_path.read_bytes()[:12])

# %%
# Posterior statistics over the target set: per-dimension variance of mu,
# the mean KL to the standard-normal prior, and how many latent dimensions
# actually vary across inputs (variance above 0.01). Zero active dimensions
# would mean posterior collapse — prompts carrying no instance information.
# On a real shift the generator keeps its dimensions alive, because which
# patches are distorted differs image by image.

from v2apt import latent_stats

stats = latent_stats(model, target)
print("mu variance per dimension:", np.round(stats.mu_var, 3))
print(f"active dimensions: {stats.active_dims}/{cfg.latent_dim}, "
      f"mean KL {stats.mean_kl:.3f}")

# %%
# Finally the with/without comparison on identical inputs: mean prompt-patch
# similarity for the composed-prompt model against the static baseline. The
# claim is directional — generated prompts should sit closer to the features
# they steer — so the numbers are reported, not asserted.

from v2apt import compare_mean_similarity

report = compare_mean_similarity(model, baseline, target.images, indices=list(range(8)))
print({k: round(v, 4) for k, v in report.items()})
