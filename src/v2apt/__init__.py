"""Instance-dependent visual prompting for a frozen miniature vision transformer.

The package trains a small ViT on synthetic tasks, freezes it, and adapts it
to shifted tasks by tuning prompt tokens: static per-task prompts (the deep
prompting baseline) optionally composed with per-image prompts decoded from a
VAE latent. Everything underneath — the tape autodiff, the transformer, the
optimizer, the file formats — is self-contained on numpy/scipy and bit-
reproducible under fixed seeds.

Typical flow:

    from v2apt import (PromptedClassifier, RunConfig, SeededStreams, Trainer,
                       default_config, generate, preset)

    ds = generate(preset("shift-A"), seed=0)
    pre = PromptedClassifier.init(default_config(), SeededStreams(0))
    Trainer(pre, RunConfig(), ds).train()            # pretrain the backbone
    # to tune: the backbone, frozen, and the head (shared), prompts (+ generator)
    model = PromptedClassifier.from_pretrained(pre, default_config(), SeededStreams(0))
    Trainer(model, RunConfig(), generate(preset("shift-B"), seed=0)).train()

The same steps are scriptable through the `v2apt` command-line tool.
"""

from .analysis import (
    LatentStats,
    compare_mean_similarity,
    cosine_similarity_map,
    export_map,
    latent_stats,
    load_map_csv,
    mean_similarity,
    model_similarity_map,
)
from .checkpoint import (
    Checkpoint,
    load_checkpoint,
    restore_model,
    save_checkpoint,
    snapshot,
)
from .config import (
    ModelConfig,
    RunConfig,
    config_from_text,
    config_to_text,
    default_config,
    tiny_config,
)
from .data import (
    BUDGETS,
    PRESETS,
    Dataset,
    TaskSpec,
    generate,
    load_dataset,
    preset,
    save_dataset,
    split,
)
from .errors import (
    ConfigError,
    ContractError,
    FormatError,
    NumericError,
    ShapeError,
    ValidationError,
)
from .gradcheck import CheckReport, finite_diff_check, full_model_check
from .model import ForwardResult, PromptedClassifier
from .rng import SeededStreams
from .tensor import Tape, Tensor, float64_mode
from .trainer import (
    AdamW,
    StepMetrics,
    Trainer,
    evaluate,
    total_loss,
    warmup_beta,
)
from .vae import LatentDistribution, kl_divergence, kl_monte_carlo

__all__ = [
    "AdamW",
    "BUDGETS",
    "CheckReport",
    "Checkpoint",
    "ConfigError",
    "ContractError",
    "Dataset",
    "FormatError",
    "ForwardResult",
    "LatentDistribution",
    "LatentStats",
    "ModelConfig",
    "NumericError",
    "PRESETS",
    "PromptedClassifier",
    "RunConfig",
    "SeededStreams",
    "ShapeError",
    "StepMetrics",
    "Tape",
    "TaskSpec",
    "Tensor",
    "Trainer",
    "ValidationError",
    "compare_mean_similarity",
    "config_from_text",
    "config_to_text",
    "cosine_similarity_map",
    "default_config",
    "evaluate",
    "export_map",
    "finite_diff_check",
    "float64_mode",
    "full_model_check",
    "generate",
    "kl_divergence",
    "kl_monte_carlo",
    "latent_stats",
    "load_checkpoint",
    "load_dataset",
    "load_map_csv",
    "mean_similarity",
    "model_similarity_map",
    "preset",
    "restore_model",
    "save_checkpoint",
    "save_dataset",
    "snapshot",
    "split",
    "tiny_config",
    "total_loss",
    "warmup_beta",
]

__version__ = "0.1.0"
