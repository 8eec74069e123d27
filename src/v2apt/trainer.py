"""Loss assembly, AdamW over the unfrozen subset, and the training loop.

The loop is step-addressed rather than stateful: the shuffle for epoch e
comes from the "shuffle" stream at cursor e and the latent draw for step t
from the "eps" stream at cursor t, so training resumed from a checkpoint at
any step replays exactly the batches and samples of an uninterrupted run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .config import RunConfig
from .data import Dataset
from .errors import ContractError, NumericError, ValidationError
from .model import PromptedClassifier
from .rng import SeededStreams
from .tensor import Tape, Tensor


@dataclass(frozen=True)
class LossBreakdown:
    task_ce: float
    kl: float
    beta: float
    total: float


def total_loss(
    logits: Tensor, labels: np.ndarray, kl: Tensor | None, beta: float
) -> tuple[Tensor, LossBreakdown]:
    """total = task_ce + beta * kl, on the tape; kl=None means no KL term at all."""
    ce = T.cross_entropy_with_logits(logits, labels)
    if kl is None:
        total = ce
        parts = LossBreakdown(task_ce=ce.item(), kl=0.0, beta=beta, total=ce.item())
    else:
        total = ce + kl * beta
        ce_f, kl_f = ce.item(), kl.item()
        parts = LossBreakdown(task_ce=ce_f, kl=kl_f, beta=beta, total=ce_f + beta * kl_f)
    if not np.isfinite(parts.total) or not np.isfinite(parts.kl):
        raise NumericError(f"non-finite loss: {parts}")
    return total, parts


class AdamW:
    """Decoupled-weight-decay Adam over a fixed set of parameter names.

    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * theta.
    Parameters are replaced with fresh tensors each step; moment buffers are
    keyed by name so they serialize into checkpoints.
    """

    def __init__(
        self,
        names: list[str],
        lr: float = 1e-3,
        weight_decay: float = 1e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.names = sorted(names)
        self.lr, self.weight_decay = float(lr), float(weight_decay)
        self.beta1, self.beta2, self.eps = float(beta1), float(beta2), float(eps)
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    @classmethod
    def for_run(cls, names: list[str], run: RunConfig) -> "AdamW":
        return cls(names, run.lr, run.weight_decay, run.adam_beta1, run.adam_beta2, run.adam_eps)

    def step(self, params: dict[str, Tensor]) -> None:
        for name, p in params.items():
            if not p.requires_grad and p.grad is not None:
                raise ContractError(f"freeze violation: frozen parameter {name!r} has a gradient")
        # check every gradient before touching any parameter
        for name in self.names:
            g = params[name].grad
            if g is None:
                raise ContractError(f"no gradient for trainable parameter {name!r}")
            if not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient for parameter {name!r} at step {self.t}")
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name in self.names:
            p = params[name]
            g = p.grad
            m = self.m.get(name)
            if m is None:
                m = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            v = self.v[name]
            m = self.beta1 * m + (1.0 - self.beta1) * g
            v = self.beta2 * v + (1.0 - self.beta2) * g * g
            self.m[name], self.v[name] = m, v
            m_hat = m / bc1
            v_hat = v / bc2
            new = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps) - self.lr * self.weight_decay * p.data
            fresh = Tensor.__new__(Tensor)
            fresh.data = new.astype(p.data.dtype, copy=False)
            fresh.requires_grad = True
            fresh.grad = None
            params[name] = fresh


def warmup_beta(step: int, run: RunConfig) -> float:
    """Linear 0 -> kl_beta over the first 10% of planned steps; flat after."""
    window = max(1, int(0.1 * run.steps))
    return run.kl_beta * min(1.0, step / window)


@dataclass
class StepMetrics:
    step: int
    task_ce: float
    kl: float
    beta: float
    accuracy: float | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def evaluate(model: PromptedClassifier, ds: Dataset) -> float:
    """Eval-mode accuracy over the dataset; deterministic (Z = mu, first-max)."""
    if len(ds) == 0:
        raise ValidationError("cannot evaluate on an empty dataset")
    preds = model.predict(ds.images)
    return float((preds == ds.labels).mean())


class Trainer:
    """Owns one model, one optimizer, and the step-addressed loop state."""

    def __init__(
        self,
        model: PromptedClassifier,
        run: RunConfig,
        dataset: Dataset,
        step: int = 0,
        optimizer: AdamW | None = None,
    ):
        run.validate()
        if len(dataset) < run.batch_size:
            raise ValidationError(
                f"dataset of {len(dataset)} samples is smaller than batch_size {run.batch_size}"
            )
        self.model = model
        self.run = run
        self.dataset = dataset
        self.streams = SeededStreams(run.seed)
        self.step = step
        self.optimizer = optimizer or AdamW.for_run(sorted(model.trainables()), run)
        self.history: list[StepMetrics] = []

    @property
    def steps_per_epoch(self) -> int:
        return len(self.dataset) // self.run.batch_size

    def _batch_at(self, step: int) -> tuple[np.ndarray, np.ndarray]:
        epoch, pos = divmod(step, self.steps_per_epoch)
        perm = self.streams.generator("shuffle", cursor=epoch).permutation(len(self.dataset))
        idx = perm[pos * self.run.batch_size:(pos + 1) * self.run.batch_size]
        return self.dataset.images[idx], self.dataset.labels[idx]

    def train_step(self) -> StepMetrics:
        images, labels = self._batch_at(self.step)
        beta = warmup_beta(self.step, self.run)
        rng = self.streams.generator("eps", cursor=self.step)
        try:
            with Tape() as tape:
                out = self.model.forward(images, rng=rng)
                loss, parts = total_loss(out.logits, labels, out.kl, beta)
                tape.backward(loss)
        except NumericError as e:
            raise NumericError(f"aborting at step {self.step}: {e}") from e
        self.optimizer.step(self.model.params)
        metrics = StepMetrics(step=self.step, task_ce=parts.task_ce, kl=parts.kl, beta=parts.beta)
        self.step += 1
        self.history.append(metrics)
        return metrics

    def train(self, until_step: int | None = None, eval_dataset: Dataset | None = None) -> list[StepMetrics]:
        """Run to the step budget; accuracy is attached at each epoch boundary and
        at the last step."""
        target = self.run.steps if until_step is None else until_step
        while self.step < target:
            m = self.train_step()
            at_epoch_end = self.step % self.steps_per_epoch == 0
            if at_epoch_end or self.step == target:
                m.accuracy = evaluate(self.model, eval_dataset or self.dataset)
        return self.history

    def write_metrics(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for m in self.history:
                f.write(m.to_json() + "\n")
