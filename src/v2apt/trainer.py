"""Loss assembly, AdamW over the trainable parameters, and the training loop.

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


def total_loss(
    logits: Tensor, labels: np.ndarray, kl: Tensor | None, beta: float
) -> tuple[Tensor, float, float]:
    """(task_ce + beta * kl on the tape, task_ce, kl); kl=None means no KL
    term at all, and reads 0.0."""
    ce = T.cross_entropy_with_logits(logits, labels)
    total = ce if kl is None else ce + kl * beta
    ce_f, kl_f = ce.item(), 0.0 if kl is None else kl.item()
    if not np.isfinite(ce_f + beta * kl_f) or not np.isfinite(kl_f):
        raise NumericError(f"non-finite loss: task_ce={ce_f}, kl={kl_f}, beta={beta}")
    return total, ce_f, kl_f


@dataclass(frozen=True, eq=False)
class AdamW:
    """Decoupled-weight-decay Adam over the parameters that require a gradient.

    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * theta.
    A value, like a tensor: it holds only what it learns, the step count (the
    run's position, which `Trainer.step` reads) and moment buffers keyed by
    name (so they serialize into checkpoints); its settings come from the run
    config. A step checks every update finite, replaces the parameters with
    fresh tensors and returns the next optimizer, leaving this one as it was.
    """

    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def step(self, params: dict[str, Tensor], run: RunConfig) -> AdamW:
        names = sorted(name for name, p in params.items() if p.requires_grad)
        for name, p in params.items():
            if not p.requires_grad and p.grad is not None:
                raise ContractError(f"freeze violation: frozen parameter {name!r} has a gradient")
        # check every gradient before touching any parameter
        for name in names:
            g = params[name].grad
            if g is None:
                raise ContractError(f"no gradient for trainable parameter {name!r}")
            if not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient for parameter {name!r} at step {self.t}")
        b1, b2, lr = run.adam_beta1, run.adam_beta2, run.lr
        bc1 = 1.0 - b1 ** (self.t + 1)
        bc2 = 1.0 - b2 ** (self.t + 1)
        new_m, new_v, new_p = {}, {}, {}
        with np.errstate(all="ignore"):  # a fault is caught below, before any state moves
            for name in names:
                p = params[name]
                g = p.grad
                # a first step starts from zero moments: 0.9 * 0.0 + x == x
                m = b1 * self.m.get(name, 0.0) + (1.0 - b1) * g
                v = b2 * self.v.get(name, 0.0) + (1.0 - b2) * g * g
                m_hat = m / bc1
                v_hat = v / bc2
                new = p.data - lr * m_hat / (np.sqrt(v_hat) + run.adam_eps) - lr * run.weight_decay * p.data
                new = new.astype(p.data.dtype, copy=False)
                # a non-finite m makes `new` non-finite; an infinite v does not
                if not (np.isfinite(new).all() and np.isfinite(v).all()):
                    raise NumericError(f"non-finite update for parameter {name!r} at step {self.t}")
                new_m[name], new_v[name], new_p[name] = m, v, T.wrap(new, requires_grad=True)
        params.update(new_p)
        return AdamW(self.t + 1, {**self.m, **new_m}, {**self.v, **new_v})


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
    """Owns one model and the run's current optimizer, whose step count is the
    loop's position; each step replaces the optimizer with the one it returns."""

    def __init__(
        self,
        model: PromptedClassifier,
        run: RunConfig,
        dataset: Dataset,
        optimizer: AdamW | None = None,
    ):
        if len(dataset) < run.batch_size:
            raise ValidationError(
                f"dataset of {len(dataset)} samples is smaller than batch_size {run.batch_size}"
            )
        self.model = model
        self.run = run
        self.dataset = dataset
        self.streams = SeededStreams(run.seed)
        self.optimizer = optimizer or AdamW()
        self.history: list[StepMetrics] = []

    @property
    def step(self) -> int:
        """The run's position: its optimizer's step count."""
        return self.optimizer.t

    @property
    def steps_per_epoch(self) -> int:
        return len(self.dataset) // self.run.batch_size

    def _batch_at(self, step: int) -> tuple[np.ndarray, np.ndarray]:
        epoch, pos = divmod(step, self.steps_per_epoch)
        perm = self.streams.generator("shuffle", cursor=epoch).permutation(len(self.dataset))
        idx = perm[pos * self.run.batch_size:(pos + 1) * self.run.batch_size]
        return self.dataset.images[idx], self.dataset.labels[idx]

    def train_step(self) -> StepMetrics:
        step = self.step
        images, labels = self._batch_at(step)
        beta = warmup_beta(step, self.run)
        rng = self.streams.generator("eps", cursor=step)
        try:
            with Tape() as tape:
                out = self.model.forward(images, rng=rng)
                loss, task_ce, kl = total_loss(out.logits, labels, out.kl, beta)
                tape.backward(loss)
        except NumericError as e:
            raise NumericError(f"aborting at step {step}: {e}") from e
        self.optimizer = self.optimizer.step(self.model.params, self.run)
        metrics = StepMetrics(step=step, task_ce=task_ce, kl=kl, beta=beta)
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
                m.accuracy = evaluate(self.model, self.dataset if eval_dataset is None else eval_dataset)
        return self.history

    def write_metrics(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for m in self.history:
                f.write(m.to_json() + "\n")
