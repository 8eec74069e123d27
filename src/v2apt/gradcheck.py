"""Finite-difference verification of reverse-mode gradients.

`finite_diff_check` runs one taped backward pass, then re-evaluates the loss
under central differences for every element of every named parameter and
compares. It is meant to run in 64-bit mode (see `tensor.float64_mode`);
in 32-bit the difference quotient itself carries too much rounding noise
for tight tolerances. `full_model_check` applies it to every trainable
parameter of a frozen-backbone model on one fixed batch.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericError, ValidationError
from .tensor import Tape, Tensor, float64_mode


@dataclass(frozen=True)
class ParamReport:
    """Comparison outcome for one named parameter."""

    name: str
    max_rel_err: float
    worst_index: tuple[int, ...]
    ops: tuple[str, ...]  # ops on the tape that consume this parameter
    passed: bool

    def describe(self) -> str:
        status = "ok" if self.passed else "FAIL"
        ops = ", ".join(self.ops) if self.ops else "unused"
        return f"{status} {self.name}: max rel err {self.max_rel_err:.3e} at {self.worst_index} (ops: {ops})"


@dataclass
class CheckReport:
    """Aggregate of all per-parameter comparisons from one check."""

    eps: float
    tol: float
    params: dict[str, ParamReport] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.params.values())

    @property
    def failures(self) -> list[ParamReport]:
        return [p for p in self.params.values() if not p.passed]

    def summary(self) -> str:
        lines = [f"gradient check: eps={self.eps:g} tol={self.tol:g}"]
        lines += [p.describe() for p in self.params.values()]
        verdict = "all gradients verified" if self.passed else f"{len(self.failures)} parameter(s) FAILED"
        lines.append(verdict)
        return "\n".join(lines)


def finite_diff_check(
    build_loss: Callable[[], Tensor],
    params: dict[str, Tensor],
    eps: float = 1e-5,
    tol: float = 1e-4,
) -> CheckReport:
    """Compare taped gradients of `build_loss()` against central differences.

    `build_loss` must be a pure function of the current contents of `params`
    (plus constants); it is called repeatedly with single elements perturbed
    in place by +/-eps, and each is restored afterwards, also when it raises.
    The relative error for a parameter is max|analytic - numeric| scaled by
    the larger of 1 and the magnitude of either gradient, so near-zero
    gradients are compared absolutely instead of blowing up the quotient.
    """
    for name, p in params.items():
        if not isinstance(p, Tensor) or not p.requires_grad:
            raise ValidationError(f"parameter {name!r} is not a gradient-tracked tensor")
        p.grad = None  # stale grads from earlier passes would accumulate

    with Tape() as tape:
        loss = build_loss()
        if loss.size != 1:
            raise ValidationError(f"build_loss must return a scalar, got shape {loss.shape}")
        tape.backward(loss)

    consumers: dict[int, list[str]] = {id(p.node): [] for p in params.values()}
    for rec in tape.records:
        for t in rec.inputs:
            ops = consumers.get(id(t))
            if ops is not None and rec.op not in ops:
                ops.append(rec.op)

    report = CheckReport(eps=eps, tol=tol)
    for name, p in params.items():
        analytic = p.grad
        if analytic is None:
            raise NumericError(f"parameter {name!r} received no gradient from the tape")
        if not np.all(np.isfinite(analytic)):
            raise NumericError(f"parameter {name!r} has a non-finite analytic gradient")
        numeric = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            try:
                flat[i] = keep + eps
                up = build_loss().item()
                flat[i] = keep - eps
                down = build_loss().item()
            finally:
                flat[i] = keep
            nflat[i] = (up - down) / (2.0 * eps)
        if not np.all(np.isfinite(numeric)):
            raise NumericError(f"parameter {name!r} produced a non-finite difference quotient")
        diff = np.abs(analytic - numeric)
        scale = max(1.0, float(np.abs(analytic).max()), float(np.abs(numeric).max()))
        rel = float(diff.max()) / scale
        worst = np.unravel_index(int(diff.argmax()), p.shape) if p.shape else ()
        report.params[name] = ParamReport(
            name=name,
            max_rel_err=rel,
            worst_index=tuple(int(i) for i in worst),
            ops=tuple(consumers[id(p.node)]),
            passed=rel < tol,
        )
    return report


def full_model_check(cfg=None, seed: int = 0, tol: float = 1e-4) -> CheckReport:
    """Check every trainable parameter of a prompted model end to end.

    Builds the model, its adapters, and one synthetic two-image batch
    entirely in 64-bit mode so the difference quotient is trustworthy, replays
    one reparameterization draw in every evaluation, and differentiates the
    combined task plus KL objective (KL weight 1e-3) with respect to prompts,
    generator weights, and head.
    """
    from .config import tiny_config
    from .model import PromptedClassifier
    from .rng import SeededStreams
    from .trainer import total_loss

    if cfg is None:
        cfg = tiny_config()
    with float64_mode():
        streams = SeededStreams(seed)
        model = PromptedClassifier.from_pretrained(PromptedClassifier.init(cfg, streams), cfg, streams)
        g = streams.generator("gradcheck")
        batch = 2
        images = g.random((batch, cfg.image_size, cfg.image_size, cfg.in_channels))
        labels = g.integers(0, cfg.num_classes, size=batch)

        def build_loss() -> Tensor:
            # every evaluation replays the same latent draw from where g stands
            out = model.forward(images, rng=copy.deepcopy(g))
            return total_loss(out.logits, labels, out.kl, 1e-3)[0]

        return finite_diff_check(build_loss, model.trainables(), tol=tol)
