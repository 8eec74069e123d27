"""Spans and counters around calls into v2apt's modules, taken from outside.

Nothing in the program changes: every probe replaces a module or class
attribute with a wrapper, and `Tracer.uninstall` puts the originals back.

A span is `[name, start, end, parent, unit]`: `parent` is the index of the
enclosing span (-1 at the top) and `unit` the index of the enclosing
closed-loop unit (a train step, or a predict chunk on the eval workload), or
None outside one. Spans stay in memory until `write_spans`.

Two levels are installed separately:

- `install_base` puts spans on the few calls the end-to-end metrics need
  (train, train step, evaluate, predict, forward, checkpoint save). Its cost
  is two clock reads per call, a few calls per step.
- `install_detail` adds a span on each layer's public functions and counters
  on the tape: records and adjoint time per primitive and per creating span,
  forward time per primitive, and `accumulate_grad` calls. `remove_detail`
  takes them off again, so traced and untraced calls can alternate in one
  run; the difference between the two is the tracing overhead.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time
from collections import Counter

import numpy as np

from v2apt import backbone, cli, model, prompts, tensor, trainer, vae

# primitive function -> op group reported as tensor.<metric>.<group>
TENSOR_OPS = {
    "add": "add", "mul": "mul", "matmul": "matmul", "slice_axis": "slice",
    "concat": "concat", "reshape": "reshape", "transpose": "transpose",
    "gelu": "gelu", "softmax": "softmax", "layer_norm": "layer_norm",
    "expand_leading": "expand_leading",
    "neg": "other", "tsum": "other", "tmean": "other", "texp": "other",
    "clamp": "other", "embedding": "other", "cross_entropy_with_logits": "other",
}
# tape record op name -> op group
RECORD_OPS = {"slice": "slice", **{v: v for v in TENSOR_OPS.values()}}
OP_GROUPS = sorted(set(TENSOR_OPS.values()))

# (owner, attribute, span name) for the per-layer spans of install_detail
DETAIL_SPANS = [
    (cli, "load_dataset", "data.load"),
    (cli, "split", "data.split"),
    (cli, "restore_model", "checkpoint.restore"),
    (backbone, "patch_embed", "backbone.patch_embed"),
    (backbone, "encoder_layer_forward", lambda i, *_a, **_k: f"backbone.layer{i}"),
    (backbone, "final_norm", "backbone.final_norm"),
    (backbone, "classify", "backbone.head"),
    (prompts, "merge_sequence", "prompts.merge"),
    (prompts, "strip_prompt_tokens", "prompts.strip"),
    (prompts, "splice_prompts", "prompts.splice"),
    (vae, "pool_input_embeddings", "vae.pool"),
    (vae, "encode", "vae.encode"),
    (vae, "reparameterize", "vae.reparameterize"),
    (vae, "decode", "vae.decode"),
    (vae, "kl_divergence", "vae.kl"),
    (vae, "compose_prompts", "vae.compose"),
    (trainer, "total_loss", "trainer.loss"),
    (trainer.AdamW, "step", "trainer.adamw"),
    (tensor.Tape, "backward", "tensor.backward"),
]


class Tracer:
    def __init__(self, run_id: str, unit_name: str):
        self.run_id = run_id
        self.unit_name = unit_name  # "trainer.step" or "model.forward"
        self.spans: list[list] = []
        self.predictions: list[tuple[int, str]] = []  # per predict call: images, digest
        self.checkpoint_bytes: Counter = Counter()  # cli call span -> bytes read + written
        # tape counters, inside units only, keyed by (op group, creating span name)
        self.records: Counter = Counter()
        self.adj_s: Counter = Counter()
        self.fwd_s: Counter = Counter()  # keyed by op group
        self.grad_calls = 0
        self.grad_kept = 0
        self._stack: list[int] = []
        self._unit: int | None = None
        self._tapes = 0
        self._call: int | None = None
        self._undo: list[tuple[object, str, object]] = []
        self._detail_mark: int | None = None  # len(self._undo) before install_detail

    # -- spans ---------------------------------------------------------------

    def _open(self, label: str) -> tuple[list, int]:
        sid = len(self.spans)
        rec = [label, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._unit]
        if self._unit is None and label == self.unit_name:
            self._unit = rec[4] = sid
        self.spans.append(rec)
        self._stack.append(sid)
        rec[1] = time.perf_counter()
        return rec, sid

    def _close(self, rec: list, sid: int) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()
        if self._unit == sid:
            self._unit = None

    def call(self, argv: list[str]) -> int:
        """One cli.main call under a "cli.main" span."""
        rec, sid = self._open("cli.main")
        self._call = sid
        try:
            return cli.main(argv)
        finally:
            self._close(rec, sid)
            self._call = None

    def _spanned(self, fn, name, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec, sid = self._open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec, sid)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, fn, wrapper) -> None:
        """Replace `fn` in every v2apt module that binds it by name."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "v2apt" or mod_name.startswith("v2apt."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapper)

    def _restore(self, keep: int) -> None:
        while len(self._undo) > keep:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def uninstall(self) -> None:
        self._restore(0)
        self._detail_mark = None

    def remove_detail(self) -> None:
        self._restore(self._detail_mark)
        self._detail_mark = None

    def install_base(self) -> None:
        def keep_prediction(args, preds):
            self.predictions.append((len(args[1]), _digest(preds)))

        def count_saved(args, _result):
            self.checkpoint_bytes[self._call] += os.path.getsize(args[1])

        self._patch(trainer.Trainer, "train", self._spanned(trainer.Trainer.train, "trainer.train"))
        self._patch(trainer.Trainer, "train_step",
                    self._spanned(trainer.Trainer.train_step, "trainer.step"))
        self._patch(trainer, "evaluate", self._spanned(trainer.evaluate, "trainer.eval"))
        self._patch(cli, "evaluate", self._spanned(cli.evaluate, "cli.evaluate"))
        self._patch(cli, "save_checkpoint",
                    self._spanned(cli.save_checkpoint, "checkpoint.save", count_saved))
        cls = model.PromptedClassifier
        self._patch(cls, "predict", self._spanned(cls.predict, "model.predict", keep_prediction))
        self._patch(cls, "forward", self._spanned(cls.forward, "model.forward"))

    def install_detail(self) -> None:
        def count_loaded(args, _result):
            self.checkpoint_bytes[self._call] += os.path.getsize(args[0])

        self._detail_mark = len(self._undo)
        for owner, attr, name in DETAIL_SPANS:
            self._patch(owner, attr, self._spanned(getattr(owner, attr), name))
        self._patch(cli, "load_checkpoint",
                    self._spanned(cli.load_checkpoint, "checkpoint.load", count_loaded))
        for fname, group in TENSOR_OPS.items():
            fn = getattr(tensor, fname)
            self._patch_everywhere(fn, self._timed_op(fn, group))
        self._patch_everywhere(tensor.record_operation, self._recorder(tensor.record_operation))
        self._patch_everywhere(tensor.accumulate_grad, self._grad_counter(tensor.accumulate_grad))
        tape_cls = tensor.Tape
        enter, exit_ = tape_cls.__enter__, tape_cls.__exit__

        def tape_enter(tape):
            self._tapes += 1
            return enter(tape)

        def tape_exit(tape, *exc):
            self._tapes -= 1
            return exit_(tape, *exc)

        self._patch(tape_cls, "__enter__", tape_enter)
        self._patch(tape_cls, "__exit__", tape_exit)

    # -- tape counters -------------------------------------------------------

    def _timed_op(self, fn, group: str):
        fwd = self.fwd_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._unit is None:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                fwd[group] += time.perf_counter() - t0
        return wrapper

    def _recorder(self, fn):
        @functools.wraps(fn)
        def wrapper(op, inputs, output, adjoint):
            # the same condition under which the tape appends a record
            if self._unit is None or not self._tapes or not output.requires_grad:
                return fn(op, inputs, output, adjoint)
            key = (RECORD_OPS.get(op, "other"), self.spans[self._stack[-1]][0])
            self.records[key] += 1
            adj_s = self.adj_s

            def timed_adjoint(g):
                t0 = time.perf_counter()
                try:
                    adjoint(g)
                finally:
                    adj_s[key] += time.perf_counter() - t0
            return fn(op, inputs, output, timed_adjoint)
        return wrapper

    def _grad_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(t, g):
            if self._unit is not None:
                self.grad_calls += 1
                self.grad_kept += bool(t.requires_grad)
            return fn(t, g)
        return wrapper

    # -- output --------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for sid, (name, start, end, parent, unit) in enumerate(self.spans):
                f.write(json.dumps({"run": self.run_id, "id": sid, "name": name, "start": start,
                                    "end": end, "parent": parent, "unit": unit}) + "\n")


def _digest(preds: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(preds).tobytes()).hexdigest()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [end - start for _name, start, end, _parent, _unit in spans]
    for _name, start, end, parent, _unit in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
