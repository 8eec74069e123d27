"""The workloads and the metrics derived from their spans.

Each workload replays one step of the paper workflow through `cli.main`,
closed-loop: the next call starts when the previous one returns. The
workload seed goes only to `generate`; the program sees the rendered `.v2ds`
files and runs at its default config with batch 64.
"""

from __future__ import annotations

import io
import json
import math
import re
import resource
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

from v2apt import cli
from v2apt.checkpoint import load_checkpoint, restore_model
from v2apt.config import default_config
from v2apt.data import generate, preset, save_dataset

from probes import OP_GROUPS, Tracer, self_times

BATCH = 64
SETUP_STEPS = 30  # set-up training: the backbone, and eval-B's tuned checkpoint
TUNE_STEPS = 100  # per tune call: clears the 0.90 gate on every seed tried
EVAL_PER_CLASS = 512  # eval-B render: 2048 images, eight 256-image predict chunks
ACCURACY_GATE = 0.90  # acceptance criterion 6
DEPTH = default_config().depth
MODULES = ("trainer", "model", "backbone", "prompts", "vae", "tensor")

# the span that is one closed-loop unit of each workload
UNITS = {"tune-v2apt-B": "trainer.step", "eval-B": "model.forward"}


class SetupError(RuntimeError):
    """The program failed while the benchmark was building its inputs."""


class Checks:
    """Output checks of one run; each failed check is one failed operation."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def quiet(call, argv: list[str]) -> tuple[int, str]:
    """Run `call(argv)` with its stdout and stderr captured."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        rc = call([str(a) for a in argv])
    return rc, out.getvalue()


def _losses_finite(metrics_path: str) -> bool:
    with open(metrics_path, encoding="utf-8") as f:
        rows = [json.loads(line) for line in f]
    return bool(rows) and all(math.isfinite(r["task_ce"]) and math.isfinite(r["kl"]) for r in rows)


def _render(name: str, seed: int, path: Path, **changes) -> Path:
    save_dataset(generate(replace(preset(name), **changes), seed), path)
    return path


def _setup_call(argv: list) -> None:
    rc, text = quiet(cli.main, argv)
    if rc != 0:
        raise SetupError(f"v2apt {argv[0]} exited {rc}: {text.strip()}")


def _backbone(work: Path, seed: int) -> tuple[Path, str]:
    """Pretrain a backbone with the code under test; return it and its digest."""
    ckpt = work / "backbone.v2ap"
    data = _render("shift-A", seed, work / "shift-A.v2ds")
    _setup_call(["pretrain", "--data", data, "--out", ckpt, "--steps", SETUP_STEPS,
                 "--batch-size", BATCH])
    pre, _ = restore_model(load_checkpoint(ckpt))
    pre.freeze()
    return ckpt, pre.frozen_digest()


def _tune_argv(backbone: Path, data: Path, out: Path, steps: int) -> list:
    return ["tune", "--method", "v2apt", "--backbone-ckpt", backbone, "--data", data,
            "--out", out, "--steps", steps, "--batch-size", BATCH]


def prepare(workload: str, work: Path, seed: int, checks: Checks, tracer: Tracer):
    """Build the workload's inputs; return the timed call's argv and its check."""
    backbone, digest = _backbone(work, seed)
    shift_b = _render("shift-B", seed, work / "shift-B.v2ds")
    if workload == "tune-v2apt-B":
        out = work / "tuned.v2ap"

        def check(rc: int, text: str) -> None:
            checks.expect(rc == 0, f"tune exited {rc}: {text.strip()}")
            checks.expect(rc == 0 and _losses_finite(f"{out}.metrics.jsonl"), "non-finite loss")
            found = re.search(r"^frozen digest ([0-9a-f]+)$", text, re.M)
            checks.expect(found is not None and found.group(1) == digest,
                          "frozen digest differs from the pretrained backbone")
            acc = re.search(r"test accuracy ([0-9.]+)", text)
            checks.expect(acc is not None and float(acc.group(1)) >= ACCURACY_GATE,
                          f"tuned test accuracy below {ACCURACY_GATE}: {text.strip()}")
        return _tune_argv(backbone, shift_b, out, TUNE_STEPS), check

    if workload == "eval-B":
        tuned = work / "tuned.v2ap"
        _setup_call(_tune_argv(backbone, shift_b, tuned, SETUP_STEPS))
        big = _render("shift-B", seed, work / "shift-B-large.v2ds", per_class=EVAL_PER_CLASS)
        first: list[tuple[str, str]] = []

        def check(rc: int, text: str) -> None:
            checks.expect(rc == 0, f"eval exited {rc}: {text.strip()}")
            seen = (text, tracer.predictions[-1][1] if tracer.predictions else "")
            if not first:
                first.append(seen)
            checks.expect(seen == first[0], "eval predictions differ between passes")
        return ["eval", "--ckpt", tuned, "--data", big], check

    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# metrics


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def unit_durations(spans: list[list], lo: int, hi: int) -> list[float]:
    return [s[2] - s[1] for i, s in enumerate(spans[lo:hi], start=lo) if s[4] == i]


def end_to_end(tracer: Tracer, calls: list[tuple[int, int]]) -> dict[str, float]:
    spans = tracer.spans
    predicts = [i for i, s in enumerate(spans) if s[0] == "model.predict"]
    images = {i: n for i, (n, _digest) in zip(predicts, tracer.predictions)}
    setup, run, samples, units, chunks = [], [], 0, [], []
    for lo, hi in calls:
        kids = [s for s in spans[lo + 1:hi] if s[3] == lo]
        work = next(s for s in kids if s[0] in ("trainer.train", "cli.evaluate"))
        if work[0] == "trainer.train":
            end = next(s for s in kids if s[0] == "checkpoint.save")[2]
            samples += BATCH * sum(s[0] == "trainer.step" for s in spans[lo:hi])
        else:
            end = work[2]
            samples += sum(n for i, n in images.items() if lo < i < hi)
        setup.append(work[1] - spans[lo][1])
        run.append(end - work[1])
        units += [_ms(d) for d in unit_durations(spans, lo, hi)]
        chunks += [_ms(s[2] - s[1]) for s in spans[lo:hi]
                   if s[0] == "model.forward" and spans[s[3]][0] == "model.predict"]
    return {
        "setup_s": statistics.median(setup),
        # a run has as few as two or three calls, too few for a steady median
        "run_s": statistics.fmean(run),
        "samples_per_s": samples / sum(run),
        "step_ms.p50": statistics.median(units),
        "step_ms.p95": _quantile(units, 95),
        "eval_images_per_s": sum(images.values()) / sum(spans[i][2] - spans[i][1] for i in images),
        "eval_chunk_ms.p50": statistics.median(chunks),
        "eval_chunk_ms.p95": _quantile(chunks, 95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: Tracer, traced: list[tuple[int, int]], untraced_p50_ms: float) -> dict[str, float]:
    """Per-layer figures from the calls made with the detail probes installed.

    Times and counts are per unit (train step, or predict chunk on eval-B)
    unless the name says otherwise; only spans inside units count toward them.
    """
    spans = tracer.spans
    own = self_times(spans)
    ids = [i for lo, hi in traced for i in range(lo, hi)]
    unit_ids = [i for i in ids if spans[i][4] == i]
    n = len(unit_ids)
    in_units = [i for i in ids if spans[i][4] is not None]
    named = [spans[i] for i in ids]

    def per_unit_ms(match) -> float:
        return _ms(sum(spans[i][2] - spans[i][1] for i in in_units if match(spans[i][0]))) / n

    def mean_ms(name: str) -> float:
        times = [s[2] - s[1] for s in named if s[0] == name]
        return _ms(statistics.fmean(times)) if times else 0.0

    def total(counter, match) -> float:
        return sum(v for (group, tag), v in counter.items() if match(group, tag))

    m: dict[str, float] = {}
    recs, adj = tracer.records, tracer.adj_s
    m["tensor.records_per_step"] = sum(recs.values()) / n
    for g in OP_GROUPS:
        m[f"tensor.records.{g}"] = total(recs, lambda grp, _t: grp == g) / n
        m[f"tensor.fwd_ms.{g}"] = _ms(tracer.fwd_s[g]) / n
        m[f"tensor.adj_ms.{g}"] = _ms(total(adj, lambda grp, _t: grp == g)) / n
    m["tensor.backward_ms"] = per_unit_ms(lambda s: s == "tensor.backward")
    m["tensor.discarded_grads_per_step"] = (tracer.grad_calls - tracer.grad_kept) / n
    m["tensor.useful_grad_ratio"] = tracer.grad_kept / tracer.grad_calls if tracer.grad_calls else 0.0

    for i in range(DEPTH):
        layer = f"backbone.layer{i}"
        m[f"{layer}.fwd_ms"] = per_unit_ms(lambda s: s == layer)
        m[f"{layer}.bwd_ms"] = _ms(total(adj, lambda _g, tag: tag == layer)) / n
    for part in ("patch_embed", "final_norm", "head"):
        m[f"backbone.{part}.fwd_ms"] = per_unit_ms(lambda s: s == f"backbone.{part}")

    m["prompts.fwd_ms"] = per_unit_ms(lambda s: s.startswith("prompts."))
    m["prompts.bwd_ms"] = _ms(total(adj, lambda _g, tag: tag.startswith("prompts."))) / n
    m["prompts.records_per_step"] = total(recs, lambda _g, tag: tag.startswith("prompts.")) / n

    for part in ("encode", "decode", "kl"):
        m[f"vae.{part}.fwd_ms"] = per_unit_ms(lambda s: s == f"vae.{part}")
    m["vae.other.fwd_ms"] = per_unit_ms(
        lambda s: s in ("vae.pool", "vae.reparameterize", "vae.compose"))
    m["vae.bwd_ms"] = _ms(total(adj, lambda _g, tag: tag.startswith("vae."))) / n

    m["model.forward_ms"] = per_unit_ms(lambda s: s == "model.forward")
    chunks = [s[2] - s[1] for s in named
              if s[0] == "model.forward" and spans[s[3]][0] == "model.predict"]
    m["model.predict_chunk_ms"] = _ms(statistics.fmean(chunks)) if chunks else 0.0

    m["trainer.loss_ms"] = per_unit_ms(lambda s: s == "trainer.loss")
    m["trainer.adamw_ms"] = per_unit_ms(lambda s: s == "trainer.adamw")
    m["trainer.other_ms"] = _ms(sum(own[i] for i in unit_ids if spans[i][0] == "trainer.step")) / n
    m["trainer.eval_ms"] = mean_ms("trainer.eval")
    train_s = sum(s[2] - s[1] for s in named if s[0] == "trainer.train")
    eval_s = sum(s[2] - s[1] for s in named if s[0] == "trainer.eval")
    m["trainer.eval_share"] = eval_s / train_s if train_s else 0.0

    m["data.load_ms"] = mean_ms("data.load")
    m["data.split_ms"] = mean_ms("data.split")
    for part in ("load", "restore", "save"):
        m[f"checkpoint.{part}_ms"] = mean_ms(f"checkpoint.{part}")
    m["checkpoint.bytes"] = statistics.fmean(tracer.checkpoint_bytes[lo] for lo, _hi in traced)

    per_unit_self = {u: 0.0 for u in unit_ids}
    for module in MODULES:
        m[f"trace.self_ms.{module}"] = _ms(sum(
            own[i] for i in in_units if spans[i][0].split(".", 1)[0] == module)) / n
    for i in in_units:
        per_unit_self[spans[i][4]] += own[i]
    m["trace.self_sum_ms"] = _ms(statistics.median(per_unit_self.values()))
    m["trace.step_ms.p50"] = _ms(statistics.median(spans[u][2] - spans[u][1] for u in unit_ids))
    m["trace.overhead_ms"] = m["trace.step_ms.p50"] - untraced_p50_ms
    return m
