"""
Determinism, checkpoints, and exact resume
==========================================

Every random draw in the package comes from a named, counter-addressed
stream, and every batch is addressed by its step index. Together these make
a strong promise: a run is a pure function of its config, and resuming from
a checkpoint continues the exact run that would have happened anyway.
"""

# %%
# Two trainers with the same seed produce bit-identical loss sequences —
# not merely close, identical floats.

import dataclasses
import tempfile
from pathlib import Path

from v2apt import (
    PromptedClassifier,
    RunConfig,
    SeededStreams,
    Trainer,
    generate,
    preset,
    tiny_config,
)

cfg = dataclasses.replace(tiny_config(), num_classes=3)
run = RunConfig(seed=0, batch_size=16, steps=40)
ds = generate(preset("easy-3"), seed=0)

def fresh_trainer():
    streams = SeededStreams(run.seed)
    model = PromptedClassifier.from_pretrained(PromptedClassifier.init(cfg, streams), cfg, streams)
    return Trainer(model, run, ds)

a, b = fresh_trainer(), fresh_trainer()
ha, hb = a.train(), b.train()
print("bit-identical loss sequences:",
      all(x.task_ce == y.task_ce for x, y in zip(ha, hb)))

# %%
# Interrupt a third run at step 20, write a checkpoint, restore it in a new
# process (here: new objects), and finish. The second half matches the
# uninterrupted run step for step, because the loop addresses batches and
# noise draws by step index rather than by mutable generator state. The step
# index is the optimizer's step count, so the checkpoint's optimizer carries
# it: a trainer handed `ck.optimizer` starts at step 20 with nothing else to
# set, and its steps return new optimizers, leaving the checkpoint's as it was.

from v2apt import load_checkpoint, restore_model, save_checkpoint, snapshot

c = fresh_trainer()
c.train(until_step=20)

with tempfile.TemporaryDirectory() as tmp:
    mid = Path(tmp) / "mid.v2ap"
    save_checkpoint(snapshot(c.model, run, c.optimizer), mid)
    print("checkpoint bytes:", mid.stat().st_size)

    ck = load_checkpoint(mid)
    model, run_back = restore_model(ck)
    resumed = Trainer(model, run_back, ds, optimizer=ck.optimizer)
    resumed.train()

tail_matches = all(
    x.task_ce == y.task_ce for x, y in zip(ha[20:], resumed.history)
)
print("resumed tail matches uninterrupted run:", tail_matches)

# %%
# The checkpoint embeds the config as canonical text plus a hash, so loading
# a checkpoint into a mismatched code path fails loudly; and the whole file
# carries a CRC32 footer, so a flipped byte is caught before any tensor is
# trusted. Evaluation after a round trip is also deterministic: eval mode
# uses the posterior mean (no sampling), and prediction ties break toward
# the lowest class index.

from v2apt import evaluate

acc1 = evaluate(model, ds)
acc2 = evaluate(model, ds)
print(f"eval twice: {acc1:.6f} == {acc2:.6f}: {acc1 == acc2}")
