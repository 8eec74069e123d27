"""The benchmark's probes patch program attributes by name: each name they
patch must exist and be called through that name, and uninstalling must put
every original back."""

import dataclasses
import importlib
import sys
from pathlib import Path

from v2apt import checkpoint, cli, model, tensor, trainer
from v2apt.config import RunConfig, config_to_text, tiny_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _attributes() -> dict[tuple[str, str], object]:
    """Every attribute of every loaded v2apt module and of the patched classes."""
    owners = {name: mod for name, mod in sys.modules.items()
              if name == "v2apt" or name.startswith("v2apt.")}
    owners.update({"Trainer": trainer.Trainer, "AdamW": trainer.AdamW, "Tape": tensor.Tape,
                   "PromptedClassifier": model.PromptedClassifier})
    return {(owner, attr): value for owner, obj in owners.items() for attr, value in vars(obj).items()}


def test_probes_install_and_uninstall_leave_the_program_as_it_was(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    probes = importlib.import_module("probes")
    before = _attributes()
    tracer = probes.Tracer("hooks", "trainer.step")
    try:  # a failed install still uninstalls what it patched
        tracer.install_base()
        tracer.install_detail()
        assert cli.load_checkpoint is not checkpoint.load_checkpoint
        assert cli.save_checkpoint is not checkpoint.save_checkpoint
        assert cli.restore_model is not checkpoint.restore_model
        patched = {key for key, value in _attributes().items() if before.get(key) is not value}
        assert patched
    finally:
        tracer.uninstall()
    assert cli.load_checkpoint is checkpoint.load_checkpoint
    assert cli.save_checkpoint is checkpoint.save_checkpoint
    assert cli.restore_model is checkpoint.restore_model
    after = _attributes()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_every_probed_span_opens_in_a_tune(monkeypatch, tmp_path):
    # a span that never opens reads as 0 ms, not as a failure
    monkeypatch.syspath_prepend(str(PERFBENCH))
    probes = importlib.import_module("probes")
    cfg = dataclasses.replace(tiny_config(), num_classes=3)
    config, data, pre = (str(tmp_path / name) for name in ("cfg.txt", "d.v2ds", "pre.v2ap"))
    Path(config).write_text(config_to_text(cfg, RunConfig(batch_size=8, steps=2)))
    assert cli.main(["gen-data", "--preset", "easy-3", "--out", data]) == 0
    assert cli.main(["pretrain", "--config", config, "--data", data, "--out", pre]) == 0
    tracer = probes.Tracer("hooks", "trainer.step")
    try:
        tracer.install_base()
        tracer.install_detail()
        assert tracer.call(["tune", "--config", config, "--backbone-ckpt", pre, "--data", data,
                            "--method", "v2apt", "--out", str(tmp_path / "t.v2ap")]) == 0
    finally:
        tracer.uninstall()
    # strip and splice have had no caller since prompt rows joined the keys and values only
    dead = {"prompts.strip", "prompts.splice"}
    expected = {name for _, _, name in probes.DETAIL_SPANS if isinstance(name, str)} - dead
    expected |= {f"backbone.layer{i}" for i in range(cfg.depth)}
    expected |= {"trainer.train", "trainer.step", "model.forward", "checkpoint.save", "checkpoint.load"}
    assert sorted(expected - {span[0] for span in tracer.spans}) == []
