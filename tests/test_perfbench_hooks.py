"""The benchmark's probes patch program attributes by name: each name they
patch must exist, and uninstalling must put every original back."""

import importlib
import sys
from pathlib import Path

from v2apt import checkpoint, cli, model, tensor, trainer

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
