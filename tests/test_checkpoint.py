"""Checkpoint format: byte-exact round trips, fault injection, exact resume."""

import struct
import zlib

import numpy as np
import pytest

from v2apt import checkpoint as C
from v2apt import data as D
from v2apt import trainer as TR
from v2apt.config import ModelConfig, RunConfig, config_to_text, tiny_config
from v2apt.errors import FormatError
from v2apt.model import PromptedClassifier
from v2apt.rng import SeededStreams
from v2apt.tensor import Tensor


def small_checkpoint() -> C.Checkpoint:
    g = np.random.default_rng(0)
    opt = TR.AdamW()
    opt.t = 7
    opt.m = {"head.w": g.standard_normal((4, 2)).astype(np.float32)}
    opt.v = {"head.w": g.random((4, 2)).astype(np.float32)}
    return C.Checkpoint(
        config_text=config_to_text(tiny_config(), RunConfig()),
        tensors={
            "head.w": g.standard_normal((4, 2)).astype(np.float32),
            "backbone.cls": g.standard_normal((1, 4)).astype(np.float32),
        },
        frozen=frozenset({"backbone.cls"}),
        optimizer=opt,
        step=42,
    )


def test_save_load_save_is_byte_identical(tmp_path):
    ck = small_checkpoint()
    p1, p2 = tmp_path / "a.v2ap", tmp_path / "b.v2ap"
    C.save_checkpoint(ck, p1)
    back = C.load_checkpoint(p1)
    C.save_checkpoint(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_all_fields_survive_round_trip(tmp_path):
    ck = small_checkpoint()
    p = tmp_path / "ck.v2ap"
    C.save_checkpoint(ck, p)
    back = C.load_checkpoint(p)
    assert back.config_text == ck.config_text
    assert back.frozen == ck.frozen
    assert back.step == 42
    for name in ck.tensors:
        np.testing.assert_array_equal(back.tensors[name], ck.tensors[name])
        assert back.tensors[name].dtype == ck.tensors[name].dtype
    assert back.optimizer.t == 7
    np.testing.assert_array_equal(back.optimizer.m["head.w"], ck.optimizer.m["head.w"])
    np.testing.assert_array_equal(back.optimizer.v["head.w"], ck.optimizer.v["head.w"])


def test_optimizer_absent_round_trips(tmp_path):
    ck = small_checkpoint()
    ck.optimizer = None
    p = tmp_path / "ck.v2ap"
    C.save_checkpoint(ck, p)
    assert C.load_checkpoint(p).optimizer is None


def test_float64_tensors_round_trip(tmp_path):
    ck = small_checkpoint()
    ck.tensors["wide"] = np.random.default_rng(1).standard_normal(5)  # float64
    ck.frozen = ck.frozen | {"wide"}  # the moments cover only the unfrozen head.w
    p = tmp_path / "ck.v2ap"
    C.save_checkpoint(ck, p)
    back = C.load_checkpoint(p)
    assert back.tensors["wide"].dtype == np.float64
    np.testing.assert_array_equal(back.tensors["wide"], ck.tensors["wide"])


@pytest.mark.parametrize("section, what", [
    ("tensors", "tensor 'head.w'"),
    ("m", "first moment 'head.w'"),
    ("v", "second moment 'head.w'"),
])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_array_named(tmp_path, section, what, bad):
    ck = small_checkpoint()
    arrays = ck.tensors if section == "tensors" else getattr(ck.optimizer, section)
    arrays["head.w"][1, 0] = bad
    p = tmp_path / "ck.v2ap"
    C.save_checkpoint(ck, p)
    with pytest.raises(FormatError, match=f"non-finite value in {what}"):
        C.load_checkpoint(p)


def test_bad_magic_named(tmp_path):
    p = tmp_path / "ck.v2ap"
    C.save_checkpoint(small_checkpoint(), p)
    blob = bytearray(p.read_bytes())
    blob[1] = ord("X")
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        C.load_checkpoint(p)


def test_bad_version_named(tmp_path):
    p = tmp_path / "ck.v2ap"
    C.save_checkpoint(small_checkpoint(), p)
    blob = bytearray(p.read_bytes())
    blob[4:8] = struct.pack("<I", 9)
    # keep the footer honest so the version check is what fires
    body = bytes(blob[:-4])
    p.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(FormatError, match="version"):
        C.load_checkpoint(p)


def test_flipped_payload_byte_fails_checksum(tmp_path):
    p = tmp_path / "ck.v2ap"
    C.save_checkpoint(small_checkpoint(), p)
    blob = bytearray(p.read_bytes())
    blob[60] ^= 0x01
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="checksum"):
        C.load_checkpoint(p)


def test_corrupt_config_text_names_config(tmp_path):
    p = tmp_path / "ck.v2ap"
    C.save_checkpoint(small_checkpoint(), p)
    blob = bytearray(p.read_bytes())
    # config text starts at offset 12; flip a byte and re-seal the footer
    blob[14] ^= 0x01
    body = bytes(blob[:-4])
    p.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(FormatError, match="config hash"):
        C.load_checkpoint(p)


def test_truncation_names_what_was_being_read(tmp_path):
    p = tmp_path / "ck.v2ap"
    C.save_checkpoint(small_checkpoint(), p)
    whole = p.read_bytes()
    body = whole[:-4][:40]  # cut mid-structure, re-seal footer
    p.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(FormatError, match="truncated"):
        C.load_checkpoint(p)


# ---------------------------------------------------------------------------
# model bridging and exact resume


def tuned(seed=0):
    streams = SeededStreams(seed)
    m = PromptedClassifier.init(tiny_config(), streams)
    m.install_adapters(streams)
    m.freeze()
    return m


def run_cfg(**kw) -> RunConfig:
    base = dict(seed=0, batch_size=8, steps=12)
    base.update(kw)
    return RunConfig(**base)


def dataset():
    return D.generate(D.TaskSpec(classes=3, per_class=16, noise=0.05), seed=0)


def test_snapshot_restore_preserves_model(tmp_path):
    model = tuned()
    run = run_cfg()
    ck = C.snapshot(model, run, step=0)
    p = tmp_path / "m.v2ap"
    C.save_checkpoint(ck, p)
    model2, run2 = C.restore_model(C.load_checkpoint(p))
    assert run2 == run
    assert model2.frozen == model.frozen
    assert set(model2.params) == set(model.params)
    for n in model.params:
        np.testing.assert_array_equal(model2.params[n].data, model.params[n].data)
        assert model2.params[n].requires_grad == model.params[n].requires_grad
    x = np.random.default_rng(0).random((3, 16, 16, 1)).astype(np.float32)
    np.testing.assert_array_equal(
        model.forward(x).logits.data, model2.forward(x).logits.data
    )


def test_hand_frozen_parameters_stay_frozen_through_a_checkpoint(tmp_path):
    # the freeze mask is requires_grad itself, however the parameters got it
    made = tuned()  # frozen by freeze()
    params = {n: Tensor(p.data.copy(), requires_grad=not n.startswith("backbone."))
              for n, p in made.params.items()}
    model = PromptedClassifier(tiny_config(), params)
    assert model.frozen == made.frozen and model.frozen
    p = tmp_path / "hand.v2ap"
    C.save_checkpoint(C.snapshot(model, run_cfg()), p)
    back, _ = C.restore_model(C.load_checkpoint(p))
    assert back.frozen == made.frozen
    assert not any(back.params[n].requires_grad for n in back.params if n.startswith("backbone."))
    assert back.frozen_digest() == made.frozen_digest()


def test_interrupted_training_matches_uninterrupted(tmp_path):
    ds = dataset()
    run = run_cfg(steps=12)

    straight = TR.Trainer(tuned(), run, ds)
    losses_straight = [m.task_ce for m in straight.train()]

    first = TR.Trainer(tuned(), run, ds)
    for _ in range(6):
        first.train_step()
    p = tmp_path / "mid.v2ap"
    C.save_checkpoint(C.snapshot(first.model, run, first.optimizer, step=first.step), p)

    ck = C.load_checkpoint(p)
    model2, run2 = C.restore_model(ck)
    second = TR.Trainer(model2, run2, ds, step=ck.step, optimizer=C.restore_optimizer(ck))
    resumed = [m.task_ce for m in second.train()]

    assert [m.task_ce for m in first.history] + resumed == losses_straight


def test_resumed_checkpoint_saves_identically(tmp_path):
    # train 12 in one go vs 6 + resume + 6: the final checkpoints match bytewise
    ds = dataset()
    run = run_cfg(steps=12)

    a = TR.Trainer(tuned(), run, ds)
    a.train()
    pa = tmp_path / "straight.v2ap"
    C.save_checkpoint(C.snapshot(a.model, run, a.optimizer, a.step), pa)

    b1 = TR.Trainer(tuned(), run, ds)
    for _ in range(6):
        b1.train_step()
    pm = tmp_path / "mid.v2ap"
    C.save_checkpoint(C.snapshot(b1.model, run, b1.optimizer, b1.step), pm)
    ck = C.load_checkpoint(pm)
    model2, run2 = C.restore_model(ck)
    b2 = TR.Trainer(model2, run2, ds, step=ck.step, optimizer=C.restore_optimizer(ck))
    b2.train()
    pb = tmp_path / "resumed.v2ap"
    C.save_checkpoint(C.snapshot(b2.model, run2, b2.optimizer, b2.step), pb)

    assert pa.read_bytes() == pb.read_bytes()


def test_a_step_after_restore_optimizer_leaves_the_checkpoint_moments_unchanged(tmp_path):
    # the restored optimizer shares the loaded arrays; AdamW.step must replace
    # its moments, never write into them
    ds = dataset()
    first = TR.Trainer(tuned(), run_cfg(steps=4), ds)
    first.train_step()
    p = tmp_path / "one.v2ap"
    C.save_checkpoint(C.snapshot(first.model, first.run, first.optimizer, first.step), p)
    ck = C.load_checkpoint(p)
    saved = {name: (m.copy(), ck.optimizer.v[name].copy()) for name, m in ck.optimizer.m.items()}
    opt = C.restore_optimizer(ck)
    model, run = C.restore_model(ck)
    TR.Trainer(model, run, ds, step=ck.step, optimizer=opt).train_step()
    assert opt.t == ck.optimizer.t + 1
    assert saved.keys() == opt.m.keys()
    for name, (m, v) in saved.items():
        assert np.array_equal(ck.optimizer.m[name], m) and np.array_equal(ck.optimizer.v[name], v)
        assert not np.array_equal(opt.m[name], m), name


def test_resume_from_moments_missing_an_unfrozen_tensor_is_refused(tmp_path):
    # such a file would leave head.b fixed for the whole resumed run
    first = TR.Trainer(tuned(), run_cfg(steps=4), dataset())
    first.train_step()
    ck = C.snapshot(first.model, first.run, first.optimizer, first.step)
    del ck.optimizer.m["head.b"], ck.optimizer.v["head.b"]
    p = tmp_path / "gap.v2ap"
    with pytest.raises(FormatError, match=r"has no moments for unfrozen tensor\(s\) 'head.b'"):
        C.save_checkpoint(ck, p)
    assert not p.exists()
    with pytest.MonkeyPatch.context() as mp:  # as another writer could
        mp.setattr(C, "_check_moments", lambda ck: None)
        C.save_checkpoint(ck, p)
    loaded = C.load_checkpoint(p)
    with pytest.raises(FormatError, match=r"has no moments for unfrozen tensor\(s\) 'head.b'"):
        C.restore_model(loaded)


def test_optimizer_settings_are_written_from_the_config_text(tmp_path):
    ck = small_checkpoint()
    run = RunConfig(lr=0.25, weight_decay=0.0, adam_beta1=0.5, adam_beta2=0.75, adam_eps=1e-6)
    ck.config_text = config_to_text(tiny_config(), run)
    p = tmp_path / "ck.v2ap"
    C.save_checkpoint(ck, p)
    assert p.read_bytes().count(struct.pack("<5d", 0.25, 0.0, 0.5, 0.75, 1e-6)) == 1
    C.save_checkpoint(C.load_checkpoint(p), tmp_path / "again.v2ap")
    assert (tmp_path / "again.v2ap").read_bytes() == p.read_bytes()


@pytest.mark.parametrize("with_optimizer", [True, False])
def test_save_refuses_an_invalid_config_text(tmp_path, with_optimizer):
    ck = small_checkpoint()
    ck.config_text = ck.config_text.replace("depth = 2\n", "depth = 0\n")
    if not with_optimizer:
        ck.optimizer = None
    with pytest.raises(FormatError, match="invalid config text: depth must be >= 1"):
        C.save_checkpoint(ck, tmp_path / "ck.v2ap")
    assert not (tmp_path / "ck.v2ap").exists()
