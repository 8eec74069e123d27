"""Checkpoint format: byte-exact round trips, fault injection, exact resume."""

import dataclasses
import math
import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2apt import checkpoint as C
from v2apt import data as D
from v2apt import trainer as TR
from v2apt.cli import main
from v2apt.config import RunConfig, config_from_text, config_to_text, tiny_config
from v2apt.errors import ConfigError, FormatError
from v2apt.model import PromptedClassifier, param_fault
from v2apt.rng import SeededStreams
from v2apt.tensor import Tensor, float64_mode


def small_checkpoint() -> C.Checkpoint:
    """A valid tiny-config snapshot: adapters on a frozen backbone, random
    moments for the unfrozen tensors, at optimizer step 42."""
    model = tuned()
    g = np.random.default_rng(0)
    m, v = {}, {}
    for name, p in model.trainables().items():
        m[name] = g.standard_normal(p.shape).astype(np.float32)
        v[name] = g.random(p.shape).astype(np.float32)
    return C.snapshot(model, RunConfig(), TR.AdamW(t=42, m=m, v=v))


def assert_same_checkpoint(a: C.Checkpoint, b: C.Checkpoint) -> None:
    assert (a.cfg, a.run, a.frozen) == (b.cfg, b.run, b.frozen)
    assert (a.optimizer is None) == (b.optimizer is None)
    groups = [(a.tensors, b.tensors)]
    if a.optimizer is not None:
        assert a.optimizer.t == b.optimizer.t
        groups += [(a.optimizer.m, b.optimizer.m), (a.optimizer.v, b.optimizer.v)]
    for x, y in groups:
        assert x.keys() == y.keys()
        for name in x:
            assert x[name].dtype == y[name].dtype, name
            np.testing.assert_array_equal(x[name], y[name])


# ---------------------------------------------------------------------------
# writing files that save refuses, as another writer could


def _save_unchecked(ck: C.Checkpoint, path) -> None:
    """Save `ck` as another writer could: without `_check`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(C, "_check", lambda ck: None)
        C.save_checkpoint(ck, path)


def _reseal(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def _checkpoint_fields(path) -> list[tuple[int, int, str]]:
    """(offset, length, label) of every field of a .v2ap before its footer."""
    fields = [(0, 4, "magic"), (4, 4, "version")]  # checked before the reader starts
    take = C._Reader.take

    def recording(self, n, what):
        fields.append((self.at, n, what))
        return take(self, n, what)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(C._Reader, "take", recording)
        C.load_checkpoint(path)
    return fields


def _write_fields(path, raws: dict[str, bytes]) -> None:
    """Put each of `raws` in place of the one field a load reads as its key, re-sealed."""
    body = bytearray(path.read_bytes()[:-4])
    fields = _checkpoint_fields(path)
    for what, raw in raws.items():
        [(at, n)] = [(at, n) for at, n, label in fields if label == what]
        assert len(raw) == n
        body[at:at + n] = raw
    path.write_bytes(_reseal(bytes(body)))


def _write_over(path, what: str, arr: np.ndarray) -> None:
    """Put `arr`'s bytes in place of the data a load reads as `what`, re-sealed."""
    _write_fields(path, {f"{what} data": arr.astype(arr.dtype.newbyteorder("<")).tobytes()})


_SECTIONS = {  # name section -> (label of its count, label of the field after it)
    "tensor": ("tensor count", "freeze count"),
    "freeze mask": ("freeze count", "optimizer flag"),
    "moment": ("moment count", "cursor count"),
}


def _with_records(path, section: str, reorder) -> None:
    """Rewrite the records of a name section of the .v2ap at `path` as
    `reorder` lists them, its count and the footer re-sealed."""
    count_label, next_label = _SECTIONS[section]
    fields = _checkpoint_fields(path)
    [count_at] = [at for at, _, label in fields if label == count_label]
    [end] = [at for at, _, label in fields if label == next_label]
    starts = [at for at, _, label in fields if label == f"{section} name length"] + [end]
    body = path.read_bytes()[:-4]
    records = reorder([body[a:b] for a, b in zip(starts, starts[1:])])
    head = body[:count_at] + struct.pack("<I", len(records))
    path.write_bytes(_reseal(head + b"".join(records) + body[end:]))


def _with_config_text(blob: bytes, old: str, new: str) -> bytes:
    """`blob` with `old` replaced in its config text, both checksums re-sealed."""
    text_len = struct.unpack_from("<I", blob, 8)[0]
    text = blob[12:12 + text_len].decode().replace(old, new).encode()
    assert len(text) == text_len + len(new) - len(old)
    head = blob[:8] + struct.pack("<I", len(text)) + text + struct.pack("<I", zlib.crc32(text))
    return _reseal(head + blob[12 + text_len + 4:-4])


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
    assert back.optimizer.t == 42
    assert back.frozen and back.frozen < back.tensors.keys()
    assert_same_checkpoint(back, ck)


@pytest.mark.parametrize("moments", [True, False], ids=["moments", "no-moments"])
def test_a_step_other_than_the_optimizers_step_count_is_refused(tmp_path, capsys, moments):
    # as a writer that kept the step apart from the optimizer could write it:
    # the step field and the cursor agree with each other, not with the step count
    ck = small_checkpoint()
    if not moments:
        ck.optimizer = None
    p = tmp_path / "ck.v2ap"
    C.save_checkpoint(ck, p)
    _write_fields(p, dict.fromkeys(["rng cursor", "step"], struct.pack("<Q", 7)))
    error = ("step field 7 is not 42, the step count of its optimizer" if moments
             else "step field 7 is not 0, the step count of a checkpoint without moments")
    with pytest.raises(FormatError, match=f"^{error}$"):
        C.load_checkpoint(p)
    D.save_dataset(D.generate(D.TaskSpec(classes=3, per_class=1), seed=0), tmp_path / "d.v2ds")
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(p), "--data", str(tmp_path / "d.v2ds")]) == 3
    assert capsys.readouterr().err == f"error: {error}\n"


def test_optimizer_absent_round_trips(tmp_path):
    ck = small_checkpoint()
    ck.optimizer = None
    p = tmp_path / "ck.v2ap"
    C.save_checkpoint(ck, p)
    assert C.load_checkpoint(p).optimizer is None


def test_float64_tensors_round_trip(tmp_path):
    with float64_mode():
        ck = C.snapshot(tuned(), RunConfig(), TR.AdamW())
    assert {a.dtype for a in ck.tensors.values()} == {np.dtype(np.float64)}
    p = tmp_path / "ck.v2ap"
    C.save_checkpoint(ck, p)
    assert_same_checkpoint(C.load_checkpoint(p), ck)


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
    with pytest.raises(FormatError, match=f"non-finite value in {what}"):
        C.save_checkpoint(ck, p)
    assert not p.exists()
    C.save_checkpoint(small_checkpoint(), p)
    _write_over(p, what, arrays["head.w"])
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
    return PromptedClassifier.from_pretrained(PromptedClassifier.init(tiny_config(), streams),
                                              tiny_config(), streams)


def run_cfg(**kw) -> RunConfig:
    base = dict(seed=0, batch_size=8, steps=12)
    base.update(kw)
    return RunConfig(**base)


def dataset():
    return D.generate(D.TaskSpec(classes=3, per_class=16, noise=0.05), seed=0)


def test_snapshot_restore_preserves_model(tmp_path):
    model = tuned()
    run = run_cfg()
    ck = C.snapshot(model, run)
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


def _param_set(model):
    return {n: (p.shape, p.dtype, p.requires_grad) for n, p in model.params.items()}


@pytest.mark.parametrize("built_by", ["init", "from_pretrained", "restore_model"])
def test_training_and_a_save_restore_keep_a_models_parameter_set(tmp_path, built_by):
    # the set is fixed where the model is built: AdamW.step replaces values,
    # and nothing after the constructor adds or drops a parameter
    cfg, run = tiny_config(), run_cfg(steps=3)
    pre = PromptedClassifier.init(cfg, SeededStreams(0))
    model = pre if built_by == "init" else PromptedClassifier.from_pretrained(pre, cfg, SeededStreams(1))
    if built_by == "restore_model":
        C.save_checkpoint(C.snapshot(model, run), tmp_path / "built.v2ap")
        model, _ = C.restore_model(C.load_checkpoint(tmp_path / "built.v2ap"))
    want = _param_set(model)
    assert any(requires_grad for *_, requires_grad in want.values())
    trainer = TR.Trainer(model, run, dataset())
    trainer.train()
    assert _param_set(model) == want and param_fault(cfg, model.params) is None
    p = tmp_path / "trained.v2ap"
    C.save_checkpoint(C.snapshot(model, run, trainer.optimizer), p)
    back, _ = C.restore_model(C.load_checkpoint(p))
    assert _param_set(back) == want and param_fault(cfg, back.params) is None


def test_a_snapshot_shares_the_run_yet_later_steps_leave_it_unchanged(tmp_path):
    trainer = TR.Trainer(tuned(), run_cfg(steps=6), dataset())
    trainer.train_step()
    ck = C.snapshot(trainer.model, trainer.run, trainer.optimizer)
    assert all(ck.tensors[n] is p.data for n, p in trainer.model.params.items())
    assert all(ck.optimizer.m[n] is a for n, a in trainer.optimizer.m.items())
    C.save_checkpoint(ck, tmp_path / "at_once.v2ap")
    for _ in range(3):
        trainer.train_step()
    C.save_checkpoint(ck, tmp_path / "later.v2ap")
    assert (tmp_path / "later.v2ap").read_bytes() == (tmp_path / "at_once.v2ap").read_bytes()
    assert ck.optimizer.t == 1 and trainer.step == 4


def test_interrupted_training_matches_uninterrupted(tmp_path):
    ds = dataset()
    run = run_cfg(steps=12)

    straight = TR.Trainer(tuned(), run, ds)
    losses_straight = [m.task_ce for m in straight.train()]

    first = TR.Trainer(tuned(), run, ds)
    for _ in range(6):
        first.train_step()
    p = tmp_path / "mid.v2ap"
    C.save_checkpoint(C.snapshot(first.model, run, first.optimizer), p)

    ck = C.load_checkpoint(p)
    model2, run2 = C.restore_model(ck)
    second = TR.Trainer(model2, run2, ds, optimizer=ck.optimizer)
    resumed = [m.task_ce for m in second.train()]

    assert [m.task_ce for m in first.history] + resumed == losses_straight


def test_resumed_checkpoint_saves_identically(tmp_path):
    # train 12 in one go vs 6 + resume + 6: the final checkpoints match bytewise
    ds = dataset()
    run = run_cfg(steps=12)

    a = TR.Trainer(tuned(), run, ds)
    a.train()
    pa = tmp_path / "straight.v2ap"
    C.save_checkpoint(C.snapshot(a.model, run, a.optimizer), pa)

    b1 = TR.Trainer(tuned(), run, ds)
    for _ in range(6):
        b1.train_step()
    pm = tmp_path / "mid.v2ap"
    C.save_checkpoint(C.snapshot(b1.model, run, b1.optimizer), pm)
    ck = C.load_checkpoint(pm)
    model2, run2 = C.restore_model(ck)
    b2 = TR.Trainer(model2, run2, ds, optimizer=ck.optimizer)
    b2.train()
    pb = tmp_path / "resumed.v2ap"
    C.save_checkpoint(C.snapshot(b2.model, run2, b2.optimizer), pb)

    assert pa.read_bytes() == pb.read_bytes()


def test_a_step_resumed_from_ck_optimizer_leaves_the_checkpoint_moments_unchanged(tmp_path):
    # the resumed trainer starts from the loaded optimizer itself; AdamW.step
    # must return a new one and replace its moments, never write into them
    ds = dataset()
    first = TR.Trainer(tuned(), run_cfg(steps=4), ds)
    first.train_step()
    p = tmp_path / "one.v2ap"
    C.save_checkpoint(C.snapshot(first.model, first.run, first.optimizer), p)
    ck = C.load_checkpoint(p)
    loaded = ck.optimizer
    saved = {name: (m.copy(), loaded.v[name].copy()) for name, m in loaded.m.items()}
    model, run = C.restore_model(ck)
    resumed = TR.Trainer(model, run, ds, optimizer=ck.optimizer)
    resumed.train_step()
    opt = resumed.optimizer
    assert ck.optimizer is loaded and opt.t == loaded.t + 1 == 2
    assert saved.keys() == opt.m.keys() == loaded.m.keys()
    for name, (m, v) in saved.items():
        assert np.array_equal(loaded.m[name], m) and np.array_equal(loaded.v[name], v)
        assert not np.array_equal(opt.m[name], m), name


def test_resume_from_moments_missing_an_unfrozen_tensor_is_refused(tmp_path):
    # such a file would leave head.b fixed for the whole resumed run
    first = TR.Trainer(tuned(), run_cfg(steps=4), dataset())
    first.train_step()
    ck = C.snapshot(first.model, first.run, first.optimizer)
    del ck.optimizer.m["head.b"], ck.optimizer.v["head.b"]
    p = tmp_path / "gap.v2ap"
    with pytest.raises(FormatError, match=r"has no moments for unfrozen tensor\(s\) 'head.b'"):
        C.save_checkpoint(ck, p)
    assert not p.exists()
    _save_unchecked(ck, p)
    for apply in (C.load_checkpoint, lambda p: C.restore_model(ck)):
        with pytest.raises(FormatError, match=r"has no moments for unfrozen tensor\(s\) 'head.b'"):
            apply(p)


def test_optimizer_settings_are_written_from_the_config_text(tmp_path):
    ck = small_checkpoint()
    ck.run = RunConfig(lr=0.25, weight_decay=0.0, adam_beta1=0.5, adam_beta2=0.75, adam_eps=1e-6)
    p = tmp_path / "ck.v2ap"
    C.save_checkpoint(ck, p)
    assert p.read_bytes().count(struct.pack("<5d", 0.25, 0.0, 0.5, 0.75, 1e-6)) == 1
    C.save_checkpoint(C.load_checkpoint(p), tmp_path / "again.v2ap")
    assert (tmp_path / "again.v2ap").read_bytes() == p.read_bytes()


def test_ints_and_numpy_scalars_in_a_config_save_as_a_load_accepts(tmp_path):
    # a float field given an int writes "0.0", not "0", which a load would find not canonical
    ck = small_checkpoint()
    ck.run = RunConfig(seed=np.int64(3), kl_beta=0, weight_decay=0, lr=np.float32(0.5))
    p = tmp_path / "ck.v2ap"
    C.save_checkpoint(ck, p)
    back = C.load_checkpoint(p)
    assert back.run == ck.run
    C.save_checkpoint(back, tmp_path / "again.v2ap")
    assert (tmp_path / "again.v2ap").read_bytes() == p.read_bytes()


@pytest.mark.parametrize("old, new", [
    ("depth = 2\n", "# the encoder\ndepth = 2\n"),  # a comment line
    ("depth = 2\n", ""),  # a missing key, even one whose default would do
    ("adam_beta1 = 0.9\nadam_beta2 = 0.999\n", "adam_beta2 = 0.999\nadam_beta1 = 0.9\n"),  # unsorted
    ("depth = 2\n", "depth=2\n"),  # spacing
])
def test_a_config_text_that_is_not_canonical_is_refused(tmp_path, old, new):
    # each parses, so a --config file may hold it, but the file would not re-save to its bytes
    p = tmp_path / "ck.v2ap"
    C.save_checkpoint(small_checkpoint(), p)
    p.write_bytes(_with_config_text(p.read_bytes(), old, new))
    with pytest.raises(FormatError, match="config text is not canonical"):
        C.load_checkpoint(p)
    D.save_dataset(D.generate(D.TaskSpec(classes=3, per_class=1), seed=0), tmp_path / "d.v2ds")
    assert main(["eval", "--ckpt", str(p), "--data", str(tmp_path / "d.v2ds")]) == 3


# ---------------------------------------------------------------------------
# save and load accept the same files


_CONFIG_EDITS = [  # (old line, new line) in the tiny config text, the same edit as
    # field values (None: no field holds it), and the message of the config it builds
    ("depth = 2\n", "depth = 0\n", {"depth": 0}, "depth must be >= 1, got 0"),
    ("dim = 16\n", "dim = 15\n", {"dim": 15}, "dim 15 not divisible by heads 2"),
    ("lr = 0.001\n", "lr = nan\n", {"lr": math.nan}, "lr must be finite and > 0, got nan"),
    ("seed = 0\n", "seed = 0\nbogus = 1\n", None, "unknown config key 'bogus'"),
    ("num_classes = 3\n", "num_classes = 5\n", {"num_classes": 5}, None),  # not the tensors' config
    ("lr = 0.001\n", "lr = 0.002\n", {"lr": 0.002}, None),  # a save writes the settings it implies
]


def _edit_configs(ck: C.Checkpoint, old: str, new: str, changes: dict | None) -> None:
    """Build `ck`'s configs with one edit: its field values through
    `dataclasses.replace`, or its text through the parser when no field holds it."""
    if changes is None:
        ck.cfg, ck.run = config_from_text(config_to_text(ck.cfg, ck.run).replace(old, new))
    elif changes.keys() <= {f.name for f in dataclasses.fields(ck.cfg)}:
        ck.cfg = dataclasses.replace(ck.cfg, **changes)
    else:
        ck.run = dataclasses.replace(ck.run, **changes)


def _save_then(patch):
    """A writer that saves the unchanged snapshot, then patches its bytes."""
    def write(p):
        C.save_checkpoint(small_checkpoint(), p)
        patch(p)
    return write


def _mutate(ck: C.Checkpoint, draw):
    """Apply one drawn change to `ck`. Return (writer, message): a writer of the
    changed file when save cannot be made to write it, and the message a load
    gives when `ck` cannot hold the change, or, without a writer, the message
    save must refuse `ck` with. Non-finite values, invalid configs and
    unsorted names go in as patched bytes."""
    o, names = ck.optimizer, sorted(ck.tensors)
    unfrozen = sorted(ck.tensors.keys() - ck.frozen)
    kind = draw(st.sampled_from([
        "drop tensor", "add tensor", "drop adapter group", "drop optimizer", "drop moment",
        "add moment", "moment shape", "moment dtype", "finite value", "non-finite value",
        "freeze stray name", "config text", "step", "step field", "name order",
    ]))
    if kind == "drop tensor":
        name = draw(st.sampled_from(names))
        del ck.tensors[name]
        if draw(st.booleans()):
            o.m.pop(name, None)
            o.v.pop(name, None)
    elif kind == "add tensor":
        name = draw(st.sampled_from(["backbone.extra", "prompts.9", "vae.enc.w3"]))
        ck.tensors[name] = np.zeros(3, np.float32)
        if draw(st.booleans()):
            o.m[name] = o.v[name] = np.zeros(3, np.float32)
    elif kind == "drop adapter group":  # valid only with both: a model holds all or none
        prefixes = draw(st.sampled_from([("prompts.",), ("vae.",), ("prompts.", "vae.")]))
        dropped = [n for n in names if n.startswith(prefixes)]
        for name in dropped:
            del ck.tensors[name], o.m[name], o.v[name]
        if len(prefixes) == 1:
            return None, f"checkpoint lacks tensor(s) {', '.join(map(repr, dropped))}"
    elif kind == "name order":  # the first two names swapped, or the first record repeated
        section = draw(st.sampled_from(sorted(_SECTIONS)))
        swap = draw(st.booleans())
        first, second = sorted({"tensor": ck.tensors, "freeze mask": ck.frozen, "moment": o.m}[section])[:2]
        reorder = (lambda r: [r[1], r[0], *r[2:]]) if swap else (lambda r: [r[0], *r])
        return (_save_then(lambda p: _with_records(p, section, reorder)),
                f"{section} names are not strictly ascending: {first!r} after {second if swap else first!r}")
    elif kind == "drop optimizer":  # valid
        ck.optimizer = None
    elif kind == "drop moment":
        name = draw(st.sampled_from(unfrozen))
        del o.m[name], o.v[name]
    elif kind == "add moment":
        name = draw(st.sampled_from(sorted(ck.frozen) + ["backbone.extra"]))
        o.m[name] = o.v[name] = np.zeros(3, np.float32)
    elif kind in ("moment shape", "moment dtype"):
        moments, name = draw(st.sampled_from([o.m, o.v])), draw(st.sampled_from(unfrozen))
        a = moments[name]
        reshaped = [a.reshape(-1)[:1], a[None], a.reshape(-1)[:0]]
        moments[name] = (a.astype(np.float64) if kind == "moment dtype"
                         else draw(st.sampled_from(reshaped)))
    elif kind in ("finite value", "non-finite value"):
        section = draw(st.sampled_from(["tensor", "first moment", "second moment"]))
        arrays = {"tensor": ck.tensors, "first moment": o.m, "second moment": o.v}[section]
        name = draw(st.sampled_from(sorted(arrays)))
        a = arrays[name] = arrays[name].copy()
        a.flat[draw(st.integers(0, a.size - 1))] = draw(
            st.floats(width=32, allow_nan=False, allow_infinity=False) if kind == "finite value"
            else st.sampled_from([np.nan, np.inf, -np.inf]))
        if kind == "non-finite value":
            return _save_then(lambda p: _write_over(p, f"{section} {name!r}", a)), None
    elif kind == "freeze stray name":
        ck.frozen = ck.frozen | {draw(st.sampled_from(["backbone.no_such", "", "head.w"]))}
    elif kind == "config text":
        old, new, changes, error = draw(st.sampled_from(_CONFIG_EDITS))
        if error is None:
            _edit_configs(ck, old, new, changes)
        else:
            with pytest.raises(ConfigError, match=re.escape(error)):
                _edit_configs(ck, old, new, changes)
            return (_save_then(lambda p: p.write_bytes(_with_config_text(p.read_bytes(), old, new))),
                    f"invalid config text: {error}")
    elif kind == "step field":  # a step other than the optimizer's, which save never writes
        step = draw(st.integers(0, 2**64 - 1).filter(lambda step: step != o.t))
        return (_save_then(lambda p: _write_fields(p, {"step": struct.pack("<Q", step)})),
                f"step field {step} is not {o.t}, the step count of its optimizer")
    else:  # valid: any optimizer step the file's u64 holds; the step follows it
        ck.optimizer = dataclasses.replace(o, t=draw(st.integers(0, 2**64 - 1)))
    return None, None


def _assert_save_and_load_agree(d, ck: C.Checkpoint, write, refused) -> None:
    """A checkpoint that saves loads back equal and re-saves byte for byte; one
    that save refuses (with `refused`, when given without a writer), restore
    and load refuse with the same message, as load refuses the bytes that
    `write` writes with `refused`."""
    p = d / "ck.v2ap"
    if write is None or refused is None:
        try:
            C.save_checkpoint(ck, p)
        except FormatError as e:
            assert refused in (None, str(e))
            refused = str(e)
        else:
            assert refused is None, f"save wrote a checkpoint it must refuse: {refused}"
            back = C.load_checkpoint(p)
            assert_same_checkpoint(back, ck)
            C.save_checkpoint(back, d / "again.v2ap")
            assert (d / "again.v2ap").read_bytes() == p.read_bytes()
            return
        assert not p.exists()
    if write is None:  # `ck` holds the fault
        with pytest.raises(FormatError) as restored:
            C.restore_model(ck)
        assert str(restored.value) == refused
    (write or (lambda p: _save_unchecked(ck, p)))(p)
    with pytest.raises(FormatError) as loaded:
        C.load_checkpoint(p)
    assert str(loaded.value) == refused
    D.save_dataset(D.generate(D.TaskSpec(classes=3, per_class=1), seed=0), d / "d.v2ds")
    assert main(["eval", "--ckpt", str(p), "--data", str(d / "d.v2ds")]) == 3


@settings(max_examples=80, derandomize=True, deadline=None)
@given(data=st.data())
def test_save_and_load_refuse_the_same_checkpoints(tmp_path_factory, data):
    ck = small_checkpoint()
    _assert_save_and_load_agree(tmp_path_factory.mktemp("mutated"), ck, *_mutate(ck, data.draw))


@pytest.mark.parametrize("edit", _CONFIG_EDITS, ids=lambda edit: edit[1].strip().replace("\n", ";"))
def test_save_and_load_agree_on_every_config_edit(tmp_path, edit):
    # the property test draws only some of the edits
    ck = small_checkpoint()
    drawn = iter(["config text", edit])
    _assert_save_and_load_agree(tmp_path, ck, *_mutate(ck, lambda strategy: next(drawn)))


@pytest.mark.parametrize("drawn", [
    ["drop adapter group", prefixes] for prefixes in [("prompts.",), ("vae.",), ("prompts.", "vae.")]
] + [["name order", section, swap] for section in sorted(_SECTIONS) for swap in (True, False)],
    ids=lambda drawn: " ".join(map(str, drawn)))
def test_save_and_load_agree_on_each_adapter_drop_and_name_order(tmp_path, drawn):
    # one adapter group is not a model, and names out of order would re-save to other bytes
    ck = small_checkpoint()
    draws = iter(drawn)
    _assert_save_and_load_agree(tmp_path, ck, *_mutate(ck, lambda strategy: next(draws)))


@pytest.mark.parametrize("drawn", [["step", 0], ["step", 2**64 - 1], ["step field", 0], ["step field", 2**64 - 1]],
                         ids=lambda drawn: " ".join(map(str, drawn)))
def test_save_and_load_agree_on_the_step(tmp_path, drawn):
    # any optimizer step count saves, loads back and re-saves; a step field other than it is refused
    ck = small_checkpoint()
    draws = iter(drawn)
    _assert_save_and_load_agree(tmp_path, ck, *_mutate(ck, lambda strategy: next(draws)))
