"""End-to-end checks of the command-line surface.

Everything runs in-process through `cli.main` so we can assert on exit codes
and captured output without subprocess overhead; one test exercises the real
`python -m` entry point.
"""

import contextlib
import dataclasses
import io
import json
import os
import re
import struct
import subprocess
import sys
import types
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_checkpoint import (_checkpoint_fields, _reseal, _save_unchecked, _with_config_text,
                             _write_over)
from v2apt import vae as V
from v2apt.checkpoint import load_checkpoint, save_checkpoint
from v2apt.cli import main
from v2apt.config import RunConfig, config_from_text, config_to_text, tiny_config
from v2apt.data import DATA_MAGIC, DATA_VERSION, TaskSpec, generate, save_dataset
from v2apt.errors import FormatError


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One shared pipeline: dataset, config, pretrained and tuned checkpoints."""
    d = tmp_path_factory.mktemp("cli")
    cfg = dataclasses.replace(tiny_config(), num_classes=3)
    run = RunConfig(batch_size=16, steps=24, train_frac=0.75)
    (d / "cfg.txt").write_text(config_to_text(cfg, run))
    assert main(["gen-data", "--preset", "easy-3", "--seed", "7",
                 "--out", str(d / "easy.v2ds")]) == 0
    assert main(["pretrain", "--config", str(d / "cfg.txt"),
                 "--data", str(d / "easy.v2ds"), "--out", str(d / "pre.v2ap")]) == 0
    assert main(["tune", "--config", str(d / "cfg.txt"),
                 "--backbone-ckpt", str(d / "pre.v2ap"), "--data", str(d / "easy.v2ds"),
                 "--method", "v2apt", "--out", str(d / "tuned.v2ap")]) == 0
    return d


def test_pipeline_artifacts_exist(workdir):
    for name in ("easy.v2ds", "pre.v2ap", "tuned.v2ap",
                 "pre.v2ap.metrics.jsonl", "tuned.v2ap.metrics.jsonl"):
        assert (workdir / name).exists(), name


def test_metrics_lines_are_json_with_contiguous_steps(workdir):
    lines = (workdir / "tuned.v2ap.metrics.jsonl").read_text().splitlines()
    records = [json.loads(ln) for ln in lines]
    assert [r["step"] for r in records] == list(range(len(records)))
    assert all("task_ce" in r and "beta" in r for r in records)


def test_eval_prints_identical_accuracy_twice(workdir, capsys):
    argv = ["eval", "--ckpt", str(workdir / "tuned.v2ap"), "--data", str(workdir / "easy.v2ds")]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("accuracy ")


def test_tune_reruns_are_byte_identical(workdir, tmp_path):
    base = ["tune", "--config", str(workdir / "cfg.txt"),
            "--backbone-ckpt", str(workdir / "pre.v2ap"),
            "--data", str(workdir / "easy.v2ds"), "--steps", "8"]
    assert main(base + ["--method", "v2apt", "--out", str(tmp_path / "a.v2ap")]) == 0
    assert main(base + ["--method", "v2apt", "--out", str(tmp_path / "b.v2ap")]) == 0
    assert (tmp_path / "a.v2ap").read_bytes() == (tmp_path / "b.v2ap").read_bytes()


def test_vpt_flag_equals_zero_instance_config(workdir, tmp_path):
    # --method vpt just pins prompt_inst = 0, so an explicit zero-instance
    # config trained under --method v2apt must produce the same bytes
    cfg = dataclasses.replace(tiny_config(), num_classes=3, prompt_inst=0)
    run = RunConfig(batch_size=16, steps=8, train_frac=0.75)
    (tmp_path / "zero.txt").write_text(config_to_text(cfg, run))
    common = ["--backbone-ckpt", str(workdir / "pre.v2ap"), "--data", str(workdir / "easy.v2ds")]
    assert main(["tune", "--config", str(workdir / "cfg.txt"), "--steps", "8",
                 "--method", "vpt", "--out", str(tmp_path / "vpt.v2ap")] + common) == 0
    assert main(["tune", "--config", str(tmp_path / "zero.txt"),
                 "--method", "v2apt", "--out", str(tmp_path / "zero.v2ap")] + common) == 0
    assert (tmp_path / "vpt.v2ap").read_bytes() == (tmp_path / "zero.v2ap").read_bytes()


def test_simmap_csv_and_pgm(workdir, tmp_path):
    common = ["simmap", "--ckpt", str(workdir / "tuned.v2ap"),
              "--data", str(workdir / "easy.v2ds"), "--index", "3"]
    assert main(common + ["--out", str(tmp_path / "m.csv")]) == 0
    assert main(common + ["--out", str(tmp_path / "m.pgm"), "--format", "pgm"]) == 0
    with open(tmp_path / "m.csv") as f:
        assert f.readline().strip() == ",".join(str(j) for j in range(16))
    raw = (tmp_path / "m.pgm").read_bytes()
    assert raw.startswith(b"P5\n16 4\n255\n")
    assert len(raw) == len(b"P5\n16 4\n255\n") + 16 * 4


def test_unknown_preset_exits_2_and_lists_names(capsys, tmp_path):
    rc = main(["gen-data", "--preset", "nope", "--out", str(tmp_path / "x.v2ds")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "easy-3" in err and "shift-B-hard" in err


@pytest.mark.parametrize("seed", ["-1", str(2**32), "8589934592"])
def test_out_of_range_seed_exits_2(capsys, tmp_path, seed):
    out = tmp_path / "x.v2ds"
    rc = main(["gen-data", "--preset", "easy-3", "--seed", seed, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: seed must be in [0, 2**32)")
    assert "Traceback" not in err
    assert not out.exists()


_OVERRIDES = [
    ("--steps", "0", "steps must be >= 1, got 0"),
    ("--seed", "-1", "seed must be in [0, 2**32), got -1"),
    ("--batch-size", "0", "batch_size must be >= 1, got 0"),
]


@pytest.mark.parametrize("command, flag, value, message",
                         [(command, *o) for command in ("pretrain", "tune") for o in _OVERRIDES]
                         + [("tune", "--train-frac", "1", "train_frac must be in (0, 1), got 1.0")])
def test_invalid_override_exits_2_before_any_file_is_read(capsys, tmp_path, command, flag,
                                                          value, message):
    missing = str(tmp_path / "missing")  # reading any of these would exit 3
    argv = [command, "--data", missing, "--out", str(tmp_path / "out.v2ap"), flag, value]
    if command == "tune":
        argv += ["--backbone-ckpt", missing, "--method", "v2apt"]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: {message}\n"


def test_missing_data_file_exits_3(workdir, tmp_path):
    rc = main(["eval", "--ckpt", str(workdir / "tuned.v2ap"), "--data", str(tmp_path / "no.v2ds")])
    assert rc == 3


def test_checkpoint_with_nan_parameter_exits_3(workdir, tmp_path, capsys):
    ck = load_checkpoint(workdir / "tuned.v2ap")
    ck.tensors["prompts.1"][0, 0] = np.nan
    bad = tmp_path / "nan.v2ap"
    with pytest.raises(FormatError, match="non-finite value in tensor 'prompts.1'"):
        save_checkpoint(ck, bad)
    assert not bad.exists()
    bad.write_bytes((workdir / "tuned.v2ap").read_bytes())
    _write_over(bad, "tensor 'prompts.1'", ck.tensors["prompts.1"])
    capsys.readouterr()
    rc = main(["eval", "--ckpt", str(bad), "--data", str(workdir / "easy.v2ds")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "non-finite value in tensor 'prompts.1'" in err
    assert "Traceback" not in err


def _drop_patch_weight(ck):
    del ck.tensors["backbone.patch.w"]


def _misshape_head(ck):
    ck.tensors["head.w"] = ck.tensors["head.w"][:, :2].copy()


def _add_stray_tensor(ck):
    ck.tensors["backbone.extra"] = np.zeros(3, dtype=np.float32)


def _freeze_stray_name(ck):
    ck.frozen = ck.frozen | {"backbone.no_such"}


def _keep_only_the_generator(ck):  # a model holds every adapter group its config implies or none
    for name in [n for n in ck.tensors if n.startswith("prompts.")]:
        del ck.tensors[name]
    ck.tensors.update({n: np.zeros(shape, np.float32) for n, shape in V.param_shapes(ck.cfg).items()})


@pytest.mark.parametrize("corrupt, message", [
    (_drop_patch_weight, "lacks tensor(s) 'backbone.patch.w'"),
    (_misshape_head, "tensor 'head.w' has shape (16, 2), its config implies (16, 3)"),
    (_add_stray_tensor, "has unexpected tensor(s) 'backbone.extra'"),
    (_freeze_stray_name, "freezes unknown tensor(s) 'backbone.no_such'"),
    (_keep_only_the_generator, "lacks tensor(s) 'prompts.0', 'prompts.1'"),
])
@pytest.mark.parametrize("command", ["eval", "tune"])
def test_checkpoint_disagreeing_with_its_config_exits_3(workdir, tmp_path, capsys,
                                                        corrupt, message, command):
    # CRC-valid files whose tensors or freeze mask do not fit their own config:
    # the tensor checks come before the moment checks, so these moments need no edit
    source = "tuned.v2ap" if command == "eval" else "pre.v2ap"
    ck = load_checkpoint(workdir / source)
    corrupt(ck)
    bad = tmp_path / "bad.v2ap"
    with pytest.raises(FormatError, match=re.escape(message)):
        save_checkpoint(ck, bad)
    _save_unchecked(ck, bad)
    data = str(workdir / "easy.v2ds")
    if command == "eval":
        argv = ["eval", "--ckpt", str(bad), "--data", data]
    else:
        argv = ["tune", "--config", str(workdir / "cfg.txt"), "--backbone-ckpt", str(bad),
                "--data", data, "--method", "v2apt", "--out", str(tmp_path / "t.v2ap")]
    capsys.readouterr()
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 3
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "t.v2ap").exists()


def _eval(ckpt, data) -> int:
    return main(["eval", "--ckpt", str(ckpt), "--data", str(data)])


def _drop_head_b_moments(ck):
    del ck.optimizer.m["head.b"], ck.optimizer.v["head.b"]


def _add_frozen_moments(ck):
    ck.optimizer.m["backbone.cls"] = ck.optimizer.v["backbone.cls"] = ck.tensors["backbone.cls"]


def _shrink_head_b_moment(ck):  # the first AdamW step would broadcast it
    ck.optimizer.m["head.b"] = ck.optimizer.m["head.b"][:1].copy()


def _widen_head_w_moment(ck):
    ck.optimizer.v["head.w"] = ck.optimizer.v["head.w"].astype(np.float64)


@pytest.mark.parametrize("source, corrupt, message", [
    ("tuned.v2ap", _drop_head_b_moments, "has no moments for unfrozen tensor(s) 'head.b'"),
    ("tuned.v2ap", _add_frozen_moments, "has moments for frozen or unknown tensor(s) 'backbone.cls'"),
    # the tensor checks come first: this file also has moments for the dropped tensor
    ("pre.v2ap", lambda ck: ck.tensors.pop("backbone.patch.w"), "lacks tensor(s) 'backbone.patch.w'"),
    ("tuned.v2ap", _shrink_head_b_moment,
     "first moment 'head.b' is float32 (1,), its tensor float32 (3,)"),
    ("tuned.v2ap", _widen_head_w_moment,
     "second moment 'head.w' is float64 (16, 3), its tensor float32 (16, 3)"),
])
def test_checkpoint_moments_other_than_the_unfrozen_tensors_exit_3(workdir, tmp_path, capsys,
                                                                    source, corrupt, message):
    ck = load_checkpoint(workdir / source)
    corrupt(ck)
    bad = tmp_path / "bad.v2ap"
    with pytest.raises(FormatError, match=re.escape(message)):
        save_checkpoint(ck, bad)
    assert not bad.exists()
    _save_unchecked(ck, bad)
    capsys.readouterr()
    assert _eval(bad, workdir / "easy.v2ds") == 3
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["eval", "tune"])
def test_checkpoint_with_an_invalid_config_text_exits_3(workdir, tmp_path, capsys, command):
    # CRC-valid: the config text itself fails validation
    source = "tuned.v2ap" if command == "eval" else "pre.v2ap"
    bad = tmp_path / "bad.v2ap"
    bad.write_bytes(_with_config_text((workdir / source).read_bytes(), "depth = 2\n", "depth = 0\n"))
    data = str(workdir / "easy.v2ds")
    if command == "eval":
        argv = ["eval", "--ckpt", str(bad), "--data", data]
    else:
        argv = ["tune", "--config", str(workdir / "cfg.txt"), "--backbone-ckpt", str(bad),
                "--data", data, "--method", "v2apt", "--out", str(tmp_path / "t.v2ap")]
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "invalid config text: depth must be >= 1, got 0" in err
    assert "Traceback" not in err
    assert not (tmp_path / "t.v2ap").exists()


@pytest.mark.parametrize("field", ["config text", "tensor name"])
def test_non_utf8_checkpoint_text_exits_3_naming_the_field(workdir, tmp_path, capsys, field):
    blob = bytearray((workdir / "tuned.v2ap").read_bytes())
    text_len = struct.unpack_from("<I", blob, 8)[0]
    if field == "config text":  # text from offset 12, then its own CRC
        blob[12] = 0xFF
        struct.pack_into("<I", blob, 12 + text_len, zlib.crc32(blob[12:12 + text_len]))
    else:  # after the text CRC: tensor count, the first name's length, its first byte
        blob[12 + text_len + 4 + 4 + 2] = 0xFF
    bad = tmp_path / "bad.v2ap"
    bad.write_bytes(_reseal(bytes(blob[:-4])))
    capsys.readouterr()
    assert _eval(bad, workdir / "easy.v2ds") == 3
    assert f"{field} is not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("h, w, c_in", [(0, 0, 1), (0, 16, 1), (16, 0, 1), (16, 16, 0)])
def test_dataset_with_an_empty_image_extent_exits_3(workdir, tmp_path, capsys, h, w, c_in):
    # one image of no pixels: the file length agrees with its header
    header = DATA_MAGIC + struct.pack("<IIIIIII", DATA_VERSION, 1, h, w, c_in, 3, 0)
    bad = tmp_path / "empty.v2ds"
    bad.write_bytes(_reseal(header + struct.pack("<I", 0)))
    capsys.readouterr()
    assert _eval(workdir / "tuned.v2ap", bad) == 3
    assert "empty image extent" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["lr", "weight_decay", "adam_eps", "kl_beta"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_run_setting_exits_2_naming_the_key(workdir, tmp_path, capsys, key, value):
    text = "".join(f"{key} = {value}\n" if line.startswith(f"{key} =") else line + "\n"
                   for line in (workdir / "cfg.txt").read_text().splitlines())
    (tmp_path / "cfg.txt").write_text(text)
    out = tmp_path / "p.v2ap"
    capsys.readouterr()
    rc = main(["pretrain", "--config", str(tmp_path / "cfg.txt"),
               "--data", str(workdir / "easy.v2ds"), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {key} must be finite and ")
    assert err.rstrip().endswith(f"got {value}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.txt"]


@pytest.mark.parametrize("field, value", [
    ("lr", float("nan")), ("adam_eps", -1.0), ("adam_beta1", 5.0),
    ("lr", 0.5),  # in range, but not the config's
])
def test_checkpoint_optimizer_settings_other_than_its_config_exit_3(workdir, tmp_path, capsys,
                                                                    field, value):
    _, run = config_from_text((workdir / "cfg.txt").read_text())
    names = ("lr", "weight_decay", "adam_beta1", "adam_beta2", "adam_eps")
    settings = tuple(getattr(run, n) for n in names)
    patched = tuple(value if n == field else v for n, v in zip(names, settings))
    body = (workdir / "tuned.v2ap").read_bytes()[:-4]
    assert body.count(struct.pack("<5d", *settings)) == 1
    bad = tmp_path / "bad.v2ap"
    bad.write_bytes(_reseal(body.replace(struct.pack("<5d", *settings), struct.pack("<5d", *patched))))
    capsys.readouterr()
    assert _eval(bad, workdir / "easy.v2ds") == 3
    err = capsys.readouterr().err
    assert f"optimizer settings {patched} are not the config's" in err
    assert str(settings) in err
    assert "Traceback" not in err


def _cursor_section(cursors) -> bytes:
    out = struct.pack("<I", len(cursors))
    for name, value in cursors:
        out += struct.pack("<H", len(name)) + name.encode() + struct.pack("<Q", value)
    return out


@pytest.mark.parametrize("cursors", [
    lambda step: [("eps", step + 1)],
    lambda step: [("eps", step), ("shuffle", step)],
    lambda step: [("shuffle", step)],
    lambda step: [],
], ids=["eps-not-step", "second-cursor", "other-name", "no-cursor"])
def test_rng_cursor_other_than_the_step_exits_3(workdir, tmp_path, capsys, cursors):
    blob = (workdir / "tuned.v2ap").read_bytes()
    step = struct.unpack_from("<Q", blob, len(blob) - 12)[0]
    written = _cursor_section([("eps", step)])  # the one cursor a save writes
    head = blob[:-12 - len(written)]
    assert head + written == blob[:-12]
    bad = tmp_path / "bad.v2ap"
    bad.write_bytes(_reseal(head + _cursor_section(cursors(step)) + struct.pack("<Q", step)))
    capsys.readouterr()
    assert _eval(bad, workdir / "easy.v2ds") == 3
    assert "rng cursors" in capsys.readouterr().err


def _dataset_fields(path) -> list[tuple[int, int]]:
    """(offset, length) of every field of a .v2ds before its footer."""
    b, h, w, c_in = struct.unpack_from("<4I", path.read_bytes(), 8)
    pixels = 4 * b * h * w * c_in
    return [(0, 4)] + [(4 + 4 * i, 4) for i in range(7)] + [(32, pixels), (32 + pixels, 4 * b)]


def _damaged_copies(blob: bytes, fields):
    """(label, bytes): cut at every field boundary, as is and with the footer
    re-sealed; one byte flipped inside each field, re-sealed; one byte appended."""
    body = blob[:-4]
    for at in [at for at, _ in fields] + [len(body)]:
        yield f"cut at {at}", blob[:at]
        yield f"cut at {at}, re-sealed", _reseal(body[:at])
    for at, n in fields:
        flipped = bytearray(body)
        flipped[at + n // 2] ^= 0x80
        yield f"byte {at + n // 2} flipped, re-sealed", _reseal(bytes(flipped))
    yield "byte appended", blob + b"\0"
    yield "byte appended, re-sealed", _reseal(body + b"\0")


def test_damaged_files_exit_with_a_code_never_a_traceback(workdir, tmp_path):
    ckpt, data = workdir / "tuned.v2ap", tmp_path / "small.v2ds"
    save_dataset(generate(TaskSpec(classes=3, per_class=2), seed=0), data)
    damaged_ckpt, damaged_data = tmp_path / "damaged.v2ap", tmp_path / "damaged.v2ds"
    problems, runs = [], 0
    ckpt_fields = [(at, n) for at, n, _ in _checkpoint_fields(ckpt)]
    for good, fields, damaged, argv in (
        (ckpt, ckpt_fields, damaged_ckpt, (damaged_ckpt, data)),
        (data, _dataset_fields(data), damaged_data, (ckpt, damaged_data)),
    ):
        for label, blob in _damaged_copies(good.read_bytes(), fields):
            damaged.write_bytes(blob)
            runs += 1
            try:
                code = _eval(*argv)
            except Exception as e:  # the defect under test: report every case
                problems.append(f"{good.name} {label}: {e!r}")
            else:
                if code not in (0, 2, 3, 4):
                    problems.append(f"{good.name} {label}: exit {code}")
    assert runs > 100
    assert not problems, "\n".join(problems)


def test_tune_evaluates_the_test_split_once_at_its_last_step(workdir, tmp_path, capsys,
                                                             monkeypatch):
    from v2apt.data import load_dataset, split
    from v2apt.model import PromptedClassifier

    _, run = config_from_text((workdir / "cfg.txt").read_text())
    train_ds, test_ds = split(load_dataset(workdir / "easy.v2ds"), run.train_frac, run.seed)
    steps = 8
    assert len(train_ds) // run.batch_size > steps  # no epoch ends before the last step
    calls = []
    predict = PromptedClassifier.predict
    monkeypatch.setattr(PromptedClassifier, "predict",
                        lambda self, images, *a, **k: calls.append(len(images))
                        or predict(self, images, *a, **k))
    out = tmp_path / "t.v2ap"
    capsys.readouterr()
    assert main(["tune", "--config", str(workdir / "cfg.txt"), "--steps", str(steps),
                 "--backbone-ckpt", str(workdir / "pre.v2ap"), "--data", str(workdir / "easy.v2ds"),
                 "--method", "v2apt", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert calls == [len(test_ds)]  # the last step's evaluation, and no second one
    metrics = [json.loads(ln) for ln in (tmp_path / "t.v2ap.metrics.jsonl").read_text().splitlines()]
    assert [m["accuracy"] is not None for m in metrics] == [False] * (steps - 1) + [True]
    assert f"test accuracy {metrics[-1]['accuracy']:.6f}" in printed


def test_dataset_passed_as_checkpoint_exits_3(workdir, tmp_path):
    rc = main(["tune", "--config", str(workdir / "cfg.txt"),
               "--backbone-ckpt", str(workdir / "easy.v2ds"),
               "--data", str(workdir / "easy.v2ds"),
               "--method", "vpt", "--out", str(tmp_path / "t.v2ap")])
    assert rc == 3


def test_class_count_mismatch_exits_2(workdir, tmp_path):
    # default config expects 4 classes; easy-3 has 3
    rc = main(["pretrain", "--data", str(workdir / "easy.v2ds"),
               "--out", str(tmp_path / "p.v2ap"), "--steps", "1"])
    assert rc == 2


def test_unwritable_output_exits_3(workdir, tmp_path):
    rc = main(["gen-data", "--preset", "easy-3",
               "--out", str(tmp_path / "no_such_dir" / "x.v2ds")])
    assert rc == 3


@pytest.mark.parametrize("command", ["pretrain", "tune"])
@pytest.mark.parametrize("out", ["no_such_dir/t.v2ap", "."])
def test_unwritable_out_exits_3_before_training(workdir, tmp_path, capsys, monkeypatch,
                                                command, out):
    monkeypatch.setattr("v2apt.cli.Trainer.train", lambda *a, **k: pytest.fail("trained"))
    out = tmp_path / out
    argv = [command, "--config", str(workdir / "cfg.txt"), "--data", str(workdir / "easy.v2ds"),
            "--out", str(out)]
    if command == "tune":
        argv += ["--backbone-ckpt", str(workdir / "pre.v2ap"), "--method", "v2apt"]
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: --out ")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value, message", [
    ("--index", "100000", "image index 100000 out of range [0, "),
    ("--layer", "-1", "layers [-1] out of range [0, 2)"),
    ("--layer", "4", "layers [4] out of range [0, 2)"),
])
def test_bad_simmap_index_exits_2(workdir, tmp_path, capsys, flag, value, message):
    rc = main(["simmap", "--ckpt", str(workdir / "tuned.v2ap"),
               "--data", str(workdir / "easy.v2ds"), flag, value, "--out", str(tmp_path / "m.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_gradcheck_subcommand_passes(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "all gradients verified" in out


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_gradcheck_tolerance_must_be_positive_and_finite(capsys, monkeypatch, tol):
    monkeypatch.setattr("v2apt.cli.full_model_check", lambda *a, **k: pytest.fail("check ran"))
    assert main(["gradcheck", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --tol must be finite and > 0, got ")
    assert captured.out == ""


def test_a_non_finite_parameter_update_exits_4_at_the_step_that_makes_it(workdir, tmp_path, capsys):
    # lr * update overflows float32; under error::RuntimeWarning a numpy warning would raise here
    cfg = dataclasses.replace(tiny_config(), num_classes=3)
    (tmp_path / "lr.txt").write_text(config_to_text(cfg, RunConfig(lr=1e308)))
    capsys.readouterr()
    assert main(["pretrain", "--config", str(tmp_path / "lr.txt"), "--data", str(workdir / "easy.v2ds"),
                 "--out", str(tmp_path / "p.v2ap"), "--steps", "1", "--batch-size", "16"]) == 4
    captured = capsys.readouterr()
    assert captured.err == "error: non-finite update for parameter 'backbone.cls' at step 0\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "lr.txt"]


def _unindexable(name: str, shape: tuple[int, int]) -> str:
    return f"tensor {name!r} of shape {shape} is too large for an array"


def _no_memory(cause: str) -> str:
    return f"cannot allocate the parameters of this config: {cause}"


# runs `cli.main` on argv in a child whose address space may grow by 1 GiB at
# most, so that no machine's overcommit lets a huge draw or listing through
_MAIN_IN_1_GIB_MORE = """
import os, resource, sys
from v2apt.cli import main
size = int(open("/proc/self/statm").read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
resource.setrlimit(resource.RLIMIT_AS, (size + (1 << 30), resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(main(sys.argv[1:]))
"""


_TOO_LARGE = [  # (command, model config field values, the error): each config's parameters cannot be held
    pytest.param("pretrain", {"dim": 3 * 10**9}, _unindexable("backbone.layers.0.attn.wq", (3 * 10**9,) * 2),
                 id="pretrain-dim-unindexable"),
    pytest.param("pretrain", {"dim": 3 * 10**8}, _no_memory("Unable to allocate 35.8 GiB"),
                 id="pretrain-dim-36GiB"),
    pytest.param("gradcheck", {"dim": 3 * 10**9}, _unindexable("backbone.layers.0.attn.wq", (3 * 10**9,) * 2),
                 id="gradcheck-dim-unindexable"),
    pytest.param("gradcheck", {"dim": 3 * 10**8}, _no_memory("Unable to allocate 35.8 GiB"),
                 id="gradcheck-dim-36GiB"),
    pytest.param("tune", {"prompt_len": 2 * 10**9}, _no_memory("Unable to allocate 238. GiB"),
                 id="tune-prompt_len-238GiB"),  # the domain prompts
    pytest.param("pretrain", {"image_size": 4 * 10**15}, _unindexable("backbone.pos", (10**30, 16)),
                 id="pretrain-image_size-unindexable"),
    pytest.param("pretrain", {"depth": 10**8}, _no_memory("out of memory"),
                 id="pretrain-depth-unlistable"),  # the name -> shape listing runs out first
]


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS and /proc/self/statm are Linux's")
@pytest.mark.parametrize("command, fields, error", _TOO_LARGE)
def test_a_config_too_large_to_allocate_exits_2(workdir, tmp_path, command, fields, error):
    cfg = dataclasses.replace(tiny_config(), num_classes=3, **fields)
    (tmp_path / "big.txt").write_text(config_to_text(cfg, RunConfig(batch_size=16, steps=1)))
    argv = {"pretrain": ["--data", str(workdir / "easy.v2ds"), "--out", str(tmp_path / "o.v2ap")],
            "tune": ["--data", str(workdir / "easy.v2ds"), "--out", str(tmp_path / "o.v2ap"),
                     "--backbone-ckpt", str(workdir / "pre.v2ap"), "--method", "v2apt"],
            "gradcheck": []}[command]
    proc = _child(["-c", _MAIN_IN_1_GIB_MORE, command, "--config", str(tmp_path / "big.txt"), *argv])
    assert proc.returncode == 2, proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"error: {error}")
    assert proc.stdout == "" and sorted(tmp_path.iterdir()) == [tmp_path / "big.txt"]


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS and /proc/self/statm are Linux's")
def test_a_checkpoint_whose_config_has_more_layers_than_tensors_exits_3(workdir, tmp_path):
    # refused by its tensor count, before any name -> shape listing could run out of memory
    ck, blob = tmp_path / "deep.v2ap", (workdir / "pre.v2ap").read_bytes()
    ck.write_bytes(_with_config_text(blob, "depth = 2\n", "depth = 100000000\n"))
    proc = _child(["-c", _MAIN_IN_1_GIB_MORE, "eval", "--ckpt", str(ck),
                   "--data", str(workdir / "easy.v2ds")])
    assert proc.returncode == 3, proc.stderr
    count = len(load_checkpoint(workdir / "pre.v2ap").tensors)
    assert proc.stderr.splitlines() == [
        f"error: checkpoint has {count} tensor(s), too few for the 100000000 layers of its config"]
    assert proc.stdout == ""


@pytest.mark.parametrize("name, value", [("heads", 0), ("heads", -2),  # -2 divides dim 16
                                         ("patch_size", 0), ("patch_size", -4)])  # 16 % -4 == 0
def test_a_size_below_one_exits_with_one_error_line(workdir, tmp_path, capsys, name, value):
    old, bad = f"{name} = {getattr(tiny_config(), name)}\n", f"{name} = {value}\n"
    (tmp_path / "bad.txt").write_text((workdir / "cfg.txt").read_text().replace(old, bad))
    (tmp_path / "bad.v2ap").write_bytes(_with_config_text((workdir / "pre.v2ap").read_bytes(), old, bad))
    capsys.readouterr()
    for argv, code in ((["gradcheck", "--config", str(tmp_path / "bad.txt")], 2),
                       (["eval", "--ckpt", str(tmp_path / "bad.v2ap"),
                         "--data", str(workdir / "easy.v2ds")], 3)):
        assert main(argv) == code, argv
        [err] = capsys.readouterr().err.splitlines()
        assert err.startswith("error: ") and err.endswith(f"{name} must be >= 1, got {value}"), err


def test_argparse_rejects_unknown_method(workdir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["tune", "--config", str(workdir / "cfg.txt"),
              "--backbone-ckpt", str(workdir / "pre.v2ap"),
              "--data", str(workdir / "easy.v2ds"),
              "--method", "adapter", "--out", str(tmp_path / "t.v2ap")])
    assert exc.value.code == 2


@pytest.fixture(scope="module")
def fuzz_dir(workdir, tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    body = (workdir / "tuned.v2ap").read_bytes()[:-4]
    (d / "damaged.v2ap").write_bytes(_reseal(body[:len(body) // 2]))
    return d


def _fuzz_argv(draw, workdir, d) -> list[str]:
    """A subcommand with its required flags, `--steps` and some optional flags.
    Each value is the first of its list half the time, so that some runs get
    past the early checks, and else any of a small set likely to break it."""
    nums = ["1", "nan", "-1", "0", "2", str(2**70)]
    missing, damaged = str(d / "missing.v2ap"), str(d / "damaged.v2ap")
    files = {
        "ckpt": [str(workdir / "tuned.v2ap"), str(workdir / "pre.v2ap"), damaged, missing,
                 str(workdir / "easy.v2ds")],
        "data": [str(workdir / "easy.v2ds"), damaged, missing],
        "config": [str(workdir / "cfg.txt"), damaged, missing],
        "out": [str(d / "out"), str(d / "no_such_dir" / "out"), str(d)],
    }
    steps = nums[:5]  # at most 2, so that no run trains for long
    flags = {
        "gen-data": {"--preset": ["easy-3", "nope"], "--seed": nums, "--out": files["out"]},
        "pretrain": {"--config": files["config"], "--data": files["data"], "--out": files["out"],
                     "--steps": steps, "--seed": nums, "--batch-size": nums},
        "tune": {"--config": files["config"], "--backbone-ckpt": files["ckpt"],
                 "--data": files["data"], "--method": ["v2apt", "vpt", "nan"],
                 "--out": files["out"], "--train-frac": ["0.5", "nan", "-1", "0", "1"],
                 "--steps": steps, "--seed": nums, "--batch-size": nums},
        "eval": {"--ckpt": files["ckpt"], "--data": files["data"]},
        "gradcheck": {"--config": files["config"], "--seed": nums, "--tol": nums},
        "simmap": {"--ckpt": files["ckpt"], "--data": files["data"], "--index": nums,
                   "--layer": nums, "--out": files["out"], "--format": ["csv", "pgm", "nan"]},
    }
    always = {"--preset", "--ckpt", "--backbone-ckpt", "--data", "--method", "--out", "--steps"}
    command = draw(st.sampled_from(sorted(flags)))
    argv = [command]
    for flag, values in flags[command].items():
        if flag in always or draw(st.booleans()):
            argv += [flag, draw(st.one_of(st.just(values[0]), st.sampled_from(values)))]
    return argv


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_fuzzed_flags_exit_with_a_code_never_a_traceback(workdir, fuzz_dir, data):
    argv = _fuzz_argv(data.draw, workdir, fuzz_dir)
    out, err = io.StringIO(), io.StringIO()
    # the gradient check itself takes seconds: test_gradcheck_subcommand_passes runs it
    passed = types.SimpleNamespace(passed=True, summary=lambda: "all gradients verified")
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        mp.setattr("v2apt.cli.full_model_check", lambda *a, **k: passed)
        try:
            code = main(argv)
        except SystemExit as e:  # argparse's usage errors
            code = e.code
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


def _child(argv: list[str]) -> subprocess.CompletedProcess:
    """Run a fresh Python with this checkout's `src` on its import path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


def test_module_entry_point_runs(tmp_path):
    proc = _child(["-m", "v2apt", "gen-data", "--preset", "easy-3",
                   "--seed", "1", "--out", str(tmp_path / "d.v2ds")])
    assert proc.returncode == 0
    assert "wrote" in proc.stdout
    assert (tmp_path / "d.v2ds").exists()


def test_easy3_pretrain_hits_95_within_preset_budget(tmp_path, capsys):
    from v2apt.config import default_config
    from v2apt.data import BUDGETS

    cfg = dataclasses.replace(default_config(), num_classes=3)
    run = RunConfig(seed=0, batch_size=64, steps=BUDGETS["easy-3"])
    (tmp_path / "full3.txt").write_text(config_to_text(cfg, run))
    assert main(["gen-data", "--preset", "easy-3", "--out", str(tmp_path / "d.v2ds")]) == 0
    assert main(["pretrain", "--config", str(tmp_path / "full3.txt"),
                 "--data", str(tmp_path / "d.v2ds"), "--out", str(tmp_path / "p.v2ap")]) == 0
    out = capsys.readouterr().out
    acc = float(out.split("train accuracy")[1].split()[0])
    assert acc >= 0.95


@pytest.mark.skipif(sys.platform != "linux", reason="mallopt is glibc's")
def test_importing_v2apt_pins_heap_so_chunk_sized_temporaries_are_reused():
    # a fresh process, so no earlier large free has moved glibc's thresholds
    code = """
import resource, threading, numpy as np
import v2apt
n = 256 * 17 * 192  # one 256-image chunk's MLP activation, float32
def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
def allocate(counts):
    before = faults()
    for _ in range(10):
        np.ones(n, dtype=np.float32)
    counts.append(faults() - before)
np.ones(n, dtype=np.float32)  # the first use may grow the heap
counts = []
allocate(counts)
# a worker thread, as a split forward's, allocates from the same warm heap
worker = threading.Thread(target=allocate, args=(counts,))
worker.start()
worker.join(timeout=60)
assert not worker.is_alive()
print(*counts)
"""
    proc = _child(["-c", code])
    assert proc.returncode == 0, proc.stderr
    # mapped afresh, each array would fault in its 816 pages again
    caller, worker = map(int, proc.stdout.split()[-2:])
    assert caller < 100 and worker < 100, (caller, worker)


@pytest.mark.skipif(sys.platform != "linux", reason="mallopt is glibc's")
def test_library_tune_steps_reuse_the_heap_without_cli_main():
    # a fresh process that never calls cli.main: a library caller gets the
    # same heap policy as the command line
    code = """
import resource
from v2apt import (PromptedClassifier, RunConfig, SeededStreams, Trainer, default_config,
                   generate, preset)
cfg, streams = default_config(), SeededStreams(0)
model = PromptedClassifier.from_pretrained(PromptedClassifier.init(cfg, streams), cfg, streams)
trainer = Trainer(model, RunConfig(batch_size=16), generate(preset("shift-B"), seed=0))
for _ in range(3):
    trainer.train_step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    trainer.train_step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    proc = _child(["-c", code])
    assert proc.returncode == 0, proc.stderr
    # under glibc's own thresholds, without the pin, this faults about 740 pages a step
    faults = int(proc.stdout.split()[-1])
    assert faults < 50 * 10, faults


def _fresh_process(code: str) -> str:
    proc = _child(["-c", code])
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_float32_run_never_loads_scipy_special(tmp_path):
    # a fresh process: pytest and the other tests load scipy.special here
    data, ckpt = str(tmp_path / "d.v2ds"), str(tmp_path / "p.v2ap")
    out = _fresh_process(f"""
import sys
from v2apt.cli import main
assert main(["gen-data", "--preset", "shift-B", "--out", {data!r}]) == 0
assert main(["pretrain", "--data", {data!r}, "--out", {ckpt!r}, "--steps", "2",
             "--batch-size", "16"]) == 0
print("scipy.special" in sys.modules)
""")
    assert "pretrain: 2 steps" in out
    assert out.split()[-1] == "False"


def test_float64_paths_import_scipy_special_where_they_run():
    out = _fresh_process("""
import sys
import numpy as np
from v2apt import tensor as T
from v2apt.vae import kl_monte_carlo
assert "scipy.special" not in sys.modules
with T.float64_mode():
    y = T.gelu(T.Tensor(np.array([-1.0, 0.0, 2.0]))).data
assert y.dtype == np.float64 and abs(y[2] - 1.9544997361036416) < 1e-15, y
kl = kl_monte_carlo(np.zeros(2), np.zeros(2), n_samples=1000)
assert abs(kl) < 1e-12, kl
print("scipy.special" in sys.modules)
""")
    assert out.split()[-1] == "True"
