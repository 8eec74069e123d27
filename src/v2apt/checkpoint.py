"""Bit-exact checkpoints.

A `.v2ap` is `data.seal`'s container with magic "V2AP". Its little-endian
payload: the canonical config text with its own CRC32, sorted named tensor
records (name, dtype tag, rank, extents, raw bytes), the freeze-mask name
list, optimizer settings and moment buffers, named RNG cursors and the step
counter. A `Checkpoint` holds the configs, which a save writes as text and a
load parses once, refusing text that is not canonical; a load refuses name
sections that are not strictly ascending too, so save -> load -> save
reproduces an accepted file byte for byte. A save writes the step and the
one RNG cursor, `eps`, from the optimizer's step count (0 without one), and
the optimizer settings from the run config; a load checks all three. Save,
load and `restore_model` apply one check, `_check`, so a save writes exactly
the files a load accepts and a restore builds a model from no other. Its
tensor part is the model's own rule, `model.param_fault`. Each array is
checked finite where it meets the bytes.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass
from typing import Reversible

import numpy as np

from .config import ModelConfig, RunConfig, config_from_text, config_to_text
from .data import Reader, seal, unseal
from .errors import ConfigError, FormatError
from .model import PromptedClassifier, param_fault
from .tensor import Tensor
from .trainer import AdamW

CKPT_MAGIC = b"V2AP"
CKPT_VERSION = 1

_CURSOR = "eps"  # the one RNG cursor, always equal to the step

_DTYPE_TAGS = {np.dtype("<f4"): 0, np.dtype("<f8"): 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


@dataclass
class Checkpoint:
    cfg: ModelConfig
    run: RunConfig
    tensors: dict[str, np.ndarray]
    frozen: frozenset[str] = frozenset()
    optimizer: AdamW | None = None


def _pack_name(out: bytearray, name: str) -> None:
    raw = name.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise FormatError(f"name too long: {name[:32]}...")
    out += struct.pack("<H", len(raw))
    out += raw


def _pack_array(out: bytearray, arr: np.ndarray, what: str) -> None:
    dt = np.dtype(arr.dtype).newbyteorder("<")
    if dt not in _DTYPE_TAGS:
        raise FormatError(f"unsupported dtype {arr.dtype}")
    if not np.isfinite(arr).all():
        raise FormatError(f"non-finite value in {what}")
    out += struct.pack("<BB", _DTYPE_TAGS[dt], arr.ndim)
    out += struct.pack(f"<{arr.ndim}I", *arr.shape)
    out += np.ascontiguousarray(arr, dtype=dt).tobytes()


def _settings(run: RunConfig) -> tuple[float, ...]:
    """The AdamW settings of `run`, in file order."""
    return run.lr, run.weight_decay, run.adam_beta1, run.adam_beta2, run.adam_eps


def _refuse(*problems: tuple[str, set[str]]) -> None:
    for problem, found in problems:
        if found:
            raise FormatError(f"checkpoint {problem}(s) {', '.join(map(repr, sorted(found)))}")


def _check(ck: Checkpoint) -> None:
    """A FormatError naming the first fault of an invalid checkpoint: tensors
    that are not a model of its config, a freeze mask of tensors it lacks, or
    moments other than one pair per unfrozen tensor, each with that tensor's
    shape and dtype."""
    if (fault := param_fault(ck.cfg, ck.tensors)) is not None:
        raise FormatError(f"checkpoint {fault}")
    names = ck.tensors.keys()
    _refuse(("freezes unknown tensor", ck.frozen - names))
    if ck.optimizer is not None:
        unfrozen = names - ck.frozen
        for which, found in (("first", ck.optimizer.m), ("second", ck.optimizer.v)):
            _refuse(("has no moments for unfrozen tensor", unfrozen - found.keys()),
                    ("has moments for frozen or unknown tensor", found.keys() - unfrozen))
            for name in sorted(unfrozen):
                a, t = found[name], ck.tensors[name]
                if a.shape != t.shape or a.dtype != t.dtype:
                    raise FormatError(f"{which} moment {name!r} is {a.dtype} {a.shape}, "
                                      f"its tensor {t.dtype} {t.shape}")


def save_checkpoint(ck: Checkpoint, path) -> None:
    _check(ck)
    out = bytearray()
    text = config_to_text(ck.cfg, ck.run).encode("utf-8")
    out += struct.pack("<I", len(text))
    out += text
    out += struct.pack("<I", zlib.crc32(text))

    out += struct.pack("<I", len(ck.tensors))
    for name in sorted(ck.tensors):
        _pack_name(out, name)
        _pack_array(out, ck.tensors[name], f"tensor {name!r}")

    out += struct.pack("<I", len(ck.frozen))
    for name in sorted(ck.frozen):
        _pack_name(out, name)

    if ck.optimizer is None:
        out += struct.pack("<B", 0)
    else:
        o = ck.optimizer
        out += struct.pack("<B", 1)
        out += struct.pack("<5d", *_settings(ck.run))
        out += struct.pack("<Q", o.t)
        out += struct.pack("<I", len(o.m))
        for name in sorted(o.m):
            _pack_name(out, name)
            _pack_array(out, o.m[name], f"first moment {name!r}")
            _pack_array(out, o.v[name], f"second moment {name!r}")

    step = 0 if ck.optimizer is None else ck.optimizer.t
    out += struct.pack("<I", 1)
    _pack_name(out, _CURSOR)
    out += struct.pack("<Q", step)

    out += struct.pack("<Q", step)
    seal(path, CKPT_MAGIC, CKPT_VERSION, out)


def _name(r: Reader, what: str, after: Reversible[str] = ()) -> str:
    """The next name; in a sorted section it must follow the last of `after`,
    the names read before it, as a save writes them."""
    name = r.text(r.unpack("<H", f"{what} name length"), f"{what} name")
    if after and name <= (last := next(reversed(after))):
        raise FormatError(f"{what} names are not strictly ascending: {name!r} after {last!r}")
    return name


def _array(r: Reader, what: str) -> np.ndarray:
    tag, rank = r.unpack("<BB", f"{what} dtype/rank")
    if tag not in _TAG_DTYPES:
        raise FormatError(f"unknown dtype tag {tag} in {what}")
    shape = struct.unpack(f"<{rank}I", r.take(4 * rank, f"{what} extents"))
    dt = _TAG_DTYPES[tag]
    arr = np.frombuffer(r.take(math.prod(shape) * dt.itemsize, f"{what} data"), dtype=dt)
    if not np.isfinite(arr).all():
        raise FormatError(f"non-finite value in {what}")
    return arr.reshape(shape).copy()  # the one copy, off the file's buffer


def load_checkpoint(path) -> Checkpoint:
    r = unseal(path, CKPT_MAGIC, CKPT_VERSION)
    text_len = r.unpack("<I", "config length")
    text = r.text(text_len, "config text")
    if r.unpack("<I", "config hash") != zlib.crc32(text.encode("utf-8")):
        raise FormatError("config hash mismatch")

    tensors: dict[str, np.ndarray] = {}
    for _ in range(r.unpack("<I", "tensor count")):
        name = _name(r, "tensor", after=tensors)
        tensors[name] = _array(r, f"tensor {name!r}")

    frozen: list[str] = []
    for _ in range(r.unpack("<I", "freeze count")):
        frozen.append(_name(r, "freeze mask", after=frozen))

    optimizer = raw = None
    if r.unpack("<B", "optimizer flag"):
        raw = r.take(struct.calcsize("<5d"), "optimizer settings")
        t = r.unpack("<Q", "optimizer step")
        m, v = {}, {}
        for _ in range(r.unpack("<I", "moment count")):
            name = _name(r, "moment", after=m)
            m[name] = _array(r, f"first moment {name!r}")
            v[name] = _array(r, f"second moment {name!r}")
        optimizer = AdamW(t, m, v)

    cursors = [(_name(r, "rng cursor"), r.unpack("<Q", "rng cursor"))
               for _ in range(r.unpack("<I", "cursor count"))]

    step = r.unpack("<Q", "step")
    r.end("step field")
    if step != (want := 0 if optimizer is None else optimizer.t):
        raise FormatError(f"step field {step} is not {want}, the step count of "
                          + ("its optimizer" if optimizer else "a checkpoint without moments"))
    if cursors != [(_CURSOR, step)]:
        shown = ", ".join(f"{n}={c}" for n, c in cursors[:4]) + (", ..." if len(cursors) > 4 else "")
        raise FormatError(f"rng cursors [{shown}] are not the one cursor {_CURSOR}={step}")
    try:
        cfg, run = config_from_text(text)
    except ConfigError as e:
        raise FormatError(f"invalid config text: {e}") from None
    if config_to_text(cfg, run) != text:
        raise FormatError("config text is not canonical: a save would write it differently")
    ck = Checkpoint(cfg, run, tensors, frozenset(frozen), optimizer)
    _check(ck)
    settings = _settings(run)
    if raw is not None and raw != struct.pack("<5d", *settings):
        raise FormatError(f"optimizer settings {struct.unpack('<5d', raw)} are not the config's "
                          f"(lr, weight_decay, adam_beta1, adam_beta2, adam_eps) = {settings}")
    return ck


# ---------------------------------------------------------------------------
# model/trainer bridging


def snapshot(model: PromptedClassifier, run: RunConfig, optimizer: AdamW | None = None) -> Checkpoint:
    """The checkpoint of a run as it stands, sharing the model's arrays and the
    optimizer's moments: neither is ever written into, so later steps of the
    run leave it unchanged. Trainables that no step has touched yet get zero
    moments, which is what their first step starts from."""
    opt = None
    if optimizer is not None:
        o = optimizer
        zeros = {n: np.zeros_like(p.data) for n, p in model.trainables().items() if n not in o.m}
        opt = AdamW(o.t, {**zeros, **o.m}, {**zeros, **o.v})
    return Checkpoint(
        cfg=model.cfg,
        run=run,
        tensors={n: p.data for n, p in model.params.items()},
        frozen=model.frozen,
        optimizer=opt,
    )


def restore_model(ck: Checkpoint) -> tuple[PromptedClassifier, RunConfig]:
    _check(ck)
    params = {n: Tensor(a, requires_grad=n not in ck.frozen) for n, a in ck.tensors.items()}
    return PromptedClassifier(ck.cfg, params), ck.run
