"""Bit-exact checkpoint container.

Little-endian layout: magic "V2AP", version, the canonical config text with
its own CRC32, sorted named tensor records (name, dtype tag, rank, extents,
raw bytes), the freeze-mask name list, optimizer hyperparameters and moment
buffers, named RNG cursors, the step counter, and a CRC32 footer over every
preceding byte. Sorting all name-keyed sections makes save -> load -> save
reproduce the file byte for byte. The trainer derives its streams from the
step, so the one RNG cursor, `eps`, is written from the step and checked on load.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import backbone as B
from . import prompts as P
from . import vae as V
from .config import ModelConfig, RunConfig, config_from_text, config_to_text
from .errors import ConfigError, FormatError
from .model import PromptedClassifier
from .tensor import Tensor
from .trainer import AdamW

CKPT_MAGIC = b"V2AP"
CKPT_VERSION = 1

_CURSOR = "eps"  # the one RNG cursor, always equal to the step

_DTYPE_TAGS = {np.dtype("<f4"): 0, np.dtype("<f8"): 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


@dataclass
class Checkpoint:
    config_text: str
    tensors: dict[str, np.ndarray]
    frozen: frozenset[str] = frozenset()
    optimizer: AdamW | None = None  # a copy, never a live optimizer: see snapshot
    step: int = 0

    def configs(self) -> tuple[ModelConfig, RunConfig]:
        return config_from_text(self.config_text)


def _pack_name(out: bytearray, name: str) -> None:
    raw = name.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise FormatError(f"name too long: {name[:32]}...")
    out += struct.pack("<H", len(raw))
    out += raw


def _pack_array(out: bytearray, arr: np.ndarray) -> None:
    dt = np.dtype(arr.dtype).newbyteorder("<")
    if dt not in _DTYPE_TAGS:
        raise FormatError(f"unsupported dtype {arr.dtype}")
    out += struct.pack("<BB", _DTYPE_TAGS[dt], arr.ndim)
    out += struct.pack(f"<{arr.ndim}I", *arr.shape)
    out += np.ascontiguousarray(arr, dtype=dt).tobytes()


def save_checkpoint(ck: Checkpoint, path) -> None:
    out = bytearray()
    out += CKPT_MAGIC
    out += struct.pack("<I", CKPT_VERSION)
    text = ck.config_text.encode("utf-8")
    out += struct.pack("<I", len(text))
    out += text
    out += struct.pack("<I", zlib.crc32(text))

    out += struct.pack("<I", len(ck.tensors))
    for name in sorted(ck.tensors):
        _pack_name(out, name)
        _pack_array(out, ck.tensors[name])

    out += struct.pack("<I", len(ck.frozen))
    for name in sorted(ck.frozen):
        _pack_name(out, name)

    if ck.optimizer is None:
        out += struct.pack("<B", 0)
    else:
        o = ck.optimizer
        if sorted(o.m) != sorted(o.v):
            raise FormatError("optimizer moment name sets differ")
        out += struct.pack("<B", 1)
        out += struct.pack("<5d", o.lr, o.weight_decay, o.beta1, o.beta2, o.eps)
        out += struct.pack("<Q", o.t)
        out += struct.pack("<I", len(o.m))
        for name in sorted(o.m):
            _pack_name(out, name)
            _pack_array(out, o.m[name])
            _pack_array(out, o.v[name])

    out += struct.pack("<I", 1)
    _pack_name(out, _CURSOR)
    out += struct.pack("<Q", ck.step)

    out += struct.pack("<Q", ck.step)
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    with open(path, "wb") as f:
        f.write(bytes(out))


class _Reader:
    """Cursor over a memoryview of the file: `take` returns views, not copies."""

    def __init__(self, blob: memoryview):
        self.blob = blob
        self.at = 0

    def take(self, n: int, what: str) -> memoryview:
        if self.at + n > len(self.blob):
            raise FormatError(f"truncated file while reading {what}")
        chunk = self.blob[self.at:self.at + n]
        self.at += n
        return chunk

    def unpack(self, fmt: str, what: str):
        vals = struct.unpack(fmt, self.take(struct.calcsize(fmt), what))
        return vals[0] if len(vals) == 1 else vals

    def text(self, n: int, what: str) -> str:
        try:
            return str(self.take(n, what), "utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{what} is not UTF-8 (byte {e.start} of {n})") from None

    def name(self, what: str) -> str:
        n = self.unpack("<H", f"{what} name length")
        return self.text(n, f"{what} name")

    def array(self, what: str) -> np.ndarray:
        tag, rank = self.unpack("<BB", f"{what} dtype/rank")
        if tag not in _TAG_DTYPES:
            raise FormatError(f"unknown dtype tag {tag} in {what}")
        shape = struct.unpack(f"<{rank}I", self.take(4 * rank, f"{what} extents"))
        dt = _TAG_DTYPES[tag]
        arr = np.frombuffer(self.take(math.prod(shape) * dt.itemsize, f"{what} data"), dtype=dt)
        if not np.isfinite(arr).all():
            raise FormatError(f"non-finite value in {what}")
        return arr.reshape(shape).copy()  # the one copy, off the file's buffer


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 12:
        raise FormatError("truncated file: too short for header")
    if blob[:4] != CKPT_MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}, expected {CKPT_MAGIC!r}")
    version = struct.unpack("<I", blob[4:8])[0]
    if version != CKPT_VERSION:
        raise FormatError(f"unsupported version {version}")
    footer = struct.unpack("<I", blob[-4:])[0]
    body = memoryview(blob)[:-4]
    if zlib.crc32(body) != footer:
        raise FormatError("checksum mismatch in footer")

    r = _Reader(body)
    r.at = 8
    text_len = r.unpack("<I", "config length")
    text = r.text(text_len, "config text")
    if r.unpack("<I", "config hash") != zlib.crc32(text.encode("utf-8")):
        raise FormatError("config hash mismatch")

    tensors: dict[str, np.ndarray] = {}
    for _ in range(r.unpack("<I", "tensor count")):
        name = r.name("tensor")
        tensors[name] = r.array(f"tensor {name!r}")

    frozen = frozenset(r.name("freeze mask") for _ in range(r.unpack("<I", "freeze count")))

    optimizer = None
    if r.unpack("<B", "optimizer flag"):
        lr, wd, b1, b2, eps = r.unpack("<5d", "optimizer hyperparameters")
        try:
            RunConfig(lr=lr, weight_decay=wd, adam_beta1=b1, adam_beta2=b2, adam_eps=eps).validate()
        except ConfigError as e:
            raise FormatError(f"optimizer hyperparameter out of range: {e}") from None
        t = r.unpack("<Q", "optimizer step")
        m, v = {}, {}
        for _ in range(r.unpack("<I", "moment count")):
            name = r.name("moment")
            m[name] = r.array(f"first moment {name!r}")
            v[name] = r.array(f"second moment {name!r}")
        optimizer = AdamW(sorted(m), lr, wd, b1, b2, eps)
        optimizer.t, optimizer.m, optimizer.v = t, m, v

    cursors = [(r.name("rng cursor"), r.unpack("<Q", "rng cursor"))
               for _ in range(r.unpack("<I", "cursor count"))]

    step = r.unpack("<Q", "step")
    if r.at != len(r.blob):
        raise FormatError(f"{len(r.blob) - r.at} trailing byte(s) after step field")
    if cursors != [(_CURSOR, step)]:
        shown = ", ".join(f"{n}={c}" for n, c in cursors[:4]) + (", ..." if len(cursors) > 4 else "")
        raise FormatError(f"rng cursors [{shown}] are not the one cursor {_CURSOR}={step}")
    return Checkpoint(text, tensors, frozen, optimizer, int(step))


# ---------------------------------------------------------------------------
# model/trainer bridging


def _copy_optimizer(o: AdamW) -> AdamW:
    """`o` with its own moment dicts, so stepping one never changes the other.

    The moment arrays are shared uncopied: AdamW.step replaces its moments
    rather than writing into them.
    """
    opt = AdamW(o.names, o.lr, o.weight_decay, o.beta1, o.beta2, o.eps)
    opt.t, opt.m, opt.v = o.t, dict(o.m), dict(o.v)
    return opt


def snapshot(
    model: PromptedClassifier,
    run: RunConfig,
    optimizer: AdamW | None = None,
    step: int = 0,
) -> Checkpoint:
    opt = None
    if optimizer is not None:
        opt = _copy_optimizer(optimizer)
        # moments exist only for parameters touched by a step; fill the rest
        for name in opt.names:
            if name not in opt.m:
                opt.m[name] = np.zeros_like(model.params[name].data)
                opt.v[name] = np.zeros_like(model.params[name].data)
    return Checkpoint(
        config_text=config_to_text(model.cfg, run),
        tensors={n: p.data.copy() for n, p in model.params.items()},
        frozen=model.frozen,
        optimizer=opt,
        step=step,
    )


def _check_tensors(cfg: ModelConfig, ck: Checkpoint) -> None:
    """Names and shapes against the config: the backbone and head always,
    each adapter group (domain prompts, latent generator) whole or not at all,
    and a freeze mask naming only tensors the file holds."""
    names = ck.tensors.keys()
    expected = B.param_shapes(cfg)
    for group in (P.param_shapes(cfg), V.param_shapes(cfg)):
        if group.keys() & names:
            expected.update(group)
    for problem, found in (("lacks tensor", expected.keys() - names),
                           ("has unexpected tensor", names - expected.keys()),
                           ("freezes unknown tensor", ck.frozen - names)):
        if found:
            raise FormatError(f"checkpoint {problem}(s) {', '.join(map(repr, sorted(found)))}")
    for name, shape in expected.items():
        if ck.tensors[name].shape != shape:
            raise FormatError(
                f"tensor {name!r} has shape {ck.tensors[name].shape}, its config implies {shape}"
            )


def restore_model(ck: Checkpoint) -> tuple[PromptedClassifier, RunConfig]:
    cfg, run = ck.configs()
    _check_tensors(cfg.validate(), ck)
    params = {
        name: Tensor(arr, requires_grad=name not in ck.frozen)
        for name, arr in ck.tensors.items()
    }
    return PromptedClassifier(cfg, params), run


def restore_optimizer(ck: Checkpoint) -> AdamW | None:
    return None if ck.optimizer is None else _copy_optimizer(ck.optimizer)
