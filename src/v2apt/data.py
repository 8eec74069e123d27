"""Seeded synthetic image-classification tasks and their on-disk format.

Classes are procedural texture families (oriented stripes, checkerboards,
blobs) rendered on a small grayscale canvas. A task preset fixes the class
set; domain shift is parameterized by brightness offset, texture frequency,
and occlusion rate, so a model pretrained on the source rendering can be
adapted to a shifted rendering of the same classes.

`.v2ds` and `.v2ap` files share one little-endian container, written by
`seal` and opened by `unseal`: a 4-byte magic, a u32 version, the payload and
a CRC32 footer over every byte before it. A `.v2ds` payload is the five
extents B/H/W/C_in/C plus the generator seed as u32, raw float32 pixels and
u32 labels.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .config import hold_field_types
from .errors import FormatError, ValidationError
from .rng import SeededStreams

DATA_MAGIC = b"V2DS"
DATA_VERSION = 1

_FAMILIES = ("stripes_h", "stripes_v", "checker", "blobs", "stripes_d")
_PLACEMENTS = 4  # deterministic within-class variants
_CANVAS = 16  # side of the square canvas, in pixels
_CHANNELS = 1  # grayscale


@dataclass(frozen=True)
class TaskSpec:
    """Procedural task description, checked when built; all shift rates live in [0, 1]."""

    classes: int = 3
    per_class: int = 64
    noise: float = 0.0
    brightness: float = 0.0
    frequency: float = 0.0
    occlusion: float = 0.0

    def __post_init__(self) -> None:
        hold_field_types(self, ValidationError)
        if self.classes < 2:
            raise ValidationError(f"need at least 2 classes, got {self.classes}")
        if self.per_class < 1:
            raise ValidationError(f"per_class must be >= 1, got {self.per_class}")
        if not 0 <= self.noise < math.inf:  # NaN fails the range too
            raise ValidationError(f"noise must be finite and >= 0, got {self.noise}")
        for name in ("brightness", "frequency", "occlusion"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {v}")


@dataclass
class Dataset:
    """In-memory task data: pixels in [0, 1], integer labels below num_classes."""

    images: np.ndarray  # (B, H, W, C_in) float32
    labels: np.ndarray  # (B,) int64
    num_classes: int
    seed: int
    descriptor: str = ""

    def __len__(self) -> int:
        return int(self.images.shape[0])

    def validate(self) -> "Dataset":
        if self.images.ndim != 4:
            raise ValidationError(f"images must be rank 4, got shape {self.images.shape}")
        if 0 in self.images.shape[1:]:
            raise ValidationError(f"empty image extent in shape {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ValidationError(
                f"labels shape {self.labels.shape} does not match {self.images.shape[0]} images"
            )
        if len(self) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValidationError(f"label out of range [0, {self.num_classes})")
        if len(self):
            lo, hi = self.images.min(), self.images.max()
            # min and max propagate NaN, and an infinity is one of the extremes
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValidationError("non-finite pixel values")
            if lo < 0.0 or hi > 1.0:
                raise ValidationError("pixel values outside [0, 1]")
        return self


def _stripe_pattern(size: int, angle: float, cycles: float, phase: float) -> np.ndarray:
    y, x = np.mgrid[0:size, 0:size].astype(np.float64) / size
    proj = x * np.cos(angle) + y * np.sin(angle)
    return 0.5 + 0.5 * np.sin(2.0 * np.pi * cycles * proj + phase)


def _checker_pattern(size: int, cell: int, roll: tuple[int, int]) -> np.ndarray:
    y, x = np.mgrid[0:size, 0:size]
    pat = (((x // cell) + (y // cell)) % 2).astype(np.float64)
    return np.roll(pat, roll, axis=(0, 1))


def _blob_pattern(size: int, center: tuple[float, float], radius: float) -> np.ndarray:
    y, x = np.mgrid[0:size, 0:size].astype(np.float64)
    d2 = (x - center[0]) ** 2 + (y - center[1]) ** 2
    return np.exp(-d2 / (2.0 * radius * radius))


def _render_class(spec: TaskSpec, cls: int, placement: int) -> np.ndarray:
    """Noise-free canvas for one (class, placement-variant) pair."""
    s = _CANVAS
    family = _FAMILIES[cls % len(_FAMILIES)]
    tier = cls // len(_FAMILIES)  # higher tiers reuse families at finer scale
    cycles = 2.0 * (1.0 + spec.frequency) * (1.0 + 0.7 * tier)
    phase = placement * (np.pi / 2.0)
    if family == "stripes_h":
        pat = _stripe_pattern(s, 0.0, cycles, phase)
    elif family == "stripes_v":
        pat = _stripe_pattern(s, np.pi / 2.0, cycles, phase)
    elif family == "stripes_d":
        pat = _stripe_pattern(s, np.pi / 4.0, cycles, phase)
    elif family == "checker":
        cell = max(1, round(s / (4.0 * (1.0 + spec.frequency) * (1.0 + 0.7 * tier))))
        shift = cell * (placement % 2), cell * (placement // 2)
        pat = _checker_pattern(s, cell, shift)
    else:  # blobs
        offs = [(0.3, 0.3), (0.3, 0.7), (0.7, 0.3), (0.7, 0.7)][placement]
        radius = s / (5.0 * (1.0 + spec.frequency) * (1.0 + 0.7 * tier))
        pat = _blob_pattern(s, (offs[0] * s, offs[1] * s), radius)
    pat = np.clip(pat + spec.brightness * 0.5, 0.0, 1.0)
    return pat


def generate(spec: TaskSpec, seed: int) -> Dataset:
    """Render the task: per class, placements cycle 0..3 and noise is seeded.

    Pixel noise and occlusion draws come from one named stream, so the same
    (spec, seed) pair always produces bit-identical data.
    """
    rng = SeededStreams(seed).generator("data")
    s = _CANVAS
    images = np.empty((spec.classes * spec.per_class, s, s, _CHANNELS), dtype=np.float32)
    labels = np.empty(spec.classes * spec.per_class, dtype=np.int64)
    row = 0
    for cls in range(spec.classes):
        variants = [_render_class(spec, cls, p) for p in range(_PLACEMENTS)]
        for i in range(spec.per_class):
            img = variants[i % _PLACEMENTS].copy()
            if spec.occlusion > 0.0 and rng.random() < spec.occlusion:
                side = max(2, s // 4)
                oy = int(rng.integers(0, s - side + 1))
                ox = int(rng.integers(0, s - side + 1))
                img[oy:oy + side, ox:ox + side] = 0.0
            if spec.noise > 0.0:
                img = img + rng.normal(0.0, spec.noise, size=img.shape)
            img = np.clip(img, 0.0, 1.0)
            images[row] = img[:, :, None].repeat(_CHANNELS, axis=2)
            labels[row] = cls
            row += 1
    desc = (
        f"patterns C={spec.classes} per_class={spec.per_class} noise={spec.noise} "
        f"brightness={spec.brightness} frequency={spec.frequency} occlusion={spec.occlusion} seed={seed}"
    )
    return Dataset(images, labels, spec.classes, seed, desc).validate()


# Source task, easy shifted target, and hard shifted target share one class
# set so a backbone pretrained on the source transfers to the shifts. The
# shift strengths are calibrated: on shift-B a fresh linear head over frozen
# source features tops out well under 0.9 test accuracy while prompt tuning
# recovers it; shift-B-hard adds occlusion so neither method saturates.
PRESETS: dict[str, TaskSpec] = {
    "easy-3": TaskSpec(classes=3, per_class=64),
    "shift-A": TaskSpec(classes=4, per_class=160, noise=0.05),
    "shift-B": TaskSpec(classes=4, per_class=80, noise=0.10, brightness=0.5, frequency=1.0),
    "shift-B-hard": TaskSpec(
        classes=4, per_class=80, noise=0.10, brightness=0.5, frequency=1.0, occlusion=0.5
    ),
}

# Step budgets for the transfer benchmark (batch 64, defaults otherwise).
BUDGETS: dict[str, int] = {
    "easy-3": 300,
    "shift-A": 600,  # pretraining budget for the source task
    "shift-B": 400,
    "shift-B-hard": 300,
}


def preset(name: str) -> TaskSpec:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValidationError(f"unknown preset {name!r}; valid presets: {', '.join(sorted(PRESETS))}") from None


def seal(path, magic: bytes, version: int, *payload) -> None:
    """Write the container: `magic`, u32 `version`, each payload buffer as it
    is, and a CRC32 footer over every byte before it."""
    parts = (magic, struct.pack("<I", version), *payload)
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    with open(path, "wb") as f:
        f.writelines(parts)
        f.write(struct.pack("<I", crc))


class Reader:
    """Bounded cursor over a container's bytes: `take` returns views, not copies."""

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

    def end(self, last: str) -> None:
        """Refuse bytes between the last field, `last`, and the footer."""
        if self.at != len(self.blob):
            raise FormatError(f"{len(self.blob) - self.at} trailing byte(s) after {last}")


def unseal(path, magic: bytes, version: int) -> Reader:
    """A reader over the payload of the container at `path`, once its length,
    magic, version and CRC32 footer have been checked."""
    with open(path, "rb") as f:
        blob = memoryview(f.read())
    r = Reader(blob[:-4])
    if (found := r.take(4, "magic")) != magic:
        raise FormatError(f"bad magic {bytes(found)!r}, expected {magic!r}")
    if (found := r.unpack("<I", "version")) != version:
        raise FormatError(f"unsupported version {found}")
    if zlib.crc32(r.blob) != struct.unpack("<I", blob[-4:])[0]:
        raise FormatError("checksum mismatch in footer")
    return r


def save_dataset(ds: Dataset, path) -> None:
    ds.validate()
    header = struct.pack("<6I", *ds.images.shape, ds.num_classes, ds.seed)
    seal(path, DATA_MAGIC, DATA_VERSION, header, np.ascontiguousarray(ds.images, dtype="<f4"),
         np.ascontiguousarray(ds.labels, dtype="<u4"))


def load_dataset(path) -> Dataset:
    r = unseal(path, DATA_MAGIC, DATA_VERSION)
    b, h, w, c_in, c, seed = r.unpack("<6I", "header")
    images = np.frombuffer(r.take(4 * b * h * w * c_in, "pixels"), dtype="<f4")
    labels = np.frombuffer(r.take(4 * b, "labels"), dtype="<u4")
    r.end("labels")
    ds = Dataset(images.reshape(b, h, w, c_in).copy(), labels.astype(np.int64), c, seed)
    try:
        return ds.validate()
    except ValidationError as e:
        raise FormatError(f"invalid payload: {e}") from e


def split(ds: Dataset, train_frac: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded stratified split; per-class counts stay within 1 of the exact frac."""
    if not 0.0 < train_frac < 1.0:
        raise ValidationError(f"train_frac must be in (0, 1), got {train_frac}")
    rng = SeededStreams(seed).generator("split")
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for cls in range(ds.num_classes):
        members = np.flatnonzero(ds.labels == cls)
        if members.size < 2:
            raise ValidationError(f"class {cls} has {members.size} sample(s), need at least 2")
        order = members[rng.permutation(members.size)]
        n_train = int(np.floor(train_frac * members.size + 0.5))
        n_train = min(max(n_train, 1), members.size - 1)  # keep both sides non-empty
        train_idx.append(order[:n_train])
        test_idx.append(order[n_train:])
    tr = np.sort(np.concatenate(train_idx))
    te = np.sort(np.concatenate(test_idx))

    def take(idx: np.ndarray, tag: str) -> Dataset:
        return Dataset(
            ds.images[idx],  # advanced indexing copies
            ds.labels[idx],
            ds.num_classes,
            ds.seed,
            descriptor=f"{ds.descriptor} [{tag}]",
        )

    return take(tr, "train"), take(te, "test")
