"""Synthetic task generator and V2DS container tests.

The separability oracle is closed-form least squares on raw pixels: if that
classifier reaches 100% train accuracy, the preset really is linearly
separable, independent of anything the model code does.
"""

import re
import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2apt import data as D
from v2apt.errors import FormatError, ValidationError


def small_spec(**kw) -> D.TaskSpec:
    base = dict(classes=3, per_class=8)
    base.update(kw)
    return D.TaskSpec(**base)


def lstsq_train_accuracy(ds: D.Dataset) -> float:
    x = ds.images.reshape(len(ds), -1).astype(np.float64)
    x = np.hstack([x, np.ones((len(ds), 1))])
    onehot = np.eye(ds.num_classes)[ds.labels]
    w, *_ = np.linalg.lstsq(x, onehot, rcond=None)
    preds = (x @ w).argmax(axis=1)
    return float((preds == ds.labels).mean())


def test_generation_is_bit_deterministic():
    spec = small_spec(noise=0.1, occlusion=0.4)
    a = D.generate(spec, seed=5)
    b = D.generate(spec, seed=5)
    assert a.images.tobytes() == b.images.tobytes()
    assert np.array_equal(a.labels, b.labels)
    c = D.generate(spec, seed=6)
    assert a.images.tobytes() != c.images.tobytes()


def test_noise_free_classes_repeat_over_placement_grid():
    ds = D.generate(small_spec(), seed=0)
    for cls in range(3):
        rows = ds.images[ds.labels == cls]
        # placements cycle with period 4, so row i matches row i+4
        np.testing.assert_array_equal(rows[0], rows[4])
        np.testing.assert_array_equal(rows[1], rows[5])
        assert not np.array_equal(rows[0], rows[1])


def test_easy3_preset_is_linearly_separable():
    ds = D.generate(D.preset("easy-3"), seed=11)
    assert lstsq_train_accuracy(ds) == 1.0


def test_values_bounded_and_labels_valid():
    ds = D.generate(small_spec(noise=0.5, brightness=1.0, occlusion=1.0), seed=2)
    ds.validate()
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    assert set(np.unique(ds.labels)) == {0, 1, 2}


def test_shift_changes_pixels_but_not_labels():
    a = D.generate(D.preset("shift-A"), seed=3)
    spec_b = D.PRESETS["shift-B"]
    b = D.generate(D.TaskSpec(classes=spec_b.classes, per_class=D.PRESETS["shift-A"].per_class,
                              noise=spec_b.noise, brightness=spec_b.brightness,
                              frequency=spec_b.frequency), seed=3)
    assert np.array_equal(a.labels, b.labels)
    assert a.images.tobytes() != b.images.tobytes()


def test_too_few_classes_rejected():
    with pytest.raises(ValidationError):
        D.generate(small_spec(classes=1), seed=0)


@pytest.mark.parametrize("noise", [float("nan"), float("inf"), -1.0])
def test_noise_must_be_finite_and_non_negative(noise):
    with pytest.raises(ValidationError, match=f"noise must be finite and >= 0, got {noise}"):
        small_spec(noise=noise)


@pytest.mark.parametrize("changes, message", [
    ({"classes": 2.5}, "classes = 2.5 is not int"),
    ({"per_class": True}, "per_class = True is not int"),
    ({"noise": "x"}, "noise = 'x' is not float"),
])
def test_a_spec_field_of_another_type_is_refused_by_name(changes, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        small_spec(**changes)
    spec = small_spec(classes=np.int64(3), noise=0)
    assert (type(spec.classes), type(spec.noise)) == (int, float)


def test_an_invalid_spec_cannot_be_built_by_replace():
    with pytest.raises(ValidationError, match="occlusion must be in"):
        replace(D.PRESETS["shift-B"], occlusion=1.5)


def test_unknown_preset_lists_valid_names():
    with pytest.raises(ValidationError, match="easy-3"):
        D.preset("easy-99")


# ---------------------------------------------------------------------------
# V2DS container


def test_roundtrip_bit_identical(tmp_path):
    ds = D.generate(small_spec(noise=0.2), seed=9)
    p = tmp_path / "task.v2ds"
    D.save_dataset(ds, p)
    back = D.load_dataset(p)
    assert back.images.tobytes() == ds.images.tobytes()
    assert np.array_equal(back.labels, ds.labels)
    assert back.num_classes == ds.num_classes
    assert back.seed == ds.seed
    # save -> load -> save produces the same bytes
    p2 = tmp_path / "task2.v2ds"
    D.save_dataset(back, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_file_size_matches_format_arithmetic(tmp_path):
    ds = D.generate(small_spec(), seed=1)
    p = tmp_path / "task.v2ds"
    D.save_dataset(ds, p)
    b, h, w, c_in = ds.images.shape
    assert p.stat().st_size == 32 + b * h * w * c_in * 4 + b * 4 + 4


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), classes=st.integers(2, 6), per_class=st.integers(2, 9))
def test_roundtrip_property(tmp_path_factory, seed, classes, per_class):
    ds = D.generate(D.TaskSpec(classes=classes, per_class=per_class, noise=0.3), seed=seed)
    p = tmp_path_factory.mktemp("v2ds") / "t.v2ds"
    D.save_dataset(ds, p)
    back = D.load_dataset(p)
    assert back.images.tobytes() == ds.images.tobytes()
    assert np.array_equal(back.labels, ds.labels)


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.v2ds"
    ds = D.generate(small_spec(), seed=0)
    D.save_dataset(ds, p)
    blob = bytearray(p.read_bytes())
    blob[0] = ord("X")
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        D.load_dataset(p)


def test_truncation_rejected(tmp_path):
    p = tmp_path / "trunc.v2ds"
    D.save_dataset(D.generate(small_spec(), seed=0), p)
    p.write_bytes(p.read_bytes()[:50])
    with pytest.raises(FormatError):
        D.load_dataset(p)


def test_corrupt_payload_fails_checksum(tmp_path):
    p = tmp_path / "corrupt.v2ds"
    D.save_dataset(D.generate(small_spec(), seed=0), p)
    blob = bytearray(p.read_bytes())
    blob[100] ^= 0xFF
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="checksum"):
        D.load_dataset(p)


def _resealed(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def test_file_cut_inside_the_pixels_names_the_pixels(tmp_path):
    ds = D.generate(small_spec(), seed=0)
    p = tmp_path / "cut.v2ds"
    D.save_dataset(ds, p)
    p.write_bytes(_resealed(p.read_bytes()[:32 + ds.images.nbytes // 2]))
    with pytest.raises(FormatError, match="^truncated file while reading pixels$"):
        D.load_dataset(p)


def test_resealed_file_with_a_byte_appended_names_the_trailing_bytes(tmp_path):
    p = tmp_path / "long.v2ds"
    D.save_dataset(D.generate(small_spec(), seed=0), p)
    p.write_bytes(_resealed(p.read_bytes()[:-4] + b"\0"))
    with pytest.raises(FormatError, match="^1 trailing byte\\(s\\) after labels$"):
        D.load_dataset(p)


def test_label_out_of_range_in_file(tmp_path):
    import struct
    import zlib

    ds = D.generate(small_spec(), seed=0)
    ds.labels[0] = 0  # keep in-memory valid; corrupt on disk below
    p = tmp_path / "badlabel.v2ds"
    D.save_dataset(ds, p)
    blob = bytearray(p.read_bytes()[:-4])
    label_off = 32 + ds.images.size * 4
    blob[label_off:label_off + 4] = struct.pack("<I", 99)
    blob += struct.pack("<I", zlib.crc32(bytes(blob)))
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="label"):
        D.load_dataset(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_pixels_rejected(tmp_path, bad):
    import struct
    import zlib

    ds = D.generate(small_spec(), seed=0)
    ds.images[1, 2, 3, 0] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        ds.validate()
    # the same pixel written straight into a file fails on load
    ds.images[1, 2, 3, 0] = 0.5
    p = tmp_path / "nonfinite.v2ds"
    D.save_dataset(ds, p)
    blob = bytearray(p.read_bytes()[:-4])
    off = 32 + 4 * int(np.ravel_multi_index((1, 2, 3, 0), ds.images.shape))
    blob[off:off + 4] = struct.pack("<f", bad)
    blob += struct.pack("<I", zlib.crc32(bytes(blob)))
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="non-finite"):
        D.load_dataset(p)


def test_seed_range_checked_once_in_streams():
    from v2apt.rng import SeededStreams

    SeededStreams(0)
    SeededStreams(2**32 - 1)
    for seed in (-1, 2**32):
        with pytest.raises(ValidationError, match="seed"):
            SeededStreams(seed)
        with pytest.raises(ValidationError, match="seed"):
            D.generate(small_spec(), seed=seed)


# ---------------------------------------------------------------------------
# split


def test_split_sizes_800_200():
    ds = D.generate(D.TaskSpec(classes=4, per_class=250), seed=0)
    train, test = D.split(ds, 0.8, seed=1)
    assert (len(train), len(test)) == (800, 200)


def test_split_is_stratified_within_one():
    ds = D.generate(D.TaskSpec(classes=3, per_class=25), seed=0)
    train, _ = D.split(ds, 0.6, seed=4)
    for cls in range(3):
        n = int((train.labels == cls).sum())
        assert abs(n - 0.6 * 25) <= 1


def test_split_union_is_original_multiset():
    ds = D.generate(small_spec(noise=0.1), seed=2)
    train, test = D.split(ds, 0.75, seed=3)
    got = np.concatenate([train.images.reshape(len(train), -1), test.images.reshape(len(test), -1)])
    want = ds.images.reshape(len(ds), -1)
    got_sorted = got[np.lexsort(got.T)]
    want_sorted = want[np.lexsort(want.T)]
    np.testing.assert_array_equal(got_sorted, want_sorted)
    assert len(train) + len(test) == len(ds)


def test_split_deterministic_per_seed():
    ds = D.generate(small_spec(), seed=0)
    a1, _ = D.split(ds, 0.8, seed=7)
    a2, _ = D.split(ds, 0.8, seed=7)
    b1, _ = D.split(ds, 0.8, seed=8)
    assert a1.images.tobytes() == a2.images.tobytes()
    assert a1.images.tobytes() != b1.images.tobytes()


def test_split_shares_no_memory_with_its_source():
    ds = D.generate(small_spec(), seed=0)
    for part in D.split(ds, 0.5, seed=0):
        assert not np.shares_memory(part.images, ds.images)
        assert not np.shares_memory(part.labels, ds.labels)


def test_split_rejects_tiny_class():
    ds = D.Dataset(
        images=np.zeros((3, 4, 4, 1), dtype=np.float32),
        labels=np.array([0, 0, 1]),
        num_classes=2,
        seed=0,
    )
    with pytest.raises(ValidationError, match="class 1"):
        D.split(ds, 0.5, seed=0)
