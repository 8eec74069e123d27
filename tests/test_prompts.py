"""Prompt initialization, layout bookkeeping, and the [CLS | patches | prompts] context."""

import numpy as np
import pytest

from v2apt import backbone as B
from v2apt import prompts as P
from v2apt.config import ModelConfig, tiny_config
from v2apt.errors import ShapeError
from v2apt.rng import SeededStreams
from v2apt.tensor import Tensor


def test_init_bounds_and_determinism():
    cfg = ModelConfig(depth=3, dim=48, heads=3, prompt_len=8, prompt_inst=0)
    a = P.init_domain_prompts(cfg, SeededStreams(5))
    b = P.init_domain_prompts(cfg, SeededStreams(5))
    v = np.sqrt(6.0 / (cfg.dim + cfg.dim))
    assert set(a) == {"prompts.0", "prompts.1", "prompts.2"}
    for name in a:
        assert a[name].shape == (8, 48)
        assert np.all(np.abs(a[name].data) <= v)
        np.testing.assert_array_equal(a[name].data, b[name].data)


def test_init_empty_when_budget_zero():
    cfg = ModelConfig(depth=2, prompt_len=0, prompt_inst=0)
    prompts = P.init_domain_prompts(cfg, SeededStreams(0))
    assert all(prompts[f"prompts.{i}"].shape == (0, cfg.dim) for i in range(2))


def test_layout_arithmetic():
    lay = P.SequenceLayout(prompt_len=8, num_patches=16)
    assert (lay.prompts_at, lay.total) == (17, 25)
    assert P.SequenceLayout(prompt_len=0, num_patches=16).total == 17


def test_strip_drops_exactly_the_prompt_segment():
    lay = P.SequenceLayout(prompt_len=8, num_patches=16)
    x = Tensor(np.random.default_rng(0).standard_normal((2, 25, 4)))
    out = P.strip_prompt_tokens(x, lay)
    assert out.shape == (2, 17, 4)
    np.testing.assert_array_equal(out.data, x.data[:, :17])


def test_strip_is_identity_for_zero_budget():
    lay = P.SequenceLayout(prompt_len=0, num_patches=16)
    x = Tensor(np.random.default_rng(0).standard_normal((2, 17, 4)))
    out = P.strip_prompt_tokens(x, lay)
    assert out is x


def test_splice_then_strip_roundtrip():
    lay = P.SequenceLayout(prompt_len=3, num_patches=5)
    stripped = Tensor(np.random.default_rng(1).standard_normal((2, 6, 4)))
    fresh = Tensor(np.random.default_rng(2).standard_normal((2, 3, 4)))
    seq = P.splice_prompts(fresh, stripped, lay)
    assert seq.shape == (2, 9, 4)
    np.testing.assert_array_equal(seq.data[:, :6], stripped.data)
    np.testing.assert_array_equal(seq.data[:, 6:], fresh.data)
    back = P.strip_prompt_tokens(seq, lay)
    np.testing.assert_array_equal(back.data, stripped.data)


def test_layout_mismatch_rejected():
    lay = P.SequenceLayout(prompt_len=3, num_patches=5)
    with pytest.raises(ShapeError):
        P.strip_prompt_tokens(Tensor(np.zeros((2, 7, 4))), lay)
    with pytest.raises(ShapeError):
        P.splice_prompts(Tensor(np.zeros((2, 2, 4))), Tensor(np.zeros((2, 6, 4))), lay)
    with pytest.raises(ShapeError):
        P.splice_prompts(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 5, 4))), lay)


def test_deep_injection_uses_fresh_prompts():
    # layer i+1 attends over P_{i+1} rows, not over layer i's prompt outputs,
    # which are never computed: a layer returns only its CLS and patch rows
    cfg = tiny_config()
    params = B.init_backbone(cfg, SeededStreams(0))
    rng = np.random.default_rng(3)
    k, patches = 4, cfg.num_patches
    p1 = Tensor(rng.standard_normal((1, k, cfg.dim)).astype(np.float32))
    p2 = Tensor(rng.standard_normal((1, k, cfg.dim)).astype(np.float32))
    e = Tensor(rng.standard_normal((1, patches, cfg.dim)).astype(np.float32))
    cls = Tensor(rng.standard_normal((1, 1, cfg.dim)).astype(np.float32))

    z1 = B.encoder_layer_forward(0, P.merge_sequence(cls, e), params, cfg, prompts=p1)
    assert z1.shape == (1, 1 + patches, cfg.dim)
    z2 = B.encoder_layer_forward(1, z1, params, cfg, prompts=p2)
    # the same layer over the context [z1 | p2] built by hand, on every row
    context = Tensor(np.concatenate([z1.data, p2.data], axis=1))
    full = B.encoder_layer_forward(1, context, params, cfg)
    np.testing.assert_allclose(z2.data, full.data[:, :1 + patches], rtol=0, atol=1e-5)
    # a different prompt block changes what the carried rows attend to
    z2_other = B.encoder_layer_forward(1, z1, params, cfg, prompts=p1)
    assert not np.allclose(z2.data, z2_other.data)


def test_merge_sequence_zero_budget_matches_plain_concat():
    # the carried rows: prompts join the context inside each layer
    cls = Tensor(np.ones((2, 1, 4)))
    e = Tensor(np.zeros((2, 5, 4)))
    merged = P.merge_sequence(cls, e)
    assert merged.shape == (2, 6, 4)
    np.testing.assert_array_equal(merged.data, np.concatenate([cls.data, e.data], axis=1))
