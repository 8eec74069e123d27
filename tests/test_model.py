"""End-to-end model assembly tests: parity, determinism, gradient reach."""

import contextlib

import numpy as np
import pytest

from v2apt import tensor as T
from v2apt.config import ModelConfig, tiny_config
from v2apt.errors import ConfigError
from v2apt.model import PromptedClassifier
from v2apt.rng import SeededStreams
from v2apt.tensor import Tape, Tensor


def build(cfg=None, seed=0, adapters=True):
    cfg = cfg or tiny_config()
    streams = SeededStreams(seed)
    m = PromptedClassifier.init(cfg, streams)
    if adapters:
        m.install_adapters(streams)
    return m


def images(n=2, seed=0):
    return np.random.default_rng(seed).random((n, 16, 16, 1)).astype(np.float32)


def test_parameter_inventory_tiny():
    m = build()
    names = set(m.params)
    assert {"backbone.patch.w", "backbone.cls", "backbone.pos", "head.w", "head.b"} <= names
    assert {"prompts.0", "prompts.1"} <= names
    assert {"vae.enc.w1", "vae.dec.w2"} <= names
    assert m.params["prompts.0"].shape == (2, 16)  # k_dom = 4 - 2
    assert m.params["vae.dec.w2"].shape == (16, 2 * 2 * 16)
    assert m.active_budget == 4


def test_forward_shapes_and_kl():
    m = build()
    out = m.forward(images(3), train=True, rng=SeededStreams(0).generator("eps"))
    assert out.logits.shape == (3, m.cfg.num_classes)
    assert out.kl is not None and out.kl.size == 1
    assert out.kl.item() >= 0.0
    assert out.latent.mu.shape == (3, m.cfg.latent_dim)


def test_eval_forward_is_deterministic():
    m = build()
    x = images(4)
    a = m.forward(x).logits.data.tobytes()
    b = m.forward(x).logits.data.tobytes()
    assert a == b


def test_train_forward_depends_on_eps_cursor():
    m = build()
    x = images(2)
    a = m.forward(x, train=True, rng=SeededStreams(1).generator("eps", 0)).logits.data
    b = m.forward(x, train=True, rng=SeededStreams(1).generator("eps", 0)).logits.data
    c = m.forward(x, train=True, rng=SeededStreams(1).generator("eps", 1)).logits.data
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_eval_ignores_sampling_entirely():
    m = build()
    x = images(2)
    a = m.forward(x, train=False).logits.data
    b = m.forward(x, train=False, rng=SeededStreams(99).generator("eps", 123)).logits.data
    np.testing.assert_array_equal(a, b)


def test_captures_have_expected_shapes():
    m = build()
    out = m.forward(images(2), capture_layers=(0, 1))
    assert set(out.captures) == {0, 1}
    for prompts_in, patches_out in out.captures.values():
        assert prompts_in.shape == (2, 4, 16)
        assert patches_out.shape == (2, 16, 16)


def _logits_and_grads(capture_last):
    m = build()
    x = images(4, seed=3)
    capture = (m.cfg.depth - 1,) if capture_last else ()
    with Tape() as tape:
        out = m.forward(x, train=True, rng=SeededStreams(0).generator("eps"), capture_layers=capture)
        loss = T.cross_entropy_with_logits(out.logits, np.array([0, 1, 2, 0])) + out.kl * 1e-3
        tape.backward(loss)
    return out.logits.data, {n: p.grad for n, p in m.trainables().items()}


@pytest.mark.parametrize("float64, tol", [(True, 1e-12), (False, 1e-5)])
def test_cls_only_last_layer_matches_the_full_last_layer(float64, tol):
    # capturing the last layer makes it run on every token: the reference
    with T.float64_mode() if float64 else contextlib.nullcontext():
        logits1, grads1 = _logits_and_grads(capture_last=False)
        logits0, grads0 = _logits_and_grads(capture_last=True)
    assert logits1.dtype == (np.float64 if float64 else np.float32)
    np.testing.assert_allclose(logits1, logits0, rtol=0, atol=tol)
    assert grads1.keys() == grads0.keys()
    assert "backbone.layers.1.mlp.w1" in grads1
    for name in grads1:
        np.testing.assert_allclose(grads1[name], grads0[name], rtol=0, atol=tol, err_msg=name)


def test_capturing_the_last_layer_returns_every_patch_token():
    m = build()
    last = m.cfg.depth - 1
    out = m.forward(images(2), capture_layers=(last,))
    assert set(out.captures) == {last}
    assert out.captures[last][1].shape == (2, m.cfg.num_patches, m.cfg.dim)


def test_every_adapter_gradient_is_nonzero_after_one_backward():
    m = build()
    m.freeze()
    x = images(4, seed=3)
    labels = np.array([0, 1, 2, 0])
    with Tape() as tape:
        out = m.forward(x, train=True, rng=SeededStreams(0).generator("eps"))
        loss = T.cross_entropy_with_logits(out.logits, labels) + out.kl * 1e-3
        tape.backward(loss)
    for name, p in m.trainables().items():
        assert p.grad is not None, name
        assert np.linalg.norm(p.grad) > 0.0, f"zero gradient for {name}"
    assert m.params["backbone.cls"].grad is None


def test_vpt_flavor_has_no_generator_and_full_width_prompts():
    cfg = ModelConfig(**{**tiny_config().__dict__, "prompt_inst": 0})
    m = build(cfg)
    assert not m.has_generator
    assert m.params["prompts.0"].shape == (4, 16)
    out = m.forward(images(2), train=True)  # no rng needed: nothing samples
    assert out.kl is None and out.latent is None
    assert m.active_budget == 4


def test_head_only_flavor_runs_without_prompts():
    cfg = ModelConfig(**{**tiny_config().__dict__, "prompt_len": 0, "prompt_inst": 0})
    m = build(cfg)
    assert not m.has_prompts and not m.has_generator
    assert m.active_budget == 0
    out = m.forward(images(2))
    assert out.logits.shape == (2, 3)


def test_pure_instance_flavor():
    cfg = ModelConfig(**{**tiny_config().__dict__, "prompt_inst": 4})  # k_dom = 0
    m = build(cfg)
    assert m.has_generator and not m.has_prompts
    out = m.forward(images(2), train=False)
    assert out.logits.shape == (2, 3)
    assert m.active_budget == 4


def test_budget_parity_across_flavors():
    # same k gives the same sequence length whatever the split
    for inst in (0, 2, 4):
        cfg = ModelConfig(**{**tiny_config().__dict__, "prompt_inst": inst})
        m = build(cfg)
        assert m.active_budget == cfg.prompt_len == 4


def test_same_seed_same_model():
    a = build(seed=11)
    b = build(seed=11)
    assert set(a.params) == set(b.params)
    for n in a.params:
        np.testing.assert_array_equal(a.params[n].data, b.params[n].data)


def test_predict_matches_argmax_of_logits():
    m = build()
    x = images(5)
    preds = m.predict(x)
    logits = m.forward(x).logits.data
    np.testing.assert_array_equal(preds, logits.argmax(axis=1))


def test_install_adapters_idempotent():
    cfg = tiny_config()
    streams = SeededStreams(0)
    m = PromptedClassifier.init(cfg, streams)
    m.install_adapters(streams)
    before = {n: p.data.tobytes() for n, p in m.params.items()}
    m.install_adapters(streams)
    after = {n: p.data.tobytes() for n, p in m.params.items()}
    assert before == after
