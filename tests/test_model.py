"""End-to-end model assembly tests: parity, determinism, gradient reach."""

import contextlib
import re

import numpy as np
import pytest

from v2apt import backbone as B
from v2apt import prompts as P
from v2apt import tensor as T
from v2apt import vae as V
from v2apt.config import ModelConfig, default_config, tiny_config
from v2apt.errors import ConfigError
from v2apt.model import PromptedClassifier
from v2apt.rng import SeededStreams
from v2apt.trainer import total_loss
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
    out = m.forward(images(3), rng=SeededStreams(0).generator("eps"))
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
    a = m.forward(x, rng=SeededStreams(1).generator("eps", 0)).logits.data
    b = m.forward(x, rng=SeededStreams(1).generator("eps", 0)).logits.data
    c = m.forward(x, rng=SeededStreams(1).generator("eps", 1)).logits.data
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


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
        out = m.forward(x, rng=SeededStreams(0).generator("eps"), capture_layers=capture)
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


def _old_path_forward(m, x, rng):
    """The forward before prompt rows became key/value-only: [CLS | prompts |
    patches] through full-row layers, the prompt outputs stripped and fresh
    prompts spliced in at every layer boundary."""
    cfg, batch, k = m.cfg, x.shape[0], m.active_budget
    embeddings = B.patch_embed(x, m.params, cfg)
    composed, kl, _ = m._composed_prompts(embeddings, batch, rng)
    cls = T.expand_leading(m.params["backbone.cls"], batch)
    seq = T.concat([cls, *composed[0], embeddings], axis=-2)
    for i in range(cfg.depth):
        if i > 0 and k:
            stripped = T.concat(
                [T.slice_axis(seq, -2, 0, 1), T.slice_axis(seq, -2, 1 + k, seq.shape[-2])], axis=-2
            )
            seq = T.concat(
                [T.slice_axis(stripped, -2, 0, 1), *composed[i],
                 T.slice_axis(stripped, -2, 1, stripped.shape[-2])], axis=-2
            )
        seq = B.encoder_layer_forward(i, seq, m.params, cfg)
    cls_out = B.final_norm(T.slice_axis(seq, -2, 0, 1), m.params).reshape(batch, cfg.dim)
    return B.classify(cls_out, m.params), kl


def _old_and_new_logits_and_grads(cfg, capture_last):
    labels = np.array([0, 1, 2, 3])
    x = images(4, seed=3)
    results = []
    for old in (True, False):
        m = build(cfg)
        rng = SeededStreams(0).generator("eps")
        with Tape() as tape:
            if old:
                logits, kl = _old_path_forward(m, x, rng)
            else:
                capture = (cfg.depth - 1,) if capture_last else ()
                out = m.forward(x, rng=rng, capture_layers=capture)
                logits, kl = out.logits, out.kl
            loss = T.cross_entropy_with_logits(logits, labels)
            tape.backward(loss if kl is None else loss + kl * 1e-3)
        results.append((logits.data, {n: p.grad for n, p in m.trainables().items()}))
    return results


@pytest.mark.parametrize("capture_last", [False, True])
@pytest.mark.parametrize("prompt_len, prompt_inst", [(8, 0), (8, 4), (8, 8), (0, 0)])
@pytest.mark.parametrize("float64, tol", [(True, 1e-12), (False, 1e-5)])
def test_key_value_prompts_match_the_strip_and_splice_path(
    float64, tol, prompt_len, prompt_inst, capture_last
):
    cfg = ModelConfig(**{**default_config().__dict__,
                         "prompt_len": prompt_len, "prompt_inst": prompt_inst})
    with T.float64_mode() if float64 else contextlib.nullcontext():
        (logits0, grads0), (logits1, grads1) = _old_and_new_logits_and_grads(cfg, capture_last)
    assert logits1.dtype == (np.float64 if float64 else np.float32)
    np.testing.assert_allclose(logits1, logits0, rtol=0, atol=tol)
    assert grads1.keys() == grads0.keys()
    assert "backbone.layers.0.attn.wq" in grads1
    if prompt_len > prompt_inst:
        assert "prompts.0" in grads1
    for name in grads1:
        np.testing.assert_allclose(grads1[name], grads0[name], rtol=0, atol=tol, err_msg=name)


def _parent_composition_forward(m, x, rng, capture_layers):
    """The forward as it composed prompts before the layers took prompt blocks:
    each instance block cut from the decoder output by a slice and a reshape,
    one [instance | domain] concat per layer, then the layer's context concat."""
    cfg, batch, params = m.cfg, x.shape[0], m.params
    embeddings = B.patch_embed(x, params, cfg)
    inst = kl = None
    if m.has_generator:
        dist = V.encode(V.pool_input_embeddings(embeddings), params, cfg)
        z = V.reparameterize(dist, rng=rng)
        h = T.gelu(T.linear(z, params["vae.dec.w1"], params["vae.dec.b1"]))
        flat = T.linear(h, params["vae.dec.w2"], params["vae.dec.b2"])
        stacked = flat.reshape(batch, cfg.depth, cfg.prompt_inst, cfg.dim)
        inst = [T.slice_axis(stacked, 1, i, i + 1).reshape(batch, cfg.prompt_inst, cfg.dim)
                for i in range(cfg.depth)]
        kl = V.kl_divergence(dist)
    dom = None
    if m.has_prompts:
        dom = [T.expand_leading(params[f"prompts.{i}"], batch) for i in range(cfg.depth)]
    if inst is not None and dom is not None:
        composed = [T.concat([pi, pd], axis=-2) for pi, pd in zip(inst, dom)]
    else:
        composed = inst or dom
    x = P.merge_sequence(T.expand_leading(params["backbone.cls"], batch), embeddings)
    cls_only = cfg.depth - 1 not in capture_layers
    captures = {}
    for i in range(cfg.depth):
        prompts = composed[i] if composed else None
        rows = 1 if cls_only and i == cfg.depth - 1 else None
        # the layer's context concat [tokens | prompts], one composed block
        blocks = [prompts] if composed else []
        x = B.encoder_layer_forward(i, x, params, cfg, rows=rows, prompts=blocks)
        if i in capture_layers:
            prompt_in = prompts.data.copy() if composed else np.zeros((batch, 0, cfg.dim))
            captures[i] = (prompt_in, x.data[:, 1:].copy())
    if not cls_only:
        x = T.slice_axis(x, -2, 0, 1)
    logits = B.classify(B.final_norm(x, params).reshape(batch, cfg.dim), params)
    return logits, kl, captures


@pytest.mark.parametrize("capture_layers", [(), (0, 3)])
@pytest.mark.parametrize("prompt_len, prompt_inst", [(8, 0), (8, 2), (8, 4), (8, 8), (0, 0)])
@pytest.mark.parametrize("float64", [True, False])
def test_prompt_blocks_match_the_parent_composition_bit_for_bit(
    float64, prompt_len, prompt_inst, capture_layers
):
    cfg = ModelConfig(**{**default_config().__dict__,
                         "prompt_len": prompt_len, "prompt_inst": prompt_inst})
    labels = np.array([0, 1, 2, 3])
    x = images(4, seed=3)
    results = []
    with T.float64_mode() if float64 else contextlib.nullcontext():
        for parent in (True, False):
            m = build(cfg)
            m.freeze()
            rng = SeededStreams(0).generator("eps")
            with Tape() as tape:
                if parent:
                    logits, kl, captures = _parent_composition_forward(m, x, rng, capture_layers)
                else:
                    out = m.forward(x, rng=rng, capture_layers=capture_layers)
                    logits, kl, captures = out.logits, out.kl, out.captures
                loss = T.cross_entropy_with_logits(logits, labels)
                tape.backward(loss if kl is None else loss + kl * 1e-3)
            grads = {n: p.grad for n, p in m.trainables().items()}
            results.append((logits.data, None if kl is None else kl.data, grads, captures))
    (logits0, kl0, grads0, cap0), (logits1, kl1, grads1, cap1) = results
    assert logits1.dtype == (np.float64 if float64 else np.float32)
    assert np.array_equal(logits1, logits0)
    assert (kl1 is None) == (kl0 is None) == (prompt_inst == 0)
    assert kl1 is None or np.array_equal(kl1, kl0)
    assert grads1.keys() == grads0.keys() and "head.w" in grads1
    for name in grads1:
        assert np.array_equal(grads1[name], grads0[name]), name
    assert cap1.keys() == cap0.keys() == set(capture_layers)
    for i in cap1:
        for a, b in zip(cap1[i], cap0[i]):
            assert a.dtype == b.dtype and np.array_equal(a, b), i


def test_default_tune_step_records():
    # per layer: one context concat over [tokens, *prompt blocks] and the 10
    # block records, one slice of the normed context to the carried rows, and
    # a second slice in the CLS-only last layer; no compose concat, and no
    # strip or splice records between layers
    for prompt_inst, records in ((4, 82), (0, 57)):  # v2apt, then vpt
        cfg = ModelConfig(**{**default_config().__dict__, "prompt_inst": prompt_inst})
        m = PromptedClassifier.from_pretrained(PromptedClassifier.init(cfg, SeededStreams(0)),
                                               cfg, SeededStreams(1))
        x = np.random.default_rng(0).random((8, 16, 16, 1)).astype(np.float32)
        with Tape() as tape:
            out = m.forward(x, rng=SeededStreams(0).generator("eps"))
            total_loss(out.logits, np.zeros(8, dtype=np.int64), out.kl, 1e-3)
        ops = [r.op for r in tape.records]
        layers = ops[ops.index("layer_norm") - 1:ops.index("reshape", ops.index("layer_norm"))]
        assert layers.count("concat") == cfg.depth
        assert layers.count("slice") == cfg.depth + 1
        assert len(layers) == 12 * cfg.depth + 1 + 1  # + the second last-layer slice, final_norm
        assert ops.count("concat") == cfg.depth  # the frozen [CLS | patches] merge records nothing
        assert len(ops) == records, prompt_inst


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
        out = m.forward(x, rng=SeededStreams(0).generator("eps"))
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
    rng, twin = SeededStreams(0).generator("eps"), SeededStreams(0).generator("eps")
    out = m.forward(images(2), rng=rng)
    assert rng.random() == twin.random()  # nothing drew from rng: nothing samples
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
    out = m.forward(images(2))
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


def _without(prefix):
    return lambda params: [params.pop(n) for n in list(params) if n.startswith(prefix)]


def _set(name, shape):
    return lambda params: params.update({name: Tensor(np.zeros(shape), requires_grad=True)})


@pytest.mark.parametrize("edit, message", [
    (_set("prompts.0", (3, 16)), "model tensor 'prompts.0' has shape (3, 16), its config implies (2, 16)"),
    (_without("prompts.1"), "model lacks tensor(s) 'prompts.1'"),
    (_without("prompts."), "model lacks tensor(s) 'prompts.0', 'prompts.1'"),  # generator only
    (_without("vae."), "model lacks tensor(s) 'vae.dec.b1', 'vae.dec.b2', 'vae.dec.w1'"),
    (_set("head.w", (16, 5)), "model tensor 'head.w' has shape (16, 5), its config implies (16, 3)"),
    (_without("head.w"), "model lacks tensor(s) 'head.w'"),
    (_set("vae.enc.w3", (3,)), "model has unexpected tensor(s) 'vae.enc.w3'"),
])
def test_the_constructor_refuses_parameters_that_are_not_a_model_of_the_config(edit, message):
    # the one rule a checkpoint applies too: the token budget k holds by construction
    params = build().params
    edit(params)
    with pytest.raises(ConfigError, match=re.escape(message)):
        PromptedClassifier(tiny_config(), params)


def test_a_model_holds_every_adapter_group_or_none():
    backbone = build(adapters=False).params
    assert PromptedClassifier(tiny_config(), dict(backbone)).active_budget == 0
    whole = build().params
    assert PromptedClassifier(tiny_config(), whole).active_budget == 4
    # with k_dom = 0 the config implies no domain prompts, not empty ones
    cfg = ModelConfig(**{**tiny_config().__dict__, "prompt_inst": 4})
    params = build(cfg).params
    params.update(P.init_domain_prompts(cfg, SeededStreams(0)))
    assert params["prompts.0"].shape == (0, 16)
    with pytest.raises(ConfigError, match=re.escape("unexpected tensor(s) 'prompts.0', 'prompts.1'")):
        PromptedClassifier(cfg, params)


def test_install_adapters_idempotent():
    cfg = tiny_config()
    streams = SeededStreams(0)
    m = PromptedClassifier.init(cfg, streams)
    m.install_adapters(streams)
    before = {n: p.data.tobytes() for n, p in m.params.items()}
    m.install_adapters(streams)
    after = {n: p.data.tobytes() for n, p in m.params.items()}
    assert before == after
