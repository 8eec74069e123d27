"""End-to-end model assembly tests: parity, determinism, gradient reach."""

import contextlib
import dataclasses
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

from v2apt import backbone as B
from v2apt import model as M
from v2apt import prompts as P
from v2apt import tensor as T
from v2apt import vae as V
from v2apt.config import ModelConfig, default_config, tiny_config
from v2apt.errors import ConfigError, ValidationError
from v2apt.model import PromptedClassifier
from v2apt.rng import SeededStreams
from v2apt.trainer import total_loss
from v2apt.tensor import Tape, Tensor


def build(cfg=None, seed=0, adapters=True):
    """A model whose backbone trains too, with the config's adapters or none."""
    cfg = cfg or tiny_config()
    streams = SeededStreams(seed)
    if not adapters:
        return PromptedClassifier.init(cfg, streams)
    return PromptedClassifier(cfg, {**B.init_backbone(cfg, streams), **M.adapter_params(cfg, streams)})


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
    assert m.posterior(images(3))[1].mu.shape == (3, m.cfg.latent_dim)


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
    probes = m.probe_layers(images(2), (0, 1))
    assert set(probes) == {0, 1}
    for prompts_in, patches_out in probes.values():
        assert prompts_in.shape == (2, 4, 16)
        assert patches_out.shape == (2, 16, 16)


def _logits_and_grads(full_last):
    m = build()
    x = images(4, seed=3)
    rng = SeededStreams(0).generator("eps")
    with Tape() as tape:
        if full_last:
            # the reference: the last layer runs on every row, then CLS is cut
            rows, composed, kl = m._prelude(x, rng)
            for i in range(m.cfg.depth):
                rows = B.encoder_layer_forward(i, rows, m.params, m.cfg, prompts=composed[i])
            cls = B.final_norm(T.slice_axis(rows, -2, 0, 1), m.params).reshape(4, m.cfg.dim)
            logits = B.classify(cls, m.params)
        else:
            out = m.forward(x, rng=rng)
            logits, kl = out.logits, out.kl
        loss = T.cross_entropy_with_logits(logits, np.array([0, 1, 2, 0])) + kl * 1e-3
        tape.backward(loss)
    return logits.data, {n: p.grad for n, p in m.trainables().items()}


@pytest.mark.parametrize("float64, tol", [(True, 1e-12), (False, 1e-5)])
def test_cls_only_last_layer_matches_the_full_last_layer(float64, tol):
    with T.float64_mode() if float64 else contextlib.nullcontext():
        logits1, grads1 = _logits_and_grads(full_last=False)
        logits0, grads0 = _logits_and_grads(full_last=True)
    assert logits1.dtype == (np.float64 if float64 else np.float32)
    np.testing.assert_allclose(logits1, logits0, rtol=0, atol=tol)
    assert grads1.keys() == grads0.keys()
    assert "backbone.layers.1.mlp.w1" in grads1
    for name in grads1:
        np.testing.assert_allclose(grads1[name], grads0[name], rtol=0, atol=tol, err_msg=name)


@pytest.mark.parametrize("layers", [(), (0,), (2,), (0, 3)])
def test_probe_layers_runs_each_layer_up_to_the_deepest_probed_on_every_row(monkeypatch, layers):
    # a probe never splits and never records: 128 images run whole, tape-free
    m = _default_model("v2apt")
    calls = []

    def spy(i, tokens, *args, rows=None, **kwargs):
        calls.append((i, tokens.shape[0], rows, T.active_tape()))
        return _LAYER(i, tokens, *args, rows=rows, **kwargs)

    monkeypatch.setattr(B, "encoder_layer_forward", spy)
    probes = m.probe_layers(images(128), layers)
    assert set(probes) == set(layers)
    assert calls == [(i, 128, None, None) for i in range(max(layers, default=-1) + 1)]
    for prompts_in, patches_out in probes.values():
        assert prompts_in.shape == (128, m.active_budget, m.cfg.dim)
        assert patches_out.shape == (128, m.cfg.num_patches, m.cfg.dim)


@pytest.mark.parametrize("layer", [-1, 2])
def test_probe_layers_refuses_a_layer_the_model_lacks(layer):
    m = build()  # depth 2
    with pytest.raises(ValidationError, match=re.escape(f"layers [0, {layer}] out of range [0, 2)")):
        m.probe_layers(images(2), (0, layer))


def _old_path_forward(m, x, rng):
    """The forward before prompt rows became key/value-only: [CLS | prompts |
    patches] through full-row layers, the prompt outputs stripped and fresh
    prompts spliced in at every layer boundary."""
    cfg, batch, k = m.cfg, x.shape[0], m.active_budget
    rows, composed, kl = m._prelude(x, rng)  # [CLS | patches], prompt blocks, KL
    seq = T.concat([T.slice_axis(rows, -2, 0, 1), *composed[0],
                    T.slice_axis(rows, -2, 1, rows.shape[-2])], axis=-2)
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


def _old_and_new_logits_and_grads(cfg):
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
                out = m.forward(x, rng=rng)
                logits, kl = out.logits, out.kl
            loss = T.cross_entropy_with_logits(logits, labels)
            tape.backward(loss if kl is None else loss + kl * 1e-3)
        results.append((logits.data, {n: p.grad for n, p in m.trainables().items()}))
    return results


@pytest.mark.parametrize("prompt_len, prompt_inst", [(8, 0), (8, 4), (8, 8), (0, 0)])
@pytest.mark.parametrize("float64, tol", [(True, 1e-12), (False, 1e-5)])
def test_key_value_prompts_match_the_strip_and_splice_path(float64, tol, prompt_len, prompt_inst):
    cfg = ModelConfig(**{**default_config().__dict__,
                         "prompt_len": prompt_len, "prompt_inst": prompt_inst})
    with T.float64_mode() if float64 else contextlib.nullcontext():
        (logits0, grads0), (logits1, grads1) = _old_and_new_logits_and_grads(cfg)
    assert logits1.dtype == (np.float64 if float64 else np.float32)
    np.testing.assert_allclose(logits1, logits0, rtol=0, atol=tol)
    assert grads1.keys() == grads0.keys()
    assert "backbone.layers.0.attn.wq" in grads1
    if prompt_len > prompt_inst:
        assert "prompts.0" in grads1
    for name in grads1:
        np.testing.assert_allclose(grads1[name], grads0[name], rtol=0, atol=tol, err_msg=name)


def _parent_composition_forward(m, x, rng, probed):
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
    cls_only = cfg.depth - 1 not in probed
    probes = {}
    for i in range(cfg.depth):
        prompts = composed[i] if composed else None
        rows = 1 if cls_only and i == cfg.depth - 1 else None
        # the layer's context concat [tokens | prompts], one composed block
        blocks = [prompts] if composed else []
        x = B.encoder_layer_forward(i, x, params, cfg, rows=rows, prompts=blocks)
        if i in probed:
            prompt_in = prompts.data.copy() if composed else np.zeros((batch, 0, cfg.dim))
            probes[i] = (prompt_in, x.data[:, 1:].copy())
    if not cls_only:
        x = T.slice_axis(x, -2, 0, 1)
    logits = B.classify(B.final_norm(x, params).reshape(batch, cfg.dim), params)
    return logits, kl, probes


@pytest.mark.parametrize("probed", [(), (0, 3)])
@pytest.mark.parametrize("prompt_len, prompt_inst", [(8, 0), (8, 2), (8, 4), (8, 8), (0, 0)])
@pytest.mark.parametrize("float64", [True, False])
def test_prompt_blocks_match_the_parent_composition_bit_for_bit(
    float64, prompt_len, prompt_inst, probed
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
                    logits, kl, _ = _parent_composition_forward(m, x, rng, ())
                else:
                    out = m.forward(x, rng=rng)
                    logits, kl = out.logits, out.kl
                loss = T.cross_entropy_with_logits(logits, labels)
                tape.backward(loss if kl is None else loss + kl * 1e-3)
            # the probes of an eval-mode forward that ran the listed layers on every row
            if parent:
                probes = _parent_composition_forward(m, x, None, probed)[2]
            else:
                probes = m.probe_layers(x, probed)
            grads = {n: p.grad for n, p in m.trainables().items()}
            results.append((logits.data, None if kl is None else kl.data, grads, probes))
    (logits0, kl0, grads0, probes0), (logits1, kl1, grads1, probes1) = results
    assert logits1.dtype == (np.float64 if float64 else np.float32)
    assert np.array_equal(logits1, logits0)
    assert (kl1 is None) == (kl0 is None) == (prompt_inst == 0)
    assert kl1 is None or np.array_equal(kl1, kl0)
    assert grads1.keys() == grads0.keys() and "head.w" in grads1
    for name in grads1:
        assert np.array_equal(grads1[name], grads0[name]), name
    assert probes1.keys() == probes0.keys() == set(probed)
    for i in probes1:
        for a, b in zip(probes1[i], probes0[i]):
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
        # a batch a tape-free forward would split; under a tape it runs whole
        x = np.random.default_rng(0).random((128, 16, 16, 1)).astype(np.float32)
        with Tape() as tape:
            out = m.forward(x, rng=SeededStreams(0).generator("eps"))
            total_loss(out.logits, np.zeros(128, dtype=np.int64), out.kl, 1e-3)
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
    probes = m.probe_layers(images(2), (last,))
    assert set(probes) == {last}
    assert probes[last][1].shape == (2, m.cfg.num_patches, m.cfg.dim)


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
    assert out.kl is None and m.posterior(images(2))[1] is None
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


def test_a_config_with_more_layers_than_tensors_is_refused_before_any_listing(monkeypatch):
    # listing 10**8 layers' names and shapes would run out of memory first
    def unlisted(cfg):
        raise AssertionError("listed the shapes of a config its parameters cannot be a model of")

    params = build().params
    monkeypatch.setattr(B, "param_shapes", unlisted)
    monkeypatch.setattr(M, "_adapter_shapes", unlisted)
    message = f"model has {len(params)} tensor(s), too few for the 100000000 layers of its config"
    with pytest.raises(ConfigError, match=re.escape(message)):
        PromptedClassifier(dataclasses.replace(tiny_config(), depth=10**8), params)


def test_freeze_puts_a_frozen_tensor_over_the_same_array_in_place_of_each_backbone_tensor():
    m = build()
    before = dict(m.params)
    for p in before.values():
        p.grad = np.ones_like(p.data)
    frozen = m.freeze()
    assert frozen == m.frozen == {n for n in before if n.startswith("backbone.")}
    for name, p in m.params.items():
        if name in frozen:
            assert p is not before[name] and p.data is before[name].data, name
            assert not p.requires_grad and p.grad is None, name
        else:
            assert p is before[name], name
    # the replaced tensors are untouched: still trainable, each with its gradient
    assert all(p.requires_grad and np.array_equal(p.grad, np.ones_like(p.data)) for p in before.values())
    digest = m.frozen_digest()
    assert digest == B.frozen_digest(before, frozen)
    assert m.freeze() == frozen and m.frozen_digest() == digest


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


_TRANSFER_CONFIGS = {
    "tiny": tiny_config(),
    "default": default_config(),
    "vpt": ModelConfig(**{**default_config().__dict__, "prompt_inst": 0}),
    "no_prompts": ModelConfig(**{**default_config().__dict__, "prompt_len": 0, "prompt_inst": 0}),
    "inst_only": ModelConfig(**{**default_config().__dict__, "prompt_inst": 8}),
}


@pytest.mark.parametrize("name", list(_TRANSFER_CONFIGS))
def test_from_pretrained_shares_the_backbone_and_head_arrays_and_adds_the_drawn_adapters(name):
    cfg = _TRANSFER_CONFIGS[name]
    pre = PromptedClassifier.init(cfg, SeededStreams(0))
    m = PromptedClassifier.from_pretrained(pre, cfg, SeededStreams(1))
    adapters = M.adapter_params(cfg, SeededStreams(1))
    assert set(m.params) == set(pre.params) | set(adapters)
    assert not set(pre.params) & set(adapters)
    # new tensors over the same arrays, frozen but for the head
    for n, p in pre.params.items():
        q = m.params[n]
        assert q is not p and q.data is p.data, n
        assert q.requires_grad == n.startswith("head."), n
    # the adapters, as `adapter_params` draws them from the same streams
    for n, p in adapters.items():
        q = m.params[n]
        assert q.requires_grad and q.data.dtype == p.data.dtype and np.array_equal(q.data, p.data), n
    assert M.param_fault(cfg, m.params) is None
    assert m.active_budget == (cfg.prompt_len if adapters else 0)
    assert set(m.trainables()) == {"head.w", "head.b"} | set(adapters)


# ---------------------------------------------------------------------------
# the tape-free forward that runs its encoder layers on two row ranges at once


def _default_model(flavor):
    """A default-config model: a tuned v2apt or vpt transfer, or a bare backbone."""
    cfg = ModelConfig(**{**default_config().__dict__, "prompt_inst": 0 if flavor == "vpt" else 4})
    pre = PromptedClassifier.init(cfg, SeededStreams(0))
    return pre if flavor == "bare" else PromptedClassifier.from_pretrained(pre, cfg, SeededStreams(1))


@pytest.fixture
def blas():
    """OpenBLAS's (get, set) thread hooks, at two threads for the test, as on
    a two-core machine; restored after it."""
    hooks = M._blas_threads()
    if hooks is None:
        pytest.skip("numpy carries no OpenBLAS whose threads the forward can set")
    get_threads, set_threads = hooks
    before = get_threads()
    set_threads(2)
    yield hooks
    set_threads(before)


_LAYER = B.encoder_layer_forward


def _spy_layers(monkeypatch, raise_on_worker=False):
    """Record (rows, on the worker, active tape, dtype, BLAS threads) of every
    encoder layer call, and optionally fail the worker's range."""
    calls, caller, blas = [], threading.get_ident(), M._blas_threads()

    def spy(i, tokens, *args, **kwargs):
        on_worker = threading.get_ident() != caller
        calls.append((tokens.shape[0], on_worker, T.active_tape(), tokens.data.dtype,
                      blas and blas[0]()))
        if raise_on_worker and on_worker:
            raise RuntimeError("the second range failed")
        return _LAYER(i, tokens, *args, **kwargs)

    monkeypatch.setattr(B, "encoder_layer_forward", spy)
    return calls


@pytest.mark.parametrize("flavor", ["v2apt", "vpt", "bare"])
@pytest.mark.parametrize("float64", [False, True])
def test_split_forward_and_predict_equal_the_sequential_path_bit_for_bit(
        monkeypatch, blas, flavor, float64):
    with T.float64_mode() if float64 else contextlib.nullcontext():
        m = _default_model(flavor)
        for n in (128, 256, 300, 2048):
            x = np.random.default_rng(n).random((n, 16, 16, 1)).astype(np.float32)
            logits, preds = m.forward(x).logits.data, m.predict(x)
            with monkeypatch.context() as sequential:
                sequential.setattr(M, "_blas_threads", lambda: None)
                want_logits, want_preds = m.forward(x).logits.data, m.predict(x)
            assert logits.dtype == want_logits.dtype == (np.float64 if float64 else np.float32)
            assert np.array_equal(logits, want_logits), n
            assert np.array_equal(preds, want_preds), n


@pytest.mark.parametrize("float64", [False, True])
def test_a_forward_splits_only_tape_free_batches_of_at_least_128_images(monkeypatch, blas, float64):
    dtype = np.dtype(np.float64 if float64 else np.float32)
    with T.float64_mode() if float64 else contextlib.nullcontext():
        m = _default_model("v2apt")
        depth = m.cfg.depth
        for n, ranges in ((127, [(127, False)]), (128, [(64, False), (64, True)]),
                          (300, [(128, False), (172, True)])):
            calls = _spy_layers(monkeypatch)
            m.forward(images(n))
            assert sorted((rows, worker) for rows, worker, *_ in calls) == sorted(ranges * depth)
            # both ranges run tape-free, in the caller's dtype, at one BLAS thread
            want = (None, dtype, 1 if len(ranges) == 2 else 2)
            assert {tuple(call[2:]) for call in calls} == {want}
        # a forward under a tape runs whole
        calls = _spy_layers(monkeypatch)
        with Tape():
            m.forward(images(128))
        assert [(rows, worker) for rows, worker, *_ in calls] == [(128, False)] * depth


def test_with_blas_at_one_thread_a_forward_runs_whole(monkeypatch, blas):
    # one core, or a caller that asked OpenBLAS for one thread
    m = _default_model("v2apt")
    get_threads, set_threads = blas
    set_threads(1)
    calls = _spy_layers(monkeypatch)
    m.forward(images(256))
    assert [(rows, worker) for rows, worker, *_ in calls] == [(256, False)] * m.cfg.depth
    assert get_threads() == 1


def test_without_the_blas_hook_a_forward_runs_whole(monkeypatch):
    m = _default_model("v2apt")
    monkeypatch.setattr(M, "_blas_threads", lambda: None)
    calls = _spy_layers(monkeypatch)
    m.forward(images(256))
    assert [(rows, worker) for rows, worker, *_ in calls] == [(256, False)] * m.cfg.depth


def _tune_step(m, x, labels, meanwhile=lambda: None):
    """Records and trainable gradients of one taped step; `meanwhile` runs
    while its tape is open."""
    for p in m.params.values():
        p.grad = None
    with Tape() as tape:
        out = m.forward(x, rng=SeededStreams(0).generator("eps"))
        meanwhile()
        loss = total_loss(out.logits, labels, out.kl, 1e-3)[0]
        tape.backward(loss)
    return len(tape), {n: p.grad for n, p in m.trainables().items()}


def test_a_tune_step_records_nothing_of_a_predict_on_another_thread():
    # tapes are per thread: a tape-free forward elsewhere adds no record to
    # this thread's tape, and splits as if no tape were open
    m = _default_model("v2apt")
    x, labels, batch = images(64, seed=1), np.arange(64) % m.cfg.num_classes, images(256, seed=2)
    want_preds = m.predict(batch)
    want_records, want_grads = _tune_step(m, x, labels)
    preds = []

    def predict_on_another_thread():
        thread = threading.Thread(target=lambda: preds.append(m.predict(batch)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()

    records, grads = _tune_step(m, x, labels, predict_on_another_thread)
    assert records == want_records == 82
    assert grads.keys() == want_grads.keys() and "prompts.0" in grads
    for name in grads:
        assert np.array_equal(grads[name], want_grads[name]), name
    assert len(preds) == 1 and np.array_equal(preds[0], want_preds)


def test_split_forwards_on_two_threads_at_once_give_the_sequential_bits(monkeypatch, blas):
    # the two forwards toggle OpenBLAS's one process-wide thread count: each
    # may find it at one thread and run whole, or run its split at two BLAS
    # threads, yet its values are the sequential path's, and the count ends
    # where it began
    get_threads, _ = blas
    m = _default_model("v2apt")
    batches = [images(256, seed=seed) for seed in (1, 2)]
    with monkeypatch.context() as sequential:
        sequential.setattr(M, "_blas_threads", lambda: None)
        want = [(m.forward(x).logits.data, m.predict(x)) for x in batches]
    start, got = threading.Barrier(2), {}

    def run(i):
        start.wait(timeout=60)
        got[i] = [(m.forward(batches[i]).logits.data, m.predict(batches[i])) for _ in range(3)]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert sorted(got) == [0, 1]
    for i in range(2):
        for logits, preds in got[i]:
            assert np.array_equal(logits, want[i][0]) and np.array_equal(preds, want[i][1]), i
    assert get_threads() == 2


def test_a_split_forward_restores_the_blas_threads_also_when_the_worker_raises(monkeypatch, blas):
    get_threads, _ = blas
    m, x = _default_model("v2apt"), images(300)
    want = m.forward(x).logits.data
    assert get_threads() == 2
    _spy_layers(monkeypatch, raise_on_worker=True)
    with pytest.raises(RuntimeError, match="second range"):
        m.forward(x)
    assert get_threads() == 2
    monkeypatch.undo()
    assert np.array_equal(m.forward(x).logits.data, want)
    assert not [t for t in threading.enumerate() if t.name.startswith("v2apt-encoder")]


def test_a_split_forward_runs_in_a_process_forked_after_one():
    # no worker thread outlives a forward, so a forked child has none to wait on
    if M._blas_threads() is None:
        pytest.skip("numpy carries no OpenBLAS whose threads the forward can set")
    code = """
import os, signal, threading, numpy as np
from v2apt import model as M
from v2apt.config import default_config
from v2apt.rng import SeededStreams
get_threads, set_threads = M._blas_threads()
set_threads(2)
cfg = default_config()
m = M.PromptedClassifier.from_pretrained(M.PromptedClassifier.init(cfg, SeededStreams(0)),
                                         cfg, SeededStreams(1))
x = np.random.default_rng(0).random((256, 16, 16, 1)).astype(np.float32)
want = m.forward(x).logits.data
assert not [t for t in threading.enumerate() if t.name.startswith("v2apt-encoder")]
pid = os.fork()
if pid == 0:
    signal.alarm(60)  # a deadlocked child dies instead of hanging the test
    set_threads(2)
    os._exit(0 if np.array_equal(m.forward(x).logits.data, want) else 1)
_, status = os.waitpid(pid, 0)
print(os.waitstatus_to_exitcode(status))
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "0"
