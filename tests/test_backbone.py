"""Backbone unit tests: patching, encoder block closed forms, freeze contract."""

import contextlib

import numpy as np
import pytest

from v2apt import backbone as B
from v2apt import tensor as T
from v2apt.config import ModelConfig, default_config, tiny_config
from v2apt.errors import ConfigError, ShapeError
from v2apt.gradcheck import finite_diff_check
from v2apt.rng import SeededStreams
from v2apt.tensor import Tape, Tensor


def make(cfg=None, seed=0):
    cfg = cfg or tiny_config()
    return cfg, B.init_backbone(cfg, SeededStreams(seed))


def test_init_is_deterministic_per_seed():
    _, p1 = make(seed=3)
    _, p2 = make(seed=3)
    _, p3 = make(seed=4)
    assert p1.keys() == p2.keys()
    for name in p1:
        np.testing.assert_array_equal(p1[name].data, p2[name].data)
    assert any(p1[n].data.tobytes() != p3[n].data.tobytes() for n in p1)


def test_patchify_shape_and_order():
    cfg = tiny_config()
    img = np.arange(16 * 16, dtype=np.float32).reshape(1, 16, 16, 1) / 256.0
    patches = B.patchify(img, cfg)
    assert patches.shape == (1, 16, 16)
    # first patch is the top-left 4x4 block, row-major
    np.testing.assert_array_equal(patches[0, 0], img[0, :4, :4, 0].reshape(-1))
    # patch index runs left-to-right then top-to-bottom
    np.testing.assert_array_equal(patches[0, 1], img[0, :4, 4:8, 0].reshape(-1))
    np.testing.assert_array_equal(patches[0, 4], img[0, 4:8, :4, 0].reshape(-1))


def test_patch_embed_zero_image_is_bias_plus_position():
    cfg, params = make()
    params["backbone.patch.b"] = Tensor(np.linspace(-1, 1, cfg.dim), requires_grad=True)
    out = B.patch_embed(np.zeros((2, 16, 16, 1), dtype=np.float32), params, cfg)
    assert out.shape == (2, cfg.num_patches, cfg.dim)
    want = params["backbone.patch.b"].data + params["backbone.pos"].data
    np.testing.assert_allclose(out.data[0], want, atol=1e-7)
    np.testing.assert_allclose(out.data[1], want, atol=1e-7)


def test_indivisible_image_side_rejected():
    cfg, params = make()
    with pytest.raises(ConfigError, match="divisible"):
        B.patchify(np.zeros((1, 15, 15, 1), dtype=np.float32), cfg)


def test_wrong_channel_count_rejected():
    cfg, params = make()
    with pytest.raises(ConfigError):
        B.patch_embed(np.zeros((1, 16, 16, 3), dtype=np.float32), params, cfg)


def test_encoder_layer_preserves_shape():
    cfg, params = make()
    for s in (1, 5, 21):
        x = Tensor(np.random.default_rng(s).standard_normal((2, s, cfg.dim)))
        out = B.encoder_layer_forward(0, x, params, cfg)
        assert out.shape == (2, s, cfg.dim)


def test_single_token_closed_form():
    # with one token, softmax over the single key is 1, so ctx == v
    cfg, params = make()
    g = lambda n: params[f"backbone.layers.0.{n}"].data.astype(np.float64)
    x = np.random.default_rng(0).standard_normal((1, 1, cfg.dim))

    def ln(v, gamma, beta):
        mu = v.mean(-1, keepdims=True)
        var = v.var(-1, keepdims=True)
        return (v - mu) / np.sqrt(var + 1e-6) * gamma + beta

    h = ln(x, g("ln1.g"), g("ln1.b"))
    v = h @ g("attn.wv") + g("attn.bv")
    attn_out = v @ g("attn.wo") + g("attn.bo")
    mid = x + attn_out
    h2 = ln(mid, g("ln2.g"), g("ln2.b"))
    from scipy.special import erf

    act = lambda t: t * 0.5 * (1 + erf(t / np.sqrt(2)))
    mlp = act(h2 @ g("mlp.w1") + g("mlp.b1")) @ g("mlp.w2") + g("mlp.b2")
    want = mid + mlp

    got = B.encoder_layer_forward(0, Tensor(x), params, cfg).data
    np.testing.assert_allclose(got, want, atol=1e-5)


def test_identical_tokens_produce_identical_rows():
    cfg, params = make()
    row = np.random.default_rng(1).standard_normal(cfg.dim).astype(np.float32)
    x = Tensor(np.stack([row, row, row])[None])
    out = B.encoder_layer_forward(1, x, params, cfg).data[0]
    np.testing.assert_allclose(out[0], out[1], atol=1e-6)
    np.testing.assert_allclose(out[1], out[2], atol=1e-6)


def test_width_mismatch_rejected():
    cfg, params = make()
    with pytest.raises(ShapeError, match="width"):
        B.encoder_layer_forward(0, Tensor(np.zeros((1, 3, cfg.dim + 1))), params, cfg)


def test_classify_identity_and_uniform_loss():
    cfg, params = make()
    d = cfg.dim
    params["head.w"] = Tensor(np.eye(d), requires_grad=True)
    params["head.b"] = Tensor(np.zeros(d), requires_grad=True)
    x = Tensor(np.random.default_rng(2).standard_normal((3, d)))
    np.testing.assert_allclose(B.classify(x, params).data, x.data, atol=1e-7)

    params["head.w"] = Tensor(np.zeros((d, 5)), requires_grad=True)
    params["head.b"] = Tensor(np.zeros(5), requires_grad=True)
    logits = B.classify(x, params)
    np.testing.assert_array_equal(logits.data, np.zeros((3, 5), dtype=np.float32))
    loss = T.cross_entropy_with_logits(logits, np.array([0, 1, 2]))
    assert loss.item() == pytest.approx(np.log(5), rel=1e-6)


def test_freeze_mask_enumerates_backbone_only():
    cfg, params = make()
    frozen = B.freeze_backbone(params)
    assert frozen == {n for n in params if n.startswith("backbone.")}
    expected_kinds = {"backbone.patch.w", "backbone.patch.b", "backbone.pos", "backbone.cls",
                      "backbone.ln_f.g", "backbone.ln_f.b"}
    assert expected_kinds <= frozen
    assert all(f"backbone.layers.{i}.attn.wq" in frozen for i in range(cfg.depth))
    assert "head.w" not in frozen and "head.b" not in frozen
    assert not params["backbone.cls"].requires_grad
    assert params["head.w"].requires_grad
    # idempotent
    assert B.freeze_backbone(params) == frozen


def test_frozen_digest_tracks_bytes():
    cfg, params = make()
    frozen = B.freeze_backbone(params)
    d1 = B.frozen_digest(params, frozen)
    assert d1 == B.frozen_digest(params, frozen)
    params["head.w"] = Tensor(params["head.w"].data + 1, requires_grad=True)
    assert B.frozen_digest(params, frozen) == d1  # head excluded
    params["backbone.cls"] = Tensor(params["backbone.cls"].data + 1e-3)
    assert B.frozen_digest(params, frozen) != d1


def test_backbone_grads_flow_when_unfrozen():
    cfg, params = make()
    imgs = np.random.default_rng(0).random((2, 16, 16, 1)).astype(np.float32)
    with Tape() as tape:
        e = B.patch_embed(imgs, params, cfg)
        cls = T.expand_leading(params["backbone.cls"], 2)
        seq = T.concat([cls, e], axis=-2)
        for i in range(cfg.depth):
            seq = B.encoder_layer_forward(i, seq, params, cfg)
        seq = B.final_norm(seq, params)
        logits = B.classify(T.slice_axis(seq, -2, 0, 1).reshape(2, cfg.dim), params)
        loss = T.cross_entropy_with_logits(logits, np.array([0, 1]))
        tape.backward(loss)
    for name in ("backbone.patch.w", "backbone.pos", "backbone.cls", "head.w",
                 "backbone.layers.0.attn.wq", "backbone.layers.1.mlp.w2"):
        assert params[name].grad is not None
        assert np.linalg.norm(params[name].grad) > 0, name


def _unfused_encoder_layer(layer_idx, tokens, params, cfg):
    """The encoder block as composed before the fused primitives: the reference."""
    base = f"backbone.layers.{layer_idx}"
    b, s, d = tokens.shape
    nh, hd = cfg.heads, cfg.head_dim

    def affine_norm(x, g, beta):
        return T.layer_norm(x, np.ones(d), np.zeros(d)) * g + beta

    def heads(t):
        return t.reshape(b, s, nh, hd).transpose(0, 2, 1, 3)

    h = affine_norm(tokens, params[f"{base}.ln1.g"], params[f"{base}.ln1.b"])
    q = heads(h @ params[f"{base}.attn.wq"] + params[f"{base}.attn.bq"])
    k = heads(h @ params[f"{base}.attn.wk"] + params[f"{base}.attn.bk"])
    v = heads(h @ params[f"{base}.attn.wv"] + params[f"{base}.attn.bv"])
    scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(hd))
    ctx = (T.softmax(scores, axis=-1) @ v).transpose(0, 2, 1, 3).reshape(b, s, d)
    x = tokens + (ctx @ params[f"{base}.attn.wo"] + params[f"{base}.attn.bo"])
    h2 = affine_norm(x, params[f"{base}.ln2.g"], params[f"{base}.ln2.b"])
    mlp = T.gelu(h2 @ params[f"{base}.mlp.w1"] + params[f"{base}.mlp.b1"])
    return x + (mlp @ params[f"{base}.mlp.w2"] + params[f"{base}.mlp.b2"])


def _layer_output_and_input_grad(layer_fn, frozen, batch=8):
    cfg, params = make(default_config(), seed=5)
    if frozen:
        B.freeze_backbone(params)
    g = np.random.default_rng(6)
    x = Tensor(g.standard_normal((batch, cfg.seq_len, cfg.dim)), requires_grad=True)
    probe = Tensor(g.standard_normal((batch, cfg.seq_len, cfg.dim)))
    with Tape() as tape:
        y = layer_fn(1, x, params, cfg)
        tape.backward((y * probe).sum())
    return y.data, x.grad


@pytest.mark.parametrize("frozen", [True, False])
def test_fused_layer_matches_unfused_float64(frozen):
    # outputs are bit-identical; the input gradient differs by rounding only,
    # because the old stacked matmul adjoint sums in a different order
    with T.float64_mode():
        y1, g1 = _layer_output_and_input_grad(B.encoder_layer_forward, frozen)
        y0, g0 = _layer_output_and_input_grad(_unfused_encoder_layer, frozen)
    np.testing.assert_array_equal(y1, y0)
    np.testing.assert_allclose(g1, g0, rtol=0, atol=1e-13)


@pytest.mark.parametrize("frozen", [True, False])
def test_fused_layer_matches_unfused_float32(frozen):
    y1, g1 = _layer_output_and_input_grad(B.encoder_layer_forward, frozen)
    y0, g0 = _layer_output_and_input_grad(_unfused_encoder_layer, frozen)
    np.testing.assert_allclose(y1, y0, rtol=0, atol=1e-5)
    np.testing.assert_allclose(g1, g0, rtol=0, atol=1e-5)


def test_fused_layer_records_ten_primitives():
    cfg, params = make()
    B.freeze_backbone(params)
    x = Tensor(np.random.default_rng(0).standard_normal((2, 5, cfg.dim)), requires_grad=True)
    with Tape() as tape:
        B.encoder_layer_forward(0, x, params, cfg)
    assert [r.op for r in tape.records] == [
        "layer_norm", "linear", "linear", "linear", "attention", "linear", "add",
        "layer_norm", "mlp", "add",
    ]


def test_pruned_layer_records_slices_before_the_query_projection():
    cfg, params = make()
    B.freeze_backbone(params)
    x = Tensor(np.random.default_rng(0).standard_normal((2, 5, cfg.dim)), requires_grad=True)
    with Tape() as tape:
        y = B.encoder_layer_forward(0, x, params, cfg, rows=1)
    assert y.shape == (2, 1, cfg.dim)
    assert [r.op for r in tape.records] == [
        "layer_norm", "linear", "linear", "slice", "slice", "linear", "attention", "linear",
        "add", "layer_norm", "mlp", "add",
    ]


def _row0_output_and_input_grad(rows, batch=8):
    cfg, params = make(default_config(), seed=5)
    B.freeze_backbone(params)
    g = np.random.default_rng(6)
    x = Tensor(g.standard_normal((batch, cfg.seq_len, cfg.dim)), requires_grad=True)
    probe = Tensor(g.standard_normal((batch, 1, cfg.dim)))
    with Tape() as tape:
        y = T.slice_axis(B.encoder_layer_forward(1, x, params, cfg, rows=rows), -2, 0, 1)
        tape.backward((y * probe).sum())
    return y.data, x.grad


@pytest.mark.parametrize("float64, tol", [(True, 1e-12), (False, 1e-5)])
def test_pruned_layer_equals_row_zero_of_full_layer(float64, tol):
    with T.float64_mode() if float64 else contextlib.nullcontext():
        y1, g1 = _row0_output_and_input_grad(rows=1)
        y0, g0 = _row0_output_and_input_grad(rows=None)
    assert y1.dtype == (np.float64 if float64 else np.float32)
    np.testing.assert_allclose(y1, y0, rtol=0, atol=tol)
    np.testing.assert_allclose(g1, g0, rtol=0, atol=tol)


@pytest.mark.parametrize("tokens_trainable, rows", [(False, None), (True, None), (True, 1)])
def test_key_value_prompt_rows_gradcheck_float64(tokens_trainable, rows):
    # prompts enter only as keys and values; the backbone stays frozen
    with T.float64_mode():
        cfg, params = make()
        B.freeze_backbone(params)
        g = np.random.default_rng(8)
        tokens = Tensor(g.standard_normal((2, 3, cfg.dim)), requires_grad=tokens_trainable)
        prompts = Tensor(g.standard_normal((2, 2, cfg.dim)), requires_grad=True)
        probe = Tensor(g.standard_normal((2, rows or 3, cfg.dim)))
        trainable = {"prompts": prompts, **({"tokens": tokens} if tokens_trainable else {})}

        def loss():
            y = B.encoder_layer_forward(0, tokens, params, cfg, rows=rows, prompts=[prompts])
            return (y * probe).sum()

        report = finite_diff_check(loss, trainable, eps=1e-6, tol=1e-7)
    assert report.passed, report.summary()
    assert all(p.grad is None for p in params.values())
    if not tokens_trainable:
        assert tokens.grad is None


def _record_ops(rows):
    cfg, params = make()
    B.freeze_backbone(params)
    g = np.random.default_rng(0)
    x = Tensor(g.standard_normal((2, 5, cfg.dim)), requires_grad=True)
    prompts = Tensor(g.standard_normal((2, 3, cfg.dim)), requires_grad=True)
    with Tape() as tape:
        y = B.encoder_layer_forward(0, x, params, cfg, rows=rows, prompts=[prompts])
    assert y.shape == (2, rows or 5, cfg.dim)
    return [r.op for r in tape.records]


def test_prompted_layer_records_one_concat_and_one_slice():
    # the context concat, the 10 block records, and one slice of the normed
    # context to the carried rows before the query projection
    assert _record_ops(rows=None) == [
        "concat", "layer_norm", "linear", "linear", "slice", "linear", "attention", "linear",
        "add", "layer_norm", "mlp", "add",
    ]


def test_prompted_last_layer_records_two_slices():
    assert _record_ops(rows=1) == [
        "concat", "layer_norm", "linear", "linear", "slice", "slice", "linear", "attention",
        "linear", "add", "layer_norm", "mlp", "add",
    ]


def test_rows_out_of_range_rejected():
    cfg, params = make()
    x = Tensor(np.zeros((2, 5, cfg.dim)))
    prompts = Tensor(np.zeros((2, 3, cfg.dim)))
    for rows in (0, 6):
        with pytest.raises(ShapeError, match="rows"):
            B.encoder_layer_forward(0, x, params, cfg, rows=rows, prompts=[prompts])
