"""Similarity maps, exports, and latent statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2apt import analysis as A
from v2apt import data as D
from v2apt.config import ModelConfig, tiny_config
from v2apt.errors import ShapeError, ValidationError
from v2apt.backbone import init_backbone
from v2apt.model import PromptedClassifier, adapter_params
from v2apt.rng import SeededStreams
from v2apt.tensor import Tensor


def built_model(cfg=None, seed=0):
    """A model whose backbone trains too, with the config's adapters."""
    cfg, streams = cfg or tiny_config(), SeededStreams(seed)
    return PromptedClassifier(cfg, {**init_backbone(cfg, streams), **adapter_params(cfg, streams)})


def test_identical_row_gives_one_orthogonal_gives_zero():
    p = np.array([[1.0, 0.0], [0.0, 2.0]])
    f = np.array([[2.0, 0.0], [0.0, -3.0]])
    sim = A.cosine_similarity_map(p, f)
    assert sim[0, 0] == pytest.approx(1.0)
    assert sim[0, 1] == pytest.approx(0.0)
    assert sim[1, 0] == pytest.approx(0.0)
    assert sim[1, 1] == pytest.approx(-1.0)


def test_zero_norm_rows_define_zero_entries():
    sim = A.cosine_similarity_map(np.zeros((2, 3)), np.ones((4, 3)))
    np.testing.assert_array_equal(sim, 0.0)


def test_entries_bounded():
    g = np.random.default_rng(0)
    sim = A.cosine_similarity_map(g.standard_normal((5, 7)), g.standard_normal((9, 7)))
    assert np.all(np.abs(sim) <= 1.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), scale=st.floats(0.001, 1000.0))
def test_row_scale_invariance_property(seed, scale):
    g = np.random.default_rng(seed)
    p = g.standard_normal((3, 5))
    f = g.standard_normal((4, 5))
    base = A.cosine_similarity_map(p, f)
    p2 = p.copy()
    p2[1] *= scale
    scaled = A.cosine_similarity_map(p2, f)
    np.testing.assert_allclose(scaled, base, atol=1e-9)


def test_width_mismatch_rejected():
    with pytest.raises(ShapeError):
        A.cosine_similarity_map(np.zeros((2, 3)), np.zeros((2, 4)))


def test_mean_similarity_values():
    assert A.mean_similarity(np.ones((2, 2))) == 1.0
    anti = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert A.mean_similarity(anti) == 0.0


def test_csv_round_trip_and_determinism(tmp_path):
    g = np.random.default_rng(3)
    sim = np.clip(g.standard_normal((4, 6)) / 3, -1, 1)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    A.export_map(sim, p1, "csv")
    A.export_map(sim, p2, "csv")
    assert p1.read_bytes() == p2.read_bytes()
    back = A.load_map_csv(p1)
    np.testing.assert_allclose(back, sim, atol=1e-8)
    header = p1.read_text().splitlines()[0]
    assert header == ",".join(str(j) for j in range(6))


def test_pgm_format_and_size(tmp_path):
    sim = np.zeros((3, 5))
    p = tmp_path / "map.pgm"
    A.export_map(sim, p, "pgm")
    blob = p.read_bytes()
    header = f"P5\n5 3\n255\n".encode()
    assert blob.startswith(header)
    assert len(blob) == len(header) + 3 * 5
    assert set(blob[len(header):]) == {128}  # zero similarity -> mid gray


def test_pgm_affine_endpoints(tmp_path):
    sim = np.array([[-1.0, 1.0, 0.5]])
    p = tmp_path / "ends.pgm"
    A.export_map(sim, p, "pgm")
    payload = p.read_bytes().split(b"255\n", 1)[1]
    assert payload[0] == 0
    assert payload[1] == 255
    assert payload[2] == 191  # (1.5/2)*255 = 191.25 -> round half up -> 191


def test_pgm_byte_stable(tmp_path):
    g = np.random.default_rng(1)
    sim = np.clip(g.standard_normal((4, 4)), -1, 1)
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    A.export_map(sim, p1, "pgm")
    A.export_map(sim, p2, "pgm")
    assert p1.read_bytes() == p2.read_bytes()


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValidationError, match="format"):
        A.export_map(np.zeros((1, 1)), tmp_path / "x", "png")


# ---------------------------------------------------------------------------
# model-level maps


def test_model_similarity_map_shapes_and_default_layer():
    m = built_model()
    imgs = np.random.default_rng(0).random((3, 16, 16, 1)).astype(np.float32)
    sim = A.model_similarity_map(m, imgs, index=1)
    assert sim.shape == (m.cfg.prompt_len, m.cfg.num_patches) and sim.dtype == np.float64
    np.testing.assert_array_equal(sim, A.model_similarity_map(m, imgs, index=1, layer=m.cfg.depth - 1))
    assert np.all(np.abs(sim) <= 1.0)
    sim0 = A.model_similarity_map(m, imgs, index=1, layer=0)
    assert not np.array_equal(sim, sim0)


def test_model_similarity_map_deterministic():
    m = built_model()
    imgs = np.random.default_rng(0).random((2, 16, 16, 1)).astype(np.float32)
    a = A.model_similarity_map(m, imgs, 0)
    b = A.model_similarity_map(m, imgs, 0)
    np.testing.assert_array_equal(a, b)


def test_model_similarity_map_rejects_promptless():
    cfg = ModelConfig(**{**tiny_config().__dict__, "prompt_len": 0, "prompt_inst": 0})
    m = built_model(cfg)
    imgs = np.zeros((1, 16, 16, 1), dtype=np.float32)
    with pytest.raises(ValidationError, match="prompt"):
        A.model_similarity_map(m, imgs, 0)


def test_compare_harness_emits_both_scalars():
    v2 = built_model()
    vpt = built_model(ModelConfig(**{**tiny_config().__dict__, "prompt_inst": 0}))
    imgs = np.random.default_rng(1).random((3, 16, 16, 1)).astype(np.float32)
    out = A.compare_mean_similarity(v2, vpt, imgs)
    assert set(out) == {"with_vae", "without_vae"}
    assert all(np.isfinite(v) and -1.0 <= v <= 1.0 for v in out.values())


# ---------------------------------------------------------------------------
# latent statistics


def test_latent_stats_zero_encoder():
    m = built_model()
    z = m.cfg.latent_dim
    for n in ("vae.enc.w1", "vae.enc.b1", "vae.enc.w2", "vae.enc.b2"):
        m.params[n] = Tensor(np.zeros_like(m.params[n].data), requires_grad=True)
    ds = D.generate(D.TaskSpec(classes=3, per_class=4), seed=0)
    stats = A.latent_stats(m, ds)
    np.testing.assert_array_equal(stats.mu_mean, np.zeros(z))
    assert stats.active_dims == 0
    assert stats.mean_kl == 0.0


def test_latent_stats_repeatable_and_shaped():
    m = built_model()
    ds = D.generate(D.TaskSpec(classes=3, per_class=4, noise=0.1), seed=1)
    a = A.latent_stats(m, ds)
    b = A.latent_stats(m, ds)
    np.testing.assert_array_equal(a.mu_mean, b.mu_mean)
    np.testing.assert_array_equal(a.mu_var, b.mu_var)
    assert a.mean_kl == b.mean_kl and a.active_dims == b.active_dims
    assert a.mu_mean.shape == (m.cfg.latent_dim,)
    assert a.mean_kl >= 0.0


def test_latent_stats_requires_generator():
    cfg = ModelConfig(**{**tiny_config().__dict__, "prompt_inst": 0})
    m = built_model(cfg)
    ds = D.generate(D.TaskSpec(classes=3, per_class=4), seed=0)
    with pytest.raises(ValidationError, match="generator"):
        A.latent_stats(m, ds)


def test_kl_penalty_lowers_trained_posterior_kl():
    """Train the same seed/task with beta 0 and beta 1e-3; the penalized run
    must end with the smaller mean posterior KL. Slowest test in this file.
    """
    from v2apt.config import RunConfig, default_config
    from v2apt.trainer import Trainer

    ds = D.generate(D.preset("easy-3"), 0)
    cfg = ModelConfig(**{**default_config().__dict__, "num_classes": 3})
    kl_by_beta = {}
    for beta in (0.0, 1e-3):
        streams = SeededStreams(0)
        m = PromptedClassifier.from_pretrained(PromptedClassifier.init(cfg, streams), cfg, streams)
        run = RunConfig(seed=0, batch_size=64, steps=300, kl_beta=beta)
        Trainer(m, run, ds).train()
        kl_by_beta[beta] = A.latent_stats(m, ds).mean_kl
    assert kl_by_beta[0.0] > kl_by_beta[1e-3]
