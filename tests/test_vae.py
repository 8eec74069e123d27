"""Latent prompt generator tests.

The KL oracle is a seeded antithetic Monte-Carlo estimate of
E_q[log q - log p], fully independent of the closed form under test.
"""

import copy

import numpy as np
import pytest

from v2apt import tensor as T
from v2apt import vae as V
from v2apt.config import ModelConfig, default_config, tiny_config
from v2apt.errors import ShapeError
from v2apt.gradcheck import finite_diff_check
from v2apt.rng import SeededStreams
from v2apt.tensor import Tape, Tensor, float64_mode


def zero_params(cfg):
    params = V.init_vae(cfg, SeededStreams(0))
    return {n: Tensor(np.zeros_like(p.data), requires_grad=True) for n, p in params.items()}


def test_encode_shapes_default_config():
    cfg = default_config()
    params = V.init_vae(cfg, SeededStreams(1))
    x = Tensor(np.random.default_rng(0).standard_normal((5, cfg.dim)))
    dist = V.encode(x, params, cfg)
    assert dist.mu.shape == (5, cfg.latent_dim) == (5, 8)
    assert dist.logvar.shape == (5, 8)


def test_encode_zero_params_gives_standard_normal():
    cfg = tiny_config()
    params = zero_params(cfg)
    x = Tensor(np.random.default_rng(0).standard_normal((3, cfg.dim)))
    dist = V.encode(x, params, cfg)
    np.testing.assert_array_equal(dist.mu.data, 0.0)
    np.testing.assert_array_equal(dist.logvar.data, 0.0)
    assert V.kl_divergence(dist).item() == 0.0


def test_logvar_always_clamped():
    cfg = tiny_config()
    params = V.init_vae(cfg, SeededStreams(0))
    params["vae.enc.w2"] = Tensor(params["vae.enc.w2"].data * 1e6, requires_grad=True)
    x = Tensor(np.random.default_rng(0).standard_normal((4, cfg.dim)) * 100)
    dist = V.encode(x, params, cfg)
    assert dist.logvar.data.min() >= V.LOGVAR_LO
    assert dist.logvar.data.max() <= V.LOGVAR_HI


def test_distinct_inputs_give_distinct_mu():
    cfg = tiny_config()
    params = V.init_vae(cfg, SeededStreams(7))
    g = np.random.default_rng(7)
    xs = Tensor(g.standard_normal((100, cfg.dim)))
    mu = V.encode(xs, params, cfg).mu.data
    for i in range(0, 98, 2):
        assert np.linalg.norm(mu[i] - mu[i + 1]) > 0.0


def test_pooling_is_mean_and_permutation_invariant():
    e = np.random.default_rng(0).standard_normal((2, 6, 4)).astype(np.float32)
    pooled = V.pool_input_embeddings(Tensor(e))
    np.testing.assert_allclose(pooled.data, e.mean(axis=1), atol=1e-7)
    perm = e[:, ::-1]
    np.testing.assert_allclose(
        V.pool_input_embeddings(Tensor(perm.copy())).data, pooled.data, atol=1e-6
    )
    row = np.ones((1, 3, 4), dtype=np.float32) * 2.5
    np.testing.assert_allclose(V.pool_input_embeddings(Tensor(row)).data, 2.5)


def test_reparameterize_eval_is_mu_bit_exact():
    mu = Tensor(np.random.default_rng(0).standard_normal(8))
    dist = V.LatentDistribution(mu=mu, logvar=Tensor(np.full(8, 0.7)))
    z = V.reparameterize(dist)
    assert z is mu


def test_reparameterize_train_statistics():
    dist = V.LatentDistribution(mu=Tensor(np.zeros(4)), logvar=Tensor(np.zeros(4)))
    rng = SeededStreams(0).generator("eps")
    draws = np.stack([V.reparameterize(dist, rng=rng).data for _ in range(100_000)])
    assert np.all(np.abs(draws.mean(axis=0)) < 0.01)
    assert np.all(np.abs(draws.var(axis=0) - 1.0) < 0.02)


def test_eps_stream_reproducible():
    dist = V.LatentDistribution(mu=Tensor(np.zeros(4)), logvar=Tensor(np.zeros(4)))
    a = V.reparameterize(dist, rng=SeededStreams(9).generator("eps", cursor=3)).data
    b = V.reparameterize(dist, rng=SeededStreams(9).generator("eps", cursor=3)).data
    c = V.reparameterize(dist, rng=SeededStreams(9).generator("eps", cursor=4)).data
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_decode_shapes_and_layer_major_order():
    cfg = ModelConfig(depth=2, prompt_inst=4, prompt_len=4, dim=48, heads=3, latent_dim=8)
    params = zero_params(cfg)
    n_out = cfg.depth * cfg.prompt_inst * cfg.dim
    params["vae.dec.b2"] = Tensor(np.arange(n_out, dtype=np.float64), requires_grad=True)
    blocks = V.decode(Tensor(np.zeros((1, cfg.latent_dim))), params, cfg)
    assert len(blocks) == 2
    per_layer = cfg.prompt_inst * cfg.dim
    for i, blk in enumerate(blocks):
        assert blk.shape == (1, cfg.prompt_inst, cfg.dim)
        want = np.arange(i * per_layer, (i + 1) * per_layer, dtype=np.float32)
        np.testing.assert_array_equal(blk.data.reshape(-1), want)


def test_decode_zero_params_zero_prompts():
    cfg = tiny_config()
    params = zero_params(cfg)
    blocks = V.decode(Tensor(np.ones((3, cfg.latent_dim))), params, cfg)
    for blk in blocks:
        np.testing.assert_array_equal(blk.data, 0.0)


def test_distinct_latents_give_distinct_prompts():
    cfg = tiny_config()
    params = V.init_vae(cfg, SeededStreams(3))
    z = Tensor(np.random.default_rng(1).standard_normal((50, cfg.latent_dim)))
    blocks = V.decode(z, params, cfg)
    flat = np.concatenate([b.data.reshape(50, -1) for b in blocks], axis=1)
    for i in range(0, 48, 2):
        assert np.linalg.norm(flat[i] - flat[i + 1]) > 0.0


# ---------------------------------------------------------------------------
# KL divergence


def test_kl_zero_at_standard_normal():
    dist = V.LatentDistribution(mu=Tensor(np.zeros(6)), logvar=Tensor(np.zeros(6)))
    assert V.kl_divergence(dist).item() == 0.0


def test_kl_closed_form_values():
    with float64_mode():
        d1 = V.LatentDistribution(mu=Tensor([1.0]), logvar=Tensor([0.0]))
        assert V.kl_divergence(d1).item() == pytest.approx(0.5, abs=1e-12)
        d2 = V.LatentDistribution(mu=Tensor([0.0]), logvar=Tensor([1.0]))
        assert V.kl_divergence(d2).item() == pytest.approx(0.5 * (np.e - 2.0), abs=1e-12)


def test_kl_monte_carlo_oracle_on_reference_points():
    got = V.kl_monte_carlo(np.array([1.0]), np.array([0.0]), n_samples=1_000_000, seed=1)
    assert got == pytest.approx(0.5, abs=0.01)
    got = V.kl_monte_carlo(np.array([0.0]), np.array([1.0]), n_samples=1_000_000, seed=2)
    assert got == pytest.approx(0.5 * (np.e - 2.0), abs=0.01)


def test_kl_batch_is_mean_of_per_sample():
    with float64_mode():
        mu = Tensor(np.array([[1.0, 0.0], [0.0, 0.0]]))
        lv = Tensor(np.array([[0.0, 0.0], [1.0, 0.0]]))
        got = V.kl_divergence(V.LatentDistribution(mu=mu, logvar=lv)).item()
        want = 0.5 * (0.5 + 0.5 * (np.e - 2.0))
        assert got == pytest.approx(want, abs=1e-12)


def test_kl_nonnegative_property():
    g = np.random.default_rng(0)
    with float64_mode():
        for _ in range(200):
            mu = Tensor(g.uniform(-3, 3, size=5))
            lv = Tensor(g.uniform(-10, 10, size=5))
            assert V.kl_divergence(V.LatentDistribution(mu=mu, logvar=lv)).item() >= 0.0


def test_reparameterization_gradient_matches_finite_differences():
    g = np.random.default_rng(4)
    with float64_mode():
        mu = Tensor(g.standard_normal(5), requires_grad=True)
        lv = Tensor(g.uniform(-1, 1, 5), requires_grad=True)
        w = Tensor(g.standard_normal(5))

        def build():
            # a copy of g replays the same draw on every call
            z = V.reparameterize(V.LatentDistribution(mu=mu, logvar=lv), rng=copy.deepcopy(g))
            kl = V.kl_divergence(V.LatentDistribution(mu=mu, logvar=lv))
            return (z * w).sum() + kl

        report = finite_diff_check(build, {"mu": mu, "logvar": lv}, eps=1e-5, tol=1e-6)
    assert report.passed, report.summary()


# ---------------------------------------------------------------------------
# composition


def test_compose_instance_rows_come_first():
    inst = [Tensor(np.full((2, 4), 1.0 + i)) for i in range(2)]
    dom = [Tensor(np.full((3, 4), -1.0 - i)) for i in range(2)]
    out = V.compose_prompts(inst, dom)
    assert len(out) == 2
    for i, blocks in enumerate(out):
        assert len(blocks) == 2
        assert blocks[0] is inst[i] and blocks[1] is dom[i]


def test_compose_degenerate_splits():
    dom = [Tensor(np.ones((3, 4)))]
    out = V.compose_prompts(None, dom)
    assert len(out[0]) == 1 and out[0][0] is dom[0]

    inst = [Tensor(np.ones((3, 4)))]
    out2 = V.compose_prompts(inst, None)
    assert len(out2[0]) == 1 and out2[0][0] is inst[0]

    # no prompts at all: no layers to list
    assert V.compose_prompts(None, None) == []


def test_encode_width_mismatch():
    cfg = tiny_config()
    params = V.init_vae(cfg, SeededStreams(0))
    with pytest.raises(ShapeError):
        V.encode(Tensor(np.zeros((2, cfg.dim + 1))), params, cfg)
    with pytest.raises(ShapeError):
        V.decode(Tensor(np.zeros((2, cfg.latent_dim + 1))), params, cfg)
