"""Trainer tests: loss arithmetic, hand-derived AdamW values, loop contracts."""

import numpy as np
import pytest

from v2apt import data as D
from v2apt import trainer as TR
from v2apt.config import ModelConfig, RunConfig, default_config, tiny_config
from v2apt.errors import ContractError, NumericError, ValidationError
from v2apt.model import PromptedClassifier
from v2apt.rng import SeededStreams
from v2apt.tensor import Tape, Tensor, float64_mode


def tiny_run(**kw) -> RunConfig:
    base = dict(seed=0, batch_size=8, steps=20, kl_beta=1e-3)
    base.update(kw)
    return RunConfig(**base)


def tiny_dataset(classes=3, per_class=16, seed=0) -> D.Dataset:
    return D.generate(D.TaskSpec(classes=classes, per_class=per_class, noise=0.05), seed=seed)


def tuned_model(cfg=None, seed=0) -> PromptedClassifier:
    streams = SeededStreams(seed)
    m = PromptedClassifier.init(cfg or tiny_config(), streams)
    m.install_adapters(streams)
    m.freeze()
    return m


# ---------------------------------------------------------------------------
# total_loss


def test_total_is_exactly_ce_plus_beta_kl():
    logits = Tensor(np.random.default_rng(0).standard_normal((4, 3)))
    labels = np.array([0, 1, 2, 1])
    kl = Tensor(0.5)
    total, parts = TR.total_loss(logits, labels, kl, beta=0.001)
    assert parts.total == parts.task_ce + 0.001 * parts.kl  # exact, not approx
    assert parts.kl == 0.5
    assert total.item() == pytest.approx(parts.total, rel=1e-6)


def test_total_without_kl_term_is_task_ce_identity():
    logits = Tensor(np.random.default_rng(0).standard_normal((4, 3)))
    labels = np.array([0, 1, 2, 1])
    total, parts = TR.total_loss(logits, labels, None, beta=0.5)
    assert parts.kl == 0.0
    assert total.item() == parts.task_ce == parts.total


def test_uniform_logits_loss_is_log_c():
    logits = Tensor(np.zeros((6, 10)))
    labels = np.arange(6)
    _, parts = TR.total_loss(logits, labels, None, beta=0.0)
    assert parts.task_ce == pytest.approx(np.log(10), rel=1e-6)


def test_stated_arithmetic_example():
    # task_ce 1.0, kl 0.5, beta 0.001 -> 1.0005
    with float64_mode():
        logits = Tensor(np.array([[0.0, np.log(np.e - 1.0)]]))  # ce at label 0 is exactly 1
        total, parts = TR.total_loss(logits, np.array([0]), Tensor(0.5), beta=0.001)
    assert parts.task_ce == pytest.approx(1.0, abs=1e-12)
    assert parts.total == pytest.approx(1.0005, abs=1e-12)


def test_nonfinite_loss_raises_numeric_error():
    logits = Tensor(np.array([[np.nan, 0.0]]))
    with pytest.raises(NumericError):
        TR.total_loss(logits, np.array([0]), None, beta=0.0)


# ---------------------------------------------------------------------------
# AdamW


def test_first_step_matches_hand_derived_value():
    with float64_mode():
        params = {"w": Tensor(np.zeros(1), requires_grad=True)}
        params["w"].grad = np.ones(1)
        opt = TR.AdamW(["w"], lr=1e-3, weight_decay=1e-4)
        opt.step(params)
        # m_hat = v_hat = 1 at t=1, theta was 0 so the decay term vanishes
        want = -1e-3 / (1.0 + 1e-8)
        assert params["w"].data[0] == pytest.approx(want, abs=1e-12)
        assert params["w"].data[0] == pytest.approx(-9.99999995e-4, abs=1e-11)


def test_pure_decay_with_zero_gradient():
    with float64_mode():
        params = {"w": Tensor(np.ones(1), requires_grad=True)}
        params["w"].grad = np.zeros(1)
        opt = TR.AdamW(["w"], lr=1e-3, weight_decay=1e-4)
        opt.step(params)
        assert params["w"].data[0] == pytest.approx(1.0 - 1e-7, abs=1e-15)


def test_no_decay_no_gradient_is_identity():
    with float64_mode():
        params = {"w": Tensor(np.full(3, 1.5), requires_grad=True)}
        params["w"].grad = np.zeros(3)
        opt = TR.AdamW(["w"], lr=1e-3, weight_decay=0.0)
        opt.step(params)
        np.testing.assert_array_equal(params["w"].data, np.full(3, 1.5))


def test_frozen_gradient_is_a_freeze_violation():
    params = {
        "w": Tensor(np.ones(1), requires_grad=True),
        "backbone.x": Tensor(np.ones(1)),
    }
    params["w"].grad = np.ones(1)
    params["backbone.x"].grad = np.ones(1)  # should never happen in training
    opt = TR.AdamW(["w"])
    with pytest.raises(ContractError, match="freeze violation"):
        opt.step(params)


def test_missing_gradient_rejected():
    params = {"w": Tensor(np.ones(1), requires_grad=True)}
    opt = TR.AdamW(["w"])
    with pytest.raises(ContractError, match="w"):
        opt.step(params)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gradient_names_parameter_and_step(bad):
    params = {
        "a": Tensor(np.ones(2), requires_grad=True),
        "b": Tensor(np.ones(2), requires_grad=True),
    }
    opt = TR.AdamW(["a", "b"])
    params["a"].grad = np.ones(2, dtype=np.float32)
    params["b"].grad = np.ones(2, dtype=np.float32)
    opt.step(params)
    before = {n: p.data.copy() for n, p in params.items()}
    params["a"].grad = np.ones(2, dtype=np.float32)
    params["b"].grad = np.array([0.0, bad], dtype=np.float32)
    with pytest.raises(NumericError, match=r"'b' at step 1"):
        opt.step(params)
    # nothing moved: the check runs before any update
    assert opt.t == 1
    for n, p in params.items():
        np.testing.assert_array_equal(p.data, before[n])


def test_moments_accumulate_across_steps():
    with float64_mode():
        params = {"w": Tensor(np.zeros(1), requires_grad=True)}
        opt = TR.AdamW(["w"], lr=1e-3, weight_decay=0.0)
        for g in (1.0, 1.0):
            params["w"].grad = np.array([g])
            opt.step(params)
        assert opt.t == 2
        assert opt.m["w"][0] == pytest.approx(0.9 * 0.1 + 0.1 * 1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# warmup


def test_warmup_is_linear_then_flat():
    run = tiny_run(steps=100, kl_beta=0.002)
    window = 10
    vals = [TR.warmup_beta(t, run) for t in range(30)]
    assert vals[0] == 0.0
    assert vals[5] == pytest.approx(0.001)
    assert vals[window] == 0.002  # exactly at the boundary
    assert all(b == 0.002 for b in vals[window:])
    assert all(b2 >= b1 for b1, b2 in zip(vals, vals[1:]))


def test_warmup_window_never_zero():
    run = tiny_run(steps=3, kl_beta=1.0)
    assert TR.warmup_beta(0, run) == 0.0
    assert TR.warmup_beta(1, run) == 1.0


# ---------------------------------------------------------------------------
# loop


def test_training_reduces_loss_and_is_deterministic():
    ds = tiny_dataset()

    def run_once():
        model = tuned_model()
        tr = TR.Trainer(model, tiny_run(), ds)
        return [m.task_ce for m in tr.train()]

    a = run_once()
    b = run_once()
    assert a == b  # bit-identical, not merely close
    assert np.mean(a[-5:]) < np.mean(a[:5])


def test_fully_trainable_default_step_peak_memory():
    # numpy reports its buffers to tracemalloc, so this peak repeats exactly;
    # it was 32.4 MB while every intermediate gradient lived until the tape
    # was dropped and each MLP kept its full GELU output beside its
    # pre-activation, and is 19.9 MB with both fixed
    import tracemalloc

    ds = D.generate(D.preset("shift-A"), seed=0)
    model = PromptedClassifier.init(default_config(), SeededStreams(0))
    trainer = TR.Trainer(model, RunConfig(seed=0, batch_size=64, steps=1), ds)
    tracemalloc.start()
    try:
        trainer.train_step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24e6, f"{peak / 1e6:.1f} MB"


def test_frozen_digest_unchanged_by_training():
    ds = tiny_dataset()
    model = tuned_model()
    digest = model.frozen_digest()
    TR.Trainer(model, tiny_run(steps=12), ds).train()
    assert model.frozen_digest() == digest


def test_trainable_parameters_change():
    ds = tiny_dataset()
    model = tuned_model()
    before = {n: p.data.copy() for n, p in model.trainables().items()}
    TR.Trainer(model, tiny_run(steps=6), ds).train()
    changed = [n for n, old in before.items() if not np.array_equal(old, model.params[n].data)]
    assert set(changed) == set(before)  # every trainable moved


def test_epoch_metrics_and_batch_addressing():
    ds = tiny_dataset(per_class=8)  # 24 samples, batch 8 -> 3 steps/epoch
    model = tuned_model()
    tr = TR.Trainer(model, tiny_run(steps=6), ds)
    assert tr.steps_per_epoch == 3
    epoch = tr.train(until_step=3)
    assert epoch[-1].step // tr.steps_per_epoch == 0 and tr.step == 3
    assert 0.0 <= epoch[-1].accuracy <= 1.0
    # same epoch cursor gives the same shuffle; different epoch differs
    i0 = tr._batch_at(0)[1].tolist()
    i0b = tr._batch_at(0)[1].tolist()
    i3 = tr._batch_at(3)[1].tolist()
    assert i0 == i0b
    assert i0 != i3 or tr.steps_per_epoch == 1


def test_batches_partition_each_epoch():
    ds = tiny_dataset(per_class=8)
    tr = TR.Trainer(tuned_model(), tiny_run(steps=3), ds)
    seen = np.concatenate([tr._batch_at(s)[1] for s in range(tr.steps_per_epoch)])
    assert len(seen) == tr.steps_per_epoch * tr.run.batch_size
    # a permutation never repeats a sample within one epoch
    images = np.concatenate([tr._batch_at(s)[0] for s in range(tr.steps_per_epoch)])
    flat = images.reshape(len(images), -1)
    assert len(np.unique(flat, axis=0)) > tr.run.batch_size  # crude: not one batch repeated


def test_evaluate_bounds_and_repeatability():
    ds = tiny_dataset()
    model = tuned_model()
    a = TR.evaluate(model, ds)
    b = TR.evaluate(model, ds)
    assert a == b
    assert 0.0 <= a <= 1.0


def test_evaluate_zero_head_predicts_class_zero():
    ds = tiny_dataset(classes=3, per_class=4)
    model = tuned_model()
    model.params["head.w"] = Tensor(np.zeros((model.cfg.dim, 3)), requires_grad=True)
    model.params["head.b"] = Tensor(np.zeros(3), requires_grad=True)
    acc = TR.evaluate(model, ds)
    assert acc == pytest.approx(float((ds.labels == 0).mean()))


def test_empty_dataset_rejected():
    ds = tiny_dataset()
    empty = D.Dataset(ds.images[:0], ds.labels[:0], ds.num_classes, 0)
    with pytest.raises(ValidationError):
        TR.evaluate(tuned_model(), empty)


def test_metrics_jsonl_roundtrip(tmp_path):
    import json

    ds = tiny_dataset()
    tr = TR.Trainer(tuned_model(), tiny_run(steps=4), ds)
    tr.train()
    path = tmp_path / "metrics.jsonl"
    tr.write_metrics(path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 4
    rec = json.loads(lines[0])
    assert set(rec) == {"step", "task_ce", "kl", "beta", "accuracy"}
    assert rec["step"] == 0


def test_kl_term_active_only_for_generator_models():
    ds = tiny_dataset()
    vpt_cfg = ModelConfig(**{**tiny_config().__dict__, "prompt_inst": 0})
    tr = TR.Trainer(tuned_model(vpt_cfg), tiny_run(steps=2), ds)
    metrics = tr.train()
    assert all(m.kl == 0.0 for m in metrics)
    tr2 = TR.Trainer(tuned_model(), tiny_run(steps=2), ds)
    metrics2 = tr2.train()
    assert any(m.kl > 0.0 for m in metrics2)


# ---------------------------------------------------------------------------
# reference-loop behavior on the separable preset


def test_easy3_frozen_tuning_reaches_95_within_300_steps():
    ds = D.generate(D.preset("easy-3"), 0)
    cfg = ModelConfig(**{**default_config().__dict__, "num_classes": 3})
    model = tuned_model(cfg, seed=0)
    TR.Trainer(model, RunConfig(seed=0, batch_size=64, steps=300), ds).train()
    assert TR.evaluate(model, ds) >= 0.95


def test_easy3_epoch_loss_strictly_decreases_three_epochs():
    # recorded seed set for this check: 0, 1, 2 (all verified)
    ds = D.generate(D.preset("easy-3"), 0)
    cfg = ModelConfig(**{**default_config().__dict__, "num_classes": 3})
    for seed in (0, 1, 2):
        model = tuned_model(cfg, seed=seed)
        tr = TR.Trainer(model, RunConfig(seed=seed, batch_size=64, steps=300), ds)
        per = tr.steps_per_epoch
        steps = tr.train(until_step=3 * per)
        totals = [np.mean([s.task_ce + s.beta * s.kl for s in steps[e * per:(e + 1) * per]])
                  for e in range(3)]
        assert totals[0] > totals[1] > totals[2], (seed, totals)
