"""The acceptance gate: ten properties, one printed verdict line each.

This file is heavier than the unit suites (one backbone pretrain, a 5-seed
method comparison, two 1000-step freeze runs); the whole thing takes a few
minutes on a laptop CPU. Run

    pytest tests/test_acceptance.py -v -s

to watch the verdict lines as they print. Every line states the measured
numbers next to the gate so a failure is self-describing.
"""

import dataclasses
import time
from types import SimpleNamespace

import numpy as np
import pytest

from v2apt.analysis import (
    compare_mean_similarity,
    cosine_similarity_map,
    export_map,
    model_similarity_map,
)
from v2apt.backbone import init_backbone
from v2apt.checkpoint import (
    load_checkpoint,
    restore_model,
    restore_optimizer,
    save_checkpoint,
    snapshot,
)
from v2apt.cli import main as cli_main
from v2apt.config import RunConfig, default_config, tiny_config
from v2apt.data import BUDGETS, generate, load_dataset, preset, save_dataset, split
from v2apt.gradcheck import full_model_check
from v2apt.model import PromptedClassifier
from v2apt.prompts import init_domain_prompts
from v2apt.rng import SeededStreams
from v2apt.tensor import Tensor
from v2apt.trainer import Trainer, evaluate
from v2apt.vae import LatentDistribution, kl_divergence, kl_monte_carlo


def verdict(n: int, ok: bool, detail: str) -> None:
    line = f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def fresh_tuning_model(cfg, seed: int) -> PromptedClassifier:
    model = PromptedClassifier.init(cfg, SeededStreams(seed))
    model.install_adapters(SeededStreams(seed))
    model.freeze()
    return model


@pytest.fixture(scope="session")
def transfer(tmp_path_factory):
    """shift-A pretrain plus the three shift-B tunes; shared by 6, 9, 10."""
    work = tmp_path_factory.mktemp("acceptance")
    cfg = default_config()
    src = generate(preset("shift-A"), 0)
    tgt = generate(preset("shift-B"), 0)
    pre = PromptedClassifier.init(cfg, SeededStreams(0))
    Trainer(pre, RunConfig(seed=0, batch_size=64, steps=BUDGETS["shift-A"]), src).train()
    train_ds, test_ds = split(tgt, 0.8, 0)

    def tune(**overrides):
        c = dataclasses.replace(cfg, **overrides)
        model = PromptedClassifier.from_pretrained(pre, c, SeededStreams(0))
        run = RunConfig(seed=0, batch_size=64, steps=BUDGETS["shift-B"])
        trainer = Trainer(model, run, train_ds)
        trainer.train()
        return model, run, trainer

    v2apt_model, v2apt_run, v2apt_trainer = tune()  # default split 4 + 4
    vpt_model, _, _ = tune(prompt_inst=0)
    head_model, _, _ = tune(prompt_len=0, prompt_inst=0)

    ckpt_path = work / "v2apt-shift-B.v2ap"
    data_path = work / "shift-B.v2ds"
    save_checkpoint(
        snapshot(v2apt_model, v2apt_run, v2apt_trainer.optimizer, v2apt_trainer.step),
        ckpt_path,
    )
    save_dataset(tgt, data_path)
    return SimpleNamespace(
        pre=pre, test=test_ds,
        v2apt=v2apt_model, vpt=vpt_model, head=head_model,
        ckpt=str(ckpt_path), data=str(data_path),
    )


def test_criterion_01_gradient_correctness():
    t0 = time.monotonic()
    report = full_model_check()
    elapsed = time.monotonic() - t0
    worst = max(p.max_rel_err for p in report.params.values())
    ok = report.passed and worst < 1e-4 and elapsed < 120
    verdict(1, ok, f"{len(report.params)} trainables, worst rel err {worst:.2e} < 1e-4, "
                   f"{elapsed:.1f}s < 120s")


def test_criterion_02_kl_oracle_equivalence():
    rng = np.random.default_rng(202)
    worst_gap = 0.0
    all_nonneg = True
    for i in range(100):
        mu = rng.normal(0.0, 1.5, size=4)
        logvar = rng.uniform(-3.0, 2.0, size=4)
        closed = kl_divergence(LatentDistribution(Tensor(mu), Tensor(logvar))).item()
        mc = kl_monte_carlo(mu, logvar, 1_000_000, seed=i)
        worst_gap = max(worst_gap, abs(closed - mc))
        all_nonneg &= closed >= 0.0
    z = np.zeros(4)
    at_prior = kl_divergence(LatentDistribution(Tensor(z), Tensor(z))).item()
    ok = worst_gap < 0.01 and all_nonneg and at_prior == 0.0
    verdict(2, ok, f"100 draws, worst |closed - MC(1e6)| = {worst_gap:.2e} < 0.01, "
                   f"KL >= 0 all, KL(0,0) = {at_prior}")


def test_criterion_03_freeze_contract():
    ds = generate(preset("easy-3"), 0)
    cfg3 = dataclasses.replace(default_config(), num_classes=3)
    intact = {}
    for label, overrides in (("v2apt", {}), ("vpt", {"prompt_inst": 0})):
        model = fresh_tuning_model(dataclasses.replace(cfg3, **overrides), seed=0)
        before = model.frozen_digest()
        Trainer(model, RunConfig(seed=0, batch_size=16, steps=1000), ds).train()
        intact[label] = model.frozen_digest() == before
    ok = all(intact.values())
    verdict(3, ok, f"frozen byte-hash unchanged after 1000 steps: "
                   f"v2apt={intact['v2apt']}, vpt={intact['vpt']}")


def test_criterion_04_token_parity():
    cfg = dataclasses.replace(tiny_config(), num_classes=3)
    images = SeededStreams(4).generator("imgs").random((3, 16, 16, 1))
    expected = 1 + cfg.prompt_len + cfg.num_patches
    layer_lengths = {}
    for inst in range(cfg.prompt_len + 1):  # every split of the budget k
        model = fresh_tuning_model(dataclasses.replace(cfg, prompt_inst=inst), seed=0)
        out = model.forward(images, capture_layers=tuple(range(cfg.depth)))
        layer_lengths[inst] = [
            1 + out.captures[l][0].shape[1] + out.captures[l][1].shape[1]
            for l in range(cfg.depth)
        ]
    baseline = layer_lengths[0]  # the static-prompt model with the full budget
    ok = all(
        lengths == baseline and all(n == expected for n in lengths)
        for lengths in layer_lengths.values()
    )
    verdict(4, ok, f"every layer input length == 1 + k + patches = {expected} "
                   f"for all {cfg.prompt_len + 1} budget splits")


def test_criterion_05_degenerate_equivalence():
    ds = generate(preset("easy-3"), 0)
    cfg = dataclasses.replace(tiny_config(), num_classes=3, prompt_inst=0)
    run = RunConfig(seed=0, batch_size=16, steps=60)

    via_flag = fresh_tuning_model(cfg, seed=0)  # the k_inst=0 degenerate path
    # the baseline built without the generator module ever running
    params = init_backbone(cfg, SeededStreams(0))
    params.update(init_domain_prompts(cfg, SeededStreams(0)))
    baseline = PromptedClassifier(cfg, params)
    baseline.freeze()

    h_flag = Trainer(via_flag, run, ds).train()
    h_base = Trainer(baseline, dataclasses.replace(run), ds).train()
    losses_equal = all(a.task_ce == b.task_ce for a, b in zip(h_flag, h_base))
    params_equal = all(
        via_flag.params[n].data.tobytes() == baseline.params[n].data.tobytes()
        for n in via_flag.params
    ) and sorted(via_flag.params) == sorted(baseline.params)
    no_generator = not via_flag.has_generator
    ok = losses_equal and params_equal and no_generator
    verdict(5, ok, f"k_inst=0 vs baseline over {len(h_flag)} steps: "
                   f"losses bit-equal={losses_equal}, params byte-equal={params_equal}, "
                   f"generator absent={no_generator}")


def test_criterion_06_learning_at_desk_scale(transfer):
    acc_v2 = evaluate(transfer.v2apt, transfer.test)
    acc_head = evaluate(transfer.head, transfer.test)
    ok = acc_v2 >= 0.90 and acc_head <= acc_v2 - 0.05
    verdict(6, ok, f"shift-B test acc: v2apt {acc_v2:.4f} >= 0.90, "
                   f"head-only {acc_head:.4f} <= {acc_v2 - 0.05:.4f} (gap >= 5 points)")


def test_criterion_07_directional_analogue(transfer):
    hard = generate(preset("shift-B-hard"), 0)
    train_ds, test_ds = split(hard, 0.8, 0)
    cfg = default_config()
    means = {}
    for method, overrides in (("v2apt", {}), ("vpt", {"prompt_inst": 0})):
        accs = []
        for seed in range(5):
            c = dataclasses.replace(cfg, **overrides)
            model = PromptedClassifier.from_pretrained(transfer.pre, c, SeededStreams(seed))
            run = RunConfig(seed=seed, batch_size=64, steps=BUDGETS["shift-B-hard"])
            Trainer(model, run, train_ds).train()
            accs.append(evaluate(model, test_ds))
        means[method] = float(np.mean(accs))
    ok = means["v2apt"] >= means["vpt"] - 0.005
    verdict(7, ok, f"shift-B-hard 5-seed means: v2apt {means['v2apt']:.4f}, "
                   f"vpt {means['vpt']:.4f} (gate: v2apt >= vpt - 0.005)")


def test_criterion_08_determinism_and_persistence(tmp_path):
    ds = generate(preset("easy-3"), 0)
    cfg = dataclasses.replace(tiny_config(), num_classes=3)
    run = RunConfig(seed=0, batch_size=16, steps=40)

    def run_once(until=None, model=None, trainer=None):
        if model is None:
            model = fresh_tuning_model(cfg, seed=0)
            trainer = Trainer(model, run, ds)
        trainer.train(until_step=until)
        return model, trainer

    m1, t1 = run_once()
    m2, t2 = run_once()
    metrics_equal = all(
        a.task_ce == b.task_ce and a.kl == b.kl for a, b in zip(t1.history, t2.history)
    )

    # interrupt at step 20, round-trip through a file, finish
    m3, t3 = run_once(until=20)
    mid = tmp_path / "mid.v2ap"
    save_checkpoint(snapshot(m3, run, t3.optimizer, t3.step), mid)
    ck = load_checkpoint(mid)
    m4, run4 = restore_model(ck)
    t4 = Trainer(m4, run4, ds, step=ck.step, optimizer=restore_optimizer(ck))
    t4.train()
    resumed_equal = all(
        a.task_ce == b.task_ce
        for a, b in zip(t1.history[20:], t4.history)
    )

    ds_path, ds_path2 = tmp_path / "a.v2ds", tmp_path / "b.v2ds"
    save_dataset(ds, ds_path)
    save_dataset(load_dataset(ds_path), ds_path2)
    ck_path2 = tmp_path / "mid2.v2ap"
    save_checkpoint(load_checkpoint(mid), ck_path2)
    roundtrip = (ds_path.read_bytes() == ds_path2.read_bytes()
                 and mid.read_bytes() == ck_path2.read_bytes())

    ok = metrics_equal and resumed_equal and roundtrip
    verdict(8, ok, f"same-seed metrics bit-equal={metrics_equal}, "
                   f"resume reproduces losses={resumed_equal}, formats round-trip={roundtrip}")


def test_criterion_09_eval_mode_reproducibility(transfer, capsys):
    argv = ["eval", "--ckpt", transfer.ckpt, "--data", transfer.data]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert cli_main(argv) == 0
    second = capsys.readouterr().out
    ok = first == second and first.startswith("accuracy ")
    verdict(9, ok, f"repeated eval prints identical output: {first.strip()!r}")


def test_criterion_10_similarity_map_contract(transfer, tmp_path):
    images = load_dataset(transfer.data).images
    maps = [
        model_similarity_map(transfer.v2apt, images, i, layer)
        for i in (0, 5, 11) for layer in (0, transfer.v2apt.cfg.depth - 1)
    ]
    bounded = all(np.all(np.abs(m.values) <= 1.0) for m in maps)

    rng = np.random.default_rng(10)
    prompts = rng.normal(size=(4, 8))
    feats = rng.normal(size=(6, 8))
    base = cosine_similarity_map(prompts, feats).values
    scaled = cosine_similarity_map(prompts * np.array([[3.0], [0.5], [10.0], [1.0]]), feats).values
    scale_invariant = np.allclose(base, scaled, atol=1e-12)

    stable = True
    for fmt in ("csv", "pgm"):
        p1, p2 = tmp_path / f"m1.{fmt}", tmp_path / f"m2.{fmt}"
        export_map(maps[0], p1, fmt)
        export_map(maps[0], p2, fmt)
        stable &= p1.read_bytes() == p2.read_bytes()

    comparison = compare_mean_similarity(
        transfer.v2apt, transfer.vpt, images, indices=list(range(8))
    )
    emitted = all(
        isinstance(v, float) and np.isfinite(v) and abs(v) <= 1.0
        for v in comparison.values()
    ) and set(comparison) == {"with_vae", "without_vae"}

    ok = bounded and scale_invariant and stable and emitted
    verdict(10, ok, f"entries bounded={bounded}, row scale-invariant={scale_invariant}, "
                    f"exports byte-stable={stable}; mean similarity with_vae "
                    f"{comparison['with_vae']:.4f} vs without_vae {comparison['without_vae']:.4f}")
