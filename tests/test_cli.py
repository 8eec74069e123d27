"""End-to-end checks of the command-line surface.

Everything runs in-process through `cli.main` so we can assert on exit codes
and captured output without subprocess overhead; one test exercises the real
`python -m` entry point.
"""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from v2apt.checkpoint import load_checkpoint, save_checkpoint
from v2apt.cli import main
from v2apt.config import RunConfig, config_to_text, tiny_config


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One shared pipeline: dataset, config, pretrained and tuned checkpoints."""
    d = tmp_path_factory.mktemp("cli")
    cfg = dataclasses.replace(tiny_config(), num_classes=3)
    run = RunConfig(batch_size=16, steps=24, train_frac=0.75)
    (d / "cfg.txt").write_text(config_to_text(cfg, run))
    assert main(["gen-data", "--preset", "easy-3", "--seed", "7",
                 "--out", str(d / "easy.v2ds")]) == 0
    assert main(["pretrain", "--config", str(d / "cfg.txt"),
                 "--data", str(d / "easy.v2ds"), "--out", str(d / "pre.v2ap")]) == 0
    assert main(["tune", "--config", str(d / "cfg.txt"),
                 "--backbone-ckpt", str(d / "pre.v2ap"), "--data", str(d / "easy.v2ds"),
                 "--method", "v2apt", "--out", str(d / "tuned.v2ap")]) == 0
    return d


def test_pipeline_artifacts_exist(workdir):
    for name in ("easy.v2ds", "pre.v2ap", "tuned.v2ap",
                 "pre.v2ap.metrics.jsonl", "tuned.v2ap.metrics.jsonl"):
        assert (workdir / name).exists(), name


def test_metrics_lines_are_json_with_contiguous_steps(workdir):
    lines = (workdir / "tuned.v2ap.metrics.jsonl").read_text().splitlines()
    records = [json.loads(ln) for ln in lines]
    assert [r["step"] for r in records] == list(range(len(records)))
    assert all("task_ce" in r and "beta" in r for r in records)


def test_eval_prints_identical_accuracy_twice(workdir, capsys):
    argv = ["eval", "--ckpt", str(workdir / "tuned.v2ap"), "--data", str(workdir / "easy.v2ds")]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("accuracy ")


def test_tune_reruns_are_byte_identical(workdir, tmp_path):
    base = ["tune", "--config", str(workdir / "cfg.txt"),
            "--backbone-ckpt", str(workdir / "pre.v2ap"),
            "--data", str(workdir / "easy.v2ds"), "--steps", "8"]
    assert main(base + ["--method", "v2apt", "--out", str(tmp_path / "a.v2ap")]) == 0
    assert main(base + ["--method", "v2apt", "--out", str(tmp_path / "b.v2ap")]) == 0
    assert (tmp_path / "a.v2ap").read_bytes() == (tmp_path / "b.v2ap").read_bytes()


def test_vpt_flag_equals_zero_instance_config(workdir, tmp_path):
    # --method vpt just pins prompt_inst = 0, so an explicit zero-instance
    # config trained under --method v2apt must produce the same bytes
    cfg = dataclasses.replace(tiny_config(), num_classes=3, prompt_inst=0)
    run = RunConfig(batch_size=16, steps=8, train_frac=0.75)
    (tmp_path / "zero.txt").write_text(config_to_text(cfg, run))
    common = ["--backbone-ckpt", str(workdir / "pre.v2ap"), "--data", str(workdir / "easy.v2ds")]
    assert main(["tune", "--config", str(workdir / "cfg.txt"), "--steps", "8",
                 "--method", "vpt", "--out", str(tmp_path / "vpt.v2ap")] + common) == 0
    assert main(["tune", "--config", str(tmp_path / "zero.txt"),
                 "--method", "v2apt", "--out", str(tmp_path / "zero.v2ap")] + common) == 0
    assert (tmp_path / "vpt.v2ap").read_bytes() == (tmp_path / "zero.v2ap").read_bytes()


def test_simmap_csv_and_pgm(workdir, tmp_path):
    common = ["simmap", "--ckpt", str(workdir / "tuned.v2ap"),
              "--data", str(workdir / "easy.v2ds"), "--index", "3"]
    assert main(common + ["--out", str(tmp_path / "m.csv")]) == 0
    assert main(common + ["--out", str(tmp_path / "m.pgm"), "--format", "pgm"]) == 0
    with open(tmp_path / "m.csv") as f:
        assert f.readline().strip() == ",".join(str(j) for j in range(16))
    raw = (tmp_path / "m.pgm").read_bytes()
    assert raw.startswith(b"P5\n16 4\n255\n")
    assert len(raw) == len(b"P5\n16 4\n255\n") + 16 * 4


def test_unknown_preset_exits_2_and_lists_names(capsys, tmp_path):
    rc = main(["gen-data", "--preset", "nope", "--out", str(tmp_path / "x.v2ds")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "easy-3" in err and "shift-B-hard" in err


@pytest.mark.parametrize("seed", ["-1", str(2**32), "8589934592"])
def test_out_of_range_seed_exits_2(capsys, tmp_path, seed):
    out = tmp_path / "x.v2ds"
    rc = main(["gen-data", "--preset", "easy-3", "--seed", seed, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: seed must be in [0, 2**32)")
    assert "Traceback" not in err
    assert not out.exists()


def test_missing_data_file_exits_3(workdir, tmp_path):
    rc = main(["eval", "--ckpt", str(workdir / "tuned.v2ap"), "--data", str(tmp_path / "no.v2ds")])
    assert rc == 3


def test_checkpoint_with_nan_parameter_exits_3(workdir, tmp_path, capsys):
    ck = load_checkpoint(workdir / "tuned.v2ap")
    ck.tensors["prompts.1"][0, 0] = np.nan
    save_checkpoint(ck, tmp_path / "nan.v2ap")
    capsys.readouterr()
    rc = main(["eval", "--ckpt", str(tmp_path / "nan.v2ap"), "--data", str(workdir / "easy.v2ds")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "non-finite value in tensor 'prompts.1'" in err
    assert "Traceback" not in err


def test_dataset_passed_as_checkpoint_exits_3(workdir, tmp_path):
    rc = main(["tune", "--config", str(workdir / "cfg.txt"),
               "--backbone-ckpt", str(workdir / "easy.v2ds"),
               "--data", str(workdir / "easy.v2ds"),
               "--method", "vpt", "--out", str(tmp_path / "t.v2ap")])
    assert rc == 3


def test_class_count_mismatch_exits_2(workdir, tmp_path):
    # default config expects 4 classes; easy-3 has 3
    rc = main(["pretrain", "--data", str(workdir / "easy.v2ds"),
               "--out", str(tmp_path / "p.v2ap"), "--steps", "1"])
    assert rc == 2


def test_unwritable_output_exits_3(workdir, tmp_path):
    rc = main(["gen-data", "--preset", "easy-3",
               "--out", str(tmp_path / "no_such_dir" / "x.v2ds")])
    assert rc == 3


def test_bad_simmap_index_exits_2(workdir, tmp_path):
    rc = main(["simmap", "--ckpt", str(workdir / "tuned.v2ap"),
               "--data", str(workdir / "easy.v2ds"),
               "--index", "100000", "--out", str(tmp_path / "m.csv")])
    assert rc == 2


def test_gradcheck_subcommand_passes(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "all gradients verified" in out


def test_argparse_rejects_unknown_method(workdir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["tune", "--config", str(workdir / "cfg.txt"),
              "--backbone-ckpt", str(workdir / "pre.v2ap"),
              "--data", str(workdir / "easy.v2ds"),
              "--method", "adapter", "--out", str(tmp_path / "t.v2ap")])
    assert exc.value.code == 2


def test_module_entry_point_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "v2apt", "gen-data", "--preset", "easy-3",
         "--seed", "1", "--out", str(tmp_path / "d.v2ds")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "wrote" in proc.stdout
    assert (tmp_path / "d.v2ds").exists()


def test_easy3_pretrain_hits_95_within_preset_budget(tmp_path, capsys):
    from v2apt.config import default_config
    from v2apt.data import BUDGETS

    cfg = dataclasses.replace(default_config(), num_classes=3)
    run = RunConfig(seed=0, batch_size=64, steps=BUDGETS["easy-3"])
    (tmp_path / "full3.txt").write_text(config_to_text(cfg, run))
    assert main(["gen-data", "--preset", "easy-3", "--out", str(tmp_path / "d.v2ds")]) == 0
    assert main(["pretrain", "--config", str(tmp_path / "full3.txt"),
                 "--data", str(tmp_path / "d.v2ds"), "--out", str(tmp_path / "p.v2ap")]) == 0
    out = capsys.readouterr().out
    acc = float(out.split("train accuracy")[1].split()[0])
    assert acc >= 0.95


@pytest.mark.skipif(sys.platform != "linux", reason="mallopt is glibc's")
def test_main_pins_heap_so_chunk_sized_temporaries_are_reused(tmp_path):
    # a fresh process, so no earlier large free has moved glibc's thresholds
    code = f"""
import resource, numpy as np
from v2apt.cli import main
assert main(["gen-data", "--preset", "easy-3", "--out", {str(tmp_path / "d.v2ds")!r}]) == 0
n = 256 * 17 * 192  # one 256-image chunk's MLP activation, float32
np.ones(n, dtype=np.float32)  # the first use may grow the heap
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    np.ones(n, dtype=np.float32)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # mapped afresh, each array would fault in its 816 pages again
    assert int(proc.stdout.split()[-1]) < 100
