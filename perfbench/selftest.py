"""Self-test of the benchmark at a tiny length (a few minutes on two cores).

    python3 perfbench/selftest.py

For each workload it makes two traced runs and one untraced run on the same
seed, then asserts that:

- every run is correct and prints exactly the metrics BENCHMARK.json
  declares for its mode, each with its declared unit;
- every count (tape records, discarded gradients, prompt records,
  checkpoint bytes) repeats exactly between the two traced runs;
- the span self times inside a unit sum to the traced unit time within the
  measured tracing overhead.

Last, it runs the benchmark in a directory holding only BENCHMARK.json and
this directory, where it must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = ("tensor.records", "tensor.discarded_grads_per_step", "prompts.records_per_step",
          "checkpoint.bytes")
SEED = 7


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result(workload: str, trace: int, declared: dict[str, str]) -> dict[str, float]:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, sorted(out)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, out
    metrics = out["metrics"]
    assert list(metrics) == list(declared), f"{workload}: emitted names differ from declared"
    for name, m in metrics.items():
        assert m["unit"] == declared[name], f"{workload}: {name} unit {m['unit']!r}"
        assert isinstance(m["value"], (int, float)), f"{workload}: {name} value {m['value']!r}"
    return {name: m["value"] for name, m in metrics.items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for workload in workloads:
        e2e = result(workload, 0, end_to_end)
        assert all(v > 0 for v in e2e.values()), f"{workload}: zero end-to-end metric in {e2e}"
        first, second = (result(workload, 1, per_layer) for _ in range(2))
        for name in per_layer:
            if name.startswith(COUNTS):
                assert first[name] == second[name], f"{workload}: {name} {first[name]} != {second[name]}"
        gap = abs(first["trace.self_sum_ms"] - first["trace.step_ms.p50"])
        assert gap <= abs(first["trace.overhead_ms"]) + 1e-6, f"{workload}: self times miss {gap} ms"
        print(f"ok {workload}: {len(e2e)} end-to-end and {len(first)} per-layer metrics, "
              f"{first['tensor.records_per_step']:g} records per unit, "
              f"tracing overhead {first['trace.overhead_ms']:.2f} ms per unit")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(bare, workloads[0], 0)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok without the program: exit", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
