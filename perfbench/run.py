"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload tune-v2apt-B --seed 3 --seconds 30 --trace 0

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones declared in BENCHMARK.json; with `--trace 1` the per-layer
ones, from a run whose calls alternate between untraced and traced with the
detail probes installed. The line before it records the environment. Spans
of a traced run go to `.perfbench/spans-<workload>-seed<seed>.jsonl` under
the checkout root.

The program is imported from `src/` next to this directory, never from an
installed copy; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _pin_blas_threads() -> None:
    """Fix the BLAS pool before numpy loads: at most two threads, never more than nproc."""
    threads = str(min(2, _nproc()))
    for var in BLAS_VARS:
        os.environ[var] = threads


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import v2apt
    except ImportError as e:
        print(f"error: cannot import v2apt from {ROOT / 'src'}: {e}", file=sys.stderr)
        raise SystemExit(2) from None
    if Path(v2apt.__file__).resolve().parent != ROOT / "src" / "v2apt":
        print(f"error: v2apt resolved to {v2apt.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args) -> dict:
    import numpy
    import scipy
    return {
        "commit": _git_commit(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "nproc": _nproc(),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run the workload; return the result object (without the environment)."""
    # imported here, after _pin_blas_threads, because they load numpy
    from probes import Tracer
    from workloads import UNITS, Checks, SetupError, end_to_end, per_layer, prepare, quiet, unit_durations

    checks = Checks()
    tracer = Tracer(f"{workload}-seed{seed}-pid{os.getpid()}", UNITS[workload])
    try:
        argv, check = prepare(workload, work, seed, checks, tracer)
    except SetupError as e:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}, "errors": [str(e)]}

    calls: list[tuple[int, int]] = []

    def one_call() -> float:
        lo = len(tracer.spans)
        rc, text = quiet(tracer.call, argv)
        check(rc, text)
        calls.append((lo, len(tracer.spans)))
        return tracer.spans[lo][2] - tracer.spans[lo][1]

    total = 0
    tracer.install_base()
    try:
        # calls are fixed-size; their number is set from the first so a run lasts about `seconds`
        total = max(2 if trace else 1, round(seconds / one_call()))
        while len(calls) < total:
            # a traced run alternates untraced and traced calls, so both meet the same machine
            if trace and len(calls) % 2:
                tracer.install_detail()
                one_call()
                tracer.remove_detail()
            else:
                one_call()
    except Exception as e:  # the program raised instead of returning an exit code
        checks.expect(False, f"{type(e).__name__}: {e}")
    finally:
        tracer.uninstall()

    spans = tracer.spans
    ops = sum(s[0] in ("trainer.step", "checkpoint.save") or
              (s[0] == "model.forward" and spans[s[3]][0] == "model.predict") for s in spans)
    failed = len(checks.failures)
    metrics = {}
    if calls and len(calls) == total:
        if trace:
            untraced_ms = [d * 1e3 for lo, hi in calls[0::2] for d in unit_durations(spans, lo, hi)]
            metrics = per_layer(tracer, calls[1::2], statistics.median(untraced_ms))
            tracer.write_spans(str(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"))
        else:
            metrics = end_to_end(tracer, calls)
    return {"correct": failed == 0, "attempted": max(ops, failed), "failed": failed,
            "metrics": metrics, "errors": checks.failures}


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    _pin_blas_threads()
    _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as work:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), Path(work))

    errors = result.pop("errors")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    computed = result["metrics"]
    if result["correct"] and set(computed) != set(declared):
        raise SystemExit(f"error: metrics {sorted(set(computed) ^ set(declared))} "
                         "are declared in BENCHMARK.json but not computed, or the reverse")
    result["metrics"] = {name: {"value": computed[name], "unit": unit}
                         for name, unit in declared.items() if name in computed}
    env = _environment(args)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"result-{tag}.json", "w", encoding="utf-8") as f:
        json.dump({"environment": env, "errors": errors, **result}, f, indent=1, sort_keys=True)
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
