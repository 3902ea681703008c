"""quivermut benchmark: `python3 perfbench/run.py --workload W --seed N --seconds S --trace T`.

Workloads are `search`, `replay` and `oneshot` (see workloads.py): one
client in one process, closed loop.  Every measured run happens in a
fresh interpreter started from here (harness.py), one at a time, so
library caches never carry from one run to the next and peak memory
belongs to that run alone.

--trace 0 sets the workload up SETUP_RUNS times (the last time in the
measured run itself) and reports the end-to-end metrics:

- setup_s: median set-up time (import quivermut, build inputs, write files);
- ops_per_s: ops in one pass over the sum of their fastest repeats;
- op_p50_ms: median over pass positions of the fastest repeat;
- op_tail_ms: the same at the highest percentile with at least 10
  positions beyond it (printed with its percentile and count);
- peak_rss_mb: peak resident memory of the measured interpreter.

Times are scaled by NOMINAL_CALIBRATION_S over the run's own fastest
calibration (see harness.py), so they read as on the host at full speed;
the measured values are printed beside them.

--trace 1 runs TRACE_PASSES passes twice, untraced and traced, and
reports the per-layer metrics, the tracing overhead and whether both
runs produced the same outputs.  Spans go to .perfbench-out/.

Human-readable details go to stdout first; the last line is one JSON
object with keys correct, attempted, failed and metrics.  `correct` is
false when any op failed other than as the known int/str digit-limit
defect predicts.  Without quivermut sources the command exits with 2.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 9
DEADLINE_S = 170
# harness.calibrate() takes this long on the reference host in its fast state.
NOMINAL_CALIBRATION_S = 0.0046


def child(config: dict, deadline: float) -> dict:
    """Run harness.py in a fresh isolated interpreter and return its report."""
    proc = subprocess.run(
        [sys.executable, "-I", str(HERE / "harness.py"), json.dumps(config)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{config['mode']} run exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def speed(report: dict) -> float:
    """Factor that converts the run's measured times to the nominal host speed."""
    return NOMINAL_CALIBRATION_S / report["calibration_s"]


def untraced(config: dict, deadline: float) -> tuple[dict, dict]:
    runs = [child({**config, "mode": "setup"}, deadline) for _ in range(SETUP_RUNS - 1)]
    report = child({**config, "mode": "timed"}, deadline)
    runs.append(report)
    setups = [run["setup_s"] * speed(run) for run in runs]
    scale = speed(report)
    measured = ", ".join(f"{run['setup_s']:.4f}" for run in runs)
    print(f"setup_s runs: {', '.join(f'{s:.4f}' for s in setups)} (measured {measured})")
    print(f"calibration {1000 * report['calibration_s']:.3f} ms against "
          f"{1000 * NOMINAL_CALIBRATION_S:g} ms nominal: times scaled by {scale:.4f}")
    print(f"ops: {report['attempted']} in {report['passes']} passes of {report['pass_ops']}, "
          f"{report['timed_s']:.3f} s timed ({report['raw_ops_per_s']:.2f} ops/s raw); "
          f"fastest repeats add up to {report['best_pass_s']:.4f} s per pass")
    print(f"op_tail_ms is p{report['tail_percentile']:g} of the {report['pass_ops']} "
          f"positions' fastest repeats, with {report['tail_beyond']} beyond it")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (report["ops_per_s"] / scale, "1/s"),
        "op_p50_ms": (report["op_p50_ms"] * scale, "ms"),
        "op_tail_ms": (report["op_tail_ms"] * scale, "ms"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    return report, metrics


def traced(config: dict, deadline: float) -> tuple[dict, dict]:
    plain = child({**config, "mode": "fixed"}, deadline)
    report = child({**config, "mode": "traced"}, deadline)
    mismatches = sum(a != b for a, b in zip(plain["digests"], report["digests"]))
    mismatches += abs(len(plain["digests"]) - len(report["digests"]))
    if mismatches:
        report["problems"].append(f"{mismatches} outputs differ between untraced and traced runs")
        report["failed"] += mismatches
    metrics = dict(report["per_layer"])
    overhead = (report["best_pass_s"] * speed(report)) / (plain["best_pass_s"] * speed(plain))
    metrics["trace.overhead_frac"] = (overhead - 1, "frac")
    print(f"ops: {report['attempted']} in {report['passes']} passes; fastest repeats add up to "
          f"{plain['best_pass_s']:.4f} s untraced and {report['best_pass_s']:.4f} s traced; "
          f"{report['spans']} spans written to {config['spans_path']}")
    for t in report["truncations"]:
        print(f"truncation n={t['n']} m={t['m']} framed={t['framed']}: {t['vertices']} vertices, "
              f"rings {t['rings']}{'' if t['as_predicted'] else ' (NOT as predicted)'}")
    return report, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("search", "replay", "oneshot"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "quivermut" / "__init__.py").is_file():
        print(f"error: no quivermut sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    config = {
        "root": str(ROOT), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds,
        "spans_path": str(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv"),
    }
    try:
        report, metrics = (traced if args.trace else untraced)(config, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / ".perfbench-work", ignore_errors=True)
    print(f"{args.workload} seed {args.seed}: ops_attempted {report['attempted']}, "
          f"ops_failed {report['failed']} ({report['expected_failures']} from the known "
          f"int/str digit-limit defect), output_sha256 {report['output_sha256']}")
    for problem in report["problems"]:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": report["failed"] == report["expected_failures"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
