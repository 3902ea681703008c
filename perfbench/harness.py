"""One measured run in a fresh interpreter; prints one JSON object on stdout.

Invoked by run.py as `python3 -I harness.py '<json config>'` with keys
root, workload, seed, seconds, mode and spans_path.  Modes:

- `setup`: import quivermut and set the workload up, then stop.
- `timed`: set up, then run whole passes until the timed ops add up to
  `seconds`; end-to-end numbers come from this mode only.
- `fixed`: run TRACE_PASSES passes untraced.
- `traced`: the same passes with every traced function rebound.

Every figure is taken from each pass position's fastest repeat, and the
run also reports the fastest of its `calibrate()` repeats, by which
run.py scales its times to a nominal host speed.  On a shared 2-vCPU host
the raw throughput of one run drifts by a fifth or more as neighbours
come and go, sometimes for a whole run; fastest repeats scaled by the
calibration moved by a few percent.

One process, one client, no threads: each op starts when the previous
one has been checked.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from inputs import EXAMPLE_ROWS, reference_apply, truncation_rings  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, GateError  # noqa: E402

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.99)
TAIL_MIN_BEYOND = 10
MIN_PASSES = 3
TRACE_PASSES = 3
CALIBRATION_REPEATS = 3


class Library:
    """The quivermut package and its four modules, imported from <root>/src."""

    def __init__(self, root: Path) -> None:
        src = (root / "src").resolve()
        sys.path.insert(0, str(src))
        self.package = importlib.import_module("quivermut")
        if not Path(self.package.__file__).resolve().is_relative_to(src):
            raise ImportError(f"quivermut was imported from {self.package.__file__}, not {src}")
        self.matrices = importlib.import_module("quivermut.matrices")
        self.seeds = importlib.import_module("quivermut.seeds")
        self.unfolding = importlib.import_module("quivermut.unfolding")
        self.cli = importlib.import_module("quivermut.cli")

    def namespaces(self) -> list:
        return [self.package, self.matrices, self.seeds, self.unfolding, self.cli]


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) at the highest ladder percentile with
    at least TAIL_MIN_BEYOND samples beyond it, by nearest rank.

    With too few samples for any rung, the median is returned with its count.
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= TAIL_MIN_BEYOND or best is None:
            best = (p, ordered[rank - 1], n - rank)
    return best


def calibrate() -> float:
    """Seconds taken by a fixed computation of the library's kind: dense integer
    mutation (the benchmark's own reference kernel) and copying nested dicts.

    Its fastest repeat in a run measures how fast the host ran that run, so
    run.py can scale the run's times to a nominal host speed.
    """
    start = time.perf_counter()
    reference_apply(EXAMPLE_ROWS, (1, 2, 3, 4) * 40)
    nested = {i: {i + 1: i} for i in range(2000)}
    for _ in range(8):
        nested = {key: dict(value) for key, value in nested.items()}
    return time.perf_counter() - start


def digest(result) -> str:
    return hashlib.sha256(repr(result).encode()).hexdigest()[:16]


def execute(workload, passes_limit: int | None, seconds: float, tracer: Tracer | None) -> dict:
    """Run whole passes, timing and checking every op.

    Stops after `passes_limit` passes, or else once at least MIN_PASSES
    passes ran and the timed ops add up to `seconds`.  An op that raises,
    whose output fails its check, or whose repeat gives a different digest
    counts as failed; so does an op that fails exactly as the known CLI
    defect predicts, which alone leaves the run correct.
    """
    best: list[float] = []
    kinds: list[str] = []  # per op run, so a span's op id finds its kind
    digests: list[str] = []
    first_digest: dict = {}
    attempted = failed = expected_failures = 0
    problems: list[str] = []
    timed = 0.0
    passes = 0
    calibration = math.inf
    for ops in workload.passes():
        calibration = min(calibration, *(calibrate() for _ in range(CALIBRATION_REPEATS)))
        for position, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = attempted
            start = time.perf_counter()
            try:
                result = op.run()
                error = None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                error = exc
            elapsed = time.perf_counter() - start
            attempted += 1
            timed += elapsed
            kinds.append(op.kind)
            if passes == 0:
                best.append(elapsed)
            else:
                best[position] = min(best[position], elapsed)
            key = digest(result) if error is None else f"raised {type(error).__name__}"
            digests.append(key)
            try:
                if error is not None:
                    raise GateError(f"raised {type(error).__name__}: {error}")
                if first_digest.setdefault(op, key) != key:
                    raise GateError("repeat gave a different output")
                if op.check(result):
                    expected_failures += 1
                    failed += 1
            except Exception as exc:  # a check that cannot run is also a failure
                failed += 1
                if len(problems) < 20:
                    problems.append(f"op {attempted - 1} ({op.kind}): {exc}")
        passes += 1
        if passes == passes_limit or (
                passes_limit is None and passes >= MIN_PASSES and timed >= seconds):
            break
    return {
        "best": best, "kinds": kinds, "digests": digests, "timed_s": timed, "passes": passes,
        "attempted": attempted, "failed": failed, "expected_failures": expected_failures,
        "problems": problems, "calibration_s": calibration,
    }


def summarize(outcome: dict) -> dict:
    """End-to-end figures from each position's fastest repeat."""
    best = outcome["best"]
    percentile, tail, beyond = tail_percentile(best)
    return {
        "ops_per_s": len(best) / sum(best),
        "op_p50_ms": 1000 * statistics.median(best),
        "op_tail_ms": 1000 * tail,
        "tail_percentile": percentile,
        "tail_beyond": beyond,
        "pass_ops": len(best),
        "best_pass_s": sum(best),
        "raw_ops_per_s": outcome["attempted"] / outcome["timed_s"],
        "calibration_s": outcome["calibration_s"],
    }


def output_hash(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()[:16]


def main(config: dict) -> dict:
    start = time.perf_counter()
    root = Path(config["root"])
    lib = Library(root)
    workdir = root / ".perfbench-work" / f"{config['workload']}-{config['mode']}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[config["workload"]](lib, config["seed"], workdir)
        report = {"setup_s": time.perf_counter() - start}
        if config["mode"] == "setup":
            report["calibration_s"] = min(calibrate() for _ in range(CALIBRATION_REPEATS))
            return report
        tracer = Tracer() if config["mode"] == "traced" else None
        limit = None if config["mode"] == "timed" else TRACE_PASSES
        if tracer is None:
            outcome = execute(workload, limit, config["seconds"], None)
        else:
            with tracer.installed(lib):
                outcome = execute(workload, limit, config["seconds"], tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.update(
        attempted=outcome["attempted"],
        failed=outcome["failed"],
        expected_failures=outcome["expected_failures"],
        problems=outcome["problems"],
        passes=outcome["passes"],
        timed_s=outcome["timed_s"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        output_sha256=output_hash(outcome["digests"][:len(outcome["best"])]),
        digests=outcome["digests"],
        **summarize(outcome),
    )
    if tracer is not None:
        report["per_layer"] = tracer.layer_metrics(outcome["kinds"])
        report["truncations"] = check_rings(tracer, report["problems"])
        report["failed"] += sum(1 for t in report["truncations"] if not t["as_predicted"])
        tracer.write_spans(config["spans_path"])
        report["spans"] = len(tracer.starts)
    return report


def check_rings(tracer: Tracer, problems: list[str]) -> list[dict]:
    """Compare every truncation's depth rings with the independent prediction."""
    table = []
    for (entries, m, framed), seen in sorted(tracer.rings.items()):
        predicted = truncation_rings(entries, m, framed)[0]
        ok = seen == {predicted}
        if not ok:
            problems.append(f"truncation n={len(entries)} m={m}: rings {seen} != {predicted}")
        table.append({"n": len(entries), "m": m, "framed": framed, "vertices": sum(predicted),
                      "rings": list(predicted), "as_predicted": ok})
    return table


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
