"""Spans around quivermut's public functions, recorded from outside the library.

`Tracer.installed(lib)` wraps the functions in TRACED and rebinds every
name that holds one of them in the quivermut package and its four
modules, so library-internal calls (mutate_framed -> mutate,
orbit_mutate -> check_gamma_conditions, verify_unfolding_commutation ->
build_truncation / folding) are caught too.  The original bindings are
restored on exit.  Spans live in flat arrays until the run ends.

Counting hooks run in spans of their own (HOOK), outside the function's
span, so their cost is subtracted from the caller's self time as well.

Which end-to-end metric each per-layer metric should move, and where it
should stay flat (written before anything was measured):

    per-layer metric                                should move              flat on
    matrices.mutate.*, seeds.mutate_framed.*        ops_per_s on search      replay
    check_total_mutability / check_sign_coherence / ops_per_s, op_tail_ms   replay, oneshot
      brute_force_green_search .self_s (search      on search
      bookkeeping outside the kernel)
    unfolding.orbit_mutate.{calls,self_s,           ops_per_s, op_tail_ms    search
      vertices_in}, check_gamma_conditions.*        on replay
    unfolding.orbit_mutate.useful_target_frac       upper bound on the       -
      (label-k targets at depth <= interior + 1     saving of a trusted-ball
      over all targets; base printed beside it)     replay on replay
    unfolding.build_truncation.{calls,self_s,       op_p50_ms on oneshot;    ops_per_s on
      vertices}                                     peak_rss_mb on replay    replay
    unfolding.folding / verify_unfolding_           replay                   search
      commutation .self_s
    cli.main.self_s, matrices.parse_matrix.self_s,  op_p50_ms on oneshot     search, replay
      unfolding.to_dot.self_s, cli.<sub>.p50_ms
    seeds.max_entry_bits                            none: must repeat        -
                                                    exactly per seed
"""

from __future__ import annotations

import contextlib
import statistics
from array import array
from collections import Counter
from time import perf_counter

TRACED = (
    ("matrices", ("mutate", "check_total_mutability", "parse_matrix")),
    ("seeds", ("mutate_framed", "check_sign_coherence", "brute_force_green_search")),
    ("unfolding", ("build_truncation", "orbit_mutate", "check_gamma_conditions", "folding",
                   "verify_unfolding_commutation", "to_dot")),
    ("cli", ("main",)),
)
SPAN_NAMES = tuple(f"{module}.{fn}" for module, fns in TRACED for fn in fns)
HOOK = "perfbench.hook"
CLI_SUBCOMMANDS = ("classify", "mutate", "mgs", "coherence", "total-mutability", "unfold",
                   "verify-unfolding")


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(starts)
    for i, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += ends[i] - starts[i]
    return [ends[i] - starts[i] - covered[i] for i in range(len(starts))]


class Tracer:
    def __init__(self) -> None:
        self.names = [HOOK, *SPAN_NAMES]
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.span_op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.max_entry_bits = 0
        # (entries, m, framed) -> vertices per depth ring of each returned truncation
        self.rings: dict[tuple, set[tuple[int, ...]]] = {}

    def open(self, name_id: int) -> int:
        index = len(self.starts)
        self.span_name.append(name_id)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op_id)
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        tracer = self
        name_id = self.name_ids[name]
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            if before is not None:
                hook = tracer.open(0)
                try:
                    before(*args, **kwargs)
                finally:
                    tracer.close(hook)
            index = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                hook = tracer.open(0)
                try:
                    after(result, *args, **kwargs)
                finally:
                    tracer.close(hook)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, lib):
        """Rebind the traced functions in every quivermut namespace; restore on exit."""
        wrappers = {}
        for module, fns in TRACED:
            for fn_name in fns:
                fn = getattr(getattr(lib, module), fn_name)
                wrappers[id(fn)] = (fn, self.wrap(f"{module}.{fn_name}", fn))
        rebound = []
        for namespace in lib.namespaces():
            for attr, value in list(vars(namespace).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(namespace, attr, entry[1])
                    rebound.append((namespace, attr, value))
        try:
            yield rebound
        finally:
            for namespace, attr, value in rebound:
                setattr(namespace, attr, value)

    # ------------------------------------------------------------- counting hooks

    def _before_unfolding_orbit_mutate(self, quiver, k, *args, **kwargs) -> None:
        self.counts["unfolding.orbit_mutate.vertices_in"] += quiver.vertex_count
        targets = quiver.mutable_ids(k)
        self.counts["unfolding.orbit_mutate.targets"] += len(targets)
        if quiver.interior_radius is None:
            useful = len(targets)
        else:
            limit = quiver.interior_radius + 1
            useful = sum(1 for t in targets if quiver.depths[t] <= limit)
        self.counts["unfolding.orbit_mutate.useful_targets"] += useful

    def _after_unfolding_build_truncation(self, quiver, matrix, m, framed=True) -> None:
        self.counts["unfolding.build_truncation.vertices"] += quiver.vertex_count
        depth_counts = Counter(quiver.depths)
        rings = tuple(depth_counts[d] for d in range(max(depth_counts) + 1))
        self.rings.setdefault((matrix.entries, m, framed), set()).add(rings)

    def _after_seeds_mutate_framed(self, seed, *args, **kwargs) -> None:
        bits = max(abs(x).bit_length() for rows in (seed.b.entries, seed.c)
                   for row in rows for x in row)
        self.max_entry_bits = max(self.max_entry_bits, bits)

    # --------------------------------------------------------------- aggregation

    def layer_metrics(self, op_kinds: list[str]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: calls and self time per span name, plus the counters."""
        own = self_times(self.starts, self.ends, self.parents)
        calls: Counter = Counter()
        self_s: Counter = Counter()
        cli_ms: dict[str, list[float]] = {sub: [] for sub in CLI_SUBCOMMANDS}
        cli_main = self.name_ids["cli.main"]
        for i, name_id in enumerate(self.span_name):
            calls[name_id] += 1
            self_s[name_id] += own[i]
            if name_id == cli_main and self.parents[i] < 0:
                kind = op_kinds[self.span_op[i]]
                cli_ms[kind.removeprefix("cli.")].append(1000 * (self.ends[i] - self.starts[i]))
        metrics: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls"] = (calls[self.name_ids[name]], "count")
            metrics[f"{name}.self_s"] = (self_s[self.name_ids[name]], "s")
        for counter in ("unfolding.orbit_mutate.vertices_in", "unfolding.orbit_mutate.targets",
                        "unfolding.orbit_mutate.useful_targets",
                        "unfolding.build_truncation.vertices"):
            metrics[counter] = (self.counts[counter], "count")
        targets = self.counts["unfolding.orbit_mutate.targets"]
        useful = self.counts["unfolding.orbit_mutate.useful_targets"]
        metrics["unfolding.orbit_mutate.useful_target_frac"] = (
            useful / targets if targets else 0.0, "frac")
        for sub, samples in cli_ms.items():
            metrics[f"cli.{sub}.p50_ms"] = (statistics.median(samples) if samples else 0.0, "ms")
        metrics["seeds.max_entry_bits"] = (self.max_entry_bits, "bits")
        return metrics

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart_s\tend_s\tparent\top\n")
            for i, name_id in enumerate(self.span_name):
                out.write(f"{self.names[name_id]}\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}"
                          f"\t{self.parents[i]}\t{self.span_op[i]}\n")
