"""The three workloads: seeded operations on quivermut and their output checks.

A workload is an endless series of passes.  Every pass runs the same
operations in the same positions, so a run can keep, for each position,
the fastest of its repeats: the host's slow phases then drop out of the
figures, while each pass still does the full work.

- `search` loads the mutation kernel and the exhaustive searches, with no
  unfolding: the running example plus 34 random acyclic matrices with
  n = 2..5, and a long round trip on the example.
- `replay` loads the unfolding replay at m = 8: the running example along
  its source-numbering prefix (1), (1,2), (1,2,3), and every pruned
  sequence of length <= 3 of twelve random matrices (n = 3 and 4 in
  turn) whose truncations have 150..300 vertices, so that the median op
  barely depends on the seed.  Truncations are built in the first pass
  and cached by the library afterwards.  All 53 example sequences would
  take about 27 s, longer than a run.
- `oneshot` stands for command-line users: 100 in-process
  `cli.main(argv)` requests per pass on matrix files written before the
  pass.  Truncation requests use a fresh relabelling of their matrix in
  every pass (same work, new cache key), so no (matrix, m) pair repeats
  and every truncation is built cold.

Ops look library functions up through their modules at call time, so a
traced run sees every call through the rebound names.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from inputs import (
    EXAMPLE_ROWS,
    Rows,
    exceeds_str_digits,
    log_uniform_strata,
    max_entry_bits,
    pruned_count,
    pruned_sequences,
    random_acyclic,
    random_pruned_sequence,
    reference_apply,
    source_numbering,
    symmetrizer_ok,
    truncation_rings,
)

SEARCH_DEPTH = 5
SEARCH_CORPUS = (2,) * 10 + (3,) * 10 + (4,) * 12 + (5,) * 2
ROUND_TRIP_STEPS = 2400
ROUND_TRIP_MIN_BITS = 2000
REPLAY_M = 8
REPLAY_MAX_LEN = 3
REPLAY_EXAMPLE = ((1,), (1, 2), (1, 2, 3))
REPLAY_CORPUS = (3, 4) * 6
REPLAY_BAND = (150, 300)
CLI_DEPTH = 4
CLI_COUNTS = (("classify", 12), ("mgs", 12), ("coherence", 12), ("total-mutability", 12),
              ("unfold", 24), ("verify-unfolding", 24))
UNFOLD_BAND = (1500, 2500)
VERIFY_BAND = (1, 1500)
TRUNCATION_N = 5
# CPython refuses int -> str conversion beyond this many digits by default.
INT_STR_DIGITS = 4300
# The example along its sink numbering 4,3,2,1 gains about 1.46 bits per
# step and first passes INT_STR_DIGITS at step 9,838.
MUTATE_ORDER = (4, 3, 2, 1)
MUTATE_SHORT = 1000
MUTATE_LONG = (10000, 10500)


class GateError(Exception):
    """An operation's output broke an invariant of its workload."""


@dataclass(eq=False)
class Op:
    """One operation: `run` is timed; `check` is not.

    `check` raises GateError on a wrong output and returns True when the
    operation failed exactly as the known big-integer CLI defect predicts.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def check_ok(report) -> bool:
    require(report.ok and report.counterexample is None, f"verdict not ok: {report}")
    return False


# -------------------------------------------------------------------- search


class Search:
    name = "search"

    def __init__(self, lib, seed: int, workdir: Path) -> None:
        rng = random.Random(f"search:{seed}")
        corpus = [EXAMPLE_ROWS] + [random_acyclic(rng, n) for n in SEARCH_CORPUS]
        ops = [op for rows in corpus for op in self._matrix_ops(lib, rows)]
        ops.append(self._round_trip(lib))
        rng.shuffle(ops)
        self.ops = ops

    def passes(self) -> Iterator[list[Op]]:
        while True:
            yield self.ops

    @staticmethod
    def _matrix_ops(lib, rows: Rows) -> list[Op]:
        matrices, seeds = lib.matrices, lib.seeds
        b = matrices.ExchangeMatrix(rows)
        seed = seeds.extend(b)
        n = len(rows)
        expected_source = source_numbering(rows)
        if rows == EXAMPLE_ROWS:
            require(expected_source == (1, 2, 3, 4), "example source numbering is not 1,2,3,4")

        def check_green(result) -> bool:
            source, found = result
            require(source.sequence == expected_source,
                    f"source MGS {source.sequence} != numbering {expected_source}")
            require(source.is_green_sequence and source.is_maximal, "source MGS not maximal green")
            sequences = [r.sequence for r in found]
            require(source.sequence in sequences, "source MGS missing from brute-force set")
            require(sequences == sorted(set(sequences)), "brute-force set not sorted and unique")
            require(all(len(s) <= n and r.is_maximal for s, r in zip(sequences, found)),
                    "brute-force report out of bounds")
            return False

        return [
            Op("check_total_mutability",
               lambda: matrices.check_total_mutability(b, SEARCH_DEPTH), check_ok),
            Op("check_sign_coherence",
               lambda: seeds.check_sign_coherence(seed, SEARCH_DEPTH), check_ok),
            Op("brute_force_green_search",
               lambda: (seeds.source_mgs(b), seeds.brute_force_green_search(seed, n)),
               check_green),
        ]

    @staticmethod
    def _round_trip(lib) -> Op:
        """The example's source numbering, repeated: linear bit growth to > 2,000 bits."""
        seeds = lib.seeds
        start = seeds.extend(lib.matrices.ExchangeMatrix(EXAMPLE_ROWS))
        forward = tuple((1, 2, 3, 4)[i % 4] for i in range(ROUND_TRIP_STEPS))
        backward = forward[::-1]

        def run():
            middle = seeds.apply_sequence_framed(start, forward)
            return middle, seeds.apply_sequence_framed(middle, backward)

        def check(result) -> bool:
            middle, back = result
            require(back == start, "round trip did not give back extend(B)")
            bits = max_entry_bits(middle.b.entries, middle.c)
            require(bits > ROUND_TRIP_MIN_BITS, f"round trip peaked at {bits} bits")
            return False

        return Op("round_trip", run, check)


# -------------------------------------------------------------------- replay


def banded_matrix(rng: random.Random, n: int, m: int, band: tuple[int, int],
                  column_cap: int = 3) -> Rows:
    """Random acyclic rows whose framed budget-m truncation size lies in band."""
    while True:
        rows = random_acyclic(rng, n, column_cap)
        if band[0] <= sum(truncation_rings(rows, m)[0]) <= band[1]:
            return rows


class Replay:
    name = "replay"

    def __init__(self, lib, seed: int, workdir: Path) -> None:
        rng = random.Random(f"replay:{seed}")
        self.lib = lib
        ops = [self._op(EXAMPLE_ROWS, seq) for seq in REPLAY_EXAMPLE]
        for n in REPLAY_CORPUS:
            rows = banded_matrix(rng, n, REPLAY_M, REPLAY_BAND)
            sequences = pruned_sequences(n, REPLAY_MAX_LEN)
            require(len(sequences) == pruned_count(n, REPLAY_MAX_LEN),
                    f"{len(sequences)} pruned sequences for n={n}")
            ops.extend(self._op(rows, seq) for seq in sequences)
        self.ops = ops

    def passes(self) -> Iterator[list[Op]]:
        while True:
            yield self.ops

    def _op(self, rows: Rows, seq: tuple[int, ...]) -> Op:
        unfolding = self.lib.unfolding
        b = self.lib.matrices.ExchangeMatrix(rows)

        def check(report) -> bool:
            require(report.ok and report.first_divergence is None,
                    f"replay of {seq} diverged: {report}")
            return False

        return Op("verify_unfolding_commutation",
                  lambda: unfolding.verify_unfolding_commutation(b, seq, REPLAY_M), check)


# ------------------------------------------------------------------- oneshot


def call_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a request this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def write_matrix(path: Path, rows: Rows) -> str:
    lines = [str(len(rows))] + [" ".join(map(str, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def parse_big_int(text: str) -> int:
    """int(text) in chunks, so numbers past the int/str digit limit still parse."""
    digits = text.lstrip("-")
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text.startswith("-") else value


def payload(result, keys: set[str]) -> dict:
    """The --json-out payload of a successful request, with exactly the given keys."""
    code, out, err = result
    require(code == 0, f"exit code {code}: {err.strip()}")
    data = json.loads(out, parse_int=parse_big_int)
    require(isinstance(data, dict) and set(data) == keys, f"payload keys {sorted(data)}")
    return data


def relabellings(rows: Rows) -> list[tuple[Rows, tuple[int, ...]]]:
    """(rows, label map) for every relabelling that keeps label 1, times +-B.

    Each has the same truncation shape as rows, since construction starts
    at label 1, so a request on it does the same work under a new cache key.
    """
    n = len(rows)
    out = []
    for perm in itertools.permutations(range(1, n)):
        where = (0, *perm)
        for sign in (1, -1):
            moved = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    moved[where[i]][where[j]] = sign * rows[i][j]
            out.append((tuple(map(tuple, moved)), tuple(w + 1 for w in where)))
    return out


class Oneshot:
    name = "oneshot"

    def __init__(self, lib, seed: int, workdir: Path) -> None:
        self.cli = lib.cli
        self.rng = random.Random(f"oneshot:{seed}")
        self.workdir = workdir
        self.example_path = write_matrix(workdir / "example.mat", EXAMPLE_ROWS)
        self.used: set[tuple[Rows, int]] = set()
        self.files = 0
        lengths = log_uniform_strata(self.rng, MUTATE_SHORT, 3) + [self.rng.randint(*MUTATE_LONG)]
        makers = [lambda length=length: self._mutate(length) for length in lengths]
        # The i-th request of a kind takes its size, budget or length from i,
        # so every seed gets the same mix of request shapes.
        for kind, count in CLI_COUNTS:
            maker = getattr(self, "_" + kind.replace("-", "_"))
            makers += [lambda i=i, maker=maker: maker(i) for i in range(count)]
        self.rng.shuffle(makers)
        # Each entry builds the op of its position for a given pass.
        self.positions = [maker() for maker in makers]
        self.pass_ops = self._pass(0)

    def passes(self) -> Iterator[list[Op]]:
        index = 0
        while True:
            yield self.pass_ops
            index += 1
            self.pass_ops = self._pass(index)

    def _pass(self, index: int) -> list[Op]:
        """The ops of one pass; files are written here, before any of them is timed."""
        return [position(index) for position in self.positions]

    def _file(self, rows: Rows) -> str:
        self.files += 1
        return write_matrix(self.workdir / f"m{self.files}.mat", rows)

    def _op(self, kind: str, argv: list[str], check: Callable[[object], bool]) -> Op:
        cli = self.cli
        return Op(f"cli.{kind}", lambda: call_cli(cli, argv), check)

    def _same_each_pass(self, op: Op):
        return lambda index: op

    def _relabelled(self, m: int, band: tuple[int, int]):
        """Base rows for a truncation request, and its relabellings.

        No relabelling of one request may equal one of another, so that no
        (matrix, m) pair repeats within 48 passes.
        """
        while True:
            rows = banded_matrix(self.rng, TRUNCATION_N, m, band, column_cap=4)
            variants = relabellings(rows)
            keys = {(v, m) for v, _ in variants}
            if len(keys) == len(variants) and not keys & self.used:
                self.used |= keys
                return variants

    def _classify(self, i: int):
        rows = random_acyclic(self.rng, 2 + i % 4)
        path = self._file(rows)
        n = len(rows)

        def check(result) -> bool:
            data = payload(result, {"skew_symmetric", "symmetrizer", "sign_skew_symmetric",
                                    "acyclic"})
            require(data["sign_skew_symmetric"] and data["acyclic"], "classified wrongly")
            skew = all(rows[i][j] == -rows[j][i] for i in range(n) for j in range(n))
            require(data["skew_symmetric"] == skew, "skew-symmetry flag wrong")
            if data["symmetrizer"] is not None:
                require(symmetrizer_ok(rows, data["symmetrizer"]), "symmetrizer invalid")
            return False

        return self._same_each_pass(self._op("classify", ["classify", path, "--json-out"], check))

    def _mutate(self, length: int):
        """The running example along its sink numbering; the longest passes the limit."""
        seq = [MUTATE_ORDER[i % 4] for i in range(length)]
        argv = ["mutate", self.example_path, "-s", ",".join(map(str, seq)), "--json-out"]
        expected: list = []

        def check(result) -> bool:
            if not expected:  # the request repeats unchanged, so compute its answer once
                expected.append(reference_apply(EXAMPLE_ROWS, seq))
            b, c = expected[0]
            code, _, err = result
            if any(exceeds_str_digits(x, INT_STR_DIGITS) for row in b + c for x in row):
                if code == 2 and "Exceeds the limit" in err:
                    return True
            data = payload(result, {"b", "c"})
            require(data == {"b": b, "c": c}, f"mutate along {length} steps gave a wrong seed")
            return False

        return self._same_each_pass(self._op("mutate", argv, check))

    def _mgs(self, i: int):
        rows = random_acyclic(self.rng, 2 + i % 4)
        keys = {"sequence", "is_green_sequence", "is_maximal", "step_c_matrices",
                "brute_force_sequences"}

        def check(result) -> bool:
            data = payload(result, keys)
            require(tuple(data["sequence"]) == source_numbering(rows), "wrong source MGS")
            require(data["sequence"] in data["brute_force_sequences"], "MGS not cross-checked")
            require(len(data["step_c_matrices"]) == len(rows) + 1, "wrong step count")
            return False

        argv = ["mgs", self._file(rows), "--brute-force", "--json-out"]
        return self._same_each_pass(self._op("mgs", argv, check))

    def _search(self, kind: str, n: int):
        rows = random_acyclic(self.rng, n)

        def check(result) -> bool:
            data = payload(result, {"ok", "depth", "counterexample"})
            require(data == {"ok": True, "depth": CLI_DEPTH, "counterexample": None},
                    f"{kind} verdict {data}")
            return False

        argv = [kind, self._file(rows), "--depth", str(CLI_DEPTH), "--json-out"]
        return self._same_each_pass(self._op(kind, argv, check))

    def _coherence(self, i: int):
        # Always n = 5: a class of equal-cost requests that holds op_tail_ms.
        return self._search("coherence", 5)

    def _total_mutability(self, i: int):
        return self._search("total-mutability", 2 + i % 4)

    def _unfold(self, i: int):
        m = 4 + i % 5
        variants = self._relabelled(m, UNFOLD_BAND)
        rings, complete = truncation_rings(variants[0][0], m)
        with_dot = i % 2 == 0
        keys = {"vertices", "mutable", "frozen", "arrows", "complete", "interior_radius",
                "labels"}

        def make(index: int) -> Op:
            path = self._file(variants[index % len(variants)][0])
            argv = ["unfold", path, "--m", str(m), "--framed", "--json-out"]
            dot = Path(path).with_suffix(".dot")
            if with_dot:
                argv += ["--dot", str(dot)]

            def check(result) -> bool:
                data = payload(result, keys)
                require(data["vertices"] == sum(rings) and data["complete"] == complete,
                        f"unfold m={m}: {data['vertices']} vertices, expected {sum(rings)}")
                # The unfolding is a tree, and each frozen copy hangs off one vertex.
                require(data["arrows"] == data["vertices"] - 1
                        and data["mutable"] + data["frozen"] == data["vertices"],
                        "arrow or vertex counts inconsistent with a tree")
                if with_dot:
                    lines = dot.read_text(encoding="utf-8").splitlines()
                    dot.unlink()
                    require(lines[0] == "digraph unfolding {" and lines[-1] == "}"
                            and len(lines) == data["vertices"] + data["arrows"] + 2,
                            "DOT export does not match the reported quiver")
                return False

            return self._op("unfold", argv, check)

        return make

    def _verify_unfolding(self, i: int):
        steps = i % 3
        m = 2 * steps + 2
        variants = self._relabelled(m, VERIFY_BAND)
        seq = random_pruned_sequence(self.rng, TRUNCATION_N, steps)
        expected = {"ok": True, "steps": steps, "m": m, "first_divergence": None}

        def make(index: int) -> Op:
            rows, label = variants[index % len(variants)]
            moved = ",".join(str(label[k - 1]) for k in seq)
            argv = ["verify-unfolding", self._file(rows), "-s", moved, "--m", str(m),
                    "--json-out"]

            def check(result) -> bool:
                data = payload(result, set(expected))
                require(data == expected, f"verify-unfolding {moved} at m={m}: {data}")
                return False

            return self._op("verify-unfolding", argv, check)

        return make


WORKLOADS = {cls.name: cls for cls in (Search, Replay, Oneshot)}
