"""Framed seeds (B, C): c-vector mutation, sign-coherence, green sequences.

A framed seed pairs an exchange matrix with a same-size integer C-matrix
whose columns are the c-vectors; a freshly extended seed starts from the
identity.  Green/red bookkeeping and the maximal-green-sequence machinery
live here, including the source-numbering construction and a brute-force
enumerator that serves as its oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

from .matrices import (  # noqa: F401  perfbench/selftest.py reads seeds.mutate
    ExchangeMatrix,
    IntMatrix,
    _check_direction,
    _first_violation,
    _freeze_rows,
    _mutate_rows,
    _trusted_matrix,
    format_int,
    is_sign_skew_symmetric,
    mutate,
    parse_int,
)


class GreenVerificationError(RuntimeError):
    """A replayed green sequence failed independent verification."""


def identity_rows(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class FramedSeed:
    """Exchange matrix together with its C-matrix (columns = c-vectors)."""

    b: ExchangeMatrix
    c: IntMatrix

    def __post_init__(self) -> None:
        if not isinstance(self.b, ExchangeMatrix):
            raise ValueError(
                f"principal part must be an ExchangeMatrix, got {type(self.b).__name__}"
            )
        object.__setattr__(self, "c", _freeze_rows(self.c))
        if len(self.c) != self.b.n:
            raise ValueError(
                f"C-matrix size {len(self.c)} does not match principal part {self.b.n}"
            )

    @property
    def n(self) -> int:
        return self.b.n

    def c_column(self, j: int) -> tuple[int, ...]:
        """Column j (1-based) of the C-matrix."""
        jj = _check_direction(j, self.n)
        return tuple(row[jj] for row in self.c)


class ColumnSign(Enum):
    GREEN = "green"
    RED = "red"
    MIXED = "mixed"
    ZERO = "zero"


def sign_of_column(column: Iterable[int]) -> ColumnSign:
    has_pos = has_neg = False
    for x in column:
        if x > 0:
            has_pos = True
        elif x < 0:
            has_neg = True
    if has_pos and has_neg:
        return ColumnSign.MIXED
    if has_pos:
        return ColumnSign.GREEN
    if has_neg:
        return ColumnSign.RED
    return ColumnSign.ZERO


def extend(matrix: ExchangeMatrix) -> FramedSeed:
    """Attach the identity C-matrix to a sign-skew-symmetric matrix."""
    if not is_sign_skew_symmetric(matrix):
        raise ValueError("cannot extend: matrix is not sign-skew-symmetric")
    return FramedSeed(matrix, identity_rows(matrix.n))


def _trusted_seed(b: ExchangeMatrix, c: IntMatrix) -> FramedSeed:
    """A FramedSeed of kernel output, built without validation.

    The argument of matrices._trusted_matrix holds for the rows of C too,
    and the kernel keeps C's row count, so C still matches B's size.
    """
    seed = object.__new__(FramedSeed)
    object.__setattr__(seed, "b", b)
    object.__setattr__(seed, "c", c)
    return seed


def mutate_framed(seed: FramedSeed, k: int) -> FramedSeed:
    """mutate of the extended matrix [B; C] in direction k (1-based)."""
    n = seed.n
    rows = _mutate_rows(seed.b.entries + seed.c, _check_direction(k, n))
    return _trusted_seed(_trusted_matrix(rows[:n]), rows[n:])


def apply_sequence_framed(seed: FramedSeed, directions: Sequence[int]) -> FramedSeed:
    current = seed
    for k in directions:
        current = mutate_framed(current, k)
    return current


def column_sign(seed: FramedSeed, j: int) -> ColumnSign:
    return sign_of_column(seed.c_column(j))


def green_directions(seed: FramedSeed) -> list[int]:
    """Directions (1-based, ascending) whose c-vector is green."""
    return [
        j for j, column in enumerate(zip(*seed.c), start=1)
        if sign_of_column(column) is ColumnSign.GREEN
    ]


def _has_mixed_column(seed: FramedSeed) -> bool:
    return any(sign_of_column(column) is ColumnSign.MIXED for column in zip(*seed.c))


@dataclass(frozen=True)
class CoherenceReport:
    ok: bool
    counterexample: Optional[tuple[int, ...]]
    complete: bool = False


def check_sign_coherence(seed: FramedSeed, depth: int) -> CoherenceReport:
    """Exhaustively mutate to the given depth, watching for mixed c-vectors.

    Each reachable seed (B, C) is checked once (see _first_violation); a
    counterexample is a shortest sequence producing a column with entries
    of both signs.  complete means every seed reachable by any sequence
    was checked.
    """
    if isinstance(depth, bool) or not isinstance(depth, int) or depth < 1:
        raise ValueError(f"search depth must be a positive integer, got {depth!r}")
    witness, complete = _first_violation(
        seed, seed.n, depth, mutate_framed, _has_mixed_column
    )
    return CoherenceReport(ok=witness is None, counterexample=witness, complete=complete)


def admissible_source_numbering(matrix: ExchangeMatrix) -> tuple[int, ...]:
    """Order the indices by repeatedly deleting a source, smallest first.

    A source of the submatrix on the not-yet-chosen indices is an index
    whose row is non-positive there.  Mutation at a source leaves the
    remaining submatrix untouched, so working on the original entries is
    exact.  Fails when some step has no source, i.e. the matrix is not
    acyclic.
    """
    if not is_sign_skew_symmetric(matrix):
        raise ValueError("input matrix is not sign-skew-symmetric")
    e = matrix.entries
    remaining = list(range(matrix.n))
    order: list[int] = []
    while remaining:
        source = next(
            (i for i in remaining if all(e[i][j] <= 0 for j in remaining)), None
        )
        if source is None:
            pending = ",".join(str(i + 1) for i in remaining)
            raise ValueError(
                f"no source among indices {{{pending}}}: matrix is not acyclic"
            )
        order.append(source + 1)
        remaining.remove(source)
    return tuple(order)


@dataclass(frozen=True)
class GreenSequenceReport:
    sequence: tuple[int, ...]
    step_c_matrices: tuple[IntMatrix, ...]
    is_green_sequence: bool
    is_maximal: bool


def _replay_and_verify(seed: FramedSeed, directions: Sequence[int]) -> GreenSequenceReport:
    """Replay directions, verifying greenness of every step from scratch."""
    current = seed
    steps = [current.c]
    for position, k in enumerate(directions, start=1):
        if column_sign(current, k) is not ColumnSign.GREEN:
            raise GreenVerificationError(
                f"step {position}: direction {k} is not green before mutation"
            )
        current = mutate_framed(current, k)
        steps.append(current.c)
    if green_directions(current):
        raise GreenVerificationError(
            f"final seed still has green directions {green_directions(current)}"
        )
    return GreenSequenceReport(
        sequence=tuple(directions),
        step_c_matrices=tuple(steps),
        is_green_sequence=True,
        is_maximal=True,
    )


def source_mgs(matrix: ExchangeMatrix) -> GreenSequenceReport:
    """Maximal green sequence from the admissible source numbering.

    The numbering is replayed on the extended seed and re-verified from
    scratch (every step green, final seed without green directions); a
    verification failure is surfaced as GreenVerificationError rather
    than masked.
    """
    return _replay_and_verify(extend(matrix), admissible_source_numbering(matrix))


def brute_force_green_search(seed: FramedSeed, max_len: int) -> list[GreenSequenceReport]:
    """All maximal green sequences of length <= max_len, lexicographic.

    Depth-first over green directions only, ascending, so the result order
    is deterministic.  Practical limits: n <= 5, max_len <= 8.
    """
    if isinstance(max_len, bool) or not isinstance(max_len, int) or max_len < 1:
        raise ValueError(f"max_len must be a positive integer, got {max_len!r}")
    results: list[GreenSequenceReport] = []

    def walk(current: FramedSeed, seq: tuple[int, ...], cs: tuple[IntMatrix, ...]) -> None:
        greens = green_directions(current)
        if not greens:
            results.append(
                GreenSequenceReport(
                    sequence=seq,
                    step_c_matrices=cs,
                    is_green_sequence=True,
                    is_maximal=True,
                )
            )
            return
        if len(seq) == max_len:
            return
        for k in greens:
            nxt = mutate_framed(current, k)
            walk(nxt, seq + (k,), cs + (nxt.c,))

    walk(seed, (), (seed.c,))
    results.sort(key=lambda r: r.sequence)
    return results


def _json_rows(rows: IntMatrix) -> str:
    return "[" + ", ".join("[" + ", ".join(map(format_int, row)) + "]" for row in rows) + "]"


def format_seed(seed: FramedSeed) -> str:
    """Canonical seed document: JSON with integer matrices keyed b and c.

    The text is what json.dumps(..., separators=(", ", ": ")) gives for
    the two row lists, written directly so entries of any size convert.
    """
    return '{"b": ' + _json_rows(seed.b.entries) + ', "c": ' + _json_rows(seed.c) + "}\n"


def parse_seed(text: str) -> FramedSeed:
    """Inverse of format_seed; round-trips bit-exactly on canonical output."""
    try:
        payload = json.loads(text, parse_int=parse_int)
    except json.JSONDecodeError as exc:
        raise ValueError(f"seed document is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or set(payload) != {"b", "c"}:
        raise ValueError("seed document must be an object with exactly keys 'b' and 'c'")
    for key in ("b", "c"):
        value = payload[key]
        if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
            raise ValueError(f"seed key {key!r} must be a list of rows")
    return FramedSeed(ExchangeMatrix(tuple(map(tuple, payload["b"]))),
                      tuple(map(tuple, payload["c"])))
