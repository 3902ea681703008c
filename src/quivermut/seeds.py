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
from functools import cache
from itertools import compress
from typing import Optional, Sequence

from .matrices import (  # noqa: F401  seeds.mutate and seeds.format_int are read from outside
    ExchangeMatrix,
    FlatMatrix,
    IntMatrix,
    MutabilityReport,
    _check_index,
    _flat,
    _freeze_rows,
    _mutate_flat,
    _require_positive,
    _require_sign_skew,
    _rows,
    _search,
    _source_order,
    _step_all,
    format_int,
    format_json,
    mutate,
    parse_int,
)


class GreenVerificationError(RuntimeError):
    """A replayed green sequence failed independent verification."""


@cache
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
        jj = _check_index(j, self.n, "c-vector column")
        return tuple(row[jj] for row in self.c)


class ColumnSign(Enum):
    GREEN = "green"
    RED = "red"
    MIXED = "mixed"
    ZERO = "zero"


def extend(matrix: ExchangeMatrix) -> FramedSeed:
    """Attach the identity C-matrix to a sign-skew-symmetric matrix."""
    _require_sign_skew(matrix)
    return FramedSeed(matrix, identity_rows(matrix.n))


def mutate_framed(seed: FramedSeed, k: int) -> FramedSeed:
    """mutate of the extended matrix [B; C] in direction k (1-based)."""
    return apply_sequence_framed(seed, (k,))


def apply_sequence_framed(seed: FramedSeed, directions: Sequence[int]) -> FramedSeed:
    """Left fold of mutate_framed over the directions, stepping [B; C] flat (_step_all)."""
    n = seed.n
    rows = _rows(_step_all(_flat(seed.b.entries + seed.c), n, directions), n)
    return FramedSeed(ExchangeMatrix(rows[:n]), rows[n:])


def column_sign(seed: FramedSeed, j: int) -> ColumnSign:
    """Sign of c-vector j (1-based), from the min and max that _green_columns compares."""
    column = seed.c_column(j)
    low, high = min(column), max(column)
    if low < 0 < high:
        return ColumnSign.MIXED
    if high > 0:
        return ColumnSign.GREEN
    if low < 0:
        return ColumnSign.RED
    return ColumnSign.ZERO


def _green_columns(state: Sequence[int], n: int) -> list[int]:
    """0-based indices of the columns of C with a positive entry and no negative one.

    C is the last n*n entries of the flat state, so state may be [B; C] or
    C alone, and C's column j is a slice.
    """
    c0 = len(state) - n * n
    return [jj for jj in range(n)
            if min(column := state[c0 + jj::n]) >= 0 and max(column) > 0]


def green_directions(seed: FramedSeed) -> list[int]:
    """Directions (1-based, ascending) whose c-vector is green."""
    return [jj + 1 for jj in _green_columns(_flat(seed.c), seed.n)]


class CoherenceReport(MutabilityReport):
    """check_sign_coherence's verdict: MutabilityReport's fields under its
    own name, repr and class-based equality."""


def _mixed_column(state: FlatMatrix, n: int, kk: Optional[int]) -> bool:
    """Whether C of the flat state [B; C] has a column with entries of both signs.

    Step-local test for _search: state is μ_kk of a state whose C
    has no mixed column, or the start when kk is None, which gets the
    full test.  μ_kk negates column kk of C, which keeps it unmixed, and
    adds sgn(c_ik)*max(c_ik*b_kj, 0) to c_ij at j != kk, which is zero in
    every row when b_kj = 0.  So only the columns j with b_kj != 0 can
    turn mixed; row kk of B is only negated, so its support is read from
    state.  This uses no property of B.  C's column j is the slice
    state[n*n + j::n].
    """
    nn = n * n
    columns = range(n)
    if kk is not None:
        columns = compress(columns, state[kk * n:kk * n + n])
    for j in columns:
        column = state[nn + j::n]
        if min(column) < 0 < max(column):
            return True
    return False


def check_sign_coherence(seed: FramedSeed, depth: int) -> CoherenceReport:
    """Exhaustively mutate to the given depth, watching for mixed c-vectors.

    Each reachable seed (B, C) is checked once (see _search), after a
    step only at the columns that step can change (_mixed_column); a
    counterexample is a shortest sequence producing a column with entries
    of both signs.  complete means every seed reachable by any sequence
    was checked.  B must be sign-skew-symmetric, as in
    check_total_mutability.
    """
    return _search(seed.b, _flat(seed.b.entries + seed.c), depth, _mixed_column, CoherenceReport)


def admissible_source_numbering(matrix: ExchangeMatrix) -> tuple[int, ...]:
    """Order the indices by repeatedly deleting a source, smallest first.

    A source of the submatrix on the not-yet-chosen indices is an index
    whose row is non-positive there; on a sign-skew-symmetric B that is
    the same as a non-negative column, so the order is
    matrices._source_order.  Mutation at a source leaves the remaining
    submatrix untouched, so working on the original entries is exact.
    Fails when some step has no source, i.e. the matrix is not acyclic.
    """
    _require_sign_skew(matrix)
    order = _source_order(matrix.entries)
    if len(order) < matrix.n:
        pending = ",".join(str(i + 1) for i in sorted(set(range(matrix.n)) - set(order)))
        raise ValueError(f"no source among indices {{{pending}}}: matrix is not acyclic")
    return tuple(i + 1 for i in order)


@dataclass(frozen=True)
class GreenSequenceReport:
    sequence: tuple[int, ...]
    step_c_matrices: tuple[IntMatrix, ...]
    is_green_sequence: bool
    is_maximal: bool


def _green_report(sequence: Sequence[int], steps: Sequence[IntMatrix]) -> GreenSequenceReport:
    """Every GreenSequenceReport: the source replay and the brute-force walk
    each verify the sequence green and maximal before they call this."""
    return GreenSequenceReport(tuple(sequence), tuple(steps), True, True)


def _replay_and_verify(seed: FramedSeed, directions: Sequence[int]) -> GreenSequenceReport:
    """Replay directions on the flat [B; C], re-verifying every step's greenness."""
    n = seed.n
    state = list(_flat(seed.b.entries + seed.c))
    steps = [seed.c]
    for position, k in enumerate(directions, start=1):
        kk = _check_index(k, n)
        if kk not in _green_columns(state, n):
            raise GreenVerificationError(
                f"step {position}: direction {k} is not green before mutation"
            )
        _mutate_flat(state, n, kk)
        steps.append(_rows(state[n * n:], n))
    greens = [jj + 1 for jj in _green_columns(state, n)]
    if greens:
        raise GreenVerificationError(f"final seed still has green directions {greens}")
    return _green_report(directions, steps)


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

    Depth-first over green directions only, ascending; the walk steps the
    flat [B; C] (_mutate_flat) and reads each step's C as rows only for
    a sequence it records.  B must be sign-skew-symmetric, as in
    check_sign_coherence.

    Order.  The results come out lexicographic with no sort.  The walk
    records a sequence only where it stops, at a state with no green
    direction, so no result is a prefix of another.  Two results thus
    first differ at some step, and there the walk took the smaller
    direction first and finished its subtree before the larger.

    Green-count bound.  A state with g green columns is not extended
    unless its sequence has at most max_len - g steps.  Mutation at a
    green k negates column k, and adds sgn(c_ik)*max(c_ik*b_kj, 0) >= 0 to
    every c_ij at j != k, as c_ik >= 0 in every row: the other columns
    only grow, so every other green column stays green.  A step thus
    removes at most one green column, and a state with g green columns
    is at least g steps from one with none.  A subtree the bound cuts
    holds no maximal green sequence of length <= max_len, so the list is
    the one the unbounded walk gives.  The argument holds for any C.
    Practical limits: n <= 6, max_len <= 8.
    """
    _require_positive(max_len, "max_len")
    _require_sign_skew(seed.b)
    n = seed.n
    nn = n * n
    results: list[GreenSequenceReport] = []

    def walk(state: FlatMatrix, seq: tuple[int, ...], path: tuple[FlatMatrix, ...]) -> None:
        greens = _green_columns(state, n)
        if not greens:
            results.append(_green_report(seq, [_rows(s[nn:], n) for s in path]))
            return
        if len(seq) + len(greens) > max_len:
            return
        for kk in greens:
            nxt = list(state)
            _mutate_flat(nxt, n, kk)
            nxt = tuple(nxt)
            walk(nxt, seq + (kk + 1,), path + (nxt,))

    start = _flat(seed.b.entries + seed.c)
    walk(start, (), (start,))
    return results


def format_seed(seed: FramedSeed) -> str:
    """Canonical seed document: JSON with integer matrices keyed b and c (format_json)."""
    return format_json({"b": seed.b.entries, "c": seed.c}) + "\n"


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
