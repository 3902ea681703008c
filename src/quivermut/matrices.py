"""Exchange matrices over exact integers: classification, mutation, search.

Everything here works on plain Python ints, so entries may grow without
bound and every comparison is exact.  Indices are 1-based at the API
boundary (matching the usual cluster-algebra notation) and 0-based
internally.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Optional, Sequence, TypeVar

IntMatrix = tuple[tuple[int, ...], ...]
T = TypeVar("T")


class MatrixFormatError(ValueError):
    """Malformed matrix text input; the message carries a line diagnostic."""


def _check_int(value: object) -> int:
    # bool is an int subclass; reject it so True never sneaks in as 1.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"matrix entries must be integers, got {value!r}")
    return value


def _freeze_rows(rows: Iterable[Iterable[object]]) -> IntMatrix:
    frozen = tuple(tuple(_check_int(x) for x in row) for row in rows)
    n = len(frozen)
    if n == 0:
        raise ValueError("matrix must have at least one row")
    for i, row in enumerate(frozen):
        if len(row) != n:
            raise ValueError(f"row {i + 1} has {len(row)} entries, expected {n}")
    return frozen


@dataclass(frozen=True)
class ExchangeMatrix:
    """Square integer matrix, the principal exchange data of a seed."""

    entries: IntMatrix

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _freeze_rows(self.entries))

    @property
    def n(self) -> int:
        return len(self.entries)

    def rows(self) -> list[list[int]]:
        """Entries as a fresh mutable list of lists."""
        return [list(row) for row in self.entries]

    def __repr__(self) -> str:
        body = ", ".join(repr(list(row)) for row in self.entries)
        return f"ExchangeMatrix([{body}])"


@dataclass(frozen=True)
class ClassificationReport:
    skew_symmetric: bool
    symmetrizer: Optional[tuple[int, ...]]
    sign_skew_symmetric: bool
    acyclic: bool


@dataclass(frozen=True)
class MutabilityReport:
    ok: bool
    counterexample: Optional[tuple[int, ...]]


def is_skew_symmetric(matrix: ExchangeMatrix) -> bool:
    e = matrix.entries
    n = matrix.n
    return all(e[i][j] == -e[j][i] for i in range(n) for j in range(i, n))


def is_sign_skew_symmetric(matrix: ExchangeMatrix) -> bool:
    """True iff every pair (b_ij, b_ji) is (0, 0) or of strictly opposite signs."""
    e = matrix.entries
    n = matrix.n
    for i in range(n):
        for j in range(i, n):
            x, y = e[i][j], e[j][i]
            if x == 0 and y == 0:
                continue
            if x * y >= 0:
                return False
    return True


def find_symmetrizer(matrix: ExchangeMatrix) -> Optional[tuple[int, ...]]:
    """Component-wise minimal positive diagonal D with d_i*b_ij == -d_j*b_ji.

    Ratios are propagated along the nonzero pattern of each connected
    component, cleared to the least positive integers, then verified
    globally.  Returns None when no such diagonal exists.
    """
    if not is_sign_skew_symmetric(matrix):
        return None
    e = matrix.entries
    n = matrix.n
    ratios: list[Optional[Fraction]] = [None] * n
    for root in range(n):
        if ratios[root] is not None:
            continue
        ratios[root] = Fraction(1)
        component = [root]
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                if e[i][j] != 0 and ratios[j] is None:
                    # d_i*b_ij == -d_j*b_ji with opposite signs gives this ratio.
                    ratios[j] = ratios[i] * Fraction(abs(e[i][j]), abs(e[j][i]))
                    component.append(j)
                    stack.append(j)
        denom_lcm = lcm(*(ratios[i].denominator for i in component))
        scaled = [int(ratios[i] * denom_lcm) for i in component]
        g = gcd(*scaled)
        for i, value in zip(component, scaled):
            ratios[i] = Fraction(value // g)

    diag = tuple(int(r) for r in ratios)
    for i in range(n):
        for j in range(n):
            if diag[i] * e[i][j] != -diag[j] * e[j][i]:
                return None
    return diag


def is_acyclic(matrix: ExchangeMatrix) -> bool:
    """True iff the digraph with an edge i -> j iff b_ij < 0 has no cycle."""
    e = matrix.entries
    remaining = set(range(matrix.n))
    while remaining:
        sources = {j for j in remaining if all(e[i][j] >= 0 for i in remaining)}
        if not sources:
            return False
        remaining -= sources
    return True


def classify(matrix: ExchangeMatrix) -> ClassificationReport:
    """Classification flags for an arbitrary square integer matrix.

    Total: never raises.  The acyclicity flag is computed unconditionally
    but is only meaningful when the matrix is sign-skew-symmetric.
    """
    return ClassificationReport(
        skew_symmetric=is_skew_symmetric(matrix),
        symmetrizer=find_symmetrizer(matrix),
        sign_skew_symmetric=is_sign_skew_symmetric(matrix),
        acyclic=is_acyclic(matrix),
    )


def _check_direction(k: int, n: int) -> int:
    if isinstance(k, bool) or not isinstance(k, int) or not 1 <= k <= n:
        raise IndexError(f"mutation direction {k!r} out of range 1..{n}")
    return k - 1


def _mutate_rows(rows: IntMatrix, kk: int) -> IntMatrix:
    """Mutation in direction kk (0-based) of an extended matrix [B; C].

    The first n rows, n being the row length, are the square principal
    part B; rows below it follow the same rule against B's row kk.  Row
    and column kk flip sign; every other entry x_ij picks up the composite
    term (|x_ik|*b_kj + x_ik*|b_kj|)/2, which is a nonzero integer exactly
    when x_ik and b_kj share a sign.  A row with x_ik = 0 is left as it is.
    """
    row_k = rows[kk]
    out = []
    for i, row in enumerate(rows):
        x_ik = row[kk]
        if i == kk:
            out.append(tuple(-x for x in row))
        elif x_ik == 0:
            out.append(row)
        else:
            a = abs(x_ik)
            # The two addends share a sign, so the sum is always even.
            new = [x + (a * b + x_ik * abs(b)) // 2 for x, b in zip(row, row_k)]
            new[kk] = -x_ik
            out.append(tuple(new))
    return tuple(out)


def mutate(matrix: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Mutation of the matrix in direction k (1-based), see _mutate_rows."""
    return ExchangeMatrix(_mutate_rows(matrix.entries, _check_direction(k, matrix.n)))


def apply_sequence(matrix: ExchangeMatrix, directions: Sequence[int]) -> ExchangeMatrix:
    """Left fold of mutate over the directions; the empty sequence is identity."""
    current = matrix
    for k in directions:
        current = mutate(current, k)
    return current


def _first_violation(
    start: T, n: int, depth: int, step: Callable[[T, int], T], bad: Callable[[T], bool]
) -> Optional[tuple[int, ...]]:
    """Shortest direction sequence whose end state is bad, or None.

    Breadth-first over sequences of length 0..depth, directions ascending,
    immediate back-mutations (k, k) pruned; step(state, k) mutates in
    direction k (1-based).
    """
    if bad(start):
        return ()
    frontier: deque[tuple[T, tuple[int, ...]]] = deque([(start, ())])
    while frontier:
        current, seq = frontier.popleft()
        last = seq[-1] if seq else 0
        for k in range(1, n + 1):
            if k == last:
                continue
            nxt = step(current, k)
            path = seq + (k,)
            if bad(nxt):
                return path
            if len(path) < depth:
                frontier.append((nxt, path))
    return None


def check_total_mutability(matrix: ExchangeMatrix, depth: int) -> MutabilityReport:
    """Exhaustively mutate to the given depth, checking sign-skew-symmetry.

    Immediate back-mutations (k, k) are pruned.  On failure the witness is
    a shortest violating sequence (breadth-first, smallest directions
    first).
    """
    if not isinstance(depth, int) or depth < 1:
        raise ValueError(f"search depth must be a positive integer, got {depth!r}")
    if not is_sign_skew_symmetric(matrix):
        raise ValueError("input matrix is not sign-skew-symmetric")
    witness = _first_violation(
        matrix, matrix.n, depth, mutate, lambda m: not is_sign_skew_symmetric(m)
    )
    return MutabilityReport(ok=witness is None, counterexample=witness)


# CPython refuses int <-> decimal str conversions past 4,300 digits by
# default (sys.int_info.default_max_str_digits).  The matrix text format and
# the seed document convert in chunks of this many digits instead, leaving
# that process-wide setting alone.
_CHUNK_DIGITS = 1000
_CHUNK = 10**_CHUNK_DIGITS


def format_int(value: int) -> str:
    """str(value) for an int of any size."""
    if -_CHUNK < value < _CHUNK:
        return str(value)
    chunks = []
    rest = abs(value)
    while rest:
        rest, low = divmod(rest, _CHUNK)
        chunks.append(low)
    head = ("-" if value < 0 else "") + str(chunks.pop())
    return head + "".join(f"{low:0{_CHUNK_DIGITS}d}" for low in reversed(chunks))


def parse_int(text: str) -> int:
    """int(text) for a decimal integer literal of any length.

    Past 1,000 digits only a minus sign and ASCII digits are accepted.
    """
    digits = text.removeprefix("-")
    if len(digits) <= _CHUNK_DIGITS:
        return int(text)
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid decimal integer literal {text[:20]!r}...")
    value = 0
    for start in range(0, len(digits), _CHUNK_DIGITS):
        chunk = digits[start:start + _CHUNK_DIGITS]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text.startswith("-") else value


def parse_matrix(text: str) -> ExchangeMatrix:
    """Parse the matrix text format: a size line, then n rows of n integers.

    Blank lines are ignored.  Any shape or token problem raises
    MatrixFormatError naming the offending line (and column within it).
    """
    numbered = [
        (lineno, line) for lineno, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]
    if not numbered:
        raise MatrixFormatError("line 1: expected matrix size, found empty input")
    lineno, header = numbered[0]
    token = header.strip()
    try:
        n = int(token)
    except ValueError:
        raise MatrixFormatError(
            f"line {lineno}: expected matrix size, got {token!r}"
        ) from None
    if n < 1:
        raise MatrixFormatError(f"line {lineno}: matrix size must be positive, got {n}")

    rows: list[tuple[int, ...]] = []
    for lineno, line in numbered[1:]:
        if len(rows) == n:
            raise MatrixFormatError(f"line {lineno}: unexpected trailing content")
        tokens = line.split()
        if len(tokens) != n:
            raise MatrixFormatError(
                f"line {lineno}: expected {n} entries, found {len(tokens)}"
            )
        row = []
        for col, tok in enumerate(tokens, start=1):
            try:
                row.append(parse_int(tok))
            except ValueError:
                raise MatrixFormatError(
                    f"line {lineno}, column {col}: {tok!r} is not an integer"
                ) from None
        rows.append(tuple(row))
    if len(rows) != n:
        raise MatrixFormatError(f"expected {n} rows, found {len(rows)}")
    return ExchangeMatrix(tuple(rows))


def format_matrix(matrix: ExchangeMatrix) -> str:
    """Inverse of parse_matrix (canonical single-space separators)."""
    lines = [str(matrix.n)]
    lines.extend(" ".join(map(format_int, row)) for row in matrix.entries)
    return "\n".join(lines) + "\n"
