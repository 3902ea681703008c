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
    complete: bool = False


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
    part B; rows below it follow the same rule against B's row kk.  Row kk
    is negated.  Every other row i gets -x_ik at j = kk and the max-form
    x_ij + sgn(x_ik)*max(x_ik*b_kj, 0) at j != kk, which has four sign
    cases:

    - x_ik > 0 and b_kj > 0: x_ij + x_ik*b_kj;
    - x_ik < 0 and b_kj < 0: x_ij + |x_ik|*b_kj;
    - x_ik and b_kj of opposite signs: x_ij;
    - x_ik = 0 or b_kj = 0: x_ij, and a row with x_ik = 0 is returned as
      it is.

    Row kk of B is split once into its positive and its negative entries,
    so a row adds only at the j of the first or second case: no abs, no
    halving, no multiplication by zero.  A nonzero b_kk lands in one of the
    two lists, and entry kk is overwritten afterwards.
    """
    row_k = rows[kk]
    positive = [(j, b) for j, b in enumerate(row_k) if b > 0]
    negative = [(j, b) for j, b in enumerate(row_k) if b < 0]
    out = []
    for i, row in enumerate(rows):
        x_ik = row[kk]
        if i == kk:
            out.append(tuple([-x for x in row]))
        elif x_ik == 0:
            out.append(row)
        else:
            new = list(row)
            if x_ik > 0:
                for j, b in positive:
                    new[j] += x_ik * b
            else:
                for j, b in negative:
                    new[j] -= x_ik * b
            new[kk] = -x_ik
            out.append(tuple(new))
    return tuple(out)


def _trusted_matrix(entries: IntMatrix) -> ExchangeMatrix:
    """An ExchangeMatrix of kernel output, built without _freeze_rows.

    Re-validation cannot fail here: the input was validated when it was
    built, _mutate_rows keeps the row count and every row's length, each
    new entry is -x or x + a*b on ints (an int, never a bool), and every
    unchanged row is a tuple that was validated before.
    """
    matrix = object.__new__(ExchangeMatrix)
    object.__setattr__(matrix, "entries", entries)
    return matrix


def mutate(matrix: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Mutation of the matrix in direction k (1-based), see _mutate_rows."""
    return _trusted_matrix(_mutate_rows(matrix.entries, _check_direction(k, matrix.n)))


def apply_sequence(matrix: ExchangeMatrix, directions: Sequence[int]) -> ExchangeMatrix:
    """Left fold of mutate over the directions; the empty sequence is identity."""
    current = matrix
    for k in directions:
        current = mutate(current, k)
    return current


def _first_violation(
    start: T, n: int, depth: int, step: Callable[[T, int], T], bad: Callable[[T], bool]
) -> tuple[Optional[tuple[int, ...]], bool]:
    """(witness, complete): a shortest sequence reaching a bad state, or None.

    Breadth-first over the states reachable in 0..depth steps: the start
    first, then each state's successors with directions ascending and the
    immediate back-mutation (k, k) pruned; step(state, k) mutates in
    direction k (1-based).  States are frozen and hashable, equal exactly
    when they are the same state.  bad tests each state once, when it is
    first reached; a successor already seen was tested then and is skipped.

    Witness.  The witness is the one a search over every sequence, in
    the same order and without the seen set, returns: the least bad
    sequence by (length, lexicographic).  Mutation is an involution, so a
    shortest path to a state never repeats a direction twice in a row and
    that search visits it.  Write d(s) for the length of a shortest path
    to s and w(s) for the lexicographically least such path.  By
    induction on L: the states with d(s) = L are first reached by the
    path w(s), and queued in the order of their w.  Each shortest path to
    a state s with d(s) = L + 1 is w(p) + (k,) or comes after it, where
    p = step(s, k) has d(p) = L, so w(s) is the least w(p) + (k,) over
    such pairs (p, k).  The queue meets parents in the order of w(p) and
    each parent's directions ascending, so the first pair to reach s is
    that least one.  The pruned back-mutation from p leads to the state
    before it, with d = L - 1, so it loses no first path.  The least bad
    sequence ends at a bad state s and is w(s), or w(s) would be a shorter
    or smaller bad sequence; states are tested in the order of their
    (d, w), so the first bad state reached is that s and the witness is
    w(s), byte for byte.

    Completeness.  complete is True when there is no witness and no new
    state was first reached at length depth.  Every state reached then
    lies fewer than depth steps from the start, so it was expanded: each
    of its successors was generated and found already seen, or is the
    pruned back-mutation, the state it was reached from.  The reached set
    is thus closed under mutation.  It holds every state reachable from
    the start by any sequence of any length, and bad holds for none.
    Without a witness this happens exactly when the exchange graph of the
    start is finite and each of its states lies fewer than depth steps
    from the start.
    """
    if bad(start):
        return (), False
    seen = {start}
    frontier: deque[tuple[T, tuple[int, ...]]] = deque([(start, ())])
    complete = True
    while frontier:
        current, seq = frontier.popleft()
        last = seq[-1] if seq else 0
        for k in range(1, n + 1):
            if k == last:
                continue
            nxt = step(current, k)
            if nxt in seen:
                continue
            seen.add(nxt)
            path = seq + (k,)
            if bad(nxt):
                return path, False
            if len(path) < depth:
                frontier.append((nxt, path))
            else:
                complete = False
    return None, complete


def check_total_mutability(matrix: ExchangeMatrix, depth: int) -> MutabilityReport:
    """Exhaustively mutate to the given depth, checking sign-skew-symmetry.

    Each reachable matrix is checked once (see _first_violation).  On
    failure the witness is a shortest violating sequence (breadth-first,
    smallest directions first).  complete means every matrix reachable by
    any sequence was checked.
    """
    if isinstance(depth, bool) or not isinstance(depth, int) or depth < 1:
        raise ValueError(f"search depth must be a positive integer, got {depth!r}")
    if not is_sign_skew_symmetric(matrix):
        raise ValueError("input matrix is not sign-skew-symmetric")
    witness, complete = _first_violation(
        matrix, matrix.n, depth, mutate, lambda m: not is_sign_skew_symmetric(m)
    )
    return MutabilityReport(ok=witness is None, counterexample=witness, complete=complete)


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
    """The int of a decimal literal of any length: an optional minus sign, then ASCII digits."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid decimal integer literal {text[:20]!r}")
    if len(digits) <= _CHUNK_DIGITS:
        return int(text)
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
        n = parse_int(token)
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
