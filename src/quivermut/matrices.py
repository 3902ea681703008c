"""Exchange matrices over exact integers: classification, mutation, search.

Everything here works on plain Python ints, so entries may grow without
bound and every comparison is exact.  Indices are 1-based at the API
boundary (matching the usual cluster-algebra notation) and 0-based
internally.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Optional, Sequence

IntMatrix = tuple[tuple[int, ...], ...]
# A matrix as one row-major tuple, its row length held apart (_flat, _rows).
FlatMatrix = tuple[int, ...]


class MatrixFormatError(ValueError):
    """Malformed matrix text input; the message carries a line diagnostic."""


def _is_int(value: object) -> bool:
    """An int that is not a bool: bool is an int subclass, and True must never pass as 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(value: object) -> int:
    if not _is_int(value):
        raise ValueError(f"matrix entries must be integers, got {value!r}")
    return value


def _show(value: object) -> str:
    """repr(value) for an error message, or, for an int past the int/str
    digit limit, whose repr raises, its sign and first 20 digits, then its
    digit count (format_int), so the message is the one meant."""
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, int):
            raise
        text = format_int(value)
        digits = len(text.lstrip("-"))
        return f"{text[:len(text) - digits + 20]}... ({digits} digits)"


def _require_positive(value: object, name: str) -> None:
    if not _is_int(value) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {_show(value)}")


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


def _sign_skew_rows(e: IntMatrix) -> bool:
    """is_sign_skew_symmetric on the rows of a square matrix."""
    n = len(e)
    for i in range(n):
        for j in range(i, n):
            x, y = e[i][j], e[j][i]
            if x == 0 and y == 0:
                continue
            if x * y >= 0:
                return False
    return True


def is_sign_skew_symmetric(matrix: ExchangeMatrix) -> bool:
    """True iff every pair (b_ij, b_ji) is (0, 0) or of strictly opposite signs."""
    return _sign_skew_rows(matrix.entries)


def _require_sign_skew(matrix: ExchangeMatrix) -> None:
    if not is_sign_skew_symmetric(matrix):
        raise ValueError("input matrix is not sign-skew-symmetric")


def _pattern_walk(e: IntMatrix, root: int) -> Iterator[tuple[int, int]]:
    """Breadth-first walk from root over the undirected nonzero pattern of a
    square matrix: (parent, child) for each other index of root's component,
    in the order reached, the indices of one parent ascending.  Each child
    is one entry, or its mirror, away from its parent, and lies one edge
    deeper than it; find_symmetrizer propagates its ratios along the walk and
    the unfolding reads its label depths off it.
    """
    n = len(e)
    reached = [False] * n
    reached[root] = True
    queue = deque([root])
    while queue:
        i = queue.popleft()
        for j in range(n):
            if not reached[j] and (e[i][j] or e[j][i]):
                reached[j] = True
                queue.append(j)
                yield i, j


def find_symmetrizer(matrix: ExchangeMatrix) -> Optional[tuple[int, ...]]:
    """Component-wise minimal positive diagonal D with d_i*b_ij == -d_j*b_ji.

    Ratios are propagated along the nonzero pattern of each connected
    component (_pattern_walk), cleared to the least positive integers, then
    verified globally.  Returns None when no such diagonal exists.  When one
    does, the ratio of two indices is the same along every path between
    them, so the walk's order does not matter; when none does, the global
    check fails whatever the ratios.
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
        for i, j in _pattern_walk(e, root):
            # d_i*b_ij == -d_j*b_ji with opposite signs gives this ratio.
            ratios[j] = ratios[i] * Fraction(abs(e[i][j]), abs(e[j][i]))
            component.append(j)
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


def _source_order(e: IntMatrix) -> list[int]:
    """Indices (0-based) deleted while some remaining column is non-negative, smallest first.

    Such an index has no remaining in-edge in the digraph with an edge
    i -> j iff e_ij < 0, so every index is deleted iff that has no cycle.
    """
    remaining = list(range(len(e)))
    order: list[int] = []
    while remaining:
        source = next((j for j in remaining if all(e[i][j] >= 0 for i in remaining)), None)
        if source is None:
            break
        order.append(source)
        remaining.remove(source)
    return order


def is_acyclic(matrix: ExchangeMatrix) -> bool:
    """True iff the digraph with an edge i -> j iff b_ij < 0 has no cycle."""
    return len(_source_order(matrix.entries)) == matrix.n


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


def _check_index(k: object, n: int, noun: str = "mutation direction") -> int:
    """The 0-based index of k, an int in 1..n; IndexError naming the noun otherwise."""
    if not _is_int(k) or not 1 <= k <= n:
        raise IndexError(f"{noun} {_show(k)} out of range 1..{n}")
    return k - 1


def _flat(rows: Iterable[Sequence[int]]) -> FlatMatrix:
    """The rows of a matrix as one flat row-major tuple, the state _mutate_flat steps."""
    return tuple(chain.from_iterable(rows))


def _rows(state: Sequence[int], n: int) -> IntMatrix:
    """The rows of length n of a flat row-major state: the inverse of _flat."""
    return tuple(zip(*[iter(state)] * n))


def _mutate_flat(state: list[int], n: int, kk: int) -> None:
    """Mutate state, an extended matrix [B; C], in place in direction kk (0-based).

    state is the matrix flat and row-major (_flat), as a list: entry
    (i, j) sits at i*n + j, n being the row length, and column j is
    state[j::n].  The first n rows are the square principal part B; rows
    below it follow the same rule against B's row kk.  Row kk is negated.
    Every other row i gets -x_ik at j = kk and the max-form
    x_ij + sgn(x_ik)*max(x_ik*b_kj, 0) at j != kk, which has four sign
    cases:

    - x_ik > 0 and b_kj > 0: x_ij + x_ik*b_kj;
    - x_ik < 0 and b_kj < 0: x_ij + x_ik*|b_kj|;
    - x_ik and b_kj of opposite signs: x_ij;
    - x_ik = 0 or b_kj = 0: x_ij, and a row with x_ik = 0 is left as it
      is.

    One pass over a copy of row kk negates the row in place and splits
    it into its positive entries and the magnitudes of its negative
    ones, each kept with its offset j - kk; a row with x_ik > 0 reads the
    first list and one with x_ik < 0 the second, so it adds x_ik times a
    positive factor, and only at the j of the first or second case: no
    abs, no halving, no multiplication by zero.  A unit factor adds x_ik
    itself: along a long sequence x_ik has thousands of digits, and
    multiplying it by 1 costs as much as the addition.  Then only the
    other rows whose column-kk entry is nonzero are updated: compress
    finds them in a copy of column kk, as the positions p = i*n + kk, with
    row kk's entry zeroed, since that row is already done even when b_kk
    is nonzero (an ExchangeMatrix admits a nonzero diagonal).  Entry j of
    row i sits at p + j - kk, and a row's writes stay in that row, so its
    x_ik is read before they start.  A nonzero b_kk lands in one of the
    two lists, and entry kk is overwritten afterwards.  A caller that
    keeps the state it had passes a copy.
    """
    start = kk * n
    diagonal = start + kk
    positive = []
    negative = []
    for j, b in enumerate(state[start:start + n], start):
        state[j] = -b
        if b > 0:
            positive.append((j - diagonal, b))
        elif b < 0:
            negative.append((j - diagonal, -b))
    column = state[kk::n]
    column[kk] = 0
    for p in compress(range(kk, len(state), n), column):
        x_ik = state[p]
        for d, b in positive if x_ik > 0 else negative:
            state[p + d] += x_ik if b == 1 else x_ik * b
        state[p] = -x_ik


def mutate(matrix: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Mutation of the matrix in direction k (1-based), see _mutate_flat."""
    return apply_sequence(matrix, (k,))


def _step_all(state: FlatMatrix, n: int, directions: Iterable[int]) -> list[int]:
    """A list of the flat state, stepped in place by _mutate_flat along the
    1-based directions.

    Every direction is checked once, in order, before the first step, so
    a one-shot iterator is read once and the first bad direction is
    refused with the IndexError of _check_index.
    """
    kks = [_check_index(k, n) for k in directions]
    out = list(state)
    for kk in kks:
        _mutate_flat(out, n, kk)
    return out


def apply_sequence(matrix: ExchangeMatrix, directions: Sequence[int]) -> ExchangeMatrix:
    """Left fold of mutate over the directions; the empty sequence is identity."""
    n = matrix.n
    return ExchangeMatrix(_rows(_step_all(_flat(matrix.entries), n, directions), n))


def _search(b: ExchangeMatrix, start: FlatMatrix, depth: int,
            bad: Callable[[FlatMatrix, int, Optional[int]], bool],
            report: type[MutabilityReport]) -> MutabilityReport:
    """The verdict of either exhaustive search, as a report of type report.

    Refuses a depth that is not a positive int, then a B that is not
    sign-skew-symmetric.  start is the flat extended matrix (_flat) whose
    first b.n rows are B.  The counterexample is the witness below, a
    shortest sequence reaching a bad state, or None.

    Breadth-first over the states reachable in 0..depth steps: the start
    first, then each state's successors with directions ascending and the
    immediate back-mutation (k, k) pruned.  A state is one flat row-major
    tuple of an extended matrix with rows of length n whose first n rows
    are the square part B, so [B; C] for a framed seed and B alone for a
    matrix; entry (i, j) sits at i*n + j.  A step copies the state to a
    list, mutates it there (_mutate_flat) and freezes it back, so states
    are hashed and compared as plain tuples.  Every state of one
    search has the same n and the same length, so two states are equal
    exactly when their matrices are, and so when their seeds are.  bad
    tests each state once, when it is first reached; a successor already
    seen was tested then and is skipped.  bad gets the state, n and the
    0-based direction of the step that reached it, or None for the
    start.  Only a state that passed is expanded, so a successor's parent
    always passed: bad may test only what that step can change, as long
    as it answers as the full test would on such a state.  The start gets
    the full test.

    Witness.  The witness is the one a search over every sequence, in
    the same order and without the seen set, returns: the least bad
    sequence by (length, lexicographic).  Mutation is an involution, so a
    shortest path to a state never repeats a direction twice in a row and
    that search visits it.  Write d(s) for the length of a shortest path
    to s and w(s) for the lexicographically least such path.  By
    induction on L: the states with d(s) = L are first reached by the
    path w(s), and queued in the order of their w.  Each shortest path to
    a state s with d(s) = L + 1 is w(p) + (k,) or comes after it, where p
    is s mutated in direction k and has d(p) = L, so w(s) is the least
    w(p) + (k,) over such pairs (p, k).  The queue meets parents in the
    order of w(p) and each parent's directions ascending, so the first
    pair to reach s is that least one.  The pruned back-mutation from p
    leads to the state before it, with d = L - 1, so it loses no first
    path.  The least bad
    sequence ends at a bad state s and is w(s), or w(s) would be a shorter
    or smaller bad sequence; states are tested in the order of their
    (d, w), so the first bad state reached is that s and the witness is
    w(s), byte for byte.

    Commuting successors.  Expanding a state s reached by direction l
    from p, skip each k < l with b_kl = b_lk = 0 in s.  Such a μ_l leaves
    row k of B and column k of [B; C] as they are, since every change it
    makes to them is a multiple of b_lk or b_kl, and μ_k leaves row l and
    column l alike; so μ_k μ_l = μ_l μ_k on [B; C], with no appeal to
    sign-skew-symmetry, and μ_k(s) = μ_l(q) for q = μ_k(p).  By
    induction over the expansions, a successor this rule skips is already
    seen.  So q is seen: p's expansion came to k before l and generated
    q or skipped it, unless k is the direction p was reached by, and then
    q is p's parent.  Either way q was queued ahead of s, on a path no
    longer than s's, so it was expanded before s.  That expansion
    generated μ_l(q) or skipped it, or μ_l(q) is q's own parent.  So
    μ_k(s) is already seen and the loop would pass over it anyway:
    neither the witness nor complete changes, and only its mutation is
    saved.

    Completeness.  complete is True when there is no witness and no new
    state was first reached at length depth.  Every state reached then
    lies fewer than depth steps from the start, so it was expanded: each
    of its successors was generated and found already seen, was skipped
    as a commuting successor, already seen, or is the pruned
    back-mutation, the state it was reached from.  The reached set
    is thus closed under mutation.  It holds every state reachable from
    the start by any sequence of any length, and bad holds for none.
    Without a witness this happens exactly when the exchange graph of the
    start is finite and each of its states lies fewer than depth steps
    from the start.
    """
    _require_positive(depth, "search depth")
    _require_sign_skew(b)
    n = b.n
    if bad(start, n, None):
        return report(False, ())
    seen = {start}
    size = 1  # len(seen): add, then compare sizes, hashes each successor once
    frontier: deque[tuple[FlatMatrix, tuple[int, ...]]] = deque([(start, ())])
    complete = True
    while frontier:
        current, seq = frontier.popleft()
        ll = seq[-1] - 1 if seq else -1
        row_last = ll * n  # read only when kk < ll, so never at the start
        for kk in range(n):
            if kk == ll or (kk < ll and not current[row_last + kk] and not current[kk * n + ll]):
                continue
            nxt = list(current)
            _mutate_flat(nxt, n, kk)
            nxt = tuple(nxt)
            seen.add(nxt)
            if len(seen) == size:
                continue
            size += 1
            path = seq + (kk + 1,)
            if bad(nxt, n, kk):
                return report(False, path)
            if len(path) < depth:
                frontier.append((nxt, path))
            else:
                complete = False
    return report(True, None, complete)


def _sign_skew_violation(state: FlatMatrix, n: int, kk: Optional[int]) -> bool:
    """Whether the flat n-by-n state is not sign-skew-symmetric, tested only
    where the step kk can break it.

    Step-local test for _search: state is μ_kk of a
    sign-skew-symmetric P, or the start when kk is None, which gets the
    full test.  Off row and column kk, μ_kk adds
    sgn(p_ik)*max(p_ik*p_kj, 0) to p_ij, which is nonzero only when
    p_ik != 0 and p_kj != 0.  P is sign-skew-symmetric, so p_ik != 0 iff
    p_ki != 0, and an entry off row and column kk changes only when both
    its indices lie in the support of row kk, the same in P and in state
    since row kk is only negated.  On the diagonal the addend is zero, as
    p_ik*p_ki <= 0.  The pairs (i, kk) and (kk, i) are negated together,
    which keeps them zero or of opposite signs, and p_kk = 0 keeps kk out
    of the support.  So the pairs inside the support are the only ones
    that can fail, and each is given the full pair test.
    """
    if kk is None:
        return not _sign_skew_rows(_rows(state, n))
    support = list(compress(range(n), state[kk * n:kk * n + n]))
    for a, i in enumerate(support, 1):
        row_i = i * n
        for j in support[a:]:
            x, y = state[row_i + j], state[j * n + i]
            if x * y >= 0 and (x or y):
                return True
    return False


def check_total_mutability(matrix: ExchangeMatrix, depth: int) -> MutabilityReport:
    """Exhaustively mutate to the given depth, checking sign-skew-symmetry.

    Each reachable matrix is checked once (see _search), after a step
    only at the pairs that step can change (_sign_skew_violation).  On
    failure the witness is a shortest violating sequence (breadth-first,
    smallest directions first).  complete means every matrix reachable by
    any sequence was checked.
    """
    return _search(matrix, _flat(matrix.entries), depth, _sign_skew_violation, MutabilityReport)


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


def format_json(value: object) -> str:
    """json.dumps(value, separators=(", ", ": ")), ints of any size through format_int.

    Lists, tuples and dicts with str keys are written here; anything else
    inside them (None, a bool, a str) goes to json.dumps.
    """
    if _is_int(value):
        return format_int(value)
    if isinstance(value, dict):
        items = (f"{json.dumps(k)}: {format_json(v)}" for k, v in value.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(format_json, value)) + "]"
    return json.dumps(value)


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
