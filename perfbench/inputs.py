"""Seeded input generators and independent reference computations.

Nothing here imports quivermut: the generators only build plain integer
rows, and the reference computations (source numbering, framed mutation,
truncation ring sizes) are written independently of the library so that
the workload checks are not the library checking itself.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from typing import Optional

Rows = tuple[tuple[int, ...], ...]

# The 4x4 running example: acyclic, sign-skew-symmetric, not symmetrizable.
EXAMPLE_ROWS: Rows = (
    (0, -1, 0, -1),
    (3, 0, -1, 0),
    (0, 5, 0, -2),
    (1, 0, 3, 0),
)


def random_acyclic(rng: random.Random, n: int, column_cap: int = 3) -> Rows:
    """Random acyclic sign-skew-symmetric rows with a connected nonzero pattern.

    Edges follow a random total order, so the matrix is acyclic by
    construction; entry magnitudes are drawn against a per-column weight
    budget (the test corpus's style) so that unfoldings branch boundedly.
    """
    while True:
        order = list(range(n))
        rng.shuffle(order)
        pairs = [(order[a], order[b]) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < 0.7]
        if n > 1 and not _connected(n, pairs):
            continue
        rows = [[0] * n for _ in range(n)]
        budget = [column_cap] * n
        for u, v in pairs:
            if budget[u] < 1 or budget[v] < 1:
                break
            p = rng.randint(1, min(3, budget[v]))
            q = rng.randint(1, min(3, budget[u]))
            rows[u][v], rows[v][u] = -p, q
            budget[v] -= p
            budget[u] -= q
        else:
            return tuple(tuple(row) for row in rows)


def _connected(n: int, pairs: list[tuple[int, int]]) -> bool:
    adjacent: dict[int, set[int]] = {i: set() for i in range(n)}
    for u, v in pairs:
        adjacent[u].add(v)
        adjacent[v].add(u)
    seen, stack = {0}, [0]
    while stack:
        for j in adjacent[stack.pop()] - seen:
            seen.add(j)
            stack.append(j)
    return len(seen) == n


def pruned_sequences(n: int, max_len: int) -> list[tuple[int, ...]]:
    """Direction sequences of length <= max_len without immediate repeats, by length."""
    out = [()]
    level = [()]
    for _ in range(max_len):
        level = [s + (k,) for s in level for k in range(1, n + 1) if not s or s[-1] != k]
        out.extend(level)
    return out


def pruned_count(n: int, max_len: int) -> int:
    """Closed form for len(pruned_sequences(n, max_len)): 1 + sum n*(n-1)**(l-1)."""
    return 1 + sum(n * (n - 1) ** (length - 1) for length in range(1, max_len + 1))


def random_pruned_sequence(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    seq: list[int] = []
    while len(seq) < length:
        k = rng.randint(1, n)
        if not seq or seq[-1] != k:
            seq.append(k)
    return tuple(seq)


def log_uniform_strata(rng: random.Random, top: int, count: int) -> list[int]:
    """`count` integers in [1, top], one per log-uniform stratum, in seeded order.

    Stratifying keeps the total length of every block of `count` draws
    nearly the same for every seed, while the top stratum still reaches
    `top`.
    """
    strata = list(range(count))
    rng.shuffle(strata)
    return [max(1, round(top ** ((s + rng.random()) / count))) for s in strata]


def source_numbering(rows: Rows) -> tuple[int, ...]:
    """Admissible source numbering, smallest source first (1-based)."""
    remaining = list(range(len(rows)))
    order = []
    while remaining:
        source = min(i for i in remaining if all(rows[i][j] <= 0 for j in remaining))
        order.append(source + 1)
        remaining.remove(source)
    return tuple(order)


def reference_mutate_framed(b: list[list[int]], c: list[list[int]], k: int) -> tuple[list, list]:
    """Framed mutation in direction k (1-based) in the [x]_+ form of the rule."""
    kk = k - 1
    n = len(b)

    def pos(x: int) -> int:
        return x if x > 0 else 0

    new_b = [
        [
            -b[i][j] if kk in (i, j)
            else b[i][j] + pos(b[i][kk]) * pos(b[kk][j]) - pos(-b[i][kk]) * pos(-b[kk][j])
            for j in range(n)
        ]
        for i in range(n)
    ]
    new_c = [
        [
            -c[i][j] if j == kk
            else c[i][j] + pos(c[i][kk]) * pos(b[kk][j]) - pos(-c[i][kk]) * pos(-b[kk][j])
            for j in range(n)
        ]
        for i in range(len(c))
    ]
    return new_b, new_c


def reference_apply(rows: Rows, directions) -> tuple[list, list]:
    n = len(rows)
    b = [list(row) for row in rows]
    c = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in directions:
        b, c = reference_mutate_framed(b, c, k)
    return b, c


def symmetrizer_ok(rows: Rows, diag: Optional[list[int]]) -> bool:
    """Whether diag is a positive symmetrizer: d_i*b_ij == -d_j*b_ji for all i, j."""
    if diag is None:
        return False
    n = len(rows)
    return len(diag) == n and all(d > 0 for d in diag) and all(
        diag[i] * rows[i][j] == -diag[j] * rows[j][i] for i in range(n) for j in range(n)
    )


def truncation_rings(rows: Rows, m: int, framed: bool = True) -> tuple[tuple[int, ...], bool]:
    """Vertices per depth ring of the budget-m truncation, and whether it is complete.

    The unfolding is a tree glued from neighborhood pieces, so a vertex of
    label i reached from a parent of label p gets |b_ji| children of label
    j, one fewer for j == p (the shared arrow).  Rings are expanded out to
    radius d* + m - 1 (at least 1), d* being the largest label distance
    from label 1; in the framed case every expanded vertex also carries a
    frozen copy at its own depth.
    """
    n = len(rows)
    dist = {0: 0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in range(n):
            if j not in dist and (rows[i][j] or rows[j][i]):
                dist[j] = dist[i] + 1
                queue.append(j)
    radius = max(1, max(dist.values()) + m - 1)
    ring: Counter = Counter({(0, -1): 1})  # (label, parent label) -> vertex count
    sizes = []
    for _ in range(radius):
        nxt: Counter = Counter()
        for (i, parent), count in ring.items():
            for j in range(n):
                if j != i and rows[j][i]:
                    children = abs(rows[j][i]) - (j == parent)
                    if children:
                        nxt[(j, i)] += count * children
        sizes.append(sum(ring.values()) * (2 if framed else 1))
        if not nxt:
            return tuple(sizes), True
        ring = nxt
    sizes.append(sum(ring.values()))
    return tuple(sizes), False


def max_entry_bits(*matrices) -> int:
    return max(abs(x).bit_length() for matrix in matrices for row in matrix for x in row)


def exceeds_str_digits(value: int, digits: int) -> bool:
    """Whether str(value) would need more than `digits` decimal digits (sign excluded)."""
    return abs(value) >= 10 ** digits
