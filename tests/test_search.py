"""The shared breadth-first search behind both exhaustive checks.

check_total_mutability and check_sign_coherence test each reachable state
once.  A reference that enumerates every sequence, skipping none for its
end state, must give the same witness; completeness is checked against the
finite-type classification in rank 2 (Fomin-Zelevinsky, "Cluster algebras
II", 2003).
"""

from __future__ import annotations

import random

import pytest

from quivermut import (
    CoherenceReport,
    ExchangeMatrix,
    FramedSeed,
    MutabilityReport,
    check_sign_coherence,
    check_total_mutability,
    extend,
    is_sign_skew_symmetric,
    mutate,
    mutate_framed,
)

from corpus import random_acyclic_connected, random_sign_skew
from test_seeds import exact_det

DIFFERENTIAL_SEED = 0x5EA4C4
CASES = 500


def reference_search(start, n, depth, step, bad):
    """(witness, complete) from every sequence of length <= depth.

    Sequences run breadth-first, directions ascending, immediate
    back-mutations pruned, and none is skipped for ending at a state seen
    before.  Without a witness the search is complete when the sequences
    of length depth end only at states that shorter sequences already
    reach: that set is then closed under mutation.
    """
    if bad(start):
        return (), False
    shorter: set = set()
    level = [((), start)]
    for _ in range(depth):
        shorter.update(state for _, state in level)
        level = [
            (seq + (k,), step(state, k))
            for seq, state in level
            for k in range(1, n + 1)
            if not seq or seq[-1] != k
        ]
        for seq, state in level:
            if bad(state):
                return seq, False
    return None, all(state in shorter for _, state in level)


def has_mixed_column(seed: FramedSeed) -> bool:
    return any(
        any(x > 0 for x in column) and any(x < 0 for x in column)
        for column in zip(*seed.c)
    )


def random_matrix(rng: random.Random) -> ExchangeMatrix:
    n = rng.randint(1, 4)
    if rng.random() < 0.3:
        return random_acyclic_connected(rng, n)
    return random_sign_skew(rng, n)  # cyclic ones included


def random_c(rng: random.Random, n: int) -> tuple[tuple[int, ...], ...]:
    """Identity, columns of one sign each, or entries of any sign."""
    kind = rng.randrange(3)
    if kind == 0:
        return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    if kind == 1:
        signs = [rng.choice((-1, 1)) for _ in range(n)]
        return tuple(tuple(signs[j] * rng.randint(0, 2) for j in range(n)) for _ in range(n))
    return tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n))


def test_total_mutability_matches_sequence_reference():
    rng = random.Random(DIFFERENTIAL_SEED)
    deep_witnesses = 0
    for _ in range(CASES):
        matrix = random_matrix(rng)
        for depth in range(1, 5):
            expected = reference_search(
                matrix, matrix.n, depth, mutate, lambda m: not is_sign_skew_symmetric(m)
            )
            report = check_total_mutability(matrix, depth)
            assert (report.counterexample, report.complete) == expected, (matrix, depth)
            assert report.ok == (expected[0] is None)
            deep_witnesses += expected[0] is not None and len(expected[0]) >= 2
    assert deep_witnesses >= 10


def test_sign_coherence_matches_sequence_reference():
    rng = random.Random(DIFFERENTIAL_SEED + 1)
    deep_witnesses = complete = 0
    for _ in range(CASES):
        matrix = random_matrix(rng)
        seed = FramedSeed(matrix, random_c(rng, matrix.n))
        for depth in range(1, 5):
            expected = reference_search(seed, seed.n, depth, mutate_framed, has_mixed_column)
            report = check_sign_coherence(seed, depth)
            assert (report.counterexample, report.complete) == expected, (seed, depth)
            assert report.ok == (expected[0] is None)
            deep_witnesses += expected[0] is not None and len(expected[0]) >= 2
            complete += report.complete
    assert deep_witnesses >= 20 and complete >= 20


def test_c_determinant_is_unit_at_every_reference_state():
    # A state the reference steps from has no mixed column (it stops at the
    # first level with one), and mutating a seed whose column k of C is
    # sign-coherent negates det C (see TestDeterminantGuard in test_seeds.py).
    # From C = I, every state the search reaches then has det C = +-1.
    rng = random.Random(DIFFERENTIAL_SEED + 2)
    states = 0

    def checked_step(seed, k):
        nonlocal states
        mutated = mutate_framed(seed, k)
        det = exact_det(mutated.c)
        assert det == -exact_det(seed.c)
        assert det in (1, -1)
        states += 1
        return mutated

    for _ in range(CASES // 5):
        seed = extend(random_matrix(rng))
        expected = reference_search(seed, seed.n, 4, checked_step, has_mixed_column)
        assert check_sign_coherence(seed, 4).counterexample == expected[0]
    assert states >= 4000


@pytest.mark.parametrize(
    "a, b, finite",
    [(1, 1, True), (1, 2, True), (2, 1, True), (1, 3, True), (3, 1, True),
     (2, 2, False), (1, 4, False), (4, 1, False), (2, 3, False)],
)
def test_rank2_coherence_complete_iff_finite_type(a, b, finite):
    # B = [[0, a], [-b, 0]] is of finite type (A2, B2, G2) iff a*b <= 3; its
    # exchange graph of framed seeds (B, C) is then a cycle of at most 10
    # seeds, and otherwise an infinite path.
    report = check_sign_coherence(extend(ExchangeMatrix([[0, a], [-b, 0]])), 12)
    assert report.ok
    assert report.complete is finite


@pytest.mark.parametrize("a, b, seeds", [(1, 1, 10), (1, 2, 6), (2, 1, 6), (1, 3, 8), (3, 1, 8)])
def test_rank2_coherence_complete_from_half_the_cycle(a, b, seeds):
    # On a cycle of s seeds the farthest lies s/2 steps away; it is first
    # reached at length s/2, so the search is complete from depth s/2 + 1.
    seed = extend(ExchangeMatrix([[0, a], [-b, 0]]))
    assert not check_sign_coherence(seed, seeds // 2).complete
    assert check_sign_coherence(seed, seeds // 2 + 1).complete


@pytest.mark.parametrize("a, b", [(1, 1), (2, 2), (1, 4), (5, 3)])
def test_rank2_total_mutability_complete_from_depth_2(a, b):
    # Mutation in either direction negates a nonzero rank-2 B, so B and -B
    # are all there is, and -B is first reached at length 1.
    matrix = ExchangeMatrix([[0, a], [-b, 0]])
    assert not check_total_mutability(matrix, 1).complete
    for depth in (2, 3, 7):
        assert check_total_mutability(matrix, depth).complete


def test_zero_matrix_complete_at_depth_1():
    # Every mutation of the zero matrix is the zero matrix itself.
    report = check_total_mutability(ExchangeMatrix([[0, 0], [0, 0]]), 1)
    assert report.ok and report.complete


def test_reports_default_to_incomplete():
    assert not CoherenceReport(ok=True, counterexample=None).complete
    assert not MutabilityReport(ok=True, counterexample=None).complete
