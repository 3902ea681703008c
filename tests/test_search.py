"""The exhaustive searches: the shared breadth-first search and the green walk.

check_total_mutability and check_sign_coherence test each reachable state
once.  A reference that enumerates every sequence, skipping none for its
end state, must give the same witness; completeness is checked against the
finite-type classification in rank 2 (Fomin-Zelevinsky, "Cluster algebras
II", 2003).  The step-local tests they apply after a step must answer as
the full tests do, and brute_force_green_search, pruned by its green-count
bound, must list what the unpruned walk lists, already sorted.  Both checks
share one front end, matrices._search, which must give the verdicts of the
two wrappers around the search loop that it replaced.
"""

from __future__ import annotations

import random
from collections import Counter, deque

import pytest

from quivermut import (
    CoherenceReport,
    ExchangeMatrix,
    FramedSeed,
    MutabilityReport,
    brute_force_green_search,
    check_sign_coherence,
    check_total_mutability,
    extend,
    is_sign_skew_symmetric,
    mutate,
    mutate_framed,
)
from quivermut.matrices import _flat, _mutate_flat, _rows, _sign_skew_violation
from quivermut.seeds import _mixed_column

from corpus import corpus_matrices, example_matrix, random_acyclic_connected, random_sign_skew
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
    return mixed_rows(seed.b.entries + seed.c)


def mixed_rows(rows) -> bool:
    """Whether C of rows = [B; C] has a column with a positive and a negative entry."""
    return any(
        any(x > 0 for x in column) and any(x < 0 for x in column)
        for column in zip(*rows[len(rows[0]):])
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


def not_sign_skew_rows(rows) -> bool:
    return not is_sign_skew_symmetric(ExchangeMatrix(rows))


def stepped(state, n, kk):
    """The flat state mutated in direction kk, as a new tuple: _mutate_flat
    steps a list in place."""
    out = list(state)
    _mutate_flat(out, n, kk)
    return tuple(out)


def test_step_local_tests_match_full_tests():
    # Every state within depth 3 whose parent passes the full test, in
    # every direction: the step-local test sees only what the step changed,
    # and must still give the full test's verdict.  The states are flat
    # (_flat); the full tests read them back as rows.
    rng = random.Random(DIFFERENTIAL_SEED + 3)
    verdicts: Counter = Counter()
    for _ in range(CASES):
        matrix = random_sign_skew(rng, rng.randint(2, 5))  # cyclic ones included
        n = matrix.n
        c = random_c(rng, n)
        for start, local, full_rows in (
            (matrix.entries, _sign_skew_violation, not_sign_skew_rows),
            (matrix.entries + c, _mixed_column, mixed_rows),
        ):
            def full(state):
                return full_rows(_rows(state, n))

            start = _flat(start)
            assert local(start, n, None) == full(start)
            level = [start]
            for _ in range(3):
                parents, level = level, []
                for parent in parents:
                    if full(parent):
                        continue
                    for kk in range(n):
                        child = stepped(parent, n, kk)
                        verdict = full(child)
                        assert local(child, n, kk) == verdict, (parent, kk)
                        verdicts[local.__name__, verdict] += 1
                        level.append(child)
    assert min(verdicts.values()) >= 500, verdicts


def reference_green_search(seed: FramedSeed, max_len: int, step=_mutate_flat):
    """(sequence, C-matrices) of each maximal green sequence of length <= max_len, sorted.

    The walk without the green-count bound: every green direction is
    followed until max_len steps.  It steps the flat [B; C] and reads
    greens off the rows.
    """
    n = seed.n
    found = []

    def walk(state, seq, cs):
        c = _rows(state, n)[n:]
        greens = [jj for jj, col in enumerate(zip(*c)) if min(col) >= 0 and max(col) > 0]
        if not greens:
            found.append((seq, cs + (c,)))
            return
        if len(seq) == max_len:
            return
        for kk in greens:
            nxt = list(state)
            step(nxt, n, kk)
            walk(nxt, seq + (kk + 1,), cs + (c,))

    walk(_flat(seed.b.entries + seed.c), (), ())
    return sorted(found)


def test_green_bound_matches_unpruned_walk():
    # Every bound from 1 to n + 3 on the corpus (C = I) and on random
    # seeds whose C is the identity, one-signed columns or any signs.
    rng = random.Random(DIFFERENTIAL_SEED + 4)
    seeds_checked = [extend(matrix) for matrix in corpus_matrices()]
    for _ in range(240):
        matrix = random_sign_skew(rng, rng.randint(1, 4))
        seeds_checked.append(FramedSeed(matrix, random_c(rng, matrix.n)))
    found = lengths = 0
    for seed in seeds_checked:
        for max_len in range(1, seed.n + 4):
            expected = reference_green_search(seed, max_len)
            got = [(r.sequence, r.step_c_matrices) for r in brute_force_green_search(seed, max_len)]
            assert got == expected, (seed, max_len)
        found += len(expected)
        lengths += any(len(seq) > seed.n for seq, _ in expected)
    assert found >= 500 and lengths >= 10, (found, lengths)


def test_green_bound_prunes_the_running_example(monkeypatch):
    seed = extend(example_matrix())
    calls = Counter()

    def counted(name):
        def step(state, n, kk):
            calls[name] += 1
            return _mutate_flat(state, n, kk)
        return step

    expected = reference_green_search(seed, 4, counted("reference"))
    monkeypatch.setattr("quivermut.seeds._mutate_flat", counted("pruned"))
    got = [(r.sequence, r.step_c_matrices) for r in brute_force_green_search(seed, 4)]
    assert got == expected
    assert calls["pruned"] < calls["reference"], calls


def first_violation(start, n, depth, bad):
    """(witness, complete): the search loop before the two checks shared a front end.

    A copy kept as the oracle of _search: the same breadth-first order,
    the same pruned back-mutation and commuting successors, and the same
    step-local bad test, on flat states read back as rows for the
    commuting-successor test.
    """
    if bad(start, n, None):
        return (), False
    seen = {start}
    size = 1
    frontier = deque([(start, ())])
    complete = True
    while frontier:
        current, seq = frontier.popleft()
        rows = _rows(current, n)
        last = seq[-1] if seq else 0
        row_last = rows[last - 1]
        for k in range(1, n + 1):
            if k == last or (k < last and not row_last[k - 1] and not rows[k - 1][last - 1]):
                continue
            nxt = stepped(current, n, k - 1)
            seen.add(nxt)
            if len(seen) == size:
                continue
            size += 1
            path = seq + (k,)
            if bad(nxt, n, k - 1):
                return path, False
            if len(path) < depth:
                frontier.append((nxt, path))
            else:
                complete = False
    return None, complete


def old_total_mutability(matrix: ExchangeMatrix, depth: int) -> MutabilityReport:
    witness, complete = first_violation(_flat(matrix.entries), matrix.n, depth,
                                        _sign_skew_violation)
    return MutabilityReport(ok=witness is None, counterexample=witness, complete=complete)


def old_sign_coherence(seed: FramedSeed, depth: int) -> CoherenceReport:
    witness, complete = first_violation(_flat(seed.b.entries + seed.c), seed.n, depth,
                                        _mixed_column)
    return CoherenceReport(ok=witness is None, counterexample=witness, complete=complete)


MIXED = ExchangeMatrix([[0, -3, 1], [1, 0, -3], [-3, 1, 0]])  # cyclic, sign-skew-symmetric


def test_one_front_end_gives_the_verdicts_of_the_two_wrappers():
    rng = random.Random(DIFFERENTIAL_SEED + 5)
    matrices = corpus_matrices() + [MIXED]
    matrices += [random_sign_skew(rng, n) for n in (3, 4) for _ in range(60)]
    witnesses: Counter = Counter()
    for matrix in matrices:
        seed = extend(matrix)
        for depth in range(1, 5):
            for check, old, arg in ((check_total_mutability, old_total_mutability, matrix),
                                    (check_sign_coherence, old_sign_coherence, seed)):
                report, expected = check(arg, depth), old(arg, depth)
                # class-based equality: the same type, witness and complete
                assert report == expected, (matrix, depth)
                witnesses[check.__name__] += not report.ok
    assert min(witnesses.values()) >= 10, witnesses


def test_both_searches_refuse_the_depth_before_the_matrix():
    nss = ExchangeMatrix([[0, 1], [1, 0]])
    depth_message = r"^search depth must be a positive integer, got 0$"
    with pytest.raises(ValueError, match=depth_message):
        check_total_mutability(nss, 0)
    with pytest.raises(ValueError, match=depth_message):
        check_sign_coherence(FramedSeed(nss, ((1, 0), (0, 1))), 0)
    with pytest.raises(ValueError, match=r"^input matrix is not sign-skew-symmetric$"):
        check_sign_coherence(FramedSeed(nss, ((1, 0), (0, 1))), 1)


def test_coherence_verdict_keeps_its_own_name():
    report = check_sign_coherence(extend(MIXED), 3)
    assert repr(report).startswith("CoherenceReport(")
    assert report == CoherenceReport(False, (1, 2, 3))
    assert isinstance(report, MutabilityReport)
    assert CoherenceReport(True, None) != MutabilityReport(True, None)
    assert MutabilityReport(True, None) != CoherenceReport(True, None)


def test_green_search_results_come_out_sorted():
    for matrix in corpus_matrices():
        sequences = [r.sequence for r in brute_force_green_search(extend(matrix), matrix.n + 2)]
        assert sequences == sorted(sequences) and len(set(sequences)) == len(sequences), matrix
