"""Unit tests for unfolding truncations, orbit-mutation, and folding."""

from __future__ import annotations

import itertools
import random

import pytest

from quivermut import (
    ExchangeMatrix,
    FramedSeed,
    GammaViolationError,
    InteriorExhaustedError,
    LabeledQuiver,
    build_piece,
    build_truncation,
    check_gamma_conditions,
    extend,
    folding,
    folding_column,
    mutate,
    mutate_framed,
    orbit_mutate,
    orbit_sources,
    to_dot,
    verify_unfolding_commutation,
)
from quivermut import unfolding
from quivermut.unfolding import (
    _default_representative,
    _fold_rows,
    _gamma_witnesses,
    _replay,
    _shared_truncation,
)

from corpus import corpus_matrices, example_matrix, random_acyclic_connected

ONE = ExchangeMatrix([[0]])
TWO_LEAF = ExchangeMatrix([[0, 1], [-2, 0]])  # finite unfolding, label 2 twice
TREE_PATH = ExchangeMatrix([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])


def tiny_quiver(n_labels, labels, frozen, arrows, framed=False) -> LabeledQuiver:
    out = {i: {} for i in range(len(labels))}
    inn = {i: {} for i in range(len(labels))}
    for u, v in arrows:
        out[u][v] = out[u].get(v, 0) + 1
        inn[v][u] = inn[v].get(u, 0) + 1
    return LabeledQuiver(
        n_labels=n_labels,
        framed=framed,
        labels=tuple(labels),
        frozen=tuple(frozen),
        depths=tuple(0 for _ in labels),
        out=out,
        inn=inn,
        interior_radius=None,
    )


def adjacency_rows(quiver: LabeledQuiver) -> list[list[int]]:
    n = quiver.vertex_count
    return [[quiver.entry(i, j) for j in range(n)] for i in range(n)]


def matrix_level_orbit_mutation(quiver: LabeledQuiver, label: int) -> list[list[int]]:
    """Oracle: sequential vertex mutations of the full signed adjacency matrix.

    Uses the plain matrix mutation rule on the vertex-level adjacency, with
    entries between two frozen vertices zeroed after every step, exercising
    a completely different code path than the arrow-dict surgery.
    """
    current = ExchangeMatrix(tuple(map(tuple, adjacency_rows(quiver))))
    for t in quiver.mutable_ids(label):
        current = mutate(current, t + 1)
        rows = current.rows()
        for i in range(quiver.vertex_count):
            if not quiver.frozen[i]:
                continue
            for j in range(quiver.vertex_count):
                if quiver.frozen[j]:
                    rows[i][j] = 0
        current = ExchangeMatrix(tuple(map(tuple, rows)))
    return current.rows()


class TestBuildPiece:
    def test_example_center_1(self):
        piece = build_piece(example_matrix(), 1, framed=True)
        assert piece.vertex_count == 6
        labels = sorted(
            (piece.labels[v], piece.frozen[v]) for v in range(piece.vertex_count)
        )
        assert labels == [(1, False), (1, True), (2, False), (2, False), (2, False), (4, False)]
        # column 1 of the matrix is recovered at the center
        b_col, c_col = folding_column(piece, 1)
        assert b_col == (0, 3, 0, 1)
        assert c_col == (1, 0, 0, 0)

    def test_example_center_3(self):
        piece = build_piece(example_matrix(), 3, framed=True)
        assert piece.vertex_count == 6  # 1 + |b_23| + |b_43| + 1
        b_col, c_col = folding_column(piece, 3)
        assert b_col == (0, -1, 0, 3)
        assert c_col == (0, 0, 1, 0)

    def test_unframed_piece(self):
        piece = build_piece(example_matrix(), 1, framed=False)
        assert piece.vertex_count == 5
        assert piece.frozen_count == 0

    def test_zero_column(self):
        piece = build_piece(ExchangeMatrix([[0, 0], [0, 0]]), 1, framed=True)
        assert piece.vertex_count == 2
        assert piece.arrow_count == 1
        assert piece.is_complete

    def test_rejects_bad_center(self):
        with pytest.raises(IndexError):
            build_piece(example_matrix(), 5, framed=True)

    def test_rejects_cyclic(self):
        cyclic = ExchangeMatrix([[0, -1, 1], [1, 0, -1], [-1, 1, 0]])
        with pytest.raises(ValueError):
            build_piece(cyclic, 1, framed=True)

    def test_full_folding_requires_interior_reps(self):
        piece = build_piece(example_matrix(), 1, framed=True)
        with pytest.raises((InteriorExhaustedError, ValueError)):
            folding(piece)


class TestBuildTruncation:
    def test_one_by_one(self):
        for m in (1, 2, 5):
            quiver = build_truncation(ONE, m, framed=True)
            assert quiver.vertex_count == 2
            assert quiver.arrow_count == 1
            assert quiver.is_complete
            assert folding(quiver) == extend(ONE)

    def test_tree_stabilizes_to_framed_tree(self):
        quiver = build_truncation(TREE_PATH, 2, framed=True)
        assert quiver.is_complete
        assert quiver.mutable_count == 3 and quiver.frozen_count == 3
        assert all(len(quiver.mutable_ids(l)) == 1 for l in (1, 2, 3))
        assert folding(quiver) == extend(TREE_PATH)

    def test_two_leaf_finite_unfolding(self):
        quiver = build_truncation(TWO_LEAF, 2, framed=True)
        assert quiver.is_complete
        assert len(quiver.mutable_ids(2)) == 2
        assert folding(quiver) == extend(TWO_LEAF)

    def test_initial_multiplicities_are_one(self):
        quiver = build_truncation(example_matrix(), 3, framed=True)
        assert all(mult == 1 for _, _, mult in quiver.arrows())

    def test_mutable_part_is_a_tree(self):
        quiver = build_truncation(example_matrix(), 3, framed=False)
        n = quiver.vertex_count
        assert quiver.arrow_count == n - 1
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in list(quiver.out[v]) + list(quiver.inn[v]):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        assert len(seen) == n

    def test_interior_radius_budget(self):
        # deepest label of the running example first appears at depth 2
        quiver = build_truncation(example_matrix(), 2, framed=True)
        assert quiver.interior_radius == 2
        assert quiver.core_depth == 2
        assert quiver.can_fold
        thin = build_truncation(example_matrix(), 1, framed=True)
        assert not thin.can_fold
        with pytest.raises(InteriorExhaustedError):
            folding(thin)

    def test_prefix_property(self):
        small = build_truncation(example_matrix(), 2, framed=True)
        big = build_truncation(example_matrix(), 4, framed=True)
        n = small.vertex_count
        assert big.labels[:n] == small.labels
        assert big.frozen[:n] == small.frozen
        assert big.depths[:n] == small.depths

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            build_truncation(example_matrix(), 0, framed=True)

    def test_rejects_disconnected(self):
        blocks = ExchangeMatrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError, match="disconnected"):
            build_truncation(blocks, 2, framed=True)

    def test_each_call_returns_a_new_quiver(self):
        first = build_truncation(example_matrix(), 4, framed=True)
        second = build_truncation(example_matrix(), 4, framed=True)
        assert first == second
        assert first is not second
        assert first.out is not second.out and first.out[0] is not second.out[0]
        assert first.inn is not second.inn and first.inn[0] is not second.inn[0]

    def test_equality_compares_in_arrows(self):
        first = build_truncation(example_matrix(), 2)
        second = build_truncation(example_matrix(), 2)
        second.inn[1].clear()
        assert first.out == second.out and first.inn != second.inn
        assert first != second

    def test_writes_to_a_returned_quiver_change_no_later_result(self):
        build_truncation(example_matrix(), 4).out[0].clear()
        report = verify_unfolding_commutation(example_matrix(), (1,), 4)
        assert report.ok and report.first_divergence is None


class TestFolding:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_identity_on_example_matrix(self, m):
        quiver = build_truncation(example_matrix(), m, framed=True)
        assert folding(quiver) == extend(example_matrix())

    def test_identity_unframed(self):
        quiver = build_truncation(example_matrix(), 2, framed=False)
        assert folding(quiver) == example_matrix()

    def test_single_framed_vertex(self):
        quiver = build_truncation(ONE, 3, framed=True)
        seed = folding(quiver)
        assert isinstance(seed, FramedSeed)
        assert seed.b.entries == ((0,),) and seed.c == ((1,),)

    def test_explicit_representatives(self):
        quiver = build_truncation(TWO_LEAF, 2, framed=True)
        ids = quiver.mutable_ids(2)
        for rep in ids:
            seed = folding(quiver, {1: quiver.mutable_ids(1)[0], 2: rep})
            assert seed == extend(TWO_LEAF)

    def test_missing_label_rejected(self):
        quiver = build_truncation(example_matrix(), 2, framed=True)
        with pytest.raises(ValueError, match="representative"):
            folding(quiver, {1: 0})

    def test_non_interior_representative_rejected(self):
        quiver = build_truncation(example_matrix(), 2, framed=True)
        boundary = max(
            quiver.mutable_ids(4), key=lambda v: quiver.depths[v]
        )
        assert not quiver.is_interior(boundary)
        reps = {label: min(quiver.mutable_ids(label)) for label in (1, 2, 3)}
        reps[4] = boundary
        with pytest.raises(InteriorExhaustedError):
            folding(quiver, reps)

    @pytest.mark.parametrize("rep", [-4, 99, 1, 0])
    def test_folding_column_checks_representatives_like_folding(self, rep):
        # -4 and 99 are no vertex ids, 1 is a frozen copy, 0 has label 1
        quiver = build_truncation(TWO_LEAF, 2, framed=True)
        with pytest.raises(ValueError) as expected:
            folding(quiver, {1: 0, 2: rep})
        with pytest.raises(ValueError) as column:
            folding_column(quiver, 2, rep)
        assert str(column.value) == str(expected.value)
        assert type(column.value) is type(expected.value)


class TestOrbitMutate:
    def test_matches_framed_seed_mutation(self):
        for m in (4, 5):
            quiver = build_truncation(example_matrix(), m, framed=True)
            mutated = orbit_mutate(quiver, 1)
            assert folding(mutated) == mutate_framed(extend(example_matrix()), 1)

    def test_budget_m3_cannot_fold_after_one_step(self):
        quiver = orbit_mutate(build_truncation(example_matrix(), 3, framed=True), 1)
        with pytest.raises(InteriorExhaustedError):
            folding(quiver)

    def test_budget_exhaustion_blocks_mutation(self):
        quiver = build_truncation(example_matrix(), 2, framed=True)
        once = orbit_mutate(quiver, 1)
        assert once.interior_radius == 0
        with pytest.raises(InteriorExhaustedError):
            orbit_mutate(once, 2)

    def test_involution_is_exact_everywhere(self):
        quiver = build_truncation(example_matrix(), 4, framed=True)
        twice = orbit_mutate(orbit_mutate(quiver, 2), 2)
        assert twice.out == quiver.out
        assert twice.interior_radius == quiver.interior_radius - 4

    @pytest.mark.parametrize("label", [1, 2, 3, 4])
    def test_matrix_level_oracle_on_truncation(self, label):
        quiver = build_truncation(example_matrix(), 2, framed=True)
        mutated = orbit_mutate(quiver, label)
        assert adjacency_rows(mutated) == matrix_level_orbit_mutation(quiver, label)

    def test_matrix_level_oracle_on_finite_unfolding(self):
        quiver = build_truncation(TWO_LEAF, 2, framed=True)
        for label in (1, 2):
            mutated = orbit_mutate(quiver, label)
            assert adjacency_rows(mutated) == matrix_level_orbit_mutation(quiver, label)
        # leaf orbit on the complete quiver mutates both leaves at once
        assert orbit_mutate(orbit_mutate(quiver, 2), 2) == quiver

    def test_multiplicities_can_grow(self):
        quiver = build_truncation(example_matrix(), 6, framed=True)
        mutated = orbit_mutate(orbit_mutate(quiver, 2), 3)
        assert max(mult for _, _, mult in mutated.arrows()) == 4

    def test_gamma_violation_rejected(self):
        bad = tiny_quiver(2, [1, 1, 2], [False] * 3, [(0, 2), (2, 1)])
        with pytest.raises(GammaViolationError):
            orbit_mutate(bad, 2)

    def test_unknown_label_rejected(self):
        quiver = build_truncation(TWO_LEAF, 2, framed=True)
        with pytest.raises(IndexError):
            orbit_mutate(quiver, 3)


class TestGammaConditions:
    def test_truncations_are_clean(self):
        for m in (1, 2, 3, 4):
            report = check_gamma_conditions(build_truncation(example_matrix(), m, framed=True))
            assert report.ok

    def test_loop_detected(self):
        bad = tiny_quiver(1, [1, 1], [False, False], [(0, 1)])
        report = check_gamma_conditions(bad)
        assert not report.loop_free
        assert report.loop_witnesses == ((0, 1),)

    def test_two_cycle_detected(self):
        bad = tiny_quiver(2, [1, 2, 1], [False] * 3, [(0, 1), (1, 2)])
        report = check_gamma_conditions(bad)
        assert report.loop_free
        assert not report.two_cycle_free
        assert report.two_cycle_witnesses == ((0, 1, 2),)

    def test_frozen_copies_are_separate_classes(self):
        # mutable 1 -> mutable 2 -> frozen 1' is not a class 2-cycle
        quiver = tiny_quiver(
            2, [1, 2, 1], [False, False, True], [(0, 1), (1, 2)], framed=True
        )
        assert check_gamma_conditions(quiver).ok

    def test_witness_order(self):
        # arrows are inserted out of order, so the witnesses must be sorted:
        # loops by (source, target), 2-cycles u -> x -> w by (x, u, w)
        quiver = tiny_quiver(
            2,
            [1, 2, 1, 2, 1, 1, 1],
            [False] * 6 + [True],
            [(4, 5), (5, 3), (2, 1), (0, 1), (1, 5), (1, 4), (3, 2), (0, 4), (0, 2), (6, 1)],
            framed=True,
        )
        report = check_gamma_conditions(quiver)
        assert report.loop_witnesses == ((0, 2), (0, 4), (4, 5))
        assert report.two_cycle_witnesses == (
            (0, 1, 4), (0, 1, 5), (2, 1, 4), (2, 1, 5), (3, 2, 1), (5, 3, 2), (1, 5, 3),
        )
        with pytest.raises(GammaViolationError, match=(
            r"loops \[\(0, 2\), \(0, 4\), \(4, 5\)\], "
            r"label-class 2-cycles \[\(0, 1, 4\), \(0, 1, 5\), \(2, 1, 4\)\]$"
        )):
            orbit_mutate(quiver, 1)

    @pytest.mark.parametrize("framed", [True, False])
    @pytest.mark.parametrize("m", [2, 4])
    def test_fresh_random_truncations_are_clean(self, m, framed):
        # the replay skips the Γ scan before its first step on this ground
        rng = random.Random(0x6A44A)
        for n in [1, 2, 3, 4, 5] * 6:
            matrix = random_acyclic_connected(rng, n)
            quiver = build_truncation(matrix, m, framed=framed)
            assert check_gamma_conditions(quiver).ok, matrix


class TestOrbitSources:
    def test_fresh_example_truncation(self):
        quiver = build_truncation(example_matrix(), 2, framed=False)
        assert orbit_sources(quiver) == [1]

    def test_after_mutating_the_source(self):
        quiver = build_truncation(example_matrix(), 4, framed=False)
        assert orbit_sources(orbit_mutate(quiver, 1)) == [2]

    def test_framed_copies_do_not_block(self):
        quiver = build_truncation(example_matrix(), 2, framed=True)
        assert orbit_sources(quiver) == [1]

    def test_single_vertex(self):
        quiver = build_truncation(ONE, 2, framed=True)
        assert orbit_sources(quiver) == [1]

    def test_orbit_admissible_replay(self):
        # replaying the source numbering as orbit-mutations keeps producing
        # the next orbit-source
        quiver = build_truncation(example_matrix(), 8, framed=False)
        for k in (1, 2, 3):
            assert k in orbit_sources(quiver)
            quiver = orbit_mutate(quiver, k)
        assert 4 in orbit_sources(quiver)


class TestCommutations:
    def test_empty_sequence(self):
        report = verify_unfolding_commutation(example_matrix(), (), 2)
        assert report.ok and report.first_divergence is None

    def test_single_step(self):
        assert verify_unfolding_commutation(example_matrix(), (1,), 4).ok

    def test_three_steps(self):
        assert verify_unfolding_commutation(example_matrix(), (1, 2, 3), 8).ok

    def test_budget_precondition(self):
        with pytest.raises(InteriorExhaustedError, match="interior budget"):
            verify_unfolding_commutation(example_matrix(), (1, 2, 3), 7)

    def test_truncation_consistency_depth_zero_after_two_steps(self):
        # entries at shared vertices agree between truncation budgets m and m+2
        for seq in [(1,), (2,), (1, 2), (2, 3)]:
            small = build_truncation(example_matrix(), 4, framed=True)
            big = build_truncation(example_matrix(), 6, framed=True)
            for k in seq:
                small = orbit_mutate(small, k)
                big = orbit_mutate(big, k)
            radius = small.interior_radius
            shared = [
                v for v in range(small.vertex_count) if small.depths[v] <= radius
            ]
            for v in shared:
                small_arrows = {
                    u: m for u, m in small.out[v].items() if small.depths[u] <= radius
                }
                big_arrows = {
                    u: m for u, m in big.out[v].items() if big.depths[u] <= radius
                }
                assert small_arrows == big_arrows

    def test_one_step_agrees_on_whole_shared_ball(self):
        # through the first orbit-mutation the truncation matches the induced
        # subquiver of the mutated infinite quiver exactly
        small = orbit_mutate(build_truncation(example_matrix(), 2, framed=True), 2)
        big = orbit_mutate(build_truncation(example_matrix(), 4, framed=True), 2)
        n = small.vertex_count
        for v in range(n):
            assert {u: m for u, m in big.out[v].items() if u < n} == small.out[v]


class TestDotExport:
    def test_single_vertex_golden(self):
        quiver = build_truncation(ONE, 2, framed=True)
        assert to_dot(quiver) == (
            "digraph unfolding {\n"
            '  v0 [shape=ellipse, label="v0 (1)"];\n'
            '  v1 [shape=box, label="1′"];\n'
            "  v0 -> v1;\n"
            "}\n"
        )

    def test_multiplicity_attribute(self):
        quiver = orbit_mutate(
            orbit_mutate(build_truncation(example_matrix(), 6, framed=True), 2), 3
        )
        dot = to_dot(quiver)
        assert " [label=4];" in dot

    def test_deterministic(self):
        quiver = build_truncation(example_matrix(), 3, framed=True)
        assert to_dot(quiver) == to_dot(quiver)


class TestCorpusFoldings:
    def test_folding_identity_sample(self):
        for matrix in corpus_matrices()[:12]:
            quiver = build_truncation(matrix, 2, framed=True)
            assert folding(quiver) == extend(matrix)


def assert_structurally_valid(quiver: LabeledQuiver, fresh: bool) -> None:
    for u in range(quiver.vertex_count):
        for v, mult in quiver.out[u].items():
            assert u != v, "no loops"
            assert mult > 0
            assert u not in quiver.out[v], "no 2-cycles"
            assert quiver.inn[v][u] == mult, "in-index mirrors out-index"
            assert not (quiver.frozen[u] and quiver.frozen[v]), "no frozen-frozen arrows"
    if fresh and quiver.framed:
        for v in range(quiver.vertex_count):
            if quiver.frozen[v]:
                neighbors = set(quiver.out[v]) | set(quiver.inn[v])
                assert len(neighbors) == 1, "fresh frozen copies have one neighbor"


class TestStructuralInvariants:
    def test_fresh_truncations(self):
        assert_structurally_valid(
            build_truncation(example_matrix(), 3, framed=True), fresh=True
        )
        assert_structurally_valid(
            build_truncation(TWO_LEAF, 2, framed=True), fresh=True
        )

    def test_after_mutations(self):
        quiver = build_truncation(example_matrix(), 6, framed=True)
        for k in (1, 2, 3):
            quiver = orbit_mutate(quiver, k)
            assert_structurally_valid(quiver, fresh=False)


def full_length_sequences(n: int, length: int) -> list[tuple[int, ...]]:
    """Direction sequences of exactly this length without immediate repeats."""
    return [
        seq
        for seq in itertools.product(range(1, n + 1), repeat=length)
        if all(a != b for a, b in zip(seq, seq[1:]))
    ]


def check_replay_against_orbit_mutate(matrix, m, max_len, monkeypatch) -> int:
    """Drive the trusted-ball replay along every pruned sequence of length
    <= max_len and compare each state with whole-truncation orbit_mutate.

    Every interior vertex must have exactly the reference's out- and
    in-arrows, the fold must agree, and each Γ verdict the replay takes
    must equal the full interior scan of the reference.  Shorter sequences
    are the prefixes the longer replays pass through.  Returns the number
    of states compared.
    """
    verdicts = []

    def recording_gamma_witnesses(*args):
        witnesses = list(_gamma_witnesses(*args))
        verdicts.append(not witnesses)
        return iter(witnesses)

    monkeypatch.setattr(unfolding, "_gamma_witnesses", recording_gamma_witnesses)
    base = build_truncation(matrix, m, framed=True)
    reps = [_default_representative(base, label) for label in range(1, matrix.n + 1)]
    reference = {(): base}
    compared = 0
    for seq in full_length_sequences(matrix.n, max_len):
        # the references first, so that only the replay's verdicts are recorded
        for step in range(1, len(seq) + 1):
            prefix = seq[:step]
            if prefix not in reference:
                reference[prefix] = orbit_mutate(reference[prefix[:-1]], prefix[-1])
        expected = [
            check_gamma_conditions(reference[seq[:step]], interior_only=True).ok
            for step in range(len(seq))
        ]
        verdicts.clear()
        for step, out, inn, radius in _replay(base, seq):
            ref = reference[seq[:step]]
            assert radius == ref.interior_radius
            if step:
                # the verdict taken on the previous state, before this step
                assert verdicts[step - 1] == expected[step - 1]
            for v in range(base.vertex_count):
                if ref.is_interior(v):
                    assert out[v] == ref.out[v], (seq, step, v)
                    assert inn[v] == ref.inn[v], (seq, step, v)
            folded = folding(ref)
            assert _fold_rows(base, out, inn, reps) == (folded.b.entries, folded.c)
            compared += 1
    return compared


class TestTrustedBallReplay:
    """The replay inside verify_unfolding_commutation against orbit_mutate.

    The replay mutates only label-k vertices at depth <= radius + 1; these
    tests hold it to the whole-truncation reference on every interior
    vertex, which is what the margin argument in its docstring claims.
    """

    def test_interior_matches_orbit_mutate_on_corpus(self, monkeypatch):
        compared = 0
        for matrix in corpus_matrices()[1:]:
            compared += check_replay_against_orbit_mutate(matrix, 8, 3, monkeypatch)
        # 15 n=2, 15 n=3 and 20 n=4 matrices with 2, 12 and 36 sequences of
        # length 3, each passing through 4 states
        assert compared == (15 * 2 + 15 * 12 + 20 * 36) * 4

    def test_interior_matches_orbit_mutate_on_example(self, monkeypatch):
        assert check_replay_against_orbit_mutate(example_matrix(), 6, 2, monkeypatch) == 12 * 3

    def test_gamma_verdict_on_hand_built_violations(self):
        loop = tiny_quiver(1, [1, 1], [False, False], [(0, 1)])
        two_cycle = tiny_quiver(2, [1, 2, 1], [False] * 3, [(0, 1), (1, 2)])
        separate = tiny_quiver(
            2, [1, 2, 1], [False, False, True], [(0, 1), (1, 2)], framed=True
        )
        for quiver, ok in ((loop, False), (two_cycle, False), (separate, True)):
            witnesses = _gamma_witnesses(
                quiver, quiver.out, quiver.inn, range(quiver.vertex_count), None
            )
            verdict = next(witnesses, None) is None
            assert verdict is ok is check_gamma_conditions(quiver).ok

    def test_gamma_violation_created_by_a_step(self):
        # mutating label 2 at vertex 1 adds 0 -> 2, closing 0 -> 2 -> 3 on label 1;
        # only the vertices the step touched are rescanned, and that must catch it
        quiver = tiny_quiver(3, [1, 2, 3, 1], [False] * 4, [(0, 1), (1, 2), (2, 3)])
        assert check_gamma_conditions(quiver).ok
        with pytest.raises(GammaViolationError) as expected:
            orbit_mutate(orbit_mutate(quiver, 2), 3)
        with pytest.raises(GammaViolationError) as replayed:
            list(_replay(quiver, (2, 3)))
        assert str(replayed.value) == str(expected.value)

    def test_replay_never_writes_the_cached_truncation(self):
        matrices = [example_matrix()] + corpus_matrices()[1:51:10]
        for matrix in matrices:
            for seq in full_length_sequences(matrix.n, 3)[:6]:
                assert verify_unfolding_commutation(matrix, seq, 8).ok
            cached = _shared_truncation(matrix, 8)
            cold = build_truncation(matrix, 8, framed=True)
            assert cached == cold
            assert cached.inn == cold.inn

    def test_bad_direction_raises_like_orbit_mutate(self):
        quiver = build_truncation(example_matrix(), 6, framed=True)
        for seq in ((1, 5), (True,)):
            with pytest.raises(IndexError) as expected:
                orbit_mutate(quiver, seq[-1])
            with pytest.raises(IndexError) as replayed:
                verify_unfolding_commutation(example_matrix(), seq, 6)
            assert str(replayed.value) == str(expected.value)


class TestRepresentatives:
    @pytest.mark.parametrize("m", [2, 3, 4, 8])
    def test_mutable_ids_come_in_depth_order(self, m):
        # the default representative and the replay's bisect both rely on it
        for matrix in corpus_matrices():
            quiver = build_truncation(matrix, m, framed=True)
            for label in range(1, matrix.n + 1):
                ids = quiver.mutable_ids(label)
                depths = [quiver.depths[v] for v in ids]
                assert list(ids) == sorted(ids)
                assert depths == sorted(depths)
                assert _default_representative(quiver, label) == min(
                    ids, key=lambda v: (quiver.depths[v], v)
                )
