"""Unit tests for unfolding truncations, orbit-mutation, and folding."""

from __future__ import annotations

import copy
import hashlib
import itertools
import random
import re

import pytest

from quivermut import (
    CommutationReport,
    ExchangeMatrix,
    FramedSeed,
    GammaReport,
    GammaViolationError,
    InteriorExhaustedError,
    LabeledQuiver,
    apply_sequence_framed,
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
    source_mgs,
    to_dot,
    verify_unfolding_commutation,
)
from quivermut import unfolding
from quivermut.unfolding import (
    _representative as _default_representative,
    _ball_limits,
    _count_rings,
    _fold_rows,
    _gamma_witnesses,
    _glue,
    _mutate_vertex,
    _replay,
    _tree_dot,
    _truncation_counts,
)

from corpus import EXAMPLE_ROWS, corpus_matrices, example_matrix, random_acyclic_connected
from test_acceptance import _vertex_column_sign

ONE = ExchangeMatrix([[0]])
TWO_LEAF = ExchangeMatrix([[0, 1], [-2, 0]])  # finite unfolding, label 2 twice
TREE_PATH = ExchangeMatrix([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])


def interior_vertices(quiver: LabeledQuiver) -> list[int]:
    """Every vertex within the interior radius: each label's interior mutable
    vertices (_interior_ids), then the frozen ones."""
    radius = quiver.interior_radius
    return [v for k in quiver.present_labels() for v in quiver._interior_ids(k)] + [
        v for v, (is_frozen, depth) in enumerate(zip(quiver.frozen, quiver.depths))
        if is_frozen and (radius is None or depth <= radius)]


def tiny_quiver(
    n_labels, labels, frozen, arrows, framed=False, depths=None, interior_radius=None
) -> LabeledQuiver:
    adj = [{} for _ in labels]
    for u, v in arrows:
        adj[u][v] = adj[u].get(v, 0) + 1
        adj[v][u] = -adj[u][v]
    return LabeledQuiver(
        n_labels=n_labels,
        framed=framed,
        labels=tuple(labels),
        frozen=tuple(frozen),
        depths=tuple(depths) if depths is not None else tuple(0 for _ in labels),
        adj=adj,
        interior_radius=interior_radius,
    )


def renumbered(quiver: LabeledQuiver, rng: random.Random) -> LabeledQuiver:
    """The quiver with its vertex ids permuted by a shuffle drawn from rng."""
    new_id = list(range(quiver.vertex_count))
    rng.shuffle(new_id)
    old_id = sorted(range(quiver.vertex_count), key=new_id.__getitem__)

    def moved(adjacency):
        return [{new_id[w]: m for w, m in adjacency[u].items()} for u in old_id]

    return LabeledQuiver(
        n_labels=quiver.n_labels,
        framed=quiver.framed,
        labels=tuple(quiver.labels[v] for v in old_id),
        frozen=tuple(quiver.frozen[v] for v in old_id),
        depths=tuple(quiver.depths[v] for v in old_id),
        adj=moved(quiver.adj),
        interior_radius=quiver.interior_radius,
    )


def adjacency_rows(quiver: LabeledQuiver) -> list[list[int]]:
    n = quiver.vertex_count
    return [[quiver.entry(i, j) for j in range(n)] for i in range(n)]


def signed_vertex_mutation(rows, frozen, t: int) -> list[list[int]]:
    """Plain matrix mutation of a signed adjacency at vertex t, then entries
    between two frozen vertices zeroed."""
    rows = mutate(ExchangeMatrix(tuple(map(tuple, rows))), t + 1).rows()
    for i, row in enumerate(rows):
        if frozen[i]:
            for j in range(len(row)):
                if frozen[j]:
                    row[j] = 0
    return rows


def matrix_level_orbit_mutation(quiver: LabeledQuiver, label: int) -> list[list[int]]:
    """Oracle: sequential vertex mutations of the full signed adjacency matrix.

    Uses the plain matrix mutation rule on the vertex-level adjacency, with
    entries between two frozen vertices zeroed after every step, exercising
    a completely different code path than the arrow-dict surgery.
    """
    rows = adjacency_rows(quiver)
    for t in quiver.mutable_ids(label):
        rows = signed_vertex_mutation(rows, quiver.frozen, t)
    return rows


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
            for u in quiver.adj[v]:
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
        assert first.adj is not second.adj and first.adj[0] is not second.adj[0]

    def test_equality_compares_in_arrows(self):
        first = build_truncation(example_matrix(), 2)
        second = build_truncation(example_matrix(), 2)
        # drop vertex 1's in-arrows, its negative entries, and keep its out-arrows
        second.adj[1] = {u: mult for u, mult in second.adj[1].items() if mult > 0}
        assert first.adj[1] != second.adj[1]
        assert first != second

    def test_writes_to_a_returned_quiver_change_no_later_result(self):
        build_truncation(example_matrix(), 4).adj[0].clear()
        report = verify_unfolding_commutation(example_matrix(), (1,), 4)
        assert report.ok and report.first_divergence is None

    @pytest.mark.parametrize("framed", [True, False])
    def test_vertex_count_is_predicted_exactly_before_building(self, monkeypatch, framed):
        builds = [(matrix, m) for matrix in corpus_matrices()[::5] for m in (1, 2, 4)]
        builds += [(TWO_LEAF, 3), (ONE, 2)]
        counts = [build_truncation(matrix, m, framed).vertex_count for matrix, m in builds]
        for (matrix, m), count in zip(builds, counts):
            monkeypatch.setattr(unfolding, "_MAX_VERTICES", count)
            assert build_truncation(matrix, m, framed).vertex_count == count
            monkeypatch.setattr(unfolding, "_MAX_VERTICES", count - 1)
            with pytest.raises(ValueError, match=f"would have at least {count} vertices"):
                build_truncation(matrix, m, framed)

    def test_unbuildable_truncation_is_refused_before_building(self):
        # label 2's piece has 10**5000 satellites of label 1, so every
        # truncation that expands a label-2 vertex is refused; the piece
        # at label 1 and the truncation at m = 1 have one vertex of label 2
        big = ExchangeMatrix([[0, 10**5000], [-1, 0]])
        too_many = r"would have at least 2\*\*16609 vertices, more than the 2000000"
        for build in (lambda: build_truncation(big, 2), lambda: build_piece(big, 2),
                      lambda: verify_unfolding_commutation(big, (1,), 4)):
            with pytest.raises(ValueError, match=too_many):
                build()
        assert build_piece(big, 1).vertex_count == 3
        assert build_truncation(big, 1, framed=False).vertex_count == 2

    @pytest.mark.parametrize("framed", [True, False])
    def test_summary_of_the_counts_matches_the_build(self, framed):
        # `quivermut unfold` reports the summary without building; the largest
        # of these builds, the example at m = 8, has 57,284 vertices
        for matrix in corpus_matrices():
            for m in range(1, 9):
                summary = unfolding._summary(unfolding._truncation_counts(matrix, m, framed),
                                             framed)
                quiver = build_truncation(matrix, m, framed)
                assert summary == {
                    "vertices": quiver.vertex_count,
                    "mutable": quiver.mutable_count,
                    "frozen": quiver.frozen_count,
                    "arrows": quiver.arrow_count,
                    "complete": quiver.is_complete,
                    "interior_radius": quiver.interior_radius,
                    "labels": {label: len(quiver.mutable_ids(label))
                               for label in quiver.present_labels()},
                }, (matrix, m)

    # sha256 of to_dot(q) and of repr(q.depths), recorded from the vertex-by-vertex
    # builder that the piece table replaced
    PINNED = {
        "example m=4": (
            "058db3c3e3f28dd968280c8b209f0f0499e64a6f91bdbe118d19f1de3412daa6",
            "403e7d45e9ea2d9b3f1417e51abef6d5b879e7cf950f616ca093872d4e9d2566",
        ),
        "example m=6 unframed": (
            "c9326610217b819bc7736cd2373d411cab5d1c89e595242cc0aa542b52da79b5",
            "307e08fc86ed2ad319994b9185f6629dbc16bdafe812447369b5b5a49225e499",
        ),
        "example piece 3": (
            "065a4097eed37470b571b76dd5d07bf67864d74b3791f52b92d02cce2ed968f1",
            "abaf96c795b397f90c1d79654f87c50d777a7bc8c2f35f1f0e01df1c92d8fd1f",
        ),
        "random n=5 m=5": (
            "da6df1c3a81533f4f444fe25104af59622d518e2ce4de8f306eaf9c391a87dc8",
            "195ae14f689a82d5f56dfcfae2f295fa154eca8d95ae95cf7513e903b3fe7a8d",
        ),
    }

    def test_pinned_truncations(self):
        example = example_matrix()
        random_5 = random_acyclic_connected(random.Random(20260), 5)
        quivers = {
            "example m=4": build_truncation(example, 4),
            "example m=6 unframed": build_truncation(example, 6, framed=False),
            "example piece 3": build_piece(example, 3),
            "random n=5 m=5": build_truncation(random_5, 5),
        }
        # the same DOT text written from the counts alone, as `unfold --dot` does
        tree_dots = {
            "example m=4": _tree_dot(example, True, _truncation_counts(example, 4, True)),
            "example m=6 unframed": _tree_dot(example, False,
                                              _truncation_counts(example, 6, False)),
            "example piece 3": _tree_dot(example, True, _count_rings(example, 3, 1, True)),
            "random n=5 m=5": _tree_dot(random_5, True, _truncation_counts(random_5, 5, True)),
        }
        for name, quiver in quivers.items():
            digests = tuple(
                hashlib.sha256(text.encode()).hexdigest()
                for text in (to_dot(quiver), repr(quiver.depths))
            )
            assert digests == self.PINNED[name], name
            assert hashlib.sha256(tree_dots[name]).hexdigest() == digests[0], name

    @pytest.mark.parametrize("framed", [True, False])
    def test_dot_from_the_counts_matches_the_build(self, framed):
        # _tree_dot writes to_dot(_grow(...)) without building: every corpus
        # matrix at m = 1..6 and every piece, finite unfoldings included
        cases = complete = 0
        for matrix in corpus_matrices():
            counts = [_truncation_counts(matrix, m, framed) for m in range(1, 7)]
            counts += [_count_rings(matrix, i, 1, framed) for i in range(1, matrix.n + 1)]
            for count in counts:
                assert _tree_dot(matrix, framed, count) == to_dot(
                    unfolding._grow(matrix, framed, count)).encode("utf-8"), (matrix, count)
                cases += 1
                complete += count[2] is None
        assert cases == 51 * 6 + sum(matrix.n for matrix in corpus_matrices())
        # the walk of a finite unfolding stops at the ring that adds no vertex
        assert complete > 0

    @pytest.mark.parametrize("framed", [True, False])
    def test_glue_numbers_each_vertex_children_as_one_run(self, framed):
        # the two facts _tree_dot's sort-free arrow order rests on, on the cases
        # above: parents never decrease, so each vertex's children are one run
        # of consecutive ids
        childless = 0
        for matrix in corpus_matrices():
            counts = [_truncation_counts(matrix, m, framed) for m in range(1, 7)]
            counts += [_count_rings(matrix, i, 1, framed) for i in range(1, matrix.n + 1)]
            for count in counts:
                _labels, frozen, depths, parents, _signs = _glue(matrix, framed, count)
                assert parents[0] == -1
                assert all(a <= b for a, b in zip(parents[1:], parents[2:])), (matrix, count)
                children = {}
                for v, parent in enumerate(parents[1:], 1):
                    children.setdefault(parent, []).append(v)
                for run in children.values():
                    assert run == list(range(run[0], run[-1] + 1)), (matrix, count)
                # an expanded vertex is a mutable one in rings 0..rings-1
                childless += sum(not frozen[v] and depths[v] < count[1] and v not in children
                                 for v in range(len(parents)))
        # framed, every expanded vertex has its frozen copy; unframed, an empty
        # piece leaves one with no child, as label 2's in [[0, 1], [-1, 0]]
        assert (childless > 0) == (not framed)
        a2 = ExchangeMatrix(((0, 1), (-1, 0)))
        count = _count_rings(a2, 1, 2, False)
        # both rings expanded, the unfolding complete, vertex 1 childless
        assert count[1:] == (2, None) and _glue(a2, False, count)[3] == [-1, 0]


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

    @pytest.mark.parametrize("rep", [True, 1.0, "1", None])
    def test_representative_that_is_no_int_is_rejected(self, rep):
        # vertex 1 is the first mutable vertex of label 2, so True once passed as 1
        quiver = build_truncation(example_matrix(), 2, framed=False)
        reps = {label: quiver.mutable_ids(label)[0] for label in range(1, 5)}
        assert reps[2] == 1
        message = f"representative {rep!r} is not a mutable vertex"
        with pytest.raises(ValueError) as expected:
            folding(quiver, {**reps, 2: rep})
        assert str(expected.value) == message
        if rep is not None:  # folding_column reads None as the default
            with pytest.raises(ValueError) as column:
                folding_column(quiver, 2, rep)
            assert str(column.value) == message

    @pytest.mark.parametrize("key", [5, 0, -1, "x", 2.5])
    def test_representative_key_that_is_no_label_is_rejected(self, key):
        # such keys were once ignored, so the fold read as the default one
        quiver = build_truncation(example_matrix(), 3, framed=True)
        reps = {label: quiver.mutable_ids(label)[0] for label in range(1, 5)}
        with pytest.raises(ValueError) as rejected:
            folding(quiver, {**reps, key: 1})
        assert str(rejected.value) == f"representative key {key!r} is not a label in 1..4"

    @pytest.mark.parametrize("label", [True, 1.0, "1"])
    def test_folding_column_rejects_a_label_that_is_no_int(self, label):
        quiver = build_truncation(example_matrix(), 2)
        with pytest.raises(ValueError, match=f"label {label!r} missing from quiver"):
            folding_column(quiver, label)

    @pytest.mark.parametrize("labels, adj, neighbour", [
        ((1, 1), [{-1: 1}, {}], -1), ((1, 2), [{1: 1}, {}], 1), ((1, 2), [{0: 1}, {}], 0),
    ], ids=["no-vertex", "unmirrored", "loop"])
    def test_representative_with_a_malformed_arrow_is_refused(self, labels, adj, neighbour):
        # the key -1 once read the last vertex's class, folding to [[1]], and
        # the unmirrored arrow folded to [[0, 0], [1, 0]]
        quiver = LabeledQuiver(n_labels=max(labels), framed=False, labels=labels,
                               frozen=(False, False), depths=(0, 0), adj=adj,
                               interior_radius=None)
        message = rf"^representative 0 has a malformed arrow to {neighbour}$"
        with pytest.raises(ValueError, match=message):
            folding(quiver)
        with pytest.raises(ValueError, match=message):
            folding_column(quiver, 1)

    @pytest.mark.parametrize("label", [0, 5, -1])
    def test_folding_column_rejects_a_label_out_of_range(self, label):
        quiver = build_truncation(example_matrix(), 2)
        with pytest.raises(ValueError, match=f"label {label!r} missing from quiver"):
            folding_column(quiver, label)


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

    def test_never_aliases_its_input(self):
        quiver = build_truncation(example_matrix(), 4, framed=True)
        before = copy.deepcopy(quiver)
        mutated = orbit_mutate(quiver, 2)
        assert quiver == before and quiver.adj == before.adj
        inner = {id(d) for d in quiver.adj}
        assert not any(id(d) in inner for d in mutated.adj)
        mutated.adj[0].clear()
        mutated.adj[1].clear()
        assert quiver == before and quiver.adj == before.adj

    def test_involution_is_exact_everywhere(self):
        quiver = build_truncation(example_matrix(), 4, framed=True)
        twice = orbit_mutate(orbit_mutate(quiver, 2), 2)
        assert twice.adj == quiver.adj
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

    @pytest.mark.parametrize("interior_only", [False, True])
    def test_vertexless_quiver_is_clean(self, interior_only):
        # no vertex, so no depth to take the scan limit from
        empty = LabeledQuiver(n_labels=1, framed=False, labels=(), frozen=(), depths=(),
                              adj=[], interior_radius=None)
        assert check_gamma_conditions(empty, interior_only) == GammaReport(True, True, (), ())

    def test_witnesses_match_brute_force_in_order(self):
        # the class-set prefilter skips a vertex only when the enumeration
        # behind it would yield nothing: both must give every witness, in order
        rng = random.Random(0x6A44A5)
        paths = {"skipped": 0, "enumerated": 0, "loops_only": 0}
        for _ in range(1500):
            quiver = random_class_quiver(rng)
            n = quiver.vertex_count
            for _ in range(3):
                scan = rng.sample(range(n), rng.randint(0, n))
                radius = rng.choice([None, 0, 1, 2, 3])
                expected = brute_force_gamma_witnesses(quiver, scan, radius)
                assert list(_gamma_witnesses(quiver, scan, radius)) == expected
                for x in scan:
                    if radius is not None and quiver.depths[x] > radius:
                        continue
                    found = [w for w in expected if w[len(w) - 2] == x]
                    near = [mult for v, mult in quiver.adj[x].items()
                            if radius is None or quiver.depths[v] <= radius]
                    if not found:
                        # arrows both in and out, and still nothing to yield
                        paths["skipped"] += min(near, default=0) < 0 < max(near, default=0)
                    else:
                        paths["enumerated"] += 1
                        paths["loops_only"] += all(len(w) == 2 for w in found)
        assert min(paths.values()) >= 500, paths

    @pytest.mark.parametrize("framed", [True, False])
    @pytest.mark.parametrize("m", [2, 4])
    def test_fresh_random_truncations_are_clean(self, m, framed):
        # the replay skips the Γ scan before its first step on this ground
        rng = random.Random(0x6A44A)
        for n in [1, 2, 3, 4, 5] * 6:
            matrix = random_acyclic_connected(rng, n)
            quiver = build_truncation(matrix, m, framed=framed)
            assert check_gamma_conditions(quiver).ok, matrix


def random_class_quiver(rng: random.Random) -> LabeledQuiver:
    """Up to 9 vertices with 2 to 4 labels, mixed kinds and depths 0..3,
    random arrows plus planted label-class loops and 2-cycles."""
    n = rng.randint(1, 9)
    n_labels = rng.randint(2, 4)
    labels = [rng.randint(1, n_labels) for _ in range(n)]
    frozen = [rng.random() < 0.3 for _ in range(n)]
    kind = list(zip(labels, frozen))
    arrows: dict[tuple[int, int], int] = {}

    def join(u, w):
        if u != w and (w, u) not in arrows:
            arrows[u, w] = arrows.get((u, w), 0) + 1

    for u, w in itertools.combinations(range(n), 2):
        if rng.random() < 0.3:
            join(*rng.sample((u, w), 2))
    for _ in range(rng.randint(0, 2)):
        u, x, w = (rng.randrange(n) for _ in range(3))
        if kind[u] == kind[w] != kind[x]:
            join(u, x)
            join(x, w)
        elif kind[u] == kind[x]:
            join(u, x)
    adj = [{} for _ in range(n)]
    for (u, w), mult in arrows.items():
        adj[u][w], adj[w][u] = mult, -mult
    return LabeledQuiver(
        n_labels=n_labels, framed=any(frozen), labels=tuple(labels), frozen=tuple(frozen),
        depths=tuple(rng.randint(0, 3) for _ in range(n)), adj=adj, interior_radius=None,
    )


def brute_force_gamma_witnesses(quiver: LabeledQuiver, scan, radius) -> list[tuple[int, ...]]:
    """Every loop (x, w) and 2-cycle (u, x, w) with x in scan, tried over all
    vertex pairs and triples, then put in scan order, w and u in adj[x] order."""
    n = quiver.vertex_count
    adj = quiver.adj

    def counted(v):
        return radius is None or quiver.depths[v] <= radius

    def arrow(a, b):
        return adj[a].get(b, 0) > 0

    def kind(v):
        return quiver.labels[v], quiver.frozen[v]

    found = []
    for i, x in enumerate(scan):
        place = {v: p for p, v in enumerate(adj[x])}
        for w in range(n):
            if not (counted(x) and counted(w) and arrow(x, w)):
                continue
            if kind(w) == kind(x):
                found.append(((i, place[w], -1), (x, w)))
            for u in range(n):
                if u != w and counted(u) and arrow(u, x) and kind(u) == kind(w) != kind(x):
                    found.append(((i, place[w], place[u]), (u, x, w)))
    return [witness for _, witness in sorted(found)]


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


class TestQuiverRefusals:
    """Each quiver precondition has one refusal and one message, whichever
    operation meets it first."""

    def test_absent_label(self):
        quiver = LabeledQuiver(n_labels=2, framed=False, labels=(1,), frozen=(False,),
                               depths=(0,), adj=[{}], interior_radius=None)
        for operation in (lambda: orbit_mutate(quiver, 2), lambda: folding(quiver)):
            with pytest.raises(ValueError) as raised:
                operation()
            assert str(raised.value) == "label 2 missing from quiver"

    def test_exhausted_interior(self):
        quiver = tiny_quiver(2, (1, 2), (False, False), [(0, 1)], depths=(0, 1),
                             interior_radius=0)
        for operation in (lambda: orbit_sources(quiver), lambda: orbit_mutate(quiver, 1)):
            with pytest.raises(InteriorExhaustedError) as raised:
                operation()
            assert str(raised.value) == (
                "interior exhausted: radius 0 has shrunk below the deepest "
                "first-occurrence depth 1"
            )


@pytest.mark.parametrize("build", [
    lambda matrix: build_piece(matrix, 1),
    lambda matrix: build_truncation(matrix, 2),
    lambda matrix: verify_unfolding_commutation(matrix, (1,), 4),
], ids=["build_piece", "build_truncation", "verify_unfolding_commutation"])
@pytest.mark.parametrize("matrix, message", [
    ([[0, 1], [1, 0]], "input matrix is not sign-skew-symmetric"),
    ([[0, 1, -1], [-1, 0, 1], [1, -1, 0]],
     "no source among indices {1,2,3}: matrix is not acyclic"),
], ids=["not-sign-skew", "cyclic"])
def test_unfolding_refuses_as_the_source_numbering_does(build, matrix, message):
    with pytest.raises(ValueError) as raised:
        build(ExchangeMatrix(matrix))
    assert str(raised.value) == message


class TestOrbitGreenLift:
    """The source maximal green sequence of B, orbit-mutated on the unfolding.

    PAPER.md argues the existence of a maximal green sequence through the
    unfolding; this oracle checks it there, on the framed truncation at
    m = 2L + 2, with the column signs of the frozen copies.
    """

    @staticmethod
    def interior_signs(quiver: LabeledQuiver, labels) -> set[str]:
        return {_vertex_column_sign(quiver, v)
                for k in labels for v in quiver._interior_ids(k)}

    def test_source_mgs_lifts_to_an_orbit_green_sequence(self):
        for matrix in corpus_matrices():
            seq = source_mgs(matrix).sequence
            quiver = build_truncation(matrix, 2 * len(seq) + 2, framed=True)
            for step, k in enumerate(seq, start=1):
                # every interior label-k vertex is green before the step at k
                assert self.interior_signs(quiver, [k]) == {"green"}, (matrix, step)
                quiver = orbit_mutate(quiver, k)
                if step == 1:
                    # and red after it, so a sequence starting k, k is not green
                    assert self.interior_signs(quiver, [k]) == {"red"}, matrix
            assert self.interior_signs(quiver, range(1, matrix.n + 1)) == {"red"}, matrix


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

    def test_finite_unfolding_needs_no_budget(self):
        # these corpus unfoldings are finite, so their truncation at m = 2 is
        # complete and never loses interior: sequences of length 8, far past
        # m >= 2L + 2, fold exactly, step by step
        rng = random.Random(0xF1417E)
        corpus = corpus_matrices()
        complete = [i for i, matrix in enumerate(corpus) if build_truncation(matrix, 2).is_complete]
        assert complete == [3, 4, 16, 20, 27, 37, 41]
        states = 0
        for i in complete:
            matrix = corpus[i]
            quiver = build_truncation(matrix, 2, framed=True)
            reps = [_default_representative(quiver, label) for label in range(1, matrix.n + 1)]
            for _ in range(40):
                seq = tuple(rng.randint(1, matrix.n) for _ in range(8))
                assert verify_unfolding_commutation(matrix, seq, 2).ok, (i, seq)
                for step, work in _replay(quiver, seq, reps):
                    seed = apply_sequence_framed(extend(matrix), seq[:step])
                    assert _fold_rows(work, reps) == seed.b.entries + seed.c, (i, seq, step)
                    states += step > 0
        assert states == 7 * 40 * 8
        # an infinite unfolding keeps the budget
        with pytest.raises(InteriorExhaustedError, match=r"m=2 but 1 steps need m >= 4$"):
            verify_unfolding_commutation(corpus[1], (1,), 2)

    def test_over_budget_replay_builds_and_caches_nothing(self, monkeypatch):
        # a miss checks the budget on the counts, before the build (the
        # example's truncation has 554,348 vertices at m = 10); a hit checks
        # it on the cached build, with the same rule and messages
        five = (r"^interior budget exceeded: 5 steps, but an infinite unfolding's "
                r"interior is trusted for 4 steps at most$")
        kronecker = ExchangeMatrix([[0, 2], [-2, 0]])
        cases = [
            (example_matrix(), (1, 2, 3, 4, 1), 10, five),
            (example_matrix(), (1, 2, 3), 7, r"^interior budget violated: m=7 but 3 steps "
                                             r"need m >= 8$"),
            (kronecker, (1, 2, 1, 2, 1), 12, five),
            (kronecker, (1, 2, 1, 2), 9, r"^interior budget violated: m=9 but 4 steps "
                                         r"need m >= 10$"),
        ]
        cached = {(kronecker, m): build_truncation(kronecker, m) for m in (9, 12)}
        monkeypatch.setattr(unfolding, "_truncations", dict(cached))

        def no_build(*args):
            raise AssertionError("built a truncation")

        monkeypatch.setattr(unfolding, "_grow", no_build)
        for matrix, seq, m, message in cases:
            with pytest.raises(InteriorExhaustedError, match=message):
                verify_unfolding_commutation(matrix, seq, m)
            assert list(unfolding._truncations) == list(cached)
            assert all(unfolding._truncations[key] is kept for key, kept in cached.items())

    def test_column_check_catches_a_divergence_in_either_half(self):
        # one mirrored arrow at a representative made one stronger, toward a
        # mutable neighbour (a B row of the fold) or toward the
        # representative's frozen copy (a C row): the fold differs before
        # the first step
        matrix = example_matrix()
        fresh = build_truncation(matrix, 6, framed=True)
        assert unfolding._verify_replay(fresh, matrix, (1, 2)).ok
        for label in range(1, matrix.n + 1):
            rep = _default_representative(fresh, label)
            for frozen in (False, True):
                u = next(u for u in fresh.adj[rep] if fresh.frozen[u] == frozen)
                broken = copy.copy(fresh)
                broken.adj = fresh.adj.copy()
                broken.adj[rep], broken.adj[u] = fresh.adj[rep].copy(), fresh.adj[u].copy()
                mult = broken.adj[rep][u] + (1 if broken.adj[rep][u] > 0 else -1)
                broken.adj[rep][u], broken.adj[u][rep] = mult, -mult
                report = unfolding._verify_replay(broken, matrix, (1, 2))
                assert report.first_divergence == 0, (label, frozen)
        assert fresh == build_truncation(matrix, 6, framed=True)

    @pytest.mark.parametrize("m", [True, "8", 4.0])
    def test_budget_must_be_a_positive_int(self, m):
        # checked before the budget comparison, where True would count as 1
        # and "8" cannot be compared
        with pytest.raises(ValueError, match="positive integer") as raised:
            verify_unfolding_commutation(example_matrix(), (1,), m)
        assert type(raised.value) is ValueError

    def test_truncation_consistency_depth_zero_after_two_steps(self):
        # after every step, every interior vertex has its full arrows of a
        # deeper truncation: the example at m = 4 against m = 6, down to radius
        # 0, every pruned length-3 sequence of the n <= 3 corpus matrices at
        # m = 8 against m = 10, and, out to the longest sequence the budget
        # admits on an infinite unfolding, every pruned length-4 sequence at
        # m = 10 against m = 12 of the n = 3 corpus matrices whose m = 12
        # truncation has at most 1,000 vertices
        corpus = corpus_matrices()
        four_step = [i for i, matrix in enumerate(corpus)
                     if matrix.n == 3 and build_truncation(matrix, 12).vertex_count <= 1000]
        assert four_step == [16, 17, 19, 20, 21, 22, 24, 26, 27, 29, 30]
        cases = [(example_matrix(), 4, [(1,), (2,), (1, 2), (2, 3)])] + [
            (matrix, 8, full_length_sequences(matrix.n, 3))
            for matrix in corpus[1:]
            if matrix.n <= 3
        ] + [(corpus[i], 10, full_length_sequences(3, 4)) for i in four_step]
        states = 0
        for matrix, m, sequences in cases:
            chains = {(): (build_truncation(matrix, m), build_truncation(matrix, m + 2))}
            for seq in sequences:
                for step in range(1, len(seq) + 1):
                    prefix = seq[:step]
                    if prefix in chains:
                        continue
                    small, big = chains[prefix] = tuple(
                        orbit_mutate(q, prefix[-1]) for q in chains[prefix[:-1]]
                    )
                    for v in interior_vertices(small):
                        assert small.adj[v] == big.adj[v], (matrix, prefix, v)
                    states += 1
        # 4 example prefixes; 15 n=2 and 15 n=3 matrices with 2 + 2 + 2 and
        # 3 + 6 + 12 prefixes; 11 n=3 matrices with 3 + 6 + 12 + 24 = 45
        assert states == 4 + 15 * 6 + 15 * 21 + 11 * 45

    def test_one_step_agrees_on_whole_shared_ball(self):
        # through the first orbit-mutation the truncation matches the induced
        # subquiver of the mutated infinite quiver exactly
        small = orbit_mutate(build_truncation(example_matrix(), 2, framed=True), 2)
        big = orbit_mutate(build_truncation(example_matrix(), 4, framed=True), 2)
        n = small.vertex_count
        for v in range(n):
            assert {u: m for u, m in big.adj[v].items() if u < n} == small.adj[v]


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

    @pytest.mark.parametrize("target", [5, 2, -1])
    def test_arrow_to_a_missing_vertex_is_refused(self, target):
        # adj holds one dict per vertex, but nothing checks the keys inside:
        # an arrow to a vertex that does not exist is named, not written
        quiver = LabeledQuiver(n_labels=1, framed=False, labels=(1, 1), frozen=(False, False),
                               depths=(0, 1), adj=[{target: 1}, {}], interior_radius=None)
        with pytest.raises(IndexError, match=rf"^vertex {target} out of range 0\.\.1$"):
            to_dot(quiver)


class TestCorpusFoldings:
    def test_folding_identity_sample(self):
        for matrix in corpus_matrices()[:12]:
            quiver = build_truncation(matrix, 2, framed=True)
            assert folding(quiver) == extend(matrix)


def assert_structurally_valid(quiver: LabeledQuiver, fresh: bool) -> None:
    for u in range(quiver.vertex_count):
        for v, mult in quiver.adj[u].items():
            assert u != v, "no loops"
            assert mult != 0, "no zero entries"
            assert quiver.adj[v].get(u) == -mult, "adj is antisymmetric"
            assert not (quiver.frozen[u] and quiver.frozen[v]), "no frozen-frozen arrows"
    if fresh and quiver.framed:
        for v in range(quiver.vertex_count):
            if quiver.frozen[v]:
                assert len(quiver.adj[v]) == 1, "fresh frozen copies have one neighbor"


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


def check_replay_against_orbit_mutate(matrix, m, lengths, monkeypatch, spans) -> int:
    """Drive the replay along every pruned sequence of each length in
    lengths, each as a sequence of its own, and compare each state with the
    whole-truncation orbit_mutate chain.

    Each length has its own ball schedule, so a short sequence is replayed
    for itself, not read off a longer one's prefix.  After every step but
    the last, every interior vertex must have exactly the reference's
    arrows; after every step, the fold-cone last step included, the fold
    must agree; and each Γ verdict the replay takes must equal the full
    interior scan of the reference.  spans[s] is raised to the largest
    depth difference along an arrow of a reference state after s steps.
    Returns the number of states compared.
    """
    verdicts = []

    def recording_gamma_witnesses(*args):
        witnesses = list(_gamma_witnesses(*args))
        verdicts.append(not witnesses)
        return iter(witnesses)

    monkeypatch.setattr(unfolding, "_gamma_witnesses", recording_gamma_witnesses)
    base = build_truncation(matrix, m, framed=True)
    reps = [_default_representative(base, label) for label in range(1, matrix.n + 1)]
    # _require_budget's argument: d* is the deepest default representative
    assert base.core_depth == max(base.depths[rep] for rep in reps)
    reference = {(): base}
    compared = 0
    for seq in (seq for length in lengths for seq in full_length_sequences(matrix.n, length)):
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
        for step, work in _replay(base, seq, reps):
            ref = reference[seq[:step]]
            assert work.interior_radius == ref.interior_radius
            assert work._steps == ref._steps == step
            # every representative is interior, as m >= 2L + 2 makes it
            assert work.is_complete or work.interior_radius >= base.core_depth, (seq, step)
            if step:
                # the verdict taken on the previous state, before this step
                assert verdicts[step - 1] == expected[step - 1]
            if step < len(seq):
                for v in interior_vertices(ref):
                    assert work.adj[v] == ref.adj[v], (seq, step, v)
            folded = folding(ref)
            assert _fold_rows(work, reps) == folded.b.entries + folded.c, (seq, step)
            compared += 1
    for prefix, ref in reference.items():
        depths = ref.depths
        span = max(abs(depths[u] - depths[w]) for u, d in enumerate(ref.adj) for w in d)
        spans[len(prefix)] = max(spans.get(len(prefix), 0), span)
    return compared


def random_net_quiver(rng: random.Random) -> LabeledQuiver:
    """At most 8 vertices with random labels and kinds, multiplicities 1..3,
    one direction per pair and, as in an unfolding, no frozen-frozen arrow."""
    n = rng.randint(2, 8)
    labels = [rng.randint(1, 3) for _ in range(n)]
    frozen = [rng.random() < 0.3 for _ in range(n)]
    frozen[rng.randrange(n)] = False
    arrows = []
    for u, w in itertools.combinations(range(n), 2):
        if rng.random() < 0.5 and not (frozen[u] and frozen[w]):
            pair = (u, w) if rng.random() < 0.5 else (w, u)
            arrows += [pair] * rng.randint(1, 3)
    return tiny_quiver(3, labels, frozen, arrows)


def assert_net_arrows(adj) -> None:
    """adj is antisymmetric, with no zero or diagonal entry."""
    for u, d in enumerate(adj):
        for w, mult in d.items():
            assert mult != 0 and u != w and adj[w].get(u) == -mult


class TestQuiverFields:
    @pytest.mark.parametrize("n_labels, labels", [(True, [1]), ("2", [1]), (0, []), (-1, [])])
    def test_n_labels_must_be_a_positive_int(self, n_labels, labels):
        # True once passed as 1, "2" raised a bare TypeError, and 0 on an
        # empty quiver raised "label 1 is not in 1..0"
        with pytest.raises(ValueError, match=rf"^n_labels must be a positive integer, "
                                             rf"got {re.escape(repr(n_labels))}$"):
            tiny_quiver(n_labels, labels, [False] * len(labels), [])

    def test_step_count_starts_at_zero_and_is_not_compared(self):
        quiver = tiny_quiver(2, [1, 2], [False, False], [(0, 1)])
        assert quiver._steps == 0
        stepped = orbit_mutate(quiver, 1)
        assert stepped._steps == 1 and quiver._steps == 0
        assert orbit_mutate(stepped, 1) == quiver  # mutation at 1 twice is the identity

    def test_label_outside_1_to_n_labels_is_rejected(self):
        # label 0 once folded into the frozen row, giving c = ((2,),), and
        # label 3 of 2 made folding raise a bare IndexError
        with pytest.raises(ValueError, match=r"^label 0 is not in 1\.\.1$"):
            tiny_quiver(1, [1, 0, 1], [False, False, True], [(0, 1), (0, 2)], framed=True)
        with pytest.raises(ValueError, match=r"^label 3 is not in 1\.\.2$"):
            tiny_quiver(2, [1, 3], [False, False], [(0, 1)])

    @pytest.mark.parametrize("labels, wrong", [((True, 2), True), ((1.5, 2), 1.5), ((1, 2.0), 2.0)],
                             ids=["bool", "float-min", "float-max"])
    def test_label_that_is_no_int_is_rejected(self, labels, wrong):
        # True once passed as label 1, and a float raised a bare TypeError
        with pytest.raises(ValueError, match=rf"^label {wrong!r} is not in 1\.\.2$"):
            tiny_quiver(2, labels, [False, False], [(0, 1)])

    @pytest.mark.parametrize("frozen, depths, message", [
        ((0, 2), (0, 1), "frozen entry 0 is not a bool"),
        ((0, 1), (0, 1), "frozen entry 0 is not a bool"),
        ((False, 2), (0, 1), "frozen entry 2 is not a bool"),
        ((False, False), (0, "x"), "depth 'x' is not an int"),
        ((False, False), (0.5, "x"), "depth 0.5 is not an int"),
        ((False, False), (0, True), "depth True is not an int"),
    ], ids=["frozen-int-index", "frozen-int-bools", "frozen-second", "depth-str",
            "depth-first", "depth-bool"])
    def test_frozen_or_depth_entry_of_the_wrong_type_is_rejected(self, frozen, depths, message):
        # frozen (0, 2) raised a bare IndexError from the class index, frozen
        # (0, 1) was folded as if its entries were bools, and depths (0, 'x')
        # constructed
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            LabeledQuiver(n_labels=2, framed=False, labels=(1, 2), frozen=frozen,
                          depths=depths, adj=[{1: 1}, {0: -1}], interior_radius=None)

    @pytest.mark.parametrize("radius", [1.5, True])
    def test_interior_radius_must_be_an_int_or_none(self, radius):
        # both were once taken as a radius
        with pytest.raises(ValueError, match=rf"^interior_radius must be an int or None, "
                                             rf"got {radius!r}$"):
            tiny_quiver(2, [1, 2], [False, False], [(0, 1)], interior_radius=radius)

    @pytest.mark.parametrize("frozen, depths", [
        ([False], [0, 0]), ([False] * 3, [0, 0]), ([False, False], [0]),
    ])
    def test_fields_of_unequal_length_are_rejected(self, frozen, depths):
        with pytest.raises(ValueError, match="labels, frozen and depths differ in length"):
            tiny_quiver(1, [1, 1], frozen, [(0, 1)], depths=depths)

    def test_adj_must_be_a_list_with_one_dict_per_vertex(self):
        # a dict adj once constructed, read 0 arrows and made to_dot raise KeyError
        fields = dict(n_labels=1, framed=False, labels=(1, 1), frozen=(False, False),
                      depths=(0, 1), interior_radius=None)
        with pytest.raises(ValueError, match=r"^adj must be a list with one dict per vertex, "
                                             r"not a dict$"):
            LabeledQuiver(adj={0: {}}, **fields)
        for adj in ([{}], [{1: 1}, {0: -1}, {}]):
            with pytest.raises(ValueError, match=rf"^adj and labels differ in length: "
                                                 rf"\({len(adj)}, 2\)$"):
                LabeledQuiver(adj=adj, **fields)
        assert LabeledQuiver(adj=[{1: 1}, {0: -1}], **fields).arrow_count == 1


class TestVertexArguments:
    # the complete framed truncation of a rank-2 matrix: vertices 0 and 2
    # (labels 1 and 2) and their frozen copies 1 and 3
    QUIVER = build_truncation(ExchangeMatrix([[0, 1], [-1, 0]]), 2)

    @pytest.mark.parametrize("label", [True, 1.0, "1", None, (1,)])
    def test_label_that_is_no_int_reads_as_absent(self, label):
        # True and 1.0 once hashed as 1 and returned label 1's vertices
        assert self.QUIVER.mutable_ids(1) == (0,)
        assert self.QUIVER.mutable_ids(label) == ()

    @pytest.mark.parametrize("call, vertex", [
        (lambda q: q.is_interior(-1), "-1"),
        (lambda q: q.is_interior(99), "99"),
        (lambda q: q.is_interior(True), "True"),
        (lambda q: q.is_interior(4), "4"),
        (lambda q: q.entry(True, 0), "True"),
        (lambda q: q.entry(0, -1), "-1"),
        (lambda q: q.entry(4, 0), "4"),
        (lambda q: q.entry(0, 1.0), "1.0"),
    ])
    def test_vertex_outside_0_to_v_minus_1_is_refused(self, call, vertex):
        # -1 once read the last vertex, 99 gave True and entry(True, 0) gave 1
        with pytest.raises(IndexError, match=rf"^vertex {re.escape(vertex)} out of range 0\.\.3$"):
            call(self.QUIVER)

    def test_interior_ids_are_the_interior_mutable_ids(self):
        # the prefix cut by one bisection, against the checked is_interior, on
        # fresh, mutated and complete truncations, framed and unframed
        states = 0
        for matrix in corpus_matrices()[:20]:
            for framed in (True, False):
                fresh = build_truncation(matrix, 4, framed)
                for quiver in [fresh] + [orbit_mutate(fresh, k) for k in range(1, matrix.n + 1)]:
                    for label in range(1, matrix.n + 1):
                        assert quiver._interior_ids(label) == tuple(
                            v for v in quiver.mutable_ids(label) if quiver.is_interior(v))
                    assert sorted(interior_vertices(quiver)) == [
                        v for v in range(quiver.vertex_count) if quiver.is_interior(v)]
                    states += 1
        assert states == 2 * sum(1 + matrix.n for matrix in corpus_matrices()[:20])

    def test_vertices_in_range_are_read(self):
        assert all(self.QUIVER.is_interior(v) for v in range(4))
        # the arrow 0 -> 1 into label 1's frozen copy
        assert (self.QUIVER.entry(1, 0), self.QUIVER.entry(0, 1), self.QUIVER.entry(0, 3)) == (
            1, -1, 0)


DOT_ARROW = re.compile(r"^  v(\d+) -> v(\d+)(?: \[label=(\d+)\])?;$", re.MULTILINE)


class TestArrowViews:
    """arrow_count, arrows(), to_dot and entry all read the one stored adjacency."""

    def test_views_agree_on_random_and_mutated_quivers(self):
        rng = random.Random(0xADD)
        quivers = [random_net_quiver(rng) for _ in range(300)]
        example = build_truncation(example_matrix(), 3)
        states = quivers + [example] + [orbit_mutate(example, k) for k in range(1, 5)]
        for quiver in quivers:
            if check_gamma_conditions(quiver).ok:
                states += [orbit_mutate(quiver, k) for k in quiver.present_labels()]
        # 226 orbit-mutations of the 300 random quivers pass the Γ check
        assert len(states) == 300 + 5 + 226
        for quiver in states:
            arrows = quiver.arrows()
            assert quiver.arrow_count == len(arrows)
            listed = DOT_ARROW.findall(to_dot(quiver))
            assert [(int(u), int(v), int(m or 1)) for u, v, m in listed] == arrows
            n = quiver.vertex_count
            assert all(
                quiver.entry(i, j) == -quiver.entry(j, i) for i in range(n) for j in range(i + 1)
            )


class TestMutationKernel:
    """_mutate_vertex, the one sparse-quiver mutation rule, on random net quivers."""

    def test_involution_signed_rule_and_mirror(self):
        rng = random.Random(0x4E7)
        for _ in range(600):
            quiver = random_net_quiver(rng)
            t = rng.choice([v for v in range(quiver.vertex_count) if not quiver.frozen[v]])
            adj = copy.deepcopy(quiver.adj)
            _mutate_vertex(adj, quiver.frozen, t)
            mutated = copy.copy(quiver)
            mutated.adj = adj
            assert adjacency_rows(mutated) == signed_vertex_mutation(
                adjacency_rows(quiver), quiver.frozen, t
            )
            assert_net_arrows(adj)
            _mutate_vertex(adj, quiver.frozen, t)
            assert adj == quiver.adj


def one_ring_less_at_step_2(quiver, steps, reps):
    """_ball_limits with step 2 of three cut one ring shallower than its schedule."""
    limits = _ball_limits(quiver, steps, reps)
    assert steps == 3 and limits is not None
    return [limits[0], limits[1] - 1]


class TestTrustedBallReplay:
    """The replay inside verify_unfolding_commutation against orbit_mutate.

    Before its final step the replay mutates only the label-k vertices down
    to the depth its ball schedule (_ball_limits) gives that step; these
    tests hold it to the whole-truncation reference on every interior
    vertex, which is what the derivation in verify_unfolding_commutation's
    docstring claims, pin the schedule, and measure the spans σ_0, σ_1 and
    σ_2 that it rests on.  The final step mutates only the fold cone, so
    there they compare the fold.
    """

    def test_interior_matches_orbit_mutate_on_corpus(self, monkeypatch):
        compared = 0
        spans = {}
        for matrix in corpus_matrices()[1:]:
            compared += check_replay_against_orbit_mutate(
                matrix, 8, (1, 2, 3), monkeypatch, spans
            )
        # 15 n=2, 15 n=3 and 20 n=4 matrices with n, n(n-1) and n(n-1)^2
        # sequences of lengths 1, 2 and 3, passing through 2, 3 and 4 states
        assert compared == 15 * (2 * 2 + 2 * 3 + 2 * 4) + 15 * (3 * 2 + 6 * 3 + 12 * 4) + 20 * (
            4 * 2 + 12 * 3 + 36 * 4
        )
        assert [spans[s] for s in range(3)] == [1, 2, 3]

    def test_interior_matches_orbit_mutate_at_m_2l_plus_3(self, monkeypatch):
        # one ring more budget than the least: the schedule cuts deeper
        # below the outer ring, r - 1 at step 1 of two and of three steps
        compared = 0
        spans = {}
        for matrix in corpus_matrices()[1::5]:
            for length in (1, 2, 3):
                compared += check_replay_against_orbit_mutate(
                    matrix, 2 * length + 3, (length,), monkeypatch, spans
                )
        # corpus 1, 6, 11 (n=2), 16, 21, 26 (n=3), 31, 36, 41, 46 (n=4)
        assert compared == 3 * (2 * 2 + 2 * 3 + 2 * 4) + 3 * (3 * 2 + 6 * 3 + 12 * 4) + 4 * (
            4 * 2 + 12 * 3 + 36 * 4
        )
        assert [spans[s] for s in range(3)] == [1, 2, 3]

    def test_interior_matches_orbit_mutate_on_random_n5(self, monkeypatch):
        # beyond the corpus (n <= 4): of the first 40 seeded n = 5 draws, those
        # whose m = 8 truncation has 100 to 500 vertices
        rng = random.Random(0x5EED05)
        draws = [random_acyclic_connected(rng, 5, 3) for _ in range(40)]
        chosen = [matrix for matrix in draws
                  if 100 <= build_truncation(matrix, 8, framed=True).vertex_count <= 500]
        assert len(chosen) == 9
        compared = 0
        spans = {}
        for matrix in chosen:
            compared += check_replay_against_orbit_mutate(
                matrix, 8, (1, 2, 3), monkeypatch, spans
            )
        # 5 + 20 + 80 sequences of lengths 1, 2 and 3 through 2, 3 and 4 states
        assert compared == 9 * (5 * 2 + 20 * 3 + 80 * 4) == 3510
        assert [spans[s] for s in range(3)] == [1, 2, 3]

    def test_interior_matches_orbit_mutate_on_example(self, monkeypatch):
        spans = {}
        compared = check_replay_against_orbit_mutate(
            example_matrix(), 6, (1, 2), monkeypatch, spans
        )
        assert compared == 4 * 2 + 12 * 3
        assert [spans[s] for s in range(3)] == [1, 2, 3]

    # need_L = d + 1 for representatives down to depth d; going back,
    # need_s = max(need_{s+1} + σ_s, r_s + 1 for s >= 1, d + 1) with
    # r_s = r - 2s, and step s + 1 < L mutates down to need_{s+1} + σ_s - 1.
    # L = 2: [max(d + 3, r - 1)], need_0 = max(d + 4, r).
    # L = 3: [max(d + 6, r - 1), max(d + 5, r - 2)], need_0 = max(d + 7, r).
    # None when need_0 > r + 1, when L > 3 and on a complete quiver.
    @pytest.mark.parametrize("rows, d, expected", [
        # d* = d = 1, r = m - 1
        ([[0, 2], [-2, 0]], 1, {
            (1, 4): [], (1, 5): [], (1, 6): [],
            (2, 6): [4], (2, 7): [5], (2, 8): [6],
            (3, 7): None, (3, 8): [7, 6], (3, 9): [7, 6], (3, 10): [8, 7],
            (4, 10): None, (4, 11): None, (4, 12): None,
        }),
        # d* = d = 2, r = m
        ([[0, 2, 0], [-2, 0, 1], [0, -1, 0]], 2, {
            (1, 4): [], (1, 5): [], (1, 6): [],
            (2, 6): [5], (2, 7): [6], (2, 8): [7],
            (3, 7): None, (3, 8): [8, 7], (3, 9): [8, 7], (3, 10): [9, 8],
            (4, 10): None, (4, 11): None, (4, 12): None,
        }),
    ])
    def test_ball_limits_by_hand(self, rows, d, expected):
        matrix = ExchangeMatrix(rows)
        for (length, m), limits in expected.items():
            quiver = build_truncation(matrix, m, framed=True)
            reps = [_default_representative(quiver, label) for label in range(1, matrix.n + 1)]
            assert max(quiver.depths[rep] for rep in reps) == d
            assert _ball_limits(quiver, length, reps) == limits, (length, m)
        assert _ball_limits(build_truncation(TWO_LEAF, 8), 2, [0, 1]) is None

    @pytest.mark.parametrize("seq, mutations", [
        ((1, 2), 226), ((2, 1), 796), ((2, 1, 2), 1021), ((1, 2, 3), 4256),
    ])
    def test_vertex_mutations_on_example(self, monkeypatch, seq, mutations):
        # a count, not a time: with r + 1 at every step but the last these
        # were 3,457, 13,566, 13,791 and 4,256
        calls = []

        def counting_mutate_vertex(adj, frozen, t):
            calls.append(t)
            _mutate_vertex(adj, frozen, t)

        monkeypatch.setattr(unfolding, "_mutate_vertex", counting_mutate_vertex)
        assert verify_unfolding_commutation(example_matrix(), seq, 8).ok
        assert len(calls) == mutations

    @pytest.mark.parametrize("rows, seq", [
        (EXAMPLE_ROWS, (3, 4, 2)),
        (((0, -1, -1), (2, 0, -2), (1, 2, 0)), (2, 3, 1)),
    ])
    def test_one_ring_less_at_three_steps_would_diverge_here(self, monkeypatch, rows, seq):
        assert verify_unfolding_commutation(ExchangeMatrix(rows), seq, 8).ok
        monkeypatch.setattr(unfolding, "_ball_limits", one_ring_less_at_step_2)
        assert verify_unfolding_commutation(ExchangeMatrix(rows), seq, 8) == CommutationReport(
            ok=False, first_divergence=3
        )

    def test_gamma_verdict_on_hand_built_violations(self):
        loop = tiny_quiver(1, [1, 1], [False, False], [(0, 1)])
        two_cycle = tiny_quiver(2, [1, 2, 1], [False] * 3, [(0, 1), (1, 2)])
        separate = tiny_quiver(
            2, [1, 2, 1], [False, False, True], [(0, 1), (1, 2)], framed=True
        )
        for quiver, ok in ((loop, False), (two_cycle, False), (separate, True)):
            witnesses = _gamma_witnesses(quiver, range(quiver.vertex_count), None)
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
            list(_replay(quiver, (2, 3), [0, 1, 2]))
        assert str(replayed.value) == str(expected.value)

    def test_replay_never_writes_the_cached_truncation(self):
        matrices = [example_matrix()] + corpus_matrices()[1:51:10]
        for matrix in matrices:
            for seq in full_length_sequences(matrix.n, 3)[:6]:
                assert verify_unfolding_commutation(matrix, seq, 8).ok
            cached = unfolding._truncations[matrix, 8]
            cold = build_truncation(matrix, 8, framed=True)
            assert cached == cold
            assert cached.adj == cold.adj

    def test_65th_key_empties_the_cache_and_a_hit_changes_nothing(self, monkeypatch):
        # ONE's unfolding is one vertex and its frozen copy, so 65 builds are cheap
        monkeypatch.setattr(unfolding, "_truncations", {})
        cache = unfolding._truncations
        for m in range(1, 65):
            assert verify_unfolding_commutation(ONE, (1,), m).ok
        kept = [(key, id(quiver)) for key, quiver in cache.items()]
        assert len(kept) == 64
        assert verify_unfolding_commutation(ONE, (1, 1), 1).ok
        assert [(key, id(quiver)) for key, quiver in cache.items()] == kept
        assert verify_unfolding_commutation(ONE, (1,), 65).ok
        assert list(cache) == [(ONE, 65)]
        newest = cache[ONE, 65]
        assert verify_unfolding_commutation(ONE, (), 65).ok
        assert list(cache) == [(ONE, 65)] and cache[ONE, 65] is newest

    def test_cache_holds_at_most_one_cap_of_vertices(self, monkeypatch):
        # corpus matrices 2 and 17 at m = 8 (158 and 82 vertices) each fit a
        # cap of 158 but not together: caching 17 evicts the older 2
        older, newer = corpus_matrices()[2], corpus_matrices()[17]
        monkeypatch.setattr(unfolding, "_truncations", {})
        monkeypatch.setattr(unfolding, "_MAX_VERTICES", 158)
        for matrix in (older, newer):
            for seq in full_length_sequences(matrix.n, 3):
                assert verify_unfolding_commutation(matrix, seq, 8).ok
            assert list(unfolding._truncations) == [(matrix, 8)]
        kept = unfolding._truncations[(newer, 8)]
        assert kept == build_truncation(newer, 8, framed=True)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_step_owns_every_vertex_it_writes(self, reverse):
        # label-2 targets 1, 2 and 3 at depths 0, 2, 2 with radius 1, all in
        # the fold cone of representatives 0 and 1: targets 2 and 3 are
        # adjacent at depth r + 1, outside the interior the Γ check covers, so
        # mutating 2 gives 3 a neighbor it did not have; reversing every arrow
        # swaps the roles of in- and out-neighbors
        arrows = [(0, 2), (2, 3), (3, 4), (1, 0)]
        if reverse:
            arrows = [(w, u) for u, w in arrows]
        quiver = tiny_quiver(
            2, [1, 2, 2, 2, 1], [False] * 5, arrows,
            depths=[0, 0, 2, 2, 1], interior_radius=1,
        )
        before = copy.deepcopy(quiver.adj)
        adj = copy.deepcopy(before)
        for t in (1, 2, 3):
            _mutate_vertex(adj, quiver.frozen, t)
        *_, (step, work) = _replay(quiver, (2,), [0, 1])
        assert quiver.adj == before
        assert (step, work.interior_radius) == (1, -1)
        assert work.adj == adj

    def test_bad_direction_raises_like_orbit_mutate(self):
        quiver = build_truncation(example_matrix(), 6, framed=True)
        for seq in ((1, 5), (True,)):
            with pytest.raises(IndexError) as expected:
                orbit_mutate(quiver, seq[-1])
            with pytest.raises(IndexError) as replayed:
                verify_unfolding_commutation(example_matrix(), seq, 6)
            assert str(replayed.value) == str(expected.value)


# Corpus matrices at which a trusted ball cut through four steps gave false
# divergences at step 4 on m = 10: 636 pruned length-4 sequences in all.
STEP4_CORPUS = (17, 19, 25, 28, 36, 39, 43, 46, 48)


class TestFoldCone:
    """The final replay step mutates only the targets the fold can see."""

    @pytest.mark.parametrize(
        "seq, mutations", [((1,), 1), ((2,), 3), ((3,), 7), ((4,), 4)]
    )
    def test_vertex_mutations_on_example(self, monkeypatch, seq, mutations):
        # a count, not a time: orbit_mutate's whole step mutates 3,454,
        # 13,565, 7,178 and 18,332 vertices here
        calls = []

        def counting_mutate_vertex(adj, frozen, t):
            calls.append(t)
            _mutate_vertex(adj, frozen, t)

        monkeypatch.setattr(unfolding, "_mutate_vertex", counting_mutate_vertex)
        assert verify_unfolding_commutation(example_matrix(), seq, 8).ok
        assert len(calls) == mutations
        assert calls == sorted(calls)

    def test_cone_closes_under_adjacent_targets(self):
        # label-2 targets 1 and 2 are adjacent, as same-label vertices outside
        # the interior can be; only 2 touches the representative 3, but
        # mutating 1 first gives 2 the arrow from 0 that its mutation carries
        # on to 3
        quiver = tiny_quiver(3, [3, 2, 2, 1], [False] * 4, [(0, 1), (1, 2), (2, 3)])
        assert unfolding._fold_cone(quiver, 2, [3]) == [1, 2]

        def mutated_at(targets):
            adj = copy.deepcopy(quiver.adj)
            for t in targets:
                _mutate_vertex(adj, quiver.frozen, t)
            mutated = copy.copy(quiver)
            mutated.adj = adj
            return mutated

        whole = mutated_at(quiver.mutable_ids(2))
        *_, (_, cone) = _replay(quiver, (2,), [3])
        assert _fold_rows(cone, [3]) == _fold_rows(whole, [3])
        assert {u: mult for u, mult in whole.adj[0].items() if mult > 0} == {3: 1}
        assert _fold_rows(mutated_at([2]), [3]) != _fold_rows(whole, [3])


class TestFourStepReplay:
    def test_every_length_4_sequence_commutes_at_m_10(self):
        # cutting the trusted ball through four steps reported 46 of these as
        # diverging at step 4; the whole truncation is exact on all of them
        corpus = corpus_matrices()
        checked = 0
        for i in STEP4_CORPUS:
            for seq in full_length_sequences(corpus[i].n, 4):
                assert verify_unfolding_commutation(corpus[i], seq, 10).ok, (i, seq)
                checked += 1
        assert checked == 636


class TestFiveStepRefusal:
    """Five or more steps on an infinite unfolding are refused, whatever m.

    At m = 2L + 2 = 12 these two corpus sequences once reported a divergence
    at step 5, and at m = 13 and 14 they reported ok: the radius overclaims
    after five steps, and the fold read a vertex it wrongly trusted.
    """

    @pytest.mark.parametrize("index, seq", [(36, (2, 3, 1, 2, 1)), (48, (2, 4, 1, 3, 4))])
    @pytest.mark.parametrize("m", [12, 14])
    def test_corpus_sequences_raise(self, index, seq, m):
        with pytest.raises(InteriorExhaustedError, match=r"^interior budget exceeded: 5 steps"):
            verify_unfolding_commutation(corpus_matrices()[index], seq, m)

    def test_kronecker_four_steps_commute_five_raise(self):
        kronecker = ExchangeMatrix([[0, 2], [-2, 0]])
        assert not build_truncation(kronecker, 10).is_complete
        assert verify_unfolding_commutation(kronecker, (1, 2, 1, 2), 10).ok
        with pytest.raises(InteriorExhaustedError, match=r"^interior budget"):
            verify_unfolding_commutation(kronecker, (1, 2, 1, 2, 1), 12)

    @pytest.mark.parametrize("index, seq", [(36, (2, 3, 1, 2, 1)), (48, (2, 4, 1, 3, 4))])
    def test_orbit_mutate_chain_refuses_its_fifth_step(self, index, seq):
        # the fifth call once folded to a seed other than apply_sequence_framed's
        quiver = build_truncation(corpus_matrices()[index], 12, framed=True)
        for k in seq[:4]:
            quiver = orbit_mutate(quiver, k)
        assert quiver.can_fold
        with pytest.raises(InteriorExhaustedError, match=r"^interior budget exceeded"):
            orbit_mutate(quiver, seq[4])

    def test_hand_built_quiver_takes_its_first_orbit_mutation(self):
        # the step count was once guessed from the outer ring's depth less
        # the radius, a gap of 8 here, and this first step was refused "as
        # after 4 orbit-mutations"
        quiver = LabeledQuiver(n_labels=2, framed=False, labels=(1, 2, 1),
                               frozen=(False, False, False), depths=(0, 1, 10),
                               adj=[{1: 1}, {0: -1}, {}], interior_radius=1)
        assert quiver.can_fold and folding(quiver) == ExchangeMatrix([[0, -1], [1, 0]])
        mutated = orbit_mutate(quiver, 1)
        assert mutated.interior_radius == -1 and mutated._steps == 1
        assert mutated.adj == [{1: -1}, {0: 1}, {}]

    def test_fifth_call_checks_its_label_first(self):
        quiver = build_truncation(ExchangeMatrix([[0, 2], [-2, 0]]), 10, framed=True)
        for k in (1, 2, 1, 2):
            quiver = orbit_mutate(quiver, k)
        with pytest.raises(IndexError, match=r"^orbit label 3 out of range 1\.\.2$"):
            orbit_mutate(quiver, 3)
        with pytest.raises(InteriorExhaustedError, match=r"^interior budget exceeded: 5 steps, "
                                                         r"but an infinite unfolding's interior "
                                                         r"is trusted for 4 steps at most$"):
            orbit_mutate(quiver, 1)

    def test_complete_quiver_takes_any_number_of_orbit_mutations(self):
        seq = (1, 2) * 6
        quiver = build_truncation(TWO_LEAF, 2, framed=True)
        for k in seq:
            quiver = orbit_mutate(quiver, k)
        assert quiver.is_complete
        assert folding(quiver) == apply_sequence_framed(extend(TWO_LEAF), seq)

    def test_incomplete_build_gives_back_its_m(self):
        # _require_budget's argument: an incomplete fresh truncation has m =
        # radius - core_depth + 2, so m >= 2L + 2 keeps the last fold's
        # representatives interior; frozen copies add no ring, so unframed
        # builds have the same radius
        incomplete = 0
        for m in range(1, 11):
            for matrix in corpus_matrices():
                quiver = build_truncation(matrix, m, framed=False)
                if not quiver.is_complete:
                    assert quiver.interior_radius - quiver.core_depth + 2 == m
                    incomplete += 1
        assert incomplete == 381


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

    def test_shallowest_vertex_is_first_whatever_the_numbering(self):
        # label 1 has vertex 0 at depth 2, outside radius 1, and vertex 2 at
        # depth 0: the default representative, core_depth and can_fold must
        # all read vertex 2
        quiver = tiny_quiver(
            2, [1, 2, 1], [False] * 3, [(1, 2)], depths=[2, 0, 0], interior_radius=1
        )
        assert quiver.mutable_ids(1) == (2, 0)
        assert (quiver.core_depth, quiver.can_fold) == (0, True)
        folded = ExchangeMatrix([[0, 1], [-1, 0]])
        assert folding(quiver) == folding(quiver, {1: 2, 2: 1}) == folded
        assert folding_column(quiver, 1) == ((0, -1), None)

    @pytest.mark.parametrize("framed", [False, True])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_folding_does_not_depend_on_vertex_numbering(self, m, framed):
        rng = random.Random(0xF01D + 2 * m + framed)
        for matrix in corpus_matrices():
            quiver = build_truncation(matrix, m, framed=framed)
            twin = renumbered(quiver, rng)
            assert (twin.core_depth, twin.can_fold) == (quiver.core_depth, quiver.can_fold)
            assert orbit_sources(twin) == orbit_sources(quiver)
            assert folding(twin) == folding(quiver)
            if m == 4:
                for k in range(1, matrix.n + 1):
                    assert folding(orbit_mutate(twin, k)) == folding(orbit_mutate(quiver, k))
