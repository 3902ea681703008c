"""Unit tests for unfolding truncations, orbit-mutation, and folding."""

from __future__ import annotations

import copy
import hashlib
import itertools
import random
import re
import sys
import threading
from collections import Counter

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
    _column_sums,
    _count_rings,
    _first_ball,
    _fold_rows,
    _gamma_witnesses,
    _glue,
    _keep,
    _mutate_vertex,
    _orbit_step,
    _replay,
    _summary,
    _template,
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


def walk_of(quiver: LabeledQuiver, reps=None) -> unfolding._Walk:
    """A quiver whose every dict is built, as a walk the replay reads, with
    the default representatives unless reps is given; _Walk.arrows then
    only returns a dict, so the walk needs no gluing tree."""
    if reps is None:
        reps = [_default_representative(quiver, label) for label in range(1, quiver.n_labels + 1)]
    return unfolding._Walk(quiver, [], [], list(reps))


def built_dicts(walk: unfolding._Walk) -> int:
    return sum(arrows is not None for arrows in walk.quiver.adj)


def assert_cached_walk_is_read_only(matrix: ExchangeMatrix, m: int) -> None:
    """The cached walk of (matrix, m) has the vertices, class index and
    label index of a cold build, and every dict it built equals the cold
    build's, in the same order: the replays only read it."""
    walk = unfolding._truncations[matrix, m]
    cold = build_truncation(matrix, m, framed=True)
    quiver = walk.quiver
    assert (quiver.labels, quiver.frozen, quiver.depths) == (cold.labels, cold.frozen, cold.depths)
    assert (quiver.interior_radius, quiver.core_depth) == (cold.interior_radius, cold.core_depth)
    assert (quiver._classes, quiver._label_ids) == (cold._classes, cold._label_ids)
    assert walk.reps == [cold.mutable_ids(label)[0] for label in range(1, matrix.n + 1)]
    # the replay reads an exact list and exact dicts, never a subclass
    assert type(quiver.adj) is list and len(quiver.adj) == cold.vertex_count
    for v, arrows in enumerate(quiver.adj):
        assert arrows is None or (
            type(arrows) is dict and list(arrows.items()) == list(cold.adj[v].items())), v
    # at most one template a radius up to the saturation radius, each keeping
    # the very dicts the walk holds, so none keeps one the walk replaced
    assert all(radius <= walk.saturation for radius in walk.templates)
    for start, kept, _ids in walk.templates.values():
        assert start <= kept.keys() and all(arrows is quiver.adj[v] for v, arrows in kept.items())


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

    @pytest.mark.parametrize("framed", [True, False])
    def test_walk_rings_equal_the_counted_rings(self, framed):
        # the walk's quiver has no dict built yet, and its depth rings equal
        # _count_rings' and a recount from the columns of B, every corpus
        # matrix at m = 1..8
        for matrix in corpus_matrices():
            for m in range(1, 9):
                counts = _truncation_counts(matrix, m, framed)
                quiver = unfolding._walk(matrix, framed, counts).quiver
                assert all(arrows is None for arrows in quiver.adj)
                by_depth = Counter(quiver.depths)
                rings = [by_depth[d] for d in range(max(by_depth) + 1)]
                ring_counts, expanded, _radius = counts
                counted = [sum(ring.values()) * (1 + (framed and d < expanded))
                           for d, ring in enumerate(ring_counts)]
                assert rings == counted == recount_rings(matrix, m, framed), (matrix, m)


def recount_rings(matrix: ExchangeMatrix, m: int, framed: bool) -> list[int]:
    """Vertices per depth of the budget-m truncation, counted afresh: out to
    depth d* + m - 1 (at least 1), d* the largest distance from label 1 in
    the nonzero pattern, a label-i vertex entered from a label-p parent has
    |b_ji| children of each label j but one fewer when j = p, and each
    vertex it expands has a frozen copy at its depth when framed.  A ring
    with no vertex ends a finite unfolding."""
    b = matrix.entries
    n = matrix.n
    distance = {0: 0}
    queue = [0]
    for i in queue:  # breadth first: the loop reads what it appends
        for j in range(n):
            if b[i][j] and j not in distance:
                distance[j] = distance[i] + 1
                queue.append(j)
    depth = max(1, max(distance.values()) + m - 1)
    ring = Counter({(0, None): 1})
    sizes = []
    for _ in range(depth):
        grown = Counter()
        for (i, p), count in ring.items():
            for j in range(n):
                children = abs(b[j][i]) - (j == p)
                if j != i and children > 0:
                    grown[j, i] += count * children
        sizes.append(sum(ring.values()) * (2 if framed else 1))
        if not grown:
            return sizes
        ring = grown
    return sizes + [sum(ring.values())]


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

    def test_budget_m3_folds_after_one_step_not_after_two(self):
        # radius 3 and d* = 2: a step soils the parents, at depth 3, of the
        # outer ring's label-k vertices, so the radius drops to 2 and the fold
        # holds; step 2 at label 2 soils depth 2 and the radius drops below d*
        quiver = orbit_mutate(build_truncation(example_matrix(), 3, framed=True), 1)
        assert quiver.interior_radius == 2
        assert folding(quiver) == mutate_framed(extend(example_matrix()), 1)
        quiver = orbit_mutate(quiver, 2)
        assert quiver.interior_radius == 1
        with pytest.raises(InteriorExhaustedError):
            folding(quiver)

    def test_budget_exhaustion_blocks_mutation(self):
        quiver = build_truncation(example_matrix(), 2, framed=True)
        once = orbit_mutate(quiver, 1)
        # the outer ring (depth 3) has no label-1 vertex, so nothing turns
        # dirty and the radius stays 2; step 2 at label 2 soils depth 2
        assert once.interior_radius == 2
        twice = orbit_mutate(once, 2)
        assert twice.interior_radius == 1
        with pytest.raises(InteriorExhaustedError):
            orbit_mutate(twice, 3)

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
        # step 1 soils the parents of the outer ring's label-2 vertices, at
        # depth 4; step 2 soils them again and nothing more
        assert twice.interior_radius == quiver.interior_radius - 1

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

    @pytest.mark.parametrize("radius", [None, 0])
    def test_vertexless_quiver_is_clean(self, radius):
        # no vertex, so nothing is trusted and nothing is scanned
        empty = LabeledQuiver(n_labels=1, framed=False, labels=(), frozen=(), depths=(),
                              adj=[], interior_radius=radius)
        assert check_gamma_conditions(empty) == GammaReport(True, True, (), ())

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
                expected = brute_force_gamma_witnesses(quiver, scan)
                assert list(_gamma_witnesses(quiver, scan)) == expected
                for x in scan:
                    found = brute_force_gamma_witnesses(quiver, [x])
                    near = quiver.adj[x].values()
                    if not found:
                        # arrows both in and out, and still nothing to yield
                        paths["skipped"] += min(near, default=0) < 0 < max(near, default=0)
                    else:
                        paths["enumerated"] += 1
                        paths["loops_only"] += all(len(w) == 2 for w in found)
        assert min(paths.values()) >= 500, paths

    def test_orbit_mutate_refuses_exactly_what_the_check_reports(self):
        # one Γ rule: every arrow at a trusted vertex counts, a loop is a
        # witness when either end is trusted and a 2-cycle when its centre
        # is.  The loop between the trusted 0 and the untrusted 1 counts
        # either way round: 1 -> 0 was once missed, and orbit_mutate(q, 1)
        # then returned radius -1
        def agree(quiver, k):
            report = check_gamma_conditions(quiver)
            try:
                mutated = orbit_mutate(quiver, k)
            except GammaViolationError as refused:
                assert not report.ok
                assert str(refused) == (
                    "orbit-mutation undefined: "
                    f"label-class loops {list(report.loop_witnesses[:3])}, "
                    f"label-class 2-cycles {list(report.two_cycle_witnesses[:3])}"
                )
                return None
            assert report.ok
            return mutated

        for arrow in ({1: 1}, {1: -1}):
            quiver = LabeledQuiver(
                n_labels=2, framed=False, labels=(1, 1, 2), frozen=(False,) * 3,
                depths=(0, 1, 0), adj=[arrow, {0: -arrow[1]}, {}], interior_radius=0,
            )
            loop = (0, 1) if arrow[1] > 0 else (1, 0)
            assert check_gamma_conditions(quiver).loop_witnesses == (loop,)
            for k in (1, 2):
                assert agree(quiver, k) is None
        rng = random.Random(0x6A44A6)
        verdicts = Counter()
        for _ in range(1500):
            quiver = random_class_quiver(rng, rng.choice([None, 0, 1, 2, 3]))
            # a second step runs the check on a quiver that carries a dirty set
            for _ in range(2):
                if not quiver.can_fold or not quiver.present_labels():
                    break
                quiver = agree(quiver, rng.choice(quiver.present_labels()))
                verdicts["ok" if quiver else "refused"] += 1
                if quiver is None:
                    break
        assert min(verdicts.values()) >= 400, verdicts

    def test_two_cycle_through_an_untrusted_centre(self):
        # 0 -> 1 -> 2 joins the trusted label-1 vertices 0 and 2 through the
        # untrusted label-2 vertex 1: each arrow has a trusted end, so it is a
        # witness, and orbit_mutate(q, 2) is refused; it once mutated 1,
        # wrote the loop 0 -> 2 and returned radius -1
        quiver = LabeledQuiver(
            n_labels=2, framed=False, labels=(1, 2, 1, 2), frozen=(False,) * 4,
            depths=(0, 1, 0, 0), adj=[{1: 1}, {0: -1, 2: 1}, {1: -1}, {}], interior_radius=0,
        )
        assert check_gamma_conditions(quiver) == GammaReport(True, False, (), ((0, 1, 2),))
        with pytest.raises(GammaViolationError, match=r"2-cycles \[\(0, 1, 2\)\]$"):
            orbit_mutate(quiver, 2)
        # with the end 2 past the radius too, the arrow 1 -> 2 has no trusted end
        deeper = LabeledQuiver(
            n_labels=2, framed=False, labels=quiver.labels, frozen=quiver.frozen,
            depths=(0, 1, 1, 0), adj=quiver.adj, interior_radius=0,
        )
        assert check_gamma_conditions(deeper).ok

    def test_report_is_every_witness_with_a_trusted_end_at_each_arrow(self):
        # brute force over every vertex, then the one rule: a loop needs a
        # trusted end, a 2-cycle u -> x -> w needs one on u-x and one on x-w
        rng = random.Random(0x6A44A7)
        through_untrusted = 0
        for _ in range(1500):
            quiver = random_class_quiver(rng, rng.choice([None, 0, 1, 2, 3]))
            trusted = set(unfolding._trusted(quiver))
            expected = set()
            for w in brute_force_gamma_witnesses(quiver, range(quiver.vertex_count)):
                if all(a in trusted or b in trusted for a, b in zip(w, w[1:])):
                    expected.add(w)
                    through_untrusted += len(w) == 3 and w[1] not in trusted
            report = check_gamma_conditions(quiver)
            assert set(report.loop_witnesses + report.two_cycle_witnesses) == expected
            assert report.ok == (not expected)
        assert through_untrusted >= 50, through_untrusted

    @pytest.mark.parametrize("framed", [True, False])
    @pytest.mark.parametrize("m", [2, 4])
    def test_fresh_random_truncations_are_clean(self, m, framed):
        # the replay skips the Γ scan before its first step on this ground
        rng = random.Random(0x6A44A)
        for n in [1, 2, 3, 4, 5] * 6:
            matrix = random_acyclic_connected(rng, n)
            quiver = build_truncation(matrix, m, framed=framed)
            assert check_gamma_conditions(quiver).ok, matrix


def random_class_quiver(rng: random.Random, interior_radius=None) -> LabeledQuiver:
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
        depths=tuple(rng.randint(0, 3) for _ in range(n)), adj=adj,
        interior_radius=interior_radius,
    )


def brute_force_gamma_witnesses(quiver: LabeledQuiver, scan) -> list[tuple[int, ...]]:
    """Every loop (x, w) or (w, x) and 2-cycle (u, x, w) with x in scan, tried
    over all vertex pairs and triples, then put in scan order, w and u in
    adj[x] order."""
    n = quiver.vertex_count
    adj = quiver.adj

    def arrow(a, b):
        return adj[a].get(b, 0) > 0

    def kind(v):
        return quiver.labels[v], quiver.frozen[v]

    found = []
    for i, x in enumerate(scan):
        place = {v: p for p, v in enumerate(adj[x])}
        for w in range(n):
            if kind(w) == kind(x) and (arrow(x, w) or arrow(w, x)):
                found.append(((i, place[w], -1), (x, w) if arrow(x, w) else (w, x)))
            if not arrow(x, w):
                continue
            for u in range(n):
                if u != w and arrow(u, x) and kind(u) == kind(w) != kind(x):
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
        # refused at the step where a representative turns dirty
        with pytest.raises(InteriorExhaustedError, match=r"^interior exhausted at step 3 "
                                                         r"\(label 3\): "):
            verify_unfolding_commutation(example_matrix(), (1, 2, 3), 3)

    def test_finite_unfolding_needs_no_budget(self):
        # these corpus unfoldings are finite, so their truncation at m = 2 is
        # complete and every vertex stays clean: sequences of length 8 fold
        # exactly, step by step
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
                walk = walk_of(quiver, reps)
                whole = range(quiver.vertex_count)
                for step, work, clean in _replay(walk, seq, _keep(walk, whole)):
                    assert len(clean) == quiver.vertex_count
                    seed = apply_sequence_framed(extend(matrix), seq[:step])
                    assert _fold_rows(work, reps) == seed.b.entries + seed.c, (i, seq, step)
                    states += step > 0
        assert states == 7 * 40 * 8
        # on an infinite unfolding the outer ring is dirty
        with pytest.raises(InteriorExhaustedError, match=r"^interior exhausted at step 1 "):
            verify_unfolding_commutation(corpus[1], (1,), 2)

    def test_over_budget_replay_builds_and_caches_nothing(self, monkeypatch):
        # a truncation past the vertex cap (_MAX_VERTICES) is refused on the
        # counts, before the build: the example has over 2,000,000 vertices
        # at m = 12
        monkeypatch.setattr(unfolding, "_truncations", {})

        def no_build(*args):
            raise AssertionError("built a truncation")

        # the replay's walk (_glue) and the full build (_grow)
        monkeypatch.setattr(unfolding, "_glue", no_build)
        monkeypatch.setattr(unfolding, "_grow", no_build)
        for seq in ((1, 2, 3, 4, 1), (1, 2, 3)):
            with pytest.raises(ValueError, match=r"^the truncation would have at least "
                                                 r"4644212 vertices, more than the 2000000 "):
                verify_unfolding_commutation(example_matrix(), seq, 12)
            assert unfolding._truncations == {}

    def test_requests_past_the_old_budget_are_certified(self, monkeypatch):
        # once refused by the step cap of 4 or by m >= 2L + 2, these fold
        # exactly with every representative clean (TestCleanArrows backs the
        # certificate); the cached walk still agrees with a cold build.  The
        # example along 1,2,3,4,1 at m = 10 is pinned through the command line
        monkeypatch.setattr(unfolding, "_truncations", {})
        kronecker = ExchangeMatrix([[0, 2], [-2, 0]])
        for matrix, seq, m in [
            (example_matrix(), (1, 2, 3), 7),
            (kronecker, (1, 2, 1, 2, 1), 12),
            (kronecker, (1, 2, 1, 2), 9),
            (kronecker, (1, 2) * 5, 12),
        ]:
            assert verify_unfolding_commutation(matrix, seq, m) == CommutationReport(
                ok=True, first_divergence=None), (seq, m)
            assert_cached_walk_is_read_only(matrix, m)

    def test_column_check_catches_a_divergence_in_either_half(self):
        # one mirrored arrow at a representative made one stronger, toward a
        # mutable neighbour (a B row of the fold) or toward the
        # representative's frozen copy (a C row): the fold differs before
        # the first step
        matrix = example_matrix()
        fresh = build_truncation(matrix, 6, framed=True)
        assert unfolding._verify_replay(walk_of(fresh), matrix, (1, 2)).ok
        for label in range(1, matrix.n + 1):
            rep = _default_representative(fresh, label)
            for frozen in (False, True):
                u = next(u for u in fresh.adj[rep] if fresh.frozen[u] == frozen)
                broken = copy.copy(fresh)
                broken.adj = fresh.adj.copy()
                broken.adj[rep], broken.adj[u] = fresh.adj[rep].copy(), fresh.adj[u].copy()
                mult = broken.adj[rep][u] + (1 if broken.adj[rep][u] > 0 else -1)
                broken.adj[rep][u], broken.adj[u][rep] = mult, -mult
                report = unfolding._verify_replay(walk_of(broken), matrix, (1, 2))
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
        # deeper truncation: the example at m = 4 against m = 6, every pruned
        # length-3 sequence of the n <= 3 corpus matrices at m = 8 against
        # m = 10, and every pruned length-4 sequence at m = 10 against m = 12
        # of the n = 3 corpus matrices whose m = 12 truncation has at most
        # 1,000 vertices
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


def commutation_verdict(matrix: ExchangeMatrix, seq, m: int):
    """verify_unfolding_commutation's report, or its refusal's message."""
    try:
        return verify_unfolding_commutation(matrix, seq, m)
    except InteriorExhaustedError as refused:
        return str(refused)


def full_length_sequences(n: int, length: int) -> list[tuple[int, ...]]:
    """Direction sequences of exactly this length without immediate repeats."""
    return [
        seq
        for seq in itertools.product(range(1, n + 1), repeat=length)
        if all(a != b for a, b in zip(seq, seq[1:]))
    ]


def interior_set(quiver: LabeledQuiver) -> set[int]:
    """The vertices down to the interior radius: _verify_replay's second start."""
    radius = quiver.interior_radius
    return {v for v, depth in enumerate(quiver.depths) if radius is None or depth <= radius}


def check_replay_against_orbit_mutate(matrix, m, sequences, deeper=6) -> Counter:
    """Replay each sequence on the replay's own walk (_replay_walk), from
    both of _verify_replay's starts, the first ball and the whole interior,
    and after every step compare the arrows at
    every clean vertex with those of the build at m + deeper, whose ids
    extend this build's, after the same steps taken with no certificate:
    each mutates every label-k vertex of that build's interior
    (_mutate_vertex), as orbit_mutate does but for the outer ring, which is
    dirty either way.  The reference walks the prefixes depth first on that
    one build and undoes each step by mutating its targets again in reverse
    order, which is exact, so it must end equal to a cold build.  The
    comparison runs through every step, refused or not.  A clean set can
    only grow with its start, and the deeper build's interior holds this
    one's, so a wrong clean arrow on either side fails it.  Returns the
    verdicts of verify_unfolding_commutation, by kind.
    """
    small = unfolding._replay_walk(matrix, m)
    big = build_truncation(matrix, m + deeper, framed=True)
    count = small.quiver.vertex_count
    assert big.labels[:count] == small.quiver.labels and big.depths[:count] == small.quiver.depths
    children: dict[tuple[int, ...], list[int]] = {}
    for seq in sequences:
        for step in range(len(seq)):
            kids = children.setdefault(seq[:step], [])
            if seq[step] not in kids:
                kids.append(seq[step])
    reference = {}

    def walk(prefix):
        reference[prefix] = [d.copy() for d in big.adj[:count]]
        for k in children.get(prefix, ()):
            targets = big._interior_ids(k)
            for t in targets:
                _mutate_vertex(big.adj, big.frozen, t)
            walk(prefix + (k,))
            for t in reversed(targets):
                _mutate_vertex(big.adj, big.frozen, t)

    walk(())
    assert big.adj == build_truncation(matrix, m + deeper, framed=True).adj
    verdicts = Counter()
    for seq in sequences:
        for radius in (len(seq) + 1, count):
            for step, work, clean in _replay(small, seq, _template(small, radius)):
                ref = reference[seq[:step]]
                # before the first step work is the walk, whose dicts are
                # built when read
                arrows = work.adj.__getitem__ if step else small.arrows
                for v in clean:
                    assert arrows(v) == ref[v], (matrix, m, seq, step, v)
        try:
            report = verify_unfolding_commutation(matrix, seq, m)
            verdicts["ok" if report.ok else f"diverged at {report.first_divergence}"] += 1
        except InteriorExhaustedError as refused:
            verdicts[str(refused).split(":")[0]] += 1
    return verdicts


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

    def test_dirty_set_starts_unset_and_is_not_compared(self):
        quiver = tiny_quiver(2, [1, 2], [False, False], [(0, 1)])
        assert quiver._dirty is None
        stepped = orbit_mutate(quiver, 1)
        assert stepped._dirty == frozenset() and quiver._dirty is None
        assert orbit_mutate(stepped, 1) == quiver  # mutation at 1 twice is the identity
        twin = copy.copy(stepped)
        twin._dirty = frozenset({0})
        assert twin == stepped

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

    # an int past the int/str digit limit, whose repr raises ValueError, and
    # how a refusal names it: sign, first 20 digits and digit count
    BIG = 10**5000
    SHOWN = "10000000000000000000... (5001 digits)"

    @pytest.mark.parametrize("call, error, message", [
        (lambda q, big: LabeledQuiver(n_labels=1, framed=False, labels=(big,), frozen=(False,),
                                      depths=(0,), adj=[{}], interior_radius=None),
         ValueError, "label {} is not in 1..1"),
        (lambda q, big: LabeledQuiver(n_labels=1, framed=False, labels=(1,), frozen=(big,),
                                      depths=(0,), adj=[{}], interior_radius=None),
         ValueError, "frozen entry {} is not a bool"),
        (lambda q, big: q.entry(big, 0), IndexError, "vertex {} out of range 0..3"),
        (lambda q, big: folding_column(q, big), ValueError, "label {} missing from quiver"),
        (lambda q, big: folding(q, {1: big, 2: 2}), ValueError,
         "representative {} is not a mutable vertex"),
        (lambda q, big: folding(q, {big: 0}), ValueError,
         "representative key {} is not a label in 1..2"),
        (lambda q, big: folding(LabeledQuiver(n_labels=1, framed=False, labels=(1, 1),
                                              frozen=(False, False), depths=(0, 1),
                                              adj=[{big: 1}, {}], interior_radius=None)),
         ValueError, "representative 0 has a malformed arrow to {}"),
    ], ids=["label", "frozen-entry", "vertex", "missing-label", "representative",
            "representative-key", "malformed-arrow"])
    def test_int_past_the_digit_limit_is_named_in_the_refusal(self, call, error, message):
        # each once raised the int/str-limit ValueError from its own {!r}
        with pytest.raises(error, match=rf"^{re.escape(message.format(self.SHOWN))}$"):
            call(self.QUIVER, self.BIG)

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


def skip_soiling_neighbours(work, targets, dirty):
    """_orbit_step with the rule cut short: the dirty label-k vertices make
    only themselves dirty, not their neighbours."""
    for t in targets:
        _mutate_vertex(work.adj, work.frozen, t)
    return set(dirty)


class TestTrustedBallReplay:
    """The replay inside verify_unfolding_commutation against orbit_mutate.

    The replay mutates only the clean label-k vertices, first of the ball
    of radius L + 1 around the representatives and, when a representative
    turns dirty, of the whole interior.  These tests hold every clean
    vertex to the whole-truncation orbit_mutate rule on a deeper build
    (check_replay_against_orbit_mutate), pin the replay's work, and show
    the rule is tight: without its soiling of neighbours a named request
    diverges.  Both starts are templates the walk builds once and then
    only reads; a warm walk must give a cold walk's reports.
    """

    def test_interior_matches_orbit_mutate_on_corpus(self):
        verdicts = Counter()
        for matrix in corpus_matrices()[1:]:
            sequences = [seq for length in (1, 2, 3)
                         for seq in full_length_sequences(matrix.n, length)]
            verdicts += check_replay_against_orbit_mutate(matrix, 8, sequences, deeper=2)
            # the old rule's least budget, m = 2L + 2, certifies them all too
            for seq in sequences:
                assert verify_unfolding_commutation(matrix, seq, 2 * len(seq) + 2).ok, seq
        # 15 n=2, 15 n=3 and 20 n=4 matrices with n, n(n-1) and n(n-1)^2
        # sequences of lengths 1, 2 and 3
        assert verdicts == {"ok": 15 * 6 + 15 * 21 + 20 * 52}

    def test_interior_matches_orbit_mutate_at_m_2l_plus_3(self):
        verdicts = Counter()
        for matrix in corpus_matrices()[1::5]:
            for length in (1, 2, 3):
                verdicts += check_replay_against_orbit_mutate(
                    matrix, 2 * length + 3, full_length_sequences(matrix.n, length), deeper=2)
        # corpus 1, 6, 11 (n=2), 16, 21, 26 (n=3), 31, 36, 41, 46 (n=4)
        assert verdicts == {"ok": 3 * 6 + 3 * 21 + 4 * 52}

    def test_interior_matches_orbit_mutate_on_random_n5(self):
        # beyond the corpus (n <= 4): of the first 40 seeded n = 5 draws, those
        # whose m = 8 truncation has 100 to 500 vertices
        rng = random.Random(0x5EED05)
        draws = [random_acyclic_connected(rng, 5, 3) for _ in range(40)]
        chosen = [matrix for matrix in draws
                  if 100 <= build_truncation(matrix, 8, framed=True).vertex_count <= 500]
        assert len(chosen) == 9
        verdicts = Counter()
        for matrix in chosen:
            sequences = [seq for length in (1, 2, 3) for seq in full_length_sequences(5, length)]
            verdicts += check_replay_against_orbit_mutate(matrix, 8, sequences, deeper=2)
        # 5 + 20 + 80 sequences of lengths 1, 2 and 3
        assert verdicts == {"ok": 9 * 105}

    def test_interior_matches_orbit_mutate_on_example(self):
        sequences = full_length_sequences(4, 1) + full_length_sequences(4, 2)
        verdicts = check_replay_against_orbit_mutate(example_matrix(), 6, sequences, deeper=2)
        assert verdicts == {"ok": 4 + 12}

    @pytest.mark.parametrize("seq, mutations", [
        ((1,), 4), ((2,), 5), ((3,), 20), ((4,), 20),
        ((1, 2), 36), ((2, 1), 21), ((2, 1, 2), 173), ((1, 2, 3), 215), ((3, 4, 2), 10907),
    ])
    def test_vertex_mutations_on_example(self, monkeypatch, seq, mutations):
        # a count, not a time: orbit_mutate's whole step mutates 3,454,
        # 13,565, 7,178 and 18,332 vertices at labels 1..4 here; the last
        # fold's cone alone was 1, 3, 7 and 4; with a depth band and balls
        # cut by distance, (1, 2), (2, 1), (2, 1, 2) and (1, 2, 3) took 226,
        # 796, 1,021 and 654.  (3, 4, 2) turns a representative dirty in the
        # first ball and replays the whole interior, 29,510 vertices
        calls = []

        def counting_mutate_vertex(adj, frozen, t):
            calls.append(t)
            _mutate_vertex(adj, frozen, t)

        monkeypatch.setattr(unfolding, "_mutate_vertex", counting_mutate_vertex)
        assert verify_unfolding_commutation(example_matrix(), seq, 8).ok
        assert len(calls) == mutations

    @pytest.mark.parametrize("rows, seq, m, step", [
        (EXAMPLE_ROWS, (1, 2, 3), 3, 3),
        (EXAMPLE_ROWS, (1, 4), 3, 2),
    ])
    def test_soiling_no_neighbours_would_diverge_here(self, monkeypatch, rows, seq, m, step):
        matrix = ExchangeMatrix(rows)
        monkeypatch.setattr(unfolding, "_truncations", {})
        with pytest.raises(InteriorExhaustedError, match=rf"^interior exhausted at step {step} "):
            verify_unfolding_commutation(matrix, seq, m)
        monkeypatch.setattr(unfolding, "_orbit_step", skip_soiling_neighbours)
        assert verify_unfolding_commutation(matrix, seq, m) == CommutationReport(
            ok=False, first_divergence=step
        )
        with pytest.raises(AssertionError):
            check_replay_against_orbit_mutate(matrix, m, [seq])

    def test_gamma_verdict_on_hand_built_violations(self):
        loop = tiny_quiver(1, [1, 1], [False, False], [(0, 1)])
        two_cycle = tiny_quiver(2, [1, 2, 1], [False] * 3, [(0, 1), (1, 2)])
        separate = tiny_quiver(
            2, [1, 2, 1], [False, False, True], [(0, 1), (1, 2)], framed=True
        )
        for quiver, ok in ((loop, False), (two_cycle, False), (separate, True)):
            witnesses = _gamma_witnesses(quiver, range(quiver.vertex_count))
            verdict = next(witnesses, None) is None
            assert verdict is ok is check_gamma_conditions(quiver).ok

    def test_gamma_violation_created_by_a_step(self):
        # mutating label 2 at vertex 1 adds 0 -> 2, closing 0 -> 2 -> 3 on label 1;
        # only the representatives are scanned, and that must catch it
        quiver = tiny_quiver(3, [1, 2, 3, 1], [False] * 4, [(0, 1), (1, 2), (2, 3)])
        assert check_gamma_conditions(quiver).ok
        with pytest.raises(GammaViolationError) as expected:
            orbit_mutate(orbit_mutate(quiver, 2), 3)
        walk = walk_of(quiver, [0, 1, 2])
        with pytest.raises(GammaViolationError) as replayed:
            list(_replay(walk, (2, 3), _keep(walk, range(4))))
        assert str(replayed.value) == str(expected.value)

    def test_replay_never_writes_the_cached_truncation(self, monkeypatch):
        # certified, refused, and certified by the whole interior after the
        # first ball lost a representative; each cached walk agrees with a
        # cold build on every dict it built
        monkeypatch.setattr(unfolding, "_truncations", {})
        example = example_matrix()
        with pytest.raises(InteriorExhaustedError):
            verify_unfolding_commutation(example, (1, 2, 3), 3)
        assert verify_unfolding_commutation(example, (1, 2, 3), 8).ok
        walk = unfolding._truncations[example, 8]
        assert built_dicts(walk) == 1646 and list(walk.templates) == [4]
        ball = walk.templates[4]
        assert verify_unfolding_commutation(example, (3, 4, 2), 8).ok
        # the rerun built the dicts the ball's template lacked and kept the rest
        assert built_dicts(walk) == 57284 and walk.templates == {4: ball, 9: walk.templates[9]}
        assert all(arrows is walk.quiver.adj[v] for template in walk.templates.values()
                   for v, arrows in template[1].items())
        assert_cached_walk_is_read_only(example, 3)
        assert_cached_walk_is_read_only(example, 8)
        matrices = [example] + corpus_matrices()[1:51:10]
        for matrix in matrices:
            for seq in full_length_sequences(matrix.n, 3)[:6]:
                assert verify_unfolding_commutation(matrix, seq, 8).ok
            assert_cached_walk_is_read_only(matrix, 8)

    def test_hand_built_quiver_replays_as_the_build(self, monkeypatch):
        # the replay's walk, whose dicts are built as they are read, the full
        # build, and its vertices and arrows made by hand: the first ball is
        # read off the arrows, the gluing tree, so each step mutates the
        # same targets on all three, and every fold agrees
        taken = []

        def recording_orbit_step(work, targets, dirty):
            taken.append(list(targets))
            return _orbit_step(work, targets, dirty)

        monkeypatch.setattr(unfolding, "_orbit_step", recording_orbit_step)
        matrix, seq = example_matrix(), (1, 2, 3)
        grown = build_truncation(matrix, 8, framed=True)
        made = LabeledQuiver(n_labels=4, framed=True, labels=grown.labels, frozen=grown.frozen,
                             depths=grown.depths, adj=grown.adj, interior_radius=8)
        assert made == grown
        lazy = unfolding._replay_walk(matrix, 8)
        runs = []
        for walk in (lazy, walk_of(grown), walk_of(made)):
            taken.clear()
            template = _template(walk, len(seq) + 1)
            folds = [_fold_rows(work, walk.reps) for _, work, _ in _replay(walk, seq, template)]
            runs.append((walk.reps, folds, [targets[:] for targets in taken]))
        assert runs[0] == runs[1] == runs[2]
        assert [len(targets) for targets in runs[0][2]] == [61, 69, 85]

    def test_threads_share_one_cached_walk(self, monkeypatch):
        # four threads, more than the cores, replay the example's 36 pruned
        # length-3 sequences at m = 6 on one cached walk at once, with a short
        # switch interval.  The walk has served only the empty sequence, so
        # the threads race to build the length-3 template, and six
        # whole-interior reruns race to build the interior's: each thread
        # gets the reports and refusals a lone call gives, each template is
        # built once, and the walk still agrees with a cold build
        example = example_matrix()
        sequences = full_length_sequences(4, 3)
        monkeypatch.setattr(unfolding, "_truncations", {})
        alone = [commutation_verdict(example, seq, 6) for seq in sequences]
        assert sum(isinstance(v, str) for v in alone) == 1
        monkeypatch.setattr(unfolding, "_truncations", {})
        assert verify_unfolding_commutation(example, (), 6).ok  # the walk the threads share
        walk = unfolding._truncations[example, 6]
        assert list(walk.templates) == [1]
        keep, built = unfolding._keep, []

        def counted_keep(replayed, start):
            built.append(len(start))
            return keep(replayed, start)

        monkeypatch.setattr(unfolding, "_keep", counted_keep)
        results, failures = {}, []
        barrier = threading.Barrier(4, timeout=60)

        def run(offset):
            try:
                barrier.wait()
                results[offset] = [commutation_verdict(example, seq, 6)
                                   for seq in sequences[offset:] + sequences[:offset]]
            except Exception as error:  # noqa: BLE001 - reported by the assertion below
                failures.append(repr(error))

        threads = [threading.Thread(target=run, args=(9 * i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == [] and sorted(results) == [0, 9, 18, 27]
        for offset, got in results.items():
            assert got == alone[offset:] + alone[:offset], offset
        # the ball of radius 4 and the whole interior, once each
        assert built == [536, 3506] and sorted(walk.templates) == [1, 4, 7]
        assert_cached_walk_is_read_only(example, 6)

    def test_a_call_waits_for_the_template_another_thread_builds(self, monkeypatch):
        # one thread builds the example's whole-interior template at m = 8
        # and is held inside the bulk build of its dicts (_tree_adj) while a
        # second thread asks for the same template: the second waits on the
        # walk's lock and then reads the first one's template, so the dicts
        # are built once; both certify, and the walk agrees with a cold build
        example = example_matrix()
        monkeypatch.setattr(unfolding, "_truncations", {})
        assert verify_unfolding_commutation(example, (1, 2, 3), 8).ok  # no rerun
        tree_adj, calls = unfolding._tree_adj, []
        entered, release = threading.Event(), threading.Event()

        def held_tree_adj(walk):
            calls.append(None)
            entered.set()
            assert release.wait(timeout=60)
            return tree_adj(walk)

        monkeypatch.setattr(unfolding, "_tree_adj", held_tree_adj)
        results = {}

        def run(name):
            results[name] = commutation_verdict(example, (3, 4, 2), 8)

        first = threading.Thread(target=run, args=("first",))
        second = threading.Thread(target=run, args=("second",))
        first.start()
        assert entered.wait(timeout=60)
        second.start()
        second.join(timeout=0.5)
        waited = second.is_alive()
        release.set()
        for thread in (first, second):
            thread.join(timeout=60)
        assert not first.is_alive() and not second.is_alive()
        assert waited and len(calls) == 1
        ok = CommutationReport(ok=True, first_divergence=None)
        assert results == {"first": ok, "second": ok}
        assert built_dicts(unfolding._truncations[example, 8]) == 57284
        assert_cached_walk_is_read_only(example, 8)

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
        assert_cached_walk_is_read_only(newer, 8)

    def test_each_template_is_built_once_per_walk_and_radius(self, monkeypatch):
        # a count: the example's 36 pruned length-3 sequences at m = 8 build
        # one first-ball template, of radius 4, and for the six that lose a
        # representative in it one whole-interior template, kept under the
        # saturation radius 9, where the ball stops growing
        monkeypatch.setattr(unfolding, "_truncations", {})
        keep, template, built, asked = unfolding._keep, unfolding._template, [], Counter()

        def counted_keep(replayed, start):
            built.append(len(start))
            return keep(replayed, start)

        def counted_template(replayed, radius):
            asked[radius] += 1
            return template(replayed, radius)

        monkeypatch.setattr(unfolding, "_keep", counted_keep)
        monkeypatch.setattr(unfolding, "_template", counted_template)
        example = example_matrix()
        for _ in range(2):
            for seq in full_length_sequences(4, 3):
                assert verify_unfolding_commutation(example, seq, 8).ok
        walk = unfolding._truncations[example, 8]
        assert asked == {4: 72, walk.quiver.vertex_count: 12}
        assert built == [536, 29510]
        assert sorted(walk.templates) == [4, 9] and walk.saturation == 9
        assert_cached_walk_is_read_only(example, 8)

    def test_first_ball_stops_where_a_ring_adds_no_vertex(self):
        # a count of rings, not a time: corpus matrix 17 at m = 6 has 50
        # vertices, and its ball holds all 42 interior ones from radius 7 on,
        # so a search for radius 100,001 adds 7 rings and stops.  Every
        # radius from 7 on shares one template, the whole interior's
        walk = unfolding._replay_walk(corpus_matrices()[17], 6)
        balls = {radius: _first_ball(walk, radius) for radius in (6, 7, 8, 100_001)}
        assert {radius: (len(ball), rings) for radius, (ball, rings) in balls.items()} == {
            6: (40, 6), 7: (42, 7), 8: (42, 7), 100_001: (42, 7)}
        assert balls[100_001][0] == interior_set(walk.quiver)
        assert walk.saturation == 50 and walk.templates == {}
        whole = _template(walk, 100_001)
        assert walk.saturation == 7 and walk.templates == {7: whole}
        for radius in (7, 8, 50):
            assert _template(walk, radius) is whole
        assert _template(walk, 6) is not whole and sorted(walk.templates) == [6, 7]
        # a complete quiver has one template, every vertex
        complete = unfolding._replay_walk(corpus_matrices()[3], 2)
        assert _first_ball(complete, 3) == (set(range(4)), 0)
        assert _template(complete, 3) is _template(complete, 1)
        assert complete.saturation == 0 and list(complete.templates) == [0]

    def test_templates_keep_at_most_five_times_the_walks_vertices(self, monkeypatch):
        # a ball that grows by four vertices a ring: the Kronecker matrix at
        # m = 16 (64 vertices) along the prefixes of (1, 2) * 8.  The first
        # balls of radius 1 to 9 keep 10, 14, ..., 42 vertices, 234 in all,
        # so the next (46) would pass four times the vertex count: the balls
        # of radius 10 to 15 serve their calls alone, built for each, while
        # the whole interior's template (radius 16 and up) is kept.  Every
        # report and refusal is a cold walk's
        kronecker = ExchangeMatrix([[0, 2], [-2, 0]])
        sequences = [((1, 2) * 8)[:length] for length in range(17)]
        monkeypatch.setattr(unfolding, "_truncations", {})
        cold = []
        for seq in sequences:
            unfolding._truncations.clear()
            cold.append(commutation_verdict(kronecker, seq, 16))
        assert [isinstance(verdict, str) for verdict in cold] == [False] * 15 + [True] * 2
        keep, built = unfolding._keep, []

        def counted_keep(replayed, start):
            built.append(len(start))
            return keep(replayed, start)

        monkeypatch.setattr(unfolding, "_keep", counted_keep)
        unfolding._truncations.clear()
        for _ in range(2):
            built.clear()
            assert [commutation_verdict(kronecker, seq, 16) for seq in sequences] == cold
        walk = unfolding._truncations[kronecker, 16]
        kept = {key: len(kept) for key, (_start, kept, _ids) in walk.templates.items()}
        assert kept == {radius: 6 + 4 * radius for radius in range(1, 10)} | {16: 64}
        assert sum(kept.values()) - kept[16] <= 4 * walk.quiver.vertex_count
        # the second pass builds the balls of radius 10 to 15 again, once a call
        assert built == [42, 46, 50, 54, 58, 61]
        assert_cached_walk_is_read_only(kronecker, 16)

    @pytest.mark.parametrize("m, lengths, refused", [
        (2, range(4), 843), (3, range(4), 472), (5, range(4), 47), (8, range(4), 0),
        (6, (4,), 116), (10, (4,), 13),
    ])
    def test_a_warm_walk_gives_a_cold_walks_reports(self, monkeypatch, m, lengths, refused):
        # each request runs on a cold walk, the cache emptied before it, and
        # then on a warm one, with every template it could read built: the
        # reports and refusal messages are the same bytes, and the warm pass
        # builds no template.  The example and the 50 corpus matrices (46
        # distinct) with every pruned sequence of length 0 to 3, and the
        # STEP4_CORPUS matrices with every one of length 4
        corpus = corpus_matrices()
        matrices = corpus if 0 in lengths else [corpus[i] for i in STEP4_CORPUS]
        requests = [(matrix, seq) for matrix in matrices
                    for length in lengths for seq in full_length_sequences(matrix.n, length)]
        monkeypatch.setattr(unfolding, "_truncations", {})
        cold = []
        for matrix, seq in requests:
            unfolding._truncations.clear()
            cold.append(repr(commutation_verdict(matrix, seq, m)))
        for matrix in matrices:
            assert verify_unfolding_commutation(matrix, (), m).ok
            walk = unfolding._truncations[matrix, m]
            for radius in [length + 1 for length in lengths] + [walk.quiver.vertex_count]:
                _template(walk, radius)
        assert len(unfolding._truncations) == len(set(matrices))

        def no_keep(walk, start):
            raise AssertionError("a warm call built a template")

        monkeypatch.setattr(unfolding, "_keep", no_keep)
        warm = [repr(commutation_verdict(matrix, seq, m)) for matrix, seq in requests]
        assert warm == cold
        assert sum("interior exhausted at step " in verdict for verdict in cold) == refused

    @pytest.mark.parametrize("reverse", [False, True])
    def test_step_owns_every_vertex_it_writes(self, reverse):
        # label-2 targets 1, 2 and 3, all clean: targets 2 and 3 are
        # adjacent, as no Γ scan runs without representatives, so mutating 2
        # gives 3 a neighbor it did not have; reversing every arrow swaps the
        # roles of in- and out-neighbors.  The step keeps the dicts of the
        # start and its neighbours, and writes only those
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
        start, walk = range(5), walk_of(quiver, [])
        *_, (step, work, clean) = _replay(walk, (2,), _keep(walk, start))
        assert quiver.adj == before
        assert (step, clean) == (1, set(start))
        assert set(work.adj) == set(start).union(*(before[v] for v in start))
        for v in work.adj:
            assert work.adj[v] == adj[v], v

    @pytest.mark.parametrize("seq, kept", [
        ((1,), [188]), ((1, 2, 3), [1646]), ((3, 4, 2), [1646, 57284]),
    ])
    def test_kept_dicts_on_example(self, monkeypatch, seq, kept):
        # a count, not a time: the dicts each run copies, its start and the
        # start's neighbours.  (3, 4, 2) replays the whole interior after its
        # first ball, whose neighbours are the whole build of 57,284 vertices.
        # A fresh walk builds exactly the dicts its runs read: the last
        # run's kept set
        monkeypatch.setattr(unfolding, "_truncations", {})
        replay, sizes = unfolding._replay, []

        def recording_replay(*args):
            for step, work, clean in replay(*args):
                if step == 1:
                    sizes.append(len(work.adj))
                yield step, work, clean

        monkeypatch.setattr(unfolding, "_replay", recording_replay)
        assert verify_unfolding_commutation(example_matrix(), seq, 8).ok
        assert sizes == kept
        assert built_dicts(unfolding._truncations[example_matrix(), 8]) == kept[-1]

    def test_a_write_outside_the_kept_dicts_raises(self, monkeypatch):
        # a mutation rule that also writes the build's last vertex, on the
        # outer ring and past every kept dict, raises KeyError instead of
        # writing the cached walk, which still agrees with a cold build
        monkeypatch.setattr(unfolding, "_truncations", {})
        example = example_matrix()
        far = build_truncation(example, 8).vertex_count - 1

        def writing_past_the_kept_dicts(adj, frozen, t):
            _mutate_vertex(adj, frozen, t)
            adj[far][t] = 1

        monkeypatch.setattr(unfolding, "_mutate_vertex", writing_past_the_kept_dicts)
        with pytest.raises(KeyError, match=rf"^{far}$"):
            verify_unfolding_commutation(example, (1,), 8)
        assert_cached_walk_is_read_only(example, 8)

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


class TestCleanArrows:
    """The clean-set certificate against a build at m + 6, whose ids extend
    the replay's (check_replay_against_orbit_mutate), past where the old
    rule reached: four and five steps and Kronecker sequences of length 10."""

    @pytest.mark.parametrize("index, m", [
        (17, 10), (19, 10), (25, 3), (28, 3), (36, 3), (39, 3), (43, 3), (46, 8), (48, 6),
    ])
    def test_four_steps_on_the_step4_corpus(self, index, m):
        # each matrix at the largest m <= 10 whose m + 6 build has at most
        # 2,500 vertices
        matrix = corpus_matrices()[index]
        size = [_summary(_truncation_counts(matrix, m + d, True), True)["vertices"]
                for d in (6, 7)]
        assert size[0] <= 2500 and (m == 10 or size[1] > 2500)
        verdicts = check_replay_against_orbit_mutate(
            matrix, m, full_length_sequences(matrix.n, 4))
        assert sum(verdicts.values()) == len(full_length_sequences(matrix.n, 4))
        assert not [kind for kind in verdicts if kind.startswith("diverged")]

    def test_five_steps_on_a_sample(self):
        corpus = corpus_matrices()
        rng = random.Random(0xF1FE)
        verdicts = Counter()
        for i in (17, 19, 46, 48):
            sequences = rng.sample(full_length_sequences(corpus[i].n, 5), 8)
            verdicts += check_replay_against_orbit_mutate(corpus[i], 8, sequences)
        assert sum(verdicts.values()) == 32
        assert not [kind for kind in verdicts if kind.startswith("diverged")]

    def test_kronecker_at_length_10(self):
        kronecker = ExchangeMatrix([[0, 2], [-2, 0]])
        verdicts = check_replay_against_orbit_mutate(kronecker, 12, [(1, 2) * 5, (2, 1) * 5])
        assert verdicts == {"ok": 2}

    def test_first_ball_gives_the_whole_interiors_verdict(self, monkeypatch):
        # the first ball only saves work: started from the whole interior,
        # every request gets the same report or the same refusal.  A walk
        # keeps the templates its first pass built, so the second pass runs
        # each request on a cold walk, and the patched search must run for
        # every one of them
        corpus = corpus_matrices()
        requests = [(corpus[i], seq, m) for i in STEP4_CORPUS[::2] for m in (6, 10)
                    for seq in full_length_sequences(corpus[i].n, 4)[::5]]
        requests += [(example_matrix(), seq, 5) for seq in full_length_sequences(4, 3)]
        monkeypatch.setattr(unfolding, "_truncations", {})
        first = [commutation_verdict(*request) for request in requests]
        searches = []

        def whole_interior(walk, radius):
            searches.append(radius)
            return interior_set(walk.quiver), radius

        monkeypatch.setattr(unfolding, "_first_ball", whole_interior)
        for request, verdict in zip(requests, first):
            unfolding._truncations.clear()
            searched = len(searches)
            assert commutation_verdict(*request) == verdict, request
            assert len(searches) > searched, request
        kinds = Counter(isinstance(v, str) for v in first)
        assert kinds[True] and kinds[False]


class TestTransitivity:
    """Every right vertex of a label folds to the label's column.

    The module docstring's transitivity argument: label-preserving
    automorphisms carry any vertex of the unfolding to any other of its
    class, and orbit-mutation commutes with them.  So after every prefix of
    an orbit_mutate chain, every interior vertex of a label, not only the
    default representative, must give the same column, apply_sequence_framed's;
    and every interior frozen copy of a label the same sums.
    """

    def test_every_interior_vertex_of_a_label_folds_alike(self):
        corpus = corpus_matrices()
        chosen = []
        for i, matrix in enumerate(corpus):
            quiver = build_truncation(matrix, 10, framed=True)
            if not quiver.is_complete and quiver.vertex_count <= 6000:
                chosen.append(i)
        assert chosen == [2, 7, 9, 10, 11, 12, 13, 14, 15, 17, 18, 19, 22, 24, 25, 26, 28, 30,
                          31, 32, 34, 35, 36, 39, 40, 42, 43, 46, 47, 48]
        sequences = states = 0
        for i in chosen:
            matrix = corpus[i]
            n = matrix.n
            chains = {(): build_truncation(matrix, 10, framed=True)}
            frozen = [v for v, is_frozen in enumerate(chains[()].frozen) if is_frozen]
            for seq in full_length_sequences(n, 3):
                sequences += 1
                for step in range(1, 4):
                    if seq[:step] not in chains:
                        chains[seq[:step]] = orbit_mutate(chains[seq[:step - 1]], seq[step - 1])
            for prefix, quiver in chains.items():
                seed = apply_sequence_framed(extend(matrix), prefix)
                rows = seed.b.entries + seed.c
                for label in range(1, n + 1):
                    columns = {tuple(_column_sums(quiver, v)) for v in quiver._interior_ids(label)}
                    assert columns == {tuple(row[label - 1] for row in rows)}, (i, prefix, label)
                frozen_sums = {}
                for v in frozen:
                    if quiver.is_interior(v):
                        frozen_sums.setdefault(quiver.labels[v], set()).add(
                            tuple(_column_sums(quiver, v)))
                assert all(len(sums) == 1 for sums in frozen_sums.values()), (i, prefix)
                states += 1
        assert sequences == 558


class TestFourStepReplay:
    def test_every_length_4_sequence_commutes_at_m_10(self):
        # none diverges: at m = 10, 623 are certified and 13 are refused at
        # step 4, where a representative turns dirty even from the whole
        # interior; those 13 are certified at m = 14
        corpus = corpus_matrices()
        refused = []
        for i in STEP4_CORPUS:
            for seq in full_length_sequences(corpus[i].n, 4):
                try:
                    assert verify_unfolding_commutation(corpus[i], seq, 10).ok, (i, seq)
                except InteriorExhaustedError as error:
                    assert str(error).startswith("interior exhausted at step 4 "), (i, seq)
                    refused.append((i, seq))
        assert sum(len(full_length_sequences(corpus[i].n, 4)) for i in STEP4_CORPUS) == 636
        assert len(refused) == 13
        for i, seq in refused:
            assert verify_unfolding_commutation(corpus[i], seq, 14).ok, (i, seq)


class TestFiveStepRefusal:
    """Refusals past four steps come from the clean set, at the step named.

    At m = 12 these two corpus sequences once reported a divergence at step
    5 under a radius that overclaimed; now a representative turns dirty at
    step 5, at m = 12 and at 14, and neither ever reports a divergence.
    """

    @pytest.mark.parametrize("index, seq", [(36, (2, 3, 1, 2, 1)), (48, (2, 4, 1, 3, 4))])
    @pytest.mark.parametrize("m", [12, 14])
    def test_corpus_sequences_raise(self, index, seq, m):
        with pytest.raises(InteriorExhaustedError, match=rf"^interior exhausted at step 5 "
                                                         rf"\(label {seq[4]}\): "):
            verify_unfolding_commutation(corpus_matrices()[index], seq, m)

    def test_kronecker_four_steps_commute_five_raise(self):
        # at m = 6; at m = 12, past the old cap of four steps, five and ten
        # steps commute
        kronecker = ExchangeMatrix([[0, 2], [-2, 0]])
        assert not build_truncation(kronecker, 6).is_complete
        assert verify_unfolding_commutation(kronecker, (1, 2, 1, 2), 6).ok
        with pytest.raises(InteriorExhaustedError, match=r"^interior exhausted at step 5 "):
            verify_unfolding_commutation(kronecker, (1, 2, 1, 2, 1), 6)
        assert verify_unfolding_commutation(kronecker, (1, 2, 1, 2, 1), 12).ok
        assert verify_unfolding_commutation(kronecker, (1, 2) * 5, 12).ok

    def test_corpus_28_refused_at_step_4(self):
        with pytest.raises(InteriorExhaustedError, match=r"^interior exhausted at step 4 "
                                                         r"\(label 2\): "):
            verify_unfolding_commutation(corpus_matrices()[28], (2, 3, 1, 2), 12)

    @pytest.mark.parametrize("index, seq", [(36, (2, 3, 1, 2, 1)), (48, (2, 4, 1, 3, 4))])
    def test_orbit_mutate_chain_refuses_its_fifth_step(self, index, seq):
        # the fifth call once folded to a seed other than apply_sequence_framed's;
        # now its result's radius drops below d* = 2, so the fold is refused
        quiver = build_truncation(corpus_matrices()[index], 12, framed=True)
        for k in seq[:4]:
            quiver = orbit_mutate(quiver, k)
        assert quiver.can_fold
        fifth = orbit_mutate(quiver, seq[4])
        assert fifth.interior_radius < fifth.core_depth == 2
        with pytest.raises(InteriorExhaustedError, match=r"^representative \d+ for label "):
            folding(fifth)

    def test_hand_built_quiver_takes_its_first_orbit_mutation(self):
        # the step count was once guessed from the outer ring's depth less
        # the radius, a gap of 8 here, and this first step was refused "as
        # after 4 orbit-mutations"; the dirty label-1 vertex 2, at depth 10,
        # has no neighbour, so the radius stays 1
        quiver = LabeledQuiver(n_labels=2, framed=False, labels=(1, 2, 1),
                               frozen=(False, False, False), depths=(0, 1, 10),
                               adj=[{1: 1}, {0: -1}, {}], interior_radius=1)
        assert quiver.can_fold and folding(quiver) == ExchangeMatrix([[0, -1], [1, 0]])
        mutated = orbit_mutate(quiver, 1)
        assert mutated.interior_radius == 1 and mutated._dirty == {2}
        assert mutated.adj == [{1: -1}, {0: 1}, {}]

    def test_fifth_call_checks_its_label_first(self):
        # Kronecker at m = 6: four steps leave radius -1 < d* = 1
        quiver = build_truncation(ExchangeMatrix([[0, 2], [-2, 0]]), 6, framed=True)
        for k in (1, 2, 1, 2):
            quiver = orbit_mutate(quiver, k)
        with pytest.raises(IndexError, match=r"^orbit label 3 out of range 1\.\.2$"):
            orbit_mutate(quiver, 3)
        with pytest.raises(InteriorExhaustedError, match=r"^interior exhausted: radius -1 has "
                                                         r"shrunk below the deepest "
                                                         r"first-occurrence depth 1$"):
            orbit_mutate(quiver, 1)

    def test_complete_quiver_takes_any_number_of_orbit_mutations(self):
        seq = (1, 2) * 6
        quiver = build_truncation(TWO_LEAF, 2, framed=True)
        for k in seq:
            quiver = orbit_mutate(quiver, k)
        assert quiver.is_complete
        assert folding(quiver) == apply_sequence_framed(extend(TWO_LEAF), seq)

    def test_incomplete_build_gives_back_its_m(self):
        # build_truncation's radius: an incomplete fresh truncation has m =
        # radius - core_depth + 2; frozen copies add no ring, so unframed
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
