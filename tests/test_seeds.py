"""Unit tests for framed seeds, coherence checks, and green sequences."""

from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from quivermut import (
    ColumnSign,
    ExchangeMatrix,
    FramedSeed,
    GreenVerificationError,
    admissible_source_numbering,
    apply_sequence_framed,
    brute_force_green_search,
    check_sign_coherence,
    column_sign,
    extend,
    format_seed,
    green_directions,
    mutate,
    mutate_framed,
    parse_seed,
    source_mgs,
)

from quivermut.seeds import format_int, parse_int

from corpus import corpus_matrices, example_matrix

RANK2 = ExchangeMatrix([[0, 1], [-1, 0]])
RANK2_SOURCE_FIRST = ExchangeMatrix([[0, -1], [1, 0]])
# Small entries hit every sign case and zero; wide ones catch a sign-case slip
# in the mutation kernel that small values would hide.
ANY_ENTRY = st.one_of(st.integers(-9, 9), st.integers(-10**40, 10**40))


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def exact_det(rows) -> int:
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        term = 1 if inversions % 2 == 0 else -1
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def replay_green_verdict(seed: FramedSeed, directions) -> tuple[bool, bool]:
    """Independent replay: (is green sequence, endpoint has no green columns)."""
    current = seed
    green = True
    for k in directions:
        if column_sign(current, k) is not ColumnSign.GREEN:
            green = False
        current = mutate_framed(current, k)
    return green, not green_directions(current)


@st.composite
def acyclic_sign_skew(draw, max_n: int = 4, max_entry: int = 3) -> ExchangeMatrix:
    n = draw(st.integers(1, max_n))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            kind = draw(st.integers(0, 1))
            if kind == 0:
                continue
            a = draw(st.integers(1, max_entry))
            b = draw(st.integers(1, max_entry))
            rows[i][j], rows[j][i] = -a, b  # orient i -> j along the index order
    return ExchangeMatrix(rows)


class TestExtend:
    def test_identity_c(self):
        seed = extend(RANK2)
        assert seed.b == RANK2
        assert seed.c == identity(2)

    def test_example_matrix(self):
        seed = extend(example_matrix())
        assert seed.b == example_matrix()
        assert seed.c == identity(4)

    def test_one_by_one(self):
        seed = extend(ExchangeMatrix([[0]]))
        assert seed.b.entries == ((0,),)
        assert seed.c == ((1,),)

    def test_rejects_non_sign_skew(self):
        with pytest.raises(ValueError):
            extend(ExchangeMatrix([[0, 1], [0, 0]]))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FramedSeed(RANK2, ((1,),))

    @pytest.mark.parametrize("c", [((1, True), (0, 1)), ((1, 1.5), (0, 1)), ((1,), (0, 1))])
    def test_bad_c_rejected(self, c):
        with pytest.raises(ValueError):
            FramedSeed(RANK2, c)

    def test_bool_in_seed_document_rejected(self):
        with pytest.raises(ValueError):
            parse_seed('{"b": [[0]], "c": [[true]]}')

    @pytest.mark.parametrize("b", [[[0]], ((0,),), None])
    def test_non_matrix_principal_part_rejected(self, b):
        with pytest.raises(ValueError, match="must be an ExchangeMatrix"):
            FramedSeed(b, [[1]])


class TestMutateFramed:
    def test_rank2_direction_1(self):
        seed = mutate_framed(extend(RANK2), 1)
        assert seed.b.entries == ((0, -1), (1, 0))
        assert seed.c == ((-1, 1), (0, 1))

    def test_example_direction_1(self):
        seed = mutate_framed(extend(example_matrix()), 1)
        assert seed.b == mutate(example_matrix(), 1)
        assert seed.c == ((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

    @given(acyclic_sign_skew(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_involution(self, matrix, data):
        k = data.draw(st.integers(1, matrix.n))
        directions = data.draw(st.lists(st.integers(1, matrix.n), max_size=4))
        seed = apply_sequence_framed(extend(matrix), directions)
        assert mutate_framed(mutate_framed(seed, k), k) == seed

    @given(acyclic_sign_skew(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_column_k_negated(self, matrix, data):
        k = data.draw(st.integers(1, matrix.n))
        directions = data.draw(st.lists(st.integers(1, matrix.n), max_size=4))
        seed = apply_sequence_framed(extend(matrix), directions)
        mutated = mutate_framed(seed, k)
        assert mutated.c_column(k) == tuple(-x for x in seed.c_column(k))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            mutate_framed(extend(RANK2), 3)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_max_form_rule_on_arbitrary_c(self, data):
        n = data.draw(st.integers(1, 5))
        entries = st.lists(st.lists(ANY_ENTRY, min_size=n, max_size=n),
                           min_size=n, max_size=n)
        b, c = data.draw(entries), data.draw(entries)
        k = data.draw(st.integers(1, n))
        seed = FramedSeed(ExchangeMatrix(b), c)
        mutated = mutate_framed(seed, k)
        assert mutated.b == mutate(seed.b, k)
        kk = k - 1

        def sgn(x):
            return (x > 0) - (x < 0)

        # Extended matrix [B; C]: row k (of B) and column k negate, every other
        # entry x_ij gains sgn(x_ik) * max(x_ik * b_kj, 0).
        for i, row in enumerate(b + c):
            for j, x in enumerate(row):
                if i == kk or j == kk:
                    expected = -x
                else:
                    expected = x + sgn(row[kk]) * max(row[kk] * b[kk][j], 0)
                got = mutated.b.entries[i][j] if i < n else mutated.c[i - n][j]
                assert got == expected

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_kernel_outputs_pass_boundary_validation(self, data):
        # mutate and mutate_framed skip re-validation of what the kernel returns;
        # the public constructors must accept every such result as it is.
        n = data.draw(st.integers(1, 5))
        entries = st.lists(st.lists(ANY_ENTRY, min_size=n, max_size=n),
                           min_size=n, max_size=n)
        b = ExchangeMatrix(data.draw(entries))
        seed = FramedSeed(b, data.draw(entries))
        for k in range(1, n + 1):
            out, mutated = mutate_framed(seed, k), mutate(b, k)
            assert FramedSeed(ExchangeMatrix(out.b.entries), out.c) == out
            assert ExchangeMatrix(mutated.entries) == mutated
            for rows in (out.b.entries, out.c, mutated.entries):
                assert isinstance(rows, tuple) and len(rows) == n
                for row in rows:
                    assert isinstance(row, tuple) and len(row) == n
                    assert all(type(x) is int for x in row)


class TestColumnSign:
    def test_fresh_seed_all_green(self):
        seed = extend(example_matrix())
        assert all(column_sign(seed, j) is ColumnSign.GREEN for j in range(1, 5))

    def test_mutated_column_red(self):
        seed = mutate_framed(extend(example_matrix()), 2)
        assert column_sign(seed, 2) is ColumnSign.RED

    def test_mixed_column(self):
        seed = FramedSeed(RANK2, ((1, 0), (-1, 1)))
        assert column_sign(seed, 1) is ColumnSign.MIXED

    def test_zero_column(self):
        seed = FramedSeed(RANK2, ((0, 0), (0, 1)))
        assert column_sign(seed, 1) is ColumnSign.ZERO
        assert 1 not in green_directions(seed)


class TestSignCoherence:
    def test_rank2_depth_6(self):
        assert check_sign_coherence(extend(RANK2), 6).ok

    def test_example_depth_4(self):
        assert check_sign_coherence(extend(example_matrix()), 4).ok

    def test_depth_1_trivial(self):
        assert check_sign_coherence(extend(example_matrix()), 1).ok

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            check_sign_coherence(extend(RANK2), 0)

    def test_bool_depth_rejected(self):
        with pytest.raises(ValueError, match="search depth must be a positive integer"):
            check_sign_coherence(extend(RANK2), True)

    def test_handbuilt_violation_found(self):
        # Mixed column already present: counterexample is the empty sequence.
        seed = FramedSeed(RANK2, ((1, 0), (-1, 1)))
        report = check_sign_coherence(seed, 2)
        assert not report.ok
        assert report.counterexample == ()

    def test_handbuilt_length_2_witness(self):
        # Columns green, red and zero; one step mixes none of them.  The
        # sequences (1, 2), (1, 3), (3, 1) and (3, 2) each produce a mixed
        # column, so the witness pins the breadth-first, ascending order.
        b = ExchangeMatrix([[0, -1, 1], [1, 0, -2], [-1, 2, 0]])
        seed = FramedSeed(b, ((1, -1, 0), (0, -1, 0), (1, 0, 0)))
        assert check_sign_coherence(seed, 1).ok
        assert check_sign_coherence(seed, 3).counterexample == (1, 2)
        assert column_sign(apply_sequence_framed(seed, (3, 2)), 1) is ColumnSign.MIXED


class TestSourceNumbering:
    def test_example_matrix(self):
        assert admissible_source_numbering(example_matrix()) == (1, 2, 3, 4)

    def test_path_three(self):
        matrix = ExchangeMatrix([[0, -1, 0], [1, 0, -1], [0, 1, 0]])
        assert admissible_source_numbering(matrix) == (1, 2, 3)

    def test_cyclic_has_no_source(self):
        matrix = ExchangeMatrix([[0, -1, 1], [1, 0, -1], [-1, 1, 0]])
        with pytest.raises(ValueError, match="no source"):
            admissible_source_numbering(matrix)

    def test_numbering_is_admissible_on_full_matrix(self):
        # Replay check: each chosen index is a source of the fully mutated matrix.
        for matrix in corpus_matrices()[:20]:
            order = admissible_source_numbering(matrix)
            current = matrix
            for k in order:
                row = current.entries[k - 1]
                assert all(x <= 0 for x in row)
                current = mutate(current, k)


class TestSourceMgs:
    def test_example_matrix(self):
        report = source_mgs(example_matrix())
        assert report.sequence == (1, 2, 3, 4)
        assert report.is_green_sequence and report.is_maximal
        assert len(report.step_c_matrices) == 5
        assert report.step_c_matrices[0] == identity(4)
        final = report.step_c_matrices[-1]
        assert final == tuple(tuple(-x for x in row) for row in identity(4))

    def test_rank2_source_first(self):
        report = source_mgs(RANK2_SOURCE_FIRST)
        assert report.sequence == (1, 2)
        assert report.is_maximal

    def test_one_by_one(self):
        report = source_mgs(ExchangeMatrix([[0]]))
        assert report.sequence == (1,)
        assert report.is_maximal

    def test_source_step_c_shape(self):
        # After step t, exactly the already-mutated columns are red.
        for matrix in corpus_matrices()[:15]:
            report = source_mgs(matrix)
            seed = extend(matrix)
            done = set()
            for k in report.sequence:
                seed = mutate_framed(seed, k)
                done.add(k)
                for j in range(1, matrix.n + 1):
                    expected = ColumnSign.RED if j in done else ColumnSign.GREEN
                    assert column_sign(seed, j) is expected

    def test_cyclic_propagates_numbering_failure(self):
        with pytest.raises(ValueError, match="no source"):
            source_mgs(ExchangeMatrix([[0, -1, 1], [1, 0, -1], [-1, 1, 0]]))


class TestBruteForce:
    def test_rank2_catalogue(self):
        reports = brute_force_green_search(extend(RANK2_SOURCE_FIRST), 3)
        assert [r.sequence for r in reports] == [(1, 2), (2, 1, 2)]
        for r in reports:
            assert r.is_green_sequence and r.is_maximal
            assert len(r.step_c_matrices) == len(r.sequence) + 1

    def test_contains_source_sequence(self):
        reports = brute_force_green_search(extend(example_matrix()), 4)
        assert (1, 2, 3, 4) in {r.sequence for r in reports}

    def test_too_short_bound_gives_empty(self):
        assert brute_force_green_search(extend(RANK2_SOURCE_FIRST), 1) == []

    def test_results_independently_verified(self):
        for matrix in corpus_matrices()[:10]:
            for report in brute_force_green_search(extend(matrix), matrix.n):
                green, maximal = replay_green_verdict(extend(matrix), report.sequence)
                assert green and maximal

    def test_bad_bound_rejected(self):
        with pytest.raises(ValueError):
            brute_force_green_search(extend(RANK2), 0)

    def test_bool_bound_rejected(self):
        with pytest.raises(ValueError, match="max_len must be a positive integer"):
            brute_force_green_search(extend(RANK2), True)

    def test_final_c_matrix_is_minus_a_permutation(self):
        # Brüstle–Dupont–Pérotin: a maximal green sequence ends at C = -P for
        # a permutation matrix P; stricter than criterion 4's sign check
        found = 0
        for matrix in corpus_matrices():
            seed = extend(matrix)
            minus_unit = [-1] + [0] * (matrix.n - 1)
            for report in brute_force_green_search(seed, matrix.n + 3):
                final = apply_sequence_framed(seed, report.sequence).c
                assert report.step_c_matrices[-1] == final
                # one -1 and n-1 zeros in every row and every column
                assert all(sorted(line) == minus_unit for line in (*final, *zip(*final)))
                found += 1
        assert found == 378


class TestDeterminantGuard:
    def test_c_matrix_determinant_unimodular(self):
        import random

        rng = random.Random(4242)
        for matrix in corpus_matrices()[:12]:
            seed = extend(matrix)
            for _ in range(6):
                seed = mutate_framed(seed, rng.randint(1, matrix.n))
            assert exact_det([list(r) for r in seed.c]) in (1, -1)


class TestSeedDocument:
    def test_round_trip_value(self):
        seed = mutate_framed(extend(example_matrix()), 3)
        assert parse_seed(format_seed(seed)) == seed

    def test_round_trip_bytes(self):
        seed = extend(RANK2)
        text = format_seed(seed)
        assert format_seed(parse_seed(text)) == text

    def test_entries_past_the_int_str_digit_limit(self):
        # decimal strings built by hand: whole chunks of zeros and nines
        cases = {
            10**5000: "1" + "0" * 5000,
            -(10**3000 + 7): "-1" + "0" * 2999 + "7",
            10**4500 - 1: "9" * 4500,
        }
        for value, text in cases.items():
            assert format_int(value) == text
            assert parse_int(text) == value
        big, small, nines = cases
        seed = FramedSeed(ExchangeMatrix([[0, big], [small, 0]]), [[1, nines], [0, -1]])
        text = format_seed(seed)
        assert text.startswith('{"b": [[0, 1000') and text.endswith("], [0, -1]]}\n")
        assert parse_seed(text) == seed

    def test_rejects_bad_documents(self):
        with pytest.raises(ValueError):
            parse_seed("not json")
        with pytest.raises(ValueError):
            parse_seed('{"b": [[0]]}')
        with pytest.raises(ValueError):
            parse_seed('{"b": [[0]], "c": [[1]], "extra": 1}')
