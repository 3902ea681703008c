"""Unit tests for exchange-matrix classification, mutation, and search."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from quivermut import (
    ExchangeMatrix,
    MatrixFormatError,
    apply_sequence,
    check_total_mutability,
    classify,
    find_symmetrizer,
    format_matrix,
    is_acyclic,
    is_sign_skew_symmetric,
    is_skew_symmetric,
    mutate,
    parse_matrix,
)

from corpus import example_matrix, random_sign_skew

RANK2 = ExchangeMatrix([[0, 1], [-1, 0]])

# Sign-skew-symmetric but cyclic; one mutation at 1 already breaks
# sign-skew-symmetry (entries (2,3) and (3,2) both turn negative).
CYCLIC_FRAGILE = ExchangeMatrix([[0, 1, -2], [-2, 0, 1], [1, -2, 0]])


@st.composite
def sign_skew_matrices(draw, max_n: int = 5, max_entry: int = 4) -> ExchangeMatrix:
    n = draw(st.integers(1, max_n))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            kind = draw(st.integers(0, 2))
            if kind == 0:
                continue
            a = draw(st.integers(1, max_entry))
            b = draw(st.integers(1, max_entry))
            if kind == 1:
                rows[i][j], rows[j][i] = a, -b
            else:
                rows[i][j], rows[j][i] = -a, b
    return ExchangeMatrix(rows)


@st.composite
def skew_matrices(draw, max_n: int = 5, max_entry: int = 4) -> ExchangeMatrix:
    n = draw(st.integers(1, max_n))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a = draw(st.integers(-max_entry, max_entry))
            rows[i][j], rows[j][i] = a, -a
    return ExchangeMatrix(rows)


class TestConstruction:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            ExchangeMatrix([[0, 1], [-1, 0], [0, 0]])

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            ExchangeMatrix([[0, 1.5], [-1, 0]])
        with pytest.raises(ValueError):
            ExchangeMatrix([[0, True], [-1, 0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ExchangeMatrix([])


class TestClassify:
    def test_rank2_skew(self):
        report = classify(RANK2)
        assert report.skew_symmetric
        assert report.symmetrizer == (1, 1)
        assert report.sign_skew_symmetric
        assert report.acyclic

    def test_example_matrix(self):
        report = classify(example_matrix())
        assert report.sign_skew_symmetric
        assert report.acyclic
        assert not report.skew_symmetric
        # ratio propagation is inconsistent around the 1-2-3-4 cycle of the
        # nonzero pattern, so no symmetrizer exists
        assert report.symmetrizer is None

    def test_one_sided_zero_is_not_sign_skew(self):
        report = classify(ExchangeMatrix([[0, 1], [0, 0]]))
        assert not report.sign_skew_symmetric
        assert report.symmetrizer is None

    def test_zero_matrix(self):
        report = classify(ExchangeMatrix([[0, 0], [0, 0]]))
        assert report.skew_symmetric
        assert report.symmetrizer == (1, 1)
        assert report.acyclic

    def test_symmetrizable_not_skew(self):
        # d_1*b_12 == -d_2*b_21 forces d_2 == 2*d_1; minimal is (1, 2)
        matrix = ExchangeMatrix([[0, 2], [-1, 0]])
        assert find_symmetrizer(matrix) == (1, 2)

    def test_symmetrizer_minimal_per_component(self):
        matrix = ExchangeMatrix(
            [[0, 2, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -3], [0, 0, 1, 0]]
        )
        assert find_symmetrizer(matrix) == (1, 2, 1, 3)

    @given(sign_skew_matrices())
    @settings(max_examples=150, deadline=None)
    def test_symmetrizer_soundness(self, matrix):
        diag = find_symmetrizer(matrix)
        if diag is None:
            return
        e = matrix.entries
        n = matrix.n
        assert all(d > 0 for d in diag)
        for i in range(n):
            for j in range(n):
                assert diag[i] * e[i][j] == -diag[j] * e[j][i]

    def test_acyclicity_matches_cycle_enumeration(self):
        def has_cycle(matrix: ExchangeMatrix) -> bool:
            n = matrix.n
            # i -> j iff b_ij < 0
            succ = [[j for j in range(n) if matrix.entries[i][j] < 0] for i in range(n)]
            state = [0] * n  # 0 unseen, 1 on stack, 2 done

            def dfs(i: int) -> bool:
                state[i] = 1
                for j in succ[i]:
                    if state[j] == 1 or (state[j] == 0 and dfs(j)):
                        return True
                state[i] = 2
                return False

            return any(state[i] == 0 and dfs(i) for i in range(n))

        rng = random.Random(99)
        for _ in range(200):
            matrix = random_sign_skew(rng, rng.randint(1, 6), max_entry=3)
            assert is_acyclic(matrix) == (not has_cycle(matrix))


class TestMutate:
    def test_rank2_flip(self):
        assert mutate(RANK2, 1).entries == ((0, -1), (1, 0))

    def test_example_direction_1(self):
        expected = ((0, 1, 0, 1), (-3, 0, -1, 0), (0, 5, 0, -2), (-1, 0, 3, 0))
        assert mutate(example_matrix(), 1).entries == expected

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            mutate(RANK2, 0)
        with pytest.raises(IndexError):
            mutate(RANK2, 3)

    def test_value_semantics(self):
        matrix = example_matrix()
        mutate(matrix, 2)
        assert matrix == example_matrix()

    @given(sign_skew_matrices(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_involution(self, matrix, data):
        k = data.draw(st.integers(1, matrix.n))
        assert mutate(mutate(matrix, k), k) == matrix

    @given(skew_matrices(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_skew_symmetry_preserved(self, matrix, data):
        k = data.draw(st.integers(1, matrix.n))
        assert is_skew_symmetric(mutate(matrix, k))


class TestApplySequence:
    def test_empty_is_identity(self):
        assert apply_sequence(example_matrix(), []) == example_matrix()

    def test_back_mutation_cancels(self):
        assert apply_sequence(example_matrix(), [3, 3]) == example_matrix()

    def test_composition(self):
        composed = mutate(mutate(example_matrix(), 1), 2)
        assert apply_sequence(example_matrix(), [1, 2]) == composed


class TestTotalMutability:
    def test_example_depth_4(self):
        assert check_total_mutability(example_matrix(), 4).ok

    def test_rank2_depth_1(self):
        assert check_total_mutability(RANK2, 1).ok

    def test_skew_symmetric_always_ok(self):
        matrix = ExchangeMatrix([[0, 2, -1], [-2, 0, 3], [1, -3, 0]])
        assert check_total_mutability(matrix, 4).ok

    def test_acyclic_n5_depth_5(self):
        matrix = ExchangeMatrix(
            [
                [0, -1, 0, -2, 0],
                [2, 0, -1, 0, 0],
                [0, 3, 0, -1, -1],
                [1, 0, 2, 0, 0],
                [0, 0, 1, 0, 0],
            ]
        )
        assert is_sign_skew_symmetric(matrix) and is_acyclic(matrix)
        assert check_total_mutability(matrix, 5).ok

    def test_cyclic_counterexample(self):
        report = check_total_mutability(CYCLIC_FRAGILE, 3)
        assert not report.ok
        assert report.counterexample == (1,)
        witness = apply_sequence(CYCLIC_FRAGILE, report.counterexample)
        assert not is_sign_skew_symmetric(witness)

    def test_pinned_length_2_witness(self):
        # (2, 3) and (3, 2) both break sign-skew-symmetry and no single step
        # does, so the witness pins the breadth-first, ascending order.
        matrix = ExchangeMatrix([[0, -2, 3], [3, 0, -2], [-2, 2, 0]])
        assert check_total_mutability(matrix, 1).ok
        assert check_total_mutability(matrix, 4).counterexample == (2, 3)
        assert not is_sign_skew_symmetric(apply_sequence(matrix, (3, 2)))

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            check_total_mutability(RANK2, 0)

    def test_bool_depth_rejected(self):
        with pytest.raises(ValueError, match="search depth must be a positive integer"):
            check_total_mutability(RANK2, True)

    def test_non_sign_skew_rejected(self):
        with pytest.raises(ValueError):
            check_total_mutability(ExchangeMatrix([[0, 1], [0, 0]]), 1)


class TestTextFormat:
    def test_round_trip(self):
        text = format_matrix(example_matrix())
        assert parse_matrix(text) == example_matrix()
        assert format_matrix(parse_matrix(text)) == text

    def test_parse_with_blank_lines(self):
        assert parse_matrix("\n2\n\n0 1\n-1 0\n\n") == RANK2

    def test_wrong_entry_count(self):
        with pytest.raises(MatrixFormatError, match="line 2: expected 2 entries, found 3"):
            parse_matrix("2\n0 1 5\n-1 0\n")

    def test_bad_token(self):
        with pytest.raises(MatrixFormatError, match="line 3, column 1: 'x' is not an integer"):
            parse_matrix("2\n0 1\nx 0\n")

    def test_missing_rows(self):
        with pytest.raises(MatrixFormatError, match="expected 2 rows, found 1"):
            parse_matrix("2\n0 1\n")

    def test_trailing_content(self):
        with pytest.raises(MatrixFormatError, match="line 4: unexpected trailing content"):
            parse_matrix("2\n0 1\n-1 0\n7 7\n")

    def test_round_trip_past_the_int_str_digit_limit(self):
        matrix = ExchangeMatrix([[0, 10**5000], [-(10**5000 - 1), 0]])
        text = format_matrix(matrix)
        assert text == "2\n0 1" + "0" * 5000 + "\n-" + "9" * 5000 + " 0\n"
        assert parse_matrix(text) == matrix

    def test_long_bad_token(self):
        token = "1" * 1000 + "-" + "2" * 1000
        with pytest.raises(MatrixFormatError, match="line 2, column 2: '1111"):
            parse_matrix(f"2\n0 {token}\n-1 0\n")

    @pytest.mark.parametrize("text, where", [
        ("2\n0 +1\n-1 0\n", "line 2, column 2: '\\+1'"),
        ("2\n0 1\n-1_0 0\n", "line 3, column 1: '-1_0'"),
        ("1\n٣\n", "line 2, column 1: '٣'"),
        ("2\n0 1\n- 0\n", "line 3, column 1: '-'"),
        ("+2\n0 1\n-1 0\n", "line 1: expected matrix size, got '\\+2'"),
        ("٢\n0 1\n-1 0\n", "line 1: expected matrix size, got '٢'"),
    ])
    def test_only_minus_and_ascii_digits(self, text, where):
        with pytest.raises(MatrixFormatError, match=where):
            parse_matrix(text)

    def test_bad_header(self):
        with pytest.raises(MatrixFormatError, match="line 1"):
            parse_matrix("two\n0 1\n-1 0\n")
        with pytest.raises(MatrixFormatError, match="size must be positive"):
            parse_matrix("0\n")
