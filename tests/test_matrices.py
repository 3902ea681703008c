"""Unit tests for exchange-matrix classification, mutation, and search."""

from __future__ import annotations

import enum
import json
import random
import sys
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from quivermut import (
    ExchangeMatrix,
    MatrixFormatError,
    admissible_source_numbering,
    apply_sequence,
    apply_sequence_framed,
    brute_force_green_search,
    build_piece,
    build_truncation,
    check_total_mutability,
    classify,
    find_symmetrizer,
    format_matrix,
    is_acyclic,
    is_sign_skew_symmetric,
    is_skew_symmetric,
    extend,
    mutate,
    orbit_mutate,
    parse_matrix,
)
from quivermut.matrices import format_json, parse_int

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


def random_symmetrizable(rng: random.Random, n: int) -> ExchangeMatrix:
    """b_ij = a_ij*d_j and b_ji = -a_ij*d_i for a random diagonal d, so
    d_i*b_ij == -d_j*b_ji; a_ij = 0 leaves the pair out of the pattern."""
    d = [rng.randint(1, 4) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a = rng.choice([0, 0, -2, -1, 1, 2])
            rows[i][j], rows[j][i] = a * d[j], -a * d[i]
    return ExchangeMatrix(rows)


def depth_first_symmetrizer(matrix: ExchangeMatrix):
    """find_symmetrizer with its ratios propagated depth-first over each
    component, the reference for the breadth-first walk."""
    if not is_sign_skew_symmetric(matrix):
        return None
    e = matrix.entries
    n = matrix.n
    ratios = [None] * n
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

    def test_repr_reads_back(self):
        assert repr(ExchangeMatrix([[0, 1], [-1, 0]])) == "ExchangeMatrix([[0, 1], [-1, 0]])"


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

    def test_symmetrizer_agrees_with_a_depth_first_walk(self):
        # find_symmetrizer propagates its ratios breadth-first (_pattern_walk);
        # the depth-first walk it once took must give the same diagonal, on
        # symmetrizable matrices and on others
        rng = random.Random(29)
        found = 0
        for trial in range(2000):
            n = rng.randint(1, 6)
            if trial % 2:
                matrix = random_sign_skew(rng, n, 4)
            else:
                matrix = random_symmetrizable(rng, n)
            diag = find_symmetrizer(matrix)
            assert diag == depth_first_symmetrizer(matrix), matrix
            found += diag is not None
        assert 1000 < found < 2000

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


class TestSourceOrder:
    """is_acyclic and admissible_source_numbering share _source_order; the
    two loops it replaced are kept here as references."""

    @staticmethod
    def reference_is_acyclic(matrix: ExchangeMatrix) -> bool:
        e = matrix.entries
        remaining = set(range(matrix.n))
        while remaining:
            sources = {j for j in remaining if all(e[i][j] >= 0 for i in remaining)}
            if not sources:
                return False
            remaining -= sources
        return True

    @staticmethod
    def reference_numbering(matrix: ExchangeMatrix) -> tuple[int, ...] | str:
        """The numbering, or the error text for a cyclic matrix."""
        e = matrix.entries
        remaining = list(range(matrix.n))
        order: list[int] = []
        while remaining:
            source = next(
                (i for i in remaining if all(e[i][j] <= 0 for j in remaining)), None
            )
            if source is None:
                pending = ",".join(str(i + 1) for i in remaining)
                return f"no source among indices {{{pending}}}: matrix is not acyclic"
            order.append(source + 1)
            remaining.remove(source)
        return tuple(order)

    def test_sign_skew_symmetric_matrices(self):
        rng = random.Random(2024)
        cyclic = 0
        for _ in range(3000):
            matrix = random_sign_skew(rng, rng.randint(1, 6), max_entry=3)
            expected = self.reference_numbering(matrix)
            try:
                numbering: tuple[int, ...] | str = admissible_source_numbering(matrix)
            except ValueError as exc:
                numbering = str(exc)
            assert numbering == expected, matrix
            assert is_acyclic(matrix) == self.reference_is_acyclic(matrix), matrix
            cyclic += isinstance(expected, str)
        assert cyclic > 300

    def test_arbitrary_integer_matrices(self):
        rng = random.Random(2025)
        for _ in range(3000):
            n = rng.randint(1, 6)
            matrix = ExchangeMatrix(
                [[rng.choice((-2, -1, 0, 0, 0, 1, 2)) for _ in range(n)] for _ in range(n)]
            )
            assert is_acyclic(matrix) == self.reference_is_acyclic(matrix), matrix


class TestFormatJson:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, -7, "a\"b\u00e9", [], {}, (1, 2),
        {"b": ((0, 1), (-1, 0)), "c": [[1, 0], [0, 1]], "none": None, "ok": True},
        [[], [{}], {"x": [False, -3]}],
    ])
    def test_equals_json_dumps(self, value):
        assert format_json(value) == json.dumps(value, separators=(", ", ": "))

    def test_ints_past_the_int_str_digit_limit(self):
        big = -(10**5000) + 1
        text = format_json({"d": [1, big]})
        assert text == '{"d": [1, -' + "9" * 5000 + "]}"
        assert json.loads(text, parse_int=parse_int) == {"d": [1, big]}


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

    @given(skew_matrices(), st.lists(st.integers(1, 4), min_size=5, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_skew_symmetry_preserved(self, skew, weights):
        # b_ij = s_ij*d_j is skew-symmetrizable by D: d_i*b_ij = d_i*d_j*s_ij = -d_j*b_ji,
        # and D = I is the skew-symmetric case.  Mutation keeps the connected
        # components of the nonzero pattern, so the minimal symmetrizer stays.
        n = skew.n
        d = weights[:n]
        matrix = ExchangeMatrix([[skew.entries[i][j] * d[j] for j in range(n)] for i in range(n)])
        symmetrizer = find_symmetrizer(matrix)
        assert symmetrizer is not None
        for k in range(1, n + 1):
            mutated = mutate(matrix, k)
            assert find_symmetrizer(mutated) == symmetrizer
            assert is_skew_symmetric(mutated) == is_skew_symmetric(matrix)


class TestApplySequence:
    def test_empty_is_identity(self):
        assert apply_sequence(example_matrix(), []) == example_matrix()

    def test_back_mutation_cancels(self):
        assert apply_sequence(example_matrix(), [3, 3]) == example_matrix()

    def test_composition(self):
        composed = mutate(mutate(example_matrix(), 1), 2)
        assert apply_sequence(example_matrix(), [1, 2]) == composed


# 10**5000 has 5,001 digits, past CPython's default int/str limit of 4,300,
# so repr(BIG) raises; a refusal names it by its first 20 digits instead.
BIG = 10**5000
BIG_TEXT = "10000000000000000000... (5001 digits)"
needs_the_default_digit_limit = pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
    reason="CPython's default int/str digit limit of 4,300 is not in force",
)


class Direction(enum.IntEnum):
    ONE = 1
    THREE = 3


@needs_the_default_digit_limit
class TestRefusalsPastTheDigitLimit:
    @pytest.mark.parametrize("call, error, message", [
        (lambda: mutate(example_matrix(), BIG), IndexError,
         f"mutation direction {BIG_TEXT} out of range 1..4"),
        (lambda: mutate(example_matrix(), -BIG), IndexError,
         f"mutation direction -{BIG_TEXT} out of range 1..4"),
        (lambda: apply_sequence_framed(extend(example_matrix()), [1, BIG]), IndexError,
         f"mutation direction {BIG_TEXT} out of range 1..4"),
        (lambda: orbit_mutate(build_truncation(example_matrix(), 4), BIG), IndexError,
         f"orbit label {BIG_TEXT} out of range 1..4"),
        (lambda: build_piece(example_matrix(), BIG), IndexError,
         f"piece center {BIG_TEXT} out of range 1..4"),
        (lambda: extend(example_matrix()).c_column(BIG), IndexError,
         f"c-vector column {BIG_TEXT} out of range 1..4"),
        (lambda: check_total_mutability(example_matrix(), -BIG), ValueError,
         f"search depth must be a positive integer, got -{BIG_TEXT}"),
        (lambda: brute_force_green_search(extend(example_matrix()), -BIG), ValueError,
         f"max_len must be a positive integer, got -{BIG_TEXT}"),
        (lambda: build_truncation(example_matrix(), -BIG), ValueError,
         f"truncation budget m must be a positive integer, got -{BIG_TEXT}"),
    ], ids=["mutate", "mutate-negative", "apply_sequence_framed", "orbit_mutate",
            "build_piece", "c_column", "check_total_mutability", "brute_force_green_search",
            "build_truncation"])
    def test_names_the_value_in_short(self, call, error, message):
        with pytest.raises(error) as raised:
            call()
        assert str(raised.value) == message

    def test_values_within_the_limit_keep_their_repr(self):
        most = 10**4300 - 1  # 4,300 nines: the longest int repr still gives
        with pytest.raises(IndexError) as raised:
            mutate(RANK2, -most)
        assert str(raised.value) == f"mutation direction -{'9' * 4300} out of range 1..2"
        with pytest.raises(IndexError) as raised:
            mutate(RANK2, most + 1)
        assert str(raised.value) == (
            f"mutation direction 1{'0' * 19}... (4301 digits) out of range 1..2")


class TestDirectionChecks:
    """Refusals of bad directions, pinned as literals: the first bad one is
    named, wherever it stands."""

    @pytest.mark.parametrize("bad, message", [
        (True, "mutation direction True out of range 1..4"),
        (0, "mutation direction 0 out of range 1..4"),
        (5, "mutation direction 5 out of range 1..4"),
        (2.0, "mutation direction 2.0 out of range 1..4"),
        ("1", "mutation direction '1' out of range 1..4"),
        (None, "mutation direction None out of range 1..4"),
        pytest.param(BIG, f"mutation direction {BIG_TEXT} out of range 1..4",
                     marks=needs_the_default_digit_limit, id="5001-digits"),
    ])
    @pytest.mark.parametrize("placed", [
        lambda bad: [bad, 1, 2],
        lambda bad: [1, bad, 2, 0],
        lambda bad: [1, 2, bad],
    ], ids=["first", "middle", "last"])
    def test_first_bad_direction_is_named(self, bad, message, placed):
        seed = extend(example_matrix())
        for apply, start in ((apply_sequence, seed.b), (apply_sequence_framed, seed)):
            with pytest.raises(IndexError) as raised:
                apply(start, placed(bad))
            assert str(raised.value) == message
            with pytest.raises(IndexError) as raised:
                apply(start, iter(placed(bad)))
            assert str(raised.value) == message

    def test_int_subclasses_other_than_bool_pass(self):
        seed = extend(example_matrix())
        directions = [Direction.THREE, 2, Direction.ONE]
        assert apply_sequence_framed(seed, directions) == apply_sequence_framed(seed, [3, 2, 1])
        assert mutate(seed.b, Direction.THREE) == mutate(seed.b, 3)


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

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_empty_input(self, text):
        with pytest.raises(MatrixFormatError) as raised:
            parse_matrix(text)
        assert str(raised.value) == "line 1: expected matrix size, found empty input"

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
