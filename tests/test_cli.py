"""CLI behaviour: subcommands, exit codes, determinism, JSON round-trips."""

from __future__ import annotations

import json

import pytest

from quivermut import (
    apply_sequence_framed,
    extend,
    format_matrix,
    mutate_framed,
    parse_matrix,
    parse_seed,
)
from quivermut.cli import main

from corpus import example_matrix

RANK2_TEXT = "2\n0 1\n-1 0\n"


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.mat"
    path.write_text(format_matrix(example_matrix()), encoding="utf-8")
    return str(path)


@pytest.fixture
def rank2_file(tmp_path):
    path = tmp_path / "rank2.mat"
    path.write_text(RANK2_TEXT, encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_example(self, capsys, example_file):
        code, out, _ = run(capsys, ["classify", example_file])
        assert code == 0
        assert "sign-skew-symmetric: true" in out
        assert "symmetrizer: none" in out
        assert "acyclic: true" in out

    def test_non_sign_skew_still_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("2\n0 1\n0 0\n", encoding="utf-8")
        code, out, _ = run(capsys, ["classify", str(path)])
        assert code == 0
        assert "sign-skew-symmetric: false" in out

    def test_json(self, capsys, rank2_file):
        code, out, _ = run(capsys, ["classify", rank2_file, "--json-out"])
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "skew_symmetric": True,
            "symmetrizer": [1, 1],
            "sign_skew_symmetric": True,
            "acyclic": True,
        }

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("2\n0 1\n", encoding="utf-8")
        code, _, err = run(capsys, ["classify", str(path)])
        assert code == 2
        assert "expected 2 rows" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, ["classify", str(tmp_path / "nope.mat")])
        assert code == 2
        assert "error" in err


class TestMutate:
    def test_sequence(self, capsys, rank2_file):
        code, out, _ = run(capsys, ["mutate", rank2_file, "-s", "1"])
        assert code == 0
        assert out == "b:\n0 -1\n1 0\nc:\n-1 1\n0 1\n"

    def test_empty_sequence(self, capsys, rank2_file):
        code, out, _ = run(capsys, ["mutate", rank2_file])
        assert code == 0
        assert "b:\n0 1\n-1 0\nc:\n1 0\n0 1\n" == out

    def test_json_round_trips(self, capsys, example_file):
        code, out, _ = run(capsys, ["mutate", example_file, "-s", "1,2", "--json-out"])
        assert code == 0
        seed = parse_seed(out)
        assert seed == mutate_framed(mutate_framed(extend(example_matrix()), 1), 2)

    def test_entries_past_the_int_str_digit_limit(self, capsys, example_file):
        # the sink numbering 4,3,2,1 grows entries past 4,300 digits near step 9,840
        seq = [(4, 3, 2, 1)[i % 4] for i in range(10_000)]
        expected = apply_sequence_framed(extend(example_matrix()), seq)
        assert max(abs(x) for row in expected.c for x in row).bit_length() > 4300 * 3.33
        directions = ",".join(map(str, seq))
        code, out, err = run(capsys, ["mutate", example_file, "-s", directions, "--json-out"])
        assert (code, err) == (0, "")
        assert parse_seed(out) == expected
        code, out, err = run(capsys, ["mutate", example_file, "-s", directions])
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "b:" and lines[5] == "c:"

        def chunked_int(token: str) -> int:
            sign = -1 if token.startswith("-") else 1
            digits = token.lstrip("-")
            value = 0
            for start in range(0, len(digits), 500):
                chunk = digits[start:start + 500]
                value = value * 10 ** len(chunk) + int(chunk)
            return sign * value

        rows = [tuple(map(chunked_int, line.split())) for line in lines[1:5] + lines[6:]]
        assert rows == list(expected.b.entries) + list(expected.c)
        # b stays small along this sequence; c is square too and holds the big entries
        assert parse_matrix("\n".join(["4"] + lines[1:5])) == expected.b
        assert parse_matrix("\n".join(["4"] + lines[6:])).entries == expected.c

    def test_bad_direction_exit_2(self, capsys, rank2_file):
        code, _, err = run(capsys, ["mutate", rank2_file, "-s", "7"])
        assert code == 2
        assert "out of range" in err

    def test_bad_sequence_token_exit_2(self, capsys, rank2_file):
        code, _, err = run(capsys, ["mutate", rank2_file, "-s", "1,x"])
        assert code == 2
        assert "invalid mutation sequence" in err

    @pytest.mark.parametrize(
        "subcommand", [["mutate"], ["verify-unfolding", "--m", "4"]], ids=["mutate", "verify-unfolding"]
    )
    @pytest.mark.parametrize("token", ["+1", "0_2", "\u0663"])
    def test_sequence_token_syntax_matches_the_matrix_text(
        self, capsys, example_file, subcommand, token
    ):
        code, out, err = run(capsys, subcommand + [example_file, "-s", token])
        assert (code, out) == (2, "")
        assert f"invalid mutation sequence entry {token!r}: expected an integer" in err

    def test_sequence_tokens_are_stripped(self, capsys, rank2_file):
        code, out, _ = run(capsys, ["mutate", rank2_file, "-s", " 1, 2 "])
        assert code == 0
        assert out == "b:\n0 1\n-1 0\nc:\n0 -1\n1 -1\n"


class TestMgs:
    def test_example(self, capsys, example_file):
        code, out, _ = run(capsys, ["mgs", example_file])
        assert code == 0
        assert "sequence: 1,2,3,4" in out
        assert "maximal: true" in out

    def test_brute_force_cross_check(self, capsys, example_file):
        code, out, _ = run(capsys, ["mgs", example_file, "--brute-force"])
        assert code == 0
        assert "brute-force maximal green sequences:" in out
        assert "  1,2,3,4" in out

    def test_json(self, capsys, rank2_file):
        code, out, _ = run(capsys, ["mgs", rank2_file, "--json-out"])
        assert code == 0
        payload = json.loads(out)
        assert payload["sequence"] == [2, 1]
        assert payload["is_maximal"] is True

    def test_cyclic_input_exit_2(self, capsys, tmp_path):
        path = tmp_path / "cyc.mat"
        path.write_text("3\n0 -1 1\n1 0 -1\n-1 1 0\n", encoding="utf-8")
        code, _, err = run(capsys, ["mgs", str(path)])
        assert code == 2
        assert "no source" in err


class TestCoherence:
    def test_ok(self, capsys, example_file):
        code, out, _ = run(capsys, ["coherence", example_file, "--depth", "3"])
        assert code == 0
        assert "sign-coherent: true (depth 3)" in out

    def test_json_ok(self, capsys, example_file):
        code, out, _ = run(capsys, ["coherence", example_file, "--depth", "3", "--json-out"])
        assert (code, out) == (0, '{"ok": true, "depth": 3, "counterexample": null}\n')

    def test_violation_exit_1(self, capsys, tmp_path):
        path = tmp_path / "cyclic.mat"
        path.write_text("3\n0 1 -3\n-1 0 2\n3 -3 0\n", encoding="utf-8")
        code, out, _ = run(capsys, ["coherence", str(path), "--depth", "3"])
        assert (code, out) == (1, "sign-coherent: false (depth 3)\ncounterexample: 1,3,2\n")
        code, out, _ = run(capsys, ["coherence", str(path), "--depth", "3", "--json-out"])
        assert (code, out) == (1, '{"ok": false, "depth": 3, "counterexample": [1, 3, 2]}\n')

    def test_depth_zero_exit_2(self, capsys, example_file):
        code, _, err = run(capsys, ["coherence", example_file, "--depth", "0"])
        assert code == 2
        assert "positive" in err


class TestTotalMutability:
    def test_ok(self, capsys, example_file):
        code, out, _ = run(capsys, ["total-mutability", example_file, "--depth", "3"])
        assert code == 0
        assert "totally-mutable: true (depth 3)" in out

    def test_violation_exit_1(self, capsys, tmp_path):
        path = tmp_path / "fragile.mat"
        path.write_text("3\n0 1 -2\n-2 0 1\n1 -2 0\n", encoding="utf-8")
        code, out, _ = run(capsys, ["total-mutability", str(path), "--depth", "2"])
        assert code == 1
        assert "totally-mutable: false" in out
        assert "counterexample: 1" in out
        code, out, _ = run(capsys, ["total-mutability", str(path), "--depth", "2", "--json-out"])
        assert (code, out) == (1, '{"ok": false, "depth": 2, "counterexample": [1]}\n')

    def test_json_ok(self, capsys, example_file):
        argv = ["total-mutability", example_file, "--depth", "3", "--json-out"]
        code, out, _ = run(capsys, argv)
        assert (code, out) == (0, '{"ok": true, "depth": 3, "counterexample": null}\n')


class TestUnfold:
    def test_summary(self, capsys, example_file):
        code, out, _ = run(capsys, ["unfold", example_file, "--m", "2", "--framed"])
        assert code == 0
        assert "vertices: 95 (73 mutable, 22 frozen)" in out
        assert "complete: false" in out
        assert "interior radius: 2" in out

    def test_dot_output(self, capsys, example_file, tmp_path):
        dot_path = tmp_path / "out.dot"
        code, out, _ = run(
            capsys, ["unfold", example_file, "--m", "2", "--framed", "--dot", str(dot_path)]
        )
        assert code == 0
        text = dot_path.read_text(encoding="utf-8")
        assert text.startswith("digraph unfolding {")
        assert '[shape=box, label="1\u2032"];' in text

    def test_json(self, capsys, rank2_file):
        code, out, _ = run(capsys, ["unfold", rank2_file, "--m", "3", "--json-out"])
        assert code == 0
        payload = json.loads(out)
        assert payload["complete"] is True
        assert payload["interior_radius"] is None

    def test_bad_m_exit_2(self, capsys, example_file):
        code, _, err = run(capsys, ["unfold", example_file, "--m", "0"])
        assert code == 2


class TestVerifyUnfolding:
    def test_ok(self, capsys, example_file):
        code, out, _ = run(
            capsys, ["verify-unfolding", example_file, "-s", "1,2", "--m", "6"]
        )
        assert code == 0
        assert "commutes: true (steps 2, m 6)" in out

    def test_budget_exit_2(self, capsys, example_file):
        code, _, err = run(
            capsys, ["verify-unfolding", example_file, "-s", "1,2,3", "--m", "4"]
        )
        assert code == 2
        assert "interior budget" in err


class TestDeterminism:
    def test_byte_identical_runs(self, capsys, example_file):
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, ["mgs", example_file, "--brute-force"])
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_unfold_json_deterministic(self, capsys, example_file):
        first = run(capsys, ["unfold", example_file, "--m", "3", "--json-out"])
        second = run(capsys, ["unfold", example_file, "--m", "3", "--json-out"])
        assert first == second
