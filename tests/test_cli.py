"""CLI behaviour: subcommands, exit codes, determinism, JSON round-trips."""

from __future__ import annotations

import json

import pytest

from quivermut import (
    ExchangeMatrix,
    GreenVerificationError,
    apply_sequence_framed,
    extend,
    format_matrix,
    format_seed,
    mutate_framed,
    parse_matrix,
    parse_seed,
)
from quivermut import cli, unfolding
from quivermut.cli import build_parser, main
from quivermut.matrices import parse_int

from corpus import corpus_matrices, example_matrix
from test_unfolding import one_ring_less_at_step_2

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

    @pytest.mark.parametrize("json_out", [False, True])
    def test_symmetrizer_past_the_int_str_digit_limit(self, capsys, tmp_path, json_out):
        big = 10**5000
        path = tmp_path / "big.mat"
        path.write_text(format_matrix(ExchangeMatrix([[0, big], [-1, 0]])), encoding="utf-8")
        code, out, err = run(capsys, ["classify", str(path)] + ["--json-out"] * json_out)
        assert (code, err) == (0, "")
        if json_out:
            assert json.loads(out, parse_int=parse_int) == {
                "skew_symmetric": False,
                "symmetrizer": [1, big],
                "sign_skew_symmetric": True,
                "acyclic": True,
            }
        else:
            assert out == (
                "skew-symmetric: false\n"
                f"symmetrizer: 1 1{'0' * 5000}\n"
                "sign-skew-symmetric: true\n"
                "acyclic: true\n"
            )

    def test_usage_error_leaves_the_parser_reusable(self, capsys, example_file):
        # main builds its parser once per process; build_parser() stays fresh
        assert build_parser() is not build_parser()
        with pytest.raises(SystemExit) as exited:
            main(["coherence", example_file])
        assert exited.value.code == 2
        assert "--depth" in capsys.readouterr().err
        code, out, _ = run(capsys, ["classify", example_file, "--json-out"])
        assert code == 0
        assert out == (
            '{"skew_symmetric": false, "symmetrizer": null, '
            '"sign_skew_symmetric": true, "acyclic": true}\n'
        )

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
        assert out == format_seed(seed)

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

    @pytest.mark.parametrize("max_len", ["1", "0"])
    def test_brute_force_bound_below_size_exit_2(self, capsys, tmp_path, max_len):
        # the source sequence has length n, so a shorter bound cannot confirm it
        path = tmp_path / "zero.mat"
        path.write_text("2\n0 0\n0 0\n", encoding="utf-8")
        argv = ["mgs", str(path), "--brute-force", "--max-len", max_len, "--json-out"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert f"--max-len {max_len} is below the matrix size 2" in err
        code, out, _ = run(capsys, argv[:-2] + ["2", "--json-out"])
        assert code == 0
        assert json.loads(out)["brute_force_sequences"] == [[1, 2], [2, 1]]

    @pytest.mark.parametrize("max_len", ["-3", "0", "2", "9"])
    def test_max_len_without_brute_force_exit_2(self, capsys, tmp_path, max_len):
        # the bound reaches only the brute-force search, so alone it is refused
        path = tmp_path / "zero.mat"
        path.write_text("2\n0 0\n0 0\n", encoding="utf-8")
        for json_out in ([], ["--json-out"]):
            code, out, err = run(capsys, ["mgs", str(path), "--max-len", max_len] + json_out)
            assert (code, out) == (2, "")
            assert err == ("error: --max-len bounds the brute-force search; "
                           "it needs --brute-force\n")

    @pytest.mark.parametrize("json_out", [False, True])
    def test_green_verification_failure_exit_1(self, capsys, rank2_file, monkeypatch, json_out):
        def failing_source_mgs(matrix):
            raise GreenVerificationError("step 2 is not green")

        monkeypatch.setattr("quivermut.cli.source_mgs", failing_source_mgs)
        code, out, err = run(capsys, ["mgs", rank2_file] + ["--json-out"] * json_out)
        assert (code, out) == (1, "")
        assert err == "green-sequence verification failed: step 2 is not green\n"

    def test_cross_check_failure_goes_to_stderr(self, capsys, rank2_file, monkeypatch):
        monkeypatch.setattr("quivermut.cli.brute_force_green_search", lambda seed, max_len: [])
        code, out, err = run(capsys, ["mgs", rank2_file, "--brute-force", "--json-out"])
        assert code == 1
        assert json.loads(out)["brute_force_sequences"] == []
        assert err == "brute-force cross-check failed: source sequence not found\n"
        code, out, err = run(capsys, ["mgs", rank2_file, "--brute-force"])
        assert code == 1
        assert out.endswith("brute-force maximal green sequences: 0\n")
        assert "cross-check failed" in err


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

    def test_unbuildable_truncation_exit_2(self, capsys, tmp_path):
        # label 2's piece has 10**5000 satellites: refused before anything is built
        path = tmp_path / "big.mat"
        path.write_text(format_matrix(ExchangeMatrix([[0, 10**5000], [-1, 0]])), encoding="utf-8")
        for argv in (["unfold", str(path), "--m", "2"],
                     ["verify-unfolding", str(path), "-s", "1", "--m", "4", "--json-out"]):
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: the truncation would have at least 2**16609 vertices")

    # the running example's output at m = 10, framed, as the build reported it
    EXAMPLE_M10 = ("vertices: 554348 (417961 mutable, 136387 frozen)\n"
                   "arrows: 554347\n"
                   "complete: false\n"
                   "interior radius: 10\n"
                   "labels: 1=21535 2=79735 3=82955 4=233736\n")

    @staticmethod
    def no_build(*args):
        raise AssertionError("built a truncation")

    def test_report_without_dot_builds_nothing(self, capsys, example_file, monkeypatch):
        monkeypatch.setattr(unfolding, "_grow", self.no_build)
        argv = ["unfold", example_file, "--m", "10", "--framed"]
        assert run(capsys, argv) == (0, self.EXAMPLE_M10, "")
        # the command line has no builder of its own to call
        assert not hasattr(cli, "_grow") and not hasattr(cli, "to_dot")

    def test_dot_request_validates_and_counts_once(self, capsys, example_file, tmp_path,
                                                   monkeypatch):
        expected = unfolding.to_dot(unfolding.build_truncation(example_matrix(), 4))
        calls = []
        for name in ("admissible_source_numbering", "_count_rings"):
            def counted(*args, _name=name, _fn=getattr(unfolding, name)):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(unfolding, name, counted)
        # the DOT text is written from the counts, so a --dot request builds nothing
        monkeypatch.setattr(unfolding, "_grow", self.no_build)
        dot_path = tmp_path / "out.dot"
        argv = ["unfold", example_file, "--m", "4", "--framed", "--json-out"]
        code, with_dot, _ = run(capsys, argv + ["--dot", str(dot_path)])
        assert code == 0
        assert calls == ["admissible_source_numbering", "_count_rings"]
        assert dot_path.read_text(encoding="utf-8") == expected
        assert run(capsys, argv) == (0, with_dot, "")

    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_unframed_dot_matches_the_build(self, capsys, example_file, tmp_path, m):
        dot_path = tmp_path / "out.dot"
        argv = ["unfold", example_file, "--m", str(m), "--dot", str(dot_path)]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert ", 0 frozen)" in out
        quiver = unfolding.build_truncation(example_matrix(), m, framed=False)
        assert dot_path.read_text(encoding="utf-8") == unfolding.to_dot(quiver)


class TestVerifyUnfolding:
    def test_ok(self, capsys, example_file):
        code, out, _ = run(
            capsys, ["verify-unfolding", example_file, "-s", "1,2", "--m", "6"]
        )
        assert code == 0
        assert "commutes: true (steps 2, m 6)" in out

    def test_four_steps_commute(self, capsys, tmp_path):
        # corpus matrix 17: a trusted ball cut through four steps reported a
        # false divergence at step 4 here
        path = tmp_path / "corpus17.mat"
        path.write_text("3\n0 -1 0\n2 0 -3\n0 1 0\n", encoding="utf-8")
        code, out, _ = run(
            capsys, ["verify-unfolding", str(path), "-s", "2,3,1,2", "--m", "10"]
        )
        assert (code, out) == (0, "commutes: true (steps 4, m 10)\n")

    def test_divergence_exit_1(self, capsys, example_file, monkeypatch):
        # step 2 of three cut one ring shallower than the ball schedule
        # (_ball_limits) gives a fold that differs after step 3
        monkeypatch.setattr(unfolding, "_ball_limits", one_ring_less_at_step_2)
        argv = ["verify-unfolding", example_file, "-s", "3,4,2", "--m", "8"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (1, "")
        assert out == "commutes: false (steps 3, m 8)\nfirst divergence at step 3\n"
        code, out, err = run(capsys, argv + ["--json-out"])
        assert (code, err) == (1, "")
        assert json.loads(out) == {"ok": False, "steps": 3, "m": 8, "first_divergence": 3}

    def test_budget_exit_2(self, capsys, example_file):
        code, _, err = run(
            capsys, ["verify-unfolding", example_file, "-s", "1,2,3", "--m", "4"]
        )
        assert code == 2
        assert "interior budget" in err

    @pytest.mark.parametrize("index, seq", [(36, "2,3,1,2,1"), (48, "2,4,1,3,4")])
    @pytest.mark.parametrize("m", ["12", "14"])
    def test_five_steps_exit_2(self, capsys, tmp_path, index, seq, m):
        # at m = 12 these once exited 1 with a false divergence at step 5
        path = tmp_path / f"corpus{index}.mat"
        path.write_text(format_matrix(corpus_matrices()[index]), encoding="utf-8")
        for extra in ([], ["--json-out"]):
            code, out, err = run(capsys, ["verify-unfolding", str(path), "-s", seq, "--m", m]
                                 + extra)
            assert (code, out) == (2, "")
            assert err.startswith("error: interior budget exceeded: 5 steps")

    def test_kronecker_four_steps_commute_five_exit_2(self, capsys, tmp_path):
        path = tmp_path / "kron.mat"
        path.write_text("2\n0 2\n-2 0\n", encoding="utf-8")
        argv = ["verify-unfolding", str(path), "--json-out"]
        code, out, _ = run(capsys, argv + ["-s", "1,2,1,2", "--m", "10"])
        assert code == 0 and json.loads(out)["ok"] is True
        code, out, err = run(capsys, argv + ["-s", "1,2,1,2,1", "--m", "12"])
        assert (code, out) == (2, "")
        assert err.startswith("error: interior budget")

    def test_under_budget_stderr_bytes(self, capsys, tmp_path):
        # m in the message is the requested budget
        path = tmp_path / "kron.mat"
        path.write_text("2\n0 2\n-2 0\n", encoding="utf-8")
        argv = ["verify-unfolding", str(path), "-s", "1,2,1,2", "--m", "9"]
        for extra in ([], ["--json-out"]):
            assert run(capsys, argv + extra) == (
                2, "", "error: interior budget violated: m=9 but 4 steps need m >= 10\n"
            )

    @pytest.mark.parametrize("seq, m, message", [
        ("1,2,3,4,1", "10", "error: interior budget exceeded: 5 steps, but an infinite "
                            "unfolding's interior is trusted for 4 steps at most\n"),
        ("1,2,3", "7", "error: interior budget violated: m=7 but 3 steps need m >= 8\n"),
    ], ids=["steps", "budget"])
    def test_over_budget_request_builds_nothing(self, capsys, example_file, monkeypatch, seq,
                                                m, message):
        # refused on the counts, before the build: the example's truncation
        # has 554,348 vertices at m = 10
        monkeypatch.setattr(unfolding, "_grow", TestUnfold.no_build)
        argv = ["verify-unfolding", example_file, "-s", seq, "--m", m]
        for extra in ([], ["--json-out"]):
            assert run(capsys, argv + extra) == (2, "", message)

    @pytest.mark.parametrize(
        "seq, m, code", [("1,2", "6", 0), ("1,2,3", "4", 2), ("5", "4", 2)],
        ids=["ok", "budget", "label-range"],
    )
    def test_request_keeps_no_truncation(self, capsys, example_file, monkeypatch, seq, m, code):
        # the request builds its own truncation and frees it; the library cache
        # for repeated calls stays as it was
        monkeypatch.setattr(unfolding, "_truncations", {})
        assert run(capsys, ["verify-unfolding", example_file, "-s", seq, "--m", m])[0] == code
        assert unfolding._truncations == {}


NOT_SIGN_SKEW_TEXT = "2\n0 1\n1 0\n"
THREE_CYCLE_TEXT = "3\n0 1 -1\n-1 0 1\n1 -1 0\n"


class TestPreconditionRefusals:
    """Every subcommand that needs a precondition refuses its violation with
    the same line: one check and one message per precondition."""

    @pytest.mark.parametrize("argv", [
        ["mutate", "-s", "1"],
        ["mgs"],
        ["mgs", "--brute-force"],
        ["coherence", "--depth", "1"],
        ["total-mutability", "--depth", "1"],
        ["unfold", "--m", "2"],
        ["verify-unfolding", "-s", "1", "--m", "4"],
    ], ids=" ".join)
    def test_not_sign_skew_symmetric(self, capsys, tmp_path, argv):
        path = tmp_path / "nss.mat"
        path.write_text(NOT_SIGN_SKEW_TEXT, encoding="utf-8")
        code, out, err = run(capsys, [argv[0], str(path), *argv[1:]])
        assert (code, out, err) == (2, "", "error: input matrix is not sign-skew-symmetric\n")

    @pytest.mark.parametrize("subcommand", ["coherence", "total-mutability"])
    def test_depth_refused_before_the_matrix(self, capsys, tmp_path, subcommand):
        # both searches refuse a bad depth first, as the library calls do
        path = tmp_path / "nss.mat"
        path.write_text(NOT_SIGN_SKEW_TEXT, encoding="utf-8")
        code, out, err = run(capsys, [subcommand, str(path), "--depth", "0"])
        assert (code, out, err) == (
            2, "", "error: search depth must be a positive integer, got 0\n"
        )

    @pytest.mark.parametrize("argv", [
        ["mgs"],
        ["unfold", "--m", "2"],
        ["verify-unfolding", "-s", "1", "--m", "4"],
    ], ids=" ".join)
    def test_not_acyclic(self, capsys, tmp_path, argv):
        path = tmp_path / "cyc.mat"
        path.write_text(THREE_CYCLE_TEXT, encoding="utf-8")
        code, out, err = run(capsys, [argv[0], str(path), *argv[1:]])
        assert (code, out, err) == (
            2, "", "error: no source among indices {1,2,3}: matrix is not acyclic\n"
        )


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
