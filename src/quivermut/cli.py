"""Command-line front end, with one output path.

Each _cmd_* handler returns a _Result: its exit code, its --json-out
payload and its plain-text lines, a generator that is formatted only when
printed.  No handler writes to stdout.  main alone reads --json-out,
prints the payload (seeds as the canonical seed document) or the lines,
and maps errors to exit codes.  Exit codes: 0 when the requested report
or property check succeeds, 1 when a checked property is violated (a
witness is printed) or green-sequence verification fails, 2 for usage or
input errors.  Output is deterministic.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path
from typing import Iterator, Optional, Sequence

from .matrices import (
    ExchangeMatrix, MutabilityReport, check_total_mutability, classify, format_int, format_json,
    parse_int, parse_matrix,
)
from .seeds import (
    FramedSeed, GreenVerificationError, apply_sequence_framed, brute_force_green_search,
    check_sign_coherence, extend, identity_rows, source_mgs,
)
from .unfolding import (
    _TRUSTED_STEPS, _replay_truncation, _summary, _tree_dot, _truncation_counts, _verify_replay,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

# exit code, --json-out payload (format_json), plain-text lines
_Result = tuple[int, dict, Iterator[str]]


def _bool_str(value: bool) -> str:
    return "true" if value else "false"


def _seq_str(seq: Sequence[int]) -> str:
    return ",".join(str(k) for k in seq)


def _parse_directions(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    out = []
    for token in text.split(","):
        token = token.strip()
        try:
            out.append(parse_int(token))
        except ValueError:
            raise ValueError(
                f"invalid mutation sequence entry {token!r}: expected an integer"
            ) from None
    return tuple(out)


def _load_matrix(path: str) -> ExchangeMatrix:
    return parse_matrix(Path(path).read_text(encoding="utf-8"))


def _cmd_classify(args: argparse.Namespace) -> _Result:
    report = classify(_load_matrix(args.matrix))

    def lines() -> Iterator[str]:
        yield f"skew-symmetric: {_bool_str(report.skew_symmetric)}"
        if report.symmetrizer is None:
            yield "symmetrizer: none"
        else:
            yield "symmetrizer: " + " ".join(map(format_int, report.symmetrizer))
        yield f"sign-skew-symmetric: {_bool_str(report.sign_skew_symmetric)}"
        yield f"acyclic: {_bool_str(report.acyclic)}"

    return EXIT_OK, {
        "skew_symmetric": report.skew_symmetric,
        "symmetrizer": report.symmetrizer,
        "sign_skew_symmetric": report.sign_skew_symmetric,
        "acyclic": report.acyclic,
    }, lines()


def _cmd_mutate(args: argparse.Namespace) -> _Result:
    seed = extend(_load_matrix(args.matrix))
    seed = apply_sequence_framed(seed, _parse_directions(args.seq))

    def lines() -> Iterator[str]:
        for name, rows in (("b", seed.b.entries), ("c", seed.c)):
            yield f"{name}:"
            for row in rows:
                yield " ".join(map(format_int, row))

    # the canonical seed document of format_seed
    return EXIT_OK, {"b": seed.b.entries, "c": seed.c}, lines()


def _cmd_mgs(args: argparse.Namespace) -> _Result:
    if args.max_len is not None and not args.brute_force:
        raise ValueError("--max-len bounds the brute-force search; it needs --brute-force")
    matrix = _load_matrix(args.matrix)
    max_len = args.max_len if args.max_len is not None else matrix.n
    if max_len < matrix.n:
        # the source sequence has length n, so no shorter bound can confirm it
        raise ValueError(f"--max-len {max_len} is below the matrix size {matrix.n}, "
                         "the length of the source sequence")
    report = source_mgs(matrix)
    payload = {
        "sequence": report.sequence,
        "is_green_sequence": report.is_green_sequence,
        "is_maximal": report.is_maximal,
        "step_c_matrices": report.step_c_matrices,
    }
    brute: list = []
    code = EXIT_OK
    if args.brute_force:
        brute = brute_force_green_search(extend(matrix), max_len)
        payload["brute_force_sequences"] = [r.sequence for r in brute]
        if report.sequence not in payload["brute_force_sequences"]:
            print("brute-force cross-check failed: source sequence not found", file=sys.stderr)
            code = EXIT_VIOLATION

    def lines() -> Iterator[str]:
        yield f"sequence: {_seq_str(report.sequence)}"
        yield f"green: {_bool_str(report.is_green_sequence)}"
        yield f"maximal: {_bool_str(report.is_maximal)}"
        if args.brute_force:
            yield f"brute-force maximal green sequences: {len(brute)}"
            for r in brute:
                yield f"  {_seq_str(r.sequence)}"

    return code, payload, lines()


def _verdict(claim: str, depth: int, report: MutabilityReport) -> _Result:
    def lines() -> Iterator[str]:
        yield f"{claim}: {_bool_str(report.ok)} (depth {depth})"
        if not report.ok:
            yield f"counterexample: {_seq_str(report.counterexample)}"

    code = EXIT_OK if report.ok else EXIT_VIOLATION
    payload = {"ok": report.ok, "depth": depth, "counterexample": report.counterexample}
    return code, payload, lines()


def _cmd_coherence(args: argparse.Namespace) -> _Result:
    matrix = _load_matrix(args.matrix)
    # extend's seed without its sign-skew refusal: the search refuses the
    # depth first, then the matrix, as total-mutability does
    seed = FramedSeed(matrix, identity_rows(matrix.n))
    return _verdict("sign-coherent", args.depth, check_sign_coherence(seed, args.depth))


def _cmd_total_mutability(args: argparse.Namespace) -> _Result:
    report = check_total_mutability(_load_matrix(args.matrix), args.depth)
    return _verdict("totally-mutable", args.depth, report)


def _cmd_unfold(args: argparse.Namespace) -> _Result:
    matrix = _load_matrix(args.matrix)
    # the report and the DOT export are both read off the counts: nothing is built
    counts = _truncation_counts(matrix, args.m, args.framed)
    summary = _summary(counts, args.framed)
    summary["labels"] = {str(label): c for label, c in summary["labels"].items()}
    if args.dot:
        Path(args.dot).write_bytes(_tree_dot(matrix, args.framed, counts))

    def lines() -> Iterator[str]:
        yield (f"vertices: {summary['vertices']} "
               f"({summary['mutable']} mutable, {summary['frozen']} frozen)")
        yield f"arrows: {summary['arrows']}"
        yield f"complete: {_bool_str(summary['complete'])}"
        radius = summary["interior_radius"]
        yield f"interior radius: {'infinite' if radius is None else radius}"
        yield "labels: " + " ".join(f"{k}={v}" for k, v in summary["labels"].items())
        if args.dot:
            yield f"dot written to {args.dot}"

    return EXIT_OK, summary, lines()


def _cmd_verify_unfolding(args: argparse.Namespace) -> _Result:
    directions = _parse_directions(args.seq)
    matrix = _load_matrix(args.matrix)
    # verify_unfolding_commutation's replay on the request's own build, freed
    # when the handler returns: its cache serves repeated library calls, and a
    # request makes one; an over-budget request is refused before the build
    report = _verify_replay(_replay_truncation(matrix, args.m, len(directions)), matrix,
                            directions)

    def lines() -> Iterator[str]:
        yield f"commutes: {_bool_str(report.ok)} (steps {len(directions)}, m {args.m})"
        if not report.ok:
            yield f"first divergence at step {report.first_divergence}"

    code = EXIT_OK if report.ok else EXIT_VIOLATION
    return code, {
        "ok": report.ok,
        "steps": len(directions),
        "m": args.m,
        "first_divergence": report.first_divergence,
    }, lines()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quivermut",
        description="Exact-integer exchange-matrix mutation, green sequences, "
        "and unfolding truncations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("matrix", help="matrix file (size line, then rows of integers)")
        p.add_argument("--json-out", action="store_true", help="machine-readable output")
        p.set_defaults(handler=handler)
        return p

    add("classify", _cmd_classify, "classification flags and symmetrizer")

    p = add("mutate", _cmd_mutate, "apply a mutation sequence to the extended seed")
    p.add_argument("-s", "--seq", default="", help="comma-separated 1-based directions")

    p = add("mgs", _cmd_mgs, "maximal green sequence from the source numbering")
    p.add_argument("--brute-force", action="store_true",
                   help="cross-check against exhaustive enumeration")
    p.add_argument("--max-len", type=int, default=None,
                   help="brute-force length bound, at least the matrix size (default: "
                   "matrix size); only with --brute-force")

    p = add("coherence", _cmd_coherence, "exhaustive c-vector sign-coherence check")
    p.add_argument("--depth", type=int, required=True, help="search depth (positive)")

    p = add("total-mutability", _cmd_total_mutability,
            "exhaustive sign-skew-symmetry check under mutation")
    p.add_argument("--depth", type=int, required=True, help="search depth (positive)")

    p = add("unfold", _cmd_unfold, "build an unfolding truncation")
    p.add_argument("--m", type=int, required=True, help="interior budget (positive)")
    p.add_argument("--framed", action="store_true", help="attach frozen copies")
    p.add_argument("--dot", default=None, help="write DOT export to this path")

    p = add("verify-unfolding", _cmd_verify_unfolding,
            "check that orbit-mutation commutes with folding")
    p.add_argument("-s", "--seq", default="", help="comma-separated orbit labels")
    p.add_argument("--m", type=int, required=True,
                   help="interior budget (positive); L steps on an infinite unfolding need "
                   f"m >= 2L + 2 and L <= {_TRUSTED_STEPS}")

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reuses, built on the first request, not at import: parse_args
    leaves a parser as it was, and building it at import would slow every import."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, payload, lines = args.handler(args)
    except GreenVerificationError as exc:
        print(f"green-sequence verification failed: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json_out:
        print(format_json(payload))
    else:
        sys.stdout.writelines(f"{line}\n" for line in lines)
    return code


if __name__ == "__main__":
    sys.exit(main())
