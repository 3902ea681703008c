"""Command-line front end.

Exit codes: 0 when the requested report or property check succeeds, 1 when
a checked property is violated (a witness is printed), 2 for usage or
input errors.  Output is deterministic; --json-out switches to machine
form, and seeds are emitted in the canonical seed document format.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path
from typing import Optional, Sequence

from .matrices import (
    ExchangeMatrix,
    MutabilityReport,
    check_total_mutability,
    classify,
    format_int,
    format_json,
    parse_int,
    parse_matrix,
)
from .seeds import (
    CoherenceReport,
    GreenVerificationError,
    apply_sequence_framed,
    brute_force_green_search,
    check_sign_coherence,
    extend,
    format_seed,
    source_mgs,
)
from .unfolding import (
    build_truncation,
    to_dot,
    verify_unfolding_commutation,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


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


def _cmd_classify(args: argparse.Namespace) -> int:
    report = classify(_load_matrix(args.matrix))
    if args.json_out:
        print(format_json({
            "skew_symmetric": report.skew_symmetric,
            "symmetrizer": report.symmetrizer,
            "sign_skew_symmetric": report.sign_skew_symmetric,
            "acyclic": report.acyclic,
        }))
        return EXIT_OK
    print(f"skew-symmetric: {_bool_str(report.skew_symmetric)}")
    if report.symmetrizer is None:
        print("symmetrizer: none")
    else:
        print("symmetrizer: " + " ".join(map(format_int, report.symmetrizer)))
    print(f"sign-skew-symmetric: {_bool_str(report.sign_skew_symmetric)}")
    print(f"acyclic: {_bool_str(report.acyclic)}")
    return EXIT_OK


def _cmd_mutate(args: argparse.Namespace) -> int:
    seed = extend(_load_matrix(args.matrix))
    seed = apply_sequence_framed(seed, _parse_directions(args.seq))
    if args.json_out:
        sys.stdout.write(format_seed(seed))
        return EXIT_OK
    for name, rows in (("b", seed.b.entries), ("c", seed.c)):
        print(f"{name}:")
        for row in rows:
            print(" ".join(map(format_int, row)))
    return EXIT_OK


def _cmd_mgs(args: argparse.Namespace) -> int:
    matrix = _load_matrix(args.matrix)
    max_len = args.max_len if args.max_len is not None else matrix.n
    if args.brute_force and max_len < matrix.n:
        # the source sequence has length n, so no shorter bound can confirm it
        raise ValueError(f"--max-len {max_len} is below the matrix size {matrix.n}, "
                         "the length of the source sequence")
    try:
        report = source_mgs(matrix)
    except GreenVerificationError as exc:
        print(f"green-sequence verification failed: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    brute: Optional[list] = None
    if args.brute_force:
        brute = brute_force_green_search(extend(matrix), max_len)
    if args.json_out:
        payload = {
            "sequence": report.sequence,
            "is_green_sequence": report.is_green_sequence,
            "is_maximal": report.is_maximal,
            "step_c_matrices": report.step_c_matrices,
        }
        if brute is not None:
            payload["brute_force_sequences"] = [r.sequence for r in brute]
        print(format_json(payload))
    else:
        print(f"sequence: {_seq_str(report.sequence)}")
        print(f"green: {_bool_str(report.is_green_sequence)}")
        print(f"maximal: {_bool_str(report.is_maximal)}")
        if brute is not None:
            print(f"brute-force maximal green sequences: {len(brute)}")
            for r in brute:
                print(f"  {_seq_str(r.sequence)}")
    if brute is not None and report.sequence not in {r.sequence for r in brute}:
        print("brute-force cross-check failed: source sequence not found", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _print_verdict(
    args: argparse.Namespace, claim: str, report: MutabilityReport | CoherenceReport
) -> int:
    if args.json_out:
        print(format_json({
            "ok": report.ok,
            "depth": args.depth,
            "counterexample": report.counterexample,
        }))
    else:
        print(f"{claim}: {_bool_str(report.ok)} (depth {args.depth})")
        if not report.ok:
            print(f"counterexample: {_seq_str(report.counterexample)}")
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_coherence(args: argparse.Namespace) -> int:
    seed = extend(_load_matrix(args.matrix))
    return _print_verdict(args, "sign-coherent", check_sign_coherence(seed, args.depth))


def _cmd_total_mutability(args: argparse.Namespace) -> int:
    report = check_total_mutability(_load_matrix(args.matrix), args.depth)
    return _print_verdict(args, "totally-mutable", report)


def _cmd_unfold(args: argparse.Namespace) -> int:
    quiver = build_truncation(_load_matrix(args.matrix), args.m, framed=args.framed)
    label_counts = {
        str(label): len(quiver.mutable_ids(label))
        for label in quiver.present_labels()
    }
    if args.dot:
        Path(args.dot).write_text(to_dot(quiver), encoding="utf-8")
    if args.json_out:
        print(format_json({
            "vertices": quiver.vertex_count,
            "mutable": quiver.mutable_count,
            "frozen": quiver.frozen_count,
            "arrows": quiver.arrow_count,
            "complete": quiver.is_complete,
            "interior_radius": quiver.interior_radius,
            "labels": label_counts,
        }))
        return EXIT_OK
    print(
        f"vertices: {quiver.vertex_count} "
        f"({quiver.mutable_count} mutable, {quiver.frozen_count} frozen)"
    )
    print(f"arrows: {quiver.arrow_count}")
    print(f"complete: {_bool_str(quiver.is_complete)}")
    radius = "infinite" if quiver.is_complete else str(quiver.interior_radius)
    print(f"interior radius: {radius}")
    print("labels: " + " ".join(f"{k}={v}" for k, v in label_counts.items()))
    if args.dot:
        print(f"dot written to {args.dot}")
    return EXIT_OK


def _cmd_verify_unfolding(args: argparse.Namespace) -> int:
    directions = _parse_directions(args.seq)
    report = verify_unfolding_commutation(_load_matrix(args.matrix), directions, args.m)
    if args.json_out:
        print(format_json({
            "ok": report.ok,
            "steps": len(directions),
            "m": args.m,
            "first_divergence": report.first_divergence,
        }))
    else:
        print(f"commutes: {_bool_str(report.ok)} (steps {len(directions)}, m {args.m})")
        if not report.ok:
            print(f"first divergence at step {report.first_divergence}")
    return EXIT_OK if report.ok else EXIT_VIOLATION


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
                   help="brute-force length bound, at least the matrix size (default: matrix size)")

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
    p.add_argument("--m", type=int, required=True, help="interior budget")

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reuses, built on the first request, not at import.

    parse_args leaves a parser as it was, so one per process serves every
    request; building it at import would slow every import of this module.
    """
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
