"""Acceptance suite: one test per criterion, exact-integer comparisons only.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in
the captured output).  Runtime budgets are asserted alongside the
mathematical content; criterion 8 shares criterion 7's budget.
"""

from __future__ import annotations

import random
import time
from functools import lru_cache

from quivermut import (
    ColumnSign,
    ExchangeMatrix,
    LabeledQuiver,
    brute_force_green_search,
    build_piece,
    build_truncation,
    check_gamma_conditions,
    check_sign_coherence,
    check_total_mutability,
    column_sign,
    extend,
    folding,
    green_directions,
    mutate,
    mutate_framed,
    orbit_mutate,
    source_mgs,
    verify_unfolding_commutation,
)

from corpus import corpus_matrices, example_matrix, random_sign_skew

TIMINGS: dict[str, float] = {}


@lru_cache(maxsize=1)
def _corpus() -> tuple[ExchangeMatrix, ...]:
    return tuple(corpus_matrices())


def _verdict(num: int, name: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {status} [{elapsed:.2f}s / {budget:.0f}s budget]")


def _pruned_sequences(n: int, max_len: int) -> list[tuple[int, ...]]:
    """All direction sequences of length <= max_len without immediate repeats."""
    out: list[tuple[int, ...]] = [()]
    level: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        nxt = []
        for seq in level:
            last = seq[-1] if seq else 0
            for k in range(1, n + 1):
                if k != last:
                    nxt.append(seq + (k,))
        out.extend(nxt)
        level = nxt
    return out


def _vertex_column_sign(quiver: LabeledQuiver, v: int) -> str:
    pos = any(quiver.frozen[u] for u, mult in quiver.adj[v].items() if mult > 0)
    neg = any(quiver.frozen[u] for u, mult in quiver.adj[v].items() if mult < 0)
    if pos and neg:
        return "mixed"
    if pos:
        return "green"
    if neg:
        return "red"
    return "zero"


def test_criterion_1_involution_suite():
    budget = 5.0
    start = time.perf_counter()
    rng = random.Random(0xACCE551)
    ok = True
    for _ in range(1000):
        matrix = random_sign_skew(rng, rng.randint(1, 8), max_entry=5)
        for k in range(1, matrix.n + 1):
            if mutate(mutate(matrix, k), k) != matrix:
                ok = False
    elapsed = time.perf_counter() - start
    _verdict(1, "involution suite", ok and elapsed < budget, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_2_total_mutability():
    budget = 60.0
    start = time.perf_counter()
    ok = all(check_total_mutability(matrix, 4).ok for matrix in _corpus())
    elapsed = time.perf_counter() - start
    _verdict(2, "total mutability depth 4", ok and elapsed < budget, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_3_sign_coherence():
    budget = 120.0
    start = time.perf_counter()
    ok = all(check_sign_coherence(extend(matrix), 4).ok for matrix in _corpus())
    elapsed = time.perf_counter() - start
    _verdict(3, "sign-coherence depth 4", ok and elapsed < budget, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_4_mgs_existence():
    budget = 1.0
    start = time.perf_counter()
    ok = True
    for matrix in _corpus():
        report = source_mgs(matrix)
        if not (report.is_green_sequence and report.is_maximal):
            ok = False
    example_report = source_mgs(example_matrix())
    if example_report.sequence != (1, 2, 3, 4):
        ok = False
    final = example_report.step_c_matrices[-1]
    if any(any(x > 0 for x in row) for row in final):
        ok = False
    if any(all(x == 0 for x in col) for col in zip(*final)):
        ok = False
    elapsed = time.perf_counter() - start
    _verdict(4, "maximal green sequence existence", ok and elapsed < budget, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_5_oracle_agreement():
    budget = 120.0
    start = time.perf_counter()
    ok = True
    for matrix in _corpus():
        source_seq = source_mgs(matrix).sequence
        reports = brute_force_green_search(extend(matrix), matrix.n)
        if source_seq not in {r.sequence for r in reports}:
            ok = False
        for report in reports:
            # independent replay: every step green, endpoint without greens
            seed = extend(matrix)
            for k in report.sequence:
                if column_sign(seed, k) is not ColumnSign.GREEN:
                    ok = False
                seed = mutate_framed(seed, k)
            if green_directions(seed):
                ok = False
    elapsed = time.perf_counter() - start
    _verdict(5, "source vs brute-force oracle", ok and elapsed < budget, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_6_folding_identity():
    budget = 10.0
    start = time.perf_counter()
    ok = True
    for matrix in _corpus():
        target = extend(matrix)
        for m in (2, 3, 4):
            if folding(build_truncation(matrix, m, framed=True)) != target:
                ok = False
    if build_piece(example_matrix(), 1, framed=True).vertex_count != 6:
        ok = False
    elapsed = time.perf_counter() - start
    _verdict(6, "folding identity m=2..4", ok and elapsed < budget, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_7_unfolding_commutation():
    budget = 300.0
    start = time.perf_counter()
    ok = True
    for matrix in _corpus():
        for seq in _pruned_sequences(matrix.n, 3):
            report = verify_unfolding_commutation(matrix, seq, 8)
            if not report.ok:
                ok = False
    elapsed = time.perf_counter() - start
    TIMINGS["criterion7"] = elapsed
    _verdict(7, "unfolding commutation len<=3 m=8", ok and elapsed < budget, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_criterion_8_gamma_and_orbit_signs():
    budget = 300.0  # shared with criterion 7
    start = time.perf_counter()
    ok = True

    def orbit_signs_agree(quiver: LabeledQuiver) -> bool:
        for label in range(1, quiver.n_labels + 1):
            signs = {_vertex_column_sign(quiver, v) for v in quiver._interior_ids(label)}
            if "mixed" in signs or len(signs) != 1:
                return False
        return True

    for matrix in _corpus():
        for m in (2, 3, 4, 8):
            if not check_gamma_conditions(build_truncation(matrix, m, framed=True)).ok:
                ok = False

        def replay(quiver: LabeledQuiver, last: int, length: int) -> None:
            nonlocal ok
            for k in range(1, matrix.n + 1):
                if k == last:
                    continue
                mutated = orbit_mutate(quiver, k)
                if not check_gamma_conditions(mutated).ok:
                    ok = False
                if not orbit_signs_agree(mutated):
                    ok = False
                if length + 1 < 3:
                    replay(mutated, k, length + 1)

        replay(build_truncation(matrix, 8, framed=True), 0, 0)

    elapsed = time.perf_counter() - start
    combined = elapsed + TIMINGS.get("criterion7", 0.0)
    _verdict(
        8,
        "gamma conditions + orbit column signs",
        ok and combined < budget,
        combined,
        budget,
    )
    assert ok
    assert combined < budget
