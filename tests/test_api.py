"""The public surface: names, signatures and the LabeledQuiver contract.

The table was recorded before LabeledQuiver became a dataclass.  A class is
pinned by its constructor's parameters (a constructor returns None, and
how that annotation is spelled says nothing about the API), an enum by its
values and an exception by its base class.
"""

from __future__ import annotations

import copy
import enum
import inspect

import pytest

import quivermut
from quivermut import ExchangeMatrix, LabeledQuiver, build_truncation, orbit_mutate

from corpus import example_matrix

SURFACE = {
    "ClassificationReport": "(skew_symmetric: 'bool', symmetrizer: 'Optional[tuple[int, ...]]', sign_skew_symmetric: 'bool', acyclic: 'bool')",
    "CoherenceReport": "(ok: 'bool', counterexample: 'Optional[tuple[int, ...]]', complete: 'bool' = False)",
    "ColumnSign": ["green", "red", "mixed", "zero"],
    "CommutationReport": "(ok: 'bool', first_divergence: 'Optional[int]')",
    "ExchangeMatrix": "(entries: 'IntMatrix')",
    "FramedSeed": "(b: 'ExchangeMatrix', c: 'IntMatrix')",
    "GammaReport": "(loop_free: 'bool', two_cycle_free: 'bool', loop_witnesses: 'tuple[tuple[int, int], ...]', two_cycle_witnesses: 'tuple[tuple[int, int, int], ...]')",
    "GammaViolationError": "ValueError",
    "GreenSequenceReport": "(sequence: 'tuple[int, ...]', step_c_matrices: 'tuple[IntMatrix, ...]', is_green_sequence: 'bool', is_maximal: 'bool')",
    "GreenVerificationError": "RuntimeError",
    "InteriorExhaustedError": "ValueError",
    "LabeledQuiver": "(*, n_labels: 'int', framed: 'bool', labels: 'tuple[int, ...]', frozen: 'tuple[bool, ...]', depths: 'tuple[int, ...]', adj: 'list[dict[int, int]]', interior_radius: 'Optional[int]')",
    "MatrixFormatError": "ValueError",
    "MutabilityReport": "(ok: 'bool', counterexample: 'Optional[tuple[int, ...]]', complete: 'bool' = False)",
    "admissible_source_numbering": "(matrix: 'ExchangeMatrix') -> 'tuple[int, ...]'",
    "apply_sequence": "(matrix: 'ExchangeMatrix', directions: 'Sequence[int]') -> 'ExchangeMatrix'",
    "apply_sequence_framed": "(seed: 'FramedSeed', directions: 'Sequence[int]') -> 'FramedSeed'",
    "brute_force_green_search": "(seed: 'FramedSeed', max_len: 'int') -> 'list[GreenSequenceReport]'",
    "build_piece": "(matrix: 'ExchangeMatrix', i: 'int', framed: 'bool' = True) -> 'LabeledQuiver'",
    "build_truncation": "(matrix: 'ExchangeMatrix', m: 'int', framed: 'bool' = True) -> 'LabeledQuiver'",
    "check_gamma_conditions": "(quiver: 'LabeledQuiver') -> 'GammaReport'",
    "check_sign_coherence": "(seed: 'FramedSeed', depth: 'int') -> 'CoherenceReport'",
    "check_total_mutability": "(matrix: 'ExchangeMatrix', depth: 'int') -> 'MutabilityReport'",
    "classify": "(matrix: 'ExchangeMatrix') -> 'ClassificationReport'",
    "column_sign": "(seed: 'FramedSeed', j: 'int') -> 'ColumnSign'",
    "extend": "(matrix: 'ExchangeMatrix') -> 'FramedSeed'",
    "find_symmetrizer": "(matrix: 'ExchangeMatrix') -> 'Optional[tuple[int, ...]]'",
    "folding": "(quiver: 'LabeledQuiver', representatives: 'Optional[Mapping[int, int]]' = None) -> 'FramedSeed | ExchangeMatrix'",
    "folding_column": "(quiver: 'LabeledQuiver', label: 'int', representative: 'Optional[int]' = None) -> 'tuple[tuple[int, ...], Optional[tuple[int, ...]]]'",
    "format_matrix": "(matrix: 'ExchangeMatrix') -> 'str'",
    "format_seed": "(seed: 'FramedSeed') -> 'str'",
    "green_directions": "(seed: 'FramedSeed') -> 'list[int]'",
    "is_acyclic": "(matrix: 'ExchangeMatrix') -> 'bool'",
    "is_sign_skew_symmetric": "(matrix: 'ExchangeMatrix') -> 'bool'",
    "is_skew_symmetric": "(matrix: 'ExchangeMatrix') -> 'bool'",
    "mutate": "(matrix: 'ExchangeMatrix', k: 'int') -> 'ExchangeMatrix'",
    "mutate_framed": "(seed: 'FramedSeed', k: 'int') -> 'FramedSeed'",
    "orbit_mutate": "(quiver: 'LabeledQuiver', k: 'int') -> 'LabeledQuiver'",
    "orbit_sources": "(quiver: 'LabeledQuiver') -> 'list[int]'",
    "parse_matrix": "(text: 'str') -> 'ExchangeMatrix'",
    "parse_seed": "(text: 'str') -> 'FramedSeed'",
    "source_mgs": "(matrix: 'ExchangeMatrix') -> 'GreenSequenceReport'",
    "to_dot": "(quiver: 'LabeledQuiver') -> 'str'",
    "verify_unfolding_commutation": "(matrix: 'ExchangeMatrix', directions: 'Sequence[int]', m: 'int') -> 'CommutationReport'",
}


def surface_entry(obj: object) -> str | list[str]:
    if isinstance(obj, type) and issubclass(obj, Exception):
        return obj.__mro__[1].__name__
    if isinstance(obj, type) and issubclass(obj, enum.Enum):
        return [member.value for member in obj]
    signature = inspect.signature(obj)
    if isinstance(obj, type):
        signature = signature.replace(return_annotation=inspect.Signature.empty)
    return str(signature)


def test_public_names():
    assert sorted(quivermut.__all__) == sorted(SURFACE)
    assert len(set(quivermut.__all__)) == len(quivermut.__all__)


@pytest.mark.parametrize("name", sorted(SURFACE))
def test_public_signature(name):
    assert surface_entry(getattr(quivermut, name)) == SURFACE[name]


class TestLabeledQuiver:
    def test_keyword_only(self):
        quiver = build_truncation(example_matrix(), 2)
        fields = {name: getattr(quiver, name) for name in inspect.signature(LabeledQuiver).parameters}
        assert LabeledQuiver(**fields) == quiver
        with pytest.raises(TypeError):
            LabeledQuiver(*fields.values())  # type: ignore[misc]

    def test_unhashable(self):
        quiver = build_truncation(example_matrix(), 2)
        with pytest.raises(TypeError, match="unhashable"):
            hash(quiver)

    def test_copy_shares_the_label_index(self):
        quiver = build_truncation(example_matrix(), 2)
        twin = copy.copy(quiver)
        assert twin == quiver and twin is not quiver
        assert twin._label_ids is quiver._label_ids
        assert twin._classes is quiver._classes
        assert twin.core_depth == quiver.core_depth
        stepped = orbit_mutate(quiver, 1)
        dirty = stepped._dirty
        assert dirty and copy.copy(stepped)._dirty is dirty
        # every slot is the original's object, and rebinding one on the copy
        # leaves the original as it was
        twin = copy.copy(stepped)
        assert all(getattr(twin, name) is getattr(stepped, name)
                   for name in LabeledQuiver.__slots__)
        adj, radius = stepped.adj, stepped.interior_radius
        twin.adj, twin.interior_radius, twin._dirty = [], radius - 2, frozenset()
        assert stepped.adj is adj and stepped.interior_radius == radius
        assert stepped._dirty is dirty

    def test_equality_compares_the_constructor_fields(self):
        quiver = build_truncation(example_matrix(), 2)
        other = build_truncation(example_matrix(), 2)
        assert other == quiver
        other.interior_radius += 1
        assert other != quiver
        assert quiver != "not a quiver"

    def test_repr(self):
        two_leaf = ExchangeMatrix([[0, 1], [-2, 0]])
        assert repr(build_truncation(two_leaf, 2)) == (
            "<LabeledQuiver n_labels=2 framed=True vertices=6 arrows=5 complete>"
        )
        assert repr(build_truncation(example_matrix(), 3, framed=False)) == (
            "<LabeledQuiver n_labels=4 framed=False vertices=181 arrows=180 interior<=3>"
        )
