"""Finite truncations of locally finite unfolding quivers.

An acyclic sign-skew-symmetric matrix is covered by a labeled, locally
finite quiver built by gluing one-vertex neighborhood pieces; summing
adjacency entries over a label class (with a fixed column representative)
folds the quiver back onto the matrix: one column of the extended matrix
[B; C] per representative, the frozen copies giving C.  Truly infinite
quivers are represented by finite truncations carrying an interior
radius: the depth up to which every vertex still has its complete,
faithful neighborhood.  Orbit-mutation (simultaneous mutation at all
vertices of one label) consumes two units of that radius per step.  That
rule is argued through three steps and checked against deeper truncations
through four; at five it claims vertices whose arrows are already wrong.
So each quiver counts the orbit-mutations it has taken, and one rule
(`_require_trusted`, `_TRUSTED_STEPS`) refuses a fifth on an infinite
unfolding: `orbit_mutate` at the fifth call of a chain, and
`verify_unfolding_commutation` before it replays five or more steps.
Each vertex's class, its label and kind, is indexed once per quiver
(`LabeledQuiver._classes`).  A fresh truncation is fixed by its counts
per ring (_count_rings), and one walk over them (_glue) numbers its
vertices and the arrow that glues each one in.  Building (_grow) and
`quivermut unfold --dot` (_tree_dot) both read that walk; the walk gives
each vertex's children consecutive ids, so _tree_dot reads the arrows in
sorted order off it with no sort.  `unfold` reports from the counts
alone (_summary) and builds no quiver.  One formatter (_dot_text) lays
out every DOT text, as UTF-8 bytes.

Orbit-mutation has two paths, which share the gate `_orbit_targets`
(label, step count, interior and Γ checks) and the step `_orbit_step`
(mutations, radius drop, count).  The public `orbit_mutate` copies and
mutates the whole truncation.
`verify_unfolding_commutation` replays on one private working quiver
through `_replay`, mutating fewer vertices with the same fold: its final
step mutates the fold cone, and each earlier step the label-k vertices in
a depth band around the root and in a ball, by distance in the gluing
tree, around the fold representatives (_ball_schedule).  A fresh
truncation keeps its gluing tree (`_parents`), whose numbering puts each
vertex's descendants at one depth in one id range, so the balls are cut
by bisection (_ball_cuts) without walking them.  The docstrings of
`_replay` and `verify_unfolding_commutation` argue which vertices, and
why.

A quiver stores its arrows in `adj`, a list with one dict per vertex id:
ids are dense, 0..V-1, so a vertex's id is its position in the list.
Orientation convention, used consistently for adjacency and folding: a
positive entry for the ordered pair (i, j) means arrows from j to i, so it
is the quiver's `adj[j][i]`, the net number of arrows j -> i.  For the
framed part, a positive c-entry pairs arrows from a mutable vertex into a
frozen one.
"""

from __future__ import annotations

import copy
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from threading import Lock
from typing import Collection, Iterable, Iterator, Mapping, Optional, Sequence

from .matrices import (
    ExchangeMatrix, IntMatrix, _check_index, _flat, _is_int, _mutate_flat, _pattern_walk,
    _require_positive, _show,
)
from .seeds import FramedSeed, admissible_source_numbering, identity_rows

# δ_s, the largest distance in the gluing tree (_glue's parents) between
# the ends of an arrow after s orbit-mutations of a fresh truncation: the
# replay in verify_unfolding_commutation cuts each step to a ball around
# the fold representatives whose radius sums them (_ball_schedule).
# δ_0 = 1: the fresh arrows are the tree's edges.  δ_1 = 2: step 1 joins
# two tree neighbors of one target.  δ_2 = 3: at a step-2 target the
# arrows step 1 made all point one way, so a new arrow joins an end of
# one of them, at distance 2, to a tree neighbor, at distance 1, and the
# triangle inequality gives 3.  That docstring proves all three.
_SPANS = (1, 2, 3)

# The most orbit-mutations of an incomplete quiver after which its
# interior radius is trusted (_require_trusted): the rule of two units a
# step is argued through three (_SPANS) and checked against deeper
# truncations at four; at five, m = 2L + 2 gave false divergences at step 5
# (TestFiveStepRefusal).
_TRUSTED_STEPS = 4

# The most vertices one truncation or piece may have, checked before it is
# built (_count_rings).  A built truncation takes ≈341 bytes a vertex, so
# about 0.68 GB at the cap (tracemalloc on the framed running example at
# m = 8 and 10, CPython 3.11.7), 8 of them for the gluing tree it keeps
# (`_parents`), whose ids the arrows already hold.  The running example at
# m = 10 has 554,348 vertices framed and 417,961 unframed, the largest
# truncation the tests build.
_MAX_VERTICES = 2_000_000

Adjacency = list[dict[int, int]]


class GammaViolationError(ValueError):
    """The quiver has a label-class loop or 2-cycle, so orbit-mutation is undefined."""


class InteriorExhaustedError(ValueError):
    """The truncation no longer has enough trusted interior for the operation."""


@dataclass(frozen=True)
class GammaReport:
    loop_free: bool
    two_cycle_free: bool
    loop_witnesses: tuple[tuple[int, int], ...]
    two_cycle_witnesses: tuple[tuple[int, int, int], ...]

    @property
    def ok(self) -> bool:
        return self.loop_free and self.two_cycle_free


@dataclass(frozen=True)
class CommutationReport:
    ok: bool
    first_divergence: Optional[int]


@dataclass(repr=False, slots=True, kw_only=True)
class LabeledQuiver:
    """Labeled quiver with mutable/frozen vertices and net integer arrows.

    Vertices are dense integer ids, labels lie in 1..n_labels, and
    `labels`, `frozen` (bools) and `depths` (ints) have one entry per
    vertex.  Each label's `mutable_ids` come in (depth, id) order,
    whatever the numbering, so the first is the label's shallowest vertex:
    `core_depth`, the default fold representative and `can_fold` read it.
    `adj` is a list with one dict per vertex id: `adj[u][v]` is the net
    number of arrows u -> v, negative when they run v -> u; only nonzero
    entries are stored, and adj[v][u] == -adj[u][v].
    A vertex's class is its label and kind, indexed once in `_classes`:
    label - 1 for a mutable vertex and n_labels + label - 1 for a frozen
    one, which is also its row in the folded [B; C].  The Γ scan, the fold,
    the fold cone and the label index read it.
    `orbit_mutate` leaves its input as it is and returns a copy
    (`copy.copy`) with its own `adj`, sharing the vertex arrays and the
    derived fields.

    `interior_radius` is the depth up to which vertex neighborhoods are
    complete and entries are trusted; None means the quiver is the whole
    (finite) unfolding and never loses interior.  `_steps` counts the
    orbit-mutations taken: 0 when constructed, carried over by
    `copy.copy`, and 1 more after each step (`_orbit_step`).  `_parents`
    is the gluing tree of a fresh truncation, each vertex's parent id and
    -1 at the root (_glue), set by _grow and shared by copies; it
    describes the arrows of the build, not those of later mutations, and
    is None on a quiver made otherwise.  Equality ignores the derived
    `core_depth`, class index and label index, the step count and the
    gluing tree; a mutable quiver has no hash.
    """

    n_labels: int
    framed: bool
    labels: tuple[int, ...]
    frozen: tuple[bool, ...]
    depths: tuple[int, ...]
    adj: list[dict[int, int]]
    interior_radius: Optional[int]
    core_depth: int = field(init=False, compare=False)
    _classes: tuple[int, ...] = field(init=False, compare=False)
    _label_ids: dict[int, tuple[int, ...]] = field(init=False, compare=False)
    _steps: int = field(default=0, init=False, compare=False)
    _parents: Optional[list[int]] = field(default=None, init=False, compare=False)

    def __post_init__(self) -> None:
        _require_positive(self.n_labels, "n_labels")
        lengths = (len(self.labels), len(self.frozen), len(self.depths))
        if min(lengths) != max(lengths):
            raise ValueError(f"labels, frozen and depths differ in length: {lengths}")
        if not isinstance(self.adj, list):
            raise ValueError(f"adj must be a list with one dict per vertex, "
                             f"not a {type(self.adj).__name__}")
        if len(self.adj) != lengths[0]:
            raise ValueError(f"adj and labels differ in length: {(len(self.adj), lengths[0])}")
        labels = self.labels
        # one C-level pass over the types; only when one is not int are the
        # labels tested one by one, and the first that is no int is refused
        if set(map(type, labels)) - {int}:
            labels = [label for label in labels if not _is_int(label)][:1] or labels
        for label in (min(labels, default=1), max(labels, default=1)):
            if not _is_int(label) or not 1 <= label <= self.n_labels:
                raise ValueError(f"label {_show(label)} is not in 1..{self.n_labels}")
        # the same for frozen, which takes bools only, and depths, which take
        # ints but not bools: the first entry of the wrong type is refused
        if set(map(type, self.frozen)) - {bool}:
            for f in self.frozen:
                if not isinstance(f, bool):
                    raise ValueError(f"frozen entry {_show(f)} is not a bool")
        if set(map(type, self.depths)) - {int}:
            for d in self.depths:
                if not _is_int(d):
                    raise ValueError(f"depth {d!r} is not an int")
        if self.interior_radius is not None and not _is_int(self.interior_radius):
            raise ValueError(f"interior_radius must be an int or None, "
                             f"got {self.interior_radius!r}")
        n = self.n_labels
        self._classes = tuple([label - 1 + n * f for label, f in zip(self.labels, self.frozen)])
        class_ids: list[list[int]] = [[] for _ in range(2 * n)]
        for v, c in enumerate(self._classes):
            class_ids[c].append(v)
        depth = self.depths.__getitem__
        # a stable sort of id-ordered lists: (depth, id) order
        self._label_ids = {c + 1: tuple(sorted(ids, key=depth))
                           for c, ids in enumerate(class_ids[:n]) if ids}
        self.core_depth = max((depth(ids[0]) for ids in self._label_ids.values()), default=0)

    # ------------------------------------------------------------------ views

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def mutable_count(self) -> int:
        return self.frozen.count(False)

    @property
    def frozen_count(self) -> int:
        return self.frozen.count(True)

    @property
    def arrow_count(self) -> int:
        return sum(map(len, self.adj)) // 2

    @property
    def is_complete(self) -> bool:
        return self.interior_radius is None

    @property
    def can_fold(self) -> bool:
        """Whether every label still has an interior default representative."""
        return self.is_complete or self.interior_radius >= self.core_depth

    def present_labels(self) -> tuple[int, ...]:
        return tuple(sorted(self._label_ids))

    def mutable_ids(self, label: int) -> tuple[int, ...]:
        """The label's mutable vertices; () for a label that is absent or no int."""
        return self._label_ids.get(label, ()) if _is_int(label) else ()

    def _vertex(self, v: object) -> int:
        """v, when it is a vertex id in 0..V-1; IndexError naming it otherwise."""
        if not _is_int(v) or not 0 <= v < len(self.labels):
            raise IndexError(f"vertex {_show(v)} out of range 0..{len(self.labels) - 1}")
        return v

    def is_interior(self, v: int) -> bool:
        depth = self.depths[self._vertex(v)]
        return self.is_complete or depth <= self.interior_radius

    def entry(self, i: int, j: int) -> int:
        """Signed adjacency entry for the ordered pair (i, j): mult(j->i) - mult(i->j)."""
        return self.adj[self._vertex(j)].get(self._vertex(i), 0)

    def _interior_ids(self, label: int) -> tuple[int, ...]:
        """The label's interior mutable vertices, in (depth, id) order: every
        one on a complete quiver, otherwise the prefix of mutable_ids down to
        interior_radius, cut with one bisection on depth.  Unchecked, for
        callers that pass a label in 1..n_labels."""
        ids = self._label_ids.get(label, ())
        if self.interior_radius is None:
            return ids
        return ids[:bisect_right(ids, self.interior_radius, key=self.depths.__getitem__)]

    def arrows(self) -> list[tuple[int, int, int]]:
        """All arrows as (source, target, multiplicity), sorted.

        One sort of every positive entry: no two share (source, target), so
        the multiplicity never decides the order.
        """
        return sorted((u, v, mult) for u, adj_u in enumerate(self.adj)
                      for v, mult in adj_u.items() if mult > 0)

    def __copy__(self) -> LabeledQuiver:
        """A new quiver whose every slot is this one's object: the same `adj`
        list, vertex arrays, derived fields and gluing tree, and the same
        step count.
        Rebinding a slot of the copy leaves this quiver as it is.  The slots
        are assigned one by one, skipping `copy.copy`'s reduce protocol,
        which took about 3 µs a copy against 0.4 µs (CPython 3.11.7); the
        replay copies once a call and orbit_mutate once a step."""
        twin = object.__new__(type(self))
        twin.n_labels = self.n_labels
        twin.framed = self.framed
        twin.labels = self.labels
        twin.frozen = self.frozen
        twin.depths = self.depths
        twin.adj = self.adj
        twin.interior_radius = self.interior_radius
        twin.core_depth = self.core_depth
        twin._classes = self._classes
        twin._label_ids = self._label_ids
        twin._steps = self._steps
        twin._parents = self._parents
        return twin

    def __repr__(self) -> str:
        radius = "complete" if self.is_complete else f"interior<={self.interior_radius}"
        return (
            f"<LabeledQuiver n_labels={self.n_labels} framed={self.framed} "
            f"vertices={self.vertex_count} arrows={self.arrow_count} {radius}>"
        )


# -------------------------------------------------------------- construction


# The vertices of one truncation, counted before it is built (_count_rings):
# one dict per ring out from the root, mapping (label, parent label) to the
# ring's vertices of that label and parent label, the root's parent label
# being 0; the number of rings expanded; the interior radius, None for the
# whole (finite) unfolding.
_RingCounts = tuple[list[dict[tuple[int, int], int]], int, Optional[int]]


def _columns(matrix: ExchangeMatrix) -> list[list[tuple[int, int, int]]]:
    """columns[i]: (satellite label j, sign of b_ji, |b_ji|) for each nonzero
    b_ji, j != i, in label order; columns[0], the root's parent label, is empty."""
    e = matrix.entries
    n = matrix.n
    return [[]] + [[(j + 1, 1 if e[j][i] > 0 else -1, abs(e[j][i]))
                    for j in range(n) if j != i and e[j][i]] for i in range(n)]


def _count_rings(matrix: ExchangeMatrix, root: int, rings: int, framed: bool) -> _RingCounts:
    """Count the vertices of the truncation _grow builds around a vertex labeled root.

    The counts follow from the columns of B.  A ring vertex labeled i whose
    parent is labeled p gets |b_ji| satellites of each label j in the next
    ring, less one when j = p, since one of them is its parent (_glue says
    why).  Rings 0..rings-1 are expanded, and each of their vertices also
    gets its frozen copy when framed.  A running total above _MAX_VERTICES
    raises ValueError, so nothing is built before the size is known.  When
    a ring adds no vertex the unfolding is finite: counting stops at the
    ring expanded last and the radius is None.  Otherwise the radius is
    rings - 1 and the last dict counts the unexpanded outer ring.
    """
    columns = _columns(matrix)
    counts, total = {(root, 0): 1}, 1
    ring_counts = [counts]
    for depth in range(rings):
        grown_counts: dict[tuple[int, int], int] = {}
        for (i, p), c in counts.items():
            total += c * framed
            for j, _sign, count in columns[i]:
                if count > (j == p):
                    grown_counts[j, i] = grown_counts.get((j, i), 0) + c * (count - (j == p))
        total += sum(grown_counts.values())
        if total > _MAX_VERTICES:
            size = total if total < 10**18 else f"2**{total.bit_length() - 1}"
            raise ValueError(f"the truncation would have at least {size} vertices, "
                             f"more than the {_MAX_VERTICES} one build allows")
        if not grown_counts:
            return ring_counts, depth + 1, None
        ring_counts.append(grown_counts)
        counts = grown_counts
    return ring_counts, rings, rings - 1


def _summary(counts: _RingCounts, framed: bool) -> dict:
    """What `quivermut unfold` reports of _grow(matrix, framed, counts), read
    off the counts without building: vertices, mutable, frozen, arrows,
    complete, interior_radius and labels, the mutable vertices per present
    label in label order.  A fresh truncation is a tree (_replay's
    docstring argues it), so it has one arrow fewer than vertices.
    """
    ring_counts, rings, radius = counts
    labels: dict[int, int] = {}
    for ring in ring_counts:
        for (i, _p), c in ring.items():
            labels[i] = labels.get(i, 0) + c
    mutable = sum(labels.values())
    frozen = framed * sum(c for ring in ring_counts[:rings] for c in ring.values())
    return {
        "vertices": mutable + frozen,
        "mutable": mutable,
        "frozen": frozen,
        "arrows": mutable + frozen - 1,
        "complete": radius is None,
        "interior_radius": radius,
        "labels": dict(sorted(labels.items())),
    }


def _glue(matrix: ExchangeMatrix, framed: bool, counts: _RingCounts) -> tuple[
        tuple[int, ...], tuple[bool, ...], tuple[int, ...], list[int], list[int]]:
    """Number the vertices of the fresh truncation counted by _count_rings.

    The one walk that _grow builds from and _tree_dot writes from.  Rings
    0..rings-1 are expanded in turn, each in id order: a vertex labeled i,
    whose parent is labeled p (p = 0 for the root), gets its frozen copy
    (when framed), then |b_ji| satellites of each label j, in label order,
    less one when j = p.  Returns labels, frozen, depths, parents and
    signs, one entry per vertex id.  Every vertex v but the root is glued
    in by one arrow, the entry adj[parents[v]][v] = signs[v]: 1 to a
    frozen copy, the sign of b_ji to a satellite labeled j.  The root has
    parent -1 and sign 0.

    The root lacks its whole piece.  Any other vertex v, labeled i, has
    one arrow so far, the one to its parent, labeled p: v was glued as a
    satellite of the parent's piece, with the arrow from v to the parent
    when b_ip < 0.  Sign-skew-symmetry makes b_pi nonzero and of the other
    sign, so v's piece has at least one satellite labeled p, with its arrow
    in the same direction.  That satellite is the parent, and v lacks the
    rest of its piece.
    """
    ring_counts, rings, _radius = counts
    columns = _columns(matrix)
    # (satellite label j, sign of b_ji) per satellite of a center labeled i with parent labeled p
    pieces = {(i, p): [(j, sign) for j, sign, count in columns[i] for _ in range(count - (j == p))]
              for i, p in set().union(*ring_counts[:rings])}
    (root, _), = ring_counts[0]  # ring 0 is the root alone
    labels, frozen, depths, parents, signs = [root], [False], [0], [-1], [0]
    start = 0
    for depth in range(rings):
        end = len(labels)  # ring `depth` is the mutable vertices in start..end-1
        for v in range(start, end):
            if frozen[v]:
                continue
            label = labels[v]
            if framed:
                labels.append(label)
                frozen.append(True)
                depths.append(depth)
                parents.append(v)
                signs.append(1)
            for j, sign in pieces[label, labels[parents[v]] if v else 0]:
                labels.append(j)
                frozen.append(False)
                depths.append(depth + 1)
                parents.append(v)
                signs.append(sign)
        start = end
    return tuple(labels), tuple(frozen), tuple(depths), parents, signs


def _grow(matrix: ExchangeMatrix, framed: bool, counts: _RingCounts) -> LabeledQuiver:
    """Build the fresh truncation that _glue numbers, with the counted radius.

    Each vertex's dict holds its parent first, then its children by id.
    The quiver keeps the walk's parents as its gluing tree (`_parents`).
    """
    labels, frozen, depths, parents, signs = _glue(matrix, framed, counts)
    adj: Adjacency = [{}] + [{parent: -sign} for parent, sign in zip(parents[1:], signs[1:])]
    for v, parent, sign in zip(range(1, len(labels)), parents[1:], signs[1:]):
        adj[parent][v] = sign
    quiver = LabeledQuiver(n_labels=matrix.n, framed=framed, labels=labels, frozen=frozen,
                           depths=depths, adj=adj, interior_radius=counts[2])
    quiver._parents = parents
    return quiver


def build_piece(matrix: ExchangeMatrix, i: int, framed: bool = True) -> LabeledQuiver:
    """Single-neighborhood piece: one center labeled i plus its satellites.

    For each label j the piece has |b_ji| satellites; the arrow runs from
    satellite to center when b_ji < 0 and from center to satellite when
    b_ji > 0, so that folding at the center recovers column i.  The framed
    variant adds the center's frozen copy.  The matrix must be acyclic and
    sign-skew-symmetric, as for build_truncation.
    """
    admissible_source_numbering(matrix)
    _check_index(i, matrix.n, "piece center")
    return _grow(matrix, framed, _count_rings(matrix, i, 1, framed))


def build_truncation(matrix: ExchangeMatrix, m: int, framed: bool = True) -> LabeledQuiver:
    """Truncation of the unfolding quiver with interior budget m.

    Construction starts at label 1 and glues ring by ring out to depth
    d* + m - 1, interior radius d* + m - 2, where d* is the depth at which
    the deepest label first appears; every label then has an interior
    representative as long as the budget permits (folding needs m >= 2 on
    a fresh truncation, and each orbit-mutation costs 2).  If a gluing round adds nothing the
    quiver is the whole finite unfolding and the interior never shrinks.
    Every call builds a new quiver, which the caller owns.  The matrix must
    be acyclic and sign-skew-symmetric; admissible_source_numbering refuses
    any other, with its messages.  The arguments are checked and the
    vertices counted once (_truncation_counts, through _count_rings, the
    counting that `quivermut unfold` reports from), and _grow builds from
    those counts.
    """
    return _grow(matrix, framed, _truncation_counts(matrix, m, framed))


def _truncation_counts(matrix: ExchangeMatrix, m: int, framed: bool) -> _RingCounts:
    """Check build_truncation's arguments, in its order, and count its rings."""
    _require_positive(m, "truncation budget m")
    admissible_source_numbering(matrix)
    depths = {0: 0}  # label - 1: its least depth, from label 1 over the nonzero pattern
    for parent, child in _pattern_walk(matrix.entries, 0):
        depths[child] = depths[parent] + 1
    missing = [str(i + 1) for i in range(matrix.n) if i not in depths]
    if missing:
        raise ValueError(
            "nonzero pattern is disconnected: labels {"
            + ",".join(missing)
            + "} are unreachable from label 1"
        )
    return _count_rings(matrix, 1, max(1, max(depths.values()) + m - 1), framed)


# The framed truncations that verify_unfolding_commutation replays, by
# (matrix, m); read there and never handed out.
_truncations: dict[tuple[ExchangeMatrix, int], LabeledQuiver] = {}
_truncations_lock = Lock()


# ------------------------------------------------------------------ mutation


def _mutate_vertex(adj: Adjacency, frozen: tuple[bool, ...], t: int) -> None:
    """Mutate at t in place: net arrows between t's neighbors updated, t's reversed.

    For an in-neighbor u (adj[t][u] = -a < 0) and an out-neighbor w
    (adj[t][w] = b > 0), the paths u -> t -> w add a*b to adj[u][w] and
    its mirror, and both are deleted when the sum is 0, which is 2-cycle
    removal; a path between two frozen vertices adds nothing.  Then t's
    entries and their mirrors change sign.  Only the dicts of t and of its
    neighbors are written.

    t's arrows are split into in- and out-lists by one explicit loop, not
    a list comprehension: before CPython 3.12 (PEP 709) a comprehension
    builds a function object and a frame on every call, which cost 12-15%
    of this rule's time over the calls of a `replay` benchmark pass
    (CPython 3.11.7; on 3.12.1 and 3.13.0, which inline comprehensions,
    the difference was within run-to-run noise).
    """
    adj_t = adj[t]
    ins: list[tuple[int, int]] = []
    outs: list[tuple[int, int]] = []
    for item in adj_t.items():
        (outs if item[1] > 0 else ins).append(item)
    for u, a in ins:
        adj_u = adj[u]
        u_frozen = frozen[u]
        for w, b in outs:
            if u_frozen and frozen[w]:
                continue  # arrows between two frozen vertices are discarded
            q = adj_u.get(w, 0) - a * b
            if q:
                adj_u[w] = q
                adj[w][u] = -q
            else:
                del adj_u[w], adj[w][u]
    for u, a in adj_t.items():
        adj_t[u] = -a
        adj[u][t] = a


def _require_trusted(complete: bool, taken: int) -> None:
    """Refuse to take an incomplete quiver to `taken` orbit-mutations since
    its build when that is past _TRUSTED_STEPS."""
    if not complete and taken > _TRUSTED_STEPS:
        raise InteriorExhaustedError(
            f"interior budget exceeded: {taken} steps, but an infinite unfolding's "
            f"interior is trusted for {_TRUSTED_STEPS} steps at most"
        )


def _require_can_fold(quiver: LabeledQuiver) -> None:
    """Refuse a quiver some label of which has no interior default
    representative (LabeledQuiver.can_fold)."""
    if not quiver.can_fold:
        raise InteriorExhaustedError(
            f"interior exhausted: radius {quiver.interior_radius} has shrunk below "
            f"the deepest first-occurrence depth {quiver.core_depth}"
        )


def _require_label(quiver: LabeledQuiver, label: object) -> tuple[int, ...]:
    """The label's mutable vertices (mutable_ids); ValueError when it has none,
    as for a label that is absent, out of range or no int."""
    ids = quiver.mutable_ids(label)
    if not ids:
        raise ValueError(f"label {_show(label)} missing from quiver")
    return ids


def _orbit_step(work: LabeledQuiver, targets: Iterable[int]) -> None:
    """Take one orbit-mutation on work in place: mutate the targets in
    order, lower the radius by 2 (a complete quiver keeps None) and count
    the step.  work.adj must hold only dicts the caller may write."""
    for t in targets:
        _mutate_vertex(work.adj, work.frozen, t)
    if work.interior_radius is not None:
        work.interior_radius -= 2
    work._steps += 1


def _orbit_targets(quiver: LabeledQuiver, k: int, scan: Iterable[int]) -> tuple[int, ...]:
    """Check that label k can be orbit-mutated; return its vertices, in (depth, id) order.

    The checks, in order: k is a label, it occurs, one more step stays
    within the trusted steps (_require_trusted), every label still has an
    interior representative (_require_can_fold), and no vertex of scan
    within the interior has a label-class loop or 2-cycle
    (_gamma_witnesses).  A Γ violation reports the whole interior's
    witnesses.
    """
    _check_index(k, quiver.n_labels, "orbit label")
    targets = _require_label(quiver, k)
    _require_trusted(quiver.is_complete, quiver._steps + 1)
    _require_can_fold(quiver)
    if next(_gamma_witnesses(quiver, scan, quiver.interior_radius), None) is not None:
        report = check_gamma_conditions(quiver, interior_only=True)
        raise GammaViolationError(
            "orbit-mutation undefined: "
            f"label-class loops {list(report.loop_witnesses[:3])}, "
            f"label-class 2-cycles {list(report.two_cycle_witnesses[:3])}"
        )
    return targets


def orbit_mutate(quiver: LabeledQuiver, k: int) -> LabeledQuiver:
    """Mutate simultaneously at every mutable vertex labeled k.

    Vertices of one label are pairwise non-adjacent (no label-class loop),
    so the simultaneous update equals the composition of ordinary vertex
    mutations in any order; we apply them in (depth, id) order.  All
    same-label vertices present are mutated, boundary included: through
    the first step this keeps the whole truncation exactly equal to the
    induced subquiver of the mutated infinite quiver, and later boundary
    error stays outside the interior accounted by the radius, which drops
    by 2.  That accounting is trusted only through _TRUSTED_STEPS = 4
    orbit-mutations: after five, vertices the radius calls interior can
    have wrong arrows.  The result counts one step more than its input, so
    the fifth call of a chain on an incomplete quiver raises
    InteriorExhaustedError (_require_trusted).
    """
    targets = _orbit_targets(quiver, k, range(quiver.vertex_count))
    result = copy.copy(quiver)
    result.adj = [d.copy() for d in quiver.adj]
    _orbit_step(result, targets)
    return result


# -------------------------------------------------------------------- checks


def _gamma_witnesses(
    quiver: LabeledQuiver, scan: Iterable[int], radius: Optional[int]
) -> Iterator[tuple[int, int] | tuple[int, int, int]]:
    """Loops (x, w) and 2-cycles (u, x, w) through the vertices x of scan.

    A loop is an arrow x -> w inside one class; a 2-cycle is a path
    u -> x -> w with u != w in one class and x in another.  A class is a
    label and a kind (`_classes`), so frozen copies form their own
    classes.  Only vertices at depth <= radius count (all of them when
    radius is None).
    A first pass collects the classes of x's in- and out-neighbors; x has
    a witness, and is enumerated, exactly when its class is an out-class
    (a loop) or some class is both (a 2-cycle).  In a 2-cycle u != w
    always: u is an in-neighbor and w an out-neighbor of x, two distinct
    keys of adj[x], as the net arrows between two vertices run one way.
    """
    classes = quiver._classes
    depths = quiver.depths
    adj = quiver.adj
    limit = max(depths, default=0) if radius is None else radius
    for x in scan:
        if depths[x] > limit:
            continue
        class_x = classes[x]
        adj_x = adj[x]
        ins, outs = set(), set()
        for u, mult in adj_x.items():
            if depths[u] <= limit:
                (outs if mult > 0 else ins).add(classes[u])
        if class_x not in outs and ins.isdisjoint(outs):
            continue
        ins_by_class: dict[int, list[int]] = {}
        for u, mult in adj_x.items():
            if mult < 0 and depths[u] <= limit and classes[u] != class_x:
                ins_by_class.setdefault(classes[u], []).append(u)
        for w, mult in adj_x.items():
            if mult > 0 and depths[w] <= limit:
                if classes[w] == class_x:
                    yield x, w
                for u in ins_by_class.get(classes[w], ()):
                    yield u, x, w


def check_gamma_conditions(
    quiver: LabeledQuiver, interior_only: bool = False
) -> GammaReport:
    """Scan for arrows inside one label class and 2-paths returning to one.

    Frozen copies form their own classes (keyed by label and kind), so a
    path from a mutable vertex through another label to its own frozen
    class does not count.  With interior_only the scan is restricted to
    the trusted interior, which is the honest region after mutations.
    Loops are listed by (source, target), 2-cycles u -> x -> w by (x, u, w).
    """
    radius = quiver.interior_radius if interior_only else None
    scan = range(quiver.vertex_count)
    witnesses = list(_gamma_witnesses(quiver, scan, radius))
    loops = sorted(w for w in witnesses if len(w) == 2)
    twos = sorted((w for w in witnesses if len(w) == 3), key=lambda t: (t[1], t[0], t[2]))
    return GammaReport(
        loop_free=not loops,
        two_cycle_free=not twos,
        loop_witnesses=tuple(loops),
        two_cycle_witnesses=tuple(twos),
    )


def orbit_sources(quiver: LabeledQuiver) -> list[int]:
    """Labels all of whose interior vertices are sources.

    A source has every incident arrow outgoing; in framed quivers the
    arrow into the frozen copy is outgoing and never blocks, while an
    arrow coming back from a frozen vertex does.
    """
    _require_can_fold(quiver)
    result = []
    for label in range(1, quiver.n_labels + 1):
        ids = quiver._interior_ids(label)
        if ids and all(mult > 0 for v in ids for mult in quiver.adj[v].values()):
            result.append(label)
    return result


# ------------------------------------------------------------------- folding


_SHALLOWEST = object()  # _representative's default; folding rejects an explicit None


def _representative(quiver: LabeledQuiver, label: int, rep: object = _SHALLOWEST) -> int:
    """Check that rep is an interior mutable vertex of label, with
    well-formed arrows; return it.

    The default is the label's first mutable vertex in (depth, id)
    order: the shallowest, the smallest id among ties.  A fold reads only
    its representatives' arrows, so only theirs are checked here, not every
    vertex's when the quiver is made: each key of adj[rep] must be a vertex
    id, of type int, whose own dict mirrors the entry, which a loop at rep
    never does.
    """
    if rep is _SHALLOWEST:
        rep = quiver.mutable_ids(label)[0]
    elif not _is_int(rep) or not 0 <= rep < quiver.vertex_count or quiver.frozen[rep]:
        raise ValueError(f"representative {_show(rep)} is not a mutable vertex")
    elif quiver.labels[rep] != label:
        raise ValueError(
            f"representative {rep} has label {quiver.labels[rep]}, expected {label}"
        )
    if not quiver.is_interior(rep):
        raise InteriorExhaustedError(
            f"representative {rep} for label {label} is not interior "
            f"(depth {quiver.depths[rep]} > radius {quiver.interior_radius})"
        )
    adj = quiver.adj
    n = len(adj)
    for u, mult in adj[rep].items():
        if type(u) is not int or not 0 <= u < n or adj[u].get(rep) != -mult:
            raise ValueError(f"representative {rep} has a malformed arrow to {_show(u)}")
    return rep


def _resolve_representatives(
    quiver: LabeledQuiver, representatives: Optional[Mapping[int, int]]
) -> dict[int, int]:
    for key in representatives or ():
        if not _is_int(key) or not 1 <= key <= quiver.n_labels:
            raise ValueError(
                f"representative key {_show(key)} is not a label in 1..{quiver.n_labels}"
            )
    chosen: dict[int, int] = {}
    for label in range(1, quiver.n_labels + 1):
        _require_label(quiver, label)
        if representatives is None:
            chosen[label] = _representative(quiver, label)
        elif label in representatives:
            chosen[label] = _representative(quiver, label, representatives[label])
        else:
            raise ValueError(f"no representative supplied for label {label}")
    return chosen


def _column_sums(quiver: LabeledQuiver, rep: int) -> list[int]:
    """Orbit sums at one representative: its column of the folded [B; C].

    Each neighbor adds to the entry of its class (`_classes`).
    """
    classes = quiver._classes
    column = [0] * (2 * quiver.n_labels)
    for u, mult in quiver.adj[rep].items():
        # adj[rep][u] is the (u, rep) entry
        column[classes[u]] += mult
    return column


def _fold_rows(quiver: LabeledQuiver, reps: Iterable[int]) -> IntMatrix:
    """The 2n folded rows of [B; C]; column j is summed at the j-th rep."""
    return tuple(zip(*(_column_sums(quiver, rep) for rep in reps)))


def folding(
    quiver: LabeledQuiver, representatives: Optional[Mapping[int, int]] = None
) -> FramedSeed | ExchangeMatrix:
    """Fold the quiver back onto a matrix (framed: a seed) by orbit sums.

    Entry (i, j) of the folded matrix sums the adjacency entries from the
    representative of label j to every vertex of label i; only the
    representative's neighbors contribute, so each representative must be
    interior.  Defaults pick the minimal-depth vertex per label.
    """
    reps = _resolve_representatives(quiver, representatives)
    rows = _fold_rows(quiver, reps.values())
    principal = ExchangeMatrix(rows[:quiver.n_labels])
    if quiver.framed:
        return FramedSeed(principal, rows[quiver.n_labels:])
    return principal


def folding_column(
    quiver: LabeledQuiver, label: int, representative: Optional[int] = None
) -> tuple[tuple[int, ...], Optional[tuple[int, ...]]]:
    """One folded column (principal part, frozen part) at a chosen representative."""
    _require_label(quiver, label)
    rep = _representative(
        quiver, label, _SHALLOWEST if representative is None else representative
    )
    column = _column_sums(quiver, rep)
    n = quiver.n_labels
    return tuple(column[:n]), tuple(column[n:]) if quiver.framed else None


def _fold_cone(quiver: LabeledQuiver, k: int, reps: Iterable[int]) -> list[int]:
    """The mutable label-k vertices that are a representative or adjacent to
    one, closed under adjacency among them, in (depth, id) order; _replay
    says why mutating them gives the fold of the whole step at k.
    """
    depths = quiver.depths
    classes = quiver._classes
    adj = quiver.adj
    cone: set[int] = set()
    stack = [v for rep in reps for v in (rep, *adj[rep])]
    while stack:
        v = stack.pop()
        if classes[v] == k - 1 and v not in cone:
            cone.add(v)
            stack += adj[v]
    return sorted(cone, key=lambda v: (depths[v], v))


def _ball_schedule(
    quiver: LabeledQuiver, steps: int, reps: Collection[int]
) -> Optional[list[tuple[int, int]]]:
    """(a_s, b_s) for each of steps 1..steps-1: step s + 1 mutates the label-k
    vertices at depth <= a_s and those within tree distance b_s of a
    representative.  None, for every label-k vertex, when there is no such
    step, on a quiver _grow did not build, on a complete one, for more
    steps than _SPANS has spans, and when the balls would reach past the
    interior or more than one ring past a band.
    verify_unfolding_commutation derives it."""
    radius = quiver.interior_radius
    if not 1 < steps <= len(_SPANS) or radius is None or quiver._parents is None:
        return None
    reach = max(map(quiver.depths.__getitem__, reps))
    # Need_{L-1}: the band r_{L-1} and the ball of radius δ_{L-1} around the
    # representatives, which are Need_L
    band, ball = radius - 2 * (steps - 1), _SPANS[steps - 1]
    schedule = []
    for s in range(steps - 2, -1, -1):
        band = max(band + _SPANS[s], radius - 2 * s) if s else band + _SPANS[s]
        ball += _SPANS[s]
        if reach + ball > band + 1:
            return None
        schedule.append((band, ball))
    if band > radius or reach + ball > radius:
        return None
    schedule.reverse()
    return schedule


def _ball_cuts(
    quiver: LabeledQuiver, schedule: Iterable[tuple[int, int]], reps: Iterable[int]
) -> list[tuple[int, list[tuple[int, int]]]]:
    """For each (band, ball) of a schedule of _ball_schedule, band and the id
    ranges, disjoint and in order, whose mutable vertices are exactly those
    deeper than band within tree distance ball of a representative.

    The schedule keeps every representative's depth e within
    e + ball <= band + 1.  A vertex within distance ball of a
    representative lies at most ball deeper, so the vertices sought lie at
    depth band + 1, and only below representatives at depth
    band + 1 - ball, each of which they descend from: a path that climbed
    from the representative first would end shallower.  They are its
    descendants `ball` arrows below it.  The quiver is one _grow built, so
    `_parents` is its gluing tree.  _glue expands vertices in id order, so
    the parents are nondecreasing, and the children of an id range
    [lo, hi) are the ids from the first whose parent is lo to the first
    whose parent is hi: two bisections, past hi, as children come after
    their ring.  By induction a vertex's descendants g arrows below it are
    one range: its mutable descendants at its depth + g, and the frozen
    copies of those at its depth + g - 1, which have no children.
    Representatives at one depth have disjoint descendants, so the ranges
    are disjoint.  Each representative's ranges are bisected once a call,
    for all steps.
    """
    parents = quiver._parents
    depths = quiver.depths
    below: dict[int, list[tuple[int, int]]] = {}
    cuts = []
    for band, ball in schedule:
        ranges = []
        for rep in reps:
            if depths[rep] + ball > band:
                generations = below.get(rep)
                if generations is None:
                    generations = below[rep] = [(rep, rep + 1)]
                lo, hi = generations[-1]
                for _ in range(len(generations), ball + 1):
                    lo, hi = bisect_left(parents, lo, hi), bisect_left(parents, hi, hi)
                    generations.append((lo, hi))
                ranges.append(generations[ball])
        ranges.sort()
        cuts.append((band, ranges))
    return cuts


def _replay(
    quiver: LabeledQuiver, directions: Sequence[int], reps: Collection[int]
) -> Iterator[tuple[int, LabeledQuiver]]:
    """Orbit-mutate a working copy of a fresh truncation, step by step.

    Yields (step, work) before the first step and after each one.  `work`
    is one private LabeledQuiver, made here with the vertices of `quiver`;
    each step updates its `adj`, `interior_radius` and step count in place
    (_orbit_step), as orbit_mutate's step does to its copy.
    Checks and errors are those of orbit_mutate (_orbit_targets), made on
    the state about to be mutated.  `work` shares inner dicts with `quiver`
    until it owns them, so it must never leave _verify_replay: a caller
    that wrote to it would write to the truncation it was given, which
    may be the cached one.

    Targets.  The final step at label k mutates its fold cone
    (_fold_cone): out of every label-k vertex, those that are one of the
    fold representatives `reps` or adjacent to one, closed under adjacency
    among them.  After that step the representatives' arrows, and so the
    fold, which sums nothing else, are those of the step orbit_mutate
    takes, which mutates every label-k vertex.  An earlier step s + 1
    mutates the label-k vertices at depth <= a_s, a prefix of the label's
    (depth, id) order cut by one bisection, and those within distance b_s
    of a representative in the gluing tree, read off the id ranges of
    _ball_cuts by two bisections each.  _ball_schedule gives (a_s, b_s);
    verify_unfolding_commutation derives them backward from what later Γ
    scans and folds read, through the spans _SPANS, and shows that these
    vertices hold every one the step must mutate.  The ranges are found
    once a call, for all steps.  On a grown quiver the
    label's ids are in depth order already, so the prefix and the ranges
    join in (depth, id) order.  Without a schedule, as on a quiver _grow
    did not build, every step but the last mutates every label-k vertex.

    Why the cone is exact.  A vertex mutation at t writes only arrows
    between vertices of t's closed neighborhood, and reads only the
    arrows at t and the arrows it writes.  So two targets that are never
    adjacent commute.  A new arrow between two targets can only come from
    a third target adjacent to both, so the components of the graph on
    the whole step's targets, every label-k vertex, with an edge where
    two targets are adjacent, never merge during the step.  Likewise a
    target joins a representative's closed neighborhood only through a
    target adjacent to both.  A component with no member in a
    representative's closed neighborhood therefore never gains one and
    never writes an arrow at a representative.  Its mutations can be
    moved after the cone's, and then change nothing the fold reads.  The
    cone is mutated in (depth, id) order, as orbit_mutate's step is.

    Ownership.  The outer list is copied here, and each vertex has one
    inner dict.  Before a step's first mutation, let A be its targets
    together with their current neighbors; each vertex of A whose inner
    dict is still the truncation's own (`is quiver.adj[v]`) gets a copy,
    so each dict is copied at most once.  Every arrow the step changes
    has both endpoints in A, so `quiver` is never written.  By induction
    over the targets in order: mutation at t writes only the dicts of t
    and of its neighbors at that moment, and each such neighbor either
    was one before the step, so lies in A, or was joined to t by an
    arrow that an earlier target changed, whose endpoints lie in A.
    This holds even when two targets are adjacent, as same-label
    vertices at depth r + 1, outside the interior the Γ check covers, can
    be.  Conversely every vertex of A is written by the step, either at a
    target that still has it as a neighbor or at the earlier target that
    took that arrow away; so A is exactly the set of vertices whose arrows
    the step touched, and it is the next Γ scan set.

    The Γ check before a step scans only the vertices whose arrows the
    previous step changed: any other loop or 2-cycle already existed,
    inside the larger interior that the previous check covered.  Before
    step 1 nothing is scanned, because a fresh truncation has neither.
    It is a tree, plus one frozen copy hanging off each expanded vertex.
    No arrow joins two vertices of one label, since a piece has no
    satellite of its center's label (the diagonal is zero), and a frozen
    copy is in a class of its own.  At each vertex all mutable neighbors
    of one label point the same way: the piece orients them by the sign
    of one entry, and the arrow to the parent, glued to the piece's arrow
    of the parent's label, has that orientation by sign-skew-symmetry.
    The frozen copy is the only frozen neighbor of its vertex and has no
    other neighbor.  So no path u -> x -> w has u and w in one class.
    """
    work = copy.copy(quiver)
    adj = work.adj = quiver.adj.copy()
    last = len(directions)
    schedule = _ball_schedule(quiver, last, reps)
    cuts = None if schedule is None else _ball_cuts(quiver, schedule, reps)
    scan: Iterable[int] = ()
    yield 0, work
    for step, k in enumerate(directions, start=1):
        targets = _orbit_targets(work, k, scan)
        if step == last:
            targets = _fold_cone(work, k, reps)
        elif cuts is not None:
            band, ranges = cuts[step - 1]
            cut = targets[:bisect_right(targets, band, key=work.depths.__getitem__)]
            for lo, hi in ranges:
                lo = bisect_left(targets, lo)
                cut += targets[lo:bisect_left(targets, hi, lo)]
            targets = cut
        around = set(targets).union(*map(adj.__getitem__, targets))
        for v in around:
            if adj[v] is quiver.adj[v]:
                adj[v] = adj[v].copy()
        _orbit_step(work, targets)
        scan = around
        yield step, work


def verify_unfolding_commutation(
    matrix: ExchangeMatrix, directions: Sequence[int], m: int
) -> CommutationReport:
    """Check that orbit-mutating the truncation tracks the framed seed.

    Replays the directions as orbit-mutations on the framed truncation and
    as ordinary mutations of the rows of the extended matrix [B; I]; after
    every prefix the 2n folded rows must equal those rows exactly.
    On an infinite unfolding, L = len(directions) orbit-mutations need
    interior budget m >= 2L + 2, and at most _TRUSTED_STEPS = 4 are
    taken: a longer sequence raises InteriorExhaustedError at any m.  The
    whole (finite) unfolding loses no interior and takes any length at any
    m.  _require_budget argues the budget.

    Within the budget, reports and errors are those of chaining
    orbit_mutate and folding, but the replay (_replay) does far less work.
    It writes to one working quiver instead of copying the truncation per
    step.  The final step mutates only its fold cone, the label-k vertices
    that can reach a representative's arrows; each earlier step, only the
    label-k vertices in a depth band around the root and in a ball around
    the representatives, by distance in the gluing tree (the ball schedule
    below).  The Γ check scans only the vertices the previous step
    touched.  _replay argues the cone and the scan.  Representatives are
    chosen once, since mutation moves no label or depth, and folding sums
    only their neighborhoods.

    The truncation.  Repeated calls on one (matrix, m) replay one framed
    build, kept in _truncations and only read.  m is checked here, before
    the lookup, because a hit skips build_truncation's checks.  A hit
    changes nothing.  The budget is checked before any step: on a hit
    against the cached build, on a miss against the counts, before
    anything is built (_replay_truncation), so a refused call builds and
    caches nothing.  A miss builds, and empties the cache first when its
    build would take it past 64 builds or past _MAX_VERTICES vertices;
    _count_rings refuses any build above _MAX_VERTICES, so every build
    fits alone, and the cache never holds more than one build at the cap
    could take (≈0.68 GB), where 64 builds alone could take 64 times that.

    The ball schedule.  Take two replays that apply the same vertex
    mutations in the same order, except that one skips some.  Mutating at
    t changes only arrows inside t's closed neighborhood, and changes them
    alike in both replays when t's arrows agree.  So the replays come to
    disagree at a vertex only next to a skipped vertex, or next to a
    vertex mutated while they already disagree at it.  Distances are
    those of the gluing tree (_glue's parents; the truncation's tree is
    the ball of the unfolding's around the root), N_b(X) is the set of
    vertices within distance b of X, and the span of an arrow is the
    distance between its ends.  Let D_s be the vertices at which the
    replay may disagree with the infinite unfolding after s steps, S_s the
    label-k targets that step s skips, and δ_s a bound on the span of an
    arrow of either after s steps.  Then D_{s+1} lies in
    N_{δ_s}(D_s ∪ S_{s+1}), and D_0 is the vertices deeper than r_0, as the
    truncation lacks the neighbors of its outer ring.  Work backward from
    what later checks read.  Every prefix is folded at the representatives,
    and the Γ scan before step s + 1 reads arrows down to depth
    r_s = r_0 - 2s, so after s steps D_s must miss Need_s, where Need_L is
    the representatives and, for s < L,
    Need_s = N_{δ_s}(Need_{s+1}) ∪ {depth <= r_s if s >= 1} ∪ reps.  Step
    s + 1 mutates every label-k vertex of Need_s; so when D_s misses
    Need_s, which holds N_{δ_s}(Need_{s+1}), D_{s+1} misses Need_{s+1}.
    Need_s grows as s falls, so by induction all of it holds when
    Need_0 ⊆ {depth <= r_0}: D_0 then misses it, and every vertex a step
    must mutate is in the truncation.  The final step takes its cone,
    which has the fold of the whole step.

    In a tree N_b(N_c(X)) = N_{b+c}(X), and N_b of the vertices at depth
    <= a lies at depth <= a + b, so Need_s lies in
    {depth <= a_s} ∪ N_{b_s}(reps), where a_s = max(a_{s+1} + δ_s, r_s if
    s >= 1) and b_s = b_{s+1} + δ_s, from no band and b_L = 0
    (_ball_schedule); mutating the label-k vertices of that larger set is
    as exact.  With representatives down to depth d the test reads
    a_0 <= r_0 and d + b_0 <= r_0.  Through three steps it also gives
    d + b_s <= a_s + 1 at every step, so each ball passes its band by one
    ring at most, which _ball_cuts reads off the tree by bisection.  When
    the test fails, on a complete quiver, on one _grow did not build, and
    for more steps than _SPANS has spans, each step but the last mutates
    every label-k vertex.

    The spans (_SPANS) are δ_0 = 1: a fresh truncation's arrows are the
    edges of its tree.  δ_1 = 2: same-label vertices of the tree are never
    adjacent, so each step-1 target is mutated with its tree neighbors,
    and each arrow it adds joins two of them.  δ_2 = 3.  The general bound
    2δ_1 = 4 (a new arrow joins two neighbors of one target) leaves no
    schedule for three steps at m = 8, so this one uses the orientations
    of the tree.  Let step 1 be at label k.  It never joins two vertices
    of one label: two same-label neighbors of a target s point the same
    way at s (the Γ argument in _replay's docstring), while a mutation at
    s joins an in-neighbor to an out-neighbor.  So the step-2 targets,
    like the step-1 ones, are pairwise non-adjacent, and each is mutated
    with its arrows after step 1.  A step-2 target t labeled k is adjacent
    to no step-1 target, so it has its tree arrows alone, reversed if
    step 1 mutated it, and its mutation adds spans of at most 2.  For t of
    another label, each arrow that step 1 creates at t comes from a
    label-k neighbor s of t: it points out of t when t -> s, into t when
    s -> t.  All of t's label-k neighbors point the same way, so all these
    arrows do; each spans at most 2 (δ_1), and every other arrow at t at
    most 1.  Mutating t joins an in-neighbor to an out-neighbor, at most
    one of which lies across a span-2 arrow, so by the triangle inequality
    through t the new arrow spans at most 2 + 1 = 3.  The argument holds
    for the replay and the infinite unfolding alike: a skipped target
    (the ball cut) or a missing outer neighbor only takes arrows away.
    Two steps of the orbit_mutate chain over the test corpus reach a span
    of 3, in tree distance and in depth (TestTrustedBallReplay), so the
    bound is tight.  No δ_3 is known, and the old radius + 1 cut through
    four steps diverged at step 4 (corpus matrix 3 / 0 -1 0 / 2 0 -3 /
    0 1 0 along 2,3,1,2 at m = 10).  At m = 2L + 2 the band skips the two
    outer rings at step 1 of two steps, where the ball stays inside it,
    and the outer one at step 1 of three, where the ball adds the ring
    below the deepest representatives; a ball one less in radius at step
    2 of three diverges (the example along 3,4,2 at m = 8).
    """
    directions = tuple(directions)
    _require_positive(m, "truncation budget m")
    key = (matrix, m)
    quiver = _truncations.get(key)
    if quiver is None:
        quiver = _replay_truncation(matrix, m, len(directions))
        with _truncations_lock:
            kept = sum(cached.vertex_count for cached in _truncations.values())
            if len(_truncations) >= 64 or kept + quiver.vertex_count > _MAX_VERTICES:
                _truncations.clear()
            _truncations[key] = quiver
    else:
        _require_budget(None if quiver.is_complete else m, len(directions))
    return _verify_replay(quiver, matrix, directions)


def _require_budget(m: Optional[int], steps: int) -> None:
    """Refuse a replay of `steps` orbit-mutations on a fresh framed
    truncation built with budget m, None when the truncation is the whole
    (finite) unfolding; every replay is checked here, once, before any
    step, and a new truncation before it is built (_replay_truncation).

    First the step count must stay within _TRUSTED_STEPS
    (_require_trusted), so longer sequences are refused whatever m is.
    Then the budget: d* = core_depth is the depth of the deepest default
    representative, as each label's shallowest vertex lies at its label's
    first-occurrence depth.  Each step costs 2, so the last fold's
    representatives stay interior exactly when r_0 - 2L >= d*, and then
    the interior gate of _orbit_targets never trips before it.  An
    incomplete fresh truncation has radius r_0 = d* + m - 2
    (build_truncation), so the rule reads m >= 2L + 2.
    """
    _require_trusted(m is None, steps)
    if m is not None and m < 2 * steps + 2:
        raise InteriorExhaustedError(
            f"interior budget violated: m={m} but {steps} steps need m >= {2 * steps + 2}"
        )


def _replay_truncation(matrix: ExchangeMatrix, m: int, steps: int) -> LabeledQuiver:
    """build_truncation(matrix, m, framed=True) for a replay of `steps`
    steps, refused before anything is built when the budget does not
    allow them (_require_budget).  The budget reads the counts
    (_truncation_counts), whose radius is None exactly when the unfolding
    is complete; their errors, then the budget's, come in build_truncation's
    order.  build_truncation counts again and stays the one call that
    builds a truncation; the count is small next to the build (about 33 µs
    against 50 ms for the running example at m = 8, CPython 3.11.7).
    """
    _require_budget(None if _truncation_counts(matrix, m, True)[2] is None else m, steps)
    return build_truncation(matrix, m, framed=True)


def _verify_replay(
    quiver: LabeledQuiver, matrix: ExchangeMatrix, directions: tuple[int, ...]
) -> CommutationReport:
    """verify_unfolding_commutation on `quiver`, a fresh framed truncation
    of `matrix` (build_truncation), which is only read, and whose budget
    for the directions the caller has checked (_require_budget).  The
    command line passes its own build (_replay_truncation), so the quiver
    lives only as long as the request.
    """
    n = matrix.n
    state = list(_flat(matrix.entries + identity_rows(n)))
    reps = _resolve_representatives(quiver, None).values()
    for step, work in _replay(quiver, directions, reps):
        if step:
            # _replay has checked the label with _orbit_targets
            _mutate_flat(state, n, directions[step - 1] - 1)
        # column j of the fold, summed at label j + 1's representative, is
        # column j of the flat [B; C] state
        for j, rep in enumerate(reps):
            if _column_sums(work, rep) != state[j::n]:
                return CommutationReport(ok=False, first_divergence=step)
    return CommutationReport(ok=True, first_divergence=None)


# ----------------------------------------------------------------------- DOT


def to_dot(quiver: LabeledQuiver) -> str:
    """Deterministic DOT export: mutable ellipses, frozen boxes, labeled multi-arrows.

    Any quiver, mutated ones included; `quivermut unfold --dot` writes the
    same text, as UTF-8 bytes, for a fresh truncation from the walk that
    builds it (_glue, _tree_dot), without building it.  An arrow to a
    vertex that does not exist (a key of an `adj` dict outside 0..V-1)
    raises IndexError naming it.
    """
    arrows = quiver.arrows()
    n = quiver.vertex_count
    # a source is a position in adj; a target is any key of its dict
    for _u, v, _mult in arrows:
        if not 0 <= v < n:
            quiver._vertex(v)
    return _dot_text(quiver.labels, quiver.frozen, arrows).decode("utf-8")


def _dot_text(labels: Sequence[int], frozen: Sequence[bool],
              arrows: Iterable[tuple[int, int, int]]) -> bytes:
    """The DOT layout, once, as UTF-8 bytes: a line per vertex in id order,
    then a line per arrow (source, target, multiplicity) in the order
    given, the multiplicity as a label when above 1.

    Each vertex's name v{id} is formatted once and reused in its line and
    in every arrow line.  The text is ASCII but for the prime (U+2032) of
    a frozen label, and one such character would make the whole joined
    string two bytes a character; so each frozen line carries the ASCII
    placeholder NUL instead, and one bytes.replace splices in the prime's
    UTF-8 bytes after encoding.  No other line holds a NUL: the rest of
    the text is fixed ASCII and decimal integers.
    """
    names = [f"v{v}" for v in range(len(labels))]
    lines = ["digraph unfolding {"]
    for name, label, is_frozen in zip(names, labels, frozen):
        if is_frozen:
            lines.append(f'  {name} [shape=box, label="{label}\0"];')
        else:
            lines.append(f'  {name} [shape=ellipse, label="{name} ({label})"];')
    for u, v, mult in arrows:
        attr = f" [label={mult}]" if mult > 1 else ""
        lines.append(f"  {names[u]} -> {names[v]}{attr};")
    lines.append("}\n")
    return "\n".join(lines).encode("utf-8").replace(b"\0", "′".encode("utf-8"))


def _tree_dot(matrix: ExchangeMatrix, framed: bool, counts: _RingCounts) -> bytes:
    """to_dot(_grow(matrix, framed, counts)) as UTF-8 bytes, without
    building the quiver or sorting its arrows.

    A fresh truncation's arrows are exactly its gluing arrows (_glue), each
    of multiplicity 1: v -> parents[v] when signs[v] < 0, parents[v] -> v
    when signs[v] > 0.  _glue expands vertices in id order and appends
    each one's children as it goes, so parents is nondecreasing and the
    children of each vertex are one run of consecutive ids, all above it,
    while its parent is below it.  The arrows sorted by (source, target)
    are therefore, for u = 0, 1, ...: first u -> parents[u] when
    signs[u] < 0, then u -> c for each child c in u's run with
    signs[c] > 0.  One merge pass emits them: it walks the children c in
    id order, whose sources parents[c] never decrease, and before each
    one's arrow emits u -> parents[u] for every u <= parents[c] not yet
    emitted.
    """
    labels, frozen, _depths, parents, signs = _glue(matrix, framed, counts)
    end = len(labels)
    # the vertices glued in by an arrow to their parent, in id order, then a sentinel
    ups = iter([u for u, sign in enumerate(signs) if sign < 0] + [end])
    up = next(ups)
    arrows = []
    for c, parent, sign in zip(range(end), parents, signs):
        while up <= parent:
            arrows.append((up, parents[up], 1))
            up = next(ups)
        if sign > 0:
            arrows.append((parent, c, 1))
    while up < end:
        arrows.append((up, parents[up], 1))
        up = next(ups)
    return _dot_text(labels, frozen, arrows)
