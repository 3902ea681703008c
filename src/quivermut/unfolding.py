"""Finite truncations of locally finite unfolding quivers.

An acyclic sign-skew-symmetric matrix is covered by a labeled, locally
finite quiver built by gluing one-vertex neighborhood pieces; summing
adjacency entries over a label class (with a fixed column representative)
folds the quiver back onto the matrix: one column of the extended matrix
[B; C] per representative, the frozen copies giving C.  Truly infinite
quivers are represented by finite truncations carrying an interior
radius: the depth up to which every vertex's arrows are certified to be
the infinite quiver's.  Each vertex's class, its label and kind, is
indexed once per quiver (`LabeledQuiver._classes`).  A fresh truncation
is fixed by its counts per ring (_count_rings), and one walk over them
(_glue) numbers its vertices and the arrow that glues each one in.
Building (_grow), the replay (_Walk) and `quivermut unfold --dot`
(_tree_dot) all read that walk; the walk gives each vertex's children
consecutive ids, so _tree_dot reads the arrows in sorted order off it
with no sort, and the replay builds a vertex's arrows from it only when
it first reads them.
`unfold` reports from the counts alone (_summary) and builds no quiver.
One formatter (_dot_text) lays out every DOT text, as UTF-8 bytes.

The clean set.  One rule certifies orbit-mutation (mutation at every
vertex of one label k), for `orbit_mutate` and for the replay of
`verify_unfolding_commutation` alike (_orbit_step).  A vertex is clean
when its arrows are certified, dirty otherwise.  On a fresh truncation
any set of vertices down to the interior radius may start clean.  A step
at label k mutates every clean label-k vertex, mutates or skips each
dirty one, and then every dirty label-k vertex makes itself and its
current neighbours dirty.  Why it is sound: call a vertex right when its
arrows, neighbours included, are those of the infinite unfolding after
the same steps; clean vertices stay right.  Then a wrong arrow has two
dirty ends, and a vertex lacking an unfolding neighbour is dirty.
Same-label vertices of the unfolding are pairwise non-adjacent (the Γ
check), so its step mutates every label-k vertex in any order: the clean
ones first, as here.  Mutation at t changes only arrows at t and between
two of t's neighbours u and w, the new u–w being the old one plus a term
read off t–u and t–w.  At a clean t those are right, and the old u–w is
right when u or w is right, so every right vertex stays right.  A clean
label-k vertex has no label-k neighbour, so the rest of the step, in the
truncation and in the unfolding, changes arrows only at the other
label-k vertices and their neighbours: current ones in the truncation,
which include every right unfolding neighbour, and in the unfolding also
the neighbours of label-k vertices the truncation lacks, which are dirty
already.  Those turn dirty, so every clean vertex is right after the
step.  The rule reads no depth and no step count, so it needs no budget:
a fold is certified while its representatives are clean.  The clean set
at every step can only grow when the start grows: a vertex clean in two
runs is right in both, so it has the same neighbours in both, and the
larger run's dirty label-k vertices are among the smaller run's.

Transitivity.  Each label-i vertex of the unfolding has exactly |b_ji|
neighbours of label j, all oriented by the sign of b_ji, and one frozen
copy (_glue).  A tree fixed by such local counts has label-preserving
automorphisms carrying any label-i vertex to any other (extend a
bijection of neighbours ring by ring), and they carry frozen copies
along with their vertices.  Orbit-mutation commutes with every such
automorphism, so after any sequence two vertices of one class have
arrows that are images of each other: a fold gives one column per
label at every right vertex, and a Γ witness at one vertex of a class
means one at every vertex of it.  A witness u -> f -> w centred at a
frozen f has u and w mutable, as no arrow joins two frozen vertices; an
automorphism carrying u to w carries f to a frozen f' with w -> f', and
f' != f as f -> w, so f -> w -> f' is a witness centred at w.  So a
violation of the unfolding shows at every right vertex of some label,
and while every representative is clean, scanning the representatives
decides Γ: that is the replay's scan before each step.  On any quiver
there is one Γ rule: a witness counts when each of its arrows has a
trusted end (_trusted), so a loop counts when either end is trusted and
a 2-cycle when its centre is or both its ends are, and
`check_gamma_conditions` reports what `orbit_mutate` refuses.

The replay.  `verify_unfolding_commutation` replays (_replay) from a
first clean set, the vertices within distance L + 1 of the
representatives in the gluing tree, L the number of steps, on private
copies of the arrows of that set and its neighbours.  Only the clean
label-k vertices are mutated, so every arrow a step writes is in those
copies, and a write past them raises KeyError: the truncation, which may
be cached, is only read.  When a representative turns dirty it replays
once more from the whole interior, whose verdict is final; by the growth
above it is the verdict of that run alone, and the first ball only saves
work.  The truncation it reads is the gluing walk (_Walk), whose arrow
dicts are built on first read: those of the first ball and its
neighbours, or every one for the whole interior.  What a start needs
before the first step, its clean set, its kept dicts and their mutable
vertices by label, depends only on the walk and the ball's radius, so
the walk keeps it as a template (_template), built once and then only
read; the whole interior is the ball at the radius where it stops
growing.  A call on a walk that has served its length before copies the
kept dicts, steps, scans and folds, and searches no ball.

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

# The most vertices one truncation or piece may have, checked before it is
# built (_count_rings).  A built truncation takes ≈333 bytes a vertex, so
# about 0.67 GB at the cap.  The replay's walk (_Walk) takes ≈92 bytes a
# vertex before any arrow dict is read, and ≈350, a build's and its gluing
# tree's, once every one is, so about 0.70 GB at the cap (tracemalloc on
# the framed running example at m = 8 and 10, CPython 3.11.7).  Its replay
# templates (_template) keep at most five times its vertices in all, at
# ≈70 bytes a kept vertex (the example at m = 8: 117 kB for the first ball
# of (1, 2, 3), 4.0 MB for the whole interior after (3, 4, 2)), so a walk
# with every dict and template built takes at most ≈700 bytes a vertex,
# about 1.4 GB at the cap.  The running example at m = 10 has 554,348
# vertices framed and 417,961 unframed, the largest truncation the tests
# build.
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
    one, which is also its row in the folded [B; C].  The Γ scan, the fold
    and the label index read it.
    `orbit_mutate` leaves its input as it is and returns a copy
    (`copy.copy`) with its own `adj`, sharing the vertex arrays and the
    derived fields.

    `interior_radius` is the depth up to which every vertex is clean, so
    its arrows are trusted (the module docstring); None means the quiver
    is the whole (finite) unfolding, whose every vertex stays clean.
    `_dirty` is the dirty set of the clean-set rule as orbit_mutate left
    it, shared by copies; None on a quiver made otherwise, whose dirty set
    is every vertex deeper than the radius.  Equality ignores the derived
    `core_depth`, class index and label index and the dirty set; a
    mutable quiver has no hash.
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
    _dirty: Optional[frozenset[int]] = field(default=None, init=False, compare=False)

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
        list, vertex arrays, derived fields and dirty set.
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
        twin._dirty = self._dirty
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

# What a replay reads of its walk before its first step (_keep), only read
# once made: the clean start; the kept set, the start and its neighbours,
# each with the walk's arrow dict; keep's mutable vertices by label, in id
# order.
_Template = tuple[frozenset[int], dict[int, dict[int, int]], dict[int, tuple[int, ...]]]


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
    label in label order.  A fresh truncation is a tree (_glue glues each
    vertex but the root by one arrow), so it has one arrow fewer than
    vertices.
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


class _Walk:
    """A fresh truncation as _glue walks it (_walk), for the replay to read.

    `quiver` has every field of the build (_grow) but its arrows: `adj[v]`
    is None until arrows(v) first reads it, which builds the dict as _grow
    writes it and keeps it there.  Every vertex v but the root is glued in
    by one arrow, adj[parents[v]][v] = signs[v]: 1 to a frozen copy, the
    sign of b_ji to a satellite labeled j; the root has parent -1 and sign
    0.  The walk keeps `parents` and `signs` for its life.  `reps` holds
    the default fold representatives once checked (_replay_walk), one per
    label in label order.  `templates` holds the replay templates by
    first-ball radius (_template), `saturation` the radius from which the
    first ball is the whole interior once a search has found it (the
    vertex count until then, above any tree distance), and `lock`
    serialises the template builds: once the walk is shared, they are
    the only place a dict is built, so two threads never build one dict
    twice.  A plain class with slots: as a dataclass it took ≈0.8 ms of
    every import of this module (CPython 3.11.7).
    """

    __slots__ = ("quiver", "parents", "signs", "reps", "templates", "saturation", "lock")

    def __init__(self, quiver: LabeledQuiver, parents: list[int], signs: list[int],
                 reps: Sequence[int] = ()) -> None:
        self.quiver, self.parents, self.signs, self.reps = quiver, parents, signs, list(reps)
        self.templates: dict[int, _Template] = {}
        self.saturation = quiver.vertex_count
        self.lock = Lock()

    def arrows(self, v: int) -> dict[int, int]:
        """adj[v], built first when it is None: the parent first, then the
        children by id.  parents never decreases (_tree_dot), so v's
        children are the one run of ids whose parent is v, all above v."""
        adj = self.quiver.adj
        arrows = adj[v]
        if arrows is None:
            parents, signs = self.parents, self.signs
            arrows = {parents[v]: -signs[v]} if v else {}
            first = bisect_left(parents, v, v + 1)
            for c in range(first, bisect_right(parents, v, first)):
                arrows[c] = signs[c]
            adj[v] = arrows  # whole, so another thread never reads it half built
        return arrows


def _glue(matrix: ExchangeMatrix, framed: bool, counts: _RingCounts) -> tuple[
        tuple[int, ...], tuple[bool, ...], tuple[int, ...], list[int], list[int]]:
    """Number the vertices of the fresh truncation counted by _count_rings.

    The one walk that _tree_dot writes from and _walk makes the quiver of,
    for _grow to build and the replay to read.  Rings 0..rings-1 are
    expanded in turn, each in id order: a vertex labeled i, whose parent is
    labeled p (p = 0 for the root), gets its frozen copy (when framed),
    then |b_ji| satellites of each label j, in label order, less one when
    j = p.  Returns labels, frozen, depths, parents and signs, one entry
    per vertex id, as _Walk keeps them.

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


def _walk(matrix: ExchangeMatrix, framed: bool, counts: _RingCounts) -> _Walk:
    """_glue's walk as a quiver with no arrow dict built yet."""
    labels, frozen, depths, parents, signs = _glue(matrix, framed, counts)
    quiver = LabeledQuiver(n_labels=matrix.n, framed=framed, labels=labels, frozen=frozen,
                           depths=depths, adj=[None] * len(labels), interior_radius=counts[2])
    return _Walk(quiver, parents, signs)


def _tree_adj(walk: _Walk) -> Adjacency:
    """Every arrow dict of the walk at once, as _Walk.arrows builds each:
    the parent first, then the children by id."""
    parents, signs = walk.parents, walk.signs
    adj: Adjacency = [{}] + [{parent: -sign} for parent, sign in zip(parents[1:], signs[1:])]
    for v, parent, sign in zip(range(1, len(parents)), parents[1:], signs[1:]):
        adj[parent][v] = sign
    return adj


def _grow(matrix: ExchangeMatrix, framed: bool, counts: _RingCounts) -> LabeledQuiver:
    """Build the fresh truncation that _glue numbers, with the counted
    radius.  Each vertex's dict holds its parent first, then its children
    by id, so `adj` is the gluing tree."""
    walk = _walk(matrix, framed, counts)
    walk.quiver.adj = _tree_adj(walk)
    return walk.quiver


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
    representative (folding needs m >= 2).  If a gluing round adds nothing
    the quiver is the whole finite unfolding and every vertex stays clean.
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


# The framed truncations that verify_unfolding_commutation replays, as their
# walks (_replay_walk), by (matrix, m); read there and never handed out.
_truncations: dict[tuple[ExchangeMatrix, int], _Walk] = {}
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


def _orbit_targets(quiver: LabeledQuiver, k: int) -> tuple[int, ...]:
    """Label k's mutable vertices, in (depth, id) order, after checking that
    k is a label in 1..n_labels and that it occurs."""
    _check_index(k, quiver.n_labels, "orbit label")
    return _require_label(quiver, k)


def _require_gamma(found: Iterator[tuple[int, ...]]) -> None:
    """Refuse an orbit-mutation when the scan `found` yields a label-class
    loop or 2-cycle; the error names its first witnesses, in
    check_gamma_conditions' order.  The report is built only once a
    witness turns up."""
    first = next(found, None)
    if first is not None:
        report = _gamma_report([first, *found])
        raise GammaViolationError(
            "orbit-mutation undefined: "
            f"label-class loops {list(report.loop_witnesses[:3])}, "
            f"label-class 2-cycles {list(report.two_cycle_witnesses[:3])}"
        )


def _orbit_step(work: LabeledQuiver, targets: Iterable[int], dirty: Collection[int]) -> set[int]:
    """One orbit-mutation under the clean-set rule (the module docstring), on
    work in place: mutate the targets in order, which hold every clean
    vertex of the label, and return the label's dirty vertices `dirty`
    together with their current neighbours, the vertices the step makes
    dirty.  work.adj must hold only dicts the caller may write."""
    adj = work.adj
    for t in targets:
        _mutate_vertex(adj, work.frozen, t)
    return set(dirty).union(*map(adj.__getitem__, dirty))


def orbit_mutate(quiver: LabeledQuiver, k: int) -> LabeledQuiver:
    """Mutate simultaneously at every mutable vertex labeled k.

    Vertices of one label are pairwise non-adjacent (no label-class loop),
    so the simultaneous update equals the composition of ordinary vertex
    mutations in any order; we apply them in (depth, id) order, boundary
    included.  The clean-set rule (the module docstring) certifies the
    result: the dirty label-k vertices make their neighbours dirty, and
    the result's radius is the least of its input's and one less than the
    least depth of a dirty vertex.  Checks, in order: k is a label that
    occurs, every label still has an interior representative
    (_require_can_fold), and no Γ witness has a trusted end at each of its
    arrows: the scan of check_gamma_conditions, whose first witnesses the
    error names.
    """
    targets = _orbit_targets(quiver, k)
    _require_can_fold(quiver)
    trusted = _trusted(quiver)
    _require_gamma(_trusted_witnesses(quiver, trusted))
    radius, depths = quiver.interior_radius, quiver.depths
    dirty = quiver._dirty
    if dirty is None:
        dirty = frozenset(range(quiver.vertex_count)).difference(trusted)
    result = copy.copy(quiver)
    result.adj = [d.copy() for d in quiver.adj]
    soiled = _orbit_step(result, targets, [t for t in targets if t in dirty]) - dirty
    result._dirty = dirty | soiled
    if soiled:
        result.interior_radius = min(radius, min(map(depths.__getitem__, soiled)) - 1)
    return result


# -------------------------------------------------------------------- checks


def _trusted(quiver: LabeledQuiver) -> Sequence[int]:
    """The vertices whose arrows are certified, in id order: those down to
    the interior radius, every one on a complete quiver."""
    radius = quiver.interior_radius
    if radius is None:
        return range(quiver.vertex_count)
    return [v for v, depth in enumerate(quiver.depths) if depth <= radius]


def _trusted_witnesses(
    quiver: LabeledQuiver, trusted: Sequence[int]
) -> Iterator[tuple[int, int] | tuple[int, int, int]]:
    """The Γ witnesses each of whose arrows has an end in trusted
    (_trusted): loops with a trusted end and 2-cycles with a trusted
    centre, then the 2-cycles through an untrusted centre whose two ends
    are trusted.  A complete quiver trusts every vertex.

    One pass first gathers, for each class c, the classes of the in- and
    of the out-neighbours of its trusted vertices, and flags c when c is
    among them or one class is among both.  Every witness flags a class:
    a loop with a trusted class-c end puts c among them; a 2-cycle
    u -> x -> w centred at a trusted class-c vertex puts u's class among
    both; and one whose untrusted centre x joins trusted class-c ends u and
    w puts x's class among both, as an out-neighbour of u and an
    in-neighbour of w.  So only the trusted vertices of flagged classes are
    scanned, and the untrusted centres are sought only among their
    untrusted neighbours: each one with an in-neighbour and an
    out-neighbour among the trusted vertices of one flagged class, scanned
    with its arrows to trusted vertices alone.
    """
    classes, adj = quiver._classes, quiver.adj
    ins: list[set[int]] = [set() for _ in range(2 * quiver.n_labels)]
    outs: list[set[int]] = [set() for _ in range(2 * quiver.n_labels)]
    for x in trusted:
        ins_c, outs_c = ins[classes[x]], outs[classes[x]]
        for u, mult in adj[x].items():
            (outs_c if mult > 0 else ins_c).add(classes[u])
    flagged = {c for c, (ins_c, outs_c) in enumerate(zip(ins, outs))
               if c in ins_c or c in outs_c or not ins_c.isdisjoint(outs_c)}
    if not flagged:
        return
    scan = [x for x in trusted if classes[x] in flagged]
    yield from _gamma_witnesses(quiver, scan)
    if quiver.interior_radius is not None:
        ends = set(trusted)
        # the untrusted vertices with a trusted class-c in-neighbour, and with
        # a trusted class-c out-neighbour
        heads = {c: set() for c in flagged}
        tails = {c: set() for c in flagged}
        for x in scan:
            for u, mult in adj[x].items():
                if u not in ends:
                    (heads if mult > 0 else tails)[classes[x]].add(u)
        centres = set().union(*[heads[c] & tails[c] for c in flagged])
        yield from _gamma_witnesses(quiver, sorted(centres), ends)


def _gamma_witnesses(
    quiver: LabeledQuiver, scan: Iterable[int], ends: Optional[Collection[int]] = None
) -> Iterator[tuple[int, int] | tuple[int, int, int]]:
    """Loops with an end x in scan and 2-cycles (u, x, w) centred at the
    vertices x of scan; when ends is given, only the arrows at x whose
    other end is in ends count.

    A loop is an arrow inside one class, listed by (source, target); a
    2-cycle is a path u -> x -> w with u != w in one class and x in
    another.  A class is a label and a kind (`_classes`), so frozen copies
    form their own classes.  Every arrow at x counts, whatever its other
    end; a loop with both ends in scan is yielded twice, once at each.
    A first pass collects the classes of x's in- and out-neighbors; x has
    a witness, and is enumerated, exactly when its class is one of them
    (a loop) or some class is both (a 2-cycle).  In a 2-cycle u != w
    always: u is an in-neighbor and w an out-neighbor of x, two distinct
    keys of adj[x], as the net arrows between two vertices run one way.
    """
    classes = quiver._classes
    adj = quiver.adj
    for x in scan:
        class_x = classes[x]
        adj_x = adj[x]
        if ends is not None:
            adj_x = {u: mult for u, mult in adj_x.items() if u in ends}
        ins, outs = set(), set()
        for u, mult in adj_x.items():
            (outs if mult > 0 else ins).add(classes[u])
        if class_x not in ins and class_x not in outs and ins.isdisjoint(outs):
            continue
        ins_by_class: dict[int, list[int]] = {}
        for u, mult in adj_x.items():
            if mult < 0 and classes[u] != class_x:
                ins_by_class.setdefault(classes[u], []).append(u)
        for w, mult in adj_x.items():
            if classes[w] == class_x:
                yield (x, w) if mult > 0 else (w, x)
            elif mult > 0:
                for u in ins_by_class.get(classes[w], ()):
                    yield u, x, w


def check_gamma_conditions(quiver: LabeledQuiver) -> GammaReport:
    """Scan for arrows inside one label class and 2-paths returning to one.

    A witness counts when each of its arrows has a trusted end
    (_trusted): down to the interior radius, or any vertex of a complete
    quiver.  So a loop counts when either end is trusted, and a 2-cycle
    when its centre is or both its ends are.  An arrow at a trusted vertex
    is certified (the module docstring), whatever its other end.
    orbit_mutate runs the same scan and refuses exactly when this reports
    a witness.  Frozen copies form their own classes (keyed by label and
    kind), so a path from a mutable vertex through another label to its
    own frozen class does not count.  Loops are listed by (source,
    target), 2-cycles u -> x -> w by (x, u, w).
    """
    return _gamma_report(_trusted_witnesses(quiver, _trusted(quiver)))


def _gamma_report(found: Iterable[tuple[int, ...]]) -> GammaReport:
    """The witnesses found, without repeats, sorted as check_gamma_conditions
    lists them."""
    witnesses = set(found)
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


def _first_ball(walk: _Walk, radius: int) -> tuple[set[int], int]:
    """The replay's first clean set on a fresh truncation: the vertices
    within distance radius of the representatives in the gluing tree, which
    is the walk's `adj`, cut to the interior; every vertex of a complete
    quiver.  A dict is built when the search first reads it (_Walk.arrows).

    Returns the ball and the number of rings the search added: radius, or
    fewer when a ring adds no vertex, where the search stops.  The ball is
    then the whole interior, and so at every larger radius: the tree cut
    to the interior is connected, since a vertex's path to the root only
    gets shallower, and it holds the representatives.  On a complete
    quiver the number is 0."""
    quiver = walk.quiver
    limit = quiver.interior_radius
    if limit is None:
        return set(range(quiver.vertex_count)), 0
    adj, depths, arrows = quiver.adj, quiver.depths, walk.arrows
    ball = set(walk.reps)
    ring, rings = ball, 0
    while rings < radius:
        ring = {u for v in ring for u in (adj[v] or arrows(v)) if depths[u] <= limit} - ball
        if not ring:
            break
        ball |= ring
        rings += 1
    return ball, rings


def _keep(walk: _Walk, start: Collection[int]) -> _Template:
    """The template of a replay from the clean set start: start, the kept
    set with each vertex's dict, built when first read (_Walk.arrows), and
    keep's mutable vertices by label in id order, which on a build is
    (depth, id) order."""
    quiver = walk.quiver
    adj, arrows, labels, frozen = quiver.adj, walk.arrows, quiver.labels, quiver.frozen
    start = frozenset(start)
    keep = sorted(start.union(*[adj[v] or arrows(v) for v in start]))
    keep_ids: dict[int, list[int]] = {}
    for v in keep:
        if not frozen[v]:
            keep_ids.setdefault(labels[v], []).append(v)
    return (start, {v: adj[v] or arrows(v) for v in keep},
            {label: tuple(ids) for label, ids in keep_ids.items()})


def _template(walk: _Walk, radius: int) -> _Template:
    """The template (_keep) of the first ball of this radius (_first_ball),
    built whole the first time a call asks for it, under the walk's lock,
    published with one store and then only read.

    It is kept under the radius the ball reached, so every radius from the
    saturation radius on, where the ball stops growing, shares the whole
    interior's template, and a walk holds at most saturation radius + 1
    templates.  A radius of at least the vertex count asks for the whole
    interior, whose kept set is every vertex: their dicts are built at once
    first (_tree_adj), filling in only those not built yet, so no template
    keeps a dict that `adj` no longer holds.  The whole interior's template
    is always kept, and a smaller ball's only while the smaller balls'
    templates keep at most four times the walk's vertices in all, so a
    walk's templates keep at most five times its vertices, however many
    lengths it serves.  Only a walk whose ball grows slowly and that serves
    many lengths reaches that bound; past it a template serves its call
    alone and is built again by the next call that asks for it.
    """
    template = walk.templates.get(min(radius, walk.saturation))
    if template is not None:
        return template
    with walk.lock:
        templates, adj = walk.templates, walk.quiver.adj
        template = templates.get(min(radius, walk.saturation))  # built while this call waited
        if template is None:
            if radius >= len(adj):
                for v, arrows in enumerate(_tree_adj(walk)):
                    if adj[v] is None:
                        adj[v] = arrows
            ball, rings = _first_ball(walk, radius)
            if rings < radius:
                walk.saturation = rings
            template = templates.get(rings)
            if template is None:
                template = _keep(walk, ball)
                balls = sum(len(kept) for key, (_start, kept, _ids) in templates.items()
                            if key < walk.saturation)
                if rings == walk.saturation or balls + len(template[1]) <= 4 * len(adj):
                    templates[rings] = template
    return template


def _replay(
    walk: _Walk, directions: Sequence[int], template: _Template
) -> Iterator[tuple[int, LabeledQuiver, set[int]]]:
    """Orbit-mutate a private copy of a fresh truncation, the walk's quiver,
    step by step, under the clean-set rule (the module docstring), from the
    template's clean start (_keep, _template).

    Yields (step, work, clean) before the first step and after each one;
    before the first step `work` is the walk's quiver itself, and with no
    directions nothing more is made.  Otherwise `work` is one
    LabeledQuiver, made here with the walk's vertices, whose `adj` is a
    dict by vertex id holding copies of the template's dicts of keep, the
    vertices of start and their neighbours; each step updates it in place,
    and its radius is the build's, as the clean set, a copy of start
    updated in place, is the certificate.  A step at label k checks k as
    orbit_mutate does (_orbit_targets), scans the clean representatives
    (`walk.reps`) for a Γ witness (_require_gamma; by transitivity that
    decides Γ while all are clean, which _verify_replay requires of every
    fold), mutates the clean label-k vertices of keep in id order, and
    makes dirty the dirty label-k vertices of keep and their neighbours
    (_orbit_step).  The template is only read.

    Why keep is enough.  Mutation at a clean target t writes only arrows
    at t and between two of t's neighbours, so a clean vertex's
    neighbours stay in keep, by induction from those of start.  So every
    dict a step reads or writes is in `work`, and a dirty label-k vertex
    outside keep has no clean neighbour to make dirty.  A write outside
    keep would raise KeyError instead of reaching the walk, which may be
    cached.
    """
    start, kept, keep_ids = template
    quiver = walk.quiver
    clean = set(start)
    yield 0, quiver, clean
    if not directions:
        return
    work = copy.copy(quiver)
    work.adj = {v: arrows.copy() for v, arrows in kept.items()}
    reps = walk.reps
    for step, k in enumerate(directions, start=1):
        _orbit_targets(work, k)
        _require_gamma(_gamma_witnesses(work, [rep for rep in reps if rep in clean]))
        ids = keep_ids.get(k, ())
        clean -= _orbit_step(work, [t for t in ids if t in clean],
                             [v for v in ids if v not in clean])
        yield step, work, clean


def _replay_walk(matrix: ExchangeMatrix, m: int) -> _Walk:
    """The framed truncation build_truncation(matrix, m) builds, as its
    walk (_walk), after build_truncation's checks; its default
    representatives are resolved and checked once here
    (_resolve_representatives), which builds their dicts and their
    neighbours' and no other."""
    walk = _walk(matrix, True, _truncation_counts(matrix, m, True))
    quiver = walk.quiver
    for ids in quiver._label_ids.values():
        for u in walk.arrows(ids[0]):
            walk.arrows(u)
    walk.reps = list(_resolve_representatives(quiver, None).values())
    return walk


def verify_unfolding_commutation(
    matrix: ExchangeMatrix, directions: Sequence[int], m: int
) -> CommutationReport:
    """Check that orbit-mutating the truncation tracks the framed seed.

    Replays the directions as orbit-mutations on the framed truncation
    with budget m (build_truncation's) and as ordinary mutations of the rows
    of the extended matrix [B; I]; after every prefix the 2n folded rows
    must equal those rows exactly.  Each fold is certified by the
    clean-set rule (the module docstring): while every representative is
    clean its arrows are the infinite unfolding's.  When one turns dirty
    the request is refused with InteriorExhaustedError naming the step
    (_verify_replay); a larger m certifies more.  No length or m is refused
    up front.  Representatives are chosen once, since mutation moves no
    label or depth, and folding sums only their neighbourhoods.

    The truncation.  Repeated calls on one (matrix, m) replay one framed
    truncation, kept in _truncations as its gluing walk (_replay_walk)
    with its representatives checked once.  The walk holds the vertex
    arrays and the class and label index, and an arrow dict only for each
    vertex some call has read: it is built on first read, kept, and then
    only read, so a later call copies the same dicts.  It also keeps one
    replay template per first-ball radius a call has used (_template):
    the start, its kept dicts and their mutable vertices by label.  So a
    call with a length the walk has served before searches no ball, takes
    no union and sorts nothing; the whole interior's template serves every
    rerun, and every radius from the one where the ball stops growing.
    The templates keep at most five times the walk's vertices in all.  On the
    running example at m = 8 a walk takes ≈92 bytes a vertex before any
    call; ≈102 after (1, 2, 3), whose kept set is 1,646 of its 57,284
    vertices, and its template 2 more (117 kB); ≈350, a full build's ≈333
    and the gluing tree, once a whole-interior rerun such as (3, 4, 2) has
    read every dict, and the interior's template 70 more (4.0 MB)
    (tracemalloc, CPython 3.11.7).  m is checked here, before the lookup,
    because a hit skips build_truncation's checks.  A hit makes no walk
    and builds only dicts and templates no call has needed yet.  A miss
    makes one, and empties the cache first when it would take it past 64
    walks or past _MAX_VERTICES vertices; _count_rings refuses any walk
    above _MAX_VERTICES, so every walk fits alone, and the cache never
    holds more than one walk at the cap could take (≈1.4 GB with every
    dict and template built, _MAX_VERTICES' comment), where 64 walks could
    take 64 times that.
    """
    directions = tuple(directions)
    _require_positive(m, "truncation budget m")
    key = (matrix, m)
    walk = _truncations.get(key)
    if walk is None:
        walk = _replay_walk(matrix, m)
        with _truncations_lock:
            kept = sum(cached.quiver.vertex_count for cached in _truncations.values())
            if len(_truncations) >= 64 or kept + walk.quiver.vertex_count > _MAX_VERTICES:
                _truncations.clear()
            _truncations[key] = walk
    return _verify_replay(walk, matrix, directions)


def _verify_replay(
    walk: _Walk, matrix: ExchangeMatrix, directions: tuple[int, ...]
) -> CommutationReport:
    """verify_unfolding_commutation on `walk`, a fresh framed truncation of
    `matrix` (_replay_walk), whose arrows are only read.  The command line
    passes its own walk, so it lives only as long as the request.

    The first run starts clean on the vertices within distance L + 1 of the
    representatives (_first_ball).  When a representative turns dirty, the
    whole interior replays once more, unless the first ball was already
    all of it; when one turns dirty there too, InteriorExhaustedError
    names that step and its label.  Both starts are templates of the walk
    (_template), so a call on a walk that has served its length before
    computes no ball, no kept set and no sort.
    """
    n = matrix.n
    reps = walk.reps
    tried = None
    # the first ball, then the whole interior: no tree distance reaches the vertex count
    for radius in (len(directions) + 1, walk.quiver.vertex_count):
        template = _template(walk, radius)
        if len(template[0]) == tried:  # the first ball was the whole interior
            break
        tried = len(template[0])
        state = list(_flat(matrix.entries + identity_rows(n)))
        for step, work, clean in _replay(walk, directions, template):
            if step:
                # _replay has checked the label with _orbit_targets
                _mutate_flat(state, n, directions[step - 1] - 1)
            if not clean.issuperset(reps):
                break
            # column j of the fold, summed at label j + 1's representative, is
            # column j of the flat [B; C] state
            for j, rep in enumerate(reps):
                if _column_sums(work, rep) != state[j::n]:
                    return CommutationReport(ok=False, first_divergence=step)
        else:
            return CommutationReport(ok=True, first_divergence=None)
    raise InteriorExhaustedError(
        f"interior exhausted at step {step} (label {directions[step - 1]}): "
        f"the truncation no longer certifies a fold representative's arrows"
    )


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
