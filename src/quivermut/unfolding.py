"""Finite truncations of locally finite unfolding quivers.

An acyclic sign-skew-symmetric matrix is covered by a labeled, locally
finite quiver built by gluing one-vertex neighborhood pieces; summing
adjacency entries over a label class (with a fixed column representative)
folds the quiver back onto the matrix.  Truly infinite quivers are
represented by finite truncations carrying an interior radius: the depth
up to which every vertex still has its complete, faithful neighborhood.
Orbit-mutation (simultaneous mutation at all vertices of one label)
consumes two units of that radius per step, a conservative budget that the
test suite cross-validates against deeper truncations.

`build_truncation` builds a new quiver on every call, owned by the
caller.  The public `orbit_mutate` copies and mutates the whole
truncation.  `verify_unfolding_commutation` instead replays on one
copy-on-write adjacency over a privately cached truncation, and mutates
only the trusted ball: label-k vertices at depth at most the radius plus
one.  Its docstring argues why that margin is enough, and the test suite
compares every interior vertex with `orbit_mutate` after every step.  One
scan, `_gamma_witnesses`, finds the label-class loops and 2-cycles for
both `check_gamma_conditions` and the replay.

Orientation convention, used consistently for adjacency and folding: a
positive entry for the ordered pair (i, j) means arrows from j to i.  For
the framed part, a positive c-entry pairs arrows from a mutable vertex
into a frozen one.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from copy import copy
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .matrices import ExchangeMatrix, IntMatrix, is_acyclic, is_sign_skew_symmetric
from .seeds import FramedSeed, extend, mutate_framed

# The replay in verify_unfolding_commutation mutates label-k vertices down to
# depth radius + _TRUST_MARGIN; its docstring says why 1 is enough.
_TRUST_MARGIN = 1

Adjacency = dict[int, dict[int, int]]


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


class LabeledQuiver:
    """Labeled quiver with mutable/frozen vertices and net integer arrows.

    Vertices are dense integer ids in construction order (breadth-first by
    ring, then parent id, then label), so each label's `mutable_ids` come
    in nondecreasing depth.  `out[u][v]` is the positive
    multiplicity of the arrows u -> v; at most one direction is stored per
    pair, and `inn` mirrors `out`.  `orbit_mutate` leaves its input as it
    is and returns a new quiver with its own `out` and `inn`, sharing the
    vertex arrays and the label index.

    `interior_radius` is the depth up to which vertex neighborhoods are
    complete and entries are trusted; None means the quiver is the whole
    (finite) unfolding and never loses interior.
    """

    __slots__ = (
        "n_labels", "framed", "labels", "frozen", "depths", "out", "inn",
        "interior_radius", "core_depth", "_label_ids",
    )

    def __init__(
        self,
        *,
        n_labels: int,
        framed: bool,
        labels: tuple[int, ...],
        frozen: tuple[bool, ...],
        depths: tuple[int, ...],
        out: dict[int, dict[int, int]],
        inn: dict[int, dict[int, int]],
        interior_radius: Optional[int],
    ) -> None:
        self.n_labels = n_labels
        self.framed = framed
        self.labels = labels
        self.frozen = frozen
        self.depths = depths
        self.out = out
        self.inn = inn
        self.interior_radius = interior_radius
        label_ids: dict[int, list[int]] = {}
        for v, label in enumerate(labels):
            if not frozen[v]:
                label_ids.setdefault(label, []).append(v)
        self._label_ids = {lab: tuple(ids) for lab, ids in label_ids.items()}
        self.core_depth = max(
            (min(depths[v] for v in ids) for ids in self._label_ids.values()),
            default=0,
        )

    # ------------------------------------------------------------------ views

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def mutable_count(self) -> int:
        return sum(1 for f in self.frozen if not f)

    @property
    def frozen_count(self) -> int:
        return sum(1 for f in self.frozen if f)

    @property
    def arrow_count(self) -> int:
        return sum(len(d) for d in self.out.values())

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
        return self._label_ids.get(label, ())

    def is_interior(self, v: int) -> bool:
        return self.is_complete or self.depths[v] <= self.interior_radius

    def entry(self, i: int, j: int) -> int:
        """Signed adjacency entry for the ordered pair (i, j): mult(j->i) - mult(i->j)."""
        return self.out[j].get(i, 0) - self.out[i].get(j, 0)

    def arrows(self) -> list[tuple[int, int, int]]:
        """All arrows as (source, target, multiplicity), sorted."""
        return [
            (u, v, self.out[u][v])
            for u in range(self.vertex_count)
            for v in sorted(self.out[u])
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledQuiver):
            return NotImplemented
        return (
            self.n_labels == other.n_labels
            and self.framed == other.framed
            and self.labels == other.labels
            and self.frozen == other.frozen
            and self.depths == other.depths
            and self.out == other.out
            and self.inn == other.inn
            and self.interior_radius == other.interior_radius
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        radius = "complete" if self.is_complete else f"interior<={self.interior_radius}"
        return (
            f"<LabeledQuiver n_labels={self.n_labels} framed={self.framed} "
            f"vertices={self.vertex_count} arrows={self.arrow_count} {radius}>"
        )


# ---------------------------------------------------------------- validation


def _require_unfoldable(matrix: ExchangeMatrix) -> None:
    if not is_sign_skew_symmetric(matrix):
        raise ValueError("unfolding requires a sign-skew-symmetric matrix")
    if not is_acyclic(matrix):
        raise ValueError("unfolding requires an acyclic matrix")


def _label_distances(matrix: ExchangeMatrix) -> list[Optional[int]]:
    """Distances from label 1 over the undirected nonzero pattern."""
    e = matrix.entries
    n = matrix.n
    dist: list[Optional[int]] = [None] * n
    dist[0] = 0
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in range(n):
            if dist[j] is None and (e[i][j] != 0 or e[j][i] != 0):
                dist[j] = dist[i] + 1
                queue.append(j)
    return dist


# -------------------------------------------------------------- construction


class _Builder:
    def __init__(self, matrix: ExchangeMatrix, framed: bool) -> None:
        self.e = matrix.entries
        self.n = matrix.n
        self.framed = framed
        self.labels: list[int] = []
        self.frozen: list[bool] = []
        self.depths: list[int] = []
        self.out: dict[int, dict[int, int]] = {}
        self.inn: dict[int, dict[int, int]] = {}

    def new_vertex(self, label: int, depth: int, is_frozen: bool) -> int:
        v = len(self.labels)
        self.labels.append(label)
        self.frozen.append(is_frozen)
        self.depths.append(depth)
        self.out[v] = {}
        self.inn[v] = {}
        return v

    def add_arrow(self, u: int, v: int) -> None:
        self.out[u][v] = 1
        self.inn[v][u] = 1

    def expand(self, v: int) -> list[int]:
        """Glue the neighborhood piece of v's label onto v; return new vertices.

        The single existing arrow to v's parent is identified with the
        matching arrow of the piece (same labels, same orientation, which
        sign-skew-symmetry guarantees), so only the missing satellites are
        created.
        """
        label_v = self.labels[v]
        if self.framed:
            f = self.new_vertex(label_v, self.depths[v], True)
            self.add_arrow(v, f)
        have: dict[int, int] = {}
        for u in self.out[v]:
            if not self.frozen[u]:
                have[self.labels[u]] = have.get(self.labels[u], 0) + 1
        for u in self.inn[v]:
            have[self.labels[u]] = have.get(self.labels[u], 0) + 1
        created: list[int] = []
        for j_label in range(1, self.n + 1):
            if j_label == label_v:
                continue
            e_ji = self.e[j_label - 1][label_v - 1]
            if e_ji == 0:
                continue
            missing = abs(e_ji) - have.get(j_label, 0)
            assert missing >= 0, "sign-skew-symmetry guarantees at most one shared arrow"
            for _ in range(missing):
                s = self.new_vertex(j_label, self.depths[v] + 1, False)
                if e_ji < 0:
                    self.add_arrow(s, v)
                else:
                    self.add_arrow(v, s)
                created.append(s)
        return created

    def finish(self, interior_radius: Optional[int]) -> LabeledQuiver:
        return LabeledQuiver(
            n_labels=self.n,
            framed=self.framed,
            labels=tuple(self.labels),
            frozen=tuple(self.frozen),
            depths=tuple(self.depths),
            out=self.out,
            inn=self.inn,
            interior_radius=interior_radius,
        )


def build_piece(matrix: ExchangeMatrix, i: int, framed: bool = True) -> LabeledQuiver:
    """Single-neighborhood piece: one center labeled i plus its satellites.

    For each label j the piece has |b_ji| satellites; the arrow runs from
    satellite to center when b_ji < 0 and from center to satellite when
    b_ji > 0, so that folding at the center recovers column i.  The framed
    variant adds the center's frozen copy.
    """
    _require_unfoldable(matrix)
    if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= matrix.n:
        raise IndexError(f"piece center {i!r} out of range 1..{matrix.n}")
    builder = _Builder(matrix, framed)
    center = builder.new_vertex(i, 0, False)
    created = builder.expand(center)
    return builder.finish(0 if created else None)


def build_truncation(matrix: ExchangeMatrix, m: int, framed: bool = True) -> LabeledQuiver:
    """Truncation of the unfolding quiver with interior budget m.

    Construction starts at label 1 and glues ring by ring out to radius
    d* + m - 1, where d* is the depth at which the deepest label first
    appears; every label then has an interior representative as long as
    the budget permits (folding needs m >= 2 on a fresh truncation, and
    each orbit-mutation costs 2).  If a gluing round adds nothing the
    quiver is the whole finite unfolding and the interior never shrinks.
    Every call builds a new quiver, which the caller owns.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError(f"truncation budget m must be a positive integer, got {m!r}")
    _require_unfoldable(matrix)
    dist = _label_distances(matrix)
    missing = [str(i + 1) for i, d in enumerate(dist) if d is None]
    if missing:
        raise ValueError(
            "nonzero pattern is disconnected: labels {"
            + ",".join(missing)
            + "} are unreachable from label 1"
        )
    radius = max(1, max(dist) + m - 1)
    builder = _Builder(matrix, framed)
    ring = [builder.new_vertex(1, 0, False)]
    for _ in range(radius):
        ring = [child for v in ring for child in builder.expand(v)]
        if not ring:
            return builder.finish(None)
    return builder.finish(radius - 1)


@lru_cache(maxsize=64, typed=True)
def _shared_truncation(matrix: ExchangeMatrix, m: int) -> LabeledQuiver:
    """The framed truncation that verify_unfolding_commutation replays; never handed out."""
    return build_truncation(matrix, m, framed=True)


# ------------------------------------------------------------------ mutation


def _add_net(
    out: dict[int, dict[int, int]], inn: dict[int, dict[int, int]],
    u: int, w: int, q: int,
) -> None:
    # Net arrows: cancelling opposite pairs implements 2-cycle removal.
    net = out[u].get(w, 0) - out[w].get(u, 0) + q
    out[u].pop(w, None)
    inn[w].pop(u, None)
    out[w].pop(u, None)
    inn[u].pop(w, None)
    if net > 0:
        out[u][w] = net
        inn[w][u] = net
    elif net < 0:
        out[w][u] = -net
        inn[u][w] = -net


def _mutate_vertex(
    out: dict[int, dict[int, int]], inn: dict[int, dict[int, int]],
    frozen: tuple[bool, ...], t: int,
) -> None:
    in_nb = list(inn[t].items())
    out_nb = list(out[t].items())
    for u, mu in in_nb:
        u_frozen = frozen[u]
        for w, mw in out_nb:
            if u_frozen and frozen[w]:
                continue  # arrows between two frozen vertices are discarded
            _add_net(out, inn, u, w, mu * mw)
    for u, _ in in_nb:
        del out[u][t]
        del inn[t][u]
    for w, _ in out_nb:
        del out[t][w]
        del inn[w][t]
    for u, mu in in_nb:
        out[t][u] = mu
        inn[u][t] = mu
    for w, mw in out_nb:
        out[w][t] = mw
        inn[t][w] = mw


def _orbit_targets(quiver: LabeledQuiver, k: int, radius: Optional[int]) -> tuple[int, ...]:
    """Check that label k can be orbit-mutated at this radius; return its vertices."""
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= quiver.n_labels:
        raise IndexError(f"orbit label {k!r} out of range 1..{quiver.n_labels}")
    targets = quiver.mutable_ids(k)
    if not targets:
        raise ValueError(f"label {k} does not occur in the quiver")
    if radius is not None and radius < quiver.core_depth:
        raise InteriorExhaustedError(
            f"interior exhausted: radius {radius} has shrunk below "
            f"the deepest first-occurrence depth {quiver.core_depth}"
        )
    return targets


def _gamma_violation(report: GammaReport) -> GammaViolationError:
    return GammaViolationError(
        "orbit-mutation undefined: "
        f"label-class loops {list(report.loop_witnesses[:3])}, "
        f"label-class 2-cycles {list(report.two_cycle_witnesses[:3])}"
    )


def _with_arrows(
    quiver: LabeledQuiver, out: Adjacency, inn: Adjacency, radius: Optional[int]
) -> LabeledQuiver:
    """The vertices and label index of `quiver` with other arrows and interior radius."""
    result = copy(quiver)
    result.out = out
    result.inn = inn
    result.interior_radius = radius
    return result


def orbit_mutate(quiver: LabeledQuiver, k: int) -> LabeledQuiver:
    """Mutate simultaneously at every mutable vertex labeled k.

    Vertices of one label are pairwise non-adjacent (no label-class loop),
    so the simultaneous update equals the composition of ordinary vertex
    mutations in any order; we apply them in ascending id order.  All
    same-label vertices present are mutated, boundary included: through
    the first step this keeps the whole truncation exactly equal to the
    induced subquiver of the mutated infinite quiver, and later boundary
    error stays outside the interior accounted by the radius, which drops
    by 2.
    """
    targets = _orbit_targets(quiver, k, quiver.interior_radius)
    gamma = check_gamma_conditions(quiver, interior_only=True)
    if not gamma.ok:
        raise _gamma_violation(gamma)
    out = {u: dict(d) for u, d in quiver.out.items()}
    inn = {u: dict(d) for u, d in quiver.inn.items()}
    for t in targets:
        _mutate_vertex(out, inn, quiver.frozen, t)
    radius = None if quiver.is_complete else quiver.interior_radius - 2
    return _with_arrows(quiver, out, inn, radius)


# -------------------------------------------------------------------- checks


def _gamma_witnesses(
    quiver: LabeledQuiver, out: Adjacency, inn: Adjacency,
    scan: Iterable[int], radius: Optional[int],
) -> Iterator[tuple[int, int] | tuple[int, int, int]]:
    """Loops (x, w) and 2-cycles (u, x, w) through the vertices x of scan.

    A loop is an arrow x -> w inside one class; a 2-cycle is a path
    u -> x -> w with u != w in one class and x in another.  A class is a
    label and a kind, so frozen copies form their own classes.  Only
    vertices at depth <= radius count (all of them when radius is None).
    """
    labels = quiver.labels
    frozen = quiver.frozen
    depths = quiver.depths
    limit = max(depths) if radius is None else radius
    for x in scan:
        if depths[x] > limit:
            continue
        # frozen classes get negative keys
        class_x = -labels[x] if frozen[x] else labels[x]
        ins_by_class: dict[int, list[int]] = {}
        for u in inn[x]:
            if depths[u] <= limit:
                class_u = -labels[u] if frozen[u] else labels[u]
                if class_u != class_x:
                    ins_by_class.setdefault(class_u, []).append(u)
        for w in out[x]:
            if depths[w] <= limit:
                class_w = -labels[w] if frozen[w] else labels[w]
                if class_w == class_x:
                    yield x, w
                for u in ins_by_class.get(class_w, ()):
                    if u != w:
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
    witnesses = list(_gamma_witnesses(quiver, quiver.out, quiver.inn, scan, radius))
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
    if not quiver.can_fold:
        raise InteriorExhaustedError("interior exhausted: no trusted vertices per label")
    result = []
    for label in range(1, quiver.n_labels + 1):
        ids = [v for v in quiver.mutable_ids(label) if quiver.is_interior(v)]
        if ids and all(not quiver.inn[v] for v in ids):
            result.append(label)
    return result


# ------------------------------------------------------------------- folding


def _default_representative(quiver: LabeledQuiver, label: int) -> int:
    """The shallowest mutable vertex of a label, the smallest id among ties.

    Builders number vertices ring by ring, so `mutable_ids` come in
    nondecreasing depth and this is simply the first of them.
    """
    return quiver.mutable_ids(label)[0]


def _require_interior(
    quiver: LabeledQuiver, label: int, rep: int, radius: Optional[int]
) -> None:
    if radius is not None and quiver.depths[rep] > radius:
        raise InteriorExhaustedError(
            f"representative {rep} for label {label} is not interior "
            f"(depth {quiver.depths[rep]} > radius {radius})"
        )


def _representative(quiver: LabeledQuiver, label: int, rep: int) -> int:
    """Check that rep is an interior mutable vertex of label; return it."""
    if not 0 <= rep < quiver.vertex_count or quiver.frozen[rep]:
        raise ValueError(f"representative {rep!r} is not a mutable vertex")
    if quiver.labels[rep] != label:
        raise ValueError(
            f"representative {rep} has label {quiver.labels[rep]}, expected {label}"
        )
    _require_interior(quiver, label, rep, quiver.interior_radius)
    return rep


def _resolve_representatives(
    quiver: LabeledQuiver, representatives: Optional[Mapping[int, int]]
) -> dict[int, int]:
    chosen: dict[int, int] = {}
    for label in range(1, quiver.n_labels + 1):
        if not quiver.mutable_ids(label):
            raise ValueError(f"label {label} missing from quiver: cannot fold")
        if representatives is None:
            rep = _default_representative(quiver, label)
        elif label in representatives:
            rep = representatives[label]
        else:
            raise ValueError(f"no representative supplied for label {label}")
        chosen[label] = _representative(quiver, label, rep)
    return chosen


def _column_sums(
    quiver: LabeledQuiver, out: Adjacency, inn: Adjacency, rep: int
) -> tuple[list[int], list[int]]:
    """Orbit sums at one representative: (principal column, frozen column)."""
    labels = quiver.labels
    frozen = quiver.frozen
    b_col = [0] * quiver.n_labels
    c_col = [0] * quiver.n_labels
    for u, mult in out[rep].items():
        # arrows rep -> u contribute +mult to the (u, rep) entry
        (c_col if frozen[u] else b_col)[labels[u] - 1] += mult
    for u, mult in inn[rep].items():
        (c_col if frozen[u] else b_col)[labels[u] - 1] -= mult
    return b_col, c_col


def _fold_rows(
    quiver: LabeledQuiver, out: Adjacency, inn: Adjacency, reps: Iterable[int]
) -> tuple[IntMatrix, IntMatrix]:
    """Folded principal and frozen rows; column j is summed at the j-th rep."""
    columns = [_column_sums(quiver, out, inn, rep) for rep in reps]
    return (
        tuple(zip(*(b_col for b_col, _ in columns))),
        tuple(zip(*(c_col for _, c_col in columns))),
    )


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
    b, c = _fold_rows(quiver, quiver.out, quiver.inn, reps.values())
    principal = ExchangeMatrix(b)
    if quiver.framed:
        return FramedSeed(principal, c)
    return principal


def folding_column(
    quiver: LabeledQuiver, label: int, representative: Optional[int] = None
) -> tuple[tuple[int, ...], Optional[tuple[int, ...]]]:
    """One folded column (principal part, frozen part) at a chosen representative."""
    if not 1 <= label <= quiver.n_labels or not quiver.mutable_ids(label):
        raise ValueError(f"label {label!r} missing from quiver")
    if representative is None:
        representative = _default_representative(quiver, label)
    rep = _representative(quiver, label, representative)
    b_col, c_col = _column_sums(quiver, quiver.out, quiver.inn, rep)
    return tuple(b_col), tuple(c_col) if quiver.framed else None


def _replay(
    quiver: LabeledQuiver, directions: Sequence[int]
) -> Iterator[tuple[int, Adjacency, Adjacency, Optional[int]]]:
    """Orbit-mutate a copy-on-write copy of a fresh truncation in its trusted ball.

    Yields (step, out, inn, radius) before the first step and after each
    one.  `out` and `inn` are the working adjacency, which the next step
    updates in place; `radius` is the depth up to which it is trusted
    (None for a complete quiver).  The outer dicts are copied here, and a
    vertex's inner dicts just before a step first writes to them, so
    `quiver` is never written.  Checks and errors are those of
    orbit_mutate, made on the state about to be mutated.

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
    out = dict(quiver.out)
    inn = dict(quiver.inn)
    owned: set[int] = set()  # vertices whose inner dicts are already copies
    frozen = quiver.frozen
    radius = quiver.interior_radius
    scan: Iterable[int] = ()
    yield 0, out, inn, radius
    for step, k in enumerate(directions, start=1):
        targets = _orbit_targets(quiver, k, radius)
        if next(_gamma_witnesses(quiver, out, inn, scan, radius), None) is not None:
            snapshot = _with_arrows(quiver, out, inn, radius)
            raise _gamma_violation(check_gamma_conditions(snapshot, interior_only=True))
        if radius is not None:
            limit = radius + _TRUST_MARGIN
            targets = targets[:bisect_right(targets, limit, key=quiver.depths.__getitem__)]
            radius -= 2
        touched: set[int] = set()
        for t in targets:
            # mutation at t writes only the arrows of t and of its neighbors
            around = (t, *out[t], *inn[t])
            for v in around:
                if v not in owned:
                    owned.add(v)
                    out[v] = dict(out[v])
                    inn[v] = dict(inn[v])
            touched.update(around)
            _mutate_vertex(out, inn, frozen, t)
        scan = touched
        yield step, out, inn, radius


def verify_unfolding_commutation(
    matrix: ExchangeMatrix, directions: Sequence[int], m: int
) -> CommutationReport:
    """Check that orbit-mutating the truncation tracks the framed seed.

    Replays the directions as orbit-mutations on the framed truncation and
    as ordinary framed mutations on the extended matrix; after every
    prefix the folding must equal the seed exactly.  Requires interior
    budget m >= 2*len(directions) + 2.

    Reports and errors are those of chaining orbit_mutate and folding, but
    the replay (_replay) does far less work.  It writes to one
    copy-on-write adjacency instead of copying the truncation per step.
    A step at label k mutates only the label-k vertices at depth <= r + 1,
    where r is the interior radius before the step.  The Γ check scans only
    the vertices the previous step touched (_replay says why that is enough).
    Representatives are chosen once, since mutation moves no label or
    depth, and folding sums only their neighborhoods.

    Why depth <= r + 1 is enough.  Take two replays that apply the same
    vertex mutations in the same order, except that one skips some.
    Mutating at t changes only arrows inside t's closed neighborhood, and
    changes them alike in both replays when t's arrows agree.  So the
    replays come to disagree at a vertex only next to a skipped vertex, or
    next to a vertex mutated while they already disagree at it.  Let f_s
    be the least depth at which a replay may disagree with the infinite
    unfolding after s steps, g_s the least depth of a target it skips at
    step s + 1, and σ_s a bound on the depth difference along an arrow of
    either after s steps (σ_0 = 1 on the fresh tree, frozen copies
    sitting at their vertex's depth; σ_1 = 2 and σ_2 = 3 on the test
    corpus; raising a bound to 2 keeps it a bound).  Then
    f_{s+1} >= min(f_s, g_s) - σ_s.

    The whole truncation lacks the neighbors of its outer ring, so
    f_0 = r_0 + 1, and it skips what lies beyond, g_s = r_0 + 2; hence
    f_s >= F_s = r_0 + 1 - (σ_0 + ... + σ_{s-1}), and F_s <= r_s + 2 for
    r_s = r_0 - 2s.  The trusted ball skips from g_s = r_s + 2 on, which
    is never below F_s, so the same F_s bounds it at every step: it is
    exact wherever the whole truncation is guaranteed exact, and the
    radius bookkeeping (trust depth <= r_s, i.e. F_s >= r_s + 1) covers
    both.  With the corpus spans that holds through three steps; longer
    sequences rest, as before, on the cross-checks against deeper
    truncations.  Skipping from r_s + 1 on would lower the bound by one
    ring from step 2, which puts ring r_3 at risk at step 3.
    """
    directions = tuple(directions)
    if m < 2 * len(directions) + 2:
        raise InteriorExhaustedError(
            f"interior budget violated: m={m} but {len(directions)} steps "
            f"need m >= {2 * len(directions) + 2}"
        )
    quiver = _shared_truncation(matrix, m)
    seed = extend(matrix)
    reps = _resolve_representatives(quiver, None)
    for step, out, inn, radius in _replay(quiver, directions):
        if step:
            seed = mutate_framed(seed, directions[step - 1])
            for label, rep in reps.items():
                _require_interior(quiver, label, rep, radius)
        if _fold_rows(quiver, out, inn, reps.values()) != (seed.b.entries, seed.c):
            return CommutationReport(ok=False, first_divergence=step)
    return CommutationReport(ok=True, first_divergence=None)


# ----------------------------------------------------------------------- DOT


def to_dot(quiver: LabeledQuiver) -> str:
    """Deterministic DOT export: mutable ellipses, frozen boxes, labeled multi-arrows."""
    lines = ["digraph unfolding {"]
    for v in range(quiver.vertex_count):
        if quiver.frozen[v]:
            lines.append(f'  v{v} [shape=box, label="{quiver.labels[v]}′"];')
        else:
            lines.append(f'  v{v} [shape=ellipse, label="v{v} ({quiver.labels[v]})"];')
    for u in range(quiver.vertex_count):
        for v in sorted(quiver.out[u]):
            mult = quiver.out[u][v]
            attr = f" [label={mult}]" if mult > 1 else ""
            lines.append(f"  v{u} -> v{v}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
