"""Slip-state enumeration via the central plane arrangement in motion space.

Each contact's zero-tangential-motion constraint is a plane through the
origin of object-motion space (x, y, r); zero-preload contacts optionally
contribute a second (separation) plane. The arrangement's cells classify
every rigid motion by the slip behaviour it induces:

  regions (3d)  -> every constraint strictly signed,
  facets  (2d)  -> on exactly one plane,
  lines   (1d)  -> rays of plane-intersection lines,
  origin  (0d)  -> the all-stick rest state.

The cells are built directly on the unit sphere. There each plane is a
great circle, and the cells of the central arrangement are the vertices,
arcs and faces of the circle arrangement (Zaslavsky 1975; Edelsbrunner,
*Algorithms in Combinatorial Geometry*, 1987):

  rays     +-(n_i x n_j) for each pair of planes, grouped by the set of
           planes that contain them, so three or more planes may share
           a line;
  facets   the arcs between neighbouring rays around each circle, each
           witnessed by its midpoint;
  regions  the two sides of each facet. Each facet is also one edge of
           the dual region-adjacency graph, a partial cube.

No linear program runs; "plane l contains ray d" means
|n_l . d| <= GEOM_MARGIN (``params.py``). The whole construction takes
O(n^2 log n) for n planes, and the state count is quadratic in the
number of contacts.

The whole arrangement is arrays. The planes (``PlaneArrangement``) are
unit normals plus each contact's (plane, orientation) pairs, one (m, 2)
int array for its tangent plane and one for its separation plane. Each
class of cells (``Cells``) is an int8 sign row and a witness per cell.
Every cell's per-contact labels come from its signs in two gathers;
with detachment, cells whose labels repeat are dropped, the first
occurrence in the order lines, facets, regions kept. The canonical order
is origin first, then by dimension, labels, signs and witness rounded to
ORDER_DIGITS (SlipState.sort_key), but the rank and labels decide it: a
stable sort on the labels, then on the rank. Without detachment every
plane is a tangent plane, so the labels fix the signs, and only the two
rays of a line that every plane contains tie; only there is the rounded
witness read. With detachment the labels do not repeat. A SlipStateSet
keeps those arrays and builds SlipState objects only when they are
first asked for, so a stability query builds none.

minimum_cycle_basis is not part of the construction. Each face of the
dual graph encircles one ray, so the graph's Horton minimum cycle basis
is an independent account of the rays, and the tests check the rays
against it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .model import GraspModel, check_finite, motion_rows
from .params import GEOM_MARGIN, ORDER_DIGITS, PLANE_COINCIDENT, ZERO_PRELOAD

if TYPE_CHECKING:
    from .equilibrium import PreparedStates

__all__ = [
    "DETACHED",
    "LABEL_NAMES",
    "PlaneArrangement",
    "Cells",
    "DualGraph",
    "SlipState",
    "SlipStateSet",
    "line_states",
    "facet_states",
    "enumerate_regions",
    "build_dual_graph",
    "minimum_cycle_basis",
    "enumerate_slip_states",
    "zaslavsky_bound",
]

# per-contact labels: -1 slip-, 0 stick, +1 slip+, 2 detached
DETACHED = 2
LABEL_NAMES = {-1: "slip-", 0: "stick", 1: "slip+", DETACHED: "detached"}

# dimension rank used for canonical ordering (origin first)
_DIMS = ("origin", "line", "facet", "region")
_DIM_RANK = {dim: rank for rank, dim in enumerate(_DIMS)}

# the components that follow and precede each one, for cross products
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


class ArrangementError(RuntimeError):
    """Internal invariant of the enumeration violated."""


@dataclass(eq=False)
class PlaneArrangement:
    """The distinct planes through the origin and each contact's planes."""

    # the planes' unit normals (n, 3), read-only
    normals: np.ndarray
    # per contact (m, 2) int: (plane index, orientation) of its tangent
    # plane and of its separation plane, (-1, 0) where it has none;
    # orientation is +1 when the contact's raw constraint normal is the
    # plane's normal, -1 when it is its negation
    tangent: np.ndarray
    separation: np.ndarray

    @property
    def n_planes(self) -> int:
        return len(self.normals)


def _plane_arrangement(model: GraspModel,
                       detachment: bool) -> PlaneArrangement:
    """Each contact's tangent plane, then, with detachment, each
    zero-preload contact's separation plane. Each unit normal in turn
    takes the first earlier plane it coincides with (|cos| >
    PLANE_COINCIDENT), or a new plane oriented by itself."""
    rows = motion_rows(model)
    m = model.m
    free = np.flatnonzero(model.preload[:, 0] <= ZERO_PRELOAD) \
        if detachment else np.zeros(0, int)
    raws = np.concatenate([rows[1::2], rows[2 * free]])
    # np.linalg.norm's arithmetic, row by row: a stack of vector-vector
    # products is one BLAS dot each
    units = raws / np.sqrt(np.matmul(raws[:, None], raws[:, :, None]))[:, 0]
    dots = units @ units.T
    near = np.abs(dots) > PLANE_COINCIDENT
    cols, refs = [], []  # each plane's row; each row's (plane, orientation)
    # the first row each row coincides with: itself when no earlier one
    for k, j in enumerate(near.argmax(axis=1).tolist()):
        idx = next((idx for idx, col in enumerate(cols) if near[k, col]),
                   None) if j < k else None
        if idx is None:
            idx = len(cols)
            cols.append(k)
        refs.append((idx, 1 if dots[k, cols[idx]] > 0 else -1))
    separation = [(-1, 0)] * m
    for i, ref in zip(free.tolist(), refs[m:]):
        separation[i] = ref
    normals = units[cols]
    normals.flags.writeable = False
    return PlaneArrangement(normals, np.array(refs[:m]), np.array(separation))


@dataclass(eq=False)
class Cells:
    """One class of cells as arrays: row k holds a cell's sign per
    distinct plane and its witness, a unit motion inside the cell."""

    signs: np.ndarray  # (K, planes) int8
    witness: np.ndarray  # (K, 3)

    def __len__(self) -> int:
        return len(self.signs)


@dataclass(eq=False)
class DualGraph:
    """Region-adjacency graph: vertices are regions, edges cross one plane."""

    n_vertices: int
    edges: list[tuple[int, int, int]]  # (region a, region b, plane crossed)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_faces(self) -> int:
        # Euler-Poincare on the spherical embedding
        return self.n_edges - self.n_vertices + 2

    def adjacency(self) -> list[list[tuple[int, int]]]:
        adj = [[] for _ in range(self.n_vertices)]
        for eidx, (a, b, _plane) in enumerate(self.edges):
            adj[a].append((b, eidx))
            adj[b].append((a, eidx))
        return adj


def _packed(rows: np.ndarray) -> np.ndarray:
    """Rows of entries in -1..2 as float64 words (words, rows).

    Base 4, 26 entries to a word, the first entry the most significant,
    so comparing the words in turn compares the rows lexicographically.
    Each word is an integer below 2**52, so its BLAS product is exact.
    """
    width = rows.shape[1]
    return np.array([
        rows[:, lo:lo + 26] @ 4.0 ** np.arange(min(26, width - lo) - 1, -1, -1)
        for lo in range(0, max(width, 1), 26)])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a x b: np.cross's products and differences, without its
    per-call overhead."""
    return a.take(_NEXT, axis=1) * b.take(_PREV, axis=1) \
        - a.take(_PREV, axis=1) * b.take(_NEXT, axis=1)


def _first_rows(keys: np.ndarray) -> np.ndarray:
    """Ascending positions of the first occurrence of each distinct
    column of keys (words, N)."""
    return np.sort(_grouped(keys)[0])


def _grouped(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first position of each distinct column of keys (words, N), in
    the columns' lexicographic order, and the positions in that order."""
    # a stable sort lists each run of equal keys by position
    order = np.lexsort(keys[::-1])
    ordered = keys.take(order, axis=1)
    new = np.ones(len(order), bool)
    new[1:] = np.logical_or.reduce(ordered[:, 1:] != ordered[:, :-1])
    return order[new], order


@lru_cache
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs i < j of n planes in np.triu_indices order, and the flat
    positions of (k, i) and (k, j) for pair k in a (pairs, n) array."""
    first, second = np.triu_indices(n, 1)
    rows = n * np.arange(len(first))
    out = first, second, np.concatenate([rows + first, rows + second])
    for a in out:
        a.flags.writeable = False
    return out


def line_states(arr: PlaneArrangement) -> Cells:
    """Ray cells: the two rays of every line in which planes meet.

    Planes i < j meet along d = n_i x n_j. Pairs are grouped by the set Z
    of planes that contain d (|n . d| <= GEOM_MARGIN), so three or more
    planes through one line give one pair of rays: a pair gives rays
    unless an earlier pair that gave rays has both its planes in Z. A
    ray's signs are sign(n . d) off Z and 0 on Z; when every plane
    contains the line both rays have the all-zero sign vector and only
    their witnesses differ. The rays +d, -d of each line follow each
    other, lines in pair order.
    """
    n = arr.n_planes
    if n < 2:
        return Cells(np.zeros((0, n), np.int8), np.zeros((0, 3)))
    normals = arr.normals
    first, second, own = _pairs(n)
    dirs = _cross(normals.take(first, axis=0), normals.take(second, axis=0))
    # np.linalg.norm's arithmetic
    dirs /= np.sqrt(np.add.reduce(dirs * dirs, axis=1))[:, None]
    vals = dirs @ normals.T
    # sign(n . d), and 0 on Z
    signs = (vals > GEOM_MARGIN).view(np.int8) \
        - (vals < -GEOM_MARGIN).view(np.int8)
    signs.reshape(-1)[own] = 0

    # only a Z of three or more planes holds a pair besides its own;
    # such a pair, if it gives rays, covers every later pair in its Z
    keep = np.ones(len(first), bool)
    if np.count_nonzero(signs) < signs.size - 2 * len(first):
        zero = signs == 0
        for k in np.flatnonzero(zero.sum(axis=1) > 2).tolist():
            if keep[k]:
                covered = zero[k, first] & zero[k, second]
                covered[:k + 1] = False
                keep[covered] = False
    # the rays +d, -d of each line in turn
    signs = np.repeat(signs.compress(keep, axis=0), 2, axis=0)
    rays = np.repeat(dirs.compress(keep, axis=0), 2, axis=0)
    signs[1::2] *= -1
    rays[1::2] *= -1
    return Cells(signs, rays)


def facet_states(arr: PlaneArrangement, lines: Cells) -> Cells:
    """Facet cells: the arcs between neighbouring rays around each circle.

    The rays on plane i's circle are those with sign 0 at i. Sorted by
    angle in an orthonormal basis of the plane, each arc between
    neighbours is one facet, witnessed by its midpoint. Two planes meet
    in a line, so with two or more planes every circle holds rays; a
    single plane's circle is one facet. Facets are listed circle by
    circle, by angle within each.
    """
    normals = arr.normals
    n = len(normals)
    e1 = _cross(normals, np.eye(3)[np.argmin(np.abs(normals), axis=1)])
    # np.linalg.norm's arithmetic, row by row
    e1 /= np.sqrt(np.matmul(e1[:, None], e1[:, :, None]))[:, 0]
    e2 = _cross(normals, e1)
    if len(lines):
        # each circle's rays, gathered once, circle by circle
        plane, ray = np.nonzero(lines.signs.T == 0)
        mine = lines.witness.take(ray, axis=0)
        counts = np.bincount(plane, minlength=n)
        ends = np.cumsum(counts)
        # one matrix-vector product per circle and basis vector, both in
        # one call: any other form of these dots moves the witnesses'
        # last bits
        basis = np.concatenate([e1, e2], axis=1).reshape(n, 2, 3, 1)
        xy = np.empty((2, len(ray), 1))
        lo = 0
        for i, hi in enumerate(ends.tolist()):
            np.matmul(mine[lo:hi], basis[i], out=xy[:, lo:hi])
            lo = hi
        x, y = xy[:, :, 0]
        # numpy sorts complex numbers by real part, then imaginary part:
        # by circle, then by angle
        key = np.empty(len(ray), complex)
        key.real = plane
        key.imag = np.arctan2(y, x)
        key.sort()
        ang = key.imag
        # each ray's arc runs to the next ray; the last one's wraps round
        # to its circle's first
        after = np.empty(len(ang))
        after[:-1] = ang[1:]
        after[ends - 1] = ang[ends - counts] + 2 * np.pi
        mids = 0.5 * (ang + after)
    else:
        plane = np.arange(n)
        mids = np.zeros(n)  # a lone circle's facet sits at angle 0
    witness = np.cos(mids)[:, None] * e1.take(plane, axis=0) \
        + np.sin(mids)[:, None] * e2.take(plane, axis=0)
    signs = np.sign(witness @ normals.T).astype(np.int8)
    signs[np.arange(len(plane)), plane] = 0
    return Cells(signs, witness)


def enumerate_regions(arr: PlaneArrangement, facets: Cells) -> Cells:
    """Region cells: both sides of every facet, deduplicated by sign vector.

    A facet of plane i with witness z has the side witnesses z +- delta*n_i,
    where delta is half of min over j != i of |n_j . z|, so no other sign
    changes. Each region keeps its first side in the order facet by
    facet, + before -.
    """
    normals = arr.normals
    k = len(facets)
    facet = np.arange(k)
    plane = np.argmin(facets.signs != 0, axis=1)  # the first zero sign
    # (planes, facets), so the minimum runs over contiguous rows
    dist = np.abs(facets.witness @ normals.T).T.copy()
    dist[plane, facet] = np.inf
    step = (0.5 * dist.min(axis=0, initial=1.0))[:, None] \
        * normals.take(plane, axis=0)
    # the + side of each facet, then its - side
    signs = np.repeat(facets.signs, 2, axis=0)
    signs[2 * facet, plane] = 1
    signs[2 * facet + 1, plane] = -1
    witness = np.empty((2 * k, 3))
    witness[0::2] = facets.witness + step
    witness[1::2] = facets.witness - step
    first = _first_rows(_packed(signs))
    return Cells(signs.take(first, axis=0), witness.take(first, axis=0))


def build_dual_graph(regions: Cells, facets: Cells) -> DualGraph:
    """One edge per facet, between the two regions on either side of it."""
    index = {tuple(row): k for k, row in enumerate(regions.signs.tolist())}
    edges = []
    for row in facets.signs.tolist():
        i = row.index(0)
        a, b = sorted(index[tuple(row[:i] + [s] + row[i + 1:])]
                      for s in (1, -1))
        edges.append((a, b, i))
    return DualGraph(n_vertices=len(regions), edges=edges)


def minimum_cycle_basis(graph: DualGraph) -> list[frozenset[int]]:
    """Minimum cycle basis by Horton's candidate set + greedy GF(2) pick.

    Cycles are edge-index sets. Deterministic: BFS trees use ascending
    neighbour order and candidates are ranked by (length, edge indices).
    """
    V, E = graph.n_vertices, graph.n_edges
    if E == 0:
        return []
    adj = graph.adjacency()
    for lst in adj:
        lst.sort()
    target = E - V + 1
    if target <= 0:
        return []

    # BFS trees from every vertex; per-vertex path edge/vertex bitmasks
    candidates = {}
    for root in range(V):
        edge_mask = [0] * V
        node_mask = [0] * V
        node_mask[root] = 1 << root
        seen = [False] * V
        seen[root] = True
        q = deque([root])
        order = 1
        while q:
            u = q.popleft()
            for v, eidx in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    order += 1
                    edge_mask[v] = edge_mask[u] | (1 << eidx)
                    node_mask[v] = node_mask[u] | (1 << v)
                    q.append(v)
        if order != V:
            raise ArrangementError("dual graph is disconnected")
        root_bit = 1 << root
        for eidx, (x, y, _plane) in enumerate(graph.edges):
            # Horton validity: the two tree paths meet only at the root
            if node_mask[x] & node_mask[y] != root_bit:
                continue
            mask = edge_mask[x] ^ edge_mask[y] ^ (1 << eidx)
            if mask and mask not in candidates:
                candidates[mask] = bin(mask).count("1")

    ranked = sorted(candidates, key=lambda m: (candidates[m], m))
    basis: list[int] = []
    echelon: list[int] = []  # reduced masks, each with a unique pivot bit
    for mask in ranked:
        red = mask
        for b in echelon:
            if red & b & -b:
                red ^= b
        if red:
            echelon.append(red)
            echelon.sort(key=lambda x: x & -x)
            basis.append(mask)
            if len(basis) == target:
                break
    if len(basis) != target:
        raise ArrangementError(
            f"cycle basis incomplete: found {len(basis)} of {target}")
    return [_mask_to_edges(m) for m in basis]


def _mask_to_edges(mask: int) -> frozenset[int]:
    out = set()
    i = 0
    while mask:
        if mask & 1:
            out.add(i)
        mask >>= 1
        i += 1
    return frozenset(out)


@dataclass(eq=False)
class SlipState:
    """Per-contact slip labels together with the cell that produced them."""

    labels: tuple[int, ...]
    dim: str
    signs: tuple[int, ...] | None
    witness: np.ndarray | None
    index: int = -1

    @property
    def label_names(self) -> tuple[str, ...]:
        return tuple(LABEL_NAMES[l] for l in self.labels)

    def sort_key(self):
        w = tuple(np.round(self.witness, ORDER_DIGITS)) \
            if self.witness is not None else ()
        return (_DIM_RANK[self.dim], self.labels, self.signs or (), w)


@dataclass(eq=False)
class SlipStateSet:
    """Canonically ordered slip states of a grasp (origin state first).

    The states are kept as arrays in canonical order: ``labels`` (S, m)
    and ``signs`` (S, planes), both int8, ``witness`` (S, 3) and
    ``dim_rank`` (S,), 0 for the origin, 1 for rays, 2 for facets and 3
    for regions. The origin's signs and witness are zero. ``cells`` holds
    the arrangement's cells of each class as Cells. SlipState objects
    (``states``, iteration) are built when first asked for; a stability
    query needs none of them.

    ``model`` is the grasp the states were enumerated for. Their linear
    systems depend on it alone, so ``prepared``, the states' systems
    condensed and factored as one batch (see PreparedStates), is built
    the first time a query asks for it and serves every later query and
    sweep on this set.
    """

    model: GraspModel
    labels: np.ndarray
    dim_rank: np.ndarray
    signs: np.ndarray
    witness: np.ndarray
    arrangement: PlaneArrangement
    detachment: bool
    cells: dict[str, Cells]

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.states)

    @cached_property
    def states(self) -> list[SlipState]:
        signs = [None] + [tuple(s) for s in self.signs[1:].tolist()]
        return [SlipState(labels=tuple(labels), dim=_DIMS[rank], signs=sg,
                          witness=w, index=k)
                for k, (labels, rank, sg, w) in enumerate(zip(
                    self.labels.tolist(), self.dim_rank.tolist(), signs,
                    self.witness))]

    @cached_property
    def prepared(self) -> PreparedStates:
        """The states' systems as one batch, in canonical order."""
        # imported here, not at the top: equilibrium imports this module
        from .equilibrium import PreparedStates
        return PreparedStates(self.model, self.labels, range(len(self)))

    @property
    def cell_counts(self) -> dict[str, int]:
        return {kind: len(c) for kind, c in self.cells.items()}

    @property
    def count_excluding_origin(self) -> int:
        return sum(map(len, self.cells.values()))


def _cell_labels(signs: np.ndarray, arr: PlaneArrangement) -> np.ndarray:
    """Per-contact slip labels (K, m), int8, of cells with plane signs
    (K, planes): each tangent sign, oriented, or DETACHED on the
    separating side of a separation plane."""
    labels = signs.take(arr.tangent[:, 0], axis=1) \
        * arr.tangent[:, 1].astype(np.int8)
    plane, orient = arr.separation.T
    if orient.any():
        # orientation 0 marks a contact without a separation plane
        away = (signs.take(plane, axis=1) * orient.astype(np.int8) < 0).view(
            np.int8)
        labels += away * (DETACHED - labels)
    return labels


def enumerate_slip_states(model: GraspModel, *,
                          detachment: bool | None = None) -> SlipStateSet:
    """Every slip state consistent with some rigid object motion.

    With detachment enabled, cells on the separating side of a
    zero-preload contact's plane are relabelled 'detached' (tangent sign
    erased) and duplicate label vectors collapse to their first cell in
    the order lines, facets, regions; without it the states are exactly
    the arrangement's cells. The all-stick origin state is always
    present and always first. The rest follow SlipState.sort_key, which
    the rank and labels decide but for the two rays of a line that every
    plane contains. The set records model, the one grasp its states may
    be solved for, and condenses no system until a query asks for it. A
    model without contacts, with a non-finite number or with a
    zero-length normal is a ValueError (check_finite).
    """
    check_finite(model)
    if detachment is None:
        detachment = model.options.detachment
    arr = _plane_arrangement(model, detachment)

    lines = line_states(arr)
    facets = facet_states(arr, lines)
    regions = enumerate_regions(arr, facets)
    kinds = (lines, facets, regions)

    # the origin heads the arrays, with zero signs and witness
    signs = np.concatenate([np.zeros((1, arr.n_planes), np.int8),
                            *(c.signs for c in kinds)])
    witness = np.concatenate([np.zeros((1, 3)), *(c.witness for c in kinds)])
    rank = np.repeat(np.arange(4, dtype=np.int8),
                     [1, *(len(c) for c in kinds)])
    labels = _cell_labels(signs, arr)
    # canonical order, SlipState.sort_key's: by labels, then stably by
    # rank, so the origin's rank 0 puts it first. With detachment the
    # first cell of each label vector is kept, and the order is decided.
    # Without it every plane is a tangent plane, so the labels fix the
    # signs. Only the all-zero labels repeat: on the origin, on a lone
    # plane's facet and on the two rays of a line that every plane
    # contains, which alone tie and are ordered by their witnesses
    first, by_labels = _grouped(_packed(labels))
    tie = []
    if not detachment:
        if len(first) < len(by_labels):
            tie = np.flatnonzero(~lines.signs.any(axis=1)) + 1
        first = by_labels
    order = first.take(np.argsort(rank.take(first), kind="stable"))
    if len(tie):
        # neighbours in order, by position; the rounded witness decides
        a, b = np.round(witness[tie], ORDER_DIGITS).tolist()
        if b < a:
            at = np.flatnonzero(order == tie[0])[0]
            order[at:at + 2] = tie[::-1]

    return SlipStateSet(
        model=model,
        labels=labels.take(order, axis=0),
        dim_rank=rank.take(order),
        signs=signs.take(order, axis=0),
        witness=witness.take(order, axis=0),
        arrangement=arr,
        detachment=detachment,
        cells={"regions": regions, "facets": facets, "lines": lines},
    )


def zaslavsky_bound(n: int, d: int, k: int) -> int:
    """Upper bound on the number of k-faces of n hyperplanes in d-space."""
    if n < 0 or d < 0 or not 0 <= k <= d:
        raise ValueError(f"require n, d >= 0 and 0 <= k <= d, got n={n}, d={d}, k={k}")
    return math.comb(n, d - k) * sum(math.comb(max(n - d + k, 0), i) for i in range(k + 1))
