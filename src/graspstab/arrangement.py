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

minimum_cycle_basis is not part of the construction. Each face of the
dual graph encircles one ray, so the graph's Horton minimum cycle basis
is an independent account of the rays, and the tests check the rays
against it.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .model import GraspMaps, GraspModel, build_maps
from .params import GEOM_MARGIN, PLANE_COINCIDENT, ZERO_PRELOAD

__all__ = [
    "DETACHED",
    "LABEL_NAMES",
    "OrientedPlane",
    "PlaneArrangement",
    "CellState",
    "DualGraph",
    "SlipState",
    "SlipStateSet",
    "tangent_planes",
    "separation_planes",
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
_DIM_RANK = {"origin": 0, "line": 1, "facet": 2, "region": 3}


class ArrangementError(RuntimeError):
    """Internal invariant of the enumeration violated."""


@dataclass(eq=False)
class OrientedPlane:
    """A distinct plane through the origin."""

    normal: np.ndarray


@dataclass(eq=False)
class PlaneArrangement:
    planes: list[OrientedPlane] = field(default_factory=list)
    # per contact: (plane index, orientation); orientation is +1 when the
    # contact's raw constraint normal is the plane's normal, -1 when it is
    # its negation
    tangent_ref: dict[int, tuple[int, int]] = field(default_factory=dict)
    separation_ref: dict[int, tuple[int, int]] = field(default_factory=dict)

    @property
    def n_planes(self) -> int:
        return len(self.planes)

    def normals(self) -> np.ndarray:
        return np.array([p.normal for p in self.planes]).reshape(-1, 3)

    def _add(self, raw: np.ndarray, contact: int, role: str) -> None:
        p = raw / np.linalg.norm(raw)
        for idx, plane in enumerate(self.planes):
            dot = float(plane.normal @ p)
            if abs(dot) > PLANE_COINCIDENT:
                self._ref(role)[contact] = (idx, 1 if dot > 0 else -1)
                return
        self.planes.append(OrientedPlane(normal=p))
        self._ref(role)[contact] = (len(self.planes) - 1, 1)

    def _ref(self, role):
        return self.tangent_ref if role == "tangent" else self.separation_ref


def tangent_planes(maps: GraspMaps) -> PlaneArrangement:
    """One oriented plane per distinct zero-tangential-motion constraint."""
    arr = PlaneArrangement()
    m = maps.motion.shape[1] // 2
    for i in range(m):
        arr._add(maps.motion[:, 2 * i + 1].copy(), i, "tangent")
    return arr


def separation_planes(model: GraspModel, maps: GraspMaps,
                      arr: PlaneArrangement) -> PlaneArrangement:
    """Extend the arrangement with separation planes of zero-preload contacts."""
    for i in range(model.m):
        if model.preload[i, 0] <= ZERO_PRELOAD:
            arr._add(maps.motion[:, 2 * i].copy(), i, "separation")
    return arr


@dataclass(eq=False)
class CellState:
    """A cell of the arrangement: sign per distinct plane plus a witness."""

    signs: tuple[int, ...]
    dim: str  # region | facet | line | origin
    witness: np.ndarray


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


def line_states(arr: PlaneArrangement) -> list[CellState]:
    """Ray cells: the two rays of every line in which planes meet.

    Planes i < j meet along d = n_i x n_j. Pairs are grouped by the set Z
    of planes that contain d (|n . d| <= GEOM_MARGIN), so three or more
    planes through one line give one pair of rays. A ray's signs are
    sign(n . d) off Z and 0 on Z; when every plane contains the line both
    rays have the all-zero sign vector and only their witnesses differ.
    """
    pairs = list(itertools.combinations(range(arr.n_planes), 2))
    if not pairs:
        return []
    normals = arr.normals()
    first, second = np.array(pairs).T
    dirs = np.cross(normals[first], normals[second])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    vals = dirs @ normals.T
    zero = np.abs(vals) <= GEOM_MARGIN
    rows = np.arange(len(pairs))
    zero[rows, first] = zero[rows, second] = True
    signs = np.where(zero, 0, np.sign(vals)).astype(int)

    out: list[CellState] = []
    covered: set[tuple[int, int]] = set()
    for k, pair in enumerate(pairs):
        if pair in covered:
            continue
        covered.update(itertools.combinations(np.flatnonzero(zero[k]).tolist(), 2))
        for s in (1, -1):
            out.append(CellState(signs=tuple((s * signs[k]).tolist()), dim="line",
                                 witness=s * dirs[k]))
    return out


def facet_states(arr: PlaneArrangement, lines: list[CellState]) -> list[CellState]:
    """Facet cells: the arcs between neighbouring rays around each circle.

    The rays on plane i's circle are those with sign 0 at i. Sorted by
    angle in an orthonormal basis of the plane, each arc between
    neighbours is one facet, witnessed by its midpoint. A circle that no
    other plane crosses (a single plane) is one facet.
    """
    normals = arr.normals()
    rays = np.array([c.witness for c in lines]).reshape(-1, 3)
    on_circle = np.array([c.signs for c in lines], dtype=int).reshape(
        -1, arr.n_planes) == 0
    out: list[CellState] = []
    for i, normal in enumerate(normals):
        e1 = np.cross(normal, np.eye(3)[np.argmin(np.abs(normal))])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(normal, e1)
        mine = rays[on_circle[:, i]]
        ang = np.sort(np.arctan2(mine @ e2, mine @ e1))
        mid = 0.5 * (ang + np.append(ang[1:], ang[:1] + 2 * np.pi)) \
            if len(ang) else np.zeros(1)
        witnesses = np.outer(np.cos(mid), e1) + np.outer(np.sin(mid), e2)
        signs = np.sign(witnesses @ normals.T).astype(int)
        signs[:, i] = 0
        for z, s in zip(witnesses, signs):
            out.append(CellState(signs=tuple(s.tolist()), dim="facet", witness=z))
    return out


def _side(signs: tuple[int, ...], plane: int, s: int) -> tuple[int, ...]:
    return signs[:plane] + (s,) + signs[plane + 1:]


def enumerate_regions(arr: PlaneArrangement, facets: list[CellState]
                      ) -> list[CellState]:
    """Region cells: both sides of every facet, deduplicated by sign vector.

    A facet of plane i with witness z has the side witnesses z +- delta*n_i,
    where delta is half of min over j != i of |n_j . z|, so no other sign
    changes.
    """
    normals = arr.normals()
    planes = [f.signs.index(0) for f in facets]
    dist = np.abs(np.array([f.witness for f in facets]).reshape(-1, 3) @ normals.T)
    dist[np.arange(len(facets)), planes] = np.inf
    deltas = 0.5 * np.min(dist, axis=1, initial=1.0)
    regions: dict[tuple[int, ...], CellState] = {}
    for facet, i, delta in zip(facets, planes, deltas):
        for s in (1, -1):
            signs = _side(facet.signs, i, s)
            if signs not in regions:
                regions[signs] = CellState(
                    signs=signs, dim="region",
                    witness=facet.witness + s * delta * normals[i])
    return list(regions.values())


def build_dual_graph(regions: list[CellState], facets: list[CellState]) -> DualGraph:
    """One edge per facet, between the two regions on either side of it."""
    index = {r.signs: k for k, r in enumerate(regions)}
    edges = []
    for facet in facets:
        i = facet.signs.index(0)
        a, b = sorted((index[_side(facet.signs, i, 1)],
                       index[_side(facet.signs, i, -1)]))
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
        w = tuple(np.round(self.witness, 9)) if self.witness is not None else ()
        return (_DIM_RANK[self.dim], self.labels, self.signs or (), w)


@dataclass(eq=False)
class SlipStateSet:
    """Canonically ordered slip states of a grasp (origin state first)."""

    states: list[SlipState]
    arrangement: PlaneArrangement
    graph: DualGraph
    cell_counts: dict[str, int]
    detachment: bool
    cells: dict[str, list[CellState]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    @property
    def count_excluding_origin(self) -> int:
        return self.cell_counts["regions"] + self.cell_counts["facets"] \
            + self.cell_counts["lines"]


def cell_labels(cell: CellState, arr: PlaneArrangement, m: int,
                detachment: bool) -> tuple[int, ...]:
    """Map a cell's plane signs to per-contact slip labels."""
    labels = []
    for i in range(m):
        if detachment and i in arr.separation_ref:
            jidx, orient = arr.separation_ref[i]
            if orient * cell.signs[jidx] < 0:
                labels.append(DETACHED)
                continue
        jidx, orient = arr.tangent_ref[i]
        labels.append(orient * cell.signs[jidx])
    return tuple(labels)


def enumerate_slip_states(model: GraspModel, *,
                          detachment: bool | None = None) -> SlipStateSet:
    """Every slip state consistent with some rigid object motion.

    With detachment enabled, cells on the separating side of a
    zero-preload contact's plane are relabelled 'detached' (tangent sign
    erased) and duplicate label vectors collapse; without it the states
    are exactly the arrangement's cells. The all-stick origin state is
    always present and always first.
    """
    maps = build_maps(model)
    if detachment is None:
        detachment = model.options.detachment
    arr = tangent_planes(maps)
    if detachment:
        separation_planes(model, maps, arr)

    lines = line_states(arr)
    facets = facet_states(arr, lines)
    regions = enumerate_regions(arr, facets)
    graph = build_dual_graph(regions, facets)

    m = model.m
    states = [SlipState(labels=(0,) * m, dim="origin", signs=None,
                        witness=np.zeros(3))]
    seen_labels = {states[0].labels} if detachment else set()
    for cell in itertools.chain(lines, facets, regions):
        labels = cell_labels(cell, arr, m, detachment)
        if detachment:
            if labels in seen_labels:
                continue
            seen_labels.add(labels)
        states.append(SlipState(labels=labels, dim=cell.dim, signs=cell.signs,
                                witness=cell.witness))
    states[1:] = sorted(states[1:], key=SlipState.sort_key)
    for i, st in enumerate(states):
        st.index = i

    return SlipStateSet(
        states=states,
        arrangement=arr,
        graph=graph,
        cell_counts={"regions": len(regions), "facets": len(facets),
                     "lines": len(lines)},
        detachment=detachment,
        cells={"regions": regions, "facets": facets, "lines": lines},
    )


def zaslavsky_bound(n: int, d: int, k: int) -> int:
    """Upper bound on the number of k-faces of n hyperplanes in d-space."""
    import math

    if n < 0 or d < 0 or not 0 <= k <= d:
        raise ValueError(f"require n, d >= 0 and 0 <= k <= d, got n={n}, d={d}, k={k}")
    return math.comb(n, d - k) * sum(math.comb(max(n - d + k, 0), i) for i in range(k + 1))
