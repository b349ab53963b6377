"""Per-slip-state equilibrium systems and their solution.

For a fixed slip state the balance of the grasp is linear: equilibrium
(3 rows), the normal spring law at attached contacts, friction pinned to
the cone edge at slipping contacts, zero tangential motion at sticking
contacts, and zero force at detached contacts give a square system in
(d, c). The labels fix every force but the tangential force of each
sticking contact as an affine map of the motion d, so a state with s
sticking contacts condenses to a (3 + s)-square system in (d, those
forces). The load enters only the three equilibrium rows of its
right-hand side, so a grasp's states are prepared once, as one batch:
condensed at zero load, grouped by s with one SVD call per group, and
expanded back to each state's solution family x_p(w) + N z in the full
unknowns, as affine maps of the wrench w. A direct state (N empty) is
decided by its slacks at x_p(w), all of a grasp's at once. So is a
singular state of nullity 1, whose screen LP in its one null-space
coordinate is an interval of it (``PreparedStates.candidates``); any
other state is decided in its null space, one at a time. The canonical
witness's slip speeds of both kinds come from the same arrays
(``PreparedStates.slip_speeds``): a direct state's at x_p(w), and one
of nullity 1 at the end of its interval that the witness's objectives
pick, the one-variable case of its LP. Along a ray of loads w = t u the
maps are affine in t, so each state holds on an interval of t, found
without probing (``PreparedStates.stable_intervals``). This module
poses every LP over a singular state: the screen that decides it, the
ends of its span along a ray, the two boxes of its point (the first
sized from x_p(w), then X_MAX) and the canonical witness's LP, run
only where the batch cannot read a point or the point is returned.
Each runs over x = x_p + N z, in the k null-space coordinates (m - 3 at
the all-stick origin state), on the state's own inequality rows a_in N
that slicing stores once per state, with each z_i boxed by its bounds;
N is orthonormal and x_p orthogonal to it, so |z| is the distance of x
from the least-norm point. One exact engine solves them all, Seidel's
incremental algorithm (``nullspace_lp.small_lp``), and its batched
one-variable twins decide the screens of nullity 1 and place the
witness's points on their lines (``nullspace_lp.lines_hold`` and
``lines_point``).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import nullspace_lp
from .arrangement import DETACHED, LABEL_NAMES
from .model import (GraspMaps, GraspModel, as_wrench, build_maps, cross2,
                    tangent_of)
from .params import (BOX_HIT, EQ_RESIDUAL, FLAT_REL, INEQ_SLACK,
                     LADDER_START, LP_REL, MARGIN_CAP, PROJECTION_SKIP,
                     RANK_EPS, X_MAX)

__all__ = [
    "StateSystem",
    "EquilibriumSolution",
    "PreparedState",
    "PreparedStates",
    "assemble_state_system",
    "solve_state",
    "linear_feasibility",
    "check_solution",
]


@dataclass(eq=False)
class StateSystem:
    """Linear system of one slip state over x = (d[3], c[2m]).

    Equalities a_eq x = b_eq; inequalities a_in x >= 0, whose right-hand
    side is zero in every state. ineq_kind tags each inequality row
    (unilateral / cone / slip_sign / separation) and slip_dirs maps
    slipping contacts to the d-row of their tangential motion, used by
    the canonical-witness selection. Its solutions and their factor are
    those of the state's ``PreparedState``.
    """

    labels: tuple[int, ...]
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_in: np.ndarray
    ineq_kind: list[str]
    slip_dirs: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.a_eq.shape[1]

    def at(self, w: np.ndarray) -> StateSystem:
        """The same state under the wrench w (its equilibrium rows' rhs)."""
        moved = copy.copy(self)
        moved.b_eq = self.b_eq.copy()
        moved.b_eq[:3] = -w
        return moved


@dataclass(eq=False)
class EquilibriumSolution:
    """A motion/force pair satisfying one slip state's constraints."""

    d: np.ndarray
    forces: np.ndarray  # (m, 2) contact-frame (c_n, c_t)
    labels: tuple[int, ...]
    state_index: int
    max_eq_residual: float
    min_ineq_slack: float

    @property
    def label_names(self):
        return tuple(LABEL_NAMES[l] for l in self.labels)


# Each contact owns three inequality slots; _KINDS names the rows a
# label fills, in slot order (indexed by label + 1: slip- 0, stick 1,
# slip+ 2, detached 3), and the rest are padding.
_KINDS = (("unilateral", "slip_sign"), ("unilateral", "cone", "cone"),
          ("unilateral", "slip_sign"), ("separation",))
_SLOT_VALID = np.array([[s < len(kinds) for s in range(3)] for kinds in _KINDS])


def _system(model: GraspModel, maps: GraspMaps,
            labels: tuple[int, ...]) -> StateSystem:
    """One state's StateSystem at zero load, built from its own labels'
    rows: contact i owns equality rows 3+2i and 4+2i and, in contact
    order, one inequality row when detached, two when slipping and three
    when sticking."""
    n = 3 + 2 * model.m
    a_eq, b_eq = np.zeros((n, n)), np.zeros(n)
    # net wrench of contact forces balances the applied wrench
    a_eq[:3, 3:] = maps.wrench
    kinds = [kind for label in labels for kind in _KINDS[label + 1]]
    a_in = np.zeros((len(kinds), n))
    spring = -model.stiffness * maps.motion[:, 0::2]
    slip_dirs = {}
    r = 0
    for i, label in enumerate(labels):
        cn, ct = 3 + 2 * i, 4 + 2 * i
        a_eq[cn, cn] = 1.0
        if label == DETACHED:
            # no force, and no penetration: delta_n <= 0 (the wrench's
            # normal column is -ncol)
            a_eq[ct, ct] = 1.0
            a_in[r, :3] = maps.wrench[:, 2 * i]
            r += 1
            continue
        # attached: normal spring law c_n = c0_n + k * delta_n, unilaterality
        a_eq[cn, :3] = spring[:, i]
        b_eq[cn] = model.preload[i, 0]
        a_in[r, cn] = 1.0
        mu = model.contacts[i].mu
        if label == 0:
            # sticking: no tangential motion, friction inside the cone
            a_eq[ct, :3] = maps.motion[:, 2 * i + 1]
            a_in[r + 1, cn] = a_in[r + 2, cn] = mu
            a_in[r + 1, ct], a_in[r + 2, ct] = -1.0, 1.0
            r += 3
        else:
            # slipping: friction on the cone edge opposing the motion
            # (label -1: c_t = +mu c_n; +1: c_t = -mu c_n), and the
            # assumed slip direction must agree
            a_eq[ct, ct] = 1.0
            a_eq[ct, cn] = mu * label
            slip_dirs[i] = a_in[r + 1, :3] = label * maps.motion[:, 2 * i + 1]
            r += 2
    return StateSystem(labels=labels, a_eq=a_eq, b_eq=b_eq, a_in=a_in,
                       ineq_kind=kinds, slip_dirs=slip_dirs)


def assemble_state_system(model: GraspModel, w, labels: tuple) -> StateSystem:
    """Build the equality/inequality blocks for one slip state.

    Contact i owns equality rows 3+2i and 4+2i and, in contact order,
    one inequality row when detached, two when slipping and three when
    sticking. Every inequality's right-hand side is zero.
    """
    return _system(model, build_maps(model), tuple(labels)).at(as_wrench(w))


def _project_onto_equalities(a_eq, b_eq, x: np.ndarray) -> np.ndarray:
    """Minimal-norm correction pulling x onto the equality manifold."""
    residual = a_eq @ x - b_eq
    if np.max(np.abs(residual)) < PROJECTION_SKIP:
        return x
    corr, *_ = np.linalg.lstsq(a_eq, residual, rcond=None)
    return x - corr


def _solution_from_x(sys: StateSystem, x: np.ndarray,
                     state_index: int) -> EquilibriumSolution:
    eq_res = float(np.max(np.abs(sys.a_eq @ x - sys.b_eq)))
    slack = float(np.min(sys.a_in @ x))
    return EquilibriumSolution(
        d=x[:3].copy(), forces=x[3:].reshape(-1, 2).copy(), labels=sys.labels,
        state_index=state_index, max_eq_residual=eq_res, min_ineq_slack=slack,
    )


@dataclass(eq=False)
class PreparedState:
    """One slip state's system at zero load and its solution family.

    The load w enters only b_eq, so all of these are affine in w. One
    numerical rank, the condensed block's singular values above RANK_EPS
    (3 + s) s_max, decides all of them. The equalities' solutions are
    x_p(w) + null @ z, with x_p(w) = x0 + gain @ w their least-norm
    solution, from the pseudo-inverse of the condensed system at that
    rank, and its inequality slacks a_in x_p(w) = s0 + slack_gain @ w.
    The equalities are consistent when cons0 + cons_gain @ w, their
    right-hand side in an orthonormal basis of their left null space at
    the same rank (zero-padded to 3 + m rows), is small enough
    (``_eq_tol``, with b_max the largest |b_eq[3:]|). A direct state has
    an empty null basis and rows None; a singular one's rows a_in N, its
    inequalities in the null-space coordinates z, start each of its LPs,
    whose box bounds z alone.
    """

    system: StateSystem
    index: int
    x0: np.ndarray
    gain: np.ndarray
    s0: np.ndarray
    slack_gain: np.ndarray
    null: np.ndarray
    rows: np.ndarray | None
    cons0: np.ndarray
    cons_gain: np.ndarray
    b_max: float

    @property
    def direct(self) -> bool:
        return self.null.shape[1] == 0

    def solution_at(self, w: np.ndarray) -> EquilibriumSolution:
        """The solution x_p(w) under w: a direct state's only one."""
        return _solution_from_x(self.system.at(w), self.x0 + self.gain @ w,
                                self.index)

    def passes_screen(self, w: np.ndarray) -> bool:
        """Whether the singular state passes the tests that decide it under
        w: the consistency test of its equalities, then one feasibility
        LP over its whole null space, some x = x_p(w) + N z with a_in x >=
        -INEQ_SLACK and each |z_i| <= X_MAX. Both reject only what
        ``linear_feasibility`` would, whose two boxes on z lie within
        X_MAX and whose points need that slack."""
        # a point is accepted only where its max-norm residual is at
        # most eq_tol, hence whose 2-norm residual is at most sqrt(rows) *
        # eq_tol, and no point has a smaller residual than the norm of
        # b_eq in the left null basis
        if np.linalg.norm(self.cons0 + self.cons_gain @ w) > \
                np.sqrt(self.system.n) * _eq_tol(w, self.b_max)[1]:
            return False
        k = self.null.shape[1]
        return nullspace_lp.small_lp(
            self.rows, -(self.s0 + self.slack_gain @ w + INEQ_SLACK),
            np.zeros(k), np.full(k, -X_MAX), np.full(k, X_MAX)) is not None


def _inverse_cholesky(a: np.ndarray) -> np.ndarray:
    """L^-1 of each positive definite 3 x 3 block L L^T of a (S, 3, 3), in
    closed form across the stack: one LAPACK call per block costs more
    than the arithmetic."""
    (a11, _, _), (a21, a22, _), (a31, a32, a33) = a.transpose(1, 2, 0)
    l11 = np.sqrt(a11)
    l21, l31 = a21 / l11, a31 / l11
    l22 = np.sqrt(a22 - l21 * l21)
    l32 = (a32 - l31 * l21) / l22
    l33 = np.sqrt(a33 - l31 * l31 - l32 * l32)
    inv = np.zeros_like(a)
    inv[:, 0, 0], inv[:, 1, 1], inv[:, 2, 2] = 1.0 / l11, 1.0 / l22, 1.0 / l33
    inv[:, 1, 0] = -l21 * inv[:, 0, 0] * inv[:, 1, 1]
    inv[:, 2, 1] = -l32 * inv[:, 1, 1] * inv[:, 2, 2]
    inv[:, 2, 0] = (l21 * l32 - l22 * l31) * inv[:, 0, 0] * inv[:, 1, 1] \
        * inv[:, 2, 2]
    return inv


def _orthonormal(a: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning those of a (n, k), of full column
    rank: Gram-Schmidt, each earlier column projected out twice."""
    q = np.empty_like(a)
    for j in range(a.shape[1]):
        v = a[:, j]
        for _ in range(2 if j else 0):
            v = v - q[:, :j] @ (q[:, :j].T @ v)
        q[:, j] = v / np.linalg.norm(v)
    return q


def _condense(model: GraspModel, maps: GraspMaps, labels: np.ndarray):
    """The states of the label vectors labels (S, m), solved at zero load
    in their condensed unknowns y = (d, c_t of each sticking contact).

    The labels fix every other force as an affine map of d: an attached
    contact's c_n = c0_n + k delta_n(d), a slipping one's c_t = -+mu c_n,
    a detached one's force zero. What is left of a state with s sticking
    contacts is (3 + s)-square: C y = b_c, its 3 equilibrium rows and s
    no-tangential-motion rows. The states are grouped by s, one SVD call
    per group, and nothing is padded; the factors are stored padded to
    3 + m, so that every later step is one array pass.

    The full system's rows split into the kept ones [A11 A12] and the
    eliminated ones, M c_e - R y = q0 with M invertible, so that
    c_e = P y + q and C = A11 + A12 P. A left null vector of the full
    block is u = [u1; -M^-T A12^T u1], u1 one of C, with u^T b = u1^T b_c
    and |u|^2 = u1^T (I + H H^T) u1, where H = A12 M^-1 is zero but on
    the equilibrium rows. Those rows of C and b_c are weighted by L^-1,
    L L^T = I + H H^T, which leaves the solutions as they are: an
    orthonormal left null basis of the weighted C is then one of the
    full block, and the weighted b_c in it is the full system's
    right-hand side in its left null space, the consistency test of
    ``solve_state``.

    A block's singular values live above RANK_EPS (3 + s) s_max, numpy
    lstsq's cutoff, and that one mask gives its rank to the pseudo-inverse
    solution, the null space and the consistency map alike.

    Returns x (S, n, 4 + 3 + m): each state's x_p(w) in the full
    unknowns, with x0 and gain as its first four columns, expanded from
    the pseudo-inverse solution (not yet the least-norm point of a
    singular state), then its right singular vectors expanded, E V,
    whose columns live to 3 + s span the null space; slack (S, 3m, 4),
    the inequality slots at x_p, and their validity (S, 3m); cons (S,
    3 + m, 4), the consistency map; live (S,), the count of live
    singular values; the size 3 + s of each condensed block (S,); and
    max|b_eq[3:]| (S,).
    """
    count, m = labels.shape
    width = 3 + m
    mu = np.array([c.mu for c in model.contacts])
    ncol, tcol = maps.motion[:, 0::2], maps.motion[:, 1::2]
    attached, stick = labels != DETACHED, labels == 0
    # the slip direction: -1 or +1 when slipping, else 0
    sign = labels * (attached & ~stick)
    preload = attached * model.preload[:, 0]
    # an attached contact's c_n = c0_n + stiffness delta_n(d), and a
    # slipping one's c_t = slope c_n
    stiffness, slope = attached * model.stiffness, -mu * sign
    # the equilibrium rows' column of each contact's c_n once c_t =
    # slope c_n (the wrench columns are -ncol for c_n, tcol for c_t)
    h = slope[..., None] * tcol.T - ncol.T
    # the equilibrium rows are weighted by L^-1, L L^T = I + H H^T; H has
    # a column for every contact's c_n and for the c_t of every contact
    # that does not stick
    hht = h.transpose(0, 2, 1) @ h + (tcol * ~stick[:, None]) @ tcol.T
    weight = _inverse_cholesky(np.eye(3) + hht)
    # the weighted b_c under w: b @ (1, w) on the equilibrium rows, zero
    # on the others
    b = -np.concatenate([weight @ (preload[:, None] @ h).transpose(0, 2, 1),
                         weight], axis=2)

    # the weighted C; the sticking contacts' rows and columns follow d's
    # in contact order
    sticking = stick.sum(axis=1)
    order = np.argsort(~stick, axis=1, kind="stable")
    rows = tcol.T[order] * (np.arange(m) < sticking[:, None])[..., None]
    c = np.zeros((count, width, width))
    # an attached contact's c_n moves with k delta_n(d) along h
    c[:, :3, :3] = (h * stiffness[..., None]).transpose(0, 2, 1) @ ncol.T
    c[:, :3, 3:] = rows.transpose(0, 2, 1)
    c[:, :3] = weight @ c[:, :3]
    c[:, 3:, :3] = rows
    # one SVD call per group of equal s, taken in order of s
    by_s = np.argsort(sticking, kind="stable")
    c = c[by_s]
    u3 = np.zeros((count, 3, width))
    sv = np.zeros((count, width))
    v = np.zeros((count, width, width))
    start = 0
    for s, end in enumerate(np.cumsum(np.bincount(sticking)).tolist()):
        if end > start:
            r = 3 + s
            u, sv[start:end, :r], vt = np.linalg.svd(c[start:end, :r, :r])
            u3[start:end, :, :r] = u[:, :3]
            v[start:end, :r, :r] = vt.transpose(0, 2, 1)
        start = end
    back = np.empty_like(by_s)
    back[by_s] = np.arange(count)
    u3, sv, v = u3[back], sv[back], v[back]
    # the one numerical rank of each block: the singular values that live
    live = sv > RANK_EPS * (3 + sticking[:, None]) * sv[:, :1]
    # b_c in the left singular vectors: only its equilibrium rows are not
    # zero
    ub = u3.transpose(0, 2, 1) @ b
    y = v @ (np.divide(1.0, sv, out=np.zeros_like(sv), where=live)[..., None]
             * ub)
    # in the weighted rows the left null basis of C beyond the rank is an
    # orthonormal basis of the full system's left null space
    cons = ub * ~live[..., None]

    # x_p and every right singular vector, expanded to the full unknowns
    yv = np.concatenate([y, v], axis=2)
    x = np.zeros((count, 3 + 2 * m, 4 + width))
    x[:, :3] = yv[:, :3]
    free = np.empty((count, m, 4 + width))
    free[np.arange(count)[:, None], order] = yv[:, 3:]
    motion = maps.motion.T @ x[:, :3]
    normal = stiffness[..., None] * motion[:, 0::2] \
        + preload[..., None] * np.eye(1, 4 + width)[0]
    tangent = np.where(stick[..., None], free, slope[..., None] * normal)
    x[:, 3::2], x[:, 4::2] = normal, tangent
    slack = _slots(labels, mu, normal[..., :4], tangent[..., :4],
                   motion[..., :4])
    return (x, slack, _SLOT_VALID[labels + 1].reshape(count, 3 * m), cons,
            live.sum(axis=1), 3 + sticking,
            np.abs(preload).max(axis=1, initial=0.0))


def _slots(labels: np.ndarray, mu: np.ndarray, normal: np.ndarray,
           tangent: np.ndarray, motion: np.ndarray) -> np.ndarray:
    """The inequality slots a_in x (S, 3m, K) of the states of the label
    vectors labels (S, m) at K points x each, given by each contact's
    c_n and c_t (S, m, K) and its motion (delta_n, delta_t) (S, 2m, K):
    three slots a contact, filled in the order of ``_KINDS``, zero on the
    padding."""
    count, m = labels.shape
    attached, stick = labels != DETACHED, labels == 0
    # the slip direction: -1 or +1 when slipping, else 0
    sign = labels * (attached & ~stick)
    slack = np.zeros((count, m, 3, normal.shape[-1]))
    slack[:, :, 0] = np.where(attached[..., None], normal, -motion[:, 0::2])
    cone = mu[:, None] * normal
    slack[:, :, 1] = np.where(stick[..., None], cone - tangent,
                              sign[..., None] * motion[:, 1::2])
    slack[:, :, 2] = np.where(stick[..., None], cone + tangent, 0.0)
    return slack.reshape(count, 3 * m, -1)


class _Lines(NamedTuple):
    """The lines x_p(w) + n z of singular states of nullity 1 under one
    load w: their positions p (S,), least-norm points x_p(w) and unit
    null vectors n (S, n), their inequality slots at x_p(w) (S, 3m),
    zero on the padding, and the rows of their LPs in z, the slots along
    n, a_in n (S, 3m), zero on the padding too."""

    p: np.ndarray
    x_p: np.ndarray
    null: np.ndarray
    slack: np.ndarray
    rows: np.ndarray


class PreparedStates:
    """A grasp's slip states, prepared as one batch.

    Every state is solved at zero load in its condensed unknowns, the
    motion d and the tangential force of each sticking contact
    (``_condense``): grouped by the count s of sticking contacts, one SVD
    call factors each group's (3 + s)-square blocks. For each state the
    batch keeps x0 and gain of its solution x_p(w) in the full unknowns,
    its slacks s0 and slack_gain at x_p(w) in three slots per contact
    (zero on the padding), its consistency map and max|b_eq[3:]|, so
    ``candidates`` screens every state against a wrench in a few array
    operations. For a consistent state of nullity 1 it then builds the
    line x_p(w) + n z from the same arrays, once per wrench, and decides
    its screen LP there; ``screened`` marks those states.
    ``slip_speeds`` reads the canonical witness's slip speeds of the
    direct states and of those lines from the same slots. Indexing
    slices one state out as a PreparedState, kept for later queries,
    with its full StateSystem built from its labels. The batch also
    keeps every state's right singular vectors expanded to the full
    unknowns; slicing a singular state orthonormalises those that span
    its null space and moves x_p to the least-norm point.

    The systems depend on the grasp alone, so one instance serves any
    number of wrenches. labels holds one label vector per state, (S, m)
    or a sequence of them, and ``index`` each state's canonical index
    (-1 for each when not given). A SlipStateSet builds the batch of its
    states once, as its ``prepared``; the exhaustive search and
    ``solve_state`` build their own from label vectors.
    """

    def __init__(self, model: GraspModel, labels, index=None):
        self.model = model
        self._maps = build_maps(model)
        self._labels = np.asarray(labels, dtype=np.int8).reshape(-1, model.m)
        self.index = [-1] * len(self._labels) if index is None else index
        (self._x, self._slack, self._valid, cons, self._live, self._size,
         self._b_max) = _condense(model, self._maps, self._labels)
        # a state is direct when its condensed block has full rank
        self.direct = self._live == self._size
        # the states whose screen candidates decides: the singular ones
        # whose null space is a line
        self.screened = self._size - self._live == 1
        self._mu = np.array([c.mu for c in model.contacts])
        self._s0, self._slack_gain = self._slack[..., 0], self._slack[..., 1:]
        self._cons0, self._cons_gain = cons[..., 0], cons[..., 1:]
        self._prepared: dict[int, PreparedState] = {}

    def __len__(self) -> int:
        return len(self._labels)

    def __getitem__(self, p: int) -> PreparedState:
        """The state at position p, sliced out of the batch once."""
        prep = self._prepared.get(p)
        if prep is None:
            sys = _system(self.model, self._maps,
                          tuple(self._labels[p].tolist()))
            x, slack = self._x[p, :, :4], self._slack[p, self._valid[p]]
            null, rows = np.zeros((sys.n, 0)), None
            if not self.direct[p]:
                # only a singular state reaches an LP: E N_c, its right
                # singular vectors beyond live expanded, orthonormalised
                # (E keeps y among the full unknowns, so E N_c has full
                # column rank), the least-norm point x_p and its LP rows
                null = _orthonormal(
                    self._x[p, :, 4 + self._live[p]:4 + self._size[p]])
                x = x - null @ (null.T @ x)
                slack = sys.a_in @ x
                rows = sys.a_in @ null
            prep = self._prepared[p] = PreparedState(
                sys, self.index[p], x0=x[:, 0], gain=x[:, 1:],
                s0=slack[:, 0], slack_gain=slack[:, 1:], null=null,
                rows=rows, cons0=self._cons0[p], cons_gain=self._cons_gain[p],
                b_max=float(self._b_max[p]))
        return prep

    def candidates(self, w: np.ndarray) -> np.ndarray:
        """Positions, in order, of the states that may hold under w.

        A direct state is kept when its slacks at x_p(w) pass, which
        makes it feasible. A singular one is kept when its equalities
        pass the consistency test of ``solve_state`` and, where its null
        space is a line, when it passes its screen too: a kept state that
        ``screened`` marks holds, and only a singular one it leaves
        unmarked is still to be decided.
        """
        return np.flatnonzero(self._decide(w)[0])

    def _decide(self, w: np.ndarray):
        """(keep, slack, lines): whether each state is a candidate under
        w, the slacks (S, 3m) of every state at x_p(w), and the lines
        that screened the consistent states ``screened`` marks, or None
        where there are none."""
        slack = self._s0 + self._slack_gain @ w
        keep = np.where(self.direct,
                        ~(np.min(slack, axis=1) < -INEQ_SLACK),
                        self._consistent(w))
        lines = None
        line = np.flatnonzero(keep & self.screened)
        if len(line):
            # the screen LP of ``PreparedState.passes_screen`` in its one
            # variable z: the rows a_in n z >= -(slots + INEQ_SLACK) that
            # are not padding, and |z| <= X_MAX
            lines = self._lines(line, w)
            keep[line] = nullspace_lp.lines_hold(
                lines.rows, -(lines.slack + INEQ_SLACK), self._valid[line],
                X_MAX)
        return keep, slack, lines

    def _lines(self, p: np.ndarray, w: np.ndarray) -> _Lines:
        """The lines x_p(w) + n z of the states at the positions p, all
        singular of nullity 1, built from the batch's arrays: n the unit
        null vector, x_p(w) moved to the least-norm point."""
        v = self._x[p, :, 4 + self._live[p]]
        null = v / np.linalg.norm(v, axis=1, keepdims=True)
        # x_p moved to the least-norm point, and n as a fifth column
        x = self._x[p, :, :4]
        x = np.concatenate([x - null[..., None] * (null[:, None] @ x),
                            null[..., None]], axis=2)
        slots = _slots(self._labels[p], self._mu, x[:, 3::2], x[:, 4::2],
                       self._maps.motion.T @ x[:, :3])
        return _Lines(p, x[..., 0] + x[..., 1:4] @ w, null,
                      slots[..., 0] + slots[..., 1:4] @ w, slots[..., 4])

    def slip_speeds(self, w: np.ndarray):
        """(positions, speeds, read) of the canonical witness under w.

        positions are those of ``candidates``, and speeds (P, m) each
        one's slip speeds at its point of the canonical witness, zero
        for a contact that does not slip, where read (P,) is set. The
        speed of a slipping contact is its slip-sign slot, so they come
        from the slots that screen the states:
        - a direct state's point is x_p(w);
        - a state that ``screened`` marks lies on the line x_p(w) + n z
          that screened it. Where no slip speed moves along it by more
          than FLAT_REL of the slip row's norm (flat), they are read at
          x_p(w). Otherwise its point is the end of its z interval,
          under its rows held with margin 0 within the first box of
          ``linear_feasibility``, that the first of the witness's
          objectives not flat in z prefers: the least total slip speed,
          then each slipping contact's speed maximized in contact order
          (``nullspace_lp.lines_point``).

        A marked state is left unread where its own LP may give another
        point: where that point would need the second box (no interval
        in the first, or an end at its edge), breaks a row by more than
        INEQ_SLACK, has an equality residual that ``linear_feasibility``
        would project away (PROJECTION_SKIP), or where an objective
        before the one that picks the end is not zero but within
        FLAT_REL of it, so that the LP's rounding picks. Every other
        candidate is left unread too: its own LP decides it.
        """
        keep, slack, lines = self._decide(w)
        kept = np.flatnonzero(keep)
        labels = self._labels[kept]
        m = self.model.m
        slipping = (labels != 0) & (labels != DETACHED)
        speeds = np.where(slipping, slack[kept].reshape(-1, m, 3)[..., 1],
                          0.0)
        read = self.direct[kept]
        if lines is not None and keep[lines.p].any():
            lines = _Lines._make(a[keep[lines.p]] for a in lines)
            at = np.searchsorted(kept, lines.p)
            speeds[at], read[at] = self._line_speeds(lines, w)
        return kept, speeds, read

    def _line_speeds(self, lines: _Lines, w: np.ndarray):
        """(speeds, read) of ``slip_speeds`` for the states of lines."""
        m = self.model.m
        labels = self._labels[lines.p]
        slipping = (labels != 0) & (labels != DETACHED)
        # each contact's slip row is label * its tangential motion column
        norm = np.linalg.norm(self._maps.motion[:, 1::2], axis=0)
        at_xp = np.where(slipping, lines.slack.reshape(-1, m, 3)[..., 1], 0.0)
        move = np.where(slipping, lines.rows.reshape(-1, m, 3)[..., 1], 0.0)
        flat = np.all(np.abs(move) <= FLAT_REL * norm, axis=1)
        # the objectives' coefficients in z and the norms of their rows:
        # the total slip row, then minus each slipping contact's
        dirs = (labels * slipping)[..., None] * self._maps.motion[:, 1::2].T
        total = dirs.sum(axis=1)
        c = np.concatenate([np.einsum("ij,ij->i", total,
                                      lines.null[:, :3])[:, None], -move],
                           axis=1)
        clear = np.abs(c) > FLAT_REL * np.concatenate(
            [np.linalg.norm(total, axis=1)[:, None],
             np.broadcast_to(norm, move.shape)], axis=1)
        # an objective within FLAT_REL of flat but not zero ahead of the
        # first clear one: the LP's rounding picks the end
        ahead = np.cumsum(clear, axis=1) == 0
        noisy = np.any(ahead & (c != 0.0), axis=1)

        box = _first_box(w, self._b_max[lines.p], lines.x_p)
        z = nullspace_lp.lines_point(lines.rows, -lines.slack,
                                     self._valid[lines.p], box[:, None],
                                     np.where(clear, c, 0.0))
        z = np.where(flat, 0.0, z)
        x = lines.x_p + z[:, None] * lines.null
        speeds = at_xp + z[:, None] * move
        # the padding's slots are zero, and so are its slacks
        slack = lines.slack + z[:, None] * lines.rows
        # the tests linear_feasibility makes of its point: a point that
        # hits the first box takes the second, and one off the
        # equalities is projected onto them
        read = flat | (~noisy & (slack.min(axis=1) >= -INEQ_SLACK)
                       & ((box >= X_MAX) | (np.abs(z) <= BOX_HIT * box)))
        return speeds, read & (self._residual(labels, x, w)
                               < PROJECTION_SKIP)

    def _residual(self, labels: np.ndarray, x: np.ndarray,
                  w: np.ndarray) -> np.ndarray:
        """The largest |a_eq x - b_eq| of each state of the label vectors
        labels (S, m) at its point x (S, n) under w, from the rows of
        ``_system``."""
        attached, stick = labels != DETACHED, labels == 0
        sign = labels * (attached & ~stick)
        motion = x[:, :3] @ self._maps.motion
        cn, ct = x[:, 3::2], x[:, 4::2]
        normal = np.where(attached, cn - self.model.stiffness
                          * motion[:, 0::2] - self.model.preload[:, 0], cn)
        tangent = np.where(stick, motion[:, 1::2], ct + self._mu * sign * cn)
        return np.abs(np.concatenate(
            [x[:, 3:] @ self._maps.wrench.T + w, normal, tangent],
            axis=1)).max(axis=1)

    def _consistent(self, w: np.ndarray) -> np.ndarray:
        """Whether each state's equalities pass the consistency test of
        ``solve_state`` under w."""
        cons = np.linalg.norm(self._cons0 + self._cons_gain @ w, axis=1)
        return ~(cons > np.sqrt(3 + 2 * self.model.m)
                 * _eq_tol(w, self._b_max)[1])

    def stable_intervals(self, u, cap: float) -> list[tuple[float, float]]:
        """The loads t in [0, cap] under which some state holds w = t u.

        Returned as sorted, disjoint closed intervals (lo, hi). Along the
        ray every state's system is affine in t, so each state holds on
        an interval of t, and the merged intervals are the stable set.
        A direct state holds where s0 + t (slack_gain u) >= -INEQ_SLACK:
        one array pass gives every direct state's interval. A singular
        state's consistency map cons0 + t (cons_gain u) is affine in t
        too. Where it passes the consistency test at t = 0 and t = cap,
        it is consistent on the whole ray, and its interval is the least
        and the largest t over (z, t) under the rows a_in N and the
        +-X_MAX box on z of ``PreparedState.passes_screen``: two
        ``small_lp`` calls in k + 1 variables. Any other singular state
        is consistent only on a band about EQ_RESIDUAL wide around one
        load, or nowhere; it is left out. Intervals merge where one
        starts at or before the end of the one before it, and once they
        cover [0, cap] no LP runs.
        """
        u = as_wrench(u)
        direct = self.direct
        # direct states: row r holds from or up to its root t_r
        base = -INEQ_SLACK - self._s0[direct]
        rate = self._slack_gain[direct] @ u
        root = np.divide(base, rate, out=np.zeros_like(base), where=rate != 0)
        lo = np.max(np.where(rate > 0, root, 0.0), axis=1, initial=0.0)
        hi = np.min(np.where(rate < 0, root, cap), axis=1, initial=cap)
        held = (lo <= hi) & ~np.any((rate == 0) & (base > 0), axis=1)
        spans = _merged(zip(lo[held].tolist(), hi[held].tolist()))

        whole = ~direct & self._consistent(np.zeros(3)) & \
            self._consistent(cap * u)
        for p in np.flatnonzero(whole).tolist():
            if spans == [(0.0, cap)]:  # nothing is left to add
                break
            span = _singular_span(self[p], u, cap)
            if span is not None:
                spans = _merged([*spans, span])
        return spans


def solve_state(model: GraspModel, w, state: tuple | PreparedState
                ) -> EquilibriumSolution | None:
    """Solve one slip state; None when its constraints are inconsistent.

    A direct state is decided by its slacks at its one solution. Any
    other state is decided in its null space (``PreparedState.passes_screen``):
    the consistency test, then one feasibility LP over the whole null
    space; the two boxes of ``linear_feasibility`` then run only to
    produce the point. Both tests reject only what those boxes would, so
    the point is the one they alone return. A PreparedState is used as
    it is; a label vector is prepared first. This is the one-state path:
    a query decides its singular states of nullity 1 in the batch
    (``PreparedStates.candidates``) and calls this only for the others.
    """
    if isinstance(state, PreparedState):
        prep = state
    else:
        prep = PreparedStates(model, [state])[0]
    w = as_wrench(w)
    if prep.direct:
        if np.min(prep.s0 + prep.slack_gain @ w, initial=np.inf) < -INEQ_SLACK:
            return None
        return prep.solution_at(w)
    return linear_feasibility(prep, w) if prep.passes_screen(w) else None


def _eq_tol(w: np.ndarray, b_max):
    """(scale, eq_tol) under the wrench w: the data's magnitude max(1,
    |w|, b_max), b_max the largest |b_eq[3:]| of a state (or an array of
    them, one per state), and the largest max-norm equality residual a
    point of ``linear_feasibility`` may have."""
    scale = np.maximum(max(1.0, float(np.max(np.abs(w)))), b_max)
    return scale, EQ_RESIDUAL * (1.0 + scale)


def _first_box(w: np.ndarray, b_max, x_p: np.ndarray):
    """The first box of ``linear_feasibility``: LADDER_START times the
    larger of the data's magnitude and |x_p(w)|, within X_MAX. b_max and
    x_p may be stacks of states, (S,) and (S, n)."""
    return np.minimum(LADDER_START * np.maximum(
        _eq_tol(w, b_max)[0], np.abs(x_p).max(axis=-1)), X_MAX)


def _merged(spans) -> list[tuple[float, float]]:
    """The union of closed intervals (lo, hi) as sorted disjoint ones."""
    merged: list[tuple[float, float]] = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1]:
            start, end = merged.pop()
            lo, hi = start, max(end, hi)
        merged.append((lo, hi))
    return merged


def _singular_span(prep: PreparedState, u: np.ndarray, cap: float
                   ) -> tuple[float, float] | None:
    """(least, largest) t in [0, cap] at which the singular state holds
    w = t u, by the LP of ``PreparedState.passes_screen``; None if at none.

    Under t u the slack of x_p moves by t (slack_gain u), so the screen's
    rows a_in N z >= -(s0 + INEQ_SLACK) gain a column in t; the box
    bounds z, whatever x_p is.
    """
    k = prep.null.shape[1]
    g = np.column_stack([prep.rows, prep.slack_gain @ u])
    h = -(prep.s0 + INEQ_SLACK)
    lo = np.append(np.full(k, -X_MAX), 0.0)
    hi = np.append(np.full(k, X_MAX), cap)
    c = np.zeros(k + 1)
    c[-1] = 1.0
    least = nullspace_lp.small_lp(g, h, c, lo, hi)
    largest = None if least is None else \
        nullspace_lp.small_lp(g, h, -c, lo, hi)
    if largest is None:
        return None
    # t is exact to the LP's relative accuracy over its range [0, cap]
    near = LP_REL * cap
    least, largest = float(least[-1]), float(largest[-1])
    return (0.0 if least <= near else least,
            cap if largest >= cap - near else largest)


def linear_feasibility(prep: PreparedState, w: np.ndarray, *,
                       objective=None) -> EquilibriumSolution | None:
    """The singular state's checked point under the wrench w, or None.

    Maximizes the minimum inequality slack subject to the equalities and
    a box bound on the null-space coordinates z, in at most two exact
    LPs over x = x_p(w) + N z and the margin s <= MARGIN_CAP of the rows
    a_in x >= 0. The first box is LADDER_START times the larger of the
    data's magnitude and |x_p(w)| (``_first_box``), within X_MAX, so that
    a solution of the state's own magnitude is found at that scale. The
    second, X_MAX, runs only when the first gives no accepted point or
    its point has a z_i beyond BOX_HIT of the box. ``solve_state``
    rejects infeasible states before these LPs run, by tests that reject
    only what the X_MAX box would, so they alone return the same points.

    With ``objective``, a stack of rows over x, the rows hold hard and
    each LP first minimizes the objectives lexicographically, in order,
    then maximizes the slack: the one LP of the canonical witness.
    """
    sys = prep.system.at(w)
    x_p = prep.x0 + prep.gain @ w
    slack = sys.a_in @ x_p
    k = prep.null.shape[1]
    # the margin enters every row, a_in N z - s >= -slack
    g = np.hstack([prep.rows, -np.ones((len(slack), 1))])
    c = np.zeros(k + 1)
    c[-1] = -1.0
    if objective is None:
        reach = np.abs(prep.rows).sum(axis=1)
    else:
        s_lo = 0.0
        obj = np.atleast_2d(objective) @ prep.null
        c = np.vstack([np.hstack([obj, np.zeros((len(obj), 1))]), c])
    eq_tol = _eq_tol(w, prep.b_max)[1]
    first = float(_first_box(w, prep.b_max, x_p))
    for box in (first, X_MAX) if first < X_MAX else (X_MAX,):
        if objective is None:
            # every point of the z box has slack above s_lo
            s_lo = -1.0 - (np.abs(slack) + reach * box).max()
        y = nullspace_lp.small_lp(
            g, -slack, c, np.append(np.full(k, -box), s_lo),
            np.append(np.full(k, box), MARGIN_CAP))
        if y is not None and y[-1] >= -INEQ_SLACK:
            # the program's verdict is advisory: accept only a point that
            # verifiably satisfies the system at the working tolerances
            x = _project_onto_equalities(sys.a_eq, sys.b_eq,
                                         x_p + prep.null @ y[:k])
            sol = _solution_from_x(sys, x, prep.index)
            if sol.max_eq_residual <= eq_tol and \
                    sol.min_ineq_slack >= -INEQ_SLACK and \
                    (box >= X_MAX or np.max(np.abs(y[:k])) <= BOX_HIT * box):
                return sol
    return None


def check_solution(model: GraspModel, w, sol: EquilibriumSolution) -> dict:
    """Recompute every solution invariant from the raw contact data.

    Deliberately shares nothing with the assembly above: velocities,
    forces and cone tests are recomputed from first principles so it can
    stand as an independent verifier.
    """
    w = as_wrench(w)
    d = np.asarray(sol.d, dtype=float)
    res = {
        "equilibrium": 0.0, "constitutive": 0.0, "unilateral": 0.0,
        "cone": 0.0, "stick": 0.0, "slip_edge": 0.0, "slip_sign": 0.0,
        "detached": 0.0,
    }
    total = np.array([0.0, 0.0, 0.0])
    for i, contact in enumerate(model.contacts):
        c_n, c_t = sol.forces[i]
        label = sol.labels[i]
        tau = tangent_of(contact.normal)
        p = contact.position
        v = d[:2] + d[2] * np.array([-p[1], p[0]])
        delta_n = float(v @ contact.normal)
        delta_t = float(v @ tau)
        force = -contact.normal * c_n + tau * c_t
        total[:2] += force
        total[2] += cross2(p, force)

        if label == DETACHED:
            res["detached"] = max(res["detached"], abs(c_n), abs(c_t),
                                  delta_n)
            continue
        res["unilateral"] = max(res["unilateral"], -c_n)
        res["cone"] = max(res["cone"], abs(c_t) - contact.mu * c_n)
        expected = model.preload[i, 0] + model.stiffness[i] * delta_n
        res["constitutive"] = max(res["constitutive"], abs(c_n - expected))
        if label == 0:
            res["stick"] = max(res["stick"], abs(delta_t))
        else:
            res["slip_edge"] = max(res["slip_edge"],
                                   abs(c_t + label * contact.mu * c_n))
            res["slip_sign"] = max(res["slip_sign"], -label * delta_t)
    res["equilibrium"] = float(np.max(np.abs(total + w)))
    res["max_violation"] = max(res.values())
    return res
