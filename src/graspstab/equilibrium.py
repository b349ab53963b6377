"""Per-slip-state equilibrium systems and their solution.

For a fixed slip state the balance of the grasp is linear: equilibrium
(3 rows), the normal spring law at attached contacts, friction pinned to
the cone edge at slipping contacts, zero tangential motion at sticking
contacts, and zero force at detached contacts give a square system in
(d, c). The load enters only the three equilibrium rows of its right-hand
side, so a grasp's states are prepared once, as one batch: assembled
at zero load from per-contact label templates, and one SVD call over
the stacked equality blocks gives each state's solution family
x_p(w) + N z as affine maps of the wrench w. A direct state (N empty) is
decided by its slacks at x_p(w), all of a grasp's at once; any other
state in its null space, one at a time. Every LP over a state, the
screen that decides a singular state, the box ladder that produces its
point and the canonical witness's objective and pin LPs, has
x = x_p + N z and so runs in the k null-space coordinates (plus a
margin), k <= 3 in practice, on one exact engine: Seidel's incremental
algorithm (``nullspace_lp.small_lp``).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from . import nullspace_lp
from .arrangement import DETACHED, LABEL_NAMES, SlipState
from .model import (GraspMaps, GraspModel, as_wrench, build_maps, cross2,
                    tangent_of, world_force)
from .params import DEFAULT_TOLS, Tolerances

__all__ = [
    "StateSystem",
    "EquilibriumSolution",
    "PreparedState",
    "PreparedStates",
    "assemble_state_system",
    "prepare_state",
    "solve_state",
    "linear_feasibility",
    "check_solution",
]


@dataclass(eq=False)
class StateSystem:
    """Linear system of one slip state over x = (d[3], c[2m]).

    Equalities a_eq x = b_eq; inequalities a_in x >= b_in. ineq_kind
    tags each inequality row (unilateral / cone / slip_sign / separation,
    or pin for a row the canonical witness adds) and slip_dirs maps
    slipping contacts to the d-row of their tangential motion, used by the
    canonical-witness selection. factor is (pseudo-inverse, null basis)
    of a_eq, kept by ``PreparedStates`` for a singular state so that its
    ladder reuses the batch's SVD.
    """

    labels: tuple[int, ...]
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_in: np.ndarray
    b_in: np.ndarray
    ineq_kind: list[str]
    slip_dirs: dict[int, np.ndarray] = field(default_factory=dict)
    m: int = 0
    factor: tuple | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.a_eq.shape[1]

    @property
    def slip_count(self) -> int:
        return len(self.slip_dirs)

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


# Per-contact label templates are indexed by label + 1: slip- 0, stick 1,
# slip+ 2, detached 3. Each contact owns three inequality slots; _KINDS
# names the rows a label fills, in slot order, and the rest are padding.
_KINDS = (("unilateral", "slip_sign"), ("unilateral", "cone", "cone"),
          ("unilateral", "slip_sign"), ("separation",))
_SLOT_VALID = np.array([[s < len(kinds) for s in range(3)] for kinds in _KINDS])


def _templates(model: GraspModel, maps: GraspMaps):
    """Every label's rows of every contact: equality rows (m, 4, 2, n),
    their right-hand sides at zero load (m, 4, 2) and inequality slots
    (m, 4, 3, n), each inequality's right-hand side being zero."""
    m = model.m
    n = 3 + 2 * m
    eq, rhs = np.zeros((m, 4, 2, n)), np.zeros((m, 4, 2))
    ineq = np.zeros((m, 4, 3, n))
    for i, contact in enumerate(model.contacts):
        mu = contact.mu
        ncol = maps.motion[:, 2 * i]
        tcol = maps.motion[:, 2 * i + 1]
        cn, ct = 3 + 2 * i, 3 + 2 * i + 1

        # detached: no force, and no penetration: delta_n <= 0
        eq[i, 3, 0, cn] = eq[i, 3, 1, ct] = 1.0
        ineq[i, 3, 0, :3] = -ncol

        # attached: normal spring law c_n = c0_n + k * delta_n, unilaterality
        eq[i, :3, 0, cn] = 1.0
        eq[i, :3, 0, :3] = -model.stiffness[i] * ncol
        rhs[i, :3, 0] = model.preload[i, 0]
        ineq[i, :3, 0, cn] = 1.0

        # sticking: no tangential motion, friction inside the cone
        eq[i, 1, 1, :3] = tcol
        ineq[i, 1, 1:, cn] = mu
        ineq[i, 1, 1:, ct] = (-1.0, 1.0)

        # slipping: friction on the cone edge opposing the motion
        # (label -1: c_t = +mu c_n; +1: c_t = -mu c_n), and the assumed
        # slip direction must agree
        for label in (-1, 1):
            eq[i, label + 1, 1, ct] = 1.0
            eq[i, label + 1, 1, cn] = mu * label
            ineq[i, label + 1, 1, :3] = label * tcol
    return eq, rhs, ineq


def _assemble(model: GraspModel, maps: GraspMaps, labels: np.ndarray):
    """The stacked blocks at zero load of the label vectors labels (S, m).

    Returns a_eq (S, n, n), b_eq (S, n), the padded inequality blocks
    a_in (S, 3m, n), three slots per contact, and their validity (S, 3m).
    Rows 0-2 are equilibrium; contact i owns equality rows 3+2i and 4+2i
    (the rows of its force unknowns) and inequality slots 3i to 3i+2:
    one row when detached, two when slipping and three when sticking.
    """
    eq, rhs, ineq = _templates(model, maps)
    s, m = labels.shape
    n = 3 + 2 * m
    pick = np.arange(m), labels + 1
    a_eq = np.zeros((s, n, n))
    # net wrench of contact forces balances the applied wrench
    a_eq[:, :3, 3:] = maps.wrench
    a_eq[:, 3:] = eq[pick].reshape(s, 2 * m, n)
    b_eq = np.zeros((s, n))
    b_eq[:, 3:] = rhs[pick].reshape(s, 2 * m)
    return (a_eq, b_eq, ineq[pick].reshape(s, 3 * m, n),
            _SLOT_VALID[labels + 1].reshape(s, 3 * m))


def _system(model: GraspModel, maps: GraspMaps, labels: tuple[int, ...],
            a_eq, b_eq, a_in, valid) -> StateSystem:
    """One state's StateSystem from its stacked blocks."""
    kinds = [kind for label in labels for kind in _KINDS[label + 1]]
    slip_dirs = {i: label * maps.motion[:, 2 * i + 1]
                 for i, label in enumerate(labels) if label in (-1, 1)}
    return StateSystem(labels=labels, a_eq=a_eq, b_eq=b_eq, a_in=a_in[valid],
                       b_in=np.zeros(len(kinds)), ineq_kind=kinds,
                       slip_dirs=slip_dirs, m=model.m)


def _label_array(labels, m: int) -> np.ndarray:
    return np.array(labels, dtype=np.intp).reshape(-1, m)


def assemble_state_system(model: GraspModel, w, state: SlipState | tuple,
                          maps: GraspMaps | None = None) -> StateSystem:
    """Build the equality/inequality blocks for one slip state.

    The one-state case of the stacked assembly of ``PreparedStates``:
    contact i owns equality rows 3+2i and 4+2i and, in contact order,
    one inequality row when detached, two when slipping and three when
    sticking. Every inequality's right-hand side is zero.
    """
    if maps is None:
        maps = build_maps(model)
    labels = state.labels if isinstance(state, SlipState) else tuple(state)
    a_eq, b_eq, a_in, valid = _assemble(model, maps,
                                        _label_array(labels, model.m))
    b_eq[0, :3] = -as_wrench(w)
    return _system(model, maps, labels, a_eq[0], b_eq[0], a_in[0], valid[0])


def _project_onto_equalities(a_eq, b_eq, x: np.ndarray,
                             tols: Tolerances) -> np.ndarray:
    """Minimal-norm correction pulling x onto the equality manifold."""
    if a_eq.shape[0] == 0:
        return x
    residual = a_eq @ x - b_eq
    if np.max(np.abs(residual)) < tols.projection_skip:
        return x
    corr, *_ = np.linalg.lstsq(a_eq, residual, rcond=None)
    return x - corr


def _solution_from_x(sys: StateSystem, x: np.ndarray,
                     state_index: int) -> EquilibriumSolution:
    eq_res = float(np.max(np.abs(sys.a_eq @ x - sys.b_eq)))
    slack = float(np.min(sys.a_in @ x - sys.b_in)) if len(sys.b_in) else np.inf
    return EquilibriumSolution(
        d=x[:3].copy(), forces=x[3:].reshape(-1, 2).copy(), labels=sys.labels,
        state_index=state_index, max_eq_residual=eq_res, min_ineq_slack=slack,
    )


@dataclass(eq=False)
class PreparedState:
    """One slip state's system at zero load and its solution family.

    The load w enters only b_eq, so all of these are affine in w. The
    equalities' solutions are x_p(w) + null @ z, with x_p(w) = x0 + gain @ w
    the pseudo-inverse solution at the singular_rel cutoff and its
    inequality slacks a_in x_p(w) - b_in = s0 + slack_gain @ w. The
    equalities are consistent when cons0 + cons_gain @ w, their right-hand
    side in the left null basis at the rank_eps cutoff (zero-padded to n
    rows), is small enough (see ``solve_state``). A direct state has an
    empty null basis.
    """

    system: StateSystem
    index: int
    x0: np.ndarray
    gain: np.ndarray
    s0: np.ndarray
    slack_gain: np.ndarray
    null: np.ndarray
    cons0: np.ndarray
    cons_gain: np.ndarray

    @property
    def direct(self) -> bool:
        return self.null.shape[1] == 0

    def solution_at(self, w: np.ndarray) -> EquilibriumSolution:
        """The solution x_p(w) under w: a direct state's only one."""
        return _solution_from_x(self.system.at(w), self.x0 + self.gain @ w,
                                self.index)


def prepare_state(model: GraspModel, state: SlipState | tuple, *,
                  maps: GraspMaps | None = None,
                  tols: Tolerances = DEFAULT_TOLS) -> PreparedState:
    """Assemble one slip state at zero load; its family from one SVD."""
    return PreparedStates(model, [state], maps=maps, tols=tols)[0]


def _factor(a_eq: np.ndarray, tols: Tolerances):
    """(inv, u, vt, live, rank) of a stack of equality blocks (S, r, n).

    From one SVD call U S V^T over the stack: inv = V S^-1 U^T is each
    block's pseudo-inverse at the singular_rel cutoff, live its count of
    singular values above that cutoff (the right singular vectors beyond
    it span its null space) and rank its count above the rank_eps cutoff
    of the consistency test (the left singular vectors beyond it span
    its left null space).
    """
    u, sv, vt = np.linalg.svd(a_eq)
    top = sv[:, :1]
    keep = sv > tols.singular_rel * top
    live = np.count_nonzero(keep, axis=1)
    rank = np.count_nonzero(sv > tols.rank_eps * max(a_eq.shape[1:]) * top,
                            axis=1)
    p = sv.shape[1]
    scaled = np.divide(vt[:, :p].transpose(0, 2, 1), sv[:, None, :],
                       out=np.zeros((len(sv), vt.shape[1], p)),
                       where=keep[:, None, :])
    return scaled @ u[:, :, :p].transpose(0, 2, 1), u, vt, live, rank


class PreparedStates:
    """A grasp's slip states, prepared as one batch.

    Every state is assembled at zero load from per-contact label
    templates: the equality blocks stacked (S, n, n) and the inequality
    blocks padded to three slots per contact (S, 3m, n), padding rows
    zero. One SVD call factors the stack. For each state the batch keeps
    x0, gain, s0 and slack_gain (see PreparedState; zero on the padding),
    the null basis, the consistency map zero-padded to n rows and
    max|b_eq[3:]|, so ``candidates`` screens every state against a
    wrench in a few array operations. Indexing slices one state out as a
    PreparedState, kept for later queries.

    The systems depend on the grasp alone, so one instance serves any
    number of wrenches. ``states`` is a SlipStateSet, in its canonical
    order, or a sequence of SlipStates or label vectors (whose index is
    -1 and which have no detachment setting).
    """

    def __init__(self, model: GraspModel, states, *,
                 maps: GraspMaps | None = None,
                 tols: Tolerances = DEFAULT_TOLS):
        self.model = model
        self.states = states
        self.tols = tols
        self.detachment = getattr(states, "detachment", None)
        self._maps = build_maps(model) if maps is None else maps
        self._labels = [st.labels if isinstance(st, SlipState) else tuple(st)
                        for st in states]
        self._index = [st.index if isinstance(st, SlipState) else -1
                       for st in states]
        a_eq, b_eq, a_in, self._valid = _assemble(
            model, self._maps, _label_array(self._labels, model.m))
        self._inv, u, self._vt, self._live, rank = _factor(a_eq, tols)
        self._a_eq, self._b_eq, self._a_in = a_eq, b_eq, a_in
        n = a_eq.shape[-1]
        self.direct = self._live == n
        # the load enters b_eq as -w on the three equilibrium rows, so
        # x_p(w) = inv @ b_eq(0) - inv[:, :3] @ w
        self._x0 = np.einsum("sij,sj->si", self._inv, b_eq)
        self._gain = -self._inv[:, :, :3]
        self._s0 = np.einsum("sij,sj->si", a_in, self._x0)
        self._slack_gain = a_in @ self._gain
        # b_eq in the left null basis, the columns of u beyond the rank
        ut = u.transpose(0, 2, 1)
        beyond = np.arange(n) >= rank[:, None]
        self._cons0 = np.where(beyond, np.einsum("sij,sj->si", ut, b_eq), 0.0)
        self._cons_gain = np.where(beyond[:, :, None], -ut[:, :, :3], 0.0)
        self._b_max = np.max(np.abs(b_eq[:, 3:]), axis=1, initial=0.0)
        self._prepared: dict[int, PreparedState] = {}

    def __len__(self) -> int:
        return len(self._labels)

    def __getitem__(self, p: int) -> PreparedState:
        """The state at position p, sliced out of the batch once."""
        prep = self._prepared.get(p)
        if prep is None:
            valid = self._valid[p]
            sys = _system(self.model, self._maps, self._labels[p],
                          self._a_eq[p], self._b_eq[p], self._a_in[p], valid)
            null = self._vt[p, self._live[p]:].T
            if null.shape[1]:  # only a singular state reaches the box ladder
                sys.factor = self._inv[p], null
            prep = self._prepared[p] = PreparedState(
                sys, self._index[p], x0=self._x0[p], gain=self._gain[p],
                s0=self._s0[p, valid], slack_gain=self._slack_gain[p, valid],
                null=null, cons0=self._cons0[p], cons_gain=self._cons_gain[p])
        return prep

    def candidates(self, w: np.ndarray) -> np.ndarray:
        """Positions, in order, of the states that may hold under w.

        A direct state is kept when its slacks at x_p(w) pass, which
        makes it feasible; a singular one when its equalities pass the
        consistency test of ``solve_state``, which still decides it.
        """
        tols = self.tols
        slack = self._s0 + self._slack_gain @ w
        cons = np.linalg.norm(self._cons0 + self._cons_gain @ w, axis=1)
        scale = np.maximum(max(1.0, float(np.max(np.abs(w)))), self._b_max)
        bound = np.sqrt(self._b_eq.shape[1]) * tols.eq_residual * (1.0 + scale)
        keep = np.where(self.direct,
                        ~(np.min(slack, axis=1) < -tols.ineq_slack),
                        ~(cons > bound))
        return np.flatnonzero(keep)

    @classmethod
    def of(cls, model: GraspModel, states, tols: Tolerances) -> PreparedStates:
        """states itself when it is prepared for this grasp and tolerances."""
        if isinstance(states, cls):
            if states.model is model and states.tols == tols:
                return states
            states = states.states
        return cls(model, states, tols=tols)


def solve_state(model: GraspModel, w, state: SlipState | tuple | PreparedState,
                *, maps: GraspMaps | None = None,
                tols: Tolerances = DEFAULT_TOLS) -> EquilibriumSolution | None:
    """Solve one slip state; None when its constraints are inconsistent.

    A direct state is decided by its slacks at its one solution. Any
    other state is decided in its null space: the consistency test, then
    one feasibility LP over the whole null space (``_null_space_feasible``);
    the box ladder of ``linear_feasibility`` then runs only to produce the
    point. Both tests reject only what the ladder would, so the point is
    the one the ladder alone returns. A PreparedState is used as it is;
    any other state is prepared first.
    """
    prep = state if isinstance(state, PreparedState) else \
        prepare_state(model, state, maps=maps, tols=tols)
    w = as_wrench(w)
    slack = prep.s0 + prep.slack_gain @ w
    if prep.direct:
        if np.min(slack, initial=np.inf) < -tols.ineq_slack:
            return None
        return prep.solution_at(w)

    sys = prep.system.at(w)
    # the ladder accepts only points whose max-norm residual is at most
    # eq_tol, hence whose 2-norm residual is at most sqrt(rows) * eq_tol,
    # and no point has a smaller residual than the norm of b_eq in the
    # left null basis
    if np.linalg.norm(prep.cons0 + prep.cons_gain @ w) > \
            np.sqrt(len(sys.b_eq)) * _eq_tol(sys, tols)[1] or \
            not _null_space_feasible(sys, prep.x0 + prep.gain @ w, slack,
                                     prep.null, tols):
        return None
    x = linear_feasibility(sys, tols=tols)
    return None if x is None else _solution_from_x(sys, x, prep.index)


def _eq_tol(sys: StateSystem, tols: Tolerances) -> tuple[float, float]:
    """(scale, eq_tol): the data's magnitude and the largest max-norm
    equality residual the box ladder accepts."""
    scale = max(1.0, float(np.max(np.abs(sys.b_eq), initial=0.0)),
                float(np.max(np.abs(sys.b_in), initial=0.0)))
    return scale, tols.eq_residual * (1.0 + scale)


def _null_space_feasible(sys: StateSystem, x_p: np.ndarray, slack: np.ndarray,
                         null: np.ndarray, tols: Tolerances) -> bool:
    """Whether some x = x_p + N z meets the relaxed rows in the +-x_max box.

    slack is a_in x_p - b_in. The rows are a_in x >= b_in - ineq_slack and
    |x| <= x_max, as g z >= h. The ladder's boxes all lie within +-x_max
    and it accepts slack >= -ineq_slack, so where no such z exists every
    rung fails too. One feasibility call of the null-space LP decides
    this at every nullity.
    """
    k = null.shape[1]
    g, h = nullspace_lp.null_rows(sys, x_p, slack + tols.ineq_slack, null,
                                  tols.x_max)
    bound = nullspace_lp.z_bound(sys.n, tols.x_max)
    return nullspace_lp.small_lp(g, h, np.zeros(k), np.full(k, -bound),
                                 np.full(k, bound), tols) is not None


def linear_feasibility(sys: StateSystem, *, tols: Tolerances = DEFAULT_TOLS,
                       objective=None) -> np.ndarray | None:
    """Point satisfying the state system, or None.

    Maximizes the minimum inequality slack subject to the equalities and
    a box bound on the unknowns; pin rows (ineq_kind "pin") hold as hard
    rows and take no part in the margin. The box grows geometrically from
    ladder_start times the data's magnitude up to x_max, so that solutions
    of ordinary magnitude are found at ordinary scale. Each rung is one
    exact LP (``nullspace_lp.null_lp``) over x = x_p + N z, with x_p and
    N from one SVD of the equality block. ``solve_state`` rejects
    infeasible states before this ladder runs, by tests that reject only
    what it would, so the ladder alone returns the same points.

    With ``objective`` given, minimizes it over the feasible set instead.
    """
    a_eq, b_eq = sys.a_eq, sys.b_eq
    scale, eq_tol = _eq_tol(sys, tols)
    if sys.factor is None:
        inv, _u, vt, live, _rank = _factor(a_eq[None], tols)
        inv, null = inv[0], vt[0, live[0]:].T
    else:
        inv, null = sys.factor
    x_p = inv @ b_eq

    box = tols.ladder_start * scale
    while True:
        box = min(box, tols.x_max)
        x, s = nullspace_lp.null_lp(sys, x_p, null, box, objective, tols)
        ok = x is not None and (objective is not None
                                or s >= -tols.ineq_slack)
        if ok:
            # the program's verdict is advisory: accept only a point that
            # verifiably satisfies the system at the working tolerances
            x = _project_onto_equalities(a_eq, b_eq, x, tols)
            eq_res = float(np.max(np.abs(a_eq @ x - b_eq), initial=0.0))
            slack = (float(np.min(sys.a_in @ x - sys.b_in))
                     if len(sys.b_in) else np.inf)
            if eq_res <= eq_tol and slack >= -tols.ineq_slack:
                hits_box = float(np.max(np.abs(x))) > 0.9 * box
                if not hits_box or box >= tols.x_max:
                    return x
        if box >= tols.x_max:
            return None
        box *= tols.ladder_step


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
