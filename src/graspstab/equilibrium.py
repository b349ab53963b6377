"""Per-slip-state equilibrium systems and their solution.

For a fixed slip state the balance of the grasp is linear: equilibrium
(3 rows), the normal spring law at attached contacts, friction pinned to
the cone edge at slipping contacts, zero tangential motion at sticking
contacts, and zero force at detached contacts give a square system in
(d, c). The load enters only the three equilibrium rows of its right-hand
side, so a state is prepared once per grasp: assembled at zero load,
and one SVD of its equality block gives its solution family x_p(w) + N z
as affine maps of the wrench w. A direct state (N empty) is decided by
its slacks at x_p(w); any other state in its null space, and an LP runs
only to produce its point, or to screen a null space of three or more
dimensions.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .arrangement import DETACHED, LABEL_NAMES, SlipState, SlipStateSet
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
    tags each inequality row (unilateral / cone / slip_sign / separation)
    and slip_dirs maps slipping contacts to the d-row of their tangential
    motion, used by the canonical-witness selection.
    """

    labels: tuple[int, ...]
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_in: np.ndarray
    b_in: np.ndarray
    ineq_kind: list[str]
    slip_dirs: dict[int, np.ndarray] = field(default_factory=dict)
    m: int = 0

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


def assemble_state_system(model: GraspModel, w, state: SlipState | tuple,
                          maps: GraspMaps | None = None) -> StateSystem:
    """Build the equality/inequality blocks for one slip state.

    Rows 0-2 are equilibrium; contact i owns equality rows 3+2i and 4+2i
    (the rows of its force unknowns) and, in contact order, one
    inequality row when detached, two when slipping and three when
    sticking. Every inequality's right-hand side is zero.
    """
    if maps is None:
        maps = build_maps(model)
    labels = state.labels if isinstance(state, SlipState) else tuple(state)
    w = as_wrench(w)
    m = model.m
    n = 3 + 2 * m
    n_in = sum(1 if l == DETACHED else 3 if l == 0 else 2 for l in labels)
    a_eq, b_eq = np.zeros((n, n)), np.zeros(n)
    a_in = np.zeros((n_in, n))
    kinds: list[str] = []
    slip_dirs: dict[int, np.ndarray] = {}

    # net wrench of contact forces balances the applied wrench
    a_eq[:3, 3:] = maps.wrench
    b_eq[:3] = -w

    r = 0  # next inequality row
    for i, label in enumerate(labels):
        mu = model.contacts[i].mu
        ncol = maps.motion[:, 2 * i]
        tcol = maps.motion[:, 2 * i + 1]
        cn, ct = 3 + 2 * i, 3 + 2 * i + 1

        if label == DETACHED:
            a_eq[cn, cn] = a_eq[ct, ct] = 1.0
            a_in[r, :3] = -ncol  # must not penetrate: delta_n <= 0
            kinds.append("separation")
            r += 1
            continue

        # attached: normal spring law c_n = c0_n + k * delta_n
        a_eq[cn, cn] = 1.0
        a_eq[cn, :3] = -model.stiffness[i] * ncol
        b_eq[cn] = model.preload[i, 0]
        a_in[r, cn] = 1.0  # unilaterality
        kinds.append("unilateral")

        if label == 0:
            a_eq[ct, :3] = tcol  # no tangential motion
            a_in[r + 1:r + 3, cn] = mu  # friction inside the cone
            a_in[r + 1:r + 3, ct] = (-1.0, 1.0)
            kinds += ["cone", "cone"]
            r += 3
        else:
            # slipping: friction on the cone edge opposing the motion
            a_eq[ct, ct] = 1.0
            a_eq[ct, cn] = mu * label  # label -1: c_t = +mu c_n; +1: c_t = -mu c_n
            slip_dirs[i] = label * tcol
            a_in[r + 1, :3] = slip_dirs[i]  # assumed slip direction must agree
            kinds.append("slip_sign")
            r += 2

    return StateSystem(labels=labels, a_eq=a_eq, b_eq=b_eq, a_in=a_in,
                       b_in=np.zeros(n_in), ineq_kind=kinds,
                       slip_dirs=slip_dirs, m=m)


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
    side in the left null basis at the rank_eps cutoff, is small enough
    (see ``solve_state``). A direct state has an empty null basis.
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


def prepare_state(model: GraspModel, state: SlipState | tuple, *,
                  maps: GraspMaps | None = None,
                  tols: Tolerances = DEFAULT_TOLS) -> PreparedState:
    """Assemble one slip state at zero load; its family from one SVD."""
    sys = assemble_state_system(model, np.zeros(3), state, maps)
    idx = state.index if isinstance(state, SlipState) else -1
    u, sv, vt = np.linalg.svd(sys.a_eq)
    live = int(np.count_nonzero(sv > tols.singular_rel * sv[0]))
    rank = int(np.count_nonzero(
        sv > tols.rank_eps * max(sys.a_eq.shape) * sv[0]))
    # the load enters b_eq as -w on the three equilibrium rows, so
    # x_p(w) = inv @ b_eq(0) - inv[:, :3] @ w with inv = V S^-1 U^T
    inv = (vt[:live].T / sv[:live]) @ u[:, :live].T
    x0, gain = inv @ sys.b_eq, -inv[:, :3]
    return PreparedState(sys, idx, x0=x0, gain=gain,
                         s0=sys.a_in @ x0 - sys.b_in,
                         slack_gain=sys.a_in @ gain, null=vt[live:].T,
                         cons0=u[:, rank:].T @ sys.b_eq,
                         cons_gain=-u[:3, rank:].T)


class PreparedStates:
    """A grasp's slip states, each prepared when it is first reached.

    The systems depend on the grasp alone, so one instance serves any
    number of wrenches; iteration follows the canonical order of the
    underlying SlipStateSet.
    """

    def __init__(self, model: GraspModel, states: SlipStateSet, *,
                 tols: Tolerances = DEFAULT_TOLS):
        self.model = model
        self.states = states
        self.tols = tols
        self.detachment = states.detachment
        self._maps = build_maps(model)
        self._prepared: list[PreparedState] = []

    def __iter__(self):
        for i, st in enumerate(self.states):
            if i == len(self._prepared):
                self._prepared.append(prepare_state(
                    self.model, st, maps=self._maps, tols=self.tols))
            yield self._prepared[i]

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
    the screen of ``_null_space_feasible``; the box ladder of
    ``linear_feasibility`` then runs only to produce the point. Both
    tests reject only what the ladder would, so the point is the one the
    ladder alone returns. A PreparedState is used as it is; any other
    state is prepared first.
    """
    prep = state if isinstance(state, PreparedState) else \
        prepare_state(model, state, maps=maps, tols=tols)
    w = as_wrench(w)
    slack = prep.s0 + prep.slack_gain @ w
    if prep.direct:
        if np.min(slack, initial=np.inf) < -tols.ineq_slack:
            return None
        return _solution_from_x(prep.system.at(w), prep.x0 + prep.gain @ w,
                                prep.index)

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
    rung fails too. Nullity 1 checks the ends of the interval of z,
    nullity 2 the vertices of the polygon of z (bounded by the box, so it
    has a vertex when it is not empty); a larger nullity runs the phase-1
    LP over x.
    """
    k = null.shape[1]
    if k >= 3:
        ok, _x = lp.solve_lp(np.zeros(sys.n), sys.a_eq, sys.b_eq, sys.a_in,
                             sys.b_in - tols.ineq_slack, -tols.x_max,
                             tols.x_max)
        return ok
    g = np.vstack([sys.a_in @ null, null, -null])
    h = np.concatenate([-tols.ineq_slack - slack,
                        -tols.x_max - x_p, -tols.x_max + x_p])
    g_norm = np.linalg.norm(g, axis=1)
    steep = g_norm > tols.flat_rel * np.concatenate(
        [np.linalg.norm(sys.a_in, axis=1), np.ones(2 * sys.n)])
    if k == 1:
        gs, hs = g[steep, 0], h[steep]
        cand = np.array([[np.max(hs[gs > 0] / gs[gs > 0])],
                         [np.min(hs[gs < 0] / gs[gs < 0])]])
    else:
        gs, hs, gn = g[steep], h[steep], g_norm[steep]
        i, j = np.triu_indices(len(gs), 1)
        det = gs[i, 0] * gs[j, 1] - gs[i, 1] * gs[j, 0]
        keep = np.abs(det) > tols.flat_rel * gn[i] * gn[j]
        i, j, det = i[keep], j[keep], det[keep]
        cand = np.stack([(hs[i] * gs[j, 1] - hs[j] * gs[i, 1]) / det,
                         (gs[i, 0] * hs[j] - gs[j, 0] * hs[i]) / det], axis=1)
    resid = g @ cand.T - h[:, None]
    allow = tols.vertex_slack * (1.0 + np.abs(h)[:, None]
                                 + np.outer(g_norm, np.linalg.norm(cand, axis=1)))
    return bool(np.any(np.all(resid >= -allow, axis=0)))


def linear_feasibility(sys: StateSystem, *, tols: Tolerances = DEFAULT_TOLS,
                       objective=None) -> np.ndarray | None:
    """Point satisfying the state system, or None.

    Maximizes the minimum inequality slack subject to the equalities and
    a box bound on the unknowns. The box (and with it the tableau scale)
    grows geometrically up to the configured limit, so that solutions of
    ordinary magnitude are computed at ordinary scale. ``solve_state``
    rejects infeasible states before this ladder runs, by tests that
    reject only what it would, so the ladder alone returns the same
    points.

    With ``objective`` given, minimizes it over the feasible set instead.
    """
    a_eq, b_eq = sys.a_eq, sys.b_eq
    scale, eq_tol = _eq_tol(sys, tols)

    box = 100.0 * scale
    while True:
        box = min(box, tols.x_max)
        if objective is None:
            x, s = lp.max_min_slack(a_eq, b_eq, sys.a_in, sys.b_in,
                                    -box, box, s_cap=1e3)
            ok = x is not None and s >= -tols.ineq_slack
        else:
            ok, x = lp.solve_lp(objective, a_eq, b_eq, sys.a_in, sys.b_in,
                                -box, box)
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
        box *= 100.0


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
