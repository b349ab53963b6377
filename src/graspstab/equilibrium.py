"""Per-slip-state equilibrium systems and their solution.

For a fixed slip state the balance of the grasp is linear: equilibrium
(3 rows), the normal spring law at attached contacts, friction pinned to
the cone edge at slipping contacts, zero tangential motion at sticking
contacts, and zero force at detached contacts give a square system in
(d, c). The load enters only the three equilibrium rows of its right-hand
side, so a state is prepared once per grasp: assembled at zero load and
its equality block factored by one SVD. A well-conditioned state is
then decided for any wrench by two affine maps, its solution and its
inequality slacks; a rank-deficient one is decided in the null space of
its equalities, and an LP runs only to produce its point, or to screen
a null space of three or more dimensions.
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
    motion, used by the canonical-witness selection. svd holds the
    factors (u, s, vt) of a_eq once ``factors`` has computed them; the
    load does not enter a_eq, so copies that keep a_eq (``at``, and the
    witness's extra rows) share the list and with it the factors.
    """

    labels: tuple[int, ...]
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_in: np.ndarray
    b_in: np.ndarray
    ineq_kind: list[str]
    slip_dirs: dict[int, np.ndarray] = field(default_factory=dict)
    m: int = 0
    svd: list = field(default_factory=list, repr=False)

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

    def factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not self.svd:
            self.svd.append(np.linalg.svd(self.a_eq))
        return self.svd[0]


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
    """Build the equality/inequality blocks for one slip state."""
    if maps is None:
        maps = build_maps(model)
    labels = state.labels if isinstance(state, SlipState) else tuple(state)
    w = as_wrench(w)
    m = model.m
    n = 3 + 2 * m
    rows_eq, rhs_eq = [], []
    rows_in, rhs_in, kinds = [], [], []

    # net wrench of contact forces balances the applied wrench
    eq_block = np.zeros((3, n))
    eq_block[:, 3:] = maps.wrench
    rows_eq.extend(eq_block)
    rhs_eq.extend(-w)

    for i, label in enumerate(labels):
        mu = model.contacts[i].mu
        k = model.stiffness[i]
        c0n = model.preload[i, 0]
        ncol = maps.motion[:, 2 * i]
        tcol = maps.motion[:, 2 * i + 1]
        cn, ct = 3 + 2 * i, 3 + 2 * i + 1

        if label == DETACHED:
            for j in (cn, ct):
                row = np.zeros(n)
                row[j] = 1.0
                rows_eq.append(row)
                rhs_eq.append(0.0)
            row = np.zeros(n)  # must not penetrate: delta_n <= 0
            row[:3] = -ncol
            rows_in.append(row)
            rhs_in.append(0.0)
            kinds.append("separation")
            continue

        # attached: normal spring law c_n = c0_n + k * delta_n
        row = np.zeros(n)
        row[cn] = 1.0
        row[:3] = -k * ncol
        rows_eq.append(row)
        rhs_eq.append(c0n)

        row = np.zeros(n)  # unilaterality
        row[cn] = 1.0
        rows_in.append(row)
        rhs_in.append(0.0)
        kinds.append("unilateral")

        if label == 0:
            row = np.zeros(n)  # no tangential motion
            row[:3] = tcol
            rows_eq.append(row)
            rhs_eq.append(0.0)
            for sgn in (1.0, -1.0):  # friction inside the cone
                row = np.zeros(n)
                row[cn] = mu
                row[ct] = -sgn
                rows_in.append(row)
                rhs_in.append(0.0)
                kinds.append("cone")
        else:
            # slipping: friction on the cone edge opposing the motion
            row = np.zeros(n)
            row[ct] = 1.0
            row[cn] = mu * label  # label -1: c_t = +mu c_n; +1: c_t = -mu c_n
            rows_eq.append(row)
            rhs_eq.append(0.0)
            row = np.zeros(n)  # assumed slip direction must agree
            row[:3] = label * tcol
            rows_in.append(row)
            rhs_in.append(0.0)
            kinds.append("slip_sign")

    sys = StateSystem(
        labels=labels,
        a_eq=np.array(rows_eq), b_eq=np.array(rhs_eq),
        a_in=np.array(rows_in).reshape(-1, n), b_in=np.array(rhs_in),
        ineq_kind=kinds, m=m,
    )
    for i, label in enumerate(labels):
        if label in (-1, 1):
            sys.slip_dirs[i] = label * maps.motion[:, 2 * i + 1]
    return sys


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
    """One slip state's system at zero load, with its factors.

    A direct (well-conditioned) state also carries the affine maps of
    its solution and slacks in the wrench w:
    x(w) = x0 + gain @ w and a_in x(w) - b_in = s0 + slack_gain @ w.
    """

    system: StateSystem
    index: int
    direct: bool
    x0: np.ndarray | None = None
    gain: np.ndarray | None = None
    s0: np.ndarray | None = None
    slack_gain: np.ndarray | None = None


def prepare_state(model: GraspModel, state: SlipState | tuple, *,
                  maps: GraspMaps | None = None,
                  tols: Tolerances = DEFAULT_TOLS) -> PreparedState:
    """Assemble one slip state at zero load and factor its equalities."""
    sys = assemble_state_system(model, np.zeros(3), state, maps)
    idx = state.index if isinstance(state, SlipState) else -1
    u, sv, vt = sys.factors()
    if sv[-1] <= tols.singular_rel * sv[0]:
        return PreparedState(sys, idx, direct=False)
    # the load enters b_eq as -w on the three equilibrium rows, so
    # x(w) = inv @ b_eq(0) - inv[:, :3] @ w with inv = V S^-1 U^T
    inv = (vt.T / sv) @ u.T
    x0, gain = inv @ sys.b_eq, -inv[:, :3]
    return PreparedState(sys, idx, direct=True, x0=x0, gain=gain,
                         s0=sys.a_in @ x0 - sys.b_in,
                         slack_gain=sys.a_in @ gain)


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

    The equality block is square by construction. If it is well
    conditioned the direct solution is screened against the inequalities;
    otherwise the feasibility program searches the solution family. A
    PreparedState is used as it is; any other state is prepared first.
    """
    prep = state if isinstance(state, PreparedState) else \
        prepare_state(model, state, maps=maps, tols=tols)
    w = as_wrench(w)
    if prep.direct:
        if len(prep.s0) and \
                np.min(prep.s0 + prep.slack_gain @ w) < -tols.ineq_slack:
            return None
        return _solution_from_x(prep.system.at(w), prep.x0 + prep.gain @ w,
                                prep.index)

    sys = prep.system.at(w)
    x = linear_feasibility(sys, tols=tols)
    if x is None:
        return None
    return _solution_from_x(sys, x, prep.index)


def _solution_family(sys: StateSystem, eq_tol: float, tols: Tolerances):
    """(x_p, N) with x_p + N z spanning the equality solutions, or None.

    None when the equalities are inconsistent: the ladder below accepts
    only points whose max-norm residual is at most eq_tol, hence whose
    2-norm residual is at most sqrt(rows) * eq_tol, and no point has a
    smaller residual than ||Y^T b_eq||, with Y the left null basis at
    numpy lstsq's rank cutoff. N (orthonormal columns) is the null basis
    at the singular cutoff, so it also holds the nearly null directions.
    """
    rows, n = sys.a_eq.shape
    if rows == 0:
        return np.zeros(n), np.eye(n)
    u, sv, vt = sys.factors()
    rank = int(np.count_nonzero(sv > tols.rank_eps * max(rows, n) * sv[0]))
    if np.linalg.norm(u[:, rank:].T @ sys.b_eq) > np.sqrt(rows) * eq_tol:
        return None
    live = int(np.count_nonzero(sv > tols.singular_rel * sv[0]))
    x_p = vt[:live].T @ ((u[:, :live].T @ sys.b_eq) / sv[:live])
    return x_p, vt[live:].T


def _null_space_feasible(sys: StateSystem, x_p: np.ndarray, null: np.ndarray,
                         tols: Tolerances) -> bool:
    """Whether some x = x_p + N z meets the relaxed rows in the +-x_max box.

    The rows are a_in x >= b_in - ineq_slack and |x| <= x_max, as
    g z >= h. Nullity 0 checks x_p, nullity 1 the ends of the interval
    of z, nullity 2 the vertices of the polygon of z (bounded by the box,
    so it has a vertex when it is not empty); a larger nullity runs the
    phase-1 LP over x.
    """
    k = null.shape[1]
    if k >= 3:
        ok, _x = lp.solve_lp(np.zeros(sys.n), sys.a_eq, sys.b_eq, sys.a_in,
                             sys.b_in - tols.ineq_slack, -tols.x_max,
                             tols.x_max)
        return ok
    g = np.vstack([sys.a_in @ null, null, -null])
    h = np.concatenate([sys.b_in - tols.ineq_slack - sys.a_in @ x_p,
                        -tols.x_max - x_p, -tols.x_max + x_p])
    g_norm = np.linalg.norm(g, axis=1)
    steep = g_norm > tols.flat_rel * np.concatenate(
        [np.linalg.norm(sys.a_in, axis=1), np.ones(2 * sys.n)])
    if k == 0:
        cand = np.zeros((1, 0))
    elif k == 1:
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
    ordinary magnitude are computed at ordinary scale.

    Two tests reject a state before that box ladder runs, from the
    factors cached on the system; both only return None where the ladder
    would, so every point it returns is the one the ladder alone would
    return:

    1. Consistency: the least-squares residual of the equalities must be
       within reach of the ladder's residual tolerance (see
       ``_solution_family``).
    2. Null-space screen (feasibility callers only): the ladder's boxes
       all lie within +-x_max and it accepts slack >= -ineq_slack, so if
       no point x_p + N z of that box meets the inequalities relaxed by
       ineq_slack, every rung fails too. Nullity up to 2 is decided in
       closed form, without an LP.

    With ``objective`` given, minimizes it over the feasible set instead.
    """
    a_eq, b_eq = sys.a_eq, sys.b_eq

    scale = max(1.0, float(np.max(np.abs(b_eq), initial=0.0)),
                float(np.max(np.abs(sys.b_in), initial=0.0)))
    eq_tol = tols.eq_residual * (1.0 + scale)

    family = _solution_family(sys, eq_tol, tols)
    if family is None:
        return None
    if objective is None and not _null_space_feasible(sys, *family, tols):
        return None

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
