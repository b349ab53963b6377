"""Per-slip-state equilibrium systems and their solution.

For a fixed slip state the balance of the grasp is linear: equilibrium
(3 rows), the normal spring law at attached contacts, friction pinned to
the cone edge at slipping contacts, zero tangential motion at sticking
contacts, and zero force at detached contacts give a square system in
(d, c). Well-conditioned systems are solved directly and screened against
the inequalities (unilaterality, stick cones, slip direction, separation);
rank-deficient ones go to the max-min-slack feasibility program, after a
least-squares test and one phase-1 LP have rejected most of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lp
from .arrangement import DETACHED, LABEL_NAMES, SlipState
from .model import (GraspMaps, GraspModel, as_wrench, build_maps, cross2,
                    tangent_of, world_force)
from .params import DEFAULT_TOLS, Tolerances

__all__ = [
    "StateSystem",
    "EquilibriumSolution",
    "assemble_state_system",
    "solve_state",
    "linear_feasibility",
    "check_solution",
]


@dataclass(eq=False)
class StateSystem:
    """Linear system of one slip state over x = (d[3], c[2m]).

    Equalities a_eq x = b_eq; inequalities a_in x >= b_in. ineq_kind
    tags each inequality row (unilateral / cone / slip_sign / separation)
    and slip_rows maps slipping contacts to the d-row of their tangential
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


def _project_onto_equalities(a_eq, b_eq, x: np.ndarray) -> np.ndarray:
    """Minimal-norm correction pulling x onto the equality manifold."""
    if a_eq.shape[0] == 0:
        return x
    residual = a_eq @ x - b_eq
    if np.max(np.abs(residual)) < 1e-13:
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


def solve_state(model: GraspModel, w, state: SlipState | tuple, *,
                maps: GraspMaps | None = None,
                tols: Tolerances = DEFAULT_TOLS) -> EquilibriumSolution | None:
    """Solve one slip state; None when its constraints are inconsistent.

    The equality block is square by construction. If it is well
    conditioned the direct solution is screened against the inequalities;
    otherwise the feasibility program searches the solution family.
    """
    sys = assemble_state_system(model, w, state, maps)
    idx = state.index if isinstance(state, SlipState) else -1

    sv = np.linalg.svd(sys.a_eq, compute_uv=False)
    if sv[-1] > tols.singular_rel * sv[0]:
        x = np.linalg.solve(sys.a_eq, sys.b_eq)
        slack = float(np.min(sys.a_in @ x - sys.b_in)) if len(sys.b_in) else np.inf
        if slack < -tols.ineq_slack:
            return None
        return _solution_from_x(sys, x, idx)

    x = linear_feasibility(sys, tols=tols)
    if x is None:
        return None
    return _solution_from_x(sys, x, idx)


def linear_feasibility(sys: StateSystem, *, tols: Tolerances = DEFAULT_TOLS,
                       objective=None) -> np.ndarray | None:
    """Point satisfying the state system, or None.

    Maximizes the minimum inequality slack subject to the equalities and
    a box bound on the unknowns. The box (and with it the tableau scale)
    grows geometrically up to the configured limit, so that solutions of
    ordinary magnitude are computed at ordinary scale.

    Two tests reject a state before that box ladder runs; both only
    return None where the ladder would, so every point it returns is the
    one the ladder alone would return:

    1. Consistency (no LP): the ladder accepts only points whose
       max-norm equality residual is at most eq_tol, hence whose 2-norm
       residual is at most sqrt(rows) * eq_tol. If the least-squares
       residual, the smallest 2-norm residual of any point, exceeds that,
       no point can pass.
    2. Phase 1 (one LP, feasibility callers only): the ladder's boxes
       all lie within +-x_max and it accepts slack >= -ineq_slack, so if
       no point of that box satisfies the equalities and the inequalities
       relaxed by ineq_slack, every rung fails too.

    Test 1 runs first because it is much cheaper than the LP and rejects
    most singular states.

    With ``objective`` given, minimizes it over the feasible set instead.
    """
    a_eq, b_eq = sys.a_eq, sys.b_eq

    scale = max(1.0, float(np.max(np.abs(b_eq), initial=0.0)),
                float(np.max(np.abs(sys.b_in), initial=0.0)))
    eq_tol = tols.eq_residual * (1.0 + scale)

    if a_eq.shape[0]:
        x_ls, *_ = np.linalg.lstsq(a_eq, b_eq, rcond=None)
        if np.linalg.norm(a_eq @ x_ls - b_eq) > np.sqrt(a_eq.shape[0]) * eq_tol:
            return None
    if objective is None:
        ok, _x = lp.solve_lp(np.zeros(sys.n), a_eq, b_eq, sys.a_in,
                             sys.b_in - tols.ineq_slack, -tols.x_max, tols.x_max)
        if not ok:
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
            x = _project_onto_equalities(a_eq, b_eq, x)
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
