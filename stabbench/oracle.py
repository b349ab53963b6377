"""Checks computed apart from ``graspstab``.

Everything here is derived from the raw contact data (position, outward
normal, friction coefficient, stiffness, preload) with the sign
conventions documented in ``graspstab/model.py``:

  - tangent tau = (n_y, -n_x);
  - a contact force (c_n, c_t) acts on the object as F = -n c_n + tau c_t;
  - object motion d = (x, y, r) moves the contact at p with
    v = (x, y) + r (-p_y, p_x); delta_n = v . n, delta_t = v . tau;
  - normal spring c_n = c0_n + k delta_n; slip with label s = +-1 means
    s delta_t >= 0 with friction on the cone edge c_t = -s mu c_n.

Nothing from ``graspstab`` is imported. The verdict oracle decides every
label vector's equilibrium program: by a direct solve of its square
equality block when that block is well conditioned, and with HiGHS
(``scipy.optimize.linprog``) when it is not. The residual and
motion-label checks are plain numpy.

The ``oracle_mix`` queries of a seed are picked by oracle verdict (see
``workloads.select_oracle_mix``). Picks and verdicts of seeds 0-39 are
stored in ``verdicts/``; recompute them with

    python3 stabbench/oracle.py --seeds 0-39

The class shares the picks follow (``workloads.MIX_DRAWN``) are measured
on the candidates of seeds 0-39 with

    python3 stabbench/oracle.py --shares 0-39

A run whose seed has no stored picks makes them first, under
``stabbench/out/``, outside the timed phase and outside ``setup_s``.
"""

from __future__ import annotations

import itertools

import numpy as np

STICK, DETACHED = 0, 2
# a contact may separate only when detachment is on and it has no
# normal preload (the program's reading of the constitutive law)
PRELOAD_ZERO = 1e-12
# residual limit on a witness reported stable
RESIDUAL_TOL = 1e-7
# smallest singular value, relative to the largest, of an equality block
# solved directly; below it the label vector goes to HiGHS
SINGULAR_REL = 1e-9
# inequality slack accepted at a direct solution, relative to its size
SLACK_TOL = 1e-9


class OracleError(RuntimeError):
    """HiGHS could not decide a label vector."""


def _frames(model):
    """Per contact: normal, tangent, position, mu, k, c0_n (numpy arrays)."""
    n = np.array([c.normal for c in model.contacts], dtype=float)
    p = np.array([c.position for c in model.contacts], dtype=float)
    tau = np.stack([n[:, 1], -n[:, 0]], axis=1)
    mu = np.array([c.mu for c in model.contacts], dtype=float)
    k = np.asarray(model.stiffness, dtype=float).reshape(-1)
    c0n = np.asarray(model.preload, dtype=float).reshape(-1, 2)[:, 0]
    return n, tau, p, mu, k, c0n


def _cross(p, v):
    return p[..., 0] * v[..., 1] - p[..., 1] * v[..., 0]


def motion_rows(model):
    """(delta_n rows, delta_t rows), each (m, 3): linear maps of d."""
    n, tau, p, *_ = _frames(model)
    dn = np.column_stack([n, _cross(p, n)])
    dt = np.column_stack([tau, _cross(p, tau)])
    return dn, dt


def can_detach(model, detachment: bool) -> np.ndarray:
    c0n = _frames(model)[5]
    return (c0n <= PRELOAD_ZERO) & bool(detachment)


def motion_labels(model, motions: np.ndarray, detachment: bool) -> np.ndarray:
    """Label vector (rows) induced by each motion in ``motions`` (N, 3).

    Tangential motion sets slip-/stick/slip+ by its sign; a contact that
    may detach and moves away from the finger (delta_n < 0) is detached.
    Generic motions never sit exactly on a plane, so stick appears only
    through the zero test and is vanishingly rare.
    """
    dn, dt = motion_rows(model)
    vn = motions @ dn.T
    vt = motions @ dt.T
    labels = np.sign(vt).astype(int)
    free = can_detach(model, detachment)
    labels[(vn < 0) & free[None, :]] = DETACHED
    return labels


def label_choices(model, detachment: bool):
    free = can_detach(model, detachment)
    return [(-1, STICK, 1, DETACHED) if f else (-1, STICK, 1) for f in free]


def state_program(model, w, labels):
    """Equality and inequality blocks (a_eq x = b_eq, a_ge x >= b_ge).

    Unknowns x = (d_x, d_y, d_r, c_n0, c_t0, c_n1, c_t1, ...).
    """
    n, tau, p, mu, k, c0n = _frames(model)
    dn, dt = motion_rows(model)
    m = len(labels)
    nx = 3 + 2 * m
    w = np.asarray(w, dtype=float).reshape(3)
    eq, beq, ge, bge = [], [], [], []

    bal = np.zeros((3, nx))  # sum of contact wrenches + w = 0
    for i in range(m):
        cn, ct = 3 + 2 * i, 4 + 2 * i
        bal[:2, cn] = -n[i]
        bal[2, cn] = -_cross(p[i], n[i])
        bal[:2, ct] = tau[i]
        bal[2, ct] = _cross(p[i], tau[i])
    eq.extend(bal)
    beq.extend(-w)

    for i, lab in enumerate(labels):
        cn, ct = 3 + 2 * i, 4 + 2 * i
        if lab == DETACHED:
            for j in (cn, ct):
                row = np.zeros(nx)
                row[j] = 1.0
                eq.append(row)
                beq.append(0.0)
            row = np.zeros(nx)
            row[:3] = -dn[i]
            ge.append(row)
            bge.append(0.0)
            continue
        row = np.zeros(nx)
        row[cn] = 1.0
        row[:3] = -k[i] * dn[i]
        eq.append(row)
        beq.append(c0n[i])
        row = np.zeros(nx)
        row[cn] = 1.0
        ge.append(row)
        bge.append(0.0)
        if lab == STICK:
            row = np.zeros(nx)
            row[:3] = dt[i]
            eq.append(row)
            beq.append(0.0)
            for sgn in (1.0, -1.0):
                row = np.zeros(nx)
                row[cn] = mu[i]
                row[ct] = sgn
                ge.append(row)
                bge.append(0.0)
        else:
            row = np.zeros(nx)
            row[ct] = 1.0
            row[cn] = lab * mu[i]
            eq.append(row)
            beq.append(0.0)
            row = np.zeros(nx)
            row[:3] = lab * dt[i]
            ge.append(row)
            bge.append(0.0)
    return (np.array(eq), np.array(beq),
            np.array(ge).reshape(-1, nx), np.array(bge))


def state_feasible(model, w, labels) -> bool:
    """Does the label vector's program have a solution?

    The equality block is square (3 + 2m rows and unknowns). When it is
    well conditioned its only solution is a_eq^-1 b_eq, and the program
    is feasible exactly when that point meets the inequalities; otherwise
    HiGHS decides.
    """
    a_eq, b_eq, a_ge, b_ge = state_program(model, w, labels)
    sv = np.linalg.svd(a_eq, compute_uv=False)
    if sv[-1] <= SINGULAR_REL * sv[0]:
        return state_feasible_highs(a_eq, b_eq, a_ge, b_ge)
    x = np.linalg.solve(a_eq, b_eq)
    scale = 1.0 + float(np.max(np.abs(x)))
    return bool(np.all(a_ge @ x - b_ge >= -SLACK_TOL * scale))


def state_feasible_highs(a_eq, b_eq, a_ge, b_ge) -> bool:
    from scipy.optimize import linprog

    res = linprog(np.zeros(a_eq.shape[1]), A_ub=-a_ge, b_ub=-b_ge,
                  A_eq=a_eq, b_eq=b_eq, bounds=(None, None), method="highs")
    if res.status == 0:
        return True
    if res.status == 2:
        return False
    raise OracleError(f"HiGHS status {res.status}: {res.message}")


def oracle_verdict(model, w, detachment: bool) -> bool:
    """Exhaustive search over every label vector (3^m or up to 4^m)."""
    for labels in itertools.product(*label_choices(model, detachment)):
        if state_feasible(model, w, labels):
            return True
    return False


def residual(model, w, d, forces, labels) -> float:
    """Largest violation of any equilibrium condition by a witness."""
    n, tau, p, mu, k, c0n = _frames(model)
    dn, dt = motion_rows(model)
    d = np.asarray(d, dtype=float).reshape(3)
    f = np.asarray(forces, dtype=float).reshape(-1, 2)
    vn, vt = dn @ d, dt @ d
    worst = []
    force = -n * f[:, :1] + tau * f[:, 1:]
    total = np.array([force[:, 0].sum(), force[:, 1].sum(),
                      _cross(p, force).sum()])
    worst.append(np.max(np.abs(total + np.asarray(w, dtype=float))))
    for i, lab in enumerate(labels):
        c_n, c_t = f[i]
        if lab == DETACHED:
            worst += [abs(c_n), abs(c_t), vn[i]]
            continue
        worst += [abs(c_n - c0n[i] - k[i] * vn[i]), -c_n,
                  abs(c_t) - mu[i] * c_n]
        if lab == STICK:
            worst.append(abs(vt[i]))
        else:
            worst += [abs(c_t + lab * mu[i] * c_n), -lab * vt[i]]
    return float(max(worst))


def main(argv=None) -> int:
    """Select and store the oracle_mix queries of the given seeds, or
    tally the classes of their candidates."""
    import argparse
    import json
    import sys
    from pathlib import Path

    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here))
    import run  # noqa: E402

    ap = argparse.ArgumentParser(description=main.__doc__)
    todo = ap.add_mutually_exclusive_group(required=True)
    todo.add_argument("--seeds", help="comma list or range, e.g. 0-39 or 3,7")
    todo.add_argument("--shares", metavar="SEEDS",
                      help="print the class tally of these seeds' candidates")
    ap.add_argument("--out", type=Path, default=here / "verdicts",
                    help="directory for oracle_mix-seed<N>.json")
    args = ap.parse_args(argv)
    seeds = []
    for part in (args.seeds or args.shares).split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    gs = run.import_program()
    import workloads
    if args.shares:
        tally, screened = workloads.mix_tally(gs, seeds)
        print(f"classes (zero preload, stable): {tally}")
        print(f"screened out: {screened}")
        return 0
    args.out.mkdir(parents=True, exist_ok=True)
    for seed in seeds:
        doc = workloads.select_oracle_mix(gs, seed)
        path = args.out / f"oracle_mix-seed{seed}.json"
        path.write_text(json.dumps(doc) + "\n")
        print(f"seed {seed}: {len(doc['picks'])} queries -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
