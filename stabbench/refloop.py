"""The reference loop: the unit in which the benchmark reports op cost.

A fixed piece of work shaped like the program's: three small linear
programs solved by a two-phase dense-tableau simplex with Bland's rule
(Python loops over small numpy row operations), then sign-vector and
bitmask bookkeeping in plain Python, as the arrangement does. It imports
nothing from ``graspstab``, so a change to the program cannot move it;
only the host's speed does. Timing it next to the ops and dividing
cancels the host's drift, which on a shared VM is larger than any gain
worth measuring. (A loop of pivot-shaped row operations on one fixed
tableau, tried first, followed a slow host less closely: over five
minutes the windowed cost of an enumeration op drifted by 3.8 % against
it and by 2.8 % against this loop.)

Frozen: changing the programs, the bookkeeping or the operations changes
the unit and makes every earlier figure incomparable.
"""

import time

import numpy as np


def _pivot_loop(T, basis, enterable, tol=1e-9, max_iter=500):
    nrows = T.shape[0] - 1
    for _ in range(max_iter):
        neg = np.nonzero(T[-1, :enterable] < -tol)[0]
        if neg.size == 0:
            return
        j = int(neg[0])
        col = T[:nrows, j]
        pos = np.nonzero(col > tol)[0]
        if pos.size == 0:
            return
        ratios = T[pos, -1] / col[pos]
        best = np.min(ratios)
        ties = pos[np.nonzero(ratios <= best + 1e-15 * (1.0 + abs(best)))[0]]
        r = int(ties[np.argmin(basis[ties])])
        T[r, :] /= T[r, j]
        colcopy = T[:, j].copy()
        colcopy[r] = 0.0
        T -= np.outer(colcopy, T[r, :])
        T[:, j] = 0.0
        T[r, j] = 1.0
        basis[r] = j


def _solve(A, b, c) -> float:
    """min c x subject to A x = b (b >= 0), x >= 0."""
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    basis = np.arange(n, n + m)
    T[-1, :] = -T[:m, :].sum(axis=0)
    T[-1, n:n + m] = 0.0
    _pivot_loop(T, basis, n + m)
    T[-1, :] = 0.0
    T[-1, :n] = c
    for i in range(m):
        if basis[i] < n and c[basis[i]] != 0.0:
            T[-1, :] -= c[basis[i]] * T[i, :]
    _pivot_loop(T, basis, n)
    return float(T[-1, -1])


def _programs():
    rng = np.random.default_rng(20180605)
    out = []
    for m, n in [(8, 14), (12, 22), (16, 30)]:
        A = rng.uniform(-1.0, 1.0, (m, n))
        b = A @ rng.uniform(0.0, 1.0, n)
        A[b < 0] *= -1.0
        out.append((A, np.abs(b), rng.uniform(0.0, 1.0, n)))
    return out


_PROGRAMS = _programs()


def reference_loop() -> float:
    """Run the loop once; returns a checksum so the work cannot be skipped."""
    acc = sum(_solve(A, b, c) for A, b, c in _PROGRAMS)
    seen: dict[tuple, int] = {}
    masks = []
    for i in range(400):
        key = tuple((i >> k) & 1 for k in range(12))
        seen[key] = seen.get(key, 0) + 1
        mask = i * 2654435761 & 0xFFFFFF
        masks.append((bin(mask).count("1"), mask))
    masks.sort()
    bits = 0
    for _count, mask in masks:
        bits ^= mask & -mask
    return acc + bits + len(seen)


def time_reference() -> float:
    """Wall seconds of one reference loop."""
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0
