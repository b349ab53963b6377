"""The simplex pivot kernel: Bland-rule pivots on a dense numpy tableau."""

import numpy as np

OPTIMAL = 0
UNBOUNDED = 1
ITERATION_LIMIT = 2


def pivot_loop(T, basis, enterable, tol, max_iter):
    """Run Bland-rule simplex pivots in place until optimal.

    T: (rows+1, cols+1) tableau, last row = reduced costs (minimization),
       last column = rhs. basis: int array of basic variable per row.
    enterable: columns >= enterable may not enter (phase-2 artificials).
    """
    nrows = T.shape[0] - 1
    for _ in range(max_iter):
        costs = T[-1, :enterable]
        neg = np.nonzero(costs < -tol)[0]
        if neg.size == 0:
            return OPTIMAL
        j = int(neg[0])  # Bland: lowest-index improving column

        col = T[:nrows, j]
        pos = np.nonzero(col > tol)[0]
        if pos.size == 0:
            return UNBOUNDED
        ratios = T[pos, -1] / col[pos]
        best = np.min(ratios)
        ties = pos[np.nonzero(ratios <= best + 1e-15 * (1.0 + abs(best)))[0]]
        # Bland: among minimal ratios leave the lowest-index basic variable
        r = int(ties[np.argmin(basis[ties])])

        piv = T[r, j]
        T[r, :] /= piv
        colcopy = T[:, j].copy()
        colcopy[r] = 0.0
        T -= np.outer(colcopy, T[r, :])
        T[:, j] = 0.0
        T[r, j] = 1.0
        basis[r] = j
    return ITERATION_LIMIT
