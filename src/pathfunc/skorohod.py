"""The Skorohod J1 distance between step paths, computed exactly.

The distance between RCLL paths x and y on [0, 1] is the infimum over
continuous, strictly increasing time changes lambda of [0, 1] onto itself of

    max( sup |lambda(t) - t| , sup |x(lambda(t)) - y(t)| ).

For step paths, d <= delta is decided cell by cell, by the free-space method
of Alt & Godau (IJCGA 1995) that Majumdar & Prabhu (HSCC 2015) used for the
Skorokhod distance.  Cell (i, j) pairs x's piece i, value X_i on
[a_i, a_{i+1}), with y's piece j, value Y_j on [b_j, b_{j+1}).  The points
(lambda(t), t) run monotonically through the free cells, |X_i - Y_j| <= delta,
inside the strip |s - t| <= delta.  They cross an edge between two cells of a
row or a column, or pass through a corner, matching a jump of x to a jump of
y.  Each test compares a difference of two times, or of two values, with
delta.  So the distance is one of the |X_i - Y_j|, the |a_i - b_j| or
|x(1) - y(1)|, found by galloping up those values and bisecting, and both
argument orders make the same comparisons.  The infimum need not be
attained, so no time change is returned.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError
from .paths import StepPath

__all__ = ["skorohod_distance_approx"]


def _reaches_end(a, X, b, Y, d) -> bool:
    """Whether a route through the cells within d runs from (0, 0) to (1, 1).

    ``a``, ``b`` are the grids and ``X``, ``Y`` the pieces' values, as lists.
    A cell's convex part inside the strip reaches every point of it above and
    right of an entry point, and the strip's lower edges rise with s and t.
    So the lowest reachable point of an edge is its lowest point in the strip,
    and a row carries only the columns of the cells it reaches, in order.
    """
    n = len(X)
    row = [-1]  # a cell below and left of the first, meeting it at (0, 0)
    for j, yj in enumerate(Y):
        b0, b1 = b[j], b[j + 1]
        starts = []
        for i in row:
            if i >= 0 and a[i] - b0 <= d and b0 - a[i + 1] <= d:
                starts.append(i)  # up through the bottom edge
            if i + 1 < n and abs(a[i + 1] - b0) <= d:
                starts.append(i + 1)  # through the corner: a jump meets a jump
        row = []
        for i in starts:  # nondecreasing
            if row and row[-1] >= i or abs(X[i] - yj) > d:
                continue
            row.append(i)
            while (i + 1 < n and b0 - a[i + 1] <= d and a[i + 1] - b1 <= d
                   and abs(X[i + 1] - yj) <= d):
                i += 1  # right through the left edge of the next cell
                row.append(i)
        if not row:
            return False
    return row[-1] == n - 1


def skorohod_distance_approx(x: StepPath, y: StepPath) -> float:
    """The Skorohod J1 distance of two scalar step paths, exact.

    The name is kept for the benchmark harness, which reads it.
    """
    if not (x.is_scalar and y.is_scalar):
        raise PreconditionError("distance is defined for scalar paths")
    a, X, b, Y = x.times, x.values[:-1], y.times, y.values[:-1]
    # lambda(1) = 1, and the first and last cells are on every route
    low = max(abs(x.values[-1] - y.values[-1]), abs(X[0] - Y[0]), abs(X[-1] - Y[-1]))
    c = np.unique(np.concatenate([np.abs(np.subtract.outer(X, Y)).ravel(),
                                  np.abs(np.subtract.outer(a, b)).ravel(), [low]]))
    c = c[c >= low]  # the largest frees every cell, edge and corner: no test
    args = (a.tolist(), X.tolist(), b.tolist(), Y.tolist())
    lo = hi = 0
    while hi < c.size - 1 and not _reaches_end(*args, float(c[hi])):
        lo, hi = hi + 1, min(2 * hi + 1, c.size - 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if _reaches_end(*args, float(c[mid])):
            hi = mid
        else:
            lo = mid + 1
    return float(c[hi])
