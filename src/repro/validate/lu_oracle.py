"""Dense partial-pivot LU: the oracle of the ``kernel-lu-oracle`` check.

The spice kernel (:mod:`repro.spice.backends.native`) factors along a
recorded pivot order and skips structural zeros.  This is the dense
in-place loop it replaced, transliterated: the same IEEE double
operations in the same order, so the kernel's solutions must equal it
component for component.
"""

from __future__ import annotations

from collections.abc import Sequence


def lu_solve(J: Sequence[Sequence[float]], rhs: Sequence[float]
             ) -> list[float] | None:
    """Solve ``J x = rhs``; None on an exactly-zero pivot (as ``dgesv``).

    Step k pivots on the largest ``|a|`` among rows k..S-1 in current
    row order, the first one winning a tie, and swaps columns k..S-1
    only, so multipliers stay where they were written.
    """
    a = [[float(v) for v in row] for row in J]
    b = [float(v) for v in rhs]
    S = len(b)
    for k in range(S):
        p = k
        best = abs(a[k][k])
        for i in range(k + 1, S):
            if abs(a[i][k]) > best:
                best, p = abs(a[i][k]), i
        if a[p][k] == 0.0:
            return None
        a[k][k:], a[p][k:] = a[p][k:], a[k][k:]
        b[k], b[p] = b[p], b[k]
        rk = a[k]
        for i in range(k + 1, S):
            ri = a[i]
            f = ri[k] / rk[k]
            ri[k] = f
            for j in range(k + 1, S):
                ri[j] -= f * rk[j]
            b[i] -= f * b[k]
    for k in range(S - 1, -1, -1):
        t = b[k]
        for j in range(k + 1, S):
            t -= a[k][j] * b[j]
        b[k] = t / a[k][k]
    return b
