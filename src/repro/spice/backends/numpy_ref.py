"""Pure-NumPy reference backend.

Bit-for-bit the solver behaviour the engines had before the backend
layer existed: the scalar path goes through SciPy's raw ``dgesv`` LAPACK
driver when SciPy is importable (~2.5x less call overhead than
``numpy.linalg.solve``) and the stacked path through one batched
``numpy.linalg.solve``.  A singular lane in a batch triggers the
lane-by-lane fallback solve so the healthy lanes still get their LAPACK
answers — the same containment the ensemble engine previously inlined.
"""

from __future__ import annotations

import numpy as np

from repro.spice.backends.base import SolverBackend

try:  # Direct LAPACK driver: ~2.5x less overhead than np.linalg.solve
    from scipy.linalg.lapack import dgesv as _dgesv  # type: ignore
except ImportError:  # pragma: no cover - scipy is a standard dependency
    _dgesv = None


class NumpyBackend(SolverBackend):
    """Dense LAPACK solves through NumPy/SciPy; the behaviour oracle."""

    name = "numpy"

    def solve(self, J: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, bool]:
        self._count(1)
        if _dgesv is not None:
            _, _, delta, info = _dgesv(J, -F, 0, 1)
            if info != 0:
                return np.zeros_like(F), False
            return delta, True
        try:
            return np.linalg.solve(J, -F), True
        except np.linalg.LinAlgError:
            return np.zeros_like(F), False

    def solve_stacked(self, J: np.ndarray, F: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
        self._count(len(J))
        ok = np.ones(len(J), dtype=bool)
        try:
            return np.linalg.solve(J, -F[..., None])[..., 0], ok
        except np.linalg.LinAlgError:
            # Some lane is singular: solve lane by lane so the healthy
            # lanes still get the exact batched-LAPACK answers.
            delta = np.zeros_like(F)
            for a in range(len(J)):
                try:
                    delta[a] = np.linalg.solve(J[a], -F[a])
                except np.linalg.LinAlgError:
                    ok[a] = False
            return delta, ok
