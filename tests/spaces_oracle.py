"""The checks `umbellab.spaces.FiniteMatrixSpace` ran on its matrix before
the symmetry test was written out and the triangle check compared blocks of
midpoints at once: np.allclose against the transpose, then one midpoint at
a time.  It serves as the test oracle for those checks; nothing in the
library imports it.  `sample` is the one-point draw the spaces had before
they drew only in batches."""

from __future__ import annotations

from typing import Optional

import numpy as np

from umbellab.spaces import ABS_TOL, REL_TOL


def sample(space, rng: np.random.Generator):
    """One point of the space's ball: the one-point case of `sample_batch`,
    so successive calls draw the points of one batch in order."""
    return space.point(space.sample_batch(rng, 1, 1)[0, 0])


def matrix_error(matrix) -> Optional[str]:
    """The message of the first check the matrix fails, None if it passes."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return "matrix must be square"
    if not np.isfinite(m).all():
        return "distances must be finite"
    if not np.allclose(m, m.T, rtol=REL_TOL, atol=ABS_TOL):
        return "matrix must be symmetric"
    if np.abs(np.diagonal(m)).max(initial=0.0) > ABS_TOL:
        return "diagonal must be zero"
    if (m < 0).any():
        return "distances must be nonnegative"
    n = m.shape[0]
    slack = REL_TOL * (m.max(initial=0.0) + 1.0)
    with np.errstate(over="ignore"):
        for mid in range(n):
            via = m[:, mid][:, None] + m[mid, :][None, :]
            if (m > via + slack).any():
                return "triangle inequality fails"
    return None
