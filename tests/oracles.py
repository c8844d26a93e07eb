"""Reference operators the tests compare the package against, and the
figures the tests read off study tables."""

import math
from functools import lru_cache

import numpy as np
import scipy.sparse as sps

from vchsim.config import build_model
from vchsim.stepper import mu_weight


@lru_cache(maxsize=32)
def laplacian_matrix(grid):
    """Discrete Laplacian with reflected ghost values (zero normal flux),
    as a scipy.sparse CSR matrix in row-major node ordering.

    3-point (1-D) / 5-point (2-D) stencil divided by h^2, assembled
    independently of the package's matrix-free face divergence.  Constants
    are in its kernel exactly; boundary rows see the reflected ghost.
    """
    n, h2 = grid.n, grid.h ** 2
    main = -2.0 * np.ones(n)
    main[0] = main[-1] = -1.0  # reflected ghost merges into the diagonal
    off = np.ones(n - 1)
    lap1d = sps.diags([off, main, off], offsets=[-1, 0, 1], format="csr") / h2
    if grid.dim == 1:
        return lap1d.tocsr()
    eye = sps.identity(n, format="csr")
    return (sps.kron(lap1d, eye) + sps.kron(eye, lap1d)).tocsr()


def fit_order(counts, errors):
    """Least-squares slope of log error against log step count over the
    rows with a positive error -- a refinement sweep's headline empirical
    order (the pairwise ``order`` entries of orders.csv wobble around it)."""
    pts = [(math.log(n), math.log(e)) for n, e in zip(counts, errors) if e > 0]
    xs, ys = np.array(pts).T
    return float(-np.polyfit(xs, ys, 1)[0])


def oracle_gaps(config, rows) -> dict:
    """Figures of a homogeneous-oracle table (the rows of oracle.csv): the
    sup over step times of |stepper - oracle| for mu and rho, and the
    largest drift of the exact invariant (eps + 2 g(rho)) mu^2 from its
    initial value along each path."""
    _grid, cfg, laws = build_model(config)
    col = {name: np.array([row[name] for row in rows]) for name in rows[0]}

    def invariant(path):
        return mu_weight(cfg, laws, col[f"rho_{path}"]) * col[f"mu_{path}"] ** 2

    inv0 = invariant("stepper")[0]
    return {
        "err_mu": float(np.max(np.abs(col["mu_stepper"] - col["mu_oracle"]))),
        "err_rho": float(np.max(np.abs(col["rho_stepper"] - col["rho_oracle"]))),
        "drift_stepper": float(np.max(np.abs(invariant("stepper") - inv0))),
        "drift_oracle": float(np.max(np.abs(invariant("oracle") - inv0))),
    }
