"""Reference operators the tests compare the package against."""

from functools import lru_cache

import numpy as np
import scipy.sparse as sps


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
