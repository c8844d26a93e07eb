"""Uniform cell-centered grids with zero-flux boundaries.

The simulator works on a 1-D interval or a 2-D square, discretized with a
uniform cell-centered mesh: node ``i`` sits at ``(i + 1/2) h``.  With this
layout a reflected ghost value (ghost = first interior value) enforces a
homogeneous Neumann condition to second order without one-sided stencils.

All operators here are pure functions; fields are value objects and are
never mutated in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered mesh on an interval (dim=1) or square (dim=2).

    ``n`` is the number of nodes per axis and ``length`` the edge length of
    the box, so the spacing is ``h = length / n``.
    """

    dim: int
    n: int
    length: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.n < 3:
            raise ValueError(f"need at least 3 nodes per axis, got {self.n}")
        if not self.length > 0.0:
            raise ValueError(f"length must be positive, got {self.length}")

    @property
    def h(self) -> float:
        return self.length / self.n

    @property
    def num_nodes(self) -> int:
        return self.n ** self.dim

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    def coordinates(self) -> tuple:
        """Cell-center coordinates, one grid-shaped array per axis: entry
        ``axis`` holds ``(i + 1/2) h`` at every node whose index along that
        axis is ``i``.  A 1-tuple ``(x,)`` in 1-D, the ``ij`` meshgrid pair
        ``(X, Y)`` in 2-D."""
        x = (np.arange(self.n) + 0.5) * self.h
        return tuple(np.meshgrid(*[x] * self.dim, indexing="ij"))

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim


@dataclass
class ScalarField:
    """Node values of a scalar quantity on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            if v.size == self.grid.num_nodes:
                v = v.reshape(self.grid.shape)
            else:
                raise ValueError(
                    f"field has {v.size} values, grid has {self.grid.num_nodes} nodes"
                )
        object.__setattr__(self, "values", v)

    def check_finite(self) -> "ScalarField":
        if not np.all(np.isfinite(self.values)):
            raise FloatingPointError("field contains non-finite values")
        return self

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())


def field_of(grid: Grid, value) -> ScalarField:
    """Build a field from a scalar constant or an array of node values."""
    if np.isscalar(value):
        return ScalarField(grid, np.full(grid.shape, float(value)))
    return ScalarField(grid, np.asarray(value, dtype=float))


def face_weights(grid: Grid, kv: np.ndarray) -> tuple:
    """Per-axis face coefficients of ``div(k grad .)`` divided by h^2: the
    arithmetic means of the node values of ``k`` on each face.

    Entry ``axis`` holds one weight per interior face normal to that axis;
    boundary faces carry zero flux and have no entry.  A linear solver
    computes these once per system and applies them with :func:`div_faces`.
    """
    h2 = grid.h ** 2
    # the arithmetic mean keeps the flux alive where one node's coefficient
    # touches 0, as the degenerate-mobility scheme needs
    return tuple(0.5 * (kv[_slab_index(kv.ndim, axis, None, -1)]
                        + kv[_slab_index(kv.ndim, axis, 1, None)]) / h2
                 for axis in range(grid.dim))


def div_faces(weights: tuple, uv: np.ndarray) -> np.ndarray:
    """Divergence of the face fluxes ``w (u_q - u_p)``: each interior face
    adds its flux to the node below it and subtracts it from the node above."""
    out = np.zeros_like(uv)
    for axis, w in enumerate(weights):
        lo = _slab_index(uv.ndim, axis, None, -1)
        hi = _slab_index(uv.ndim, axis, 1, None)
        flux = uv[hi] - uv[lo]
        flux *= w
        out[lo] += flux
        out[hi] -= flux
    return out


def div_faces_diagonal(weights: tuple, shape: tuple) -> np.ndarray:
    """The diagonal of ``-div_faces(weights, .)``: at each node, the sum of
    the weights of its faces."""
    out = np.zeros(shape)
    for axis, w in enumerate(weights):
        out[_slab_index(len(shape), axis, None, -1)] += w
        out[_slab_index(len(shape), axis, 1, None)] += w
    return out


def div_k_grad_arrays(grid: Grid, kv: np.ndarray, uv: np.ndarray,
                      harmonic: bool = False) -> np.ndarray:
    """Divergence of the flux ``k grad u`` in conservation form.

    Face coefficients are the arithmetic means of :func:`face_weights`;
    boundary faces carry zero flux.  With ``k == 1`` it is the Laplacian,
    as the rho stage applies it through :func:`unit_face_weights`.  The
    package applies :func:`div_faces` to weights it forms once; this
    one-shot form stays for the benchmark's traced run, which times it by
    name.
    """
    # the harmonic face average is gone; the flag stays only because the
    # benchmark's traced run passes False positionally
    if harmonic is not False:
        raise ValueError("harmonic face averaging was removed; face "
                         "coefficients are always arithmetic means")
    return div_faces(face_weights(grid, kv), uv)


def _slab_index(ndim: int, axis: int, start, stop) -> tuple:
    idx = [slice(None)] * ndim
    idx[axis] = slice(start, stop)
    return tuple(idx)


def integrate(grid: Grid, u: ScalarField) -> float:
    """Midpoint quadrature: h^dim times the sum of node values."""
    if u.grid != grid:
        raise ValueError("field does not live on the given grid")
    return float(grid.cell_volume * u.values.sum())


def dirichlet_energy(grid: Grid, weights: tuple, u: ScalarField) -> float:
    """The bilinear form of :func:`div_faces` at face weights ``weights``:
    ``h^dim sum_faces w (u_q - u_p)^2``, which equals
    ``-h^dim sum u div_faces(weights, u)``.

    With :func:`unit_face_weights` it is the squared discrete H1 seminorm,
    zero exactly iff ``u`` is constant.
    """
    return grid.cell_volume * sum(
        float(np.sum(w * np.diff(u.values, axis=axis) ** 2))
        for axis, w in enumerate(weights))


@lru_cache(maxsize=32)
def unit_face_weights(grid: Grid) -> tuple:
    """:func:`face_weights` of ``k == 1`` (every weight 1/h^2), so that
    ``div_faces(unit_face_weights(grid), u)`` is the discrete Neumann
    Laplacian L: the 3-point (1-D) or 5-point (2-D) stencil over h^2, whose
    boundary rows see a reflected ghost value (zero normal flux), which
    makes the cell-centered closure second order.  Constants are in its
    kernel exactly.  Cached per grid and read-only."""
    weights = face_weights(grid, np.ones(grid.shape))
    for w in weights:
        w.flags.writeable = False
    return weights


@lru_cache(maxsize=32)
def laplacian_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues of the Laplacian of :func:`unit_face_weights` in
    orthonormal DCT-II order.

    The reflected-ghost stencil is diagonalized exactly by the DCT-II
    (Strang, SIAM Review 41, 1999): mode ``j`` of one axis has eigenvalue
    ``-4 sin^2(pi j / 2n) / h^2``, so ``C L C^T = diag(lam)`` with ``C`` the
    matrix of :func:`dct_matrix`; an eigenvalue of the grid is the sum over
    the axes of its modes' eigenvalues.  Cached per grid and read-only.
    """
    modes = np.arange(grid.n)
    axis_lam = -4.0 * np.sin(0.5 * np.pi * modes / grid.n) ** 2 / grid.h ** 2
    lam = sum(np.meshgrid(*[axis_lam] * grid.dim, indexing="ij", sparse=True))
    lam.flags.writeable = False
    return lam


@lru_cache(maxsize=32)
def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II as an n x n matrix: ``C[k, j] = c_k cos(pi k
    (2j + 1) / 2n)`` with ``c_0 = sqrt(1/n)`` and ``c_k = sqrt(2/n)``
    otherwise, so ``C C^T = I`` and ``C u`` is the orthonormal DCT-II of ``u``.

    The integer ``k (2j + 1)`` is reduced modulo ``4n`` before the cosine,
    so every angle lies in ``[0, 2 pi)`` and the entries are accurate to a
    few ulp at any ``n``.  Built in place in the one n x n array, cached per
    ``n`` and read-only.
    """
    c = np.outer(np.arange(n, dtype=float), np.arange(1.0, 2 * n, 2.0))
    np.fmod(c, 4 * n, out=c)
    c *= 0.5 * np.pi / n
    np.cos(c, out=c)
    c *= np.sqrt(2.0 / n)
    c[0] = np.sqrt(1.0 / n)
    c.flags.writeable = False
    return c


def shifted_laplacian_solve(grid: Grid, s: float, k: float,
                            rhs: np.ndarray) -> np.ndarray:
    """Solve ``(s I - k L) x = rhs`` exactly, L the Laplacian of
    :func:`unit_face_weights`.

    Needs ``s > 0`` and ``k >= 0``.  ``rhs`` may be flat or shaped like the
    grid; ``x`` comes back in the same layout.  The orthonormal DCT-II is
    applied as the cached dense matrix ``C`` of :func:`dct_matrix` along
    each axis, ``x = C^T ((C u) / (s - k lam))`` in 1-D and
    ``X = C^T ((C U C^T) / (s - k lam)) C`` in 2-D, so the solve is numpy
    matrix products only.
    """
    c = dct_matrix(grid.n)
    u = rhs.reshape(grid.shape)
    denom = s - k * laplacian_eigenvalues(grid)
    # the package's one dim branch: the manifests' independence of the BLAS
    # thread count (see the stepper module) was measured on these kernels,
    # a matrix-vector product in 1-D and matrix products in 2-D
    if grid.dim == 1:
        x = c.T @ ((c @ u) / denom)
    else:
        x = c.T @ ((c @ u @ c.T) / denom) @ c
    return x.reshape(rhs.shape)


def write_snapshot(path, field: ScalarField, t: float) -> None:
    """Write a field snapshot: header ``dim n length t`` then one node value
    per line in row-major order, 17 significant digits (lossless round trip)."""
    g = field.grid
    values = field.values.ravel().tolist()
    # one %-format over all values: the bytes of per-value "{:.17g}"
    body = "%.17g\n" * len(values) % tuple(values)
    with open(path, "w") as fh:
        fh.write(f"{g.dim} {g.n} {g.length:.17g} {t:.17g}\n{body}")


def read_snapshot(path, grid: Grid | None = None) -> tuple:
    """Read a snapshot written by :func:`write_snapshot`.

    Returns ``(field, t)``.  A stored field means something only on the
    grid it was written for, so given ``grid``, a snapshot whose header
    names another grid is refused before any value is parsed.  Its own
    errors do not name the path: the callers' messages do.
    """
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4:
            raise ValueError("malformed snapshot header")
        dim, n = int(header[0]), int(header[1])
        length, t = float(header[2]), float(header[3])
        written = Grid(dim, n, length)
        if grid is not None and written != grid:
            raise ValueError(f"was written for grid {written}, run uses {grid}")
        values = np.loadtxt(fh, dtype=float, ndmin=1)
    if values.size != written.num_nodes:
        raise ValueError(
            f"expected {written.num_nodes} values, found {values.size}")
    return ScalarField(written, values.reshape(written.shape)), t
