"""Uniform cell-centered grids with zero-flux boundaries.

The simulator works on a 1-D interval or a 2-D square, discretized with a
uniform cell-centered mesh: node ``i`` sits at ``(i + 1/2) h``.  With this
layout a reflected ghost value (ghost = first interior value) enforces a
homogeneous Neumann condition to second order without one-sided stencils.

All operators here are pure functions; fields are value objects and are
never mutated in place.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered mesh on an interval (dim=1) or square (dim=2).

    ``n`` is the number of nodes per axis and ``length`` the edge length of
    the box, so the spacing is ``h = length / n``.  The operators scale by
    ``1/h^2``, so ``h^2`` and ``1/h^2`` must both be finite positive doubles,
    and a field of doubles on it must have a byte count numpy can index.
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
        h2 = self.h * self.h  # inf where h ** 2 would raise
        if not (0.0 < h2 < math.inf and 1.0 / h2 < math.inf):
            raise ValueError(f"grid spacing h = {self.h:g} is out of range: "
                             f"h^2 and 1/h^2 must be finite and positive")
        if self.num_nodes * 8 > np.iinfo(np.intp).max:
            raise ValueError(f"grid of {self.n}^{self.dim} nodes is too large: "
                             f"a field of 8-byte values exceeds numpy's "
                             f"largest array of {np.iinfo(np.intp).max} bytes")

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
    """Node values of a scalar quantity on a grid, as an array shaped like
    the grid (``Grid.shape``); any other shape, a flat array of the right
    size included, is rejected."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValueError(f"field has shape {v.shape}, grid has shape "
                             f"{self.grid.shape}")
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


def neighbour_sum(weights: tuple, uv: np.ndarray) -> np.ndarray:
    """The off-diagonal part of ``div_faces(weights, .)``: at each node, the
    sum over its faces of the face weight times the node value across the
    face.  It only adds products, so nonnegative weights and values give a
    nonnegative sum under any rounding."""
    out = np.zeros_like(uv)
    for axis, w in enumerate(weights):
        lo = _slab_index(uv.ndim, axis, None, -1)
        hi = _slab_index(uv.ndim, axis, 1, None)
        out[lo] += w * uv[hi]
        out[hi] += w * uv[lo]
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


def dirichlet_energy(grid: Grid, weights: tuple, u: np.ndarray) -> float:
    """The bilinear form of :func:`div_faces` at face weights ``weights``,
    at node values ``u`` shaped like the grid:
    ``h^dim sum_faces w (u_q - u_p)^2``, which equals
    ``-h^dim sum u div_faces(weights, u)``.

    With :func:`unit_face_weights` it is the squared discrete H1 seminorm,
    zero exactly iff ``u`` is constant.
    """
    return grid.cell_volume * sum(
        float(np.sum(w * np.diff(u, axis=axis) ** 2))
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

    Needs ``s > 0`` and ``k >= 0``; ``rhs`` and ``x`` are shaped like the
    grid.  The orthonormal DCT-II is applied as the cached dense matrix
    ``C`` of :func:`dct_matrix` along each axis, ``x = C^T ((C u) / (s - k
    lam))`` in 1-D and ``X = C^T ((C U C^T) / (s - k lam)) C`` in 2-D, so
    the solve is numpy matrix products only.
    """
    c = dct_matrix(grid.n)
    denom = s - k * laplacian_eigenvalues(grid)
    # the package's one dim branch: the manifests' independence of the BLAS
    # thread count (see the stepper module) was measured on these kernels,
    # a matrix-vector product in 1-D and matrix products in 2-D
    if grid.dim == 1:
        return c.T @ ((c @ rhs) / denom)
    return c.T @ ((c @ rhs @ c.T) / denom) @ c


# The snapshot codec.  Every value line is 26 bytes: a sign column (space
# or "-"), 18 significant digits "d.ddddddddddddddddd", "e", a signed
# 3-digit exponent and "\n", the digits of Python's "%.17e".  Eighteen
# digits lie within 0.05 ulp of the value, so the text round-trips exactly.
# Both directions work on chunks of _CHUNK values, so their temporaries stay
# small, and decide every byte or bit by + - x / and floor, which are
# correctly rounded in every SIMD loop (a logarithm only guesses a decade):
# the results do not depend on numpy's CPU dispatch or on BLAS.
_CHUNK = 2048
_LINE = 26
# the fast paths take |v| in [1/_FAST, _FAST] and decimal exponents up to
# _FAST_EXP in size; there every partial product below is a normal double,
# but for the low part of 10^k at k < -291, whose error is at most 4.5e-11
# of the half gap that _TIE guards
_FAST_EXP = 280
_FAST = 1e280
# values within _TIE of a decimal tie, in units of the last digit (writer),
# or of a midpoint between doubles, relative to the rest below the double
# (reader), go through Python's own conversion; the double-double errs by
# less than 1e-13 of either (4.5e-11 in the case above)
_TIE = 1e-9
# a line as native words: sign, leading digit, "." and the next digit;
# four groups of four digits; "e", the exponent's sign and two digits; the
# last digit and the newline
_LINE_WORDS = np.dtype([("head", "u4"), ("groups", "u4", 4),
                        ("exp", "u4"), ("tail", "u2")])


@lru_cache(maxsize=None)
def _pow10(k: int) -> tuple:
    """10^k as a double-double ``(hi, lo)``: ``hi`` is 10^k correctly
    rounded and ``lo`` the rest, rounded.  Python integer arithmetic, whose
    int / int division is correctly rounded; built on first use of ``k``."""
    if k >= 0:
        exact = 10 ** k
        hi = float(exact)
        return hi, float(exact - int(hi))
    den = 10 ** -k
    hi = 1 / den
    num, pow2 = hi.as_integer_ratio()
    return hi, (pow2 - num * den) / (pow2 * den)


@lru_cache(maxsize=None)
def _word_tables() -> tuple:
    """The writer's text, by the fields of ``_LINE_WORDS``: heads by sign
    and leading two digits (``100 neg + lead``), the digit groups 0000 ...
    9999, and the exponent's two words by exponent + _FAST_EXP + 1."""
    heads = b"".join(b"%c%d.%d" % (sign, lead // 10, lead % 10)
                     for sign in b" -" for lead in range(100))
    groups = np.empty((10, 10, 10, 10, 4), np.uint8)
    digit = np.arange(48, 58, dtype=np.uint8)
    for place in range(4):
        groups[..., place] = digit.reshape([10 if i == place else 1
                                            for i in range(4)])
    exps = b"".join(b"e%+04d\n" % x
                    for x in range(-_FAST_EXP - 1, _FAST_EXP + 2))
    exps = np.frombuffer(exps, np.uint8).reshape(-1, 6)
    return (np.frombuffer(heads, np.uint32), groups.view(np.uint32).ravel(),
            exps[:, :4].copy().view(np.uint32).ravel(),
            exps[:, 4:].copy().view(np.uint16).ravel())


# per byte of a line: the least byte of the layout and the span above it
# (digits 0-9; ".", "e" and the newline exact; the sign columns, any byte
# here, are checked on their own)
_LOW = np.frombuffer(b"\x000.00000000000000000e\x00000\n", np.uint8)
_SPAN = np.frombuffer(bytes(255 if c == 0 else 9 if c == 48 else 0
                            for c in _LOW.tobytes()), np.uint8)


def _split(a):
    c = 134217729.0 * a  # 2^27 + 1: Veltkamp's split into 26-bit halves
    hi = c - (c - a)
    return hi, a - hi


def _scale(x_hi, x_lo, k):
    """``(x_hi + x_lo) 10^k`` as a double-double ``(s, t)``, elementwise:
    Dekker's exact product of ``x_hi`` and the high part of 10^k (Numer.
    Math. 18, 1971; no FMA needed) plus the cross terms."""
    base = int(k.min())
    his, los = np.array([_pow10(j) for j in range(base, int(k.max()) + 1)]).T
    index = (k - base).astype(np.intp)
    hi, lo = his.take(index), los.take(index)
    p = x_hi * hi
    ah, al = _split(x_hi)
    bh, bl = _split(hi)
    # ((ah bh - p) + ah bl + al bh) + al bl, then the cross terms, in place
    e = ah * bh
    e -= p
    e += ah * bl
    e += al * bh
    e += al * bl
    cross = x_hi * lo
    cross += x_lo * hi
    e += cross
    # normalized by Dekker's fast two-sum, exact as |p| >= |e|: the high
    # part is the product rounded, the low part the exact rest
    s = p + e
    return s, e - (s - p)


def _divmod(x, d):
    """Floor quotient and remainder of integer-valued doubles by a power of
    ten ``d``, exact while ``x / d`` cannot round up to the next integer,
    i.e. while ``1 / d`` exceeds half an ulp of the quotient: every call but
    the first split of ``p`` in :func:`_encode`, whose carry corrects it."""
    q = np.floor(x / d)
    return q, x - q * d


def _line(v: float) -> bytes:
    """One value in the 26-byte layout, by Python's own formatting."""
    text = f"{v:.17e}"
    if "e" not in text:  # inf and nan, right-justified
        return f"{text:>25}\n".encode()
    mantissa, exponent = text.split("e")
    return f"{mantissa:>20}e{int(exponent):+04d}\n".encode()


def _encode(values: np.ndarray) -> np.ndarray:
    """The lines of a chunk of values, equal to ``_line``'s byte for byte,
    as one buffer of ``_LINE_WORDS``."""
    mag = np.abs(values)
    zero = mag == 0
    fast = (mag >= 1 / _FAST) & (mag <= _FAST)  # false for inf and nan
    mag[~fast] = 1.0  # its line: 1e17 with a zero fraction and exponent
    # |v| 10^k = y as the double-double (p, e); the logarithm only guesses
    # the decade, and y's range [1e17, 1e18) settles it (p is y rounded)
    k = 17 - np.floor(np.log(mag) / np.log(10.0)).astype(np.int64)
    p, e = _scale(mag, 0.0, k)
    while True:
        low = (p < 1e17) | ((p == 1e17) & (e < 0))
        high = (p > 1e18) | ((p == 1e18) & (e >= 0))
        rows = np.flatnonzero(low | high)
        if not rows.size:
            break
        k[rows] += low[rows].astype(np.int64) - high[rows]
        p[rows], e[rows] = _scale(mag[rows], 0.0, k[rows])
    # the 18 digits of y rounded, as 9 + 9 in exact doubles; the carry puts
    # the lower nine back in [0, 1e9) where p / 1e9 rounded up to the next
    # integer or e's integer part borrowed
    whole = np.floor(e)
    frac = e - whole
    slow = np.flatnonzero(~(fast | zero) | (np.abs(frac - 0.5) < _TIE))
    upper, lower = _divmod(p, 1e9)
    lower += whole
    lower += frac > 0.5
    carry, lower = _divmod(lower, 1e9)
    upper += carry
    upper[zero], lower[zero] = 0.0, 0.0
    ten = upper == 1e9  # rounded up to 10^18: one digit more
    upper[ten] = 1e8
    exponent = 17 - k + ten

    heads, groups, exps, tails = _word_tables()
    buf = np.empty(len(mag), _LINE_WORDS)
    lead, upper = _divmod(upper, 1e7)
    first, upper = _divmod(upper, 1e3)
    ninth, lower = _divmod(lower, 1e8)
    third, fourth = _divmod(lower, 1e4)
    buf["head"] = heads.take((lead + 100 * np.signbit(values)).astype(np.intp))
    for col, group in enumerate((first, upper * 10 + ninth, third, fourth)):
        buf["groups"][:, col] = groups.take(group.astype(np.intp))
    buf["exp"] = exps.take(exponent + _FAST_EXP + 1)
    buf["tail"] = tails.take(exponent + _FAST_EXP + 1)
    text = buf.view(np.uint8).reshape(-1, _LINE)
    for i in slow:
        text[i] = np.frombuffer(_line(float(values[i])), np.uint8)
    return buf


def _parse(lines: np.ndarray):
    """Per line of a chunk of 26-byte lines (flat ``uint8``): the sign, the
    18-digit integer exactly as a double-double ``(s, s_lo)``, the decimal
    exponent and whether the fast path takes it; None if a line does not
    fit the layout."""
    rows = lines.reshape(-1, _LINE)
    v = rows - _LOW
    neg, exp_neg = rows[:, 0] == 45, rows[:, 21] == 45
    if not ((v <= _SPAN).all() and (neg | (rows[:, 0] == 32)).all()
            and (exp_neg | (rows[:, 21] == 43)).all()):
        return None
    # the two leading digits, then two 8-digit groups from pairs and quads,
    # all exact integers in doubles
    pairs = v[:, 4:20:2] * np.uint8(10) + v[:, 5:20:2]
    quads = pairs[:, 0::2] * 100.0 + pairs[:, 1::2]
    eights = quads[:, 0::2] * 1e4 + quads[:, 1::2]
    lead = v[:, 1] * np.uint8(10) + v[:, 3]
    exponent = v[:, 22] * 100.0 + v[:, 23] * 10.0 + v[:, 24]
    exponent = np.where(exp_neg, -exponent, exponent)
    # lead 10^8 + eights[:, 0] is below 10^10, so its product with 10^8
    # has at most 53 significant bits: exact, as is the two-sum after it
    top = (lead * 1e8 + eights[:, 0]) * 1e8
    s = top + eights[:, 1]
    fast = (s == 0) | ((lead >= 10) & (np.abs(exponent) <= _FAST_EXP))
    return neg, s, (top - s) + eights[:, 1], exponent, fast


def _decode(lines: np.ndarray):
    """Values of a chunk of 26-byte lines (flat ``uint8``), each equal to
    ``float(line)``; None if a line does not fit the layout."""
    parsed = _parse(lines)
    if parsed is None:
        return None
    neg, s, s_lo, exponent, fast = parsed
    # q is float(line) unless q + r lies near a midpoint between doubles,
    # where moving r by a relative _TIE rounds the sum to another double
    q, r = _scale(s, s_lo, np.where(fast & (s != 0), exponent - 17, 0.0))
    slow = ~fast | (q + r * (1 + _TIE) != q + r * (1 - _TIE))
    values = np.where(neg, -q, q)
    rows = lines.reshape(-1, _LINE)
    for i in np.flatnonzero(slow):
        values[i] = float(rows[i].tobytes())
    return values


def _read_lines(fh, count: int):
    """The rest of ``fh`` as ``count`` values, if it is ``count`` lines of
    the 26-byte layout; else None.  Reads a chunk at a time."""
    if os.fstat(fh.fileno()).st_size - fh.tell() != count * _LINE:
        return None
    values = np.empty(count)
    for start in range(0, count, _CHUNK):
        chunk = _decode(np.frombuffer(fh.read(_CHUNK * _LINE), np.uint8))
        if chunk is None:
            return None
        values[start:start + _CHUNK] = chunk
    return values


def write_snapshot(path, field: ScalarField, t: float) -> None:
    """Write a field snapshot: the header ``dim n length t`` (``%.17g``),
    then one node value per line in row-major order, each line 26 bytes of
    18 significant digits in Python's ``%.17e`` form with a 3-digit
    exponent, e.g. `` 2.15769542225552335e-001`` (lossless round trip; inf
    and nan right-justified in the same width)."""
    g = field.grid
    values = field.values.ravel()
    with open(path, "wb") as fh:
        fh.write(f"{g.dim} {g.n} {g.length:.17g} {t:.17g}\n".encode())
        for start in range(0, values.size, _CHUNK):
            fh.write(_encode(values[start:start + _CHUNK]))


def read_snapshot(path, grid: Grid | None = None) -> tuple:
    """Read a snapshot written by :func:`write_snapshot`.

    Returns ``(field, t)``.  A stored field means something only on the
    grid it was written for, so given ``grid``, a snapshot whose header
    names another grid is refused before any value is parsed.  A body of
    exactly one 26-byte line per node in :func:`write_snapshot`'s layout is
    parsed by the vectorized codec, each value equal to ``float(line)``;
    any other body (``%.17g`` lines as earlier versions wrote, a
    hand-edited value, CRLF line ends) goes through ``np.loadtxt``.  Its
    own errors do not name the path: the callers' messages do.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode().split()
        if len(header) != 4:
            raise ValueError("malformed snapshot header")
        dim, n = int(header[0]), int(header[1])
        length, t = float(header[2]), float(header[3])
        written = Grid(dim, n, length)
        if grid is not None and written != grid:
            raise ValueError(f"was written for grid {written}, run uses {grid}")
        start = fh.tell()
        values = _read_lines(fh, written.num_nodes)
        if values is None:
            fh.seek(start)
            values = np.loadtxt(io.TextIOWrapper(fh, newline=None),
                                dtype=float, ndmin=1)
    if values.size != written.num_nodes:
        raise ValueError(
            f"expected {written.num_nodes} values, found {values.size}")
    return ScalarField(written, values.reshape(written.shape)), t
