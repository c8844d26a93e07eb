import numpy as np
import pytest
import scipy.fft

from vchsim.mesh import (
    Grid,
    ScalarField,
    dct_matrix,
    dirichlet_energy,
    div_faces,
    div_faces_diagonal,
    div_k_grad_arrays,
    face_weights,
    field_of,
    integrate,
    laplacian_eigenvalues,
    neighbour_sum,
    read_snapshot,
    shifted_laplacian_solve,
    unit_face_weights,
    write_snapshot,
)
from oracles import laplacian_matrix


def _reference_line(v: float) -> str:
    """A snapshot value line by Python's own formatting: sign column, 18
    significant digits and a 3-digit exponent in 26 bytes; inf and nan
    right-justified."""
    text = f"{v:.17e}"
    if "e" not in text:
        return f"{text:>25}\n"
    mantissa, exponent = text.split("e")
    return f"{mantissa:>20}e{int(exponent):+04d}\n"


def dense_operator(grid, apply_op):
    """Materialize a linear operator by applying it to unit vectors."""
    nn = grid.num_nodes
    cols = []
    for j in range(nn):
        e = np.zeros(nn)
        e[j] = 1.0
        cols.append(apply_op(e.reshape(grid.shape)).ravel())
    return np.column_stack(cols)


class TestGrid:
    def test_basic_properties(self):
        g = Grid(1, 8, 2.0)
        assert g.h == 0.25
        assert g.num_nodes == 8
        g2 = Grid(2, 8, 2.0)
        assert g2.num_nodes == 64
        assert g2.shape == (8, 8)

    def test_cell_centered_coordinates(self):
        (x,) = Grid(1, 4, 1.0).coordinates()
        assert x.shape == (4,)
        assert np.allclose(x, [0.125, 0.375, 0.625, 0.875])
        # 2-D: one grid-shaped array per axis, X varying along axis 0 and
        # Y along axis 1 (ij indexing)
        X, Y = Grid(2, 4, 2.0).coordinates()
        axis = np.array([0.25, 0.75, 1.25, 1.75])
        assert X.shape == Y.shape == (4, 4)
        assert np.allclose(X, np.broadcast_to(axis[:, None], (4, 4)))
        assert np.allclose(Y, np.broadcast_to(axis[None, :], (4, 4)))

    # the middle three: h^2 overflows to inf, 1/h^2 overflows, h^2
    # underflows to 0; the last three: a field of 8-byte values has more
    # bytes than numpy's largest array
    @pytest.mark.parametrize("dim,n,length", [
        (3, 8, 1.0), (1, 2, 1.0), (1, 8, 0.0),
        (2, 8, 1e160), (2, 8, 1e-160), (2, 8, 1e-300),
        (2, 10 ** 10, 1.0), (1, 10 ** 20, 1.0),
        (1, np.iinfo(np.intp).max // 8 + 1, 1.0)])
    def test_rejects_bad_parameters(self, dim, n, length):
        with pytest.raises(ValueError):
            Grid(dim, n, length)

    def test_field_size_mismatch(self):
        g = Grid(1, 8, 1.0)
        with pytest.raises(ValueError):
            ScalarField(g, np.zeros(7))

    def test_field_rejects_a_flat_array_of_the_grid_size(self):
        g = Grid(2, 8, 1.0)
        with pytest.raises(ValueError, match=r"field has shape \(64,\), grid "
                                             r"has shape \(8, 8\)"):
            ScalarField(g, np.zeros(g.num_nodes))


def apply_laplacian(grid, u):
    """laplacian_matrix applied to grid-shaped node values."""
    return (laplacian_matrix(grid) @ np.ravel(u)).reshape(grid.shape)


class TestLaplaceNeumann:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_constants_are_harmonic(self, dim):
        g = Grid(dim, 9, 1.5)
        out = apply_laplacian(g, np.full(g.shape, 7.0))
        assert np.all(out == 0.0)

    def test_linear_field_zero_in_interior(self):
        g = Grid(1, 16, 1.0)
        (x,) = g.coordinates()
        out = apply_laplacian(g, x)
        assert np.allclose(out[1:-1], 0.0, atol=1e-12)
        # reflection ghosts see the flux of the linear profile
        assert out[0] != 0.0 and out[-1] != 0.0

    def test_cosine_eigenpair(self):
        # independent oracle: materialize the unit-coefficient flux operator
        # column by column and verify the eigen identity of the
        # cell-centered Neumann operator
        g = Grid(1, 64, 1.0)
        (x,) = g.coordinates()
        u = np.cos(np.pi * x / g.length)
        lam_h = (2.0 / g.h ** 2) * (1.0 - np.cos(np.pi * g.h / g.length))
        A = dense_operator(g, lambda v: div_k_grad_arrays(g, np.ones(g.shape), v))
        resid = A @ u + lam_h * u
        assert np.max(np.abs(resid)) <= 1e-12 * np.max(np.abs(lam_h * u))
        # the assembled oracle matrix is the same operator
        assert np.max(np.abs(laplacian_matrix(g).toarray() - A)) == 0.0


class TestDivKGrad:
    @pytest.mark.parametrize("dim,n", [(1, 17), (2, 9)])
    def test_unit_coefficient_reduces_to_laplacian(self, dim, n):
        g = Grid(dim, n, 1.3)
        u = np.random.default_rng(0).standard_normal(g.shape)
        a = div_k_grad_arrays(g, np.ones(g.shape), u)
        b = apply_laplacian(g, u)
        assert np.max(np.abs(a - b)) <= 1e-13 * max(1.0, np.max(np.abs(b)))

    @pytest.mark.parametrize("dim,n,length", [(1, 64, 1.0), (1, 33, 4.0),
                                              (2, 32, 1.0), (2, 17, 2.5)])
    def test_unit_faces_apply_the_laplacian_matrix(self, dim, n, length):
        # the rho stage's matrix-free Laplacian against the assembled one
        g = Grid(dim, n, length)
        u = np.random.default_rng(n).standard_normal(g.shape)
        a = div_faces(unit_face_weights(g), u)
        b = apply_laplacian(g, u)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(u)) / g.h ** 2

    def test_unit_face_weights_are_cached_and_read_only(self):
        g = Grid(2, 9, 1.3)
        weights = unit_face_weights(g)
        assert unit_face_weights(Grid(2, 9, 1.3)) is weights
        for w, ref in zip(weights, face_weights(g, np.ones(g.shape))):
            assert np.array_equal(w, ref) and not w.flags.writeable

    @pytest.mark.parametrize("dim,n", [(1, 9), (2, 6)])
    def test_diagonal_of_the_face_divergence(self, dim, n):
        # the mu stage's Jacobi preconditioner divides by this diagonal
        g = Grid(dim, n, 1.0)
        k = np.random.default_rng(n).uniform(0.0, 2.0, g.shape)
        weights = face_weights(g, k)
        dense = dense_operator(g, lambda u: -div_faces(weights, u))
        assert np.allclose(div_faces_diagonal(weights, g.shape).ravel(),
                           np.diag(dense), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("dim,n", [(1, 9), (2, 6)])
    def test_neighbour_sum_is_the_off_diagonal_of_the_face_divergence(
            self, dim, n):
        # the mu stage's sign step sums these off-diagonal products
        g = Grid(dim, n, 1.0)
        k = np.random.default_rng(n).uniform(0.0, 2.0, g.shape)
        weights = face_weights(g, k)
        dense = dense_operator(g, lambda u: div_faces(weights, u))
        off_diagonal = dense - np.diag(np.diag(dense))
        u = np.random.default_rng(n + 1).uniform(0.0, 1.0, g.shape)
        assert np.allclose(neighbour_sum(weights, u).ravel(),
                           off_diagonal @ u.ravel(), rtol=1e-14, atol=0.0)
        assert np.all(neighbour_sum(weights, u) >= 0.0)

    def test_constant_field_gives_zero(self):
        g = Grid(2, 7, 1.0)
        k = np.random.default_rng(1).uniform(0.0, 2.0, g.shape)
        out = div_k_grad_arrays(g, k, np.full(g.shape, 3.14))
        assert np.all(out == 0.0)

    def test_degenerate_coefficient_gives_zero(self):
        g = Grid(1, 9, 1.0)
        u = np.random.default_rng(2).standard_normal(g.shape)
        out = div_k_grad_arrays(g, np.zeros(g.shape), u)
        assert np.all(out == 0.0)

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 6)])
    def test_summation_by_parts(self, dim, n):
        g = Grid(dim, n, 1.0)
        rng = np.random.default_rng(3)
        k = field_of(g, rng.uniform(0.1, 2.0, g.shape))
        u = field_of(g, rng.standard_normal(g.shape))
        v = field_of(g, rng.standard_normal(g.shape))
        lhs = integrate(g, ScalarField(
            g, v.values * div_k_grad_arrays(g, k.values, u.values)))
        rhs = -_dirichlet_pairing(g, k, u, v)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 6)])
    def test_dirichlet_energy_is_the_form_of_the_face_weights(self, dim, n):
        # at the face weights of a coefficient k, the Dirichlet energy is
        # the hand-rolled face pairing and minus the u-weighted divergence
        # sum
        g = Grid(dim, n, 1.0)
        rng = np.random.default_rng(10)
        k = field_of(g, rng.uniform(0.0, 2.0, g.shape))
        u = field_of(g, rng.standard_normal(g.shape))
        weights = face_weights(g, k.values)
        energy = dirichlet_energy(g, weights, u.values)
        pairing = _dirichlet_pairing(g, k, u, u)
        assert abs(energy - pairing) <= 1e-12 * pairing
        by_parts = -integrate(g, ScalarField(
            g, u.values * div_faces(weights, u.values)))
        assert abs(energy - by_parts) <= 1e-12 * pairing

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 6)])
    def test_bilinear_form_symmetry(self, dim, n):
        g = Grid(dim, n, 1.0)
        rng = np.random.default_rng(4)
        k = rng.uniform(0.0, 2.0, g.shape)
        u = rng.standard_normal(g.shape)
        v = rng.standard_normal(g.shape)
        auv = integrate(g, ScalarField(g, v * div_k_grad_arrays(g, k, u)))
        avu = integrate(g, ScalarField(g, u * div_k_grad_arrays(g, k, v)))
        assert abs(auv - avu) <= 1e-12 * max(1.0, abs(auv))

    @pytest.mark.parametrize("dim,n", [(1, 16), (2, 4)])
    def test_shifted_operator_is_m_matrix(self, dim, n):
        g = Grid(dim, n, 1.0)
        rng = np.random.default_rng(5)
        k = rng.uniform(0.1, 3.0, g.shape)
        d = rng.uniform(0.5, 2.0, g.shape).ravel()

        def op(v):
            return d.reshape(g.shape) * v - div_k_grad_arrays(g, k, v)

        A = dense_operator(g, op)
        off = A - np.diag(np.diag(A))
        assert np.all(off <= 1e-14)
        assert np.all(np.diag(A) > 0.0)
        # rows diagonally dominant with margin d0 > 0
        dominance = np.diag(A) - np.sum(np.abs(off), axis=1)
        assert np.all(dominance >= 0.5 - 1e-12)


class TestShiftedLaplacianSolve:
    @pytest.mark.parametrize("dim,n", [(1, 16), (1, 17), (2, 8), (2, 9),
                                       (2, 128)])
    @pytest.mark.parametrize("s,k", [(1.0, 1.0), (100.0, 0.5), (1e4, 2.0)])
    def test_inverts_the_stencil(self, dim, n, s, k):
        g = Grid(dim, n, 1.0)
        x = np.random.default_rng(n).standard_normal(g.num_nodes)
        rhs = (s * x - k * (laplacian_matrix(g) @ x)).reshape(g.shape)
        y = shifted_laplacian_solve(g, s, k, rhs)
        assert y.shape == g.shape
        assert np.linalg.norm(y.ravel() - x) <= 1e-12 * np.linalg.norm(x)


class TestDctMatrix:
    @pytest.mark.parametrize("n", [3, 17, 64, 128])
    def test_is_orthonormal(self, n):
        c = dct_matrix(n)
        assert np.max(np.abs(c @ c.T - np.eye(n))) <= 1e-14

    @pytest.mark.parametrize("n", [3, 17, 64, 128])
    def test_diagonalizes_the_1d_laplacian(self, n):
        g = Grid(1, n, 1.0)
        c = dct_matrix(n)
        lap = laplacian_matrix(g).toarray()
        off = c @ lap @ c.T - np.diag(laplacian_eigenvalues(g))
        assert np.max(np.abs(off)) <= 1e-12 * 4.0 / g.h ** 2

    @pytest.mark.parametrize("n", [3, 17, 64, 128])
    def test_matches_scipy_orthonormal_dct2(self, n):
        # reference built independently: scipy's DCT-II of each unit vector
        reference = scipy.fft.dct(np.eye(n), type=2, norm="ortho", axis=0)
        assert np.max(np.abs(dct_matrix(n) - reference)) <= 1e-13

    def test_is_cached_and_read_only(self):
        c = dct_matrix(9)
        assert dct_matrix(9) is c
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[0, 0] = 0.0


def _dirichlet_pairing(g, k, u, v):
    # hand-rolled face sum, independent of the module's dirichlet_energy
    total = 0.0
    h = g.h
    kv, uv, vv = k.values, u.values, v.values
    if g.dim == 1:
        for i in range(g.n - 1):
            kf = 0.5 * (kv[i] + kv[i + 1])
            total += kf * (uv[i + 1] - uv[i]) * (vv[i + 1] - vv[i]) / h ** 2
    else:
        for i in range(g.n):
            for j in range(g.n - 1):
                kf = 0.5 * (kv[i, j] + kv[i, j + 1])
                total += kf * (uv[i, j + 1] - uv[i, j]) * (vv[i, j + 1] - vv[i, j]) / h ** 2
        for i in range(g.n - 1):
            for j in range(g.n):
                kf = 0.5 * (kv[i, j] + kv[i + 1, j])
                total += kf * (uv[i + 1, j] - uv[i, j]) * (vv[i + 1, j] - vv[i, j]) / h ** 2
    return total * g.cell_volume


class TestIntegrate:
    def test_unit_on_unit_square(self):
        g = Grid(2, 32, 1.0)
        assert integrate(g, field_of(g, 1.0)) == pytest.approx(1.0, abs=1e-14)

    def test_zero(self):
        g = Grid(1, 8, 1.0)
        assert integrate(g, field_of(g, 0.0)) == 0.0

    def test_midpoint_exact_for_linear(self):
        g = Grid(1, 128, 1.0)
        (x,) = g.coordinates()
        u = field_of(g, x)
        assert integrate(g, u) == pytest.approx(0.5, abs=1e-15)


def h1_seminorm_sq(grid, u):
    return dirichlet_energy(grid, unit_face_weights(grid), u)


class TestH1Seminorm:
    """The squared H1 seminorm is the unit-coefficient Dirichlet energy."""

    def test_constant_is_zero(self):
        g = Grid(2, 8, 1.0)
        assert h1_seminorm_sq(g, np.full(g.shape, -2.5)) == 0.0

    def test_single_face_hand_value(self):
        # one active face: h * ((du)/h)^2 with du = 1, h = 1/4 -> 4.0
        g = Grid(1, 4, 1.0)
        u = np.array([0.0, 1.0, 1.0, 1.0])
        assert h1_seminorm_sq(g, u) == pytest.approx(4.0, abs=1e-14)

    def test_quadratic_homogeneity(self):
        g = Grid(1, 16, 1.0)
        u = np.random.default_rng(6).standard_normal(g.shape)
        base = h1_seminorm_sq(g, u)
        scaled = h1_seminorm_sq(g, 3.0 * u)
        assert scaled == pytest.approx(9.0 * base, rel=1e-13)

    def test_matches_dirichlet_energy_with_unit_k(self):
        # the unit face weight is 0.5 (1 + 1) / h^2, as face_weights forms
        # it, so the energy is this hand-written face sum bit for bit
        for dim, n in ((1, 17), (2, 6), (2, 64)):
            g = Grid(dim, n, 1.0)
            u = np.random.default_rng(7).standard_normal(g.shape)
            w = 0.5 * (1.0 + 1.0) / g.h ** 2
            faces = sum(float(np.sum(w * np.diff(u, axis=axis) ** 2))
                        for axis in range(dim))
            assert h1_seminorm_sq(g, u) == g.cell_volume * faces


class TestSnapshots:
    @pytest.mark.parametrize("dim,n", [(1, 8), (2, 5)])
    def test_roundtrip_is_bit_exact(self, tmp_path, dim, n):
        g = Grid(dim, n, 1.7)
        rng = np.random.default_rng(8)
        values = rng.standard_normal(g.shape) * np.exp(rng.uniform(-30, 30, g.shape))
        u = field_of(g, values)
        path = tmp_path / "snap.txt"
        write_snapshot(path, u, t=0.7331)
        back, t = read_snapshot(path)
        assert t == 0.7331
        assert back.grid == g
        assert np.array_equal(back.values, u.values)

    @pytest.mark.parametrize("dim,n", [(1, 8), (2, 5)])
    def test_bytes_match_the_per_value_format(self, tmp_path, dim, n):
        g = Grid(dim, n, 1.7)
        rng = np.random.default_rng(9)
        values = (rng.standard_normal(g.num_nodes)
                  * np.exp(rng.uniform(-300, 300, g.num_nodes)))
        values[:5] = [-0.0, 5e-324, 1.0, 0.1, -1e300]
        # the rows the writer sends through Python's own formatting: exact
        # 18-digit ties, |v| above 1e280 and the infinities
        ties = [2.0 ** -26, 3 * 2.0 ** -26, -5 * 2.0 ** -26, 2.0 ** -27]
        for v in ties:
            num, den = v.as_integer_ratio()
            digits = str(abs(num) * 5 ** (den.bit_length() - 1)).rstrip("0")
            assert len(digits) == 19 and digits.endswith("5"), v
        # 0.3 and -0.7 lie just below round decimals: their low nine digits
        # borrow from the upper nine (2.99999999999999989e-001)
        special = np.resize(ties + [4.2e290, -1.5e280, np.inf, -np.inf,
                                    0.3, -0.7], g.num_nodes)
        for data in (values, special):
            u = field_of(g, data.reshape(g.shape))
            path = tmp_path / "snap.txt"
            write_snapshot(path, u, t=0.25)
            lines = path.read_bytes().decode().splitlines(keepends=True)
            assert lines[0] == f"{g.dim} {g.n} {g.length:.17g} {0.25:.17g}\n"
            assert lines[1:] == [_reference_line(v) for v in u.values.ravel()]
            back = np.array([float(line) for line in lines[1:]])
            assert np.array_equal(back.view(np.int64),
                                  u.values.ravel().view(np.int64))

    def test_reader_is_exact_near_midpoints(self, tmp_path):
        # 18-digit lines within 1e-18 relative of the midpoint between two
        # adjacent doubles, and lines on such a midpoint, from Python
        # integers: each must read as float(line)
        rng = np.random.default_rng(11)
        xs = np.abs(rng.standard_normal(3000) * np.exp(rng.uniform(-640, 640, 3000)))
        xs = [float(x) for x in xs if 1e-280 <= x <= 1e280]
        # odd integers above 2^53 are midpoints, and float() rounds them to
        # the even neighbour
        lines = [f" 9.00719925474{i:04d}00e+015\n" for i in range(993, 1393, 2)]
        lines.append(" 1.80143985094819860e+016\n")
        # lines within about 1e-33 relative of a midpoint (convergents of
        # the continued fraction of 2^f 10^K): the double-double product
        # alone rounds each of them to the wrong neighbour
        lines += [f" {text}\n" for text in (
            "1.76799803764893423e-012", "1.55215823595553987e+044",
            "1.76431884076813261e-031", "1.23647512113076628e-051",
            "1.15459381157286461e+045", "1.82303996426025111e-040",
            "1.15505498428342500e-059", "1.20524834714558410e+041",
            "1.18900803306714750e-027", "1.62229419872186557e-024")]
        for x in xs + [1e-280, 1e280, 2.0 ** 60]:
            a, b = x.as_integer_ratio()
            c, d = float(np.nextafter(x, np.inf)).as_integer_ratio()
            mid_num, mid_den = a * d + c * b, 2 * b * d
            exp10 = int(np.floor(np.log10(x)))
            for e10 in (exp10 - 1, exp10, exp10 + 1):
                num = mid_num * 10 ** max(17 - e10, 0)
                den = mid_den * 10 ** max(e10 - 17, 0)
                digits = (2 * num + den) // (2 * den)
                if (10 ** 17 <= digits < 10 ** 18
                        and abs(digits * den - num) * 10 ** 18 <= num):
                    text = str(digits)
                    lines.append(f" {text[0]}.{text[1:]}e{e10:+04d}\n")
        assert len(lines) > 1000
        g = Grid(1, len(lines), 1.0)
        path = tmp_path / "mid.txt"
        path.write_text(f"1 {g.n} 1 0\n" + "".join(lines))
        back, _ = read_snapshot(path)
        want = np.array([float(line) for line in lines])
        assert np.array_equal(back.values.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("edit", ["17g", "hand_edited", "blank_line", "crlf",
                                      "same_size"])
    def test_other_bodies_read_through_loadtxt(self, tmp_path, monkeypatch, edit):
        g = Grid(2, 4, 1.0)
        values = np.random.default_rng(12).standard_normal(g.num_nodes)
        path = tmp_path / "snap.txt"
        write_snapshot(path, field_of(g, values.reshape(g.shape)), 0.5)
        header, *lines = path.read_text().splitlines(keepends=True)
        want = values.copy()
        if edit == "17g":
            lines = [f"{v:.17g}\n" for v in values]
        elif edit == "hand_edited":
            lines[1:4] = ["-1.0\n", "inf\n", "nan\n"]
            want[1:4] = [-1.0, np.inf, np.nan]
        elif edit == "blank_line":
            lines.append("\n")
        elif edit == "same_size":
            # 26-byte lines off the layout: the body has the fast path's
            # size, and its check must send the whole body to np.loadtxt
            lines[2], lines[5] = f"{'inf':>25}\n", f"{'-1.5':>25}\n"
            want[2], want[5] = np.inf, -1.5
        else:
            lines = [line.replace("\n", "\r\n") for line in lines]
            header = header.replace("\n", "\r\n")
        path.write_bytes((header + "".join(lines)).encode())
        calls = []
        real = np.loadtxt
        monkeypatch.setattr(np, "loadtxt",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        back, t = read_snapshot(path)
        assert calls == [1] and t == 0.5
        assert np.array_equal(back.values.ravel(), want, equal_nan=True)
        write_snapshot(path, field_of(g, values.reshape(g.shape)), 0.5)
        assert np.array_equal(read_snapshot(path)[0].values.ravel(), values)
        assert calls == [1]

    @pytest.mark.parametrize("column,byte", [(0, "x"), (0, "+"), (7, ":"),
                                             (21, "*"), (20, "E")])
    def test_a_byte_off_the_layout_reads_as_float_would(self, tmp_path, column, byte):
        # one line in the fast path's size with one byte changed: the body
        # goes to np.loadtxt, which parses what float() parses and raises on
        # the rest
        g = Grid(1, 8, 1.0)
        values = np.linspace(-1.0, 2.0, 8)
        path = tmp_path / "snap.txt"
        write_snapshot(path, field_of(g, values), 0.0)
        header, *lines = path.read_text().splitlines(keepends=True)
        lines[3] = lines[3][:column] + byte + lines[3][column + 1:]
        path.write_text(header + "".join(lines))
        try:
            want = float(lines[3])
        except ValueError:
            with pytest.raises(ValueError):
                read_snapshot(path)
        else:
            assert read_snapshot(path)[0].values[3] == want

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 8\n0.0\n")
        with pytest.raises(ValueError):
            read_snapshot(path)
