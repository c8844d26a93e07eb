import numpy as np
import pytest
import scipy.fft

from vchsim.mesh import (
    Grid,
    ScalarField,
    dct_matrix,
    dirichlet_energy,
    div_faces,
    div_k_grad_arrays,
    face_weights,
    field_of,
    integrate,
    laplacian_eigenvalues,
    read_snapshot,
    shifted_laplacian_solve,
    unit_face_weights,
    write_snapshot,
)
from oracles import laplacian_matrix


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
        g = Grid(1, 4, 1.0)
        assert np.allclose(g.coordinates(), [0.125, 0.375, 0.625, 0.875])

    @pytest.mark.parametrize("dim,n,length", [(3, 8, 1.0), (1, 2, 1.0), (1, 8, 0.0)])
    def test_rejects_bad_parameters(self, dim, n, length):
        with pytest.raises(ValueError):
            Grid(dim, n, length)

    def test_field_size_mismatch(self):
        g = Grid(1, 8, 1.0)
        with pytest.raises(ValueError):
            ScalarField(g, np.zeros(7))


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
        out = apply_laplacian(g, g.coordinates())
        assert np.allclose(out[1:-1], 0.0, atol=1e-12)
        # reflection ghosts see the flux of the linear profile
        assert out[0] != 0.0 and out[-1] != 0.0

    def test_cosine_eigenpair(self):
        # independent oracle: materialize the unit-coefficient flux operator
        # column by column and verify the eigen identity of the
        # cell-centered Neumann operator
        g = Grid(1, 64, 1.0)
        x = g.coordinates()
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
        energy = dirichlet_energy(g, weights, u)
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
        rhs = s * x - k * (laplacian_matrix(g) @ x)
        y = shifted_laplacian_solve(g, s, k, rhs)
        assert np.linalg.norm(y - x) <= 1e-12 * np.linalg.norm(x)

    def test_keeps_the_layout_of_its_input(self):
        g = Grid(2, 6, 1.0)
        rhs = np.random.default_rng(0).standard_normal(g.shape)
        shaped = shifted_laplacian_solve(g, 2.0, 1.0, rhs)
        flat = shifted_laplacian_solve(g, 2.0, 1.0, rhs.ravel())
        assert shaped.shape == g.shape and flat.shape == (g.num_nodes,)
        assert np.array_equal(shaped.ravel(), flat)


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
        u = field_of(g, g.coordinates())
        assert integrate(g, u) == pytest.approx(0.5, abs=1e-15)


def h1_seminorm_sq(grid, u):
    return dirichlet_energy(grid, unit_face_weights(grid), field_of(grid, u))


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
        u = field_of(g, values.reshape(g.shape))
        path = tmp_path / "snap.txt"
        write_snapshot(path, u, t=0.25)
        lines = [f"{g.dim} {g.n} {g.length:.17g} {0.25:.17g}"]
        lines.extend(f"{v:.17g}" for v in u.values.ravel())
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 8\n0.0\n")
        with pytest.raises(ValueError):
            read_snapshot(path)
