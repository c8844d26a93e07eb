import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sps

from vchsim.config import Config, build_model, build_run
from vchsim.cli import ENERGY_TOL
from vchsim.diagnostics import (
    _bump_means,
    contraction_metric,
    RESIDUAL_COLUMNS,
    ledger_columns,
    series_rows,
    step_entry,
)
from vchsim.constitutive import K_tau_array
from vchsim.mesh import (
    Grid,
    ScalarField,
    dirichlet_energy,
    field_of,
    unit_face_weights,
)
from vchsim.stepper import LINEAR_TOL, NEWTON_TOL, run
from oracles import laplacian_matrix


def run_config(**kw):
    c = Config(**kw)
    _, cfg, laws, initial = build_run(c)
    return run(cfg, laws, initial), laws, cfg


EQUILIBRIUM = dict(dim=1, n=12, T=1.0, N=8, potential="clamp", alpha2=0.0,
                   coupling="constant", g0=0.2,
                   mu0=("constant", 0.8), rho0=("constant", 0.5))

HEAT = dict(dim=1, n=48, T=0.5, N=40, potential="clamp", coupling="constant",
            g0=0.0, mobility="constant", kappa0=1.0,
            mu0=("bump", 0.5, 0.35, 1.0), rho0=("constant", 0.5))


class TestMuEnergyLedger:
    def test_constant_trajectory(self):
        traj, laws, _ = run_config(**EQUILIBRIUM)
        led = ledger_columns(traj, laws)
        assert np.all(led["E_mu"] == led["E_mu"][0])
        assert np.all(led["diss"] == 0.0)
        assert np.all(led["mu_energy_resid"] == 0.0)

    def test_heat_case_identity(self):
        # implicit Euler: E^n + sum(diss) + sum(increment energy) = E^0 exactly
        traj, laws, _ = run_config(**HEAT)
        led = ledger_columns(traj, laws)
        E0 = led["E_mu"][0]
        ident = led["E_mu"] + led["diss_cum"] + led["extra_cum"] - E0
        assert np.max(np.abs(ident)) <= 1e-9 * E0
        assert np.all(led["cross"] == 0.0)

    def test_decoupled_one_sided_dissipation(self):
        traj, laws, _ = run_config(**HEAT)
        led = ledger_columns(traj, laws)
        E0 = led["E_mu"][0]
        assert np.all(led["E_mu"] + led["diss_cum"] <= E0 * (1.0 + 1e-9))
        assert np.all(led["mu_energy_resid"] <= 1e-9 * E0)

    def test_homogeneous_drift_halves_with_tau(self):
        # weighted energy of the spatially constant coupled run conserves
        # (eps + 2g(rho)) mu^2 in the continuum; ledger drift is O(tau)
        drifts = []
        for N in (200, 400):
            traj, laws, cfg = run_config(
                dim=1, n=4, T=1.0, N=N, potential="log", alpha1=0.5, alpha2=2.0,
                coupling="linear", mu0=("constant", 1.0), rho0=("constant", 0.5))
            led = ledger_columns(traj, laws)
            drifts.append(np.max(np.abs(led["E_mu"] - led["E_mu"][0])))
        assert drifts[0] / drifts[1] == pytest.approx(2.0, abs=0.3)

    def test_nonnegative_columns(self):
        traj, laws, _ = run_config(dim=1, n=24, T=0.5, N=16, potential="log",
                                   mu0=("bump", 0.5, 0.3, 1.0),
                                   rho0=("cosine", 0.5, 0.2))
        led = ledger_columns(traj, laws)
        assert np.all(led["diss"] >= 0.0)
        assert np.all(led["E_mu"] >= 0.0)

    def test_cumulative_matches_running_sum_exactly(self):
        traj, laws, _ = run_config(**HEAT)
        led = ledger_columns(traj, laws)
        acc = 0.0
        for n in range(len(led["diss"])):
            acc += led["diss"][n]
            assert led["diss_cum"][n] == acc


class TestRhoEnergyLedger:
    def test_stationary_trajectory(self):
        traj, laws, _ = run_config(**EQUILIBRIUM)
        led = ledger_columns(traj, laws)
        assert np.all(led["F_rho"] == led["F_rho"][0])
        assert np.all(led["visc"] == 0.0)
        assert np.all(led["work"] == 0.0)

    def test_pure_gradient_flow_energy_descends(self):
        # mu identically zero; tau small enough that the viscous term
        # dominates the concave-part overshoot (tau <= delta/(2 alpha2))
        traj, laws, _ = run_config(
            dim=1, n=48, T=0.5, N=64, potential="clamp", alpha2=2.0,
            coupling="linear", mu0=("constant", 0.0),
            rho0=("bump", 0.5, 0.4, 0.4))
        led = ledger_columns(traj, laws)
        bound = ENERGY_TOL * max(1.0, abs(led["F_rho"][0]))
        assert np.all(np.diff(led["F_rho"]) <= bound)
        # the unweighted defect: the full viscous dissipation is paid
        assert np.all(led["F_rho"] + led["visc_cum"] - led["F_rho"][0]
                      - led["work_cum"] <= bound)

    def test_one_sided_inequality_convex_smooth_part(self):
        # with alpha2 = 0 the smooth part is convex and the full inequality
        # holds, coupling or not (on a clamp run an observed bound, not a
        # theorem: the stored projection leaves terms of order lambda)
        traj, laws, _ = run_config(
            dim=1, n=32, T=0.5, N=32, potential="clamp", alpha2=0.0,
            coupling="linear", mu0=("bump", 0.5, 0.3, 1.0),
            rho0=("cosine", 0.5, 0.2))
        led = ledger_columns(traj, laws)
        assert np.all(led["rho_violation"]
                      <= ENERGY_TOL * max(1.0, abs(led["F_rho"][0])))

    def test_weighted_inequality_concave_smooth_part(self):
        # general coupled run: the inequality carries the viscous
        # coefficient reduced by alpha2*tau/delta (backward-Euler expansion
        # of the concave part); with delta/tau > 2 alpha2 this clamp run
        # meets it up to solver noise
        traj, laws, cfg = run_config(
            dim=1, n=32, T=0.5, N=32, potential="clamp", alpha2=2.0,
            coupling="linear", mu0=("bump", 0.5, 0.3, 1.0),
            rho0=("cosine", 0.5, 0.2))
        led = ledger_columns(traj, laws)
        factor = 1.0 - 2.0 * cfg.tau / cfg.delta
        weighted = (led["F_rho"] + factor * led["visc_cum"]
                    - led["F_rho"][0] - led["work_cum"])
        assert np.all(weighted <= ENERGY_TOL * max(1.0, abs(led["F_rho"][0])))

    def test_clamp_run_has_zero_indicator_integral(self):
        # every stored clamp state lies in [0, 1], where the resolvent is
        # the identity and the Moreau envelope is the indicator, 0: the
        # free energy is its Dirichlet and smooth parts alone, bit for bit
        traj, laws, _ = run_config(
            dim=1, n=24, T=0.5, N=16, potential="clamp", alpha2=2.0,
            mu0=("bump", 0.5, 0.3, 2.0), rho0=("cosine", 0.5, 0.4))
        led = ledger_columns(traj, laws)
        grid = traj.grid
        assert list(led["F_rho"]) == [
            0.5 * dirichlet_energy(grid, unit_face_weights(grid), r)
            + grid.cell_volume * float(np.sum(2.0 * r * (1.0 - r)))
            for r in (state.rho.values for state in traj.states)]


class TestBoundedness:
    def test_heat_run_obeys_maximum_principle(self):
        traj, laws, cfg = run_config(
            dim=1, n=16, T=0.5, N=32, potential="clamp", coupling="constant",
            g0=0.3, mu0=("cosine", 0.5, 0.5), rho0=("cosine", 0.5, 0.2))
        sup_q = max(s.mu.max() for s in traj.states)
        sup0 = traj.states[0].mu.max()
        assert sup0 <= 1.0
        assert sup_q <= 1.0 + 1e-10

    def test_heat_step_matrix_is_m_matrix_at_n16(self):
        # direct inspection of the potential-stage matrix on a small grid
        from vchsim.mesh import Grid, div_k_grad_arrays
        from vchsim.config import build_laws
        c = Config(dim=1, n=16, T=0.5, N=32, potential="clamp",
                   coupling="constant", g0=0.3)
        laws = build_laws(c)
        grid = Grid(1, 16, 1.0)
        tau = build_model(c)[1].tau
        a = c.epsilon + 2.0 * 0.3
        kappa = np.full(grid.shape, 1.0 + tau)
        nn = grid.num_nodes
        A = np.zeros((nn, nn))
        for j in range(nn):
            e = np.zeros(nn)
            e[j] = 1.0
            A[:, j] = (a / tau) * e - div_k_grad_arrays(grid, kappa,
                                                        e.reshape(grid.shape)).ravel()
        off = A - np.diag(np.diag(A))
        assert np.all(off <= 0.0)
        assert np.all(np.diag(A) > 0.0)
        assert np.all(np.diag(A) - np.sum(np.abs(off), axis=1) > 0.0)
        assert np.all(np.linalg.inv(A) >= -1e-14)

    def test_constant_datum_keeps_constant_sup(self):
        traj, laws, _ = run_config(**EQUILIBRIUM)
        sup_q = max(s.mu.max() for s in traj.states)
        assert sup_q == traj.states[0].mu.max()

    def test_coupled_run_reports_finite_sup(self):
        traj, laws, _ = run_config(dim=1, n=24, T=0.5, N=16, potential="log",
                                   mu0=("bump", 0.5, 0.3, 1.0),
                                   rho0=("cosine", 0.5, 0.2))
        sup_q = max(s.mu.max() for s in traj.states)
        assert np.isfinite(sup_q)


SMOOTH_INTERIOR = dict(dim=1, n=32, T=0.25, potential="log", alpha1=1.0,
                       alpha2=0.5, coupling="linear", mobility="tanhpow",
                       m=2.0, mu0=("cosine", 1.0, 0.4),
                       rho0=("cosine", 0.5, 0.2))


class TestFormulationResiduals:
    def test_native_residuals_at_solver_tolerance(self):
        traj, laws, _ = run_config(N=32, **SMOOTH_INTERIOR)
        res = ledger_columns(traj, laws)
        band = 10.0 * (NEWTON_TOL + LINEAR_TOL)
        assert res["res_mu_native"].max() <= band
        assert res["res_rho_native"].max() <= band

    @pytest.mark.parametrize("dim,n,mobility", [(1, 32, "constant"),
                                                (2, 12, "tanhpow")])
    def test_log_native_residual_is_the_newton_residual(self, dim, n,
                                                        mobility):
        # the log graph commits the Newton iterate itself, so the column is
        # the residual the rho stage stopped at, bit for bit
        traj, laws, _ = run_config(dim=dim, n=n, T=0.5, N=16, potential="log",
                                   coupling="linear", mobility=mobility,
                                   mu0=("bump", 0.5, 0.3, 1.0),
                                   rho0=("cosine", 0.5, 0.2))
        res = ledger_columns(traj, laws)
        for k, report in enumerate(traj.reports, start=1):
            assert res["res_rho_native"][k] == report.newton_residual

    def test_equilibrium_residuals_vanish(self):
        traj, laws, _ = run_config(**EQUILIBRIUM)
        res = ledger_columns(traj, laws)
        for name in RESIDUAL_COLUMNS:
            assert np.max(np.abs(res[name])) <= 1e-12

    def test_node_on_the_endpoint_raises_no_warning(self):
        # the log graph's value is taken at inside nodes only; a node at
        # exactly 1 gets an infinite strong residual, without dividing by 0
        traj, laws, cfg = run_config(N=2, **SMOOTH_INTERIOR)
        prev, cur = traj.states[0], traj.states[1]
        rho = cur.rho.values.copy()
        rho[5] = 1.0
        edge = replace(cur, rho=ScalarField(cur.grid, rho))
        _, a_prev = step_entry(None, prev, None, cfg, laws)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            terms, _ = step_entry(prev, edge, a_prev, cfg, laws, residuals=True)
        res = [terms[name] for name in RESIDUAL_COLUMNS]
        assert np.all(np.isfinite(res[:3])) and res[3] == np.inf

    def test_other_form_gap_halves_with_tau(self):
        gaps = {}
        for N in (32, 64):
            traj, laws, _ = run_config(N=N, **SMOOTH_INTERIOR)
            res = ledger_columns(traj, laws)
            gaps[N] = (res["res_mu_kirchhoff"].max(),
                       res["res_rho_strong"].max())
        assert gaps[32][0] / gaps[64][0] == pytest.approx(2.0, abs=0.5)
        assert gaps[32][1] / gaps[64][1] == pytest.approx(2.0, abs=0.5)


def _dirichlet_form(grid, k, u, v) -> float:
    """Bilinear face form sum_faces k_face (du/h)(dv/h) h^dim."""
    h = grid.h
    total = 0.0
    for axis in range(grid.dim):
        du = np.diff(u.values, axis=axis)
        dv = np.diff(v.values, axis=axis)
        kslices = [slice(None)] * grid.dim
        kslices[axis] = slice(1, None)
        k_hi = k.values[tuple(kslices)]
        kslices[axis] = slice(None, -1)
        k_lo = k.values[tuple(kslices)]
        total += float(np.sum(0.5 * (k_hi + k_lo) * du * dv)) / h ** 2
    return grid.cell_volume * total


def kirchhoff_reference(traj, laws) -> np.ndarray:
    """The Kirchhoff column evaluated the long way: one dense unit-mass bump
    per 4th node (1 at the node, 1/2 at its stencil neighbours), each tested
    through the face form of the floored Kirchhoff transform."""
    cfg, grid = traj.cfg, traj.grid
    vol, nn = grid.cell_volume, grid.num_nodes
    lap = laplacian_matrix(grid)
    bumps = []
    for j in range(0, nn, 4):
        v = np.zeros(nn)
        v[j] = 1.0
        for col in lap[j].tocoo().col:
            if col != j:
                v[col] = 0.5
        v /= v.sum() * vol
        bumps.append(ScalarField(grid, v.reshape(grid.shape)))
    ones = field_of(grid, 1.0)
    out = np.zeros(len(traj.states))
    for n in range(1, len(traj.states)):
        prev, cur = traj.states[n - 1], traj.states[n]
        a = cfg.epsilon + 2.0 * laws.coupling.g(cur.rho.values)
        a_prev = cfg.epsilon + 2.0 * laws.coupling.g(prev.rho.values)
        bulk = ((a * cur.mu.values - a_prev * prev.mu.values) / cfg.tau
                - cur.mu.values * laws.coupling.g_prime(cur.rho.values)
                * cur.dt_rho.values).ravel()
        kfield = ScalarField(grid, K_tau_array(
            laws.mobility, cfg.mobility_floor_tau, cur.mu.values))
        weak = [vol * float(bulk @ v.values.ravel())
                + _dirichlet_form(grid, ones, kfield, v) for v in bumps]
        out[n] = max(abs(w) for w in weak)
    return out


def sparse_bump_matrix(grid):
    """The bumps as one sparse row each, built from the Laplacian's sparsity
    pattern (the node plus its stencil neighbours), scaled to unit mass."""
    pattern = laplacian_matrix(grid)[::4].tocoo()
    centers = np.arange(0, grid.num_nodes, 4)
    weights = np.where(pattern.col == centers[pattern.row], 1.0, 0.5)
    bumps = sps.csr_matrix((weights, (pattern.row, pattern.col)),
                           shape=pattern.shape)
    mass = np.asarray(bumps.sum(axis=1)).ravel() * grid.cell_volume
    return sps.diags(1.0 / mass) @ bumps


class TestKirchhoffResidual:
    @pytest.mark.parametrize("dim,n", [(1, 32), (1, 33), (2, 16), (2, 17)])
    def test_bump_means_match_the_sparse_bump_product(self, dim, n):
        grid = Grid(dim, n, 1.3)
        r = np.random.default_rng(n).standard_normal(grid.shape)
        ref = grid.cell_volume * (sparse_bump_matrix(grid) @ r.ravel())
        got = _bump_means(r)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(r))

    @pytest.mark.parametrize("mobility", ["constant", "tanhpow"])
    @pytest.mark.parametrize("dim,n", [(1, 32), (1, 33), (2, 16), (2, 17)])
    def test_matches_per_bump_reference(self, dim, n, mobility):
        traj, laws, _ = run_config(dim=dim, n=n, T=0.1, N=6, potential="log",
                                   coupling="linear", mobility=mobility,
                                   mu0=("bump", 0.5, 0.3, 1.0),
                                   rho0=("cosine", 0.5, 0.2))
        res = ledger_columns(traj, laws)
        ref = kirchhoff_reference(traj, laws)
        assert np.all(ref[1:] > 0.0)
        np.testing.assert_allclose(res["res_mu_kirchhoff"], ref, rtol=1e-12,
                                   atol=0.0)


class TestContraction:
    def _pair(self, amp, seed=11):
        base = Config(dim=1, n=24, T=0.5, N=24, potential="log", alpha1=0.5,
                      alpha2=2.0, coupling="linear", mobility="constant",
                      mu0=("constant", 1.0), rho0=("cosine", 0.5, 0.2))
        grid, cfg, laws, (mu0, rho0) = build_run(base)
        direction = np.random.default_rng(seed).standard_normal(grid.shape)
        direction /= np.max(np.abs(direction))
        a = run(cfg, laws, (mu0, rho0))
        b = run(cfg, laws, (field_of(grid, mu0.values + amp * direction), rho0))
        return a, b, laws, cfg

    def test_identical_trajectories_give_zero_series(self):
        a, _, laws, _ = self._pair(1e-6)
        series = contraction_metric(a, a, laws)
        assert np.all(series.total == 0.0)

    def test_symmetry_is_exact(self):
        a, b, laws, _ = self._pair(1e-6)
        ab = contraction_metric(a, b, laws)
        ba = contraction_metric(b, a, laws)
        assert np.array_equal(ab.z_gap, ba.z_gap)
        assert np.array_equal(ab.rho_gap, ba.rho_gap)

    def test_quadratic_scaling_in_perturbation(self):
        a1, b1, laws, cfg = self._pair(1e-6)
        a2, b2, _, _ = self._pair(5e-7)
        m1 = contraction_metric(a1, b1, laws).total[-1]
        m2 = contraction_metric(a2, b2, laws).total[-1]
        assert 3.6 <= m1 / m2 <= 4.4

    def test_growth_rate_finite(self):
        a, b, laws, cfg = self._pair(1e-6)
        rate = contraction_metric(a, b, laws).growth_rate(cfg.tau)
        assert rate is not None and np.isfinite(rate)

    def test_decoupled_reduces_to_plain_l2(self):
        c = dict(dim=1, n=16, T=0.25, N=8, potential="clamp",
                 coupling="constant", g0=0.0, mu0=("bump", 0.5, 0.3, 1.0),
                 rho0=("cosine", 0.5, 0.2))
        ta, laws, cfg = run_config(**c)
        tb, _, _ = run_config(**{**c, "mu0": ("bump", 0.5, 0.3, 1.1)})
        series = contraction_metric(ta, tb, laws)
        vol = ta.grid.cell_volume
        for n in (0, len(ta) - 1):
            plain = vol * np.sum((ta.states[n].mu.values
                                  - tb.states[n].mu.values) ** 2)
            assert series.z_gap[n] == pytest.approx(plain, rel=1e-12)

    def test_mismatched_grids_rejected(self):
        a, _, laws, _ = self._pair(1e-6)
        other, laws2, _ = run_config(**EQUILIBRIUM)
        with pytest.raises(ValueError):
            contraction_metric(a, other, laws)


class TestSeriesRows:
    def test_columns_and_lengths(self):
        traj, laws, _ = run_config(**EQUILIBRIUM)
        rows = series_rows(traj, laws)
        assert len(rows) == len(traj.states)
        assert set(rows[0]) == {"step", "t", "E_mu", "F_rho", "diss_cum",
                                "min_mu", "max_mu", "min_rho", "max_rho",
                                "newton_iters", "cg_iters"}
