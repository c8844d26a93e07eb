import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg

from vchsim.config import Config, build_run, parse_config
from vchsim.constitutive import (
    ClampIndicator,
    ConstantCoupling,
    ConstantMobility,
    Laws,
    LinearCoupling,
    LogGraph,
    Potential,
)
import vchsim.stepper as stepper
from vchsim.mesh import (
    Grid,
    ScalarField,
    div_faces,
    div_faces_diagonal,
    div_k_grad_arrays,
    face_weights,
    field_of,
    shifted_laplacian_solve,
)
from vchsim.stepper import (
    SolverConfig,
    SolverFailure,
    StepFailure,
    ValidationError,
    initial_state,
    iterate,
    run,
    mu_system_coefficients,
    step,
    step_mu,
    step_rho,
)
from oracles import laplacian_matrix


def make_laws(potential="clamp", alpha1=0.5, alpha2=2.0, coupling="linear",
              g0=0.0, kappa0=1.0):
    graph = ClampIndicator() if potential == "clamp" else LogGraph(alpha1)
    cpl = LinearCoupling() if coupling == "linear" else ConstantCoupling(g0)
    return Laws(Potential(graph, alpha2), cpl, ConstantMobility(kappa0))


def states_equal(a, b):
    return (np.array_equal(a.mu.values, b.mu.values)
            and np.array_equal(a.rho.values, b.rho.values)
            and np.array_equal(a.xi.values, b.xi.values))


class TestSolverConfig:
    def test_tau_derived_from_T_and_N(self):
        cfg = SolverConfig(T=1.0, n_steps=8)
        assert cfg.tau == 0.125
        assert cfg.yosida_lambda == 0.125
        assert cfg.mobility_floor_tau == 0.125

    def test_inconsistent_tau_rejected(self):
        # the step is derived, tau = T/N, so no other value can be passed
        with pytest.raises(TypeError, match="tau"):
            SolverConfig(T=1.0, n_steps=7, tau=0.2)
        assert SolverConfig(T=1.0, n_steps=7).tau == 1.0 / 7

    def test_zero_steps_requires_zero_time(self):
        with pytest.raises(ValidationError):
            SolverConfig(T=1.0, n_steps=0)
        cfg = SolverConfig(T=0.0, n_steps=0)
        assert cfg.tau == 0.0

    # the Yosida parameter and the mobility floor are derived from the
    # step, and the Newton cap and both stopping targets are stepper
    # constants, so none of them is an argument, just as tau is not
    @pytest.mark.parametrize("control", [
        {"yosida_lambda": 0.5}, {"mobility_floor_tau": 0.0},
        {"newton_max_iter": 1}, {"newton_tol": 0.0}, {"linear_tol": 1e-8}])
    def test_out_of_range_controls_rejected(self, control):
        with pytest.raises(TypeError, match=next(iter(control))):
            SolverConfig(T=1.0, n_steps=4, **control)


class TestStepRho:
    def test_singular_jacobian_is_named(self):
        # the stage's own check, for a caller that skips the data rules
        grid = Grid(1, 8, 1.0)
        laws = make_laws()
        cfg = SolverConfig(T=0.5, n_steps=2)  # delta/tau = 4 = 2 alpha2
        prev = initial_state(field_of(grid, 1.0), field_of(grid, 0.5), cfg,
                             laws)
        # the forcing mu g'(rho) = 1 leaves a residual for Newton to take
        with pytest.raises(StepFailure, match="singular rho-stage Jacobian"):
            step_rho(prev, field_of(grid, 1.0), cfg, laws)

    def test_stationary_interior_state(self):
        # all forcings vanish: pi = 0, mu_del = 0, graph inactive inside
        grid = Grid(1, 12, 1.0)
        laws = make_laws(potential="clamp", alpha2=0.0, coupling="linear")
        cfg = SolverConfig(T=1.0, n_steps=10)
        prev = initial_state(field_of(grid, 0.0), field_of(grid, 0.5), cfg, laws)
        rho_new, xi_new, iters, _ = step_rho(prev, field_of(grid, 0.0), cfg, laws)
        assert np.array_equal(rho_new.values, prev.rho.values)
        assert np.all(xi_new.values == 0.0)
        assert iters == 0

    def test_constant_data_matches_scalar_bisection_oracle(self):
        # oracle: backward-Euler scalar equation with the Yosida term built
        # from nested bisections, nothing shared with the module under test
        # the Yosida parameter is the step
        alpha1, alpha2, delta, tau = 0.5, 2.0, 1.0, 0.05
        lam = tau
        mu_val, rho_prev_val = 0.8, 0.45

        def beta(r):
            return alpha1 * math.log(r / (1.0 - r))

        def resolvent_oracle(lam_, y):
            lo, hi = 1e-15, 1.0 - 1e-15
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid + lam_ * beta(mid) > y:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)

        def yosida_oracle(lam_, r):
            return (r - resolvent_oracle(lam_, r)) / lam_

        def scheme_residual(r):
            pi = alpha2 * (1.0 - 2.0 * r)
            return (delta * (r - rho_prev_val) / tau + yosida_oracle(lam, r)
                    + pi - mu_val * 1.0)  # g'(r) = 1 in the interior

        lo, hi = -1.0, 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if scheme_residual(mid) > 0:
                hi = mid
            else:
                lo = mid
        oracle_rho = 0.5 * (lo + hi)

        grid = Grid(1, 8, 1.0)
        laws = make_laws(potential="log", alpha1=alpha1, alpha2=alpha2)
        cfg = SolverConfig(T=20 * tau, n_steps=20)
        assert cfg.yosida_lambda == lam
        prev = initial_state(field_of(grid, mu_val),
                             field_of(grid, rho_prev_val), cfg, laws)
        rho_new, _, _, _ = step_rho(prev, field_of(grid, mu_val), cfg, laws)
        assert np.max(np.abs(rho_new.values - oracle_rho)) <= 1e-9

    def test_one_resolvent_per_residual_evaluation(self, monkeypatch):
        # the Jacobian and the final xi reuse the resolvent the residual
        # computed at the same iterate
        c = Config(dim=2, n=16, potential="log", T=0.01, N=8,
                   mu0=("bump", 0.5, 0.2, 1.0), rho0=("cosine", 0.5, 0.2))
        _, cfg, laws, (mu0, rho0) = build_run(c)
        prev = initial_state(mu0, rho0, cfg, laws)
        counts = {"resolvent": 0, "residual": 0}

        def counting(name, fn):
            def wrapped(*args):
                counts[name] += 1
                return fn(*args)
            return wrapped

        graph_type = type(laws.graph)
        monkeypatch.setattr(graph_type, "resolvent_array",
                            counting("resolvent", graph_type.resolvent_array))
        monkeypatch.setattr(stepper, "rho_stage_residual",
                            counting("residual", stepper.rho_stage_residual))
        _, _, iters, _ = step_rho(prev, prev.mu, cfg, laws)
        assert iters >= 2
        assert counts["resolvent"] == counts["residual"] >= iters + 1

    def test_newton_directions_read_the_cached_unit_face_weights(
            self, monkeypatch):
        # k = 1 in every Newton direction: its face weights are the cached
        # unit_face_weights, not formed again per iteration
        c = Config(dim=2, n=16, potential="log", T=0.01, N=8,
                   mu0=("bump", 0.5, 0.2, 1.0), rho0=("cosine", 0.5, 0.2))
        _, cfg, laws, (mu0, rho0) = build_run(c)
        prev = initial_state(mu0, rho0, cfg, laws)
        formed = []
        face_weights = stepper.face_weights

        def counting(grid, kv):
            formed.append(kv)
            return face_weights(grid, kv)

        monkeypatch.setattr(stepper, "face_weights", counting)
        _, _, iters, _ = step_rho(prev, prev.mu, cfg, laws)
        assert iters >= 2
        assert formed == []

    def test_saturation_pins_rho_and_sign_of_xi(self):
        grid = Grid(1, 12, 1.0)
        laws = make_laws(potential="clamp", alpha2=0.0, coupling="linear")
        cfg = SolverConfig(T=1.0, n_steps=4)
        prev = initial_state(field_of(grid, 0.0), field_of(grid, 0.9), cfg, laws)
        rho_new, xi_new, _, _ = step_rho(prev, field_of(grid, 50.0), cfg, laws)
        assert np.all(rho_new.values == 1.0)
        assert np.all(xi_new.values >= 0.0)


class TestStepMu:
    def test_zero_field_stays_zero(self):
        grid = Grid(1, 16, 1.0)
        laws = make_laws()
        cfg = SolverConfig(T=1.0, n_steps=8)
        prev = initial_state(field_of(grid, 0.0), field_of(grid, 0.5), cfg, laws)
        mu_new, iters, _ = step_mu(prev, prev.rho, prev.dt_rho, cfg, laws)
        assert np.all(mu_new.values == 0.0)
        assert iters == 0

    def test_eigenvector_resolvent_formula(self):
        # closed form: the cosine mode is an eigenvector of the scheme matrix
        grid = Grid(1, 32, 1.0)
        g0, kappa0, eps = 0.4, 1.3, 1.0
        laws = make_laws(coupling="constant", g0=g0, kappa0=kappa0)
        cfg = SolverConfig(T=1.0, n_steps=16)
        (x,) = grid.coordinates()
        c, A = 1.0, 0.5
        mu_prev = field_of(grid, c + A * np.cos(np.pi * x))
        prev = initial_state(mu_prev, field_of(grid, 0.5), cfg, laws)
        mu_new, _, _ = step_mu(prev, prev.rho, prev.dt_rho, cfg, laws)
        lam_h = (2.0 / grid.h ** 2) * (1.0 - np.cos(np.pi * grid.h))
        a = eps + 2.0 * g0
        k = kappa0 + cfg.tau  # the floored mobility, uniform
        expected = c + A * np.cos(np.pi * x) / (1.0 + cfg.tau * k * lam_h / a)
        assert np.max(np.abs(mu_new.values - expected)) <= 1e-9

    @pytest.mark.parametrize("dt_rho_value", [0.8, -0.8])
    def test_spatially_constant_reaction_split(self, dt_rho_value):
        grid = Grid(1, 8, 1.0)
        laws = make_laws(coupling="linear")
        cfg = SolverConfig(T=1.0, n_steps=10)
        mu_prev_val, rho_val = 0.7, 0.5
        prev = initial_state(field_of(grid, mu_prev_val),
                             field_of(grid, rho_val), cfg, laws)
        dt_rho = field_of(grid, dt_rho_value)
        mu_new, _, _ = step_mu(prev, prev.rho, dt_rho, cfg, laws)
        a = 1.0 + 2.0 * rho_val
        b = 1.0 * dt_rho_value  # g'(rho) = 1 in the interior
        b_plus, b_minus = max(b, 0.0), max(-b, 0.0)
        expected = mu_prev_val * (a / cfg.tau + b_minus) / (a / cfg.tau + b_plus)
        assert np.max(np.abs(mu_new.values - expected)) <= 1e-12


class TestStepMuSolvers:
    """Both preconditioner branches reach the stage tolerance in the true
    residual of the operator diagnose uses, and repeat bit for bit."""

    @pytest.mark.parametrize("mobility,uses_dct", [("constant", True),
                                                   ("tanhpow", False)])
    def test_true_residual_and_determinism(self, monkeypatch, mobility,
                                           uses_dct):
        c = Config(dim=2, n=16, T=0.02, N=4, potential="log",
                   mobility=mobility,
                   mu0=("bump", 0.5, 0.2, 1.0), rho0=("cosine", 0.5, 0.2))
        grid, cfg, laws, (mu0, rho0) = build_run(c)
        prev = initial_state(mu0, rho0, cfg, laws)
        rho_new, _, _, _ = step_rho(prev, mu0, cfg, laws)
        dt_rho = field_of(grid, (rho_new.values - prev.rho.values) / cfg.tau)

        dct_calls = []
        real_solve = stepper.shifted_laplacian_solve

        def counting_solve(*args):
            dct_calls.append(1)
            return real_solve(*args)

        monkeypatch.setattr(stepper, "shifted_laplacian_solve", counting_solve)
        mu_new, iters, reported = step_mu(prev, rho_new, dt_rho, cfg, laws)
        assert iters > 0
        assert bool(dct_calls) == uses_dct

        a, b_plus, b_minus, k_lag = mu_system_coefficients(
            prev.mu, rho_new, dt_rho, cfg, laws)
        x = mu_new.values
        true_res = ((a / cfg.tau + b_plus) * x
                    - div_k_grad_arrays(grid, k_lag, x)
                    - (a / cfg.tau + b_minus) * prev.mu.values)
        tol = stepper.LINEAR_TOL * min(1.0, float(a.min()) / cfg.tau)
        assert np.linalg.norm(true_res) <= tol
        # the step reports this true residual, summed as the stepper sums
        flat = true_res.ravel()
        assert reported == math.sqrt(np.einsum("i,i->", flat, flat))

        again, iters_again, _ = step_mu(prev, rho_new, dt_rho, cfg, laws)
        assert iters_again == iters
        assert np.array_equal(again.values, mu_new.values)


class TestFluxSystem:
    """The one operator-and-preconditioner rule of both stages, and the
    from-zero contract of conjugate gradients."""

    @staticmethod
    def _system(grid, k_max):
        rng = np.random.default_rng(11)
        diag = rng.uniform(5.0, 50.0, grid.shape)
        k = rng.uniform(1.0, k_max, grid.shape)
        k.flat[0], k.flat[-1] = 1.0, k_max
        return diag, k, rng.standard_normal(grid.shape)

    @pytest.mark.parametrize("dim,n", [(1, 24), (2, 12)])
    def test_apply_is_the_flux_divergence(self, dim, n):
        grid = Grid(dim, n, 1.0)
        diag, k, x = self._system(grid, 7.0)
        apply, _ = stepper._flux_system(grid, diag, k)
        expected = diag * x - div_faces(face_weights(grid, k), x)
        assert np.array_equal(apply(x), expected)

    def test_dct_up_to_the_contrast_bound_jacobi_beyond(self):
        grid = Grid(2, 12, 1.0)
        bound = stepper.DCT_CONTRAST_MAX
        diag, k, r = self._system(grid, bound)
        _, precondition = stepper._flux_system(grid, diag, k)
        dct = shifted_laplacian_solve(grid, float(np.abs(diag).mean()),
                                      float(k.mean()), r)
        assert np.array_equal(precondition(r), dct)

        k.flat[-1] = np.nextafter(bound, np.inf)
        _, precondition = stepper._flux_system(grid, diag, k)
        jacobi = diag + div_faces_diagonal(face_weights(grid, k), grid.shape)
        assert np.array_equal(precondition(r), r / jacobi)

    def test_pcg_from_zero_solves_the_warm_started_system(self):
        grid = Grid(2, 8, 1.0)
        diag, k, b = self._system(grid, 4.0)
        apply, precondition = stepper._flux_system(grid, diag, k)
        x0 = np.random.default_rng(12).uniform(0.0, 2.0, grid.shape)
        tol = 1e-10 * np.linalg.norm(b)
        change, iters, rnorm = stepper._pcg(apply, b - apply(x0),
                                            precondition, tol, 500)
        assert 0 < iters < 500 and rnorm <= tol
        assert change.shape == grid.shape
        dense = np.column_stack([apply(e.reshape(grid.shape)).ravel()
                                 for e in np.eye(grid.num_nodes)])
        direct = np.linalg.solve(dense, b.ravel())
        x = x0 + change
        assert np.linalg.norm(b - apply(x)) <= 10 * tol
        assert (np.max(np.abs(x.ravel() - direct))
                <= 1e-9 * np.max(np.abs(direct)))


class TestIndefiniteJacobian:
    """log potential with a small viscosity: delta/tau + min d < 0 at the
    first Newton iteration, so the Jacobian is indefinite and CG could not
    take the step; MINRES takes every direction."""

    @pytest.mark.parametrize("dim,n", [(1, 32), (2, 16)])
    def test_minres_takes_every_direction(self, monkeypatch, dim, n):
        c = Config(dim=dim, n=n, potential="log", delta=0.1, T=1.0, N=4,
                   mu0=("bump", 0.5, 0.2, 1.0), rho0=("cosine", 0.5, 0.2))
        grid, cfg, laws, initial = build_run(c)
        solves, cg_solves = [], []
        real_minres, real_pcg = stepper._minres, stepper._pcg

        def recording_minres(apply_A, b, *args):
            x, iters, rnorm = real_minres(apply_A, b, *args)
            # L annihilates constants exactly, so J 1 is J's diagonal
            solves.append((apply_A(np.ones_like(b)), b, x))
            return x, iters, rnorm

        def counting_pcg(*args):
            cg_solves.append(1)
            return real_pcg(*args)

        monkeypatch.setattr(stepper, "_minres", recording_minres)
        monkeypatch.setattr(stepper, "_pcg", counting_pcg)
        traj = run(cfg, laws, initial)
        assert len(traj.states) == cfg.n_steps + 1
        # one MINRES solve per Newton direction; CG only in the mu stage
        assert len(solves) == sum(r.newton_iters for r in traj.reports)
        assert len(cg_solves) == cfg.n_steps
        assert min(float(diag.min()) for diag, _, _ in solves) < 0.0
        lap = laplacian_matrix(grid)
        for diag, b, x in solves:
            assert diag.shape == b.shape == x.shape == grid.shape
            direct = scipy.sparse.linalg.splu(
                (sps.diags(diag.ravel()) - lap).tocsc()).solve(b.ravel())
            assert np.max(np.abs(x.ravel() - direct)) <= 1e-12
        assert min(s.mu.min() for s in traj.states) >= 0.0
        assert all(0.0 < s.rho.min() and s.rho.max() < 1.0
                   for s in traj.states)
        assert all(r.newton_residual <= stepper.NEWTON_TOL
                   for r in traj.reports)


class TestMinres:
    """The rho stage's Krylov solver on its own."""

    @pytest.mark.parametrize("tol", [1e-3, 1e-10])
    def test_minres_residual_recurrence_is_the_true_residual(self, tol):
        # symmetric indefinite J = diag(d) - L on a 2-D 16^2 grid
        grid = Grid(2, 16, 1.0)
        rng = np.random.default_rng(7)
        d = rng.uniform(-40.0, 60.0, grid.shape)
        lap = laplacian_matrix(grid)

        def apply_J(v):
            return d * v - (lap @ v.ravel()).reshape(grid.shape)

        b = rng.standard_normal(grid.shape)
        shift = float(np.abs(d).mean())
        x, iters, reported = stepper._minres(
            apply_J, b,
            lambda z: stepper.shifted_laplacian_solve(grid, shift, 1.0, z),
            tol * np.linalg.norm(b), 500)
        true = np.linalg.norm(b - apply_J(x))
        assert 0 < iters < 500
        assert reported <= tol * np.linalg.norm(b)
        assert abs(reported - true) <= 1e-12 * np.linalg.norm(b)

    def test_minres_returns_exactly_on_a_lucky_breakdown(self):
        # b is an eigenvector: the Krylov space is span{b} and beta_2 = 0
        b = np.zeros(8)
        b[3] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, iters, rnorm = stepper._minres(lambda v: 2.0 * v, b,
                                              lambda z: z, 1e-30, 50)
        assert (iters, rnorm) == (1, 0.0)
        assert np.array_equal(x, 0.5 * b)


class TestNanResiduals:
    """A NaN residual ends each solver loop and fails its stage; it is
    never taken for convergence."""

    def test_krylov_loops_stop_at_a_nan_residual(self):
        b = np.full(8, np.nan)
        _, iters, rnorm = stepper._minres(lambda v: 2.0 * v, b,
                                          lambda z: z, 1e-10, 50)
        assert iters == 0 and math.isnan(rnorm)
        _, iters, rnorm = stepper._pcg(lambda v: 2.0 * v, b, lambda z: z,
                                       1e-10, 50)
        assert iters == 0 and math.isnan(rnorm)

    def test_both_stages_fail_on_a_nan_residual(self):
        grid = Grid(1, 12, 1.0)
        laws = make_laws()
        cfg = SolverConfig(T=1.0, n_steps=8)
        prev = initial_state(field_of(grid, 0.5), field_of(grid, 0.5), cfg,
                             laws)
        mu_nan = ScalarField(grid, np.where(np.arange(12) == 3, np.nan, 0.5))
        with pytest.raises(StepFailure, match="MINRES did not converge"):
            step_rho(prev, mu_nan, cfg, laws)
        with pytest.raises(StepFailure, match="conjugate gradients did not"):
            step_mu(replace(prev, mu=mu_nan), prev.rho, prev.dt_rho, cfg,
                    laws)


def equilibrium_setup(n=12):
    grid = Grid(1, n, 1.0)
    laws = make_laws(potential="clamp", alpha2=0.0, coupling="constant", g0=0.2)
    cfg = SolverConfig(T=1.0, n_steps=8)
    initial = (field_of(grid, 0.8), field_of(grid, 0.5))
    return grid, cfg, laws, initial


class TestAdvanceAndRun:
    def test_equilibrium_state_only_advances_time(self):
        _, cfg, laws, initial = equilibrium_setup()
        traj = run(cfg, laws, initial)
        for state in traj.states[1:]:
            assert states_equal(state, traj.states[0])
        assert traj.states[-1].t == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_pipeline(self):
        c = Config(dim=1, n=16, T=0.5, N=6, potential="log",
                   mu0=("bump", 0.5, 0.3, 1.0), rho0=("cosine", 0.5, 0.2))
        _, cfg, laws, initial = build_run(c)
        t1 = run(cfg, laws, initial)
        t2 = run(cfg, laws, initial)
        assert all(states_equal(a, b) for a, b in zip(t1.states, t2.states))

    def test_run_equals_composed_steps(self):
        # run is N composed steps, and a step is the rho stage fed the
        # previous state's mu followed by the mu stage, all bit for bit
        c = Config(dim=1, n=16, T=0.5, N=4, potential="clamp",
                   mu0=("cosine", 1.0, 0.5), rho0=("cosine", 0.5, 0.2))
        _, cfg, laws, initial = build_run(c)
        whole = run(cfg, laws, initial)
        assert len(whole.states) == cfg.n_steps + 1
        state = initial_state(initial[0], initial[1], cfg, laws)
        for n in range(1, cfg.n_steps + 1):
            rho_new, xi_new, _, _ = step_rho(state, state.mu, cfg, laws)
            dt_rho = field_of(state.grid,
                              (rho_new.values - state.rho.values) / cfg.tau)
            mu_new, _, _ = step_mu(state, rho_new, dt_rho, cfg, laws)
            state, report = step(state, cfg, laws)
            assert np.array_equal(state.rho.values, rho_new.values)
            assert np.array_equal(state.xi.values, xi_new.values)
            assert np.array_equal(state.dt_rho.values, dt_rho.values)
            assert np.array_equal(state.mu.values, mu_new.values)
            assert states_equal(state, whole.states[n])
            assert np.array_equal(state.dt_rho.values,
                                  whole.states[n].dt_rho.values)
            assert state.t == whole.states[n].t
            assert report == whole.reports[n - 1]

    def test_zero_steps_returns_initial_only(self):
        grid = Grid(1, 8, 1.0)
        laws = make_laws()
        cfg = SolverConfig(T=0.0, n_steps=0)
        traj = run(cfg, laws, (field_of(grid, 1.0), field_of(grid, 0.5)))
        assert len(traj) == 1
        assert traj.states[0].t == 0.0

    def test_eigenmode_product_formula_over_run(self):
        grid = Grid(1, 32, 1.0)
        g0, kappa0 = 0.4, 1.3
        laws = make_laws(potential="clamp", alpha2=0.0, coupling="constant",
                         g0=g0, kappa0=kappa0)
        N = 16
        cfg = SolverConfig(T=0.5, n_steps=N)
        (x,) = grid.coordinates()
        c, A = 1.0, 0.5
        mu0 = field_of(grid, c + A * np.cos(np.pi * x))
        traj = run(cfg, laws, (mu0, field_of(grid, 0.5)))
        lam_h = (2.0 / grid.h ** 2) * (1.0 - np.cos(np.pi * grid.h))
        a = 1.0 + 2.0 * g0
        k = kappa0 + cfg.tau  # the floored mobility, uniform
        factor = (1.0 + cfg.tau * k * lam_h / a) ** (-N)
        expected = c + A * np.cos(np.pi * x) * factor
        assert np.max(np.abs(traj.states[-1].mu.values - expected)) <= 1e-8

    def test_invalid_data_rejected(self):
        grid = Grid(1, 8, 1.0)
        laws = make_laws()
        cfg = SolverConfig(T=1.0, n_steps=4)
        with pytest.raises(ValidationError, match="hpzero"):
            run(cfg, laws, (field_of(grid, -0.5), field_of(grid, 0.5)))
        with pytest.raises(ValidationError, match="hpzero"):
            run(cfg, laws, (field_of(grid, 1.0), field_of(grid, 1.5)))

    def test_singular_clamp_step_rejected(self):
        # delta/tau = 4 = 2 alpha2: the clamp's rho-stage Jacobian is -L
        # inside [0, 1]; one ulp away it is not, and the data pass
        grid = Grid(1, 8, 1.0)
        cfg = SolverConfig(T=0.5, n_steps=2)
        data = (field_of(grid, 1.0), field_of(grid, 0.5))
        with pytest.raises(ValidationError, match="delta/tau != 2 alpha2"):
            run(cfg, make_laws(), data)
        stepper.validate_initial_data(*data, cfg,
                                      make_laws(alpha2=np.nextafter(2.0, 3.0)))
        stepper.validate_initial_data(*data, cfg, make_laws(potential="log"))

    def test_step_bound_against_mobility_ceiling(self):
        grid = Grid(1, 8, 1.0)
        laws = make_laws(kappa0=0.05)
        cfg = SolverConfig(T=1.0, n_steps=4)  # tau = 0.25 > kappa_sup
        with pytest.raises(ValidationError, match="kappa"):
            run(cfg, laws, (field_of(grid, 1.0), field_of(grid, 0.5)))

    def test_states_are_frozen(self):
        _, cfg, laws, initial = equilibrium_setup()
        traj = run(cfg, laws, initial)
        with pytest.raises(ValueError):
            traj.states[1].mu.values[0] = 99.0


class TestSchemeInvariants:
    def test_positivity_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            c = Config(
                dim=1, n=int(rng.integers(8, 33)), T=0.5,
                N=int(rng.integers(5, 41)),
                potential=str(rng.choice(["clamp", "log"])),
                mobility=str(rng.choice(["constant", "tanhpow"])),
                alpha2=float(rng.uniform(0.0, 3.0)),
                mu0=("bump", 0.5, 0.3, float(rng.uniform(0.1, 2.0))),
                rho0=("cosine", 0.5, float(rng.uniform(0.0, 0.3))))
            _, cfg, laws, initial = build_run(c)
            traj = run(cfg, laws, initial)
            assert min(s.mu.min() for s in traj.states) >= -1e-10

    def test_clamp_constraint_exact_with_sign_conditions(self):
        c = Config(dim=1, n=24, T=0.5, N=20, potential="clamp", alpha2=2.0,
                   mu0=("bump", 0.5, 0.3, 2.0), rho0=("cosine", 0.5, 0.45))
        _, cfg, laws, initial = build_run(c)
        traj = run(cfg, laws, initial)
        saturated = False
        for state in traj.states[1:]:
            rho, xi = state.rho.values, state.xi.values
            assert np.all((rho >= 0.0) & (rho <= 1.0))
            interior = (rho > 0.0) & (rho < 1.0)
            assert np.all(xi[interior] == 0.0)
            assert np.all(xi[rho == 1.0] >= 0.0)
            assert np.all(xi[rho == 0.0] <= 0.0)
            saturated = saturated or np.any(rho == 1.0) or np.any(rho == 0.0)
        assert saturated  # the forcing must actually exercise the constraint


def admission_draws(seed: int):
    """Endless seeded draws of the admission sweep's configs at small sizes
    (1-D n <= 64, 2-D n <= 33), each as ``(text, margin)``.  The margin is
    ``delta/tau - 2 alpha2``, plus ``4 alpha1`` under the log graph: a rough
    convexity margin of the rho stage that leaves out the Yosida factor and
    the coupling curvature."""
    rng = np.random.default_rng(seed)
    while True:
        dim = int(rng.choice([1, 2]))
        keys = {
            "dim": dim,
            "n": int(rng.choice([8, 16, 33, 64] if dim == 1 else [8, 16, 33])),
            "T": float(rng.choice([0.01, 0.1, 0.5, 1.0])),
            "N": int(rng.choice([1, 2, 4, 8])),
            "potential": str(rng.choice(["clamp", "log"])),
            "mobility": str(rng.choice(["constant", "tanhpow"])),
            "m": float(rng.choice([1.5, 2.0, 3.0])),
            "delta": float(rng.choice([0.05, 0.1, 0.5, 1.0, 2.0])),
            "alpha2": float(rng.choice([0.0, 1.0, 2.0, 4.0])),
            "coupling": str(rng.choice(["linear", "constant"])),
            "g0": 0.3,
            "mu0": "bump 0.5 0.2 1.0",
            "rho0": "cosine 0.5 0.2",
            "snapshot_stride": 0,
        }
        alpha1 = Config().alpha1 if keys["potential"] == "log" else 0.0
        margin = (keys["delta"] / (keys["T"] / keys["N"])
                  - 2.0 * keys["alpha2"] + 4.0 * alpha1)
        text = "".join(f"{key} = {value}\n" for key, value in keys.items())
        yield text, margin


class TestAdmission:
    SEED = 2026
    RUNS = 500

    def test_small_positive_margins_run_to_the_end(self):
        # every admitted config whose margin lies in (0, 2] runs all its
        # steps: small margins are where a rho-stage line search on the
        # residual's max norm alone stalls, and the stage-energy test
        # carries these runs to the root
        failures, runs = [], 0
        for text, margin in admission_draws(self.SEED):
            if not 0.0 < margin <= 2.0:
                continue
            try:
                _grid, cfg, laws, initial = build_run(parse_config(text))
                states = iterate(cfg, laws, initial)
            except ValidationError:
                continue
            try:
                for _state in states:
                    pass
            except SolverFailure as exc:
                failures.append((text, str(exc)))
            runs += 1
            if runs == self.RUNS:
                break
        assert failures == []
