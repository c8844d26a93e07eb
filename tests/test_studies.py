import numpy as np
import pytest

from vchsim.config import Config, build_laws
from vchsim.mesh import Grid
from vchsim.stepper import LINEAR_TOL, SolverConfig
from vchsim.studies import (
    StudySpec,
    degenerate_demo,
    homogeneous_oracle,
    integrate_reduced_ode,
    perturbation_pairs,
    reduced_ode_rhs,
    spread_radius,
    tau_refinement,
)

LINEAR_CONTROL = Config(dim=1, n=24, T=0.5, N=8, potential="log", alpha1=1.0,
                        alpha2=0.5, coupling="constant", g0=0.0,
                        mobility="constant", kappa0=1.0,
                        mu0=("cosine", 1.0, 0.5), rho0=("cosine", 0.5, 0.25))

DEGENERATE_BASE = Config(dim=1, n=64, length=4.0, T=0.5, N=32,
                         potential="clamp", coupling="constant", g0=0.0,
                         mobility="tanhpow", m=2.0,
                         mu0=("bump", 2.0, 0.25, 1.0), rho0=("constant", 0.5))


class TestStudySpec:
    def test_rejects_nonmonotone_values(self):
        with pytest.raises(ValueError):
            StudySpec(base=LINEAR_CONTROL, values=(16, 8, 32))

    def test_tau_sweep_needs_three_members(self):
        with pytest.raises(ValueError):
            StudySpec(base=LINEAR_CONTROL, values=(16, 32))


class TestTauRefinement:
    def test_zero_time_study_has_zero_errors(self):
        base = Config(dim=1, n=16, T=0.0, N=0, potential="clamp",
                      mu0=("constant", 1.0), rho0=("constant", 0.5))
        table = tau_refinement(StudySpec(base=base, values=(8, 16, 32),
                                         reference=64))
        assert all(e == 0.0 for _, e, _ in table.rows)

    def test_linear_control_first_order(self):
        table = tau_refinement(StudySpec(base=LINEAR_CONTROL,
                                         values=(8, 16, 32), reference=128))
        fit = table.fit_order()
        assert 0.8 <= fit <= 1.25
        errors = [e for _, e, _ in table.rows]
        assert errors == sorted(errors, reverse=True)  # monotone refinement

    def test_rejects_degenerate_mobility(self):
        base = Config(dim=1, n=16, T=0.5, N=8, mobility="tanhpow", m=2.0,
                      mu0=("constant", 1.0), rho0=("constant", 0.5))
        with pytest.raises(ValueError, match="nondegenerate"):
            tau_refinement(StudySpec(base=base, values=(8, 16, 32),
                                     reference=64))

    def test_reproducible_tables(self):
        spec = StudySpec(base=LINEAR_CONTROL, values=(8, 16, 32),
                         reference=64)
        t1 = tau_refinement(spec)
        t2 = tau_refinement(spec)
        assert t1.rows == t2.rows


class TestHomogeneousOracle:
    def setup_method(self):
        self.grid = Grid(1, 4, 1.0)
        self.laws = build_laws(Config(potential="log", alpha1=0.5, alpha2=2.0,
                                      coupling="linear"))

    def test_decoupled_potential_stays_constant(self):
        laws = build_laws(Config(potential="log", alpha1=0.5, alpha2=2.0,
                                 coupling="constant", g0=0.5))
        cfg = SolverConfig(T=1.0, n_steps=50)
        report = homogeneous_oracle(self.grid, cfg, laws, 1.0, 0.5)
        assert np.max(np.abs(report.mu_stepper - 1.0)) <= LINEAR_TOL
        assert report.err_mu <= 1e-10

    def test_oracle_meets_its_documented_accuracy(self):
        # docs/studies.md bounds the oracle's error by 3e-10 against a tight
        # Radau reference at criterion 4's lambda = tau = 1e-3; a quarter of
        # criterion 4's horizon keeps the stiff reference near a second
        from scipy.integrate import solve_ivp

        cfg = SolverConfig(T=0.25, n_steps=250)
        t = np.linspace(0.0, 0.25, 251)
        mu, rho = integrate_reduced_ode(cfg, self.laws, 1.0, 0.5, t)
        ref = solve_ivp(reduced_ode_rhs(cfg, self.laws), (0.0, 0.25),
                        [1.0, 0.5], method="Radau", t_eval=t, rtol=3e-14,
                        atol=1e-16)
        assert ref.success and cfg.yosida_lambda == 1e-3
        assert np.max(np.abs(mu - ref.y[0])) <= 3e-10
        assert np.max(np.abs(rho - ref.y[1])) <= 3e-10

    def test_oracle_invariant_sanity(self):
        cfg = SolverConfig(T=1.0, n_steps=100)
        report = homogeneous_oracle(self.grid, cfg, self.laws, 1.0, 0.5)
        assert report.invariant_drift_oracle <= 1e-8

    def test_stepper_gap_is_first_order(self):
        errs = []
        for N in (250, 500):
            cfg = SolverConfig(T=1.0, n_steps=N)
            report = homogeneous_oracle(self.grid, cfg, self.laws, 1.0, 0.5)
            errs.append(max(report.err_mu, report.err_rho))
        assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.4)

    def test_large_viscosity_freezes_the_order_parameter(self):
        gaps = []
        for delta in (1.0, 10.0, 100.0):
            cfg = SolverConfig(T=1.0, n_steps=10, delta=delta)
            t_eval = np.linspace(0.0, 1.0, 11)
            _, rho = integrate_reduced_ode(cfg, self.laws, 1.0, 0.5, t_eval)
            gaps.append(abs(rho[-1] - 0.5))
        assert gaps[0] > gaps[1] > gaps[2]


class TestDegenerateDemo:
    def test_zero_amplitude_never_diffuses(self):
        base = Config(dim=1, n=32, T=0.25, N=16, potential="clamp",
                      coupling="constant", g0=0.0, mobility="tanhpow", m=2.0,
                      mu0=("bump", 0.5, 0.15, 0.0), rho0=("constant", 0.5))
        rep = degenerate_demo(base, step_counts=(16,), n_samples=8)
        assert np.all(rep.radii[16] == 0.0)

    def test_control_spreads_strictly_farther(self):
        rep = degenerate_demo(DEGENERATE_BASE, step_counts=(32, 64),
                              n_samples=8, threshold=0.05)
        for n_steps in rep.step_counts:
            assert np.all(rep.control_radii[n_steps] > rep.radii[n_steps])

    def test_final_radius_nonincreasing_as_floor_shrinks(self):
        rep = degenerate_demo(DEGENERATE_BASE, step_counts=(32, 64, 128),
                              n_samples=8, threshold=0.05)
        finals = [rep.radii[n][-1] for n in rep.step_counts]
        assert finals[1] <= finals[0] and finals[2] <= finals[1]

    def test_kirchhoff_transform_norm_bounded(self):
        rep = degenerate_demo(DEGENERATE_BASE, step_counts=(32,), n_samples=8,
                              threshold=0.05)
        assert np.isfinite(rep.ktau_vnorm_sup[32])

    def test_reproducible(self):
        r1 = degenerate_demo(DEGENERATE_BASE, step_counts=(32,), n_samples=8)
        r2 = degenerate_demo(DEGENERATE_BASE, step_counts=(32,), n_samples=8)
        assert np.array_equal(r1.radii[32], r2.radii[32])
        assert r1.ktau_vnorm_sup == r2.ktau_vnorm_sup

    def test_spread_radius_empty_set(self):
        g = Grid(1, 8, 1.0)
        from vchsim.mesh import field_of
        assert spread_radius(field_of(g, 0.0), 0.5, 0.5) == 0.0


class TestPerturbationPairs:
    def test_quadratic_scaling(self):
        base = Config(dim=1, n=24, T=0.5, N=24, potential="log", alpha1=0.5,
                      alpha2=2.0, coupling="linear", mobility="constant",
                      mu0=("constant", 1.0), rho0=("cosine", 0.5, 0.2))
        rep = perturbation_pairs(base, (1e-6, 5e-7), seed=3)
        assert 3.6 <= rep.final_metrics[0] / rep.final_metrics[1] <= 4.4
        assert all(np.isfinite(r) for r in rep.growth_rates)

    def test_oversized_perturbation_rejected(self):
        base = Config(dim=1, n=8, T=0.25, N=4, potential="clamp",
                      mu0=("constant", 1e-9), rho0=("constant", 0.5))
        with pytest.raises(ValueError, match="negative"):
            perturbation_pairs(base, (1e-6,), seed=0)
