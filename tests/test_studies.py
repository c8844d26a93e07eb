from dataclasses import replace

import numpy as np
import pytest

from vchsim import studies
from vchsim.config import Config, _STUDIES, build_laws
from vchsim.mesh import Grid, field_of
from vchsim.stepper import LINEAR_TOL, SolverConfig
from vchsim.studies import (
    STUDIES,
    degenerate_demo,
    homogeneous_oracle,
    integrate_reduced_ode,
    perturbation_pairs,
    reduced_ode_rhs,
    spread_radius,
    tau_refinement,
)

from oracles import fit_order, oracle_gaps

LINEAR_CONTROL = Config(dim=1, n=24, T=0.5, N=8, potential="log", alpha1=1.0,
                        alpha2=0.5, coupling="constant", g0=0.0,
                        mobility="constant", kappa0=1.0,
                        mu0=("cosine", 1.0, 0.5), rho0=("cosine", 0.5, 0.25),
                        study="tau_refinement", study_values=(8, 16, 32),
                        study_reference=64)

DEGENERATE_BASE = Config(dim=1, n=64, length=4.0, T=0.5, N=32,
                         potential="clamp", coupling="constant", g0=0.0,
                         mobility="tanhpow", m=2.0,
                         mu0=("bump", 2.0, 0.25, 1.0), rho0=("constant", 0.5),
                         study="degenerate_demo", study_values=(32,))

# the oracle's spatially constant system: a 4-node grid on [0, 1]
ORACLE_BASE = Config(dim=1, n=4, length=1.0, potential="log", alpha1=0.5,
                     alpha2=2.0, coupling="linear", mu0=("constant", 1.0),
                     rho0=("constant", 0.5), study="homogeneous_oracle")


def column(rows, name) -> np.ndarray:
    return np.array([row[name] for row in rows])


def by_member(rows, name) -> dict:
    """A degenerate-demo column split by member step count."""
    counts = sorted({row["n_steps"] for row in rows})
    return {n: np.array([row[name] for row in rows if row["n_steps"] == n])
            for n in counts}


def no_run(*_args):
    raise AssertionError("a member ran before the rejection")


def test_every_config_study_has_a_table():
    # config cannot import studies (each command loads only what it runs),
    # so the two name lists are kept equal here
    assert set(STUDIES) == {name for name in _STUDIES if name}


class TestTauRefinement:
    def test_rejects_nonmonotone_values(self, monkeypatch):
        monkeypatch.setattr(studies, "run", no_run)
        with pytest.raises(ValueError, match="strictly monotone"):
            tau_refinement(replace(LINEAR_CONTROL, study_values=(16, 8, 32)))

    def test_tau_sweep_needs_three_members(self, monkeypatch):
        monkeypatch.setattr(studies, "run", no_run)
        with pytest.raises(ValueError, match="at least 3 sweep values"):
            tau_refinement(replace(LINEAR_CONTROL, study_values=(16, 32)))

    def test_zero_time_study_has_zero_errors(self):
        base = Config(dim=1, n=16, T=0.0, N=0, potential="clamp",
                      mu0=("constant", 1.0), rho0=("constant", 0.5),
                      study="tau_refinement", study_values=(8, 16, 32),
                      study_reference=64)
        assert all(row["error"] == 0.0 for row in tau_refinement(base))

    def test_linear_control_first_order(self):
        rows = tau_refinement(replace(LINEAR_CONTROL, study_reference=128))
        errors = list(column(rows, "error"))
        fit = fit_order(column(rows, "n_steps"), errors)
        assert 0.8 <= fit <= 1.25
        assert errors == sorted(errors, reverse=True)  # monotone refinement

    def test_rejects_degenerate_mobility(self):
        base = Config(dim=1, n=16, T=0.5, N=8, mobility="tanhpow", m=2.0,
                      mu0=("constant", 1.0), rho0=("constant", 0.5),
                      study="tau_refinement", study_values=(8, 16, 32),
                      study_reference=64)
        with pytest.raises(ValueError, match="nondegenerate"):
            tau_refinement(base)

    def test_reproducible_tables(self):
        t1 = tau_refinement(LINEAR_CONTROL)
        t2 = tau_refinement(LINEAR_CONTROL)
        assert t1 == t2


class TestHomogeneousOracle:
    def setup_method(self):
        self.laws = build_laws(ORACLE_BASE)

    def test_decoupled_potential_stays_constant(self):
        config = replace(ORACLE_BASE, coupling="constant", g0=0.5, N=50)
        rows = homogeneous_oracle(config)
        assert np.max(np.abs(column(rows, "mu_stepper") - 1.0)) <= LINEAR_TOL
        assert oracle_gaps(config, rows)["err_mu"] <= 1e-10

    def test_oracle_meets_its_documented_accuracy(self, monkeypatch):
        # docs/studies.md bounds the oracle's error against a tight Radau
        # reference; short horizons keep the stiff reference near a second.
        # Each case with its count of oracle steps: the step is tau at
        # criterion 4's lambda = tau = 1e-3 and at its halving, 5e-4, and a
        # hundredth of tau = 0.1
        from scipy.integrate import solve_ivp

        for T, n_steps, oracle_steps in ((0.25, 250, 250), (0.4, 800, 800),
                                         (0.2, 2, 200)):
            cfg = SolverConfig(T=T, n_steps=n_steps)
            rhs = reduced_ode_rhs(cfg, self.laws)
            shapes = []
            monkeypatch.setattr(studies, "reduced_ode_rhs", lambda *_: (
                lambda t, y: shapes.append(np.shape(y)) or rhs(t, y)))
            mu, rho = integrate_reduced_ode(cfg, self.laws, 1.0, 0.5)
            t = np.linspace(0.0, T, n_steps + 1)
            ref = solve_ivp(rhs, (0.0, T), [1.0, 0.5], method="Radau",
                            t_eval=t, rtol=3e-14, atol=1e-16)
            assert ref.success
            # each call evaluates three points at once (the stages, or the
            # Jacobian's differences), a few calls per oracle step
            assert set(shapes) == {(2, 3)}
            assert oracle_steps < len(shapes) <= 4 * oracle_steps
            assert np.max(np.abs(mu - ref.y[0])) <= 1e-12, (T, n_steps)
            assert np.max(np.abs(rho - ref.y[1])) <= 1e-12, (T, n_steps)

    def test_oracle_halves_the_steps_it_cannot_take_whole(self, monkeypatch):
        # at delta = 0.01, rho leaves 0.2 far faster than a step of
        # tau = 2.5e-4 resolves: simplified Newton or the error estimate
        # fails there, and the halved steps still track a tight Radau
        # reference
        from scipy.integrate import solve_ivp

        laws = build_laws(replace(ORACLE_BASE, alpha2=0.0))
        cfg = SolverConfig(T=0.01, n_steps=40, delta=0.01)
        mu, rho = integrate_reduced_ode(cfg, laws, 1.0, 0.2)
        ref = solve_ivp(reduced_ode_rhs(cfg, laws), (0.0, 0.01), [1.0, 0.2],
                        method="Radau", t_eval=np.linspace(0.0, 0.01, 41),
                        rtol=1e-12, atol=1e-16)
        assert ref.success and rho[-1] > 0.75
        assert np.max(np.abs(mu - ref.y[0])) <= 1e-10
        assert np.max(np.abs(rho - ref.y[1])) <= 1e-10
        monkeypatch.setattr(studies, "_ODE_MAX_HALVINGS", 0)
        with pytest.raises(RuntimeError, match="no step down to 2.5e-04"):
            integrate_reduced_ode(cfg, laws, 1.0, 0.2)

    def test_oracle_invariant_sanity(self):
        config = replace(ORACLE_BASE, N=100)
        gaps = oracle_gaps(config, homogeneous_oracle(config))
        assert gaps["drift_oracle"] <= 1e-8

    def test_stepper_gap_is_first_order(self):
        errs = []
        for N in (250, 500):
            config = replace(ORACLE_BASE, N=N)
            gaps = oracle_gaps(config, homogeneous_oracle(config))
            errs.append(max(gaps["err_mu"], gaps["err_rho"]))
        assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.4)

    def test_large_viscosity_freezes_the_order_parameter(self):
        gaps = []
        for delta in (1.0, 10.0, 100.0):
            cfg = SolverConfig(T=1.0, n_steps=10, delta=delta)
            _, rho = integrate_reduced_ode(cfg, self.laws, 1.0, 0.5)
            gaps.append(abs(rho[-1] - 0.5))
        assert gaps[0] > gaps[1] > gaps[2]


class TestDegenerateDemo:
    def test_zero_amplitude_never_diffuses(self):
        base = Config(dim=1, n=32, T=0.25, N=16, potential="clamp",
                      coupling="constant", g0=0.0, mobility="tanhpow", m=2.0,
                      mu0=("bump", 0.5, 0.15, 0.0), rho0=("constant", 0.5),
                      study="degenerate_demo", study_values=(16,))
        rows = degenerate_demo(base)
        assert len(rows) == studies.N_SAMPLES
        assert np.all(column(rows, "radius") == 0.0)

    def test_control_spreads_strictly_farther(self):
        rows = degenerate_demo(replace(DEGENERATE_BASE, study_values=(32, 64)),
                               threshold=0.05)
        radii = by_member(rows, "radius")
        control = by_member(rows, "radius_control")
        for n_steps in (32, 64):
            assert np.all(control[n_steps] > radii[n_steps])

    def test_final_radius_nonincreasing_as_floor_shrinks(self):
        rows = degenerate_demo(replace(DEGENERATE_BASE,
                                       study_values=(32, 64, 128)),
                               threshold=0.05)
        finals = [radii[-1] for radii in by_member(rows, "radius").values()]
        assert finals[1] <= finals[0] and finals[2] <= finals[1]

    def test_kirchhoff_transform_norm_bounded(self):
        rows = degenerate_demo(DEGENERATE_BASE, threshold=0.05)
        assert np.all(np.isfinite(column(rows, "ktau_vnorm_sup")))

    def test_reproducible(self):
        assert (degenerate_demo(DEGENERATE_BASE)
                == degenerate_demo(DEGENERATE_BASE))

    def test_spread_radius_empty_set(self):
        g = Grid(1, 8, 1.0)
        assert spread_radius(field_of(g, 0.0), 0.5, 0.5) == 0.0

    def test_spread_radius_in_2d(self):
        # nodes at 0.125, 0.375, 0.625, 0.875 per axis, center (0.5, 0.5):
        # above the threshold at (0.125, 0.375) and (0.625, 0.625), so the
        # radius is sqrt(0.375^2 + 0.125^2); the farther corner node sits
        # at the threshold, not above it
        g = Grid(2, 4, 1.0)
        values = np.zeros(g.shape)
        values[0, 1], values[2, 2], values[3, 3] = 1.0, 0.2, 0.1
        radius = spread_radius(field_of(g, values), 0.1, 0.5)
        assert radius == np.sqrt(0.375 ** 2 + 0.125 ** 2)


class TestPerturbationPairs:
    def test_quadratic_scaling(self):
        base = Config(dim=1, n=24, T=0.5, N=24, potential="log", alpha1=0.5,
                      alpha2=2.0, coupling="linear", mobility="constant",
                      mu0=("constant", 1.0), rho0=("cosine", 0.5, 0.2),
                      study="perturbation", study_values=(1.0, 0.5),
                      perturb_seed=3)
        rows = perturbation_pairs(base)
        finals = column(rows, "final_metric")
        assert 3.6 <= finals[0] / finals[1] <= 4.4
        assert np.all(np.isfinite(column(rows, "growth_rate")))

    def test_oversized_perturbation_rejected(self, monkeypatch):
        monkeypatch.setattr(studies, "run", no_run)
        base = Config(dim=1, n=8, T=0.25, N=4, potential="clamp",
                      mu0=("constant", 1e-9), rho0=("constant", 0.5),
                      study="perturbation", study_values=(1.0,))
        with pytest.raises(ValueError, match="negative"):
            perturbation_pairs(base)
