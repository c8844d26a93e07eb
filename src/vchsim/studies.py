"""Scripted experiment suites.

Three families of desk-scale experiments:

* ``tau_refinement`` -- self-convergence of the stepper under step halving,
  errors in the discrete space-time L2 norm against the finest member;
* ``homogeneous_oracle`` -- spatially constant runs checked against a
  high-order adaptive integration of the reduced two-variable ODE system
  (the oracle is built on scipy's DOP853, an entirely independent path),
  including the exact invariant (eps + 2 g(rho)) mu^2 = const;
* ``degenerate_demo`` -- qualitative slow-diffusion study for the
  tanh-power mobility: spread radii of a compact bump against a
  constant-mobility control, across shrinking parabolicity floors.

Sweep members run independently; aggregation is ordered by sweep value, so
repeated executions produce identical tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import Config, build_laws, build_run
from .constitutive import K_tau_array, Laws, yosida_array
from .diagnostics import contraction_metric
from .mesh import ScalarField, dirichlet_energy, field_of, integrate
from .stepper import (
    SolverConfig,
    Trajectory,
    ValidationError,
    mu_weight,
    run,
    validate_initial_data,
)


def _step_counts(values) -> list:
    """Sweep values that are step counts, as ints; each must be a positive
    whole number."""
    bad = [v for v in values if not (v > 0 and float(v).is_integer())]
    if bad:
        raise ValidationError(f"study step counts must be positive whole "
                              f"numbers, got {bad[0]!r}")
    return [int(v) for v in values]


@dataclass(frozen=True)
class StudySpec:
    """A step-count sweep of a base configuration."""

    base: Config
    values: tuple              # member step counts
    reference: int = 512       # finest-step member used as reference

    def __post_init__(self):
        vals = np.asarray(_step_counts(self.values), dtype=float)
        if len(vals) < 3:
            raise ValidationError(
                "order estimation needs at least 3 sweep values")
        diffs = np.diff(vals)
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValidationError("sweep values must be strictly monotone")


@dataclass
class OrderTable:
    """(sweep value, error norm, estimated order) rows; the order column is
    None on the first row and between non-finite pairs."""

    rows: list

    def fit_order(self):
        """Least-squares slope of log error vs log step count -- the sweep's
        headline empirical order (pairwise column entries wobble around it)."""
        pts = [(math.log(v), math.log(e)) for v, e, _ in self.rows if e > 0]
        if len(pts) < 2:
            return None
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        return float(-np.polyfit(xs, ys, 1)[0])


def _space_l2_sq(grid, a: np.ndarray, b: np.ndarray) -> float:
    return grid.cell_volume * float(np.sum((a - b) ** 2))


def _l2q_error(member: Trajectory, reference: Trajectory) -> float:
    """Discrete space-time L2 distance of (mu, rho) on the coarse time grid."""
    n_member = len(member) - 1
    if n_member == 0:
        return 0.0
    stride = (len(reference) - 1) // n_member
    tau = member.cfg.tau
    grid = member.grid
    total = 0.0
    for n in range(1, n_member + 1):
        sm, sr = member.states[n], reference.states[n * stride]
        total += tau * (_space_l2_sq(grid, sm.mu.values, sr.mu.values)
                        + _space_l2_sq(grid, sm.rho.values, sr.rho.values))
    return math.sqrt(total)


def tau_refinement(spec: StudySpec) -> OrderTable:
    """Run the sweep, measure each member against the reference run, and
    estimate the convergence order between consecutive members.  Every
    member is built and checked before the first run."""
    if build_laws(spec.base).mobility.r_star != 0.0:
        raise ValidationError(
            "refinement study needs a nondegenerate mobility")
    counts = [int(v) for v in spec.values]
    if spec.base.T > 0:
        members = [_prepare(replace(spec.base, N=n))
                   for n in (spec.reference, *counts)]
        uneven = [n for n in counts if spec.reference % n]
        if uneven:
            raise ValidationError(
                f"study_reference = {spec.reference} must be a multiple of "
                f"every member step count (not of {uneven[0]})")
    else:
        members = [_prepare(spec.base)] * (len(counts) + 1)
    reference = run(*members[0])
    errors = [_l2q_error(run(*member), reference) for member in members[1:]]
    rows = []
    for i, n_steps in enumerate(counts):
        order = None
        if i > 0 and errors[i - 1] > 0 and errors[i] > 0:
            order = math.log(errors[i - 1] / errors[i]) \
                / math.log(counts[i] / counts[i - 1])
        rows.append((n_steps, errors[i], order))
    return OrderTable(rows)


def _prepare(config: Config) -> tuple:
    """Build a member run's ``(cfg, laws, initial)`` and check its data."""
    _grid, cfg, laws, initial = build_run(config)
    validate_initial_data(*initial, cfg, laws)
    return cfg, laws, initial


# ---------------------------------------------------------------------------
# homogeneous oracle


@dataclass
class HomogeneousOracleReport:
    t: np.ndarray
    mu_stepper: np.ndarray
    rho_stepper: np.ndarray
    mu_oracle: np.ndarray
    rho_oracle: np.ndarray
    err_mu: float                 # sup over step times of |stepper - oracle|
    err_rho: float
    invariant_drift_stepper: float
    invariant_drift_oracle: float


def reduced_ode_rhs(cfg: SolverConfig, laws: Laws):
    """Right-hand side of the spatially constant system: the gradient terms
    vanish, leaving two coupled scalar equations (graph regularized with the
    same Yosida parameter the stepper uses)."""
    lam = cfg.yosida_lambda

    def rhs(_t, y):
        mu, rho = y
        gp = float(laws.coupling.g_prime(np.asarray(rho)))
        rho_dot = (mu * gp - float(yosida_array(laws.graph, lam, rho))
                   - float(laws.potential.f2_prime(np.asarray(rho)))) / cfg.delta
        a = float(mu_weight(cfg, laws, np.asarray(rho)))
        mu_dot = -mu * gp * rho_dot / a
        return [mu_dot, rho_dot]

    return rhs


def integrate_reduced_ode(cfg: SolverConfig, laws: Laws, mu0: float,
                          rho0: float, t_eval: np.ndarray):
    # the only scipy.integrate user: imported here, so that no other command
    # pays for loading it
    from scipy.integrate import solve_ivp

    if t_eval[-1] == 0.0:  # solve_ivp returns no state for an empty span
        return np.array([mu0]), np.array([rho0])
    sol = solve_ivp(reduced_ode_rhs(cfg, laws), (0.0, float(t_eval[-1])),
                    [mu0, rho0], method="DOP853", t_eval=t_eval,
                    rtol=1e-11, atol=1e-13, max_step=np.inf)
    if not sol.success:
        raise RuntimeError(f"reduced-system oracle failed: {sol.message}")
    return sol.y[0], sol.y[1]


def _invariant(cfg, laws, mu: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return mu_weight(cfg, laws, rho) * mu ** 2


def homogeneous_oracle(grid, cfg: SolverConfig, laws: Laws, mu0: float,
                       rho0: float) -> HomogeneousOracleReport:
    """Compare the stepper's spatially constant run with the adaptive ODE
    integration of the reduced system, and track the exact invariant
    (eps + 2 g(rho)) mu^2 on both."""
    traj = run(cfg, laws, (field_of(grid, mu0), field_of(grid, rho0)))
    t = traj.times()
    mu_step = np.array([s.mu.values.flat[0] for s in traj.states])
    rho_step = np.array([s.rho.values.flat[0] for s in traj.states])
    mu_orc, rho_orc = integrate_reduced_ode(cfg, laws, mu0, rho0, t)
    inv_step = _invariant(cfg, laws, mu_step, rho_step)
    inv_orc = _invariant(cfg, laws, mu_orc, rho_orc)
    inv0 = inv_step[0]
    return HomogeneousOracleReport(
        t=t, mu_stepper=mu_step, rho_stepper=rho_step,
        mu_oracle=mu_orc, rho_oracle=rho_orc,
        err_mu=float(np.max(np.abs(mu_step - mu_orc))),
        err_rho=float(np.max(np.abs(rho_step - rho_orc))),
        invariant_drift_stepper=float(np.max(np.abs(inv_step - inv0))),
        invariant_drift_oracle=float(np.max(np.abs(inv_orc - inv0))),
    )


# ---------------------------------------------------------------------------
# degenerate mobility demo


@dataclass
class DegenerateReport:
    """Spread radii of the superlevel set {mu > threshold} over time.

    ``radii[n_steps]`` holds the degenerate-mobility radii at the sampled
    times, ``control_radii[n_steps]`` the constant-mobility control at the
    same step count; ``ktau_vnorm_sup`` is the largest discrete H1 norm of
    the floored Kirchhoff transform seen along each degenerate run.
    """

    sample_times: np.ndarray
    step_counts: list
    radii: dict
    control_radii: dict
    ktau_vnorm_sup: dict
    threshold: float
    center: float


def spread_radius(field: ScalarField, threshold: float, center: float) -> float:
    """Largest distance from the bump center at which the field exceeds the
    threshold; zero if nowhere."""
    grid = field.grid
    if grid.dim == 1:
        dist = np.abs(grid.coordinates() - center)
    else:
        x, y = grid.coordinates()
        dist = np.sqrt((x - center) ** 2 + (y - center) ** 2)
    mask = field.values > threshold
    if not np.any(mask):
        return 0.0
    return float(dist[mask].max())


def degenerate_demo(base: Config, step_counts=(64, 128, 256),
                    n_samples: int = 8, threshold: float = 1e-3) -> DegenerateReport:
    """Paired degenerate/control runs over shrinking parabolicity floors.
    Every member is built and checked before the first run."""
    if base.mobility != "tanhpow":
        raise ValidationError(
            "the degenerate demo expects the tanh-power mobility")
    if base.mu0[0] != "bump":
        raise ValidationError(
            "the demo expects a compact bump over a zero background")
    step_counts = _step_counts(step_counts)
    if any(n_steps % n_samples for n_steps in step_counts):
        raise ValidationError(
            f"step counts must be divisible by the sample count {n_samples}")
    center = base.mu0[1]
    members = [replace(base, N=n_steps) for n_steps in step_counts]
    pairs = [(_prepare(member), _prepare(
        replace(member, mobility="constant", kappa0=1.0))) for member in members]
    radii, control_radii, vnorm = {}, {}, {}
    sample_times = None
    for n_steps, (member_run, control_run) in zip(step_counts, pairs):
        stride = n_steps // n_samples
        traj = run(*member_run)
        control = run(*control_run)
        laws = member_run[1]
        times = []
        r_deg, r_ctl, vn = [], [], []
        for k in range(1, n_samples + 1):
            idx = k * stride
            times.append(traj.states[idx].t)
            r_deg.append(spread_radius(traj.states[idx].mu, threshold, center))
            r_ctl.append(spread_radius(control.states[idx].mu, threshold, center))
        for state in traj.states:
            kt = ScalarField(traj.grid, K_tau_array(
                laws.mobility, traj.cfg.mobility_floor_tau, state.mu.values))
            vn.append(math.sqrt(integrate(traj.grid, ScalarField(
                traj.grid, kt.values ** 2)) + dirichlet_energy(
                    traj.grid, field_of(traj.grid, 1.0), kt)))
        radii[n_steps] = np.array(r_deg)
        control_radii[n_steps] = np.array(r_ctl)
        vnorm[n_steps] = float(max(vn))
        sample_times = np.array(times)
    return DegenerateReport(sample_times=sample_times,
                            step_counts=step_counts, radii=radii,
                            control_radii=control_radii, ktau_vnorm_sup=vnorm,
                            threshold=threshold, center=center)


# ---------------------------------------------------------------------------
# two-run perturbation pairs (contraction scaling)


@dataclass
class PerturbationReport:
    amplitudes: tuple
    final_metrics: list
    growth_rates: list


# the unit of the perturbation study: its amplitudes are this times the
# config's study_values
PERTURB_AMPLITUDE = 1e-6


def perturbation_pairs(base: Config, amplitudes, seed: int = 0) -> PerturbationReport:
    """Run the base config against perturbed copies of mu0 (one fixed random
    direction, scaled by each amplitude) and report the final contraction
    metric plus the largest per-step growth rate.  The base datum and every
    perturbed one are checked before the base run."""
    grid, cfg, laws, (mu0, rho0) = build_run(base)
    direction = np.random.default_rng(seed).standard_normal(grid.shape)
    direction /= np.max(np.abs(direction))
    perturbed = [field_of(grid, mu0.values + amp * direction)
                 for amp in amplitudes]
    for mu0_x in (mu0, *perturbed):
        validate_initial_data(mu0_x, rho0, cfg, laws)
    base_traj = run(cfg, laws, (mu0, rho0))
    finals, rates = [], []
    for mu0_pert in perturbed:
        pert_traj = run(cfg, laws, (mu0_pert, rho0))
        series = contraction_metric(base_traj, pert_traj, laws)
        finals.append(float(series.total[-1]))
        rates.append(series.growth_rate(cfg.tau))
    return PerturbationReport(amplitudes=tuple(amplitudes),
                              final_metrics=finals, growth_rates=rates)
