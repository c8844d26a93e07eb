"""Scripted experiment suites.

Four desk-scale experiments, each a function of the whole config that
returns the rows of its CSV table:

* ``tau_refinement`` -- self-convergence of the stepper under step halving,
  errors in the discrete space-time L2 norm against the finest member;
* ``homogeneous_oracle`` -- spatially constant runs checked against a
  high-order adaptive integration of the reduced two-variable ODE system
  (the oracle is built on scipy's DOP853, an entirely independent path);
* ``degenerate_demo`` -- qualitative slow-diffusion study for the
  tanh-power mobility: spread radii of a compact bump against a
  constant-mobility control, across shrinking parabolicity floors;
* ``perturbation_pairs`` -- two-run contraction scaling under perturbed
  initial potentials.

:data:`STUDIES` names each study's file and columns.  Each study reads its
own config keys and checks its own rules before the first member runs.
Sweep members run independently; aggregation is ordered by sweep value, so
repeated executions produce identical tables.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .config import Config, ConfigError, build_laws, build_run
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


def _rows(study: str, rows) -> list:
    """Value tuples as rows keyed by the study's columns in :data:`STUDIES`."""
    columns = STUDIES[study][1]
    return [dict(zip(columns, row)) for row in rows]


def _prepare(config: Config) -> tuple:
    """Build a member run's ``(cfg, laws, initial)`` and check its data."""
    _grid, cfg, laws, initial = build_run(config)
    validate_initial_data(*initial, cfg, laws)
    return cfg, laws, initial


# ---------------------------------------------------------------------------
# step refinement


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


def tau_refinement(config: Config) -> list:
    """Run the config at each of its ``study_values`` step counts, measure
    each member against the ``study_reference`` run, and estimate the
    convergence order between consecutive members (NaN on the first row and
    between non-positive errors).  Every member is built and checked before
    the first run."""
    counts = _step_counts(config.study_values)
    if len(counts) < 3:
        raise ValidationError(
            "order estimation needs at least 3 sweep values")
    diffs = np.diff(counts)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValidationError("sweep values must be strictly monotone")
    if build_laws(config).mobility.r_star != 0.0:
        raise ValidationError(
            "refinement study needs a nondegenerate mobility")
    reference_n = config.study_reference
    if config.T > 0:
        members = [_prepare(replace(config, N=n))
                   for n in (reference_n, *counts)]
        uneven = [n for n in counts if reference_n % n]
        if uneven:
            raise ValidationError(
                f"study_reference = {reference_n} must be a multiple of "
                f"every member step count (not of {uneven[0]})")
    else:
        members = [_prepare(config)] * (len(counts) + 1)
    reference = run(*members[0])
    errors = [_l2q_error(run(*member), reference) for member in members[1:]]
    rows = []
    for i, n_steps in enumerate(counts):
        order = math.nan
        if i > 0 and errors[i - 1] > 0 and errors[i] > 0:
            order = math.log(errors[i - 1] / errors[i]) \
                / math.log(counts[i] / counts[i - 1])
        rows.append((n_steps, errors[i], order))
    return _rows("tau_refinement", rows)


# ---------------------------------------------------------------------------
# homogeneous oracle


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


def homogeneous_oracle(config: Config) -> list:
    """Compare the stepper's run of spatially constant data with the
    adaptive ODE integration of the reduced system, one row per step."""
    _grid, cfg, laws, (mu0, rho0) = build_run(config)
    if np.ptp(mu0.values) or np.ptp(rho0.values):
        raise ConfigError("the oracle study needs spatially constant data")
    traj = run(cfg, laws, (mu0, rho0))
    t = traj.times()
    mu_step = [s.mu.values.flat[0] for s in traj.states]
    rho_step = [s.rho.values.flat[0] for s in traj.states]
    mu_orc, rho_orc = integrate_reduced_ode(cfg, laws,
                                            float(mu0.values.flat[0]),
                                            float(rho0.values.flat[0]), t)
    return _rows("homogeneous_oracle",
                 zip(t, mu_step, rho_step, mu_orc, rho_orc))


# ---------------------------------------------------------------------------
# degenerate mobility demo


# sampled times per member of the degenerate demo
N_SAMPLES = 8


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


def _ktau_vnorm(traj: Trajectory, laws: Laws) -> float:
    """Largest discrete H1 norm of the floored Kirchhoff transform of mu
    along a run."""
    grid, norms = traj.grid, []
    for state in traj.states:
        kt = ScalarField(grid, K_tau_array(
            laws.mobility, traj.cfg.mobility_floor_tau, state.mu.values))
        norms.append(math.sqrt(integrate(grid, ScalarField(
            grid, kt.values ** 2)) + dirichlet_energy(
                grid, field_of(grid, 1.0), kt)))
    return float(max(norms))


def degenerate_demo(config: Config, threshold: float = 1e-3) -> list:
    """Paired degenerate/control runs at each of the ``study_values`` step
    counts (the parabolicity floor shrinks with the step): the spread radius
    of {mu > threshold} at ``N_SAMPLES`` evenly spaced times.  Every member
    is built and checked before the first run."""
    if config.mobility != "tanhpow":
        raise ValidationError(
            "the degenerate demo expects the tanh-power mobility")
    if config.mu0[0] != "bump":
        raise ValidationError(
            "the demo expects a compact bump over a zero background")
    step_counts = _step_counts(config.study_values)
    if any(n_steps % N_SAMPLES for n_steps in step_counts):
        raise ValidationError(
            f"step counts must be divisible by the sample count {N_SAMPLES}")
    center = config.mu0[1]
    members = [replace(config, N=n_steps) for n_steps in step_counts]
    pairs = [(_prepare(member), _prepare(
        replace(member, mobility="constant", kappa0=1.0))) for member in members]
    rows = []
    for n_steps, (member_run, control_run) in zip(step_counts, pairs):
        stride = n_steps // N_SAMPLES
        traj = run(*member_run)
        control = run(*control_run)
        vnorm = _ktau_vnorm(traj, member_run[1])
        for k in range(1, N_SAMPLES + 1):
            state, state_ctl = traj.states[k * stride], control.states[k * stride]
            rows.append((n_steps, state.t,
                         spread_radius(state.mu, threshold, center),
                         spread_radius(state_ctl.mu, threshold, center),
                         vnorm))
    return _rows("degenerate_demo", rows)


# ---------------------------------------------------------------------------
# two-run perturbation pairs (contraction scaling)


# the unit of the perturbation study: its amplitudes are this times the
# config's study_values
PERTURB_AMPLITUDE = 1e-6


def perturbation_pairs(config: Config) -> list:
    """Run the config against perturbed copies of mu0 (one fixed random
    direction drawn from ``perturb_seed``, scaled by each amplitude) and
    report the final contraction metric plus the largest per-step growth
    rate (NaN when no step grew).  The base datum and every perturbed one
    are checked before the base run."""
    amplitudes = [PERTURB_AMPLITUDE * v for v in config.study_values]
    grid, cfg, laws, (mu0, rho0) = build_run(config)
    direction = np.random.default_rng(
        config.perturb_seed).standard_normal(grid.shape)
    direction /= np.max(np.abs(direction))
    perturbed = [field_of(grid, mu0.values + amp * direction)
                 for amp in amplitudes]
    for mu0_x in (mu0, *perturbed):
        validate_initial_data(mu0_x, rho0, cfg, laws)
    base_traj = run(cfg, laws, (mu0, rho0))
    rows = []
    for amp, mu0_pert in zip(amplitudes, perturbed):
        pert_traj = run(cfg, laws, (mu0_pert, rho0))
        series = contraction_metric(base_traj, pert_traj, laws)
        rate = series.growth_rate(cfg.tau)
        rows.append((amp, float(series.total[-1]),
                     math.nan if rate is None else rate))
    return _rows("perturbation", rows)


# study name -> (file name, columns, study); docs/studies.md documents each
# table under the heading of its file name
STUDIES = {
    "tau_refinement": ("orders.csv", ("n_steps", "error", "order"),
                       tau_refinement),
    "homogeneous_oracle": ("oracle.csv", ("t", "mu_stepper", "rho_stepper",
                                          "mu_oracle", "rho_oracle"),
                           homogeneous_oracle),
    "degenerate_demo": ("degenerate.csv", ("n_steps", "t", "radius",
                                           "radius_control", "ktau_vnorm_sup"),
                        degenerate_demo),
    "perturbation": ("perturbation.csv", ("amplitude", "final_metric",
                                          "growth_rate"),
                     perturbation_pairs),
}
