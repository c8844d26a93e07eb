"""Scripted experiment suites.

Four desk-scale experiments, each a function of the whole config that
returns the rows of its CSV table:

* ``tau_refinement`` -- self-convergence of the stepper under step halving,
  errors in the discrete space-time L2 norm against the finest member;
* ``homogeneous_oracle`` -- spatially constant runs checked against a
  fifth-order Radau IIA integration of the reduced two-variable ODE
  system, an entirely independent path;
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
from .mesh import (
    ScalarField,
    dirichlet_energy,
    field_of,
    integrate,
    unit_face_weights,
)
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
    """Right-hand side ``(mu', rho')`` of the spatially constant system: the
    gradient terms vanish, leaving two coupled scalar equations (graph
    regularized with the same Yosida parameter the stepper uses).  ``mu``
    and ``rho`` may each be an array of points, all evaluated at once."""
    lam = cfg.yosida_lambda

    def rhs(_t, y):
        mu, rho = np.asarray(y, dtype=float)
        gp = laws.coupling.g_prime(rho)
        rho_dot = (mu * gp - yosida_array(laws.graph, lam, rho)
                   - laws.potential.f2_prime(rho)) / cfg.delta
        mu_dot = -mu * gp * rho_dot / mu_weight(cfg, laws, rho)
        return np.array([mu_dot, rho_dot])

    return rhs


# The oracle's integrator: 3-stage Radau IIA collocation (Hairer & Wanner,
# Solving ODEs II, 1996, sec. IV.5), order 5 at step ends and stiffly
# accurate, so a step ends on its last stage.  Coefficients A; the reduced
# system is autonomous, so the nodes c (the row sums of A) are not needed.
_SQRT6 = math.sqrt(6.0)
_RADAU_A = np.array([
    [(88.0 - 7.0 * _SQRT6) / 360.0, (296.0 - 169.0 * _SQRT6) / 1800.0,
     (-2.0 + 3.0 * _SQRT6) / 225.0],
    [(296.0 + 169.0 * _SQRT6) / 1800.0, (88.0 + 7.0 * _SQRT6) / 360.0,
     (-2.0 - 3.0 * _SQRT6) / 225.0],
    [(16.0 - _SQRT6) / 36.0, (16.0 + _SQRT6) / 36.0, 1.0 / 9.0]])

# Its embedded error estimate (Hairer & Wanner, sec. IV.8): the weights of
# the stage increments, and the real eigenvalue of A^-1.
_RADAU_E = np.array([-13.0 - 7.0 * _SQRT6, -13.0 + 7.0 * _SQRT6, -1.0]) / 3.0
_RADAU_MU = 3.0 + 3.0 ** (2.0 / 3.0) - 3.0 ** (1.0 / 3.0)

# The oracle's longest step in t: it holds the oracle's error within 1e-12
# of a tight reference over criterion 4's lambda = tau = 1e-3 and its
# halving (docs/studies.md).
ODE_MAX_STEP = 1e-3

# The simplified Newton iteration of a step stops once its update is this
# small relative to the state, and fails after this many iterations or as
# soon as an update grows.
_ODE_NEWTON_TOL = 1e-14
_ODE_NEWTON_ITERS = 8

# A step is taken as two half steps when its stage equations defeat the
# simplified Newton iteration, or when its error estimate exceeds this,
# relative to the state; at most this many halvings.  At this bound no step
# of criterion 4's runs is halved, and over a sweep of stiffer, faster and
# clamp configs the oracle stays within 7.7e-8 of a tight reference, with
# at most 15 halvings (docs/studies.md).
_ODE_ERROR_TOL = 1e-9
_ODE_MAX_HALVINGS = 20


def integrate_reduced_ode(cfg: SolverConfig, laws: Laws, mu0: float,
                          rho0: float):
    """``(mu, rho)`` of the reduced system at the stepper's step times
    ``n tau``, n = 0..N, by 3-stage Radau IIA at the fixed step
    ``h = tau / ceil(tau / ODE_MAX_STEP)``, so that every step time is the
    end of an oracle step.

    Each step evaluates the right-hand side at its start and its 2x2
    forward-difference Jacobian there in one call, then solves its stage
    equations by simplified Newton from zero stage increments, all three
    stage points in one call per iteration.  A step the iteration cannot
    solve, or whose error estimate exceeds ``_ODE_ERROR_TOL``, is taken as
    two half steps."""
    y = np.array([mu0, rho0], dtype=float)
    if cfg.n_steps == 0:
        return y[:1], y[1:]
    rhs = reduced_ode_rhs(cfg, laws)
    substeps = math.ceil(cfg.tau / ODE_MAX_STEP)
    h = cfg.tau / substeps

    def advance(y, step):
        """The state one step of length ``step`` after y."""
        d = 1.5e-8 * np.maximum(1.0, np.abs(y))
        f = rhs(None, y[:, None] + np.array([[0.0, d[0], 0.0],
                                             [0.0, 0.0, d[1]]]))
        f0, jac = f[:, 0], (f[:, 1:] - f[:, :1]) / d
        inverse = np.linalg.inv(np.eye(6) - np.kron(step * _RADAU_A, jac))
        scale = max(1.0, float(np.max(np.abs(y))))
        # zero increments put every stage point at y, where the rhs is f0
        z, f, last = np.zeros((3, 2)), np.repeat(f[:, :1], 3, axis=1), math.inf
        for _ in range(_ODE_NEWTON_ITERS):
            dz = (inverse @ (step * (_RADAU_A @ f.T) - z).ravel()).reshape(3, 2)
            z = z + dz
            size = float(np.max(np.abs(dz)))
            # each test is written so that a NaN update fails it
            if size <= _ODE_NEWTON_TOL * scale:
                err = np.linalg.solve(_RADAU_MU / step * np.eye(2) - jac,
                                      f0 + _RADAU_E @ z / step)
                if np.max(np.abs(err)) <= _ODE_ERROR_TOL * scale:
                    return y + z[2]
                break
            if not size < last:
                break
            last = size
            f = rhs(None, y[:, None] + z.T)
        if step <= h / 2 ** _ODE_MAX_HALVINGS:
            raise RuntimeError("reduced-system oracle failed: no step down "
                               f"to {step:.1e} met its tolerances")
        return advance(advance(y, 0.5 * step), 0.5 * step)

    out = [y]
    for _ in range(cfg.n_steps):
        for _ in range(substeps):
            y = advance(y, h)
        out.append(y)
    out = np.array(out)
    return out[:, 0], out[:, 1]


def homogeneous_oracle(config: Config) -> list:
    """Compare the stepper's run of spatially constant data with the
    Radau IIA integration of the reduced system, one row per step."""
    _grid, cfg, laws, (mu0, rho0) = build_run(config)
    if np.ptp(mu0.values) or np.ptp(rho0.values):
        raise ConfigError("the oracle study needs spatially constant data")
    traj = run(cfg, laws, (mu0, rho0))
    t = traj.times()
    mu_step = [s.mu.values.flat[0] for s in traj.states]
    rho_step = [s.rho.values.flat[0] for s in traj.states]
    mu_orc, rho_orc = integrate_reduced_ode(cfg, laws,
                                            float(mu0.values.flat[0]),
                                            float(rho0.values.flat[0]))
    return _rows("homogeneous_oracle",
                 zip(t, mu_step, rho_step, mu_orc, rho_orc))


# ---------------------------------------------------------------------------
# degenerate mobility demo


# sampled times per member of the degenerate demo
N_SAMPLES = 8


def spread_radius(field: ScalarField, threshold: float, center: float) -> float:
    """Largest Euclidean distance from the bump center ``(center, ...,
    center)`` at which the field exceeds the threshold; zero if nowhere."""
    dist = np.sqrt(sum((x - center) ** 2 for x in field.grid.coordinates()))
    mask = field.values > threshold
    if not np.any(mask):
        return 0.0
    return float(dist[mask].max())


def _ktau_vnorm(traj: Trajectory, laws: Laws) -> float:
    """Largest discrete H1 norm of the floored Kirchhoff transform of mu
    along a run."""
    grid, norms = traj.grid, []
    for state in traj.states:
        kt = K_tau_array(laws.mobility, traj.cfg.mobility_floor_tau,
                         state.mu.values)
        norms.append(math.sqrt(
            integrate(grid, ScalarField(grid, kt ** 2))
            + dirichlet_energy(grid, unit_face_weights(grid), kt)))
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
