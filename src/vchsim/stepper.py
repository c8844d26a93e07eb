"""Delay-decoupled two-stage time integrator.

Each step advances the pair (mu, rho) by the backward-Euler scheme that
mirrors the inductive construction used to build solutions:

1. the order-parameter stage solves the implicit phase-field equation

       delta (rho - rho_prev)/tau - Lap rho + beta_lam(rho) + pi(rho)
           = mu_delayed g'(rho)

   with the monotone graph replaced by its Yosida regularization and the
   chemical potential fed in from one step earlier, i.e. the previous
   state's mu (the delay is what decouples the system);

2. the potential stage solves the linearized uniformly parabolic equation

       a (mu - mu_prev)/tau + b+ mu - b- mu_prev
           - div(kappa_tau(mu_prev) grad mu) = 0

   with a = eps + 2 g(rho_new) >= eps, the reaction b = g'(rho_new) dt_rho
   split by sign (implicit gain, explicit loss), and the mobility floored
   by the step size and lagged at mu_prev.  The system matrix is an
   M-matrix, so nonnegative data stay nonnegative -- the discrete stand-in
   for the negative-part test that proves positivity at the continuous
   level (in floating point too: ``step_mu`` ends on a sign step).

Stage order is fixed rho-then-mu; the mu stage consumes rho_new and its
backward difference as frozen coefficients.

Both stages solve systems of one shape, diag(d) - div(k grad .) on the
cell-centered Neumann grid, with k = 1 in the rho stage and the lagged
floored mobility in the mu stage.  One rule, ``_flux_system``, builds the
operator and its preconditioner for both.  The operator is applied
matrix-free through the face-flux divergence ``div_faces``.  The
preconditioner is the exact DCT solve of ``mean|d| I - mean(k) L``
(``shifted_laplacian_solve``, an orthonormal DCT-II applied as a cached
dense numpy matrix) while max k <= ``DCT_CONTRAST_MAX`` min k, and the
diagonal (Jacobi) beyond it.

Node values are grid-shaped arrays throughout: the stages, the operator,
both preconditioners and the Krylov iterates all keep the grid's shape, and
only the inner product :func:`_dot` reads them flat.  Both Krylov loops,
conjugate gradients and MINRES, keep one contract on such arrays: they
solve A x = b from x = 0, as ``(apply_A, b, precondition, tol, max_iter)
-> (x, iters, rnorm)``, and stop on the 2-norm of the recursive residual.
The gap between that residual and the true one grows with the size of the
iterates (Greenbaum, *SIMAX* 18, 1997), so the mu stage solves for its
change from mu_prev rather than for mu itself.  MINRES takes every
Newton direction of the rho stage, whose Jacobian may be indefinite;
conjugate gradients take the mu stage's SPD M-matrix system.

Every solve runs in a fixed operation order, so identical inputs give
bitwise-identical steps.  The Krylov inner products and norms use numpy's own
summation loop, not BLAS ``ddot``, whose multithreaded sum changes with
the thread count; the DCT's dense matrix products gave the same bits under
one and two OpenBLAS threads at every size tried (1-D up to 4096 nodes,
2-D up to 256^2).  So manifests of a 2-D 128^2 run are byte-identical
under one and two OpenBLAS threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constitutive import ClampIndicator, Laws, yosida_array
from .mesh import (
    Grid,
    ScalarField,
    div_faces,
    div_faces_diagonal,
    face_weights,
    field_of,
    neighbour_sum,
    shifted_laplacian_solve,
    unit_face_weights,
)

# Both stages precondition with the exact inverse of their mean-coefficient
# operator when k varies by at most this factor; beyond it (degenerate
# mobilities in the mu stage) Jacobi wins on wall clock.
DCT_CONTRAST_MAX = 2.0

# Newton iterations of the rho stage before it fails.
NEWTON_MAX_ITER = 50

# Stopping targets: the rho stage's Newton residual (max norm), and the mu
# stage's solution error (2-norm), from which each stage derives the target
# of its Krylov loop.  diagnose reads its positivity floor and its solver
# band from these two as well.
NEWTON_TOL = 1e-10
LINEAR_TOL = 1e-11


class ValidationError(ValueError):
    """Configuration or data violates a stated hypothesis."""


class StepFailure(RuntimeError):
    """A stage solver did not converge, or its arithmetic failed (overflow,
    a zero Krylov pivot, a non-finite field); carries the last residual,
    NaN where none is known."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


class SolverFailure(RuntimeError):
    """A run aborted mid-way at ``step`` (the step that failed), from the
    state at time ``t``."""

    def __init__(self, message: str, step: int, t: float):
        super().__init__(message)
        self.step = step
        self.t = t


@dataclass(frozen=True)
class SolverConfig:
    """Time-integration parameters.

    The step is derived, tau = T/N, and is not an argument; so are the
    Yosida parameter ``yosida_lambda`` (tau, or 1 when N = 0) and the
    parabolicity floor ``mobility_floor_tau`` (tau), so refining the step
    simultaneously tightens the graph regularization and removes the floor.
    The stopping rules are not parameters either: Newton stops at
    :data:`NEWTON_TOL` or after :data:`NEWTON_MAX_ITER` iterations, the
    potential stage at :data:`LINEAR_TOL`, both Krylov solves after
    10 nodes + 100 iterations.
    """

    T: float
    n_steps: int
    tau: float = field(init=False)
    yosida_lambda: float = field(init=False)
    mobility_floor_tau: float = field(init=False)
    epsilon: float = 1.0
    delta: float = 1.0

    def __post_init__(self):
        if self.T < 0:
            raise ValidationError("final time must be nonnegative")
        if self.n_steps < 0:
            raise ValidationError("step count must be nonnegative")
        if self.n_steps == 0 and self.T != 0.0:
            raise ValidationError("N = 0 is admitted only with T = 0")
        tau = self.T / self.n_steps if self.n_steps > 0 else 0.0
        if self.n_steps > 0 and not tau > 0:
            raise ValidationError("step size must be positive")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "yosida_lambda",
                           tau if self.n_steps > 0 else 1.0)
        object.__setattr__(self, "mobility_floor_tau", tau)
        if not (self.epsilon > 0 and self.delta > 0):
            raise ValidationError("epsilon and delta must be positive")


@dataclass(frozen=True)
class StepReport:
    newton_iters: int = 0
    newton_residual: float = 0.0
    linear_iters: int = 0
    linear_residual: float = 0.0
    min_mu: float = 0.0
    max_mu: float = 0.0
    rho_range: tuple = (0.0, 0.0)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SimState:
    """Immutable snapshot (t, mu, rho, xi, backward difference of rho)."""

    t: float
    mu: ScalarField
    rho: ScalarField
    xi: ScalarField
    dt_rho: ScalarField

    def __post_init__(self):
        for f in (self.mu, self.rho, self.xi, self.dt_rho):
            if not f.values.flags.writeable:
                continue
            object.__setattr__(f, "values", _freeze(f.values))

    @property
    def grid(self) -> Grid:
        return self.mu.grid


@dataclass
class Trajectory:
    """Ordered snapshots of one run plus the per-step solver reports."""

    states: list
    reports: list = field(default_factory=list)
    cfg: SolverConfig = None

    @property
    def grid(self) -> Grid:
        return self.states[0].grid

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    def __len__(self) -> int:
        return len(self.states)


# ---------------------------------------------------------------------------
# stages


def _krylov_cap(grid: Grid) -> int:
    """Iteration cap of every Krylov solve of both stages."""
    return 10 * grid.num_nodes + 100


def rho_stage_residual(rho_prev: ScalarField, mu_delayed: ScalarField,
                       r: np.ndarray, xi: np.ndarray, cfg: SolverConfig,
                       laws: Laws) -> np.ndarray:
    """delta (r - rho_prev)/tau - Lap r + xi + pi(r) - mu_delayed g'(r) at
    node values ``r`` and ``xi`` shaped like the grid: the equation
    :func:`step_rho` drives to zero with xi the Yosida value at r, and the
    diagnostics evaluate.  The Laplacian is the unit-coefficient flux
    divergence, applied matrix-free."""
    dt_coef = cfg.delta / cfg.tau
    return (dt_coef * (r - rho_prev.values)
            - div_faces(unit_face_weights(rho_prev.grid), r) + xi
            + laws.potential.f2_prime(r)
            - mu_delayed.values * laws.coupling.g_prime(r))


def step_rho(prev: SimState, mu_del: ScalarField, cfg: SolverConfig,
             laws: Laws):
    """Implicit order-parameter stage.

    Damped Newton on the Yosida-regularized system; for the clamp graph a
    post-pass replaces the iterate by its exact resolvent pair, so the
    stored (rho, xi) satisfy the constraint and the complementarity sign
    conditions exactly (rho back in [0, 1] bit-exactly).  The line search
    halves the step until the residual's max norm falls by the Armijo
    factor, or, along a descent direction, the energy whose gradient is the
    residual does (Nocedal & Wright, *Numerical Optimization*, 2006, ch. 3).

    Each Newton direction solves J = diag(delta/tau + d) - L (k = 1) to a
    2-norm residual of ``0.1 NEWTON_TOL`` within 10 nodes + 100
    iterations.  J is symmetric, and indefinite where a concave potential
    part outweighs delta/tau, so MINRES takes every direction; it needs
    only the SPD preconditioner.  Where delta/tau + d vanishes at every
    node, J = -L is singular and the stage fails with that diagnosis.
    """
    grid = prev.grid
    # k = 1 and its cached face weights, the same each Newton iteration
    unit_k, unit_faces = np.ones(grid.shape), unit_face_weights(grid)
    rho_prev = prev.rho.values
    mu_d = mu_del.values
    graph = laws.graph
    pot = laws.potential
    cpl = laws.coupling
    lam = cfg.yosida_lambda
    dt_coef = cfg.delta / cfg.tau

    def residual(r):
        # the resolvent is the costly part of the Yosida value; it is
        # returned so the Jacobian and the final xi reuse it at this r
        p = graph.resolvent_array(lam, r)
        return rho_stage_residual(prev.rho, mu_del, r, (r - p) / lam,
                                  cfg, laws), p

    def energy(r, p):
        # the functional whose gradient is the residual, p the resolvent at
        # r: sum of delta/(2 tau) (r - rho_prev)^2 + e_lam(r) + f2(r)
        # - mu_del g(r), less (1/2) r.(L r)
        lap_r = div_faces(unit_faces, r)
        return float(np.sum(0.5 * dt_coef * (r - rho_prev) ** 2
                            + pot.envelope(lam, r, p)
                            + pot.alpha2 * r * (1.0 - r) - mu_d * cpl.g(r))
                     ) - 0.5 * _dot(r, lap_r)

    r = rho_prev.copy()
    res, p = residual(r)
    res_norm = float(np.max(np.abs(res)))
    iters = 0
    # the direction's linear residual adds at most this much (max norm)
    # to the next Newton residual
    inner_tol = 0.1 * NEWTON_TOL
    # each test is written so that a NaN residual fails it
    while not res_norm <= NEWTON_TOL:
        if iters >= NEWTON_MAX_ITER:
            raise StepFailure("Newton did not converge in the rho stage", res_norm)
        diag = dt_coef + (graph.yosida_derivative(lam, r, p) + pot.f2_second(r)
                          - mu_d * cpl.g_second(r))
        if not np.any(diag):
            # diag vanishes at every node, so J = -L annihilates constants
            raise StepFailure("singular rho-stage Jacobian: delta/tau + d is "
                              "0 at every node", res_norm)
        apply_J, precondition = _flux_system(grid, diag, unit_k, unit_faces)
        step, _, inner_res = _minres(apply_J, res, precondition, inner_tol,
                                     _krylov_cap(grid))
        if not inner_res <= inner_tol:
            raise StepFailure("MINRES did not converge in the rho stage",
                              res_norm)
        # the max-norm test alone is no descent condition and can stall far
        # from the root; the energy test alone cannot resolve a decrease
        # near it, so the max-norm test goes first
        alpha, slope, energy_r = 1.0, _dot(res, step), None
        for _ in range(40):
            trial = r - alpha * step
            trial_res, trial_p = residual(trial)
            trial_norm = float(np.max(np.abs(trial_res)))
            if trial_norm <= (1.0 - 1e-4 * alpha) * res_norm or trial_norm <= NEWTON_TOL:
                break
            if slope > 0:
                if energy_r is None:
                    energy_r = energy(r, p)
                if energy(trial, trial_p) <= energy_r - 1e-4 * alpha * slope:
                    break
            alpha *= 0.5
        else:
            raise StepFailure("Newton line search stalled in the rho stage", res_norm)
        r, res, p, res_norm = trial, trial_res, trial_p, trial_norm
        iters += 1

    # the clamp resolvent is the projection onto [0, 1]
    rho_vals = p if isinstance(graph, ClampIndicator) else r
    xi_vals = (r - p) / lam
    rho_new = ScalarField(grid, rho_vals).check_finite()
    xi_new = ScalarField(grid, xi_vals).check_finite()
    return rho_new, xi_new, iters, res_norm


def mu_weight(cfg: SolverConfig, laws: Laws, rho: np.ndarray) -> np.ndarray:
    """The weight a = eps + 2 g(rho) of the potential's time derivative, at
    node values ``rho``; the potential energy is (1/2) int a mu^2."""
    return cfg.epsilon + 2.0 * laws.coupling.g(rho)


def mu_system_coefficients(prev_mu: ScalarField, rho_new: ScalarField,
                           dt_rho: ScalarField, cfg: SolverConfig, laws: Laws):
    """Coefficient fields (a, b_plus, b_minus, kappa_tau at mu_prev) of the
    linearized potential stage; shared with the diagnostics residuals."""
    rv = rho_new.values
    a = mu_weight(cfg, laws, rv)
    b = laws.coupling.g_prime(rv) * dt_rho.values
    b_plus = np.maximum(b, 0.0)
    b_minus = np.maximum(-b, 0.0)
    k_lag = laws.mobility.kappa(np.abs(prev_mu.values)) + cfg.mobility_floor_tau
    return a, b_plus, b_minus, k_lag


def step_mu(prev: SimState, rho_new: ScalarField, dt_rho: ScalarField,
            cfg: SolverConfig, laws: Laws):
    """Linearized positivity-preserving potential stage.

    Conjugate gradients on the symmetric positive definite M-matrix system
    A mu = b, capped at 10 nodes + 100 iterations, solved for the change
    e = mu - mu_prev from ``A e = b - A mu_prev``; the residual is driven
    low enough that the iterate is within the linear tolerance of the exact
    solution, which is nonnegative.  Each node where the iterate is still
    negative then takes one Jacobi step of the regular splitting of A from
    the clipped iterate: a quotient of sums of nonnegative products, so
    the potential ends nonnegative under any rounding, and nodes that were
    not negative keep their bits.  Returns the new potential, the CG
    iteration count and the true residual 2-norm ``||b - A mu_new||``.
    """
    grid = prev.grid
    a, b_plus, b_minus, k_lag = mu_system_coefficients(
        prev.mu, rho_new, dt_rho, cfg, laws)
    mu_prev = prev.mu.values
    rhs = (a / cfg.tau + b_minus) * mu_prev
    diag = a / cfg.tau + b_plus
    weights = face_weights(grid, k_lag)
    apply_system, precondition = _flux_system(grid, diag, k_lag, weights)
    # residual target: lambda_min >= min(a)/tau, so this keeps the solution
    # error (2-norm) at or below LINEAR_TOL
    tol = LINEAR_TOL * min(1.0, float(a.min()) / cfg.tau)
    change, iters, rnorm = _pcg(apply_system, rhs - apply_system(mu_prev),
                                precondition, tol, _krylov_cap(grid))
    if not rnorm <= tol:
        raise StepFailure("conjugate gradients did not converge in the mu stage",
                          rnorm)
    x = mu_prev + change
    negative = x < 0.0
    if negative.any():
        jacobi = ((rhs + neighbour_sum(weights, np.maximum(x, 0.0)))
                  / (diag + div_faces_diagonal(weights, grid.shape)))
        x[negative] = jacobi[negative]
    mu_new = ScalarField(grid, x).check_finite()
    # the reported residual is the true one, which drifts from the recursive
    # residual the stopping rule reads
    true_res = rhs - apply_system(x)
    return mu_new, iters, math.sqrt(_dot(true_res, true_res))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two grid-shaped arrays, read flat in row-major
    order, by numpy's own summation loop.  BLAS ``ddot`` splits long sums
    across its threads, so its rounding, and with it every CG iterate,
    would depend on the BLAS thread count."""
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


def _flux_system(grid: Grid, diag: np.ndarray, k: np.ndarray, weights=None):
    """``(apply, precondition)`` of ``x -> diag x - div(k grad x)`` on node
    values shaped like the grid, by the rule the module docstring states.
    ``weights`` is ``face_weights(grid, k)``, formed here unless the caller
    holds it."""
    weights = face_weights(grid, k) if weights is None else weights

    def apply(x):
        return diag * x - div_faces(weights, x)

    if float(k.max()) <= DCT_CONTRAST_MAX * float(k.min()):
        shift, k_mean = float(np.abs(diag).mean()), float(k.mean())

        def precondition(r):
            return shifted_laplacian_solve(grid, shift, k_mean, r)
    else:
        jacobi = diag + div_faces_diagonal(weights, grid.shape)

        def precondition(r):
            return r / jacobi
    return apply, precondition


def _pcg(apply_A, b, precondition, tol, max_iter):
    """Preconditioned conjugate gradients from x = 0 for SPD A and SPD
    preconditioner M, deterministic; stops on the 2-norm of the recursive
    residual."""
    x, r = np.zeros_like(b), b
    rnorm = math.sqrt(_dot(r, r))
    # a NaN residual ends the loop too; the caller's check rejects it
    if not rnorm > tol:
        return x, 0, rnorm
    z = precondition(r)
    p = z.copy()
    rz = _dot(r, z)
    for k in range(1, max_iter + 1):
        Ap = apply_A(p)
        alpha = rz / _dot(p, Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        rnorm = math.sqrt(_dot(r, r))
        if not rnorm > tol:
            return x, k, rnorm
        z = precondition(r)
        rz_new = _dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, max_iter, rnorm


def _minres(apply_A, b, precondition, tol, max_iter):
    """Preconditioned MINRES (Paige & Saunders, SINUM 12, 1975) from x = 0
    for symmetric, possibly indefinite A and SPD preconditioner M.

    The iterates minimize the M^-1-norm of the residual; its 2-norm, on
    which the loop stops, is kept by the recurrence r_k = s_k^2 r_(k-1)
    - phibar_k c_k q_(k+1), q the residual-space Lanczos vectors.  Follows
    the authors' reference implementation, with every inner product taken
    by :func:`_dot`."""
    x = np.zeros_like(b)
    rnorm = math.sqrt(_dot(b, b))
    # a NaN residual ends the loop too; the caller's check rejects it
    if not rnorm > tol:
        return x, 0, rnorm
    r = r1 = r2 = b
    y = precondition(b)
    beta = math.sqrt(_dot(b, y))
    dbar = epsln = 0.0
    phibar = beta
    cs, sn = -1.0, 0.0
    w = w2 = np.zeros_like(b)
    for k in range(1, max_iter + 1):
        # Lanczos step: A v = beta_next q_next + alfa q + beta q_prev
        v = y / beta
        y = apply_A(v)
        if k > 1:
            y = y - (beta / old_beta) * r1
        alfa = _dot(v, y)
        y = y - (alfa / beta) * r2
        r1, r2 = r2, y
        y = precondition(r2)
        old_beta, beta = beta, math.sqrt(_dot(r2, y))
        # previous rotation, then the one that annihilates beta
        old_eps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = math.hypot(gbar, beta)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2 = w2, w
        w = (v - old_eps * w1 - delta * w2) / gamma
        x = x + phi * w
        if beta == 0.0:
            # lucky breakdown: the Krylov space is invariant, x is exact
            return x, k, 0.0
        r = (sn * sn) * r - (phibar * cs / beta) * r2
        rnorm = math.sqrt(_dot(r, r))
        if not rnorm > tol:
            return x, k, rnorm
    return x, max_iter, rnorm


def step(state: SimState, cfg: SolverConfig, laws: Laws):
    """One full step from ``state``: rho stage, then mu stage.

    The rho stage is fed the potential from one step earlier, which is
    ``state.mu`` (at the first step, the initial datum).  Returns the new
    state and its solver report.  An ``ArithmeticError`` inside a stage is
    raised as that stage's :class:`StepFailure`.
    """
    try:
        rho_new, xi_new, n_iters, n_res = step_rho(state, state.mu, cfg, laws)
    except ArithmeticError as exc:
        raise StepFailure(f"arithmetic failure in the rho stage: {exc}",
                          math.nan) from exc
    dt_rho = ScalarField(state.grid,
                         (rho_new.values - state.rho.values) / cfg.tau)
    try:
        mu_new, cg_iters, cg_res = step_mu(state, rho_new, dt_rho, cfg, laws)
    except ArithmeticError as exc:
        raise StepFailure(f"arithmetic failure in the mu stage: {exc}",
                          math.nan) from exc
    new_state = SimState(t=state.t + cfg.tau, mu=mu_new, rho=rho_new,
                         xi=xi_new, dt_rho=dt_rho)
    report = StepReport(
        newton_iters=n_iters, newton_residual=n_res,
        linear_iters=cg_iters, linear_residual=cg_res,
        min_mu=mu_new.min(), max_mu=mu_new.max(),
        rho_range=(rho_new.min(), rho_new.max()),
    )
    return new_state, report


def validate_initial_data(mu0: ScalarField, rho0: ScalarField, cfg: SolverConfig,
                          laws: Laws) -> None:
    """Machine check of the data hypotheses before any stepping."""
    if mu0.grid != rho0.grid:
        raise ValidationError("mu0 and rho0 live on different grids")
    for name, f in (("mu0", mu0), ("rho0", rho0)):
        if not np.all(np.isfinite(f.values)):
            raise ValidationError(f"{name} has non-finite values")
    if mu0.min() < 0.0:
        raise ValidationError(
            f"violates (hpzero): mu0 has negative values (min {mu0.min():g})")
    if rho0.min() < 0.0 or rho0.max() > 1.0:
        raise ValidationError(
            f"violates (hpzero): rho0 leaves the closed constraint interval "
            f"[0, 1] (range [{rho0.min():g}, {rho0.max():g}])")
    # the initial E_mu as the ledgers form it: data whose energy a double
    # cannot hold overflow in the first step's arithmetic
    with np.errstate(over="ignore"):
        energy = 0.5 * mu0.grid.cell_volume * float(
            np.sum(mu_weight(cfg, laws, rho0.values) * mu0.values ** 2))
    if not math.isfinite(energy):
        raise ValidationError(
            f"the initial energy E_mu = 0.5 int (eps + 2 g(rho0)) mu0^2 is "
            f"not finite (max mu0 {mu0.max():g})")
    if cfg.n_steps > 0 and cfg.tau > laws.mobility.kappa_sup:
        raise ValidationError(
            f"violates the smallness assumption tau <= kappa_sup: "
            f"tau = {cfg.tau:g}, kappa_sup = {laws.mobility.kappa_sup:g}")
    # the clamp's rho-stage Jacobian diagonal inside [0, 1] where g'' = 0,
    # in the stage's own floats; at 0, J = -L annihilates constants
    if (cfg.n_steps > 0 and isinstance(laws.graph, ClampIndicator)
            and cfg.delta / cfg.tau
            + float(laws.potential.f2_second(0.0)) == 0.0):
        raise ValidationError(
            f"violates delta/tau != 2 alpha2 for the clamp potential: the "
            f"rho-stage Jacobian is singular inside [0, 1] "
            f"(delta/tau = {cfg.delta / cfg.tau:g} = 2 alpha2)")


def initial_state(mu0: ScalarField, rho0: ScalarField, cfg: SolverConfig,
                  laws: Laws) -> SimState:
    """Initial snapshot; xi0 realizes the selection hypothesis (hprhozbis)
    through the Yosida value at rho0 (exactly a selection for the clamp graph)."""
    xi0 = ScalarField(rho0.grid, yosida_array(laws.graph, cfg.yosida_lambda,
                                              rho0.values))
    zeros = field_of(rho0.grid, 0.0)
    return SimState(t=0.0, mu=mu0, rho=rho0, xi=xi0, dt_rho=zeros)


def iterate(cfg: SolverConfig, laws: Laws, initial):
    """The run as it lands: an iterator of ``(state, report)`` for the
    initial state (report ``None``) and then for each of the N steps.

    Data hypotheses are checked here, before any step; a stage failure
    raises :class:`SolverFailure` from the iterator.  Each step needs only
    the state before it, so nothing older is held.
    """
    mu0, rho0 = initial
    validate_initial_data(mu0, rho0, cfg, laws)
    return _advance(initial_state(mu0, rho0, cfg, laws), cfg, laws)


def _advance(state: SimState, cfg: SolverConfig, laws: Laws):
    yield state, None
    for n in range(1, cfg.n_steps + 1):
        try:
            state, report = step(state, cfg, laws)
        except StepFailure as exc:
            raise SolverFailure(f"run aborted at t = {state.t:g}: {exc}",
                                n, state.t) from exc
        yield state, report


def run(cfg: SolverConfig, laws: Laws, initial) -> Trajectory:
    """Integrate N steps from (mu0, rho0); pure function of its inputs.

    Collects :func:`iterate`; a stage failure raises its
    :class:`SolverFailure`.
    """
    traj = Trajectory([], cfg=cfg)
    for state, report in iterate(cfg, laws, initial):
        traj.states.append(state)
        if report is not None:
            traj.reports.append(report)
    return traj
