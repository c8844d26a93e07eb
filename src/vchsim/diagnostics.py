"""Post-hoc quantitative checks on trajectories.

The continuous theory controls the solution through a handful of energy
and dissipation estimates, a positivity/boundedness argument, and (for
constant mobility) a contraction of a rescaled potential variable.  This
module recasts each of these as a discrete, computable quantity:

* exact identities where the scheme provides them (weighted potential
  energy plus cumulative dissipation in the decoupled case),
* one-sided inequalities with explicit tolerances,
* residuals of both discrete formulations (the scheme's native one, which
  must sit at the solver tolerance, and the conservative Kirchhoff form,
  whose gap measures the first-order formulation error),
* the two-run contraction series in the rescaled variable z = mu/alpha(rho)
  with alpha(r) = (eps + 2 g(r))^(-1/2).

Everything here is pure post-processing of immutable states.  Each ledger
and the residual rows are a fold of one per-step entry over consecutive
state pairs, so the same entry serves a whole trajectory and a run
streamed step by step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constitutive import (
    ClampIndicator,
    K_tau_array,
    Laws,
    LogGraph,
    f_total,
)
from .mesh import (
    ScalarField,
    dirichlet_energy,
    div_faces,
    div_k_grad_arrays,
    field_of,
    unit_face_weights,
)
from .stepper import Trajectory, mu_system_coefficients, rho_stage_residual


# ---------------------------------------------------------------------------
# energy ledgers


@dataclass
class EnergyLedger:
    """Per-step potential-energy bookkeeping.

    ``E_mu[n]`` is the weighted energy (1/2) int (eps + 2 g(rho)) mu^2 at step
    n; ``diss`` the face dissipation tau * sum kappa_tau |grad mu|^2 of that
    step (zero at n = 0); ``extra`` the backward-Euler over-dissipation
    (1/2) int a |mu^n - mu^(n-1)|^2; ``cross`` collects the discrete coupling
    terms; ``resid = dE + diss - cross`` is nonpositive up to solver noise.
    """

    t: np.ndarray
    E_mu: np.ndarray
    diss: np.ndarray
    extra: np.ndarray
    cross: np.ndarray
    resid: np.ndarray
    diss_cum: np.ndarray
    extra_cum: np.ndarray


def mu_ledger_entry(prev, cur, cfg, laws: Laws) -> tuple:
    """One step's potential-energy terms ``(E_mu, diss, extra, cross)``
    from the states before (``prev``) and after (``cur``) it; at the
    initial state (``prev`` None) only ``E_mu`` is nonzero."""
    grid = cur.grid
    vol = grid.cell_volume

    def weight(state):
        return cfg.epsilon + 2.0 * laws.coupling.g(state.rho.values)

    a_cur = weight(cur)
    E = 0.5 * vol * float(np.sum(a_cur * cur.mu.values ** 2))
    if prev is None:
        return E, 0.0, 0.0, 0.0
    _, b_plus, b_minus, k_lag = mu_system_coefficients(
        prev.mu, cur.rho, cur.dt_rho, cfg, laws)
    diss = cfg.tau * dirichlet_energy(grid, ScalarField(grid, k_lag), cur.mu,
                                      cfg.face_average == "harmonic")
    dmu = cur.mu.values - prev.mu.values
    extra = 0.5 * vol * float(np.sum(a_cur * dmu ** 2))
    cross = (0.5 * vol * float(np.sum((a_cur - weight(prev)) * prev.mu.values ** 2))
             - cfg.tau * vol * float(np.sum(
                 (b_plus * cur.mu.values - b_minus * prev.mu.values)
                 * cur.mu.values)))
    return E, diss, extra, cross


def rho_ledger_entry(prev, cur, cfg, laws: Laws) -> tuple:
    """One step's free-energy terms ``(F_rho, visc, work)``, as
    :func:`mu_ledger_entry`; ``F_rho`` is infinite when rho escaped the
    potential domain."""
    grid = cur.grid
    vol = grid.cell_volume
    fvals = f_total(laws.potential, cur.rho.values)
    F = (np.inf if np.any(np.isinf(fvals)) else
         0.5 * dirichlet_energy(grid, field_of(grid, 1.0), cur.rho)
         + vol * float(np.sum(fvals)))
    if prev is None:
        return F, 0.0, 0.0
    visc = cfg.delta * cfg.tau * vol * float(np.sum(cur.dt_rho.values ** 2))
    work = cfg.tau * vol * float(np.sum(
        laws.coupling.g_prime(cur.rho.values) * prev.mu.values
        * cur.dt_rho.values))
    return F, visc, work


def _entries(entry, traj: Trajectory, laws: Laws) -> np.ndarray:
    """The per-step entries of a trajectory, one row per state."""
    prevs = [None, *traj.states[:-1]]
    return np.array([entry(prev, cur, traj.cfg, laws)
                     for prev, cur in zip(prevs, traj.states)])


def mu_energy_ledger(traj: Trajectory, laws: Laws) -> EnergyLedger:
    E, diss, extra, cross = _entries(mu_ledger_entry, traj, laws).T
    resid = np.diff(E, prepend=E[0]) + diss - cross
    return EnergyLedger(
        t=traj.times(), E_mu=E, diss=diss, extra=extra, cross=cross,
        resid=resid, diss_cum=np.cumsum(diss), extra_cum=np.cumsum(extra))


@dataclass
class RhoLedger:
    """Free-energy side of the order parameter.

    ``F_rho[n] = (1/2)|grad rho|^2 + int f(rho)`` (infinite if rho escaped
    the potential domain), ``visc`` the viscous dissipation
    delta * tau * int |dt_rho|^2 of the step, ``work`` the coupling work
    tau * int g'(rho) mu_delayed dt_rho with mu_delayed the previous
    step's mu, and ``violation`` the running defect of the one-sided
    energy inequality (nonpositive when the dissipation inequality holds,
    small positive values bounded by the first-order formulation gap
    otherwise).
    """

    t: np.ndarray
    F_rho: np.ndarray
    visc: np.ndarray
    work: np.ndarray
    visc_cum: np.ndarray
    work_cum: np.ndarray
    violation: np.ndarray


def rho_energy_ledger(traj: Trajectory, laws: Laws) -> RhoLedger:
    F, visc, work = _entries(rho_ledger_entry, traj, laws).T
    visc_cum = np.cumsum(visc)
    work_cum = np.cumsum(work)
    violation = F + visc_cum - F[0] - work_cum
    return RhoLedger(t=traj.times(), F_rho=F, visc=visc, work=work,
                     visc_cum=visc_cum, work_cum=work_cum,
                     violation=violation)


def boundedness_report(traj: Trajectory) -> tuple:
    """(sup over all steps and nodes of mu, sup of the initial datum)."""
    sup_q = max(s.mu.max() for s in traj.states)
    return sup_q, traj.states[0].mu.max()


# ---------------------------------------------------------------------------
# formulation residuals


@dataclass
class ResidualRows:
    """Max-norm residuals of the discrete equation forms, step by step.

    ``mu_native`` / ``rho_native`` are the forms the solvers drove to zero
    and must sit at the solver tolerances (``rho_native`` is the stage's
    own residual, :func:`rho_stage_residual`); ``mu_kirchhoff`` tests the
    conservative form (difference of the weighted potential, Kirchhoff flux
    of the current step, unsplit reaction) against localized bump fields,
    i.e. takes bump-weighted means of its strong residual, and
    ``rho_strong`` evaluates the inclusion at the committed pair -- both
    measure the first-order formulation gap.
    """

    t: np.ndarray
    mu_native: np.ndarray
    mu_kirchhoff: np.ndarray
    rho_native: np.ndarray
    rho_strong: np.ndarray


def _bump_means(r: np.ndarray) -> np.ndarray:
    """Means ``h^dim sum v r`` of node values ``r`` under discrete hat-like
    test bumps ``v`` at every 4th node in row-major order: weight 1 at the
    node and 1/2 at each stencil neighbour, scaled to unit mass
    ``h^dim sum v = 1``."""
    total = r.copy()
    weight = np.ones_like(r)
    for axis in range(r.ndim):
        # views with ``axis`` first, so the stencil shift is a leading slice
        rv, tv, wv = (np.moveaxis(a, axis, 0) for a in (r, total, weight))
        tv[:-1] += 0.5 * rv[1:]
        tv[1:] += 0.5 * rv[:-1]
        wv[:-1] += 0.5
        wv[1:] += 0.5
    return (total / weight).ravel()[::4]


def residual_entry(prev, cur, cfg, laws: Laws) -> tuple:
    """One step's max-norm residuals ``(mu_native, mu_kirchhoff,
    rho_native, rho_strong)`` from the states before (``prev``) and after
    (``cur``) it, as :func:`mu_ledger_entry`; all zero at the initial
    state (``prev`` None)."""
    if prev is None:
        return 0.0, 0.0, 0.0, 0.0
    grid = cur.grid
    graph = laws.graph
    mu_p, mu_c = prev.mu.values, cur.mu.values
    rho_c = cur.rho.values

    # native potential stage (lagged floored mobility, split reaction)
    a, b_plus, b_minus, k_lag = mu_system_coefficients(
        prev.mu, cur.rho, cur.dt_rho, cfg, laws)
    res_mu = (a * (mu_c - mu_p) / cfg.tau + b_plus * mu_c - b_minus * mu_p
              - div_k_grad_arrays(grid, k_lag, mu_c,
                                  cfg.face_average == "harmonic"))
    mu_native = float(np.max(np.abs(res_mu)))

    # conservative Kirchhoff form tested against bump fields; the form
    # is bilinear, so each test is a bump-weighted mean of the strong
    # residual (summation by parts moves the face flux onto the
    # divergence of grad K_tau, differenced before it is scaled)
    a_prev = cfg.epsilon + 2.0 * laws.coupling.g(prev.rho.values)
    dt_weighted = (a * mu_c - a_prev * mu_p) / cfg.tau
    coupling_term = mu_c * laws.coupling.g_prime(rho_c) * cur.dt_rho.values
    ktau_c = K_tau_array(laws.mobility, cfg.mobility_floor_tau, mu_c)
    strong = dt_weighted - coupling_term - div_faces(unit_face_weights(grid),
                                                     ktau_c)
    mu_kirchhoff = float(np.max(np.abs(_bump_means(strong))))

    # native order-parameter stage, the residual the Newton solve
    # stopped at: for the clamp graph the committed pair is the
    # resolvent projection of the Newton iterate, so the iterate is
    # recovered as rho + lam*xi
    rc, xi_c = rho_c.ravel(), cur.xi.values.ravel()
    rr = rc + cfg.yosida_lambda * xi_c if isinstance(graph, ClampIndicator) else rc
    rho_native = float(np.max(np.abs(rho_stage_residual(
        prev.rho, prev.mu, rr, xi_c, cfg, laws))))

    # strong inclusion at the committed pair; for the log graph the
    # committed selection is the Yosida value, so this shows the O(lam)
    # gap.  The graph is evaluated at inside nodes only (the midpoint
    # stands in elsewhere), so a node on an endpoint divides by nothing
    if isinstance(graph, LogGraph):
        inside = (rc > graph.a) & (rc < graph.b)
        midpoint = 0.5 * (graph.a + graph.b)
        xi_strong = np.where(inside, graph.value(np.where(inside, rc, midpoint)),
                             np.inf)
    else:
        xi_strong = xi_c
    rho_strong = float(np.max(np.abs(rho_stage_residual(
        prev.rho, prev.mu, rc, xi_strong, cfg, laws))))
    return mu_native, mu_kirchhoff, rho_native, rho_strong


def formulation_residuals(traj: Trajectory, laws: Laws) -> ResidualRows:
    mu_native, mu_kirchhoff, rho_native, rho_strong = _entries(
        residual_entry, traj, laws).T
    return ResidualRows(t=traj.times(), mu_native=mu_native,
                        mu_kirchhoff=mu_kirchhoff, rho_native=rho_native,
                        rho_strong=rho_strong)


# ---------------------------------------------------------------------------
# contraction metric


@dataclass
class ContractionSeries:
    """Squared gaps of two runs in the rescaled variables, step by step.

    ``z = mu * sqrt(eps + 2 g(rho))`` is the variable in which the
    constant-mobility uniqueness argument contracts; under other mobilities
    the series is still computable but has no theoretical backing.
    """

    t: np.ndarray
    z_gap: np.ndarray
    rho_gap: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.z_gap + self.rho_gap

    def growth_rate(self, tau: float):
        """Largest per-step exponential rate: max ln(m_n/m_(n-1))/tau over
        steps with positive previous metric; None if no step qualifies."""
        m = self.total
        rates = [np.log(m[n] / m[n - 1]) / tau
                 for n in range(1, len(m)) if m[n - 1] > 0 and m[n] > 0]
        return max(rates) if rates else None


def contraction_metric(trajA: Trajectory, trajB: Trajectory,
                       laws: Laws) -> ContractionSeries:
    if trajA.grid != trajB.grid:
        raise ValueError("trajectories live on different grids")
    if len(trajA) != len(trajB) or trajA.cfg != trajB.cfg:
        raise ValueError("trajectories were produced by different configurations")
    cfg = trajA.cfg
    vol = trajA.grid.cell_volume
    eps = cfg.epsilon
    n_rows = len(trajA.states)
    z_gap = np.zeros(n_rows)
    rho_gap = np.zeros(n_rows)
    for n, (sa, sb) in enumerate(zip(trajA.states, trajB.states)):
        za = sa.mu.values * np.sqrt(eps + 2.0 * laws.coupling.g(sa.rho.values))
        zb = sb.mu.values * np.sqrt(eps + 2.0 * laws.coupling.g(sb.rho.values))
        z_gap[n] = vol * float(np.sum((za - zb) ** 2))
        rho_gap[n] = vol * float(np.sum((sa.rho.values - sb.rho.values) ** 2))
    return ContractionSeries(t=trajA.times(), z_gap=z_gap, rho_gap=rho_gap)


# ---------------------------------------------------------------------------
# run summary for the series file


class SeriesFold:
    """Rows of series.csv, one per state fed in step order: the step's
    ledger entries, ranges and iteration counts, in the documented column
    order.  Only the previous state is kept, and ``diss_cum`` is a running
    sum, which adds in the order ``np.cumsum`` does."""

    def __init__(self, cfg, laws: Laws):
        self.cfg, self.laws = cfg, laws
        self.prev = None
        self.step = -1
        self.diss_cum = 0.0

    def row(self, state, report) -> dict:
        """The row of ``state``, reached by a step that reported ``report``
        (None for the initial state)."""
        E_mu, diss, _, _ = mu_ledger_entry(self.prev, state, self.cfg, self.laws)
        F_rho = rho_ledger_entry(self.prev, state, self.cfg, self.laws)[0]
        self.diss_cum += diss
        self.step += 1
        self.prev = state
        return {
            "step": self.step,
            "t": state.t,
            "E_mu": E_mu,
            "F_rho": F_rho,
            "diss_cum": self.diss_cum,
            "min_mu": state.mu.min(),
            "max_mu": state.mu.max(),
            "min_rho": state.rho.min(),
            "max_rho": state.rho.max(),
            "newton_iters": report.newton_iters if report else 0,
            "cg_iters": report.linear_iters if report else 0,
        }


def series_rows(traj: Trajectory, laws: Laws) -> list:
    """The series.csv rows of a whole trajectory."""
    fold = SeriesFold(traj.cfg, laws)
    return [fold.row(state, report)
            for state, report in zip(traj.states, [None, *traj.reports])]
