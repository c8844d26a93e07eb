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

Everything here is pure post-processing of immutable states.  One per-step
entry computes a step's ledger terms (and, on request, its residuals) from
consecutive states, and one fold turns the entries into rows with running
sums.  series.csv, report.csv and :func:`ledger_columns` (a whole
trajectory's columns) are all read off those rows, so a whole trajectory
and a run streamed step by step get the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .constitutive import ClampIndicator, K_tau_array, Laws, LogGraph
from .mesh import dirichlet_energy, div_faces, face_weights, unit_face_weights
from .stepper import (
    Trajectory,
    mu_system_coefficients,
    mu_weight,
    rho_stage_residual,
)

SERIES_COLUMNS = ("step", "t", "E_mu", "F_rho", "diss_cum", "min_mu", "max_mu",
                  "min_rho", "max_rho", "newton_iters", "cg_iters")

RESIDUAL_COLUMNS = ("res_mu_native", "res_mu_kirchhoff", "res_rho_native",
                    "res_rho_strong")

REPORT_COLUMNS = ("step", "t", "E_mu", "diss", "extra", "cross", "mu_energy_resid",
                  "F_rho", "visc_cum", "work_cum", "rho_violation",
                  "min_mu", "max_mu", *RESIDUAL_COLUMNS)


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


# ---------------------------------------------------------------------------
# the per-step entry


def step_entry(prev, cur, a_prev, cfg, laws: Laws, residuals=False) -> tuple:
    """One step's ledger terms from the states before (``prev``) and after
    (``cur``) it, and the weight ``a = eps + 2 g(rho)`` of ``cur``, which is
    the next step's ``a_prev``.  Returns ``(terms, a)``.

    ``terms`` maps E_mu, diss, extra, cross (potential energy) and F_rho,
    visc, work (free energy) to floats, and with ``residuals`` also the four
    max-norm residuals of :data:`RESIDUAL_COLUMNS`.  At the initial state
    (``prev`` None) only ``E_mu`` and ``F_rho`` are nonzero.  ``F_rho`` is
    infinite when rho escaped the potential domain.  The potential stage's
    coefficient fields and face weights are formed once and serve the
    ledger and the residuals alike.
    """
    grid = cur.grid
    vol = grid.cell_volume
    mu_c, rho_c = cur.mu.values, cur.rho.values
    if prev is None:
        a = mu_weight(cfg, laws, rho_c)
    else:
        a, b_plus, b_minus, k_lag = mu_system_coefficients(
            prev.mu, cur.rho, cur.dt_rho, cfg, laws)
    fvals = laws.potential.value(rho_c)
    terms = {
        "E_mu": 0.5 * vol * float(np.sum(a * mu_c ** 2)),
        "F_rho": (np.inf if np.any(np.isinf(fvals)) else
                  0.5 * dirichlet_energy(grid, unit_face_weights(grid), cur.rho)
                  + vol * float(np.sum(fvals))),
    }
    if prev is None:
        zero = ("diss", "extra", "cross", "visc", "work",
                *(RESIDUAL_COLUMNS if residuals else ()))
        return {**terms, **dict.fromkeys(zero, 0.0)}, a
    mu_p, dt_rho = prev.mu.values, cur.dt_rho.values
    weights = face_weights(grid, k_lag)
    terms["diss"] = cfg.tau * dirichlet_energy(grid, weights, cur.mu)
    terms["extra"] = 0.5 * vol * float(np.sum(a * (mu_c - mu_p) ** 2))
    terms["cross"] = (0.5 * vol * float(np.sum((a - a_prev) * mu_p ** 2))
                      - cfg.tau * vol * float(np.sum(
                          (b_plus * mu_c - b_minus * mu_p) * mu_c)))
    terms["visc"] = cfg.delta * cfg.tau * vol * float(np.sum(dt_rho ** 2))
    terms["work"] = cfg.tau * vol * float(np.sum(
        laws.coupling.g_prime(rho_c) * mu_p * dt_rho))
    if not residuals:
        return terms, a

    # native potential stage (lagged floored mobility, split reaction)
    res_mu = (a * (mu_c - mu_p) / cfg.tau + b_plus * mu_c - b_minus * mu_p
              - div_faces(weights, mu_c))
    terms["res_mu_native"] = float(np.max(np.abs(res_mu)))

    # conservative Kirchhoff form tested against bump fields; the form
    # is bilinear, so each test is a bump-weighted mean of the strong
    # residual (summation by parts moves the face flux onto the
    # divergence of grad K_tau, differenced before it is scaled)
    dt_weighted = (a * mu_c - a_prev * mu_p) / cfg.tau
    coupling_term = mu_c * laws.coupling.g_prime(rho_c) * dt_rho
    ktau_c = K_tau_array(laws.mobility, cfg.mobility_floor_tau, mu_c)
    strong = dt_weighted - coupling_term - div_faces(unit_face_weights(grid),
                                                     ktau_c)
    terms["res_mu_kirchhoff"] = float(np.max(np.abs(_bump_means(strong))))

    # native order-parameter stage, the residual the Newton solve
    # stopped at: for the clamp graph the committed pair is the
    # resolvent projection of the Newton iterate, so the iterate is
    # recovered as rho + lam*xi
    graph = laws.graph
    rc, xi_c = rho_c.ravel(), cur.xi.values.ravel()
    rr = rc + cfg.yosida_lambda * xi_c if isinstance(graph, ClampIndicator) else rc
    terms["res_rho_native"] = float(np.max(np.abs(rho_stage_residual(
        prev.rho, prev.mu, rr, xi_c, cfg, laws))))

    # strong inclusion at the committed pair; for the log graph the
    # committed selection is the Yosida value, so this shows the O(lam)
    # gap.  The graph is evaluated at inside nodes only (the midpoint
    # stands in elsewhere), so a node on an endpoint divides by nothing
    if isinstance(graph, LogGraph):
        inside = (rc > 0.0) & (rc < 1.0)
        xi_strong = np.where(inside, graph.value(np.where(inside, rc, 0.5)),
                             np.inf)
    else:
        xi_strong = xi_c
    terms["res_rho_strong"] = float(np.max(np.abs(rho_stage_residual(
        prev.rho, prev.mu, rc, xi_strong, cfg, laws))))
    return terms, a


# ---------------------------------------------------------------------------
# the ledger fold and its collectors


class LedgerFold:
    """The ledger rows of a run, one per state fed in step order.

    A row holds the step's terms (:func:`step_entry`), the running values
    ``diss_cum``, ``extra_cum``, ``visc_cum``, ``work_cum``,
    ``mu_energy_resid = (E_n - E_(n-1)) + diss - cross`` and
    ``rho_violation = F_rho + visc_cum - F_rho(0) - work_cum``, the ranges
    of mu and rho, and the step's iteration counts; series.csv takes
    :data:`SERIES_COLUMNS` of it and report.csv :data:`REPORT_COLUMNS`
    (which need ``residuals``).  Only the previous state and its weight are
    kept, and the cumulative values are running sums, which add in the
    order ``np.cumsum`` does.
    """

    def __init__(self, cfg, laws: Laws, residuals=False):
        self.cfg, self.laws, self.residuals = cfg, laws, residuals
        self.prev = self.a = self.E_prev = self.F_0 = None
        self.step = -1
        self.cum = dict.fromkeys(("diss", "extra", "visc", "work"), 0.0)

    def row(self, state, report=None) -> dict:
        """The row of ``state``, reached by a step that reported ``report``
        (None for the initial state and for stored states)."""
        terms, a = step_entry(self.prev, state, self.a, self.cfg, self.laws,
                              self.residuals)
        if self.prev is None:
            self.E_prev, self.F_0 = terms["E_mu"], terms["F_rho"]
        for name in self.cum:
            self.cum[name] += terms[name]
        self.step += 1
        row = {
            "step": self.step, "t": state.t, **terms,
            **{f"{name}_cum": value for name, value in self.cum.items()},
            "mu_energy_resid": ((terms["E_mu"] - self.E_prev) + terms["diss"]
                                - terms["cross"]),
            "rho_violation": (terms["F_rho"] + self.cum["visc"] - self.F_0
                              - self.cum["work"]),
            "min_mu": state.mu.min(), "max_mu": state.mu.max(),
            "min_rho": state.rho.min(), "max_rho": state.rho.max(),
            "newton_iters": report.newton_iters if report else 0,
            "cg_iters": report.linear_iters if report else 0,
        }
        self.prev, self.a, self.E_prev = state, a, terms["E_mu"]
        return row


def _fold(traj: Trajectory, laws: Laws, residuals=False) -> list:
    """The fold's rows over a whole trajectory."""
    fold = LedgerFold(traj.cfg, laws, residuals)
    return [fold.row(state, report) for state, report
            in zip_longest(traj.states, [None, *traj.reports])]


def ledger_columns(traj: Trajectory, laws: Laws) -> dict:
    """The fold's rows over a whole trajectory, residuals included, as one
    array per row key: the column names report.csv and series.csv print,
    and the step terms ``visc``, ``work`` and the running ``extra_cum``."""
    rows = _fold(traj, laws, residuals=True)
    return {key: np.array([row[key] for row in rows]) for key in rows[0]}


# no command calls these names; perfbench/traced.py wraps them by name
mu_energy_ledger = rho_energy_ledger = formulation_residuals = ledger_columns


def series_rows(traj: Trajectory, laws: Laws) -> list:
    """The series.csv rows of a whole trajectory."""
    return [{name: row[name] for name in SERIES_COLUMNS}
            for row in _fold(traj, laws)]


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
    n_rows = len(trajA.states)
    z_gap = np.zeros(n_rows)
    rho_gap = np.zeros(n_rows)
    for n, (sa, sb) in enumerate(zip(trajA.states, trajB.states)):
        za = sa.mu.values * np.sqrt(mu_weight(cfg, laws, sa.rho.values))
        zb = sb.mu.values * np.sqrt(mu_weight(cfg, laws, sb.rho.values))
        z_gap[n] = vol * float(np.sum((za - zb) ** 2))
        rho_gap[n] = vol * float(np.sum((sa.rho.values - sb.rho.values) ** 2))
    return ContractionSeries(t=trajA.times(), z_gap=z_gap, rho_gap=rho_gap)


