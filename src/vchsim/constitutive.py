"""Nonlinear material laws of the phase segregation system.

Three law families live here:

* monotone graphs ``beta`` (subdifferentials of the convex potential part)
  together with their resolvents and Yosida regularizations,
* the free-energy potential ``f = f1 + f2`` with the smooth derivative
  ``pi = f2'``,
* the chemical-potential/order-parameter coupling ``g`` and the mobility
  family ``kappa`` with its antiderivative ``K`` (Kirchhoff transform) and
  floored variant ``K_tau``.

All law objects are immutable after construction and their evaluations are
pure, so they can be shared freely between concurrent runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np


# ---------------------------------------------------------------------------
# monotone graphs


@dataclass(frozen=True)
class ClampIndicator:
    """Subdifferential of the indicator of [a, b].

    Vertical segments at the endpoints; zero inside.  The resolvent is the
    projection onto [a, b] for every step size.
    """

    a: float = 0.0
    b: float = 1.0

    @property
    def domain(self) -> tuple:
        return (self.a, self.b)

    def resolvent_array(self, lam: float, y: np.ndarray) -> np.ndarray:
        return np.clip(y, self.a, self.b)

    def yosida_derivative(self, lam: float, r: np.ndarray,
                          p: np.ndarray) -> np.ndarray:
        """Derivative of the Yosida regularization at ``r``.  ``p`` (the
        resolvent at ``r``) keeps the signature of :class:`LogGraph`; the
        clamp needs only ``r``."""
        outside = (r < self.a) | (r > self.b)
        return np.where(outside, 1.0 / lam, 0.0)


@dataclass(frozen=True)
class LogGraph:
    """Logarithmic graph beta(r) = alpha1 * ln((r - a)/(b - r)) on (a, b).

    Single valued on the open interval, blowing up at the endpoints; the
    effective domain is open, its closure [a, b].
    """

    alpha1: float = 1.0
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if not self.alpha1 > 0:
            raise ValueError(f"alpha1 must be positive for the log potential, "
                             f"got {self.alpha1}")
        if not self.a < self.b:
            raise ValueError("need a < b")

    @property
    def domain(self) -> tuple:
        return (self.a, self.b)

    def value(self, r):
        r = np.asarray(r, dtype=float)
        return self.alpha1 * np.log((r - self.a) / (self.b - r))

    def resolvent_array(self, lam: float, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        a, b, c = self.a, self.b, lam * self.alpha1

        def F(r):
            return r + c * np.log((r - a) / (b - r)) - y

        width = b - a
        # start the bracket a hair inside the interval, where F tends to
        # -inf / +inf; at least one ulp inside, so that F and F' stay finite
        # at both ends (b - width * 1e-17 rounds to b = 1)
        lo = max(a + width * 1e-17, math.nextafter(a, b)) + np.zeros_like(y)
        hi = min(b - width * 1e-17, math.nextafter(b, a)) + np.zeros_like(y)
        r = np.clip(y, a + 0.25 * width, b - 0.25 * width)
        tol = 1e-13 * np.maximum(1.0, np.abs(y))
        for _ in range(120):
            f = F(r)
            done = np.abs(f) <= tol
            bracket_tiny = (hi - lo) <= 4e-16 * width
            if np.all(done | bracket_tiny):
                break
            lo = np.where(f < 0, np.maximum(lo, r), lo)
            hi = np.where(f > 0, np.minimum(hi, r), hi)
            fprime = 1.0 + c * (1.0 / (r - a) + 1.0 / (b - r))
            step = f / fprime
            r_new = r - step
            bad = (r_new <= lo) | (r_new >= hi) | ~np.isfinite(r_new)
            r = np.where(bad, 0.5 * (lo + hi), r_new)
        return r

    def yosida_derivative(self, lam: float, r: np.ndarray,
                          p: np.ndarray) -> np.ndarray:
        """Derivative of the Yosida regularization at ``r``, read off the
        resolvent ``p = resolvent_array(lam, r)``: beta'(p) / (1 + lam beta'(p))."""
        bprime = self.alpha1 * (1.0 / (p - self.a) + 1.0 / (self.b - p))
        return bprime / (1.0 + lam * bprime)


MonotoneGraph = ClampIndicator | LogGraph


def yosida_array(graph: MonotoneGraph, lam: float, r: np.ndarray) -> np.ndarray:
    """Yosida regularization beta_lam(r) = (r - resolvent(r))/lam, lam > 0:
    monotone and Lipschitz with 1/lam; for the clamp graph it is a selection
    of beta at the resolvent."""
    r = np.asarray(r, dtype=float)
    return (r - graph.resolvent_array(lam, r)) / lam


# ---------------------------------------------------------------------------
# potentials


def _xlogx(x: np.ndarray) -> np.ndarray:
    # continuous extension 0*ln(0) = 0
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = x[pos] * np.log(x[pos])
    return out


@dataclass(frozen=True)
class Potential:
    """Split potential f = f1 + f2 with graph beta = subdifferential of f1."""

    graph: MonotoneGraph
    f1_value: Callable[[np.ndarray], np.ndarray]
    f2_value: Callable[[np.ndarray], np.ndarray]
    f2_prime: Callable[[np.ndarray], np.ndarray]
    f2_second: Callable[[np.ndarray], np.ndarray]


def make_clamp_potential(alpha2: float = 2.0, a: float = 0.0, b: float = 1.0) -> Potential:
    """Obstacle-type potential: f1 the indicator of [a, b], f2 = alpha2 r(1-r)."""

    def f1(r):
        r = np.asarray(r, dtype=float)
        return np.where((r >= a) & (r <= b), 0.0, np.inf)

    return Potential(
        graph=ClampIndicator(a, b),
        f1_value=f1,
        f2_value=lambda r: alpha2 * np.asarray(r) * (1.0 - np.asarray(r)),
        f2_prime=lambda r: alpha2 * (1.0 - 2.0 * np.asarray(r)),
        f2_second=lambda r: -2.0 * alpha2 * np.ones_like(np.asarray(r, dtype=float)),
    )


def make_log_potential(alpha1: float = 0.5, alpha2: float = 2.0) -> Potential:
    """Logarithmic two-well potential on [0, 1].

    The entropy part carries an additive constant alpha1*ln(2) so that f1 is
    nonnegative with minimum 0 at r = 1/2; shifting between f1 and f2 by a
    constant changes nothing downstream.  Whether the total is convex or a
    two-well depends on alpha1 vs 2*alpha2.
    """

    shift = alpha1 * math.log(2.0)

    def f1(r):
        r = np.asarray(r, dtype=float)
        inside = (r >= 0.0) & (r <= 1.0)
        vals = alpha1 * (_xlogx(np.clip(r, 0.0, 1.0))
                         + _xlogx(1.0 - np.clip(r, 0.0, 1.0))) + shift
        return np.where(inside, vals, np.inf)

    return Potential(
        graph=LogGraph(alpha1, 0.0, 1.0),
        f1_value=f1,
        f2_value=lambda r: alpha2 * np.asarray(r) * (1.0 - np.asarray(r)),
        f2_prime=lambda r: alpha2 * (1.0 - 2.0 * np.asarray(r)),
        f2_second=lambda r: -2.0 * alpha2 * np.ones_like(np.asarray(r, dtype=float)),
    )


def f_total(potential: Potential, r) -> float:
    """f1(r) + f2(r); +inf outside the effective domain of f1."""
    r = np.asarray(r, dtype=float)
    v1 = potential.f1_value(r)
    out = np.where(np.isinf(v1), np.inf, v1 + potential.f2_value(r))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# coupling law


@dataclass(frozen=True)
class CouplingLaw:
    """Coupling g >= 0 on the constraint interval, with g' and g''."""

    g: Callable[[np.ndarray], np.ndarray]
    g_prime: Callable[[np.ndarray], np.ndarray]
    g_second: Callable[[np.ndarray], np.ndarray]


_SMOOTH_W = 0.1  # width of the C2 blend between the flat and linear branches


def _blend(s: np.ndarray) -> np.ndarray:
    # quintic with p(0)=p'(0)=p''(0)=0, p(1)=p'(1)=1, p''(1)=0; 0 <= p <= s
    return s ** 3 * (6.0 - 8.0 * s + 3.0 * s * s)


def _blend_d1(s: np.ndarray) -> np.ndarray:
    return s * s * (18.0 - 32.0 * s + 15.0 * s * s)


def _blend_d2(s: np.ndarray) -> np.ndarray:
    return s * (36.0 - 96.0 * s + 60.0 * s * s)


def make_linear_coupling() -> CouplingLaw:
    """g(r) = r, continued so it stays nonnegative and C2 on all of R.

    Below 0 the value is held at 0; the kink this would create at the origin
    is blended over the width 0.1 (a nonnegative C2 function cannot leave 0
    with slope 1, so the blend necessarily eats into [0, 0.1]).  On [0.1, 1]
    and beyond, g(r) = r exactly.
    """

    w = _SMOOTH_W

    def g(r):
        r = np.asarray(r, dtype=float)
        s = np.clip(r / w, 0.0, 1.0)
        return np.where(r <= 0.0, 0.0, np.where(r >= w, r, w * _blend(s)))

    def gp(r):
        r = np.asarray(r, dtype=float)
        s = np.clip(r / w, 0.0, 1.0)
        return np.where(r <= 0.0, 0.0, np.where(r >= w, 1.0, _blend_d1(s)))

    def gpp(r):
        r = np.asarray(r, dtype=float)
        s = np.clip(r / w, 0.0, 1.0)
        return np.where((r <= 0.0) | (r >= w), 0.0, _blend_d2(s) / w)

    return CouplingLaw(g, gp, gpp)


def make_constant_coupling(g0: float = 0.0) -> CouplingLaw:
    """g identically g0 >= 0; decouples the two equations (g' = 0)."""
    if g0 < 0:
        raise ValueError(
            f"violates (hpfg): the coupling must be nonnegative, g0 = {g0}")

    def const(r):
        return np.full_like(np.asarray(r, dtype=float), g0)

    def zero(r):
        return np.zeros_like(np.asarray(r, dtype=float))

    return CouplingLaw(const, zero, zero)


# ---------------------------------------------------------------------------
# mobility laws


def _ln_cosh(r: np.ndarray) -> np.ndarray:
    # overflow-safe log(cosh(r))
    r = np.abs(np.asarray(r, dtype=float))
    return r + np.log1p(np.exp(-2.0 * r)) - math.log(2.0)


@cache
def _quadrature() -> tuple:
    """Nodes ``u^4`` and weights ``4 w u^3`` of K(r) = int_0^1 kappa(r u^4)
    4 r u^3 du (the substitution s = r u^4 smooths the power law of kappa
    at the origin): a composite Gauss-Legendre rule, 24 points on each of
    8 equal panels of [0, 1]; within 1e-14 relative of adaptive quadrature
    for m in [1.05, 4] and r in [1e-8, 100].  Built on first use, since
    only the quadrature K needs numpy.polynomial; cached and read-only."""
    x, wx = np.polynomial.legendre.leggauss(24)
    u = ((np.arange(8)[:, None] + 0.5 * (x + 1.0)) / 8).ravel()
    u4, wu3 = u ** 4, 4.0 * np.tile(wx / 16.0, 8) * u ** 3
    u4.flags.writeable = wu3.flags.writeable = False
    return u4, wu3


@dataclass(frozen=True)
class MobilityLaw:
    """Mobility kappa on [0, inf) with its structural constants.

    ``K`` is the vectorized antiderivative of kappa from 0 (the Kirchhoff
    transform), for nonnegative arguments.  ``kappa_sup`` bounds kappa from
    above everywhere, ``kappa_star`` bounds it from below for arguments >=
    ``r_star``; ``r_star == 0`` means uniform parabolicity, ``r_star > 0``
    admits degeneracy near the origin.
    """

    kappa: Callable[[np.ndarray], np.ndarray]
    K: Callable[[np.ndarray], np.ndarray]
    kappa_star: float
    kappa_sup: float
    r_star: float

    def __post_init__(self):
        if not (self.kappa_star > 0 and self.kappa_sup > 0):
            raise ValueError("mobility bounds must be positive")
        if self.r_star < 0:
            raise ValueError("degeneracy radius must be nonnegative")


def make_constant_mobility(kappa0: float = 1.0) -> MobilityLaw:
    if not kappa0 > 0:
        raise ValueError(
            f"violates (hpcost): kappa0 must be positive, got {kappa0}")

    def kappa(r):
        return np.full_like(np.asarray(r, dtype=float), kappa0)

    return MobilityLaw(
        kappa=kappa, K=lambda r: kappa0 * r, kappa_star=kappa0,
        kappa_sup=kappa0, r_star=0.0)


def make_tanh_power_mobility(m: float = 2.0) -> MobilityLaw:
    """Degenerate mobility kappa(r) = tanh(r^(m-1)), m > 1.

    Vanishes at the origin, so slow diffusion sets in where the potential is
    small -- the porous-medium-like regime.  For m = 2 the antiderivative is
    ln(cosh(r)) in closed form; other exponents use the fixed composite
    Gauss-Legendre rule.
    """
    if not m > 1:
        raise ValueError(
            f"violates (hpcost): tanh-power mobility needs m > 1, got {m}")

    def kappa(r):
        r = np.asarray(r, dtype=float)
        return np.tanh(np.maximum(r, 0.0) ** (m - 1.0))

    def K(r):
        u4, wu3 = _quadrature()
        return r * (kappa(np.multiply.outer(r, u4)) @ wu3)

    return MobilityLaw(
        kappa=kappa, K=_ln_cosh if m == 2.0 else K, kappa_star=math.tanh(1.0),
        kappa_sup=1.0, r_star=1.0)


def K_tau_array(mob: MobilityLaw, tau: float, r: np.ndarray) -> np.ndarray:
    """Floored Kirchhoff transform: the antiderivative of kappa(|s|) + tau,
    odd in r."""
    r = np.asarray(r, dtype=float)
    return np.sign(r) * mob.K(np.abs(r)) + tau * r


# ---------------------------------------------------------------------------
# law bundle


@dataclass(frozen=True)
class Laws:
    """The complete set of material laws a run needs."""

    potential: Potential
    coupling: CouplingLaw
    mobility: MobilityLaw

    @property
    def graph(self) -> MonotoneGraph:
        return self.potential.graph
