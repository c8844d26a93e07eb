"""Nonlinear material laws of the phase segregation system.

Three law families live here:

* monotone graphs ``beta`` on [0, 1], each with its convex potential part
  ``f1`` (beta is its subdifferential), its resolvents and Yosida
  regularizations,
* the free-energy potential ``f = f1 + f2`` with the smooth part
  ``f2 = alpha2 r(1 - r)`` and its derivative ``pi = f2'``,
* the chemical-potential/order-parameter coupling ``g`` and the mobility
  family ``kappa`` with its antiderivative ``K`` (Kirchhoff transform) and
  floored variant ``K_tau``.

All law objects are frozen values: immutable, equal when built from equal
parameters, and pure to evaluate, so they can be shared freely between
concurrent runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np


# ---------------------------------------------------------------------------
# monotone graphs and their convex parts


def _xlogx(x: np.ndarray) -> np.ndarray:
    # continuous extension 0*ln(0) = 0
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = x[pos] * np.log(x[pos])
    return out


@dataclass(frozen=True)
class ClampIndicator:
    """Subdifferential of the indicator of [0, 1].

    Vertical segments at the endpoints; zero inside.  The resolvent is the
    projection onto [0, 1] for every step size.
    """

    def f1(self, r):
        """The convex part: the indicator of [0, 1], 0 inside, +inf outside."""
        r = np.asarray(r, dtype=float)
        return np.where((r >= 0.0) & (r <= 1.0), 0.0, np.inf)

    def resolvent_array(self, lam: float, y: np.ndarray) -> np.ndarray:
        return np.clip(y, 0.0, 1.0)

    def yosida_derivative(self, lam: float, r: np.ndarray,
                          p: np.ndarray) -> np.ndarray:
        """Derivative of the Yosida regularization at ``r``.  ``p`` (the
        resolvent at ``r``) keeps the signature of :class:`LogGraph`; the
        clamp needs only ``r``."""
        outside = (r < 0.0) | (r > 1.0)
        return np.where(outside, 1.0 / lam, 0.0)


# Resolvent values below _R_SMALL are re-solved in the variable ln r: the
# bracket's absolute width exit cannot resolve them.  Roots below _R_MIN
# are raised to it, which keeps 1/p, and with it beta'(p), finite.
_R_SMALL = 1e-12
_R_MIN = 1e-300


@dataclass(frozen=True)
class LogGraph:
    """Logarithmic graph beta(r) = alpha1 * ln(r/(1 - r)) on (0, 1).

    Single valued on the open interval, blowing up at the endpoints; the
    effective domain is open, its closure [0, 1].
    """

    alpha1: float = 1.0

    def __post_init__(self):
        if not self.alpha1 > 0:
            raise ValueError(f"alpha1 must be positive for the log potential, "
                             f"got {self.alpha1}")

    def f1(self, r):
        """The convex part: alpha1 [r ln r + (1-r) ln(1-r)] on [0, 1], +inf
        outside.  It carries the additive constant alpha1 ln 2, so it is
        nonnegative with minimum 0 at r = 1/2; shifting a constant between
        f1 and f2 changes nothing downstream."""
        r = np.asarray(r, dtype=float)
        inside = (r >= 0.0) & (r <= 1.0)
        rc = np.clip(r, 0.0, 1.0)
        vals = self.alpha1 * (_xlogx(rc) + _xlogx(1.0 - rc))
        return np.where(inside, vals + self.alpha1 * math.log(2.0), np.inf)

    def value(self, r):
        r = np.asarray(r, dtype=float)
        return self.alpha1 * np.log(r / (1.0 - r))

    def resolvent_array(self, lam: float, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        c = lam * self.alpha1

        def F(r):
            return r + c * np.log(r / (1.0 - r)) - y

        # start the bracket a hair inside (0, 1), where F tends to -inf /
        # +inf, so that F and F' stay finite at both ends: 1e-17 above 0,
        # one ulp below 1
        lo = 1e-17 + np.zeros_like(y)
        hi = math.nextafter(1.0, 0.0) + np.zeros_like(y)
        r = np.clip(y, 0.25, 0.75)
        tol = 1e-13 * np.maximum(1.0, np.abs(y))
        for _ in range(120):
            f = F(r)
            done = np.abs(f) <= tol
            bracket_tiny = (hi - lo) <= 4e-16
            if np.all(done | bracket_tiny):
                break
            lo = np.where(f < 0, np.maximum(lo, r), lo)
            hi = np.where(f > 0, np.minimum(hi, r), hi)
            fprime = 1.0 + c * (1.0 / r + 1.0 / (1.0 - r))
            step = f / fprime
            r_new = r - step
            bad = (r_new <= lo) | (r_new >= hi) | ~np.isfinite(r_new)
            r = np.where(bad, 0.5 * (lo + hi), r_new)
        small = r < _R_SMALL
        if np.any(small):
            r[small] = self._small_root(c, y[small])
        return r

    @staticmethod
    def _small_root(c: float, y: np.ndarray) -> np.ndarray:
        """The root below _R_SMALL of r + c ln(r/(1 - r)) = y, by Newton in
        s = ln r on G(s) = e^s + c (s - ln(1 - e^s)) - y, raised to _R_MIN.
        G is convex and increasing, so from s = ln _R_SMALL, right of the
        root, the iterates fall monotonically onto it."""
        s = np.full_like(y, math.log(_R_SMALL))
        for _ in range(100):
            e = np.exp(s)
            s_prev, s = s, np.maximum(
                s - (e + c * (s - np.log1p(-e)) - y) / (e + c / (1.0 - e)),
                math.log(_R_MIN))
            if np.all(np.abs(s - s_prev) <= 4e-16 * np.abs(s)):
                break
        return np.exp(s)

    def yosida_derivative(self, lam: float, r: np.ndarray,
                          p: np.ndarray) -> np.ndarray:
        """Derivative of the Yosida regularization at ``r``, read off the
        resolvent ``p = resolvent_array(lam, r)``: beta'(p) / (1 + lam beta'(p))."""
        bprime = self.alpha1 * (1.0 / p + 1.0 / (1.0 - p))
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


@dataclass(frozen=True)
class Potential:
    """Split potential f = f1 + f2 on [0, 1]: f1 the convex part of
    ``graph`` (beta = its subdifferential), f2 = alpha2 r(1 - r) the smooth
    part, pi = f2'.  Whether the log potential's total is convex or a
    two-well depends on alpha1 vs 2 alpha2."""

    graph: MonotoneGraph
    alpha2: float

    def f2_prime(self, r):
        return self.alpha2 * (1.0 - 2.0 * np.asarray(r))

    def f2_second(self, r):
        return -2.0 * self.alpha2 * np.ones_like(np.asarray(r, dtype=float))

    def envelope(self, lam: float, r, p):
        """The Moreau envelope e_lam(r) = f1(p) + (r - p)^2 / (2 lam) of the
        convex part, read off the resolvent ``p = resolvent_array(lam, r)``:
        finite everywhere, with derivative the Yosida value (r - p)/lam."""
        return self.graph.f1(p) + (r - p) ** 2 / (2.0 * lam)


# ---------------------------------------------------------------------------
# coupling laws


_SMOOTH_W = 0.1  # width of the C2 blend between the flat and linear branches


def _blend(s: np.ndarray) -> np.ndarray:
    # quintic with p(0)=p'(0)=p''(0)=0, p(1)=p'(1)=1, p''(1)=0; 0 <= p <= s
    return s ** 3 * (6.0 - 8.0 * s + 3.0 * s * s)


def _blend_d1(s: np.ndarray) -> np.ndarray:
    return s * s * (18.0 - 32.0 * s + 15.0 * s * s)


def _blend_d2(s: np.ndarray) -> np.ndarray:
    return s * (36.0 - 96.0 * s + 60.0 * s * s)


@dataclass(frozen=True)
class LinearCoupling:
    """g(r) = r, continued so it stays nonnegative and C2 on all of R.

    Below 0 the value is held at 0; the kink this would create at the origin
    is blended over the width 0.1 (a nonnegative C2 function cannot leave 0
    with slope 1, so the blend necessarily eats into [0, 0.1]).  On [0.1, 1]
    and beyond, g(r) = r exactly.
    """

    def g(self, r):
        r = np.asarray(r, dtype=float)
        s = np.clip(r / _SMOOTH_W, 0.0, 1.0)
        return np.where(r <= 0.0, 0.0,
                        np.where(r >= _SMOOTH_W, r, _SMOOTH_W * _blend(s)))

    def g_prime(self, r):
        r = np.asarray(r, dtype=float)
        s = np.clip(r / _SMOOTH_W, 0.0, 1.0)
        return np.where(r <= 0.0, 0.0,
                        np.where(r >= _SMOOTH_W, 1.0, _blend_d1(s)))

    def g_second(self, r):
        r = np.asarray(r, dtype=float)
        s = np.clip(r / _SMOOTH_W, 0.0, 1.0)
        return np.where((r <= 0.0) | (r >= _SMOOTH_W), 0.0,
                        _blend_d2(s) / _SMOOTH_W)


@dataclass(frozen=True)
class ConstantCoupling:
    """g identically g0 >= 0; decouples the two equations (g' = 0)."""

    g0: float = 0.0

    def __post_init__(self):
        if self.g0 < 0:
            raise ValueError(f"violates (hpfg): the coupling must be "
                             f"nonnegative, g0 = {self.g0}")

    def g(self, r):
        return np.full_like(np.asarray(r, dtype=float), self.g0)

    def g_prime(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))

    g_second = g_prime


Coupling = LinearCoupling | ConstantCoupling


# ---------------------------------------------------------------------------
# mobility laws
#
# A mobility kappa on [0, inf) carries ``K``, the vectorized antiderivative
# of kappa from 0 (the Kirchhoff transform) for nonnegative arguments, and
# its structural constants: ``kappa_sup`` bounds kappa from above
# everywhere, ``kappa_star`` bounds it from below for arguments >=
# ``r_star``; ``r_star == 0`` means uniform parabolicity, ``r_star > 0``
# admits degeneracy near the origin.


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
class ConstantMobility:
    """kappa identically kappa0 > 0: uniformly parabolic, K(r) = kappa0 r."""

    kappa0: float = 1.0
    r_star = 0.0

    def __post_init__(self):
        if not self.kappa0 > 0:
            raise ValueError(f"violates (hpcost): kappa0 must be positive, "
                             f"got {self.kappa0}")

    @property
    def kappa_star(self) -> float:
        return self.kappa0

    @property
    def kappa_sup(self) -> float:
        return self.kappa0

    def kappa(self, r):
        return np.full_like(np.asarray(r, dtype=float), self.kappa0)

    def K(self, r):
        return self.kappa0 * r


@dataclass(frozen=True)
class TanhPowerMobility:
    """Degenerate mobility kappa(r) = tanh(r^(m-1)), m > 1.

    Vanishes at the origin, so slow diffusion sets in where the potential is
    small -- the porous-medium-like regime.  For m = 2 the antiderivative is
    ln(cosh(r)) in closed form; other exponents use the fixed composite
    Gauss-Legendre rule.
    """

    m: float = 2.0
    kappa_star = math.tanh(1.0)
    kappa_sup = 1.0
    r_star = 1.0

    def __post_init__(self):
        if not self.m > 1:
            raise ValueError(f"violates (hpcost): tanh-power mobility needs "
                             f"m > 1, got {self.m}")

    def kappa(self, r):
        r = np.asarray(r, dtype=float)
        return np.tanh(np.maximum(r, 0.0) ** (self.m - 1.0))

    def K(self, r):
        if self.m == 2.0:
            return _ln_cosh(r)
        u4, wu3 = _quadrature()
        return r * (self.kappa(np.multiply.outer(r, u4)) @ wu3)


# the name perfbench/traced.py builds its mobility with
make_tanh_power_mobility = TanhPowerMobility

Mobility = ConstantMobility | TanhPowerMobility


def K_tau_array(mob: Mobility, tau: float, r: np.ndarray) -> np.ndarray:
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
    coupling: Coupling
    mobility: Mobility

    @property
    def graph(self) -> MonotoneGraph:
        return self.potential.graph
