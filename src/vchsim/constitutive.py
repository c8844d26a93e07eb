"""Nonlinear material laws of the phase segregation system.

Three law families live here:

* monotone graphs ``beta`` (subdifferentials of the convex potential part)
  together with their resolvents and Yosida regularizations,
* the free-energy potential ``f = f1 + f2`` with the smooth derivative
  ``pi = f2'``,
* the chemical-potential/order-parameter coupling ``g`` and the mobility
  family ``kappa`` with its antiderivative ``K`` (Kirchhoff transform),
  floored variant ``K_tau``, inverse, and the globally Lipschitz extension
  ``K_star`` of the inverse.

All law objects are immutable after construction and their evaluations are
pure, so they can be shared freely between concurrent runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad


class ResolventError(RuntimeError):
    """Root finder for a resolvent failed; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


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

    def yosida_derivative(self, lam: float, r: np.ndarray) -> np.ndarray:
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
            raise ValueError("alpha1 must be positive")
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
        # start the bracket a hair inside the interval; F -> -inf / +inf there
        lo = a + width * 1e-17 + np.zeros_like(y)
        hi = b - width * 1e-17 + np.zeros_like(y)
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

    def yosida_derivative(self, lam: float, r: np.ndarray) -> np.ndarray:
        res = self.resolvent_array(lam, np.asarray(r, dtype=float))
        bprime = self.alpha1 * (1.0 / (res - self.a) + 1.0 / (self.b - res))
        return bprime / (1.0 + lam * bprime)


@dataclass(frozen=True)
class SmoothGraph:
    """Monotone single-valued graph given by a callable with Lipschitz slope."""

    fn: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]

    @property
    def domain(self) -> tuple:
        return (-math.inf, math.inf)

    def resolvent_array(self, lam: float, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)

        def F(r):
            return r + lam * self.fn(r) - y

        lo = y - 1.0 + np.zeros_like(y)
        hi = y + 1.0 + np.zeros_like(y)
        for _ in range(200):
            grow_lo = F(lo) > 0
            grow_hi = F(hi) < 0
            if not (np.any(grow_lo) or np.any(grow_hi)):
                break
            span = hi - lo
            lo = np.where(grow_lo, lo - span, lo)
            hi = np.where(grow_hi, hi + span, hi)
        else:
            raise ResolventError("could not bracket resolvent root", math.inf)
        r = 0.5 * (lo + hi)
        tol = 1e-13 * np.maximum(1.0, np.abs(y))
        f = F(r)
        for _ in range(200):
            f = F(r)
            if np.all(np.abs(f) <= tol):
                return r
            lo = np.where(f < 0, np.maximum(lo, r), lo)
            hi = np.where(f > 0, np.minimum(hi, r), hi)
            fprime = 1.0 + lam * self.derivative(r)
            r_new = r - f / fprime
            bad = (r_new <= lo) | (r_new >= hi) | ~np.isfinite(r_new)
            r = np.where(bad, 0.5 * (lo + hi), r_new)
        raise ResolventError("resolvent Newton did not converge",
                             float(np.max(np.abs(f))))

    def yosida_derivative(self, lam: float, r: np.ndarray) -> np.ndarray:
        res = self.resolvent_array(lam, np.asarray(r, dtype=float))
        bprime = np.asarray(self.derivative(res), dtype=float)
        return bprime / (1.0 + lam * bprime)


MonotoneGraph = ClampIndicator | LogGraph | SmoothGraph


def resolvent(graph: MonotoneGraph, lam: float, y: float) -> float:
    """The unique r with r + lam*beta(r) containing y (nonexpansive in y)."""
    if not lam > 0:
        raise ValueError("resolvent step must be positive")
    return float(graph.resolvent_array(lam, np.asarray(float(y))))


def graph_select(graph: MonotoneGraph, lam: float, y: float) -> float:
    """Selection (y - resolvent)/lam; lies in beta(resolvent(y)) for the
    clamp graph exactly, and equals the Yosida value in general."""
    if not lam > 0:
        raise ValueError("resolvent step must be positive")
    return (float(y) - resolvent(graph, lam, y)) / lam


def yosida(graph: MonotoneGraph, lam: float, r: float) -> float:
    """Yosida regularization beta_lam(r): monotone, Lipschitz with 1/lam."""
    return graph_select(graph, lam, r)


def yosida_array(graph: MonotoneGraph, lam: float, r: np.ndarray) -> np.ndarray:
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
    pi_lipschitz: float
    name: str = "custom"

    @property
    def domain(self) -> tuple:
        return self.graph.domain


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
        pi_lipschitz=2.0 * abs(alpha2),
        name="clamp",
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
        pi_lipschitz=2.0 * abs(alpha2),
        name="log",
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
    epsilon: float = 1.0
    g_lipschitz: float = 0.0
    gp_lipschitz: float = 0.0
    name: str = "custom"

    def h(self, r):
        """The original coefficient h = g + epsilon/2."""
        return self.g(r) + 0.5 * self.epsilon


_SMOOTH_W = 0.1  # width of the C2 blend between the flat and linear branches


def _blend(s: np.ndarray) -> np.ndarray:
    # quintic with p(0)=p'(0)=p''(0)=0, p(1)=p'(1)=1, p''(1)=0; 0 <= p <= s
    return s ** 3 * (6.0 - 8.0 * s + 3.0 * s * s)


def _blend_d1(s: np.ndarray) -> np.ndarray:
    return s * s * (18.0 - 32.0 * s + 15.0 * s * s)


def _blend_d2(s: np.ndarray) -> np.ndarray:
    return s * (36.0 - 96.0 * s + 60.0 * s * s)


def make_linear_coupling(epsilon: float = 1.0) -> CouplingLaw:
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

    # max slope of the blend is 189/125 at s = 3/5; max curvature ~3.9403/w
    return CouplingLaw(g, gp, gpp, epsilon=epsilon,
                       g_lipschitz=189.0 / 125.0,
                       gp_lipschitz=3.9403 / w,
                       name="linear")


def make_constant_coupling(g0: float = 0.0, epsilon: float = 1.0) -> CouplingLaw:
    """g identically g0 >= 0; decouples the two equations (g' = 0)."""
    if g0 < 0:
        raise ValueError("constant coupling must be nonnegative")

    def const(r):
        return np.full_like(np.asarray(r, dtype=float), g0)

    def zero(r):
        return np.zeros_like(np.asarray(r, dtype=float))

    return CouplingLaw(const, zero, zero, epsilon=epsilon,
                       g_lipschitz=0.0, gp_lipschitz=0.0, name="constant")


# ---------------------------------------------------------------------------
# mobility laws


def _ln_cosh(r: np.ndarray) -> np.ndarray:
    # overflow-safe log(cosh(r))
    r = np.abs(np.asarray(r, dtype=float))
    return r + np.log1p(np.exp(-2.0 * r)) - math.log(2.0)


@dataclass(frozen=True)
class MobilityLaw:
    """Mobility kappa on [0, inf) with its structural constants.

    ``kappa_sup`` bounds kappa from above everywhere, ``kappa_star`` bounds
    it from below for arguments >= ``r_star``; ``r_star == 0`` means uniform
    parabolicity, ``r_star > 0`` admits degeneracy near the origin.
    """

    kappa: Callable[[np.ndarray], np.ndarray]
    kappa_star: float
    kappa_sup: float
    r_star: float
    name: str
    kind: str
    _primitive: Callable[[float], float] = field(repr=False, default=None)
    _primitive_inverse: Callable[[float], float] = field(repr=False, default=None)

    def __post_init__(self):
        if not (self.kappa_star > 0 and self.kappa_sup > 0):
            raise ValueError("mobility bounds must be positive")
        if self.r_star < 0:
            raise ValueError("degeneracy radius must be nonnegative")

    @property
    def s_star(self) -> float:
        return K_eval(self, self.r_star)


def make_constant_mobility(kappa0: float = 1.0) -> MobilityLaw:
    if not kappa0 > 0:
        raise ValueError("constant mobility must be positive")

    def kappa(r):
        return np.full_like(np.asarray(r, dtype=float), kappa0)

    return MobilityLaw(
        kappa=kappa, kappa_star=kappa0, kappa_sup=kappa0, r_star=0.0,
        name=f"constant({kappa0:g})", kind="constant",
        _primitive=lambda r: kappa0 * r,
        _primitive_inverse=lambda s: s / kappa0,
    )


def make_tanh_power_mobility(m: float = 2.0) -> MobilityLaw:
    """Degenerate mobility kappa(r) = tanh(r^(m-1)), m > 1.

    Vanishes at the origin, so slow diffusion sets in where the potential is
    small -- the porous-medium-like regime.  For m = 2 the antiderivative is
    ln(cosh(r)) in closed form; other exponents fall back to quadrature.
    """
    if not m > 1:
        raise ValueError("tanh-power mobility needs m > 1")

    def kappa(r):
        r = np.asarray(r, dtype=float)
        return np.tanh(np.maximum(r, 0.0) ** (m - 1.0))

    primitive = None
    if m == 2.0:
        primitive = lambda r: float(_ln_cosh(np.asarray(r)))
    return MobilityLaw(
        kappa=kappa, kappa_star=math.tanh(1.0), kappa_sup=1.0, r_star=1.0,
        name=f"tanhpow({m:g})", kind="tanhpow",
        _primitive=primitive,
    )


def make_tabulated_mobility(r_points, kappa_points,
                            kappa_star: float, r_star: float) -> MobilityLaw:
    """Piecewise-linear mobility from samples; constant beyond the last knot."""
    r_pts = np.asarray(r_points, dtype=float)
    k_pts = np.asarray(kappa_points, dtype=float)
    if r_pts.ndim != 1 or r_pts.shape != k_pts.shape or r_pts.size < 2:
        raise ValueError("need matching 1-D sample arrays with >= 2 knots")
    if not np.all(np.diff(r_pts) > 0) or r_pts[0] != 0.0:
        raise ValueError("knots must start at 0 and increase strictly")
    if np.any(k_pts < 0):
        raise ValueError("mobility samples must be nonnegative")

    def kappa(r):
        r = np.asarray(r, dtype=float)
        return np.interp(r, r_pts, k_pts)

    # exact piecewise-quadratic antiderivative at the knots
    seg = 0.5 * (k_pts[1:] + k_pts[:-1]) * np.diff(r_pts)
    K_knots = np.concatenate([[0.0], np.cumsum(seg)])

    def primitive(r):
        r = float(r)
        if r >= r_pts[-1]:
            return float(K_knots[-1] + k_pts[-1] * (r - r_pts[-1]))
        i = int(np.searchsorted(r_pts, r, side="right")) - 1
        dr = r - r_pts[i]
        slope = (k_pts[i + 1] - k_pts[i]) / (r_pts[i + 1] - r_pts[i])
        return float(K_knots[i] + k_pts[i] * dr + 0.5 * slope * dr * dr)

    return MobilityLaw(
        kappa=kappa, kappa_star=kappa_star, kappa_sup=float(k_pts.max()),
        r_star=r_star, name="table", kind="table",
        _primitive=primitive,
    )


def K_eval(mob: MobilityLaw, r: float) -> float:
    """Kirchhoff transform K(r) = integral of kappa from 0 to r (r >= 0)."""
    r = float(r)
    if r < 0:
        raise ValueError("K is defined for nonnegative arguments")
    if mob._primitive is not None:
        return float(mob._primitive(r))
    val, err = quad(lambda s: float(mob.kappa(np.asarray(s))), 0.0, r,
                    epsabs=1e-12, epsrel=1e-12, limit=200)
    if err > 1e-9 * max(1.0, abs(val)):
        raise RuntimeError(f"mobility quadrature failed (error estimate {err:.2e})")
    return float(val)


def K_tau_eval(mob: MobilityLaw, tau: float, r: float) -> float:
    """Floored transform: antiderivative of kappa(|s|) + tau, odd in r."""
    if tau < 0:
        raise ValueError("floor must be nonnegative")
    r = float(r)
    return math.copysign(K_eval(mob, abs(r)), r) + tau * r


def K_tau_array(mob: MobilityLaw, tau: float, r: np.ndarray) -> np.ndarray:
    """Vectorized :func:`K_tau_eval`; closed forms where the variant has one."""
    r = np.asarray(r, dtype=float)
    if mob.kind == "constant":
        kappa0 = float(mob.kappa(np.asarray(1.0)))
        return (kappa0 + tau) * r
    if mob.kind == "tanhpow" and mob._primitive is not None:
        return np.sign(r) * _ln_cosh(r) + tau * r
    flat = r.ravel()
    out = np.array([K_tau_eval(mob, tau, v) for v in flat])
    return out.reshape(r.shape)


def K_inverse(mob: MobilityLaw, s: float) -> float:
    """Unique r >= 0 with K(r) = s, to |K(r) - s| <= 1e-12."""
    s = float(s)
    if s < 0:
        raise ValueError("K maps [0, inf) onto [0, inf)")
    if s == 0.0:
        return 0.0
    if mob._primitive_inverse is not None:
        return float(mob._primitive_inverse(s))
    # bracket: K(r) >= kappa_star * (r - r_star), so the root is below this line
    hi = mob.r_star + s / mob.kappa_star + 1.0
    while K_eval(mob, hi) < s:
        hi *= 2.0
    lo = 0.0
    r = min(hi, max(s / mob.kappa_sup, 0.5 * hi))
    tol = 1e-12 * max(1.0, s)
    for _ in range(200):
        f = K_eval(mob, r) - s
        if abs(f) <= tol:
            return r
        if f < 0:
            lo = max(lo, r)
        else:
            hi = min(hi, r)
        slope = float(mob.kappa(np.asarray(r)))
        r_new = r - f / slope if slope > 0 else 0.5 * (lo + hi)
        if not (lo < r_new < hi) or not math.isfinite(r_new):
            r_new = 0.5 * (lo + hi)
        r = r_new
        if hi - lo <= 4e-16 * max(1.0, hi):
            return 0.5 * (lo + hi)
    raise ResolventError("K inversion did not converge", abs(K_eval(mob, r) - s))


def K_star_eval(mob: MobilityLaw, s: float) -> float:
    """Globally Lipschitz, strictly increasing extension of the inverse.

    Coincides with K^-1 on [s_star, inf); below s_star (positive degeneracy
    radius) it is replaced by the chord through the origin, which keeps the
    map Lipschitz where the true inverse would steepen without bound.
    """
    s = float(s)
    if s < 0:
        raise ValueError("defined on [0, inf)")
    if mob.r_star == 0.0:
        return K_inverse(mob, s)
    s_star = mob.s_star
    if s >= s_star:
        return K_inverse(mob, s)
    return mob.r_star * s / s_star


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
