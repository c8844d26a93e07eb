import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from vchsim.config import Config, build_laws
from vchsim.constitutive import (
    ClampIndicator,
    ConstantCoupling,
    ConstantMobility,
    K_tau_array,
    LinearCoupling,
    LogGraph,
    Potential,
    TanhPowerMobility,
    yosida_array,
)
from vchsim.stepper import SolverConfig


# frozen oracle values (bisection / quadrature, computed independently)
LOG_RESOLVENT_Y2 = 0.7732493551656519   # root of r + ln(r/(1-r)) = 2 on (0,1)
LN_COSH_1 = 0.4337808304830271          # integral of tanh over [0,1]
LN_9 = 2.1972245773362196


def resolvent(graph, lam, y):
    return float(graph.resolvent_array(lam, np.asarray(y, dtype=float)))


def yosida(graph, lam, r):
    return float(yosida_array(graph, lam, np.asarray(r, dtype=float)))


def k_tau_reference(mob, tau, r):
    """K_tau(r) by adaptive quadrature of kappa(|s|) + tau, one node at a
    time: the reference the vectorized transform is held to."""
    val, _ = quad(lambda s: float(mob.kappa(np.asarray(s))), 0.0, abs(r),
                  epsabs=0.0, epsrel=1e-13, limit=200)
    return math.copysign(val, r) + tau * r


class TestResolvent:
    def test_clamp_interior_point(self):
        assert resolvent(ClampIndicator(), 0.5, 0.4) == 0.4

    def test_clamp_projects(self):
        y = np.array([1.7, -0.2])
        assert np.array_equal(ClampIndicator().resolvent_array(2.0, y),
                              [1.0, 0.0])
        assert resolvent(ClampIndicator(), 1e-3, -0.2) == 0.0

    def test_log_symmetric_point(self):
        assert resolvent(LogGraph(1.0), 1.0, 0.5) == pytest.approx(0.5, abs=1e-13)

    def test_log_frozen_root(self):
        r = resolvent(LogGraph(1.0), 1.0, 2.0)
        assert r == pytest.approx(LOG_RESOLVENT_Y2, abs=1e-12)
        assert abs(r + math.log(r / (1 - r)) - 2.0) <= 1e-13

    @pytest.mark.parametrize("graph", [LogGraph(0.5), LogGraph(1.0),
                                       LogGraph(2.0)])
    @pytest.mark.parametrize("lam", [1e-3, 1 / 32, 1.0])
    def test_log_stays_finite_up_to_the_endpoints(self, graph, lam):
        # far outside the interval and within a few ulp of either end the
        # bracket ends must keep F and F' finite: none of the floating-point
        # errors numpy warns about by default
        near = []
        for end, inward, outward in ((0.0, 1.0, -np.inf), (1.0, 0.0, np.inf)):
            for direction in (inward, outward):
                x = end
                for _ in range(4):
                    x = np.nextafter(x, direction)
                    near.append(x)
        # and densely where the roots run from 1e-24 to 1e-10, below and
        # above the bracket's lower start 1e-17
        c = lam * graph.alpha1
        low = np.linspace(c * math.log(1e-24), c * math.log(1e-10), 2001)
        y = np.concatenate([np.linspace(-1e3, 1e3, 2001), low, near,
                            [0.0, 1.0]])
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            r = graph.resolvent_array(lam, y)
        assert np.all((0.0 < r) & (r < 1.0))
        assert np.all(np.diff(r[:2001]) >= 0.0)
        assert np.all(np.diff(r[2001:4002]) > 0.0)
        # there the root solves r = (1 - r) exp((y - r)/c) to rounding
        r_low = r[2001:4002]
        assert np.allclose(r_low, np.exp((low - r_low) / c) * (1.0 - r_low),
                           rtol=1e-12, atol=0.0)

    def test_rejects_nonpositive_step(self):
        # the resolvent step is the solver config's yosida_lambda: the time
        # step, which is rejected unless positive, or 1 when N = 0
        with pytest.raises(ValueError, match="step size must be positive"):
            SolverConfig(T=0.0, n_steps=4)
        assert SolverConfig(T=1.0, n_steps=4).yosida_lambda == 0.25
        assert SolverConfig(T=0.0, n_steps=0).yosida_lambda == 1.0


class TestGraphSelect:
    def test_interior_selection_vanishes(self):
        assert yosida(ClampIndicator(), 1.0, 0.5) == 0.0

    def test_upper_endpoint_sign(self):
        # (1.5 - 1)/0.5 = 1.0 >= 0 at r = 1
        assert yosida(ClampIndicator(), 0.5, 1.5) == 1.0

    def test_lower_endpoint_sign(self):
        # (-0.1 - 0)/0.25 = -0.4 <= 0 at r = 0
        assert yosida(ClampIndicator(), 0.25, -0.1) == pytest.approx(-0.4, abs=1e-15)


class TestYosida:
    def test_interior_zero(self):
        assert yosida(ClampIndicator(), 0.1, 0.5) == 0.0

    def test_outside_linear_growth(self):
        assert yosida(ClampIndicator(), 0.1, 1.2) == pytest.approx(2.0, abs=1e-13)

    def test_log_gap_shrinks_with_lambda(self):
        g = LogGraph(1.0)
        beta = LN_9  # beta(0.9) = ln 9
        gaps = []
        for lam in (1e-1, 1e-2, 1e-3):
            val = yosida(g, lam, 0.9)
            assert abs(val) <= abs(beta) + 1e-12
            gaps.append(abs(val - beta))
        assert gaps[0] > gaps[1] > gaps[2]


class TestPotentials:
    def test_log_entropy_normalized_at_half(self):
        assert LogGraph(1.0).f1(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_log_f1_nonnegative(self):
        r = np.linspace(0.0, 1.0, 101)
        assert np.all(LogGraph(1.0).f1(r) >= -1e-15)

    def test_clamp_interior_is_smooth_part_only(self):
        # the indicator vanishes inside [0, 1], so f = f1 + f2 is f2 there
        assert ClampIndicator().f1(0.3) == 0.0

    def test_clamp_outside_is_infinite(self):
        assert ClampIndicator().f1(1.5) == math.inf
        assert LogGraph(0.5).f1(-0.1) == math.inf


    @pytest.mark.parametrize("graph", [ClampIndicator(), LogGraph(0.5)])
    def test_envelope_is_finite_below_f1_with_the_yosida_slope(self, graph):
        # the Moreau envelope: finite inside and outside [0, 1], at most f1,
        # equal to f1 where the clamp's resolvent is the identity, and its
        # derivative (central difference) is the Yosida value
        pot, lam = Potential(graph, alpha2=2.0), 0.01
        r = np.array([-0.3, 0.05, 0.5, 0.9, 1.4])
        env = pot.envelope(lam, r, graph.resolvent_array(lam, r))
        assert np.all(np.isfinite(env))
        assert np.all(env <= graph.f1(r))
        if isinstance(graph, ClampIndicator):
            assert np.all(env[1:-1] == 0.0)
        d = 1e-6
        slope = (pot.envelope(lam, r + d, graph.resolvent_array(lam, r + d))
                 - pot.envelope(lam, r - d, graph.resolvent_array(lam, r - d))
                 ) / (2 * d)
        assert np.allclose(slope, yosida_array(graph, lam, r), rtol=1e-6,
                           atol=1e-6)


class TestCouplingLaw:
    def test_linear_is_identity_past_blend(self):
        cpl = LinearCoupling()
        for r in (0.1, 0.5, 1.0, 3.0):
            assert float(cpl.g(np.asarray(r))) == pytest.approx(r, abs=1e-15)
            assert float(cpl.g_prime(np.asarray(r))) == pytest.approx(1.0, abs=1e-15)

    def test_linear_nonnegative_everywhere(self):
        cpl = LinearCoupling()
        r = np.linspace(-2.0, 2.0, 4001)
        assert np.all(cpl.g(r) >= 0.0)

    def test_linear_flat_below_zero(self):
        cpl = LinearCoupling()
        assert float(cpl.g(np.asarray(-0.5))) == 0.0
        assert float(cpl.g_prime(np.asarray(-0.5))) == 0.0

    def test_c2_junctions(self):
        # third derivative is O(1/w^2) ~ 3.6e3, so probes at +-1e-9 may differ
        # by a few 1e-6 in g'' while g'' itself stays continuous
        cpl = LinearCoupling()
        for x0 in (0.0, 0.1):
            for fn, tol in ((cpl.g, 4e-9), (cpl.g_prime, 1e-7),
                            (cpl.g_second, 1e-5)):
                left = float(fn(np.asarray(x0 - 1e-9)))
                right = float(fn(np.asarray(x0 + 1e-9)))
                assert abs(left - right) <= tol

    def test_constant_coupling_decouples(self):
        cpl = ConstantCoupling(0.7)
        r = np.linspace(-1, 2, 7)
        assert np.all(cpl.g(r) == 0.7)
        assert np.all(cpl.g_prime(r) == 0.0)


class TestMobilityTransforms:
    def test_constant_closed_forms(self):
        mob = ConstantMobility(1.0)
        assert mob.K(2.0) == 2.0
        assert np.allclose(K_tau_array(mob, 0.1, np.array([2.0, -2.0])),
                           [2.2, -2.2], rtol=0.0, atol=1e-14)

    def test_tanh_matches_quadrature_oracle(self):
        mob = TanhPowerMobility(2.0)
        oracle, _ = quad(math.tanh, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
        assert float(K_tau_array(mob, 0.0, 1.0)) == pytest.approx(oracle, abs=1e-12)
        assert float(K_tau_array(mob, 0.0, 1.0)) == pytest.approx(LN_COSH_1, abs=1e-12)

    def test_general_exponent_uses_quadrature(self):
        mob = TanhPowerMobility(2.5)
        oracle, _ = quad(lambda s: math.tanh(s ** 1.5), 0.0, 2.0,
                         epsabs=1e-13, epsrel=1e-13)
        assert float(K_tau_array(mob, 0.0, 2.0)) == pytest.approx(oracle, abs=1e-11)

    def test_k_tau_array_matches_scalar(self):
        for mob in (ConstantMobility(1.3), TanhPowerMobility(2.0),
                    TanhPowerMobility(2.3)):
            r = np.array([-2.0, -0.3, 0.0, 0.7, 4.0])
            vec = K_tau_array(mob, 0.05, r)
            scal = np.array([k_tau_reference(mob, 0.05, v) for v in r])
            assert np.max(np.abs(vec - scal)) <= 1e-12

    @pytest.mark.parametrize("m", [1.05, 1.5, 2.5, 3.0, 4.0])
    def test_matches_adaptive_quadrature(self, m):
        # no floor, so the relative error is that of K itself
        mob = TanhPowerMobility(m)
        mags = np.logspace(-8.0, 2.0, 31)
        r = np.concatenate([-mags[::-1], mags]).reshape(2, -1)
        vec = K_tau_array(mob, 0.0, r)
        ref = np.array([k_tau_reference(mob, 0.0, v) for v in r.ravel()])
        assert vec.shape == r.shape
        assert np.max(np.abs(vec.ravel() - ref) / np.abs(ref)) <= 1e-12

    def test_m2_closed_form_bitwise_unchanged(self):
        mob = TanhPowerMobility(2.0)
        r = np.linspace(-30.0, 30.0, 602).reshape(2, -1)
        a = np.abs(r)
        ln_cosh = a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)
        for tau in (0.0, 0.02 / 12):
            assert np.array_equal(K_tau_array(mob, tau, r),
                                  np.sign(r) * ln_cosh + tau * r)

    def test_mobility_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ConstantMobility(0.0)
        with pytest.raises(ValueError):
            TanhPowerMobility(1.0)


# ---------------------------------------------------------------------------
# property tests

GRAPHS = [ClampIndicator(), LogGraph(1.0), LogGraph(0.5)]
LAMBDAS = [1e-3, 1.0, 1e3]
reals = st.floats(min_value=-50.0, max_value=50.0,
                  allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(y1=reals, y2=reals, graph_i=st.integers(0, len(GRAPHS) - 1),
       lam_i=st.integers(0, len(LAMBDAS) - 1))
def test_resolvent_nonexpansive(y1, y2, graph_i, lam_i):
    graph, lam = GRAPHS[graph_i], LAMBDAS[lam_i]
    r1, r2 = graph.resolvent_array(lam, np.array([y1, y2]))
    assert abs(r1 - r2) <= abs(y1 - y2) + 1e-11 * max(1.0, abs(y1), abs(y2))


@settings(max_examples=60, deadline=None)
@given(r1=reals, r2=reals, graph_i=st.integers(0, len(GRAPHS) - 1),
       lam_i=st.integers(0, len(LAMBDAS) - 1))
def test_yosida_monotone_and_lipschitz(r1, r2, graph_i, lam_i):
    graph, lam = GRAPHS[graph_i], LAMBDAS[lam_i]
    b1, b2 = yosida_array(graph, lam, np.array([r1, r2]))
    scale = max(1.0, abs(r1), abs(r2)) / lam
    assert (b1 - b2) * (r1 - r2) >= -1e-10 * scale * max(1.0, abs(r1 - r2))
    assert abs(b1 - b2) <= abs(r1 - r2) / lam + 1e-10 * scale


@settings(max_examples=30, deadline=None)
@given(tau=st.floats(min_value=1e-4, max_value=1.0))
def test_k_tau_strictly_increasing(tau):
    mob = TanhPowerMobility(2.0)
    r = np.linspace(-3.0, 3.0, 61)
    vals = K_tau_array(mob, tau, r)
    assert np.all(np.diff(vals) > 0.0)


@pytest.mark.parametrize("mob", [ConstantMobility(1.5),
                                 TanhPowerMobility(2.0),
                                 TanhPowerMobility(1.7)])
def test_kappa_structural_bounds(mob):
    r = np.linspace(0.0, 50.0, 500)
    k = mob.kappa(r)
    assert np.all(k <= mob.kappa_sup + 1e-15)
    above = r >= mob.r_star
    assert np.all(k[above] >= mob.kappa_star - 1e-12)


@pytest.mark.parametrize("config", [
    Config(),
    Config(potential="log", alpha1=0.7, mobility="tanhpow", m=2.5,
           coupling="constant", g0=0.3),
])
def test_laws_are_values(config):
    # two builds of one config are equal and hash alike, so laws can key a
    # cache or be compared across runs
    first, second = build_laws(config), build_laws(config)
    assert first == second
    assert hash(first) == hash(second)
    assert first.mobility != build_laws(replace(config, kappa0=2.0,
                                                m=3.0)).mobility
