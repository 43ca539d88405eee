"""The numpy port of QUADPACK against scipy.integrate.quad as the oracle."""

import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad as scipy_quad
from scipy.stats import norm

from ecopull import BetaTruth, QuadratureError, UniformTruth, p_th
from ecopull._quadpack import quad
from ecopull.energy import gaussian_tail, quad_interval

TOL = 1e-9
SHAPES = [(2, 5), (0.5, 0.5), (0.1, 0.1), (0.05, 0.05), (0.3, 2), (2, 0.7),
          (0.01, 3)]
NOISES = [1e-6, 1e-3, 0.05, 0.125, 0.5]
THRESHOLDS = np.linspace(0.0, 1.0, 41).tolist()


def _accepted(value, abserr):
    # the wrapper's bound before its refinement at zero relative tolerance
    return abserr <= max(TOL, 1e-12 * abs(value)) * 10


def _port(func, points, seen):
    def recorded(x):
        values = func(x)
        seen.update(zip(x.tolist(), values.tolist()))
        return values

    try:
        value, abserr = quad(recorded, 0.0, 1.0, TOL, points=points)
    except QuadratureError:
        return None
    return value if _accepted(value, abserr) else None


def _oracle(func, points, seen):
    # scipy calls the integrand once per node; the port's values at the
    # nodes both visit are the same elementwise evaluation, so looking them
    # up only saves time
    def scalar(x):
        if x not in seen:
            seen[x] = float(func(np.array([x]))[0])
        return seen[x]

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            value, abserr = scipy_quad(scalar, 0.0, 1.0, epsabs=TOL,
                                       limit=200, points=points)
        except IntegrationWarning:
            return None
    return value if _accepted(value, abserr) else None


@pytest.mark.parametrize("shape", [None] + SHAPES)
def test_port_matches_scipy_on_threshold_integrals(shape):
    truth = UniformTruth() if shape is None else BetaTruth(*shape)
    smooth = shape in (None, (2, 5))
    for noise in NOISES:
        for threshold in THRESHOLDS:
            def integrand(beta):
                return (gaussian_tail((threshold - beta) / noise)
                        * truth.density(beta))

            points = [threshold] if 0.0 < threshold < 1.0 else None
            seen = {}
            ours = _port(integrand, points, seen)
            theirs = _oracle(integrand, points, seen)
            case = (shape, noise, threshold, ours, theirs)
            assert (ours is None) == (theirs is None), case
            if ours is not None:
                assert abs(ours - theirs) <= (1e-13 if smooth else TOL), case


@pytest.mark.parametrize("shape", SHAPES)
def test_singular_beta_truths_validate(shape):
    truth = BetaTruth(*shape)  # validate runs on construction
    mass, _ = quad(truth.density, 0.0, 1.0, 1e-10)
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_divergent_integral_raises():
    with pytest.raises(QuadratureError, match="did not converge"):
        quad_interval(lambda x: 1.0 / x, 0.0, 1.0)


def test_breakpoints_resolve_a_kink():
    value, _ = quad(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0, TOL,
                    points=[1.0 / 3.0, 2.0])
    assert value == pytest.approx(5.0 / 18.0, abs=1e-15)


def test_empty_interval_is_zero():
    assert quad_interval(np.exp, 0.5, 0.5) == 0.0


@pytest.mark.parametrize("noise", [0.05, 0.125, 0.25, 0.5])
def test_uniform_p_th_converges_at_every_threshold(noise):
    # at noise 0.125, thresholds in [0.128, 0.133] stopped at scipy's
    # relative tolerance above the absolute bound until the wrapper refined
    truth = UniformTruth()
    for step in range(1001):
        value = p_th(step / 1000, noise, truth)
        assert 0.0 <= value <= 1.0


def test_refined_p_th_matches_a_tight_reference():
    truth = UniformTruth()
    for threshold in (0.128, 0.13, 0.133):
        def integrand(beta):
            return (gaussian_tail((threshold - beta) / 0.125)
                    * truth.density(beta))

        tight, _ = quad(integrand, 0.0, 1.0, 1e-14, epsrel=0.0,
                        points=[threshold])
        assert abs(p_th(threshold, 0.125, truth) - tight) <= TOL


def test_gaussian_tail_is_the_normal_upper_tail():
    x = np.linspace(-8.0, 37.0, 901)
    np.testing.assert_allclose(gaussian_tail(x), norm.sf(x), rtol=1e-12)
    assert gaussian_tail(0.0) == 0.5
