"""The QAGP port against scipy's QUADPACK, on the pump integrand and classic cases."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import mazer.pump as pump
from mazer._qagp import qagp
from mazer.core import SystemParams
from mazer.selection import maxwell_boltzmann_initial
from mazer.ultracold import p_em_ultracold

KL200 = 200.0 * math.pi
TOLS = dict(epsabs=1e-8, epsrel=1e-10, limit=400)
TIGHT = dict(epsabs=1e-300, epsrel=1e-14)


def on_array(f):
    """The scalar integrand f evaluated at every point of an array."""
    return lambda x: np.array([f(v) for v in x.tolist()])


def quad_info(f, a, b, points, **tols):
    """quad's value, abserr and infodict with breakpoints (QUADPACK's QAGP)."""
    return quad(f, a, b, points=points, full_output=1, **tols)[:3]


def extrapolated(value, info) -> bool:
    """Whether quad returned its epsilon-extrapolated value, not the plain sum."""
    return abs(value - math.fsum(info["rlist"][: info["last"]])) > 1e-12


def port_and_quad(monkeypatch, delta, n, kl):
    """Check `mean_p_em`'s QAGP call against quad on the same interval.

    quad integrates the scalar form of the integrand, with the breakpoints
    and tolerances `mean_p_em` passed to the port.  Returns those
    breakpoints and tolerances, and quad's value and infodict.
    """
    calls = []

    def spy(f, a, b, points, **tols):
        calls.append((f, a, b, points, tols))
        return qagp(f, a, b, points, **tols)

    monkeypatch.setattr(pump, "qagp", spy)
    grid = np.linspace(0.0, 0.2, 1001)
    init = maxwell_boltzmann_initial(0.05, grid)
    mean = pump.mean_p_em(n, init, SystemParams(delta, kl, 0))
    ((f, a, b, points, tols),) = calls
    assert points and tols["epsabs"] == pump.QUAD_ABS_TOL
    params = SystemParams(delta, kl, n)
    density = init.interpolator()

    def scalar_integrand(k: float) -> float:
        w = float(density(k))
        return w * p_em_ultracold(k, params) if w > 0.0 else 0.0

    value, _, info = quad_info(scalar_integrand, a, b, points, **tols)
    ours = qagp(f, a, b, points, **tols)
    assert (ours.neval, ours.last) == (info["neval"], info["last"])
    # the array P_em rounds a few ulp away from the scalar one
    assert ours.value == mean == pytest.approx(value, rel=1e-14)
    return points, tols, value, info


class TestFig4Integrand:
    # (delta/g, n) of the fig-4 config, and whether quad's result there is
    # the epsilon-extrapolated value (1.3e-9 and 5.8e-9 from the plain sum)
    @pytest.mark.parametrize(
        "delta, n, extrapolates",
        [(-0.002, 1, False), (0.0, 4, False), (0.002, 2, True), (0.005, 35, True)],
    )
    def test_matches_quad_on_mean_p_em(self, monkeypatch, delta, n, extrapolates):
        points, tols, value, info = port_and_quad(monkeypatch, delta, n, KL200)
        assert tols["limit"] == 400
        assert extrapolated(value, info) == extrapolates

    def test_matches_quad_past_400_breakpoints(self, monkeypatch):
        # kappa L = 25000 puts 473 breakpoints in the fig-4 window, more than
        # a limit of 400 subintervals admits
        points, tols, _, _ = port_and_quad(monkeypatch, 0.0, 0, 25000.0)
        assert (len(points), tols["limit"]) == (473, 948)


class TestClassicIntegrands:
    """Same integrand values in, bit-identical results out."""

    @pytest.mark.parametrize(
        "f, a, b, points, tols, exact",
        [
            # endpoint singularity, no breakpoints: int_0^1 x^-1/2 log x = -4
            (lambda x: x**-0.5 * math.log(x), 0.0, 1.0, [], dict(epsabs=1e-10),
             -4.0),
            # singularity at an interior breakpoint
            (lambda x: abs(x - 1.0 / 3.0) ** -0.5, 0.0, 1.0, [1.0 / 3.0], {},
             2.0 * (math.sqrt(1.0 / 3.0) + math.sqrt(2.0 / 3.0))),
            # oscillatory, across two breakpoints: int_0^10 cos(50 x) e^-x
            (lambda x: math.cos(50.0 * x) * math.exp(-x), 0.0, 10.0, [2.5, 5.0],
             dict(epsabs=1e-12),
             (1.0 - math.exp(-10.0) * (math.cos(500.0) - 50.0 * math.sin(500.0)))
             / 2501.0),
        ],
        ids=["endpoint", "interior", "oscillatory"],
    )
    def test_matches_quad(self, f, a, b, points, tols, exact):
        tols = {**TOLS, **tols}
        value, abserr, info = quad_info(f, a, b, points, **tols)
        ours = qagp(on_array(f), a, b, points, **tols)
        assert ours == (value, abserr, info["neval"], 0, info["last"])
        assert value == pytest.approx(exact, rel=1e-11)

    @pytest.mark.parametrize(
        "f, points, tols, ier",
        [
            # 1/x is not integrable at 0: stops at the subdivision limit
            (lambda x: 1.0 / x, [0.5], dict(limit=50), 1),
            # roundoff detected in the subdivision
            (lambda x: math.log(abs(x - 0.3)), [], TIGHT, 2),
            # roundoff detected in the extrapolation table
            (lambda x: abs(x - 0.3) ** -0.5, [0.3], TIGHT, 4),
        ],
        ids=["limit", "roundoff", "extrapolation-roundoff"],
    )
    def test_error_flags_match_quad(self, f, points, tols, ier):
        tols = {**TOLS, **tols}
        value, abserr, info = quad_info(f, 0.0, 1.0, points, **tols)
        ours = qagp(on_array(f), 0.0, 1.0, points, **tols)
        assert ours == (value, abserr, info["neval"], ier, info["last"])

    @pytest.mark.parametrize(
        "b, points, limit, epsabs",
        [
            (1.0, [1.5], 400, 1e-8),  # breakpoint outside [a, b]
            (1.0, [0.5], 1, 1e-8),  # limit <= number of breakpoints
            (1.0, [0.5], 400, 0.0),  # epsrel below 50 eps with epsabs = 0
            (-1.0, [], 400, 1e-8),  # reversed limits
        ],
    )
    def test_invalid_input_rejected(self, b, points, limit, epsabs):
        epsrel = 1e-16 if epsabs == 0.0 else 1e-10
        with pytest.raises(ValueError):
            qagp(lambda x: x, 0.0, b, points, epsabs, epsrel, limit)
