"""The QAGP port against scipy's QUADPACK, on the pump integrand and classic cases."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import mazer.pump as pump
from mazer._qagp import QagpProblem, qagp
from mazer.core import SystemParams
from mazer.selection import maxwell_boltzmann_initial
from mazer.ultracold import _p_em_array, p_em_ultracold

KL200 = 200.0 * math.pi
TOLS = dict(epsabs=1e-8, epsrel=1e-10, limit=400)
TIGHT = dict(epsabs=1e-300, epsrel=1e-14)


def on_array(f):
    """The scalar integrand f evaluated at every point of an array."""
    return lambda x, owner: np.array([f(v) for v in x.tolist()])


def by_owner(integrands):
    """One lockstep integrand: point i is integrands[owner[i]]'s, given owner 0."""

    def f(x, owner):
        out = np.empty_like(x)
        for j, g in enumerate(integrands):
            mine = owner == j
            out[mine] = g(x[mine], np.zeros(mine.sum(), dtype=int))
        return out

    return f


def quad_info(f, a, b, points, **tols):
    """quad's value, abserr and infodict with breakpoints (QUADPACK's QAGP)."""
    return quad(f, a, b, points=points, full_output=1, **tols)[:3]


def extrapolated(value, info) -> bool:
    """Whether quad returned its epsilon-extrapolated value, not the plain sum."""
    return abs(value - math.fsum(info["rlist"][: info["last"]])) > 1e-12


GRID = np.linspace(0.0, 0.2, 1001)


def mean_p_em_problem(monkeypatch, delta, n, kl):
    """`mean_p_em([n])` at (delta, kappa L): its value, integrand and QAGP problem."""
    calls = []

    def spy(f, problems):
        calls.append((f, problems))
        return qagp(f, problems)

    monkeypatch.setattr(pump, "qagp", spy)
    init = maxwell_boltzmann_initial(0.05, GRID)
    (mean,) = pump.mean_p_em([n], init, SystemParams(delta, kl, 0))
    ((f, (problem,)),) = calls
    assert problem.points and problem.epsabs == pump.QUAD_ABS_TOL
    return mean, f, problem


def quad_of_problem(problem, delta, n, kl):
    """quad on the scalar form of `mean_p_em`'s integrand, as set up by `problem`.

    The port takes quad's steps, so the nodes quad asks for are first
    evaluated by the port, in one array call per round, and served from a
    dict: each scalar entry is its array element, bit for bit.  A node the
    port did not ask for takes the scalar form.
    """
    params = SystemParams(delta, kl, n)
    density = maxwell_boltzmann_initial(0.05, GRID).interpolator()

    def scalar_integrand(k: float) -> float:
        w = float(density(k))
        return w * p_em_ultracold(k, params) if w > 0.0 else 0.0

    known: dict[float, float] = {}

    def array_integrand(x, owner):
        w = density(x)
        inside = w > 0.0
        values = np.zeros_like(x)
        values[inside] = w[inside] * _p_em_array(x[inside], params)
        known.update(zip(x.tolist(), values.tolist()))
        return values

    qagp(array_integrand, [problem])
    # the dict serves the scalar form's bits
    for k in list(known)[:: max(1, len(known) // 25)]:
        assert known[k] == scalar_integrand(k)

    def integrand(k: float) -> float:
        value = known.get(k)
        return scalar_integrand(k) if value is None else value

    a, b, points, epsabs, epsrel, limit = problem
    return quad_info(integrand, a, b, points, epsabs=epsabs, epsrel=epsrel, limit=limit)


def check_against_quad(mean, problem, ours, delta, n, kl):
    """The port's result on `problem` takes quad's steps, and is `mean_p_em`'s value."""
    value, _, info = quad_of_problem(problem, delta, n, kl)
    assert (ours.neval, ours.last) == (info["neval"], info["last"])
    # both integrate P_em's same bits; QUADPACK's compiled sums may still round
    # differently from the port's
    assert ours.value == mean == pytest.approx(value, rel=1e-14)
    return value, info


# (delta/g, n) of the fig-4 config, and whether quad's result there is the
# epsilon-extrapolated value (1.3e-9 and 5.8e-9 from the plain sum)
FIG4_CASES = [(-0.002, 1, False), (0.0, 4, False), (0.002, 2, True), (0.005, 35, True)]


@pytest.fixture(scope="module")
def fig4_lockstep():
    """The four fig-4 cases' `mean_p_em` values and problems, and the results of
    all four problems run as one lockstep batch."""
    with pytest.MonkeyPatch.context() as mp:
        cases = [mean_p_em_problem(mp, delta, n, KL200) for delta, n, _ in FIG4_CASES]
    means, integrands, problems = zip(*cases)
    results = qagp(by_owner(integrands), problems)
    return dict(zip(FIG4_CASES, zip(means, problems, results)))


class TestFig4Integrand:
    @pytest.mark.parametrize("delta, n, extrapolates", FIG4_CASES)
    def test_matches_quad_on_mean_p_em(self, fig4_lockstep, delta, n, extrapolates):
        mean, problem, ours = fig4_lockstep[delta, n, extrapolates]
        value, info = check_against_quad(mean, problem, ours, delta, n, KL200)
        assert problem.limit == 400
        assert extrapolated(value, info) == extrapolates

    def test_matches_quad_past_400_breakpoints(self, monkeypatch):
        # kappa L = 25000 puts 473 breakpoints in the fig-4 window, more than
        # a limit of 400 subintervals admits
        mean, f, problem = mean_p_em_problem(monkeypatch, 0.0, 0, 25000.0)
        (ours,) = qagp(f, [problem])
        check_against_quad(mean, problem, ours, 0.0, 0, 25000.0)
        assert (len(problem.points), problem.limit) == (473, 948)


# (f, a, b, points, tols, exact)
CLASSIC = [
    # endpoint singularity, no breakpoints: int_0^1 x^-1/2 log x = -4
    (lambda x: x**-0.5 * math.log(x), 0.0, 1.0, [], dict(epsabs=1e-10), -4.0),
    # singularity at an interior breakpoint
    (lambda x: abs(x - 1.0 / 3.0) ** -0.5, 0.0, 1.0, [1.0 / 3.0], {},
     2.0 * (math.sqrt(1.0 / 3.0) + math.sqrt(2.0 / 3.0))),
    # oscillatory, across two breakpoints: int_0^10 cos(50 x) e^-x
    (lambda x: math.cos(50.0 * x) * math.exp(-x), 0.0, 10.0, [2.5, 5.0],
     dict(epsabs=1e-12),
     (1.0 - math.exp(-10.0) * (math.cos(500.0) - 50.0 * math.sin(500.0))) / 2501.0),
]
# (f, points, tols, ier) on [0, 1]
FLAGGED = [
    # 1/x is not integrable at 0: stops at the subdivision limit
    (lambda x: 1.0 / x, [0.5], dict(limit=50), 1),
    # roundoff detected in the subdivision
    (lambda x: math.log(abs(x - 0.3)), [], TIGHT, 2),
    # roundoff detected in the extrapolation table
    (lambda x: abs(x - 0.3) ** -0.5, [0.3], TIGHT, 4),
]


class TestClassicIntegrands:
    """Same integrand values in, bit-identical results out."""

    @pytest.mark.parametrize(
        "f, a, b, points, tols, exact", CLASSIC,
        ids=["endpoint", "interior", "oscillatory"],
    )
    def test_matches_quad(self, f, a, b, points, tols, exact):
        tols = {**TOLS, **tols}
        value, abserr, info = quad_info(f, a, b, points, **tols)
        (ours,) = qagp(on_array(f), [QagpProblem(a, b, points, **tols)])
        assert ours == (value, abserr, info["neval"], 0, info["last"])
        assert value == pytest.approx(exact, rel=1e-11)

    @pytest.mark.parametrize(
        "f, points, tols, ier", FLAGGED,
        ids=["limit", "roundoff", "extrapolation-roundoff"],
    )
    def test_error_flags_match_quad(self, f, points, tols, ier):
        tols = {**TOLS, **tols}
        value, abserr, info = quad_info(f, 0.0, 1.0, points, **tols)
        (ours,) = qagp(on_array(f), [QagpProblem(0.0, 1.0, points, **tols)])
        assert ours == (value, abserr, info["neval"], ier, info["last"])

    def test_lockstep_batch_matches_quad(self):
        # problems that stop after different numbers of rounds, some with a flag
        cases = [(f, a, b, points, {**TOLS, **tols}, 0)
                 for f, a, b, points, tols, _ in CLASSIC]
        cases += [(f, 0.0, 1.0, points, {**TOLS, **tols}, ier)
                  for f, points, tols, ier in FLAGGED]
        results = qagp(
            by_owner([on_array(f) for f, *_ in cases]),
            [QagpProblem(a, b, points, **tols) for _, a, b, points, tols, _ in cases],
        )
        lasts = set()
        for (f, a, b, points, tols, ier), ours in zip(cases, results):
            value, abserr, info = quad_info(f, a, b, points, **tols)
            assert ours == (value, abserr, info["neval"], ier, info["last"])
            lasts.add(ours.last)
        assert len(lasts) > 1

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
        calls = []

        def f(x, owner):
            calls.append(x)
            return x

        # a valid problem in the same batch is not integrated either
        valid = QagpProblem(0.0, 1.0, [], 1e-8, 1e-10, 400)
        with pytest.raises(ValueError):
            qagp(f, [valid, QagpProblem(0.0, b, points, epsabs, epsrel, limit)])
        assert calls == []
