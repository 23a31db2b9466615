"""Coupled-channel boundary-matching solver: self-tests and cross-checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazer import oracle
from mazer.core import DomainError, SystemParams
from mazer.oracle import ModeFunction, convergence_check, solve, solve_mesa
from mazer.scattering import scatter

KL = 1e3 * math.pi


class TestModeFunction:
    def test_mesa_constructor(self):
        mode = ModeFunction.mesa(KL)
        assert mode.segments == ((KL, 1.0),)
        assert mode.total_length == KL

    def test_refinement_preserves_profile(self):
        mode = ModeFunction.from_profile([(2.0, 1.0), (3.0, 0.5)])
        fine = mode.refined(2)
        assert len(fine.segments) == 8
        assert fine.total_length == pytest.approx(5.0)
        assert {v for _, v in fine.segments} == {1.0, 0.5}

    def test_invalid_profiles_rejected(self):
        with pytest.raises(DomainError):
            ModeFunction(segments=())
        with pytest.raises(DomainError):
            ModeFunction(segments=((0.0, 1.0),))
        with pytest.raises(DomainError):
            ModeFunction(segments=((1.0, 1.5),))


class TestSolve:
    def test_free_propagation(self):
        mode = ModeFunction(segments=((50.0, 0.0),))
        res = solve(mode, 0.05, SystemParams(0.0, 50.0, 0))
        assert abs(res.t_a) == pytest.approx(1.0, abs=1e-12)
        assert abs(res.t_b) == pytest.approx(0.0, abs=1e-12)
        assert abs(res.r_a) == pytest.approx(0.0, abs=1e-12)
        assert abs(res.r_b) == pytest.approx(0.0, abs=1e-12)

    def test_flux_conservation_open_channel(self):
        res = solve(ModeFunction.mesa(KL), 0.05, SystemParams(-0.003, KL, 0))
        assert res.flux_sum == pytest.approx(1.0, abs=1e-9)

    def test_flux_conservation_closed_channel(self):
        res = solve(ModeFunction.mesa(KL), 0.05, SystemParams(0.005, KL, 0))
        # b closed: only the a channel carries flux
        assert abs(res.r_a) ** 2 + abs(res.t_a) ** 2 == pytest.approx(
            1.0, abs=1e-9
        )

    @pytest.mark.parametrize("delta", [-0.003, 0.002, 0.005, 5.0])
    def test_transmitted_b_flux_uses_own_k_b(self, delta):
        k = 0.05
        res = solve(ModeFunction.mesa(KL), k, SystemParams(delta, KL, 0))
        if k * k > delta:
            assert res.T_b == (math.sqrt(k * k - delta) / k) * abs(res.t_b) ** 2
            assert res.T_b > 0.0
        else:
            # the evanescent b amplitude is nonzero but carries no flux
            assert abs(res.t_b) > 0.0
            assert res.T_b == 0.0

    def test_flux_conservation_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            k = 10.0 ** rng.uniform(-3, 0)
            d = rng.uniform(-500.0, 10.0)
            kl = 10.0 ** rng.uniform(2, 4)
            res = solve(
                ModeFunction.mesa(kl), k, SystemParams(d, kl, int(rng.integers(0, 4)))
            )
            assert res.flux_sum == pytest.approx(1.0, abs=1e-9)

    def test_reciprocity_of_reversed_profile(self):
        profile = [(40.0, 1.0), (70.0, 0.35)]
        params = SystemParams(-0.2, 110.0, 0)
        fwd = solve(ModeFunction.from_profile(profile), 0.3, params)
        rev = solve(ModeFunction.from_profile(profile[::-1]), 0.3, params)
        assert abs(fwd.t_a) ** 2 == pytest.approx(abs(rev.t_a) ** 2, abs=1e-10)

    def test_nonpositive_k_rejected(self):
        with pytest.raises(DomainError):
            solve(ModeFunction.mesa(10.0), -1.0, SystemParams(0.0, 10.0, 0))


# points of the `oracle-check` default domain: (k, delta/g, n, kappa L)
ORACLE_CHECK_POINTS = st.lists(
    st.tuples(
        st.floats(min_value=-3.0, max_value=0.0).map(lambda e: 10.0 ** e),
        st.floats(min_value=-500.0, max_value=10.0),
        st.integers(min_value=0, max_value=3),
        st.floats(min_value=2.0, max_value=4.0).map(lambda e: 10.0 ** e),
    ),
    min_size=1,
    max_size=16,
)


STEP = ModeFunction.from_profile([(30.0, 1.0), (20.0, 0.6)])


def step_batch(k, params):
    x, kb_real = oracle._solve_stack(STEP.segments, k, params)
    return oracle._result(k, kb_real, x[:, 0], x[:, 1], x[:, -2], x[:, -1])


# (mode of one point, batch over all points)
BATCHES = {
    "mesa": (lambda p: ModeFunction.mesa(p.coupling_length), solve_mesa),
    "step": (lambda p: STEP, step_batch),
}


def bits(z):
    return np.ascontiguousarray(z, dtype=complex).view(float)


class TestStackedSolve:
    @pytest.mark.parametrize("mode", BATCHES)
    @given(points=ORACLE_CHECK_POINTS)
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_per_point_solve(self, mode, points):
        mode_of, batch = BATCHES[mode]
        k = np.array([p[0] for p in points])
        params = [SystemParams(d, kl, n) for _, d, n, kl in points]
        try:
            ones = [solve(mode_of(p), float(ki), p) for ki, p in zip(k, params)]
        except oracle.OracleSolveError as exc:
            # the basis is singular at a channel threshold, e.g. k = 1, delta = 0, n = 0
            with pytest.raises(oracle.OracleSolveError) as batch_exc:
                batch(k, params)
            assert str(batch_exc.value) == str(exc)
            return
        res = batch(k, params)
        for i, one in enumerate(ones):
            assert np.array_equal(bits([res.t_a[i], res.t_b[i]]), bits([one.t_a, one.t_b]))
            # the fluxes go through numpy's abs here, Python's in `solve`
            assert res.T_b[i] == pytest.approx(one.T_b, rel=1e-14, abs=1e-300)
            assert res.flux_sum[i] == pytest.approx(one.flux_sum, rel=1e-14)

    def test_first_ill_conditioned_point_is_reported(self, monkeypatch):
        # boundary-system condition numbers about 7, 850, 7 and 870
        points = [(0.05, -1.0, 0, 100.0), (0.01, -300.0, 0, 100.0),
                  (0.05, -1.0, 2, 100.0), (0.05, -300.0, 0, 5000.0)]
        k = np.array([p[0] for p in points])
        params = [SystemParams(d, kl, n) for _, d, n, kl in points]
        solve_mesa(k, params)  # all four pass the default limit
        monkeypatch.setattr(oracle, "CONDITION_LIMIT", 100.0)
        with pytest.raises(oracle.OracleSolveError) as exc:
            solve(ModeFunction.mesa(100.0), 0.01, params[1])
        with pytest.raises(oracle.OracleSolveError) as batch_exc:
            solve_mesa(k, params)
        assert str(batch_exc.value) == str(exc.value)
        assert "k=0.01, params=SystemParams(detuning_ratio=-300.0" in str(exc.value)

    def test_rejects_mismatched_or_nonpositive_points(self):
        params = SystemParams(0.0, 10.0, 0)
        with pytest.raises(ValueError):
            solve_mesa(np.array([0.1, 0.2]), [params])
        with pytest.raises(DomainError):
            solve_mesa(np.array([0.1, 0.0]), [params] * 2)


class TestConvergence:
    def test_mesa_levels_identical(self):
        vals = convergence_check(
            ModeFunction.mesa(KL), 0.05, SystemParams(0.0, KL, 0), 3
        )
        assert len(vals) == 4
        assert max(vals) - min(vals) < 1e-12

    def test_step_mode_levels_identical(self):
        mode = ModeFunction.from_profile([(30.0, 1.0), (20.0, 0.6)])
        vals = convergence_check(mode, 0.2, SystemParams(-1.0, 50.0, 1), 3)
        assert max(vals) - min(vals) < 1e-12

    def test_resonance_peak_matches_closed_form(self):
        from mazer.ultracold import catalog_in_window

        params = SystemParams(0.0, KL, 0)
        peak = catalog_in_window(params, 0.05)[0]
        k = peak.position
        vals = convergence_check(ModeFunction.mesa(KL), k, params, 2)
        closed = scatter(k, params)
        for v in vals:
            assert abs(v - closed.T_a) < 1e-9

    def test_invalid_refinements_rejected(self):
        with pytest.raises(DomainError):
            convergence_check(
                ModeFunction.mesa(10.0), 0.1, SystemParams(0.0, 10.0, 0), 0
            )


def test_oracle_is_independent_of_the_closed_forms():
    # the oracle referees the closed forms, so it may share only the
    # parameter container and the error type with them
    from mazer import core, oracle, scattering

    for name, value in vars(oracle).items():
        assert value is not scattering, name
        module = getattr(value, "__module__", None)
        assert module != scattering.__name__, name
        if module == core.__name__:
            assert not value.__name__.startswith("_"), name
