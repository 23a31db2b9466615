"""Coupled-channel boundary-matching solver: self-tests and cross-checks."""

import math

import numpy as np
import pytest

from mazer.core import DomainError, SystemParams
from mazer.oracle import ModeFunction, convergence_check, solve
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
