"""Induced emission, beam-averaged emission, stationary photon statistics."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mazer.pump as pump
import mazer.ultracold as ultracold
from mazer.core import DomainError, SystemParams
from mazer.oracle import ModeFunction, solve
from mazer.pump import (
    ConfigurationError,
    PhotonDistribution,
    PumpParams,
    mean_p_em,
    stationary_distribution,
    thermal_distribution,
)
from mazer.scattering import DegeneracyError
from mazer.selection import maxwell_boltzmann_initial
from mazer.ultracold import _p_em_array, p_em_ultracold

KL200 = 200.0 * math.pi


class TestValidation:
    def test_pump_params_rejects_bad_values(self):
        with pytest.raises(DomainError):
            PumpParams(thermal_photons=-0.1, pump_ratio=1.0)
        with pytest.raises(DomainError):
            PumpParams(thermal_photons=0.1, pump_ratio=-1.0)
        with pytest.raises(DomainError):
            PumpParams(thermal_photons=0.1, pump_ratio=1.0, truncation=0)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                PumpParams(thermal_photons=bad, pump_ratio=1.0)
            with pytest.raises(DomainError):
                PumpParams(thermal_photons=0.1, pump_ratio=bad)

    def test_photon_distribution_rejects_bad_values(self):
        with pytest.raises(DomainError):
            PhotonDistribution(probabilities=(0.5, 0.6))
        with pytest.raises(DomainError):
            PhotonDistribution(probabilities=(1.2, -0.2))
        for probs in ((math.nan,), (1.0, math.nan), (math.inf, -math.inf)):
            with pytest.raises(DomainError):
                PhotonDistribution(probabilities=probs)

    def test_photon_distribution_mean(self):
        dist = PhotonDistribution(probabilities=(0.25, 0.5, 0.25))
        assert dist.n_max == 2
        assert dist.mean() == pytest.approx(1.0)


class TestPEmUltracold:
    def test_closed_channel_is_zero(self):
        params = SystemParams(0.05, KL200, 0)
        for k in (0.01, 0.1, 0.2):
            assert p_em_ultracold(k, params) == 0.0

    def test_bounded_probability(self):
        params = SystemParams(0.002, KL200, 0)
        for k in np.linspace(0.005, 0.15, 400):
            v = p_em_ultracold(float(k), params)
            assert 0.0 <= v <= 1.0 + 1e-9

    def test_matches_oracle_b_flux(self):
        # Flux balance: the emission probability is the total flux leaving
        # in the lower state (transmitted plus reflected), which equals
        # 1 - |r_a|^2 - |t_a|^2 of the boundary-matching solution.
        params = SystemParams(0.002, KL200, 0)
        mode = ModeFunction.mesa(KL200)
        worst = 0.0
        for k in np.linspace(0.05, 0.1, 120):
            o = solve(mode, float(k), params)
            ref = 1.0 - abs(o.r_a) ** 2 - abs(o.t_a) ** 2
            worst = max(worst, abs(p_em_ultracold(float(k), params) - ref))
        assert worst < 2e-3

    def test_nonpositive_k_rejected(self):
        with pytest.raises(DomainError):
            p_em_ultracold(0.0, SystemParams(0.0, KL200, 0))


def assert_array_matches_scalar(ks, params):
    values = _p_em_array(np.array(ks), params)
    for k, v in zip(ks, values.tolist()):
        assert repr(p_em_ultracold(k, params)) == repr(v)


class TestPEmArray:
    # the domains of TestTransmissions in test_scattering.py
    @given(
        ks=st.lists(
            st.floats(min_value=-3.0, max_value=0.0).map(lambda e: 10.0 ** e),
            min_size=1, max_size=16,
        ),
        delta=st.floats(min_value=-500.0, max_value=10.0),
        n=st.integers(min_value=0, max_value=3),
        kl=st.floats(min_value=2.0, max_value=4.0).map(lambda e: 10.0 ** e),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_on_oracle_check_domain(self, ks, delta, n, kl):
        assert_array_matches_scalar(ks, SystemParams(delta, kl, n))

    @given(
        ks=st.lists(
            st.floats(min_value=1e-4, max_value=0.2), min_size=1, max_size=16
        ),
        delta=st.floats(min_value=-0.002, max_value=0.005),
        n=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_on_fig4_domain(self, ks, delta, n):
        assert_array_matches_scalar(ks, SystemParams(delta, KL200, n))

    @pytest.mark.parametrize(
        "params",
        [SystemParams(0.05, KL200, 0), SystemParams(0.005, KL200, 7)],
    )
    def test_closed_b_channel_gives_exactly_zero(self, params):
        ks = np.linspace(1e-3, math.sqrt(params.detuning_ratio), 400)[:-1]
        assert np.all(_p_em_array(ks, params) == 0.0)

    def test_degenerate_point_raises(self, monkeypatch):
        # channel b is closed at ks[0] and open at ks[3]: a degenerate
        # denominator is an error where b is open and gives 0 where closed
        params = SystemParams(0.002, KL200, 2)
        ks = np.linspace(0.01, 0.15, 7)
        real_inverse = ultracold._inverse_denominator

        # each poison hits the point ks[index], in the block of seven and alone
        def degenerate_at(index):
            def poisoned(k, p, channels):
                inv_d, nondegenerate = real_inverse(k, p, channels)
                nondegenerate = nondegenerate & (k != ks[index])
                return np.where(nondegenerate, inv_d, np.nan), nondegenerate

            return poisoned

        monkeypatch.setattr(ultracold, "_inverse_denominator", degenerate_at(3))
        with pytest.raises(DegeneracyError):
            _p_em_array(ks, params)
        with pytest.raises(DegeneracyError):
            p_em_ultracold(float(ks[3]), params)
        monkeypatch.setattr(ultracold, "_inverse_denominator", degenerate_at(0))
        values = _p_em_array(ks, params)
        assert values[0] == 0.0 and np.all(np.isfinite(values))
        assert p_em_ultracold(float(ks[0]), params) == 0.0


class TestMeanPEm:
    def test_narrow_spike_sifts_the_kernel(self):
        # distribution supported on a 6e-4 wide window: the average equals
        # the dense trapezoid of kernel * density over the same window
        grid = np.linspace(0.0497, 0.0503, 2001)
        base = SystemParams(0.0, KL200, 0)
        init = maxwell_boltzmann_initial(0.05, grid)
        (value,) = mean_p_em([0], init, base)
        dens = np.asarray(init.density)
        kern = np.array([p_em_ultracold(float(k), base) for k in grid])
        ref = np.trapezoid(kern * dens, grid)
        assert value == pytest.approx(ref, abs=1e-5)

    def test_closed_channel_averages_to_zero(self):
        grid = np.linspace(0.0, 0.2, 801)
        init = maxwell_boltzmann_initial(0.05, grid)
        base = SystemParams(0.05, KL200, 0)  # b closed over the whole support
        assert mean_p_em([0], init, base) == [0.0]

    def test_self_convergence_under_tighter_quadrature(self, monkeypatch):
        grid = np.linspace(0.0, 0.2, 1001)
        init = maxwell_boltzmann_initial(0.05, grid)
        base = SystemParams(0.0, KL200, 0)
        (coarse,) = mean_p_em([0], init, base)
        monkeypatch.setattr(pump, "QUAD_ABS_TOL", 1e-10)
        (fine,) = mean_p_em([0], init, base)
        assert 0.0 < coarse < 1.0
        assert abs(coarse - fine) < 1e-6

    def test_unnormalized_distribution_rejected(self):
        from mazer.selection import VelocityDistribution

        bad = VelocityDistribution(grid=(0.0, 0.1, 0.2), density=(0.0, 1.0, 0.0))
        with pytest.raises(DomainError):
            mean_p_em([0], bad, SystemParams(0.0, KL200, 0))

    def test_nan_emission_raises(self, monkeypatch):
        nan_kernel = lambda params: lambda k, owner: np.full_like(k, np.nan)
        monkeypatch.setattr(pump, "_p_em_by_owner", nan_kernel)
        init = maxwell_boltzmann_initial(0.05, np.linspace(0.0, 0.2, 1001))
        with pytest.raises(ArithmeticError, match="n=3"):
            mean_p_em([3], init, SystemParams(0.0, KL200, 0))

    def test_integrand(self, monkeypatch):
        # delta/g = 0.002 closes channel b below k = 0.0447
        ns = (3, 5)
        init = maxwell_boltzmann_initial(0.05, np.linspace(0.0, 0.2, 1001))
        integrands = []

        def capture(f, problems):
            integrands.append(f)
            return [SimpleNamespace(value=0.0, abserr=0.0, ier=0)] * len(problems)

        monkeypatch.setattr(pump, "qagp", capture)
        mean_p_em(ns, init, SystemParams(0.002, KL200, 0))
        (integrand,) = integrands
        # the last point lies past the grid, where the beam has no atoms
        ks = np.append(np.linspace(0.01, 0.15, 57), 0.25)
        w = init.density_at(ks)
        inside = w > 0.0
        assert not inside[-1] and inside[:-1].all()
        # point i belongs to the integral of ns[owner[i]]
        owner = np.arange(ks.size) % 2
        values = integrand(ks, owner)
        assert np.all(values[~inside] == 0.0)
        for j, n in enumerate(ns):
            params = SystemParams(0.002, KL200, n)
            mine = inside & (owner == j)
            p_em = _p_em_array(ks[mine], params)
            assert np.array_equal(values[mine], w[mine] * p_em)
            for k, u in zip(ks[mine].tolist(), p_em.tolist()):
                assert repr(u) == repr(p_em_ultracold(k, params))

    @pytest.mark.parametrize("delta", [-0.002, 0.0, 0.002, 0.005])
    def test_lockstep_matches_one_photon_number_at_a_time(self, delta):
        # the fig-4 config: every n takes the steps and the bits it takes alone
        init = maxwell_boltzmann_initial(0.05, np.linspace(0.0, 0.2, 1001))
        base = SystemParams(delta, KL200, 0)
        alone = [mean_p_em([n], init, base)[0] for n in range(65)]
        assert mean_p_em(range(65), init, base) == alone

    def test_node_budget_bounds_the_first_pass(self, monkeypatch):
        # at kappa L = 25000 one photon number needs up to 9,954 first-pass nodes
        init = maxwell_boltzmann_initial(0.05, np.linspace(0.0, 0.2, 1001))
        batches = []

        def spy(f, problems):
            batches.append([21 * (len(p.points) + 1) for p in problems])
            return [SimpleNamespace(value=0.5, abserr=0.0, ier=0)] * len(problems)

        monkeypatch.setattr(pump, "qagp", spy)
        assert mean_p_em(range(200), init, SystemParams(0.0, 25000.0, 0)) == [0.5] * 200
        assert sum(map(len, batches)) == 200
        assert max(map(sum, batches)) <= pump.NODE_BUDGET
        # a batch closes only when the next problem would not fit
        for batch, after in zip(batches, batches[1:]):
            assert sum(batch) + after[0] > pump.NODE_BUDGET
        assert max(map(len, batches)) > 1

    def test_subdivision_limit_is_an_error(self, monkeypatch):
        init = maxwell_boltzmann_initial(0.05, np.linspace(0.0, 0.2, 201))
        base = SystemParams(0.002, KL200, 0)
        stopped = SimpleNamespace(value=0.25, abserr=3e-7, ier=1)
        monkeypatch.setattr(pump, "qagp", lambda f, problems: [stopped])
        with pytest.raises(ArithmeticError, match=r"n=2 .*ier=1, abserr=3e-07"):
            mean_p_em([2], init, base)
        # the roundoff flag (ier = 2) is reached on coarse but valid runs
        roundoff = SimpleNamespace(value=0.25, abserr=3e-7, ier=2)
        monkeypatch.setattr(pump, "qagp", lambda f, problems: [roundoff])
        assert mean_p_em([2], init, base) == [0.25]


class TestStationaryDistribution:
    def test_zero_pump_ratio_is_thermal(self):
        n_b = 0.2
        dist = stationary_distribution(
            PumpParams(n_b, 0.0, 32), lambda ns: [0.7] * len(ns)
        )
        ratio = n_b / (1.0 + n_b)
        norm = 1.0 - ratio ** len(dist.probabilities)
        for n, p in enumerate(dist.probabilities):
            expected = (1.0 - ratio) * ratio**n / norm
            assert p == pytest.approx(expected, abs=1e-12)

    def test_zero_emission_is_thermal_for_any_pump(self):
        a = stationary_distribution(
            PumpParams(0.3, 250.0, 32), lambda ns: [0.0] * len(ns)
        )
        b = thermal_distribution(0.3, 32)
        assert np.allclose(a.probabilities, b.probabilities, atol=1e-14)

    def test_normalization_and_tail(self):
        dist = stationary_distribution(
            PumpParams(0.2, 100.0, 16), lambda ns: [0.5 / (n + 1.0) for n in ns]
        )
        assert math.fsum(dist.probabilities) == pytest.approx(1.0, abs=1e-12)
        assert dist.probabilities[-1] < 1e-12

    def test_log_space_matches_direct_product(self):
        n_b, r_c = 0.1, 5.0
        mean_em = lambda ns: [0.3] * len(ns)
        dist = stationary_distribution(PumpParams(n_b, r_c, 50), mean_em)
        n_terms = len(dist.probabilities)
        direct = [1.0]
        for m in range(1, n_terms):
            direct.append(
                direct[-1] * (n_b + r_c * mean_em([m - 1])[0] / m) / (n_b + 1.0)
            )
        direct = np.asarray(direct) / math.fsum(direct)
        assert np.max(np.abs(direct - np.asarray(dist.probabilities))) < 1e-10

    def test_divergent_product_signalled(self):
        # a kernel growing ~n keeps the recursion ratio above 1 forever
        with pytest.raises(ConfigurationError):
            stationary_distribution(
                PumpParams(0.2, 3.0, 16), lambda ns: [float(n) for n in ns]
            )
        # a thermal floor that misses the tail criterion fails before mean_em
        calls = []

        def counting_mean_em(ns):
            calls.append(ns)
            return [0.1] * len(ns)

        with pytest.raises(ConfigurationError):
            stationary_distribution(PumpParams(1e6, 100.0), counting_mean_em)
        assert calls == []

    def test_nan_emission_fails_at_once(self):
        # a nan must not pass for a divergent product after 65,536 calls
        calls = []

        def nan_mean_em(ns):
            calls.append(ns)
            return [math.nan] * len(ns)

        with pytest.raises(ConfigurationError, match="n=0"):
            stationary_distribution(PumpParams(0.2, 100.0, 64), nan_mean_em)
        assert calls == [range(0, 64)]


def test_pump_binds_no_private_kernel_name():
    # P_em and its entry contract live in `ultracold`; `pump` holds the
    # photon statistics and reaches the closed form only through them
    from mazer import core, scattering

    assert not hasattr(pump, "p_em_ultracold")
    for name, value in vars(pump).items():
        assert value is not scattering, name
        module = getattr(value, "__module__", None)
        assert module != scattering.__name__, name
        if module == core.__name__:
            assert not value.__name__.startswith("_"), name
