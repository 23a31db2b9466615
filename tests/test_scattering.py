"""Closed-form transmission amplitudes: algebraic anchors and oracle equivalence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazer import scattering
from mazer.core import DomainError, SystemParams
from mazer.scattering import (
    DegeneracyError,
    _scatter_matching,
    inverse_denominator,
    resonance_denominator_scales,
    scatter,
    tau_pm,
    transmissions,
)
from mazer.ultracold import loeffler_resonant

KL = 1e3 * math.pi
KL200 = 200.0 * math.pi
PARAMS0 = SystemParams(0.0, KL, 0)

# k at the m-th half-wavelength resonance for delta = 0, n = 0, kappa L = 1e3 pi
def resonant_k(m: int) -> float:
    return math.sqrt((m / 1000.0) ** 2 - 1.0)


class TestTauPm:
    def test_tau_minus_unimodular_at_resonance(self):
        k = resonant_k(1001)
        assert abs(tau_pm("-", k, PARAMS0)) == pytest.approx(1.0, abs=1e-9)

    def test_tau_plus_vanishes_for_long_cavity(self):
        # |Im k_plus| L ~ 3.1e3 >> overflow cutoff: exactly 0 by construction
        assert tau_pm("+", 0.01, PARAMS0) == 0.0

    def test_tau_minus_short_cavity_limit(self):
        params = SystemParams(0.0, 1e-9, 0)
        assert tau_pm("-", 0.05, params) == pytest.approx(1.0, abs=1e-7)

    def test_zero_evaluation_wavenumber_rejected(self):
        with pytest.raises(DomainError):
            tau_pm("-", 0.0, PARAMS0)

    def test_degenerate_threshold_signalled(self):
        # pin tan(theta) to exactly 1 so k_plus^2 = k^2 - 1 vanishes at k = 1
        params = SystemParams(0.0, KL, 0)
        object.__setattr__(params, "tan_theta", 1.0)
        with pytest.raises(DegeneracyError):
            tau_pm("+", 1.0, params)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            tau_pm("x", 0.05, PARAMS0)


class TestResonanceDenominator:
    def test_finite_scales_and_bounded_envelope(self):
        kc, kt = resonance_denominator_scales(0.05, PARAMS0)
        assert np.isfinite([kc.real, kc.imag, kt.real, kt.imag]).all()
        envelope = abs(inverse_denominator(0.05, PARAMS0)) ** 2
        assert 0.0 < envelope <= 1.0 + 1e-12

    def test_finite_at_cot_half_angle_pole(self):
        # k_minus L = 2 m pi is a pole of cot(k_minus L / 2); the cleared
        # form must stay finite there
        k = math.sqrt((1002 / 1000.0) ** 2 - 1.0)  # k_minus L = 2*501*pi
        kc, kt = resonance_denominator_scales(k, PARAMS0)
        assert np.isfinite([kc.real, kc.imag, kt.real, kt.imag]).all()
        env = abs(inverse_denominator(k, PARAMS0)) ** 2
        assert np.isfinite(env)

    def test_envelope_tends_to_one_for_large_detuning(self):
        params = SystemParams(1e6, 1000.0, 0)
        env = abs(inverse_denominator(0.05, params)) ** 2
        assert env == pytest.approx(1.0, abs=1e-3)

    def test_nonpositive_k_rejected(self):
        with pytest.raises(DomainError):
            resonance_denominator_scales(-0.05, PARAMS0)


class TestScatter:
    def test_resonant_peak_height_half(self):
        res = scatter(resonant_k(1001), PARAMS0)
        assert res.T_total == pytest.approx(0.5, abs=1e-6)

    def test_closed_channel_peak_reaches_one(self):
        from mazer.ultracold import catalog_in_window
        from scipy.optimize import minimize_scalar

        params = SystemParams(0.005, KL, 0)
        peaks = [
            p for p in catalog_in_window(params, 0.07) if p.position < math.sqrt(0.005)
        ]
        assert peaks, "expected closed-channel peaks below sqrt(delta/g)"
        peak = peaks[0]
        opt = minimize_scalar(
            lambda q: -scatter(q, params).T_total,
            bounds=(peak.position - 5 * peak.width, peak.position + 5 * peak.width),
            method="bounded",
            options={"xatol": 1e-14},
        )
        assert -opt.fun == pytest.approx(1.0, abs=1e-6)

    def test_closed_channel_t_b_identically_zero(self):
        for k in (0.01, 0.05, 0.070):
            res = scatter(k, SystemParams(0.005, KL, 0))
            assert res.T_b == 0.0

    def test_resonant_reduction_matches_loeffler(self):
        for k in (0.01, 0.03, resonant_k(1001), 0.09):
            res = scatter(k, PARAMS0)
            assert res.T_total == pytest.approx(
                loeffler_resonant(k, KL, 0), abs=1e-6
            )

    def test_transmission_opens_up_at_large_positive_detuning(self):
        res = scatter(0.05, SystemParams(1e6, 1000.0, 0))
        assert res.T_total > 0.999

    def test_threshold_point_finite(self):
        # k_b = 0 exactly; evaluated as the open-side limit
        res = scatter(0.1, SystemParams(0.01, 100.0, 0))
        assert np.isfinite(res.T_total)
        assert -1e-9 <= res.T_total <= 1 + 1e-9

    def test_nonpositive_k_rejected(self):
        with pytest.raises(DomainError):
            scatter(0.0, PARAMS0)

    def test_boundary_matching_fallback_agrees(self):
        for k, d, n, kl in [
            (0.05, 0.0, 0, KL),
            (0.2, -30.0, 3, 500.0),
            (0.9, 5.0, 1, 123.0),
        ]:
            params = SystemParams(d, kl, n)
            a = scatter(k, params)
            b = _scatter_matching(k, params)
            assert a.T_a == pytest.approx(b.T_a, abs=1e-9)
            assert a.T_b == pytest.approx(b.T_b, abs=1e-9)

    def test_oracle_equivalence_sampled_grid(self):
        from mazer.oracle import ModeFunction, solve

        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(100):
            k = 10.0 ** rng.uniform(-3, 0)
            d = rng.uniform(-500.0, 10.0)
            n = int(rng.integers(0, 4))
            kl = 10.0 ** rng.uniform(2, 4)
            params = SystemParams(d, kl, n)
            closed = scatter(k, params)
            o = solve(ModeFunction.mesa(kl), k, params)
            kb2 = k * k - d
            tb = (math.sqrt(kb2) / k) * abs(o.t_b) ** 2 if kb2 > 0 else 0.0
            worst = max(
                worst,
                abs(closed.T_a - abs(o.t_a) ** 2),
                abs(closed.T_b - tb),
            )
        assert worst < 1e-9

    @given(
        k=st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
        delta=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        n=st.integers(min_value=0, max_value=5),
        kl=st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_flux_bound_randomized(self, k, delta, n, kl):
        res = scatter(k, SystemParams(delta, kl, n))
        assert math.isfinite(res.T_total)
        assert -1e-9 <= res.T_a
        assert -1e-9 <= res.T_b
        assert res.T_total <= 1.0 + 1e-9


def assert_matches_scatter(ks, params):
    t_a, t_b = transmissions(np.array(ks), params)
    for k, a, b in zip(ks, t_a, t_b):
        res = scatter(k, params)
        assert abs(a - res.T_a) <= 1e-14
        assert abs(b - res.T_b) <= 1e-14


class TestTransmissions:
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
    def test_matches_scatter_on_oracle_check_domain(self, ks, delta, n, kl):
        assert_matches_scatter(ks, SystemParams(delta, kl, n))

    @given(
        ks=st.lists(
            st.floats(min_value=1e-4, max_value=0.2), min_size=1, max_size=16
        ),
        delta=st.floats(min_value=-0.002, max_value=0.005),
        n=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_scatter_on_fig4_domain(self, ks, delta, n):
        assert_matches_scatter(ks, SystemParams(delta, KL200, n))

    @pytest.mark.parametrize(
        "params",
        [
            SystemParams(0.005, KL, 0),
            SystemParams(0.005, KL200, 7),
            SystemParams(5.0, 1000.0, 2),
        ],
    )
    def test_closed_b_channel_gives_exactly_zero(self, params):
        ks = np.linspace(1e-3, math.sqrt(params.detuning_ratio), 400)[:-1]
        _, t_b = transmissions(ks, params)
        assert np.all(t_b == 0.0)

    def test_keeps_shape_and_rejects_nonpositive_k(self):
        t_a, t_b = transmissions(0.05, PARAMS0)
        assert t_a.shape == t_b.shape == ()
        assert t_a == pytest.approx(scatter(0.05, PARAMS0).T_a, abs=1e-14)
        assert transmissions(np.array([]), PARAMS0)[0].size == 0
        with pytest.raises(DomainError):
            transmissions(np.array([0.05, 0.0]), PARAMS0)

    @pytest.mark.parametrize("poison", ["nan_denominator", "zero_k_plus"])
    def test_untrusted_element_falls_back_alone(self, monkeypatch, poison):
        # zero_k_plus is the degenerate threshold k+ = 0: dividing by it must
        # stay inside the kernel's errstate block (RuntimeWarnings are errors)
        params = SystemParams(0.002, KL200, 2)
        ks = np.linspace(0.01, 0.15, 7)
        clean_a, clean_b = transmissions(ks, params)
        real_inverse = scattering._inverse_denominator
        real_dressed = scattering._dressed_k
        real_matching = scattering._scatter_matching

        def nan_denominator(k, p, ops):
            inv_d, nondegenerate = real_inverse(k, p, ops)
            inv_d = inv_d.copy()
            inv_d[3] = np.nan
            return inv_d, nondegenerate

        def zero_k_plus(sign, k_eval, p, ops):
            kpm = real_dressed(sign, k_eval, p, ops)
            if sign == "+":
                kpm = kpm.copy()
                kpm[3] = 0.0
            return kpm

        matched = []

        def matching(k, p):
            matched.append(k)
            return real_matching(k, p)

        if poison == "nan_denominator":
            monkeypatch.setattr(scattering, "_inverse_denominator", nan_denominator)
        else:
            monkeypatch.setattr(scattering, "_dressed_k", zero_k_plus)
        monkeypatch.setattr(scattering, "_scatter_matching", matching)
        t_a, t_b = transmissions(ks, params)
        assert matched == [ks[3]]
        reference = real_matching(float(ks[3]), params)
        assert (t_a[3], t_b[3]) == (reference.T_a, reference.T_b)
        others = np.arange(len(ks)) != 3
        assert np.array_equal(t_a[others], clean_a[others])
        assert np.array_equal(t_b[others], clean_b[others])
