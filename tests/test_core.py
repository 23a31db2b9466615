"""Dressed-state geometry and channel-wavenumber tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazer.core import (
    ChannelWavenumbers,
    DomainError,
    SystemParams,
    channel_wavenumbers,
    dressed_angle,
)

DETUNINGS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
PHOTONS = st.integers(min_value=0, max_value=50)


class TestDressedAngle:
    def test_resonance_is_quarter_pi(self):
        for n in (0, 1, 5, 17):
            assert dressed_angle(0.0, n) == pytest.approx(math.pi / 4, abs=1e-15)

    def test_detuning_two_photon_zero(self):
        # cot(2 theta) = -1 forces 2 theta = 3 pi / 4
        assert dressed_angle(2.0, 0) == pytest.approx(3 * math.pi / 8, abs=1e-14)

    def test_large_positive_detuning_limit(self):
        assert dressed_angle(1e6, 0) == pytest.approx(math.pi / 2, abs=1e-5)

    def test_large_negative_detuning_limit(self):
        assert dressed_angle(-1e6, 0) == pytest.approx(0.0, abs=1e-5)

    def test_negative_photon_number_rejected(self):
        with pytest.raises(DomainError):
            dressed_angle(0.0, -1)

    @given(delta=DETUNINGS, n=PHOTONS)
    def test_angle_in_open_interval(self, delta, n):
        theta = dressed_angle(delta, n)
        assert 0.0 < theta < math.pi / 2

    @given(delta=DETUNINGS, n=PHOTONS)
    def test_defining_identity(self, delta, n):
        theta = dressed_angle(delta, n)
        # cot(2 theta) + delta / (2 sqrt(n+1)) = 0
        c = delta / (2.0 * math.sqrt(n + 1))
        resid = 1.0 / math.tan(2.0 * theta) + c
        # d(cot)/d(angle) = -(1 + cot^2): the identity can only hold to
        # 1e-12 relative to that conditioning factor
        assert abs(resid) < 1e-12 * (1.0 + c * c)

    @given(
        d1=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        d2=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        n=PHOTONS,
    )
    def test_monotone_in_detuning(self, d1, d2, n):
        # well-separated detunings; adjacent floats may round to one angle
        if abs(d1 - d2) <= 1e-6 * max(1.0, abs(d1), abs(d2)):
            return
        lo, hi = sorted((d1, d2))
        assert dressed_angle(lo, n) < dressed_angle(hi, n)


class TestSystemParams:
    def test_derived_quantities(self):
        p = SystemParams(0.0, 100.0, 3)
        assert p.rabi_ratio == pytest.approx(4.0)
        assert p.kappa_n == pytest.approx(4.0**0.25)
        assert p.theta == pytest.approx(math.pi / 4)
        assert p.cot_theta == pytest.approx(1.0)
        assert p.tan_theta == pytest.approx(1.0)

    # the oracle-check sampling domain
    @given(
        delta=st.floats(min_value=-500.0, max_value=10.0, allow_nan=False),
        kl=st.floats(min_value=1e2, max_value=1e4, allow_nan=False),
        n=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=200)
    def test_dressed_state_set_at_construction(self, delta, kl, n):
        p = SystemParams(delta, kl, n)
        theta = dressed_angle(delta, n)
        expected = {
            "rabi_ratio": 2.0 * math.sqrt(n + 1.0),
            "kappa_n": (n + 1.0) ** 0.25,
            "theta": theta,
            "tan_theta": math.tan(theta),
            "cot_theta": 1.0 / math.tan(theta),
            "cos2_theta": math.cos(theta) ** 2,
            "sin2_theta": math.sin(theta) ** 2,
            "shift_plus": math.sqrt(n + 1.0) * math.tan(theta),
            "shift_minus": math.sqrt(n + 1.0) * (1.0 / math.tan(theta)),
        }
        # present in the instance before any of them is read, and bit-identical
        assert {name: vars(p)[name] for name in expected} == expected
        twin = SystemParams(delta, kl, n)
        assert twin == p and hash(twin) == hash(p)
        assert repr(p) == (
            f"SystemParams(detuning_ratio={delta!r}, coupling_length={kl!r}, "
            f"photon_number={n!r})"
        )

    def test_invalid_length_rejected(self):
        with pytest.raises(DomainError):
            SystemParams(0.0, 0.0, 0)
        with pytest.raises(DomainError):
            SystemParams(0.0, -1.0, 0)
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError):
                SystemParams(0.0, bad, 0)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                SystemParams(bad, 1000.0, 0)

    def test_invalid_photon_number_rejected(self):
        with pytest.raises(DomainError):
            SystemParams(0.0, 1.0, -2)


class TestChannelWavenumbers:
    def test_resonant_open_channel(self):
        cw = channel_wavenumbers(0.05, SystemParams(0.0, 1000.0, 0))
        assert cw.k_b == pytest.approx(0.05)
        assert cw.k_minus == pytest.approx(math.sqrt(1.0025), rel=1e-14)
        assert cw.b_channel_open

    def test_closed_channel_imaginary_kb(self):
        cw = channel_wavenumbers(0.1, SystemParams(0.02, 1000.0, 0))
        assert cw.k_b == pytest.approx(0.1j)
        assert not cw.b_channel_open

    def test_closed_channel_small_detuning(self):
        cw = channel_wavenumbers(0.05, SystemParams(0.005, 1000.0, 0))
        assert cw.k_b == pytest.approx(0.05j)
        assert not cw.b_channel_open

    def test_nonpositive_k_rejected(self):
        with pytest.raises(DomainError):
            channel_wavenumbers(0.0, SystemParams(0.0, 1.0, 0))
        with pytest.raises(DomainError):
            channel_wavenumbers(-0.1, SystemParams(0.0, 1.0, 0))

    @given(
        k=st.floats(min_value=1e-4, max_value=10.0, allow_nan=False),
        delta=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        n=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=200)
    def test_branch_and_ordering_invariants(self, k, delta, n):
        params = SystemParams(delta, 100.0, n)
        cw = channel_wavenumbers(k, params)
        s = math.sqrt(n + 1)
        # k_minus real and >= k
        assert cw.k_minus >= k
        # Im >= 0 branch on every complex wavenumber
        assert cw.k_b.imag >= 0.0
        assert cw.k_plus.imag >= 0.0
        # squaring reproduces the defining expressions
        for val, target in (
            (cw.k_b, k * k - delta),
            (cw.k_plus, k * k - s * params.tan_theta),
            (complex(cw.k_minus), k * k + s * params.cot_theta),
        ):
            sq = val * val
            scale = max(1.0, abs(target))
            assert abs(sq.real - target) < 1e-12 * scale
            assert abs(sq.imag) < 1e-12 * scale
        # openness flag consistent with real positive k_b
        assert cw.b_channel_open == (cw.k_b.imag == 0.0 and cw.k_b.real > 0.0)
