"""Dressed-state geometry and channel-wavenumber tests."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazer.core import (
    ChannelWavenumbers,
    DomainError,
    SystemParams,
    _Dressed,
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


def wide_domain_points(seed, size):
    """(delta/g, kappa L, n) over the widest cross-check domain, with delta = 0 too."""
    rng = np.random.default_rng(seed)
    delta = rng.uniform(-1e4, 1e3, size)
    delta[::10] = 0.0
    return delta, 10.0 ** rng.uniform(1.0, 6.0, size), rng.integers(0, 51, size)


class TestDressedBuild:
    """`_Dressed.build`: the record of a block of points, with no `SystemParams`."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_rows_are_system_params_attributes(self, seed):
        delta, kl, n = wide_domain_points(seed, 3000)
        record = _Dressed.build(delta, kl, n)
        assert record.size == delta.size
        for i in range(delta.size):
            p = SystemParams(delta[i].item(), kl[i].item(), n[i].item())
            # repr tells every float apart and shows the Python type
            want = repr(tuple(getattr(p, name) for name in _Dressed._fields))
            assert repr(tuple(f[i].item() for f in record)) == want, i
            assert record.params(i) == p
        # stacking the SystemParams of the points gives the same record
        stacked = _Dressed.stack([record.params(i) for i in range(delta.size)])
        for name, built, again in zip(_Dressed._fields, record, stacked):
            assert built.dtype == again.dtype, name
            assert np.array_equal(built, again), name

    def test_scalars_apply_to_every_point(self):
        delta = np.linspace(-5.0, 5.0, 11)
        record = _Dressed.build(delta, 1000.0, 7)
        assert record.size == 11
        full = _Dressed.build(delta, np.full(11, 1000.0), np.full(11, 7))
        assert all(map(np.array_equal, record, full))
        assert record.take(slice(3, 5)).params(1) == SystemParams(delta[4].item(), 1000.0, 7)
        assert _Dressed.build(np.empty(0), 1000.0, 0).size == 0

    @pytest.mark.parametrize(
        "delta, kl, n",
        [
            ([0.0, math.nan, math.inf], [10.0, 10.0, 10.0], [0, 0, 0]),
            ([0.0, 1.0, -math.inf], [10.0, -1.0, 10.0], [0, 0, 0]),
            ([0.0, 1.0, 2.0], [10.0, 10.0, math.inf], [0, 0, -1]),
            ([0.0, 1.0, 2.0], [10.0, 10.0, 10.0], [0, -3, 0]),
            ([0.0, 1.0, 2.0], [10.0, 10.0, 0.0], [0, 0, 0]),
            ([0.0, 1.0, 2.0], [10.0, 10.0, 10.0], [0, math.nan, -1]),
        ],
        ids=[
            "nan-delta", "negative-length", "infinite-length", "negative-n",
            "zero-length", "nan-n",
        ],
    )
    def test_first_invalid_point_raises_its_error(self, delta, kl, n):
        bad = next(
            i for i in range(3)
            if not (math.isfinite(delta[i]) and math.isfinite(kl[i]) and kl[i] > 0.0
                    and n[i] >= 0)
        )
        point = delta[bad], kl[bad], n[bad]
        # the point's SystemParams names it; a nan n, which SystemParams
        # accepts, is named by its values
        try:
            SystemParams(*point)
            want = f"invalid parameters (delta/g, kappa L, n) = {point}"
        except DomainError as e:
            want = str(e)
        with pytest.raises(DomainError, match=f"^{re.escape(want)}$"):
            _Dressed.build(np.array(delta), np.array(kl), np.array(n))

    @given(delta=DETUNINGS, n=PHOTONS)
    def test_dressed_angle_is_the_record_angle(self, delta, n):
        theta = dressed_angle(delta, n)
        assert theta == SystemParams(delta, 1.0, n).theta
        assert theta == _Dressed.build(np.array([delta]), 1.0, n).theta[0]


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
