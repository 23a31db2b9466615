"""Ultracold closed forms, resonance catalog, widths and amplitudes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazer import ultracold
from mazer.core import DomainError, SystemParams, _Dressed
from mazer.scattering import DegeneracyError, scatter
from mazer.ultracold import (
    analytic_position,
    catalog_in_window,
    hot_cold_boundary,
    loeffler_resonant,
    resonance_amplitude,
    resonance_positions,
    transmission_ultracold,
    transmissions_ultracold,
    ultracold_valid,
)

KL = 1e3 * math.pi
KL200 = 200.0 * math.pi
PARAMS0 = SystemParams(0.0, KL, 0)


class TestTransmissionUltracold:
    def test_reduces_to_loeffler_at_zero_detuning(self):
        for k in (0.01, 0.02, 0.0447, 0.09):
            uc = transmission_ultracold(k, PARAMS0)
            assert uc == pytest.approx(
                loeffler_resonant(k, KL, 0), abs=1e-12
            )

    def test_deep_valley_between_peaks(self):
        # midway between resonances the interference factor suppresses T
        uc = transmission_ultracold(0.02, PARAMS0)
        assert uc < 0.01  # two orders below the 0.5 peak height

    def test_validity_flags(self):
        assert ultracold_valid(0.01, PARAMS0)
        assert not ultracold_valid(0.5, PARAMS0)
        assert not ultracold_valid(0.01, SystemParams(0.0, 10.0, 0))
        for k in (-1.0, 0.0, math.nan):
            with pytest.raises(DomainError):
                ultracold_valid(k, PARAMS0)

    def test_agreement_with_exact_in_validity_region(self):
        # The factorized form carries an O(delta/g) relative amplitude error
        # at detuned peak tops; 2e-3 absolute is the honest envelope for
        # delta/g = +/- 0.005 (machine-level at delta = 0, tested above).
        for d in (-0.005, 0.005):
            params = SystemParams(d, KL, 0)
            grid = np.linspace(0.005, 0.09, 700)
            extra = [
                p.position + off * p.width
                for p in catalog_in_window(params, 0.09, 0.005)
                for off in (-1.0, -0.3, 0.0, 0.3, 1.0)
            ]
            worst = 0.0
            for k in np.concatenate([grid, extra]):
                if not ultracold_valid(float(k), params):
                    continue
                diff = abs(
                    transmission_ultracold(float(k), params)
                    - scatter(float(k), params).T_total
                )
                worst = max(worst, diff)
            assert worst < 2e-3

    def test_nonpositive_k_rejected(self):
        with pytest.raises(DomainError):
            transmission_ultracold(0.0, PARAMS0)


def assert_matches_scalar(ks, params):
    values = transmissions_ultracold(np.array(ks), params)
    for k, p, value in zip(ks, params, values.tolist()):
        assert repr(value) == repr(transmission_ultracold(k, p))


class TestStackedTransmissionUltracold:
    """`transmissions_ultracold`, mostly with one params per point."""

    @given(
        points=st.lists(
            st.tuples(
                st.floats(min_value=-3.0, max_value=0.0).map(lambda e: 10.0 ** e),
                st.floats(min_value=-500.0, max_value=10.0),
                st.integers(min_value=0, max_value=3),
                st.floats(min_value=2.0, max_value=4.0).map(lambda e: 10.0 ** e),
            ),
            min_size=1, max_size=16,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_on_oracle_check_domain(self, points):
        params = [SystemParams(d, kl, n) for _, d, n, kl in points]
        assert_matches_scalar([k for k, *_ in points], params)

    def test_matches_scalar_on_fig4_catalogs(self):
        # peak tops and flanks, where the transmission is steepest
        for d in (-0.002, 0.0, 0.002, 0.005):
            for n in (0, 3, 9):
                params = SystemParams(d, KL200, n)
                ks = [
                    p.position + off * p.width
                    for p in catalog_in_window(params, 0.2)
                    for off in (-0.5, 0.0, 0.5)
                ]
                assert ks
                per_point = [params] * len(ks)
                assert_matches_scalar(ks, per_point)
                # one SystemParams for every point gives the same bits
                assert np.array_equal(
                    transmissions_ultracold(np.array(ks), params),
                    transmissions_ultracold(np.array(ks), per_point),
                )

    def test_first_degenerate_point_raises(self, monkeypatch):
        real = ultracold._inverse_denominator

        def degenerate_at_2_and_4(k, p, channels):
            inv_d, nondegenerate = real(k, p, channels)
            nondegenerate = nondegenerate.copy()
            nondegenerate[[2, 4]] = False
            return inv_d, nondegenerate

        monkeypatch.setattr(ultracold, "_inverse_denominator", degenerate_at_2_and_4)
        ks = np.linspace(0.01, 0.05, 5)
        for params in ([PARAMS0] * 5, PARAMS0):
            with pytest.raises(DegeneracyError, match=f"k={ks[2]}$"):
                transmissions_ultracold(ks, params)


class TestLoeffler:
    def test_half_at_resonance(self):
        k = math.sqrt((1001 / 1000.0) ** 2 - 1.0)
        assert loeffler_resonant(k, KL, 0) == pytest.approx(0.5, abs=1e-9)

    def test_short_cavity_formal_limit(self):
        assert loeffler_resonant(0.05, 1e-9, 0) == pytest.approx(0.5, abs=1e-6)

    def test_nonpositive_k_rejected(self):
        with pytest.raises(DomainError):
            loeffler_resonant(-0.1, KL, 0)


class TestResonanceCatalog:
    def test_first_peak_m_1001(self):
        peaks = resonance_positions(PARAMS0, (999, 1002))
        assert [p.index for p in peaks] == [1001, 1002]
        first = peaks[0]
        assert first.position == pytest.approx(
            math.sqrt((1001 / 1000.0) ** 2 - 1.0), rel=1e-14
        )
        assert first.position == pytest.approx(0.04473, abs=5e-6)
        assert not first.refined

    def test_m_1000_has_no_peak(self):
        # radicand vanishes exactly: (m pi / kappa L)^2 = cot(theta)
        assert analytic_position(1000, PARAMS0) is None
        assert resonance_positions(PARAMS0, (1000, 1000)) == []

    def test_index_below_one_rejected(self):
        # the position squares m, so a negative index would alias peak |m|
        for m in (0, -1, -1001):
            with pytest.raises(DomainError, match="resonance index must be >= 1"):
                analytic_position(m, PARAMS0)

    def test_first_index_builds_its_width(self):
        # at large delta/g the lower shift kappa_n^2 cot(theta) -> 0, so peak
        # m = 1 exists; its spacing is to peak 2 alone
        params = SystemParams(1e4, 100.0, 0)
        peaks = resonance_positions(params, (1, 3))
        assert [p.index for p in peaks] == [1, 2, 3]
        assert ultracold._peak_spacing(np.array([1]), params) == [
            analytic_position(2, params) - analytic_position(1, params)
        ]
        for p in peaks:
            assert p.refined and p.position > 0.0
            assert math.isfinite(p.width) and p.width > 0.0

    def test_closed_channel_peaks_refined_with_unit_amplitude(self):
        params = SystemParams(0.005, KL, 0)
        closed = [
            p for p in catalog_in_window(params, 0.09) if p.position < math.sqrt(0.005)
        ]
        assert closed
        for p in closed:
            assert p.refined
            assert p.amplitude == pytest.approx(1.0, abs=1e-6)

    def test_unrefined_peaks_satisfy_half_wavelength_condition(self):
        for p in catalog_in_window(PARAMS0, 0.09):
            assert not p.refined
            k_minus = math.sqrt(p.position**2 + 1.0)
            assert abs(k_minus * KL - p.index * math.pi) < 1e-8

    def test_half_de_broglie_identity(self):
        # L = m * lambda_dB / 2 with lambda_dB = 2 pi / k_minus
        for p in catalog_in_window(PARAMS0, 0.09):
            k_minus = math.sqrt(p.position**2 + 1.0)
            lam = 2.0 * math.pi / k_minus
            assert KL == pytest.approx(p.index * lam / 2.0, rel=1e-12)

    def test_positions_strictly_increasing_with_positive_widths(self):
        peaks = catalog_in_window(PARAMS0, 0.09)
        assert len(peaks) >= 2
        pos = [p.position for p in peaks]
        assert all(a < b for a, b in zip(pos, pos[1:]))
        assert all(p.width > 0.0 for p in peaks)

    def test_amplitude_formula_matches_peak_maximum(self):
        # The amplitude formula is a leading-order form: its error grows
        # linearly with the detuning (~4e-4 per 1e-3 of delta/g)
        for d, tol in ((0.0, 1e-9), (-0.001, 1e-3), (0.001, 1e-3), (-0.003, 2e-3)):
            params = SystemParams(d, KL, 0)
            for p in catalog_in_window(params, 0.07)[:3]:
                predicted = resonance_amplitude(p.position, params)
                assert predicted == pytest.approx(p.amplitude, abs=tol)

    def test_invalid_index_rejected(self):
        with pytest.raises(DomainError):
            resonance_positions(PARAMS0, (0, 2))

    def test_negative_k_min_keeps_every_peak(self):
        # positions are > 0, so any k_min <= 0 gives the same window
        below = catalog_in_window(PARAMS0, 0.1, -0.09)
        assert [p.index for p in below] == [1001, 1002, 1003, 1004]
        assert below == catalog_in_window(PARAMS0, 0.1, 0.0)

    def test_window_widths_only_for_kept_peaks(self, monkeypatch):
        # the width step receives one position per kept peak, in one call
        real = ultracold._widths
        positions = []

        def counting(t, position, half, spacing):
            positions.append(position.copy())
            return real(t, position, half, spacing)

        monkeypatch.setattr(ultracold, "_widths", counting)
        peaks = catalog_in_window(SystemParams(0.002, 200.0 * math.pi, 0), 0.2)
        assert peaks
        assert [p.tolist() for p in positions] == [[p.position for p in peaks]]


class TestResonanceAmplitude:
    def test_resonant_amplitude_half(self):
        assert resonance_amplitude(0.0447, PARAMS0) == pytest.approx(0.5, rel=1e-12)

    def test_closed_channel_amplitude_one(self):
        params = SystemParams(0.005, KL, 0)
        assert resonance_amplitude(0.05, params) == 1.0

    def test_detuning_sweep_has_maximum_near_channel_closing(self):
        deltas = np.linspace(-0.01, 0.01, 201)
        amps = []
        for d in deltas:
            params = SystemParams(float(d), KL, 0)
            pos = analytic_position(1001, params)
            if pos is None:
                amps.append(np.nan)
                continue
            amps.append(resonance_amplitude(pos, params))
        amps = np.asarray(amps)
        # closed-b-channel region reaches 1; far negative detuning is lower
        assert np.nanmax(amps) == pytest.approx(1.0, abs=1e-12)
        boundary = 0.0447**2  # delta above which the 1001st peak closes
        assert deltas[int(np.nanargmax(amps))] >= boundary - 1e-3
        # most negative detuning with an existing peak sits well below 1/2
        finite = amps[np.isfinite(amps)]
        assert finite[0] < 0.5

    def test_nonpositive_position_rejected(self):
        with pytest.raises(DomainError):
            resonance_amplitude(0.0, PARAMS0)


class TestHotColdBoundary:
    def test_quoted_values(self):
        assert hot_cold_boundary(0.05, 0) == pytest.approx(-400.0)
        assert hot_cold_boundary(0.01, 0) == pytest.approx(-1e4)
        assert hot_cold_boundary(0.05, 3) == pytest.approx(-1600.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hot_cold_boundary(0.0, 0)
        for n in (-1, 1.5, math.nan):
            with pytest.raises(DomainError):
                hot_cold_boundary(0.05, n)


def unresolved(peaks):
    """(peaks, peaks whose width is not resolved)."""
    return len(peaks), sum(not p.resolved for p in peaks)


class TestResolvedWidths:
    @pytest.mark.parametrize(
        "kl, count", [(KL200, 3), (KL, 15), (1e5, 498)], ids=["200pi", "1000pi", "1e5"]
    )
    def test_every_width_merges_at_large_negative_detuning(self, kl, count):
        # at delta/g = -1 each peak is wider than its spacing
        peaks = catalog_in_window(SystemParams(-1.0, kl, 0), 0.2)
        assert unresolved(peaks) == (count, count)
        for p in peaks:
            assert p.width > 0.0

    def test_first_indices_at_large_detuning_are_unresolved(self):
        peaks = resonance_positions(SystemParams(1e4, 100.0, 0), (1, 3))
        assert unresolved(peaks) == (3, 3)

    @pytest.mark.parametrize(
        "params, k_max",
        [(SystemParams(0.002, KL200, 0), 0.2), (SystemParams(0.005, KL, 0), 0.1)],
        ids=["fig4", "refined"],
    )
    def test_sharp_peaks_are_resolved(self, params, k_max):
        peaks = catalog_in_window(params, k_max)
        assert peaks and unresolved(peaks)[1] == 0


class TestCatalogAnchors:
    """Peaks as the earlier scalar Brent chain printed them, to its tolerances."""

    def test_open_channel_peak(self):
        (peak,) = [
            p for p in catalog_in_window(SystemParams(0.002, KL200, 3), 0.2)
            if p.index == 283
        ]
        assert not peak.refined and peak.resolved
        # the analytic position keeps its bits; the width is within both
        # root finders' tolerances together
        assert peak.position == 0.056786882288218515
        width = 0.0051507368046607022
        assert abs(peak.width - width) <= 4.0 * (1e-16 + 1e-14 * peak.position)

    def test_refined_peak(self):
        (peak,) = resonance_positions(SystemParams(0.005, KL, 0), (999, 999))
        assert peak.refined and peak.resolved
        assert peak.position == pytest.approx(0.023218185909824513, rel=3e-8, abs=0.0)
        assert peak.width == pytest.approx(0.00067655566587235955, rel=1e-5, abs=0.0)


class TestBatchIndependence:
    """A catalog built in a batch is, bit for bit, the catalog built alone."""

    @pytest.mark.parametrize("delta", [-0.002, 0.0, 0.002, 0.005])
    def test_fig4_photon_numbers(self, delta):
        params = [SystemParams(delta, KL200, n) for n in range(65)]
        batch = ultracold._catalogs_in_window(params, 0.2, 1e-12)
        assert repr(batch) == repr([catalog_in_window(p, 0.2, 1e-12) for p in params])

    def test_long_cavity_mixed_with_short(self):
        # params with over 100 peaks in a batch with ones of a few peaks
        params = [
            SystemParams(0.002, 25000.0, 0),
            *(SystemParams(0.005, KL200, n) for n in (0, 7)),
            SystemParams(0.005, 25000.0, 2),
        ]
        batch = ultracold._catalogs_in_window(params, 0.2, 1e-12)
        assert len(batch[0]) > 100 and len(batch[1]) < 10
        assert repr(batch) == repr([catalog_in_window(p, 0.2, 1e-12) for p in params])

    def test_peak_positions_over_a_detuning_sweep(self):
        deltas = np.linspace(-0.01, 0.01, 2001)
        batch = ultracold._peak_positions(1001, _Dressed.build(deltas, KL, 0))
        for i in range(0, 2001, 40):
            alone = ultracold.peak_position(1001, SystemParams(deltas[i].item(), KL, 0))
            assert (math.isnan(batch[i]) and alone is None) or batch[i] == alone
