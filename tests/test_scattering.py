"""Closed-form transmission amplitudes: algebraic anchors and oracle equivalence."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mazer import scattering
from mazer.core import (
    DomainError,
    SystemParams,
    _channels,
    _Dressed,
    _is_open,
    channel_wavenumbers,
)
from mazer.scattering import (
    ARRAY_BLOCK,
    DegeneracyError,
    _inverse_denominator,
    _scatter_matching,
    _tau,
    inverse_denominator,
    scatter,
    tau_pm,
    transmissions,
)
from mazer.ultracold import (
    _p_em_array,
    _resonance_amplitudes,
    hot_cold_boundary,
    loeffler_resonant,
    p_em_ultracold,
    resonance_amplitude,
    transmission_ultracold,
    transmissions_ultracold,
)

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
        # pin the k^2 shift to exactly 1 so k_plus^2 = k^2 - 1 vanishes at k = 1
        params = SystemParams(0.0, KL, 0)
        object.__setattr__(params, "shift_plus", 1.0)
        with pytest.raises(DegeneracyError):
            tau_pm("+", 1.0, params)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            tau_pm("x", 0.05, PARAMS0)


class TestResonanceDenominator:
    def test_finite_scales_and_bounded_envelope(self):
        envelope = abs(inverse_denominator(0.05, PARAMS0)) ** 2
        assert 0.0 < envelope <= 1.0 + 1e-12

    def test_finite_at_cot_half_angle_pole(self):
        # k_minus L = 2 m pi is a pole of cot(k_minus L / 2); the cleared
        # form must stay finite there
        k = math.sqrt((1002 / 1000.0) ** 2 - 1.0)  # k_minus L = 2*501*pi
        env = abs(inverse_denominator(k, PARAMS0)) ** 2
        assert np.isfinite(env)

    def test_envelope_tends_to_one_for_large_detuning(self):
        params = SystemParams(1e6, 1000.0, 0)
        env = abs(inverse_denominator(0.05, params)) ** 2
        assert env == pytest.approx(1.0, abs=1e-3)

    def test_nonpositive_k_rejected(self):
        with pytest.raises(DomainError):
            inverse_denominator(-0.05, PARAMS0)


class TestScatter:
    def test_nan_wavenumber_rejected(self):
        for fn in (scatter, inverse_denominator, transmission_ultracold,
                   p_em_ultracold, channel_wavenumbers, transmissions):
            with pytest.raises(DomainError):
                fn(math.nan, PARAMS0)
        with pytest.raises(DomainError):
            tau_pm("-", math.nan, PARAMS0)

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
    for k, a, b in zip(ks, t_a.tolist(), t_b.tolist()):
        res = scatter(k, params)
        assert repr((a, b)) == repr((res.T_a, res.T_b))


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
    # a small T_b whose array and scalar values once differed by 1.31e-14 relative
    @example(ks=[0.3], delta=np.linspace(-50, 50, 3001)[119], n=3, kl=5000.0)
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
        assert t_a == scatter(0.05, PARAMS0).T_a
        assert transmissions(np.array([]), PARAMS0)[0].size == 0
        assert transmissions(np.array([]), [])[1].size == 0
        assert transmissions_ultracold(0.05, PARAMS0).shape == ()
        with pytest.raises(DomainError):
            transmissions(np.array([0.05, 0.0]), PARAMS0)

    @pytest.mark.parametrize("poison", ["nan_denominator", "zero_k_plus"])
    def test_untrusted_element_falls_back_alone(self, monkeypatch, poison):
        # zero_k_plus is the degenerate threshold k+ = 0: dividing by it must
        # stay inside the kernel's errstate block (RuntimeWarnings are errors)
        params = SystemParams(0.002, KL200, 2)
        ks = np.linspace(0.01, 0.15, 7)
        clean_a, clean_b = transmissions(ks, params)
        # the same object once per point takes the stacked path, bit for bit
        per_point = [params] * len(ks)
        stacked_a, stacked_b = transmissions(ks, per_point)
        assert np.array_equal(stacked_a, clean_a)
        assert np.array_equal(stacked_b, clean_b)
        real_inverse = scattering._inverse_denominator
        real_channels = scattering._channels
        real_matching = scattering._scatter_matching

        # each poison hits the point ks[3], in the block of seven and alone
        def nan_denominator(k, p, channels):
            inv_d, nondegenerate = real_inverse(k, p, channels)
            return np.where(k == ks[3], np.nan, inv_d), nondegenerate

        def zero_k_plus(k, p):
            k_b, k_minus, k_plus = real_channels(k, p)
            return k_b, k_minus, np.where(k == ks[3], 0j, k_plus)

        matched = []

        def matching(k, p):
            matched.append(k)
            return real_matching(k, p)

        if poison == "nan_denominator":
            monkeypatch.setattr(scattering, "_inverse_denominator", nan_denominator)
        else:
            monkeypatch.setattr(scattering, "_channels", zero_k_plus)
        monkeypatch.setattr(scattering, "_scatter_matching", matching)
        # a single SystemParams is read as it is, never stacked
        stacked = []
        real_stack = scattering._Dressed.stack
        monkeypatch.setattr(
            scattering._Dressed, "stack", lambda ps: stacked.append(ps) or real_stack(ps)
        )
        reference = real_matching(float(ks[3]), params)
        others = np.arange(len(ks)) != 3
        for given in (params, per_point):
            matched.clear()
            stacked.clear()
            t_a, t_b = transmissions(ks, given)
            assert matched == [ks[3]]
            assert stacked == ([] if given is params else [per_point])
            assert (t_a[3], t_b[3]) == (reference.T_a, reference.T_b)
            assert np.array_equal(t_a[others], clean_a[others])
            assert np.array_equal(t_b[others], clean_b[others])
        # the scalar path falls back the same way, once
        matched.clear()
        res = scatter(float(ks[3]), params)
        assert matched == [ks[3]]
        assert (res.T_a, res.T_b) == (reference.T_a, reference.T_b)


class TestStackedTransmissions:
    """`transmissions` with one params per point, stacked by `_Dressed.stack`;
    the points of `oracle-check` and of every `transmission` sweep take this path."""

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
    def test_matches_scatter_on_oracle_check_domain(self, points):
        params = [SystemParams(d, kl, n) for _, d, n, kl in points]
        t_a, t_b = transmissions(np.array([p[0] for p in points]), params)
        for (k, *_), p, a, b in zip(points, params, t_a.tolist(), t_b.tolist()):
            res = scatter(k, p)
            assert repr((a, b)) == repr((res.T_a, res.T_b))

    def test_untrusted_element_falls_back_alone(self, monkeypatch):
        ks = np.linspace(0.01, 0.15, 7)
        deltas = np.linspace(-5.0, 5.0, 7)
        varied = [SystemParams(0.002 * i, KL200 + i, i % 3) for i in range(7)]
        sweep = [SystemParams(d, 1000.0, 0) for d in deltas.tolist()]
        # (k, what transmissions takes, each point's own params)
        cases = [
            (ks, varied, varied),
            (ks, _Dressed.build(*zip(*(
                (p.detuning_ratio, p.coupling_length, p.photon_number) for p in varied
            ))), varied),
            (np.full(7, 0.05), sweep, sweep),
            # a delta sweep's block, as `mazer transmission --sweep delta` passes it
            (np.full(7, 0.05), _Dressed.build(deltas, 1000.0, 0), sweep),
            (np.full(7, 0.3), _Dressed.build(deltas, 3000.0, 7),
             [SystemParams(d, 3000.0, 7) for d in deltas.tolist()]),
        ]
        clean = [transmissions(ks, given) for ks, given, _ in cases]
        real_inverse = scattering._inverse_denominator
        real_matching = scattering._scatter_matching

        def nan_denominator(k, p, channels):
            inv_d, nondegenerate = real_inverse(k, p, channels)
            inv_d = inv_d.copy()
            inv_d[3] = np.nan
            return inv_d, nondegenerate

        matched = []

        def matching(k, p):
            matched.append((k, p))
            return real_matching(k, p)

        monkeypatch.setattr(scattering, "_inverse_denominator", nan_denominator)
        monkeypatch.setattr(scattering, "_scatter_matching", matching)
        for (ks, given, params), (clean_a, clean_b) in zip(cases, clean):
            matched.clear()
            t_a, t_b = transmissions(ks, given)
            assert matched == [(ks[3], params[3])]
            assert type(matched[0][1].detuning_ratio) is float
            reference = real_matching(float(ks[3]), params[3])
            assert (t_a[3], t_b[3]) == (reference.T_a, reference.T_b)
            others = np.arange(len(ks)) != 3
            assert np.array_equal(t_a[others], clean_a[others])
            assert np.array_equal(t_b[others], clean_b[others])

    def test_rejects_mismatched_or_nonpositive_points(self):
        # the array ultracold form takes the same points
        for evaluate in (transmissions, transmissions_ultracold):
            with pytest.raises(ValueError):
                evaluate(np.array([0.05, 0.06]), [PARAMS0])
            with pytest.raises(ValueError):
                evaluate(np.full((2, 2), 0.05), [PARAMS0] * 4)
            with pytest.raises(DomainError):
                evaluate(np.array([0.05, -1.0]), [PARAMS0] * 2)


class TestPhasesOncePerPoint:
    """Each channel's scaled trig is computed once per closed-form evaluation:
    k_minus L and k_plus L, plus the two half angles of the denominator."""

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda p: scatter(0.05, p),
            lambda p: transmissions(np.linspace(0.01, 0.15, 7), p),
        ],
        ids=["scatter", "transmissions_block"],
    )
    def test_four_scaled_trig_calls(self, monkeypatch, evaluate):
        real = scattering._scaled_trig
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(scattering, "_scaled_trig", counting)
        evaluate(SystemParams(0.002, KL200, 3))
        assert len(calls) == 4


def oracle_check_points(rng, size):
    """k and one params per point, drawn from the `oracle-check` domain."""
    ks = 10.0 ** rng.uniform(-3.0, 0.0, size)
    draws = zip(
        rng.uniform(-500.0, 10.0, size).tolist(),
        (10.0 ** rng.uniform(2.0, 4.0, size)).tolist(),
        rng.integers(0, 4, size).tolist(),
    )
    return ks, [SystemParams(*draw) for draw in draws]


def fig4_points(rng, size):
    """k and one params per point, drawn from the fig-4 beam and detunings."""
    ks = rng.uniform(1e-4, 0.2, size)
    draws = zip(
        rng.uniform(-0.002, 0.005, size).tolist(), rng.integers(0, 41, size).tolist()
    )
    return ks, [SystemParams(d, KL200, n) for d, n in draws]


def scatter_probabilities(k, params):
    res = scatter(k, params)
    return res.T_a, res.T_b, res.T_total


def transmissions_and_total(ks, params):
    t_a, t_b = transmissions(ks, params)
    return t_a, t_b, t_a + t_b


def channels_of(k, params):
    cw = channel_wavenumbers(k, params)
    return cw.k, cw.k_b, cw.k_minus, cw.k_plus, cw.b_channel_open


def channels_array(ks, params):
    k_b, k_minus, k_plus = _channels(ks, _Dressed.stack(params))
    return ks, k_b, k_minus.real, k_plus, _is_open(k_b)


def taus_array(ks, params):
    record = _Dressed.stack(params)
    _, k_minus, k_plus = _channels(ks, record)
    return tuple(_tau(kpm, ks, record.coupling_length) for kpm in (k_minus, k_plus))


def inverse_denominator_array(ks, params):
    record = _Dressed.stack(params)
    return _inverse_denominator(ks, record, _channels(ks, record))[0]


def loeffler_array(ks, params):
    record = _Dressed.stack(
        [SystemParams(0.0, p.coupling_length, p.photon_number) for p in params]
    )
    k_minus = _channels(ks, record)[1]
    return 0.5 * abs(_tau(k_minus, ks, record.coupling_length)) ** 2


# each scalar entry at one point, and its array form over points with one
# params each (the private forms where the array entry is not public)
SCALAR_AND_ARRAY = {
    "scatter": (scatter_probabilities, transmissions_and_total),
    "tau_pm": (
        lambda k, p: (tau_pm("-", k, p), tau_pm("+", k, p)), taus_array
    ),
    "inverse_denominator": (inverse_denominator, inverse_denominator_array),
    "channel_wavenumbers": (channels_of, channels_array),
    "transmission_ultracold": (transmission_ultracold, transmissions_ultracold),
    "p_em_ultracold": (p_em_ultracold, _p_em_array),
    "resonance_amplitude": (
        resonance_amplitude,
        lambda ks, params: _resonance_amplitudes(ks, _Dressed.stack(params)),
    ),
    "loeffler_resonant": (
        lambda k, p: loeffler_resonant(k, p.coupling_length, p.photon_number),
        loeffler_array,
    ),
}


@pytest.mark.parametrize("points", [fig4_points, oracle_check_points],
                         ids=["fig4", "oracle_check"])
@pytest.mark.parametrize("entry", list(SCALAR_AND_ARRAY))
def test_scalar_entry_is_its_array_element(entry, points):
    # more points than one array block, with one params each; repr tells
    # every float apart and shows the Python type (float, complex or bool).
    # The k may be a numpy or a Python float: the bounded minimizer hands
    # its objective np.float64 iterates.
    scalar, array = SCALAR_AND_ARRAY[entry]
    ks, params = points(np.random.default_rng(23), ARRAY_BLOCK + 100)
    with np.errstate(all="ignore"):
        columns = array(ks, params)
    columns = columns if isinstance(columns, tuple) else (columns,)
    for i, (k, p) in enumerate(zip(ks, params)):
        want = repr(tuple(np.asarray(c)[i].item() for c in columns))
        for given in (k, float(k)):
            got = scalar(given, p)
            assert repr(got if isinstance(got, tuple) else (got,)) == want, (i, given)


@pytest.mark.parametrize(
    "entry",
    [
        scatter,
        inverse_denominator,
        lambda k, params: tau_pm("-", k, params),
        channel_wavenumbers,
        lambda k, params: loeffler_resonant(k, params.coupling_length, 0),
        lambda k, params: hot_cold_boundary(k, 0),
        transmission_ultracold,
        p_em_ultracold,
    ],
    ids=["scatter", "inverse_denominator", "tau_pm", "channel_wavenumbers",
         "loeffler_resonant", "hot_cold_boundary", "transmission_ultracold",
         "p_em_ultracold"],
)
@pytest.mark.parametrize("k", [0.0, -0.05, math.nan])
def test_scalar_entries_share_one_k_check(entry, k):
    message = f"incident wavenumber must be > 0, got {k}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        entry(k, SystemParams(0.002, KL200, 0))
