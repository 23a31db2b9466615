"""Velocity-selection pipeline: initial beams, averaged transmissions, remapping."""

import math

import numpy as np
import pytest

from mazer.core import DomainError, SystemParams
from mazer.pump import PhotonDistribution
from mazer.scattering import scatter, transmissions
from mazer.selection import (
    POPULATION_CUTOFF,
    VelocityDistribution,
    _pchip_end_slope,
    _Pchip,
    beam_transmissions,
    final_distribution,
    maxwell_boltzmann_initial,
)

KL200 = 200.0 * math.pi
VACUUM = PhotonDistribution(probabilities=(1.0,))


def initial_beam(points: int = 801) -> VelocityDistribution:
    return maxwell_boltzmann_initial(0.05, np.linspace(0.0, 0.2, points))


class TestVelocityDistribution:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DomainError):
            VelocityDistribution(grid=(0.0, 0.1), density=(1.0,))

    def test_rejects_nonmonotone_grid(self):
        with pytest.raises(DomainError):
            VelocityDistribution(grid=(0.0, 0.2, 0.1), density=(0.0, 1.0, 0.0))
        for grid in ((0.0, math.nan, 0.2), (math.nan, 0.1, 0.2), (0.0, 0.1, math.inf)):
            with pytest.raises(DomainError):
                VelocityDistribution(grid=grid, density=(0.0, 1.0, 0.0))

    def test_interpolator_built_once(self):
        init = initial_beam(101)
        assert init.interpolator() is init.interpolator()

    def test_rejects_negative_density(self):
        with pytest.raises(DomainError):
            VelocityDistribution(grid=(0.0, 0.1, 0.2), density=(0.0, -1.0, 0.0))
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                VelocityDistribution(grid=(0.0, 0.1, 0.2), density=(0.0, bad, 0.0))


class TestMaxwellBoltzmann:
    def test_mode_at_k0(self):
        init = initial_beam()
        grid = np.asarray(init.grid)
        step = grid[1] - grid[0]
        assert abs(grid[int(np.argmax(init.density))] - 0.05) <= step

    def test_normalized(self):
        assert initial_beam().integral() == pytest.approx(1.0, abs=1e-6)

    def test_invalid_k0_rejected(self):
        with pytest.raises(DomainError):
            maxwell_boltzmann_initial(0.0, np.linspace(0.0, 0.2, 10))
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                maxwell_boltzmann_initial(bad, np.linspace(0.0, 0.2, 10))


class TestBeamTransmissions:
    def test_vacuum_reduces_to_single_photon_number(self):
        base = SystemParams(0.0, KL200, 0)
        for k in (0.05, 0.1002):
            t_a, t_b = beam_transmissions(VACUUM, k, base)
            res = scatter(k, base)
            assert t_a == pytest.approx(res.T_a, abs=1e-15)
            assert t_b == pytest.approx(res.T_b, abs=1e-15)

    def test_convex_combination_respects_flux_bound(self):
        dist = PhotonDistribution(probabilities=(0.5, 0.3, 0.15, 0.05))
        base = SystemParams(0.001, KL200, 0)
        for k in np.linspace(0.02, 0.18, 25):
            t_a, t_b = beam_transmissions(dist, float(k), base)
            assert t_a + t_b <= 1.0 + 1e-9

    def test_nonpositive_k_rejected(self):
        with pytest.raises(DomainError):
            beam_transmissions(VACUUM, 0.0, SystemParams(0.0, KL200, 0))


def scalar_final_densities(initial, dist, base, grid):
    """final_distribution's density on `grid` without and with the Jacobian,
    point by point, from one `transmissions` call per photon state."""
    d = base.detuning_ratio
    pi = initial.interpolator()

    def density(k):
        v = float(pi(k))
        return v if math.isfinite(v) else 0.0

    # every k, and every k' with k'^2 = k^2 + delta/g, the sums below need
    ks = [k for k in grid if k > 0.0]
    ks = list(dict.fromkeys(ks + [math.sqrt(k * k + d) for k in ks if k * k > -d]))
    averaged = {k: [0.0, 0.0] for k in ks}
    for n, weight in enumerate(dist.probabilities):
        if weight >= POPULATION_CUTOFF:
            params = SystemParams(d, base.coupling_length, n)
            for k, t_a, t_b in zip(ks, *transmissions(np.array(ks), params)):
                averaged[k][0] += weight * float(t_a)
                averaged[k][1] += weight * float(t_b)

    plain, jacobian = [], []
    for k in grid:
        value = value_jac = 0.0
        if k > 0.0:
            value = value_jac = density(k) * averaged[k][0]
            if k * k > -d:
                kp = math.sqrt(k * k + d)
                if density(kp) > 0.0:
                    term = density(kp) * averaged[kp][1]
                    value += term
                    term *= k / kp
                    value_jac += term
        plain.append(value)
        jacobian.append(value_jac)
    return plain, jacobian


class TestFinalDistribution:
    def test_zero_detuning_is_pointwise_product(self):
        init = initial_beam(401)
        base = SystemParams(0.0, KL200, 0)
        fin = final_distribution(init, VACUUM, base)
        pi = init.interpolator()
        idx = np.linspace(0, len(fin.grid) - 1, 40).astype(int)
        for i in idx:
            k = fin.grid[i]
            if k <= 0.0:
                continue
            t_a, t_b = beam_transmissions(VACUUM, k, base)
            expected = float(pi(k)) * (t_a + t_b)
            assert fin.density[i] == pytest.approx(expected, abs=1e-12)

    def test_zero_detuning_never_exceeds_initial(self):
        init = initial_beam(401)
        fin = final_distribution(init, VACUUM, SystemParams(0.0, KL200, 0))
        pi = init.interpolator()
        for k, d in zip(fin.grid, fin.density):
            bound = float(pi(k)) if np.isfinite(pi(k)) else 0.0
            assert d <= bound + 1e-12

    def test_negative_detuning_below_threshold_keeps_only_elastic_term(self):
        init = initial_beam(401)
        base = SystemParams(-0.004, KL200, 0)
        fin = final_distribution(init, VACUUM, base)
        pi = init.interpolator()
        thresh = math.sqrt(0.004)
        for k, d in zip(fin.grid, fin.density):
            if not 0.0 < k < thresh - 1e-9:
                continue
            t_a, _ = beam_transmissions(VACUUM, k, base)
            assert d == pytest.approx(float(pi(k)) * t_a, abs=1e-12)

    def test_transmitted_fraction_bounded(self):
        init = initial_beam(401)
        for d in (0.0, 0.002, -0.004):
            fin = final_distribution(init, VACUUM, SystemParams(d, KL200, 0))
            assert 0.0 <= fin.integral() <= 1.0 + 1e-9

    def test_jacobian_toggle_rescales_remapped_term(self):
        init = initial_beam(401)
        base = SystemParams(0.002, KL200, 0)
        plain = final_distribution(init, VACUUM, base)
        jac = final_distribution(init, VACUUM, base, jacobian=True)
        assert plain.grid == jac.grid
        diffs = np.asarray(plain.density) - np.asarray(jac.density)
        # k/k' < 1 for positive detuning: the Jacobian can only reduce the
        # remapped contribution, and must do so somewhere
        assert np.all(diffs >= -1e-12)
        assert np.max(diffs) > 0.0

    def test_peak_steering_monotone_over_small_detunings(self):
        # in this window a single closed-channel resonance (unit amplitude,
        # position sqrt((m pi / kappa L)^2 - cot theta)) dominates; raising
        # the detuning lowers cot(theta) and pushes the peak up in k
        init = initial_beam(1201)
        positions = []
        for d in (0.001, 0.002, 0.003):
            fin = final_distribution(init, VACUUM, SystemParams(d, KL200, 0))
            dens = np.asarray(fin.density)
            positions.append(fin.grid[int(np.argmax(dens))])
        assert positions[0] < positions[1] < positions[2]

    @pytest.mark.parametrize("delta", [-0.002, 0.0, 0.002])
    def test_matches_scalar_reference(self, delta):
        init = initial_beam(201)
        dist = PhotonDistribution(probabilities=(0.6, 0.3, 0.1))
        base = SystemParams(delta, KL200, 0)
        plain = final_distribution(init, dist, base)
        jac = final_distribution(init, dist, base, jacobian=True)
        expected = scalar_final_densities(init, dist, base, plain.grid)
        for fin, want in zip((plain, jac), expected):
            assert fin.grid == plain.grid
            assert [float(v) for v in fin.density] == want


def assert_pchip_matches_scipy(x, y, k):
    """`_Pchip` gives `PchipInterpolator(extrapolate=False)`'s bits at every k."""
    from scipy.interpolate import PchipInterpolator

    x, y, k = (np.asarray(a, dtype=float) for a in (x, y, k))
    want = PchipInterpolator(x, y, extrapolate=False)(k)
    got = _Pchip(x, y)(k)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    # bit patterns, so that a zero of the other sign fails too
    assert np.array_equal(got[finite].view(np.int64), want[finite].view(np.int64))


class TestPchip:
    """The numpy PCHIP against scipy's, bit for bit."""

    @pytest.mark.parametrize("k0, knots", [(0.03, 301), (0.05, 1001), (0.08, 5001)])
    def test_maxwell_boltzmann_grids(self, k0, knots):
        init = maxwell_boltzmann_initial(k0, np.linspace(0.0, 0.2, knots))
        grid = np.asarray(init.grid)
        k = np.random.default_rng(knots).uniform(grid[0], grid[-1], 200_000)
        k = np.concatenate([k, grid, [grid[0], grid[-1]]])
        assert_pchip_matches_scipy(grid, init.density, k)
        ours = _Pchip(grid, np.asarray(init.density))(k)
        assert np.array_equal(init.interpolator()(k), ours)

    def test_nan_outside_the_grid(self):
        x, y = np.linspace(0.1, 0.2, 11), np.linspace(1.0, 2.0, 11) ** 2
        outside = [0.0, np.nextafter(0.1, 0.0), np.nextafter(0.2, 1.0), 1.0]
        outside += [-np.inf, np.inf, np.nan]
        assert np.isnan(_Pchip(x, y)(outside)).all()
        assert_pchip_matches_scipy(x, y, outside + [0.1, 0.2])

    def test_scalar_point(self):
        x, y = np.array([0.0, 1.0, 3.0]), np.array([0.0, 2.0, 1.0])
        assert _Pchip(x, y)(0.5).shape == ()
        assert_pchip_matches_scipy(x, y, 0.5)

    def test_two_point_grid_is_linear(self):
        x, y = np.array([0.5, 2.0]), np.array([3.0, -1.0])
        k = np.linspace(0.0, 2.5, 101)
        assert_pchip_matches_scipy(x, y, k)

    def test_flat_zero_stretch(self):
        # zero slopes on either side of a knot give that knot slope 0
        x = np.array([0.0, 0.1, 0.25, 0.3, 0.4, 0.55, 0.6, 0.8])
        y = np.array([0.0, 0.0, 0.0, 1.0, 2.0, 0.5, 0.0, 0.0])
        k = np.random.default_rng(1).uniform(0.0, 0.8, 5000)
        assert_pchip_matches_scipy(x, y, np.concatenate([k, x]))

    @pytest.mark.parametrize(
        "y, left, right",
        [
            # d = (3 m0 - m1) / 2 on unit spacing: m1 > 3 m0 flips its sign
            ([0.0, 1.0, 5.0, 9.0, 10.0], 0.0, 0.0),
            # m0 and m1 of opposite sign, |d| > 3 |m0|: clamped to 3 m0
            ([0.0, 1.0, -9.0, 1.0, 0.0], 3.0, -3.0),
        ],
    )
    def test_end_slope_branches(self, y, left, right):
        x = np.arange(5.0)
        m = np.diff(y)
        h = np.diff(x)
        assert _pchip_end_slope(h[0], h[1], m[0], m[1]) == left
        assert _pchip_end_slope(h[-1], h[-2], m[-1], m[-2]) == right
        k = np.concatenate([np.linspace(0.0, 4.0, 4001), x])
        assert_pchip_matches_scipy(x, y, k)

    def test_uneven_random_grids(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = np.cumsum(rng.uniform(0.01, 1.0, 40))
            y = rng.choice([0.0, 1.0], 40) * rng.uniform(0.0, 5.0, 40)
            k = rng.uniform(x[0] - 0.5, x[-1] + 0.5, 2000)
            assert_pchip_matches_scipy(x, y, np.concatenate([k, x]))
