"""Velocity-selection pipeline: initial beams, averaged transmissions, remapping."""

import math

import numpy as np
import pytest

from mazer.core import DomainError, SystemParams
from mazer.pump import PhotonDistribution
from mazer.scattering import scatter
from mazer.selection import (
    POPULATION_CUTOFF,
    VelocityDistribution,
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

    def test_rejects_negative_density(self):
        with pytest.raises(DomainError):
            VelocityDistribution(grid=(0.0, 0.1, 0.2), density=(0.0, -1.0, 0.0))


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
    point by point on scalar `scatter`."""
    d = base.detuning_ratio
    pi = initial.interpolator()

    def density(k):
        v = float(pi(k))
        return v if math.isfinite(v) else 0.0

    def averaged(k, channel):
        total = 0.0
        for n, weight in enumerate(dist.probabilities):
            if weight >= POPULATION_CUTOFF:
                res = scatter(k, SystemParams(d, base.coupling_length, n))
                total += weight * (res.T_a, res.T_b)[channel]
        return total

    plain, jacobian = [], []
    for k in grid:
        value = value_jac = 0.0
        if k > 0.0:
            value = value_jac = density(k) * averaged(k, 0)
            if k * k > -d:
                kp = math.sqrt(k * k + d)
                if density(kp) > 0.0:
                    term = density(kp) * averaged(kp, 1)
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
            for got, ref in zip(fin.density, want):
                assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref))
