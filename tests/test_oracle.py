"""Coupled-channel boundary-matching solver: self-tests and cross-checks."""

import math
import re

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

    @pytest.mark.parametrize("length", [math.nan, math.inf, -math.inf])
    def test_non_finite_length_rejected(self, length):
        message = f"segment length must be finite and > 0, got {length}"
        for build in (
            lambda: ModeFunction(segments=((length, 1.0),)),
            lambda: ModeFunction.mesa(length),
            lambda: ModeFunction.from_profile([(1.0, 0.5), (length, 1.0)]),
        ):
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                build()


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


def inputs(params):
    """The (detuning, coupling length, photon number) arrays of the params."""
    return (
        np.array([p.detuning_ratio for p in params]),
        np.array([p.coupling_length for p in params]),
        np.array([p.photon_number for p in params]),
    )


def mesa_batch(k, params):
    return solve_mesa(k, *inputs(params))


def step_batch(k, params):
    x, kb_real = oracle._solve_stack(STEP.segments, k, *inputs(params))
    return oracle._result(k, kb_real, x[:, 0], x[:, 1], x[:, -2], x[:, -1])


# (mode of one point, batch over all points)
BATCHES = {
    "mesa": (lambda p: ModeFunction.mesa(p.coupling_length), mesa_batch),
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
        # cond_2 about 7, 850, 7 and 870; kappa_F about 16, 1480, 16 and 1480
        points = [(0.05, -1.0, 0, 100.0), (0.01, -300.0, 0, 100.0),
                  (0.05, -1.0, 2, 100.0), (0.05, -300.0, 0, 5000.0)]
        k = np.array([p[0] for p in points])
        params = [SystemParams(d, kl, n) for _, d, n, kl in points]
        mesa_batch(k, params)  # all four pass the default limit
        monkeypatch.setattr(oracle, "CONDITION_LIMIT", 100.0)
        with pytest.raises(oracle.OracleSolveError) as exc:
            solve(ModeFunction.mesa(100.0), 0.01, params[1])
        with pytest.raises(oracle.OracleSolveError) as batch_exc:
            mesa_batch(k, params)
        assert str(batch_exc.value) == str(exc.value)
        assert "k=0.01, params=SystemParams(detuning_ratio=-300.0" in str(exc.value)

    def test_rejects_mismatched_or_nonpositive_points(self):
        params = SystemParams(0.0, 10.0, 0)
        with pytest.raises(ValueError):
            mesa_batch(np.array([0.1, 0.2]), [params])
        with pytest.raises(DomainError):
            mesa_batch(np.array([0.1, 0.0]), [params] * 2)
        with pytest.raises(ValueError):
            solve_mesa(np.full((2, 2), 0.1), *inputs([params] * 4))

    @pytest.mark.parametrize(
        "bad",
        [
            (math.nan, 10.0, 0), (0.0, -1.0, 0), (0.0, math.inf, 0), (0.0, 10.0, -1),
            (0.0, 10.0, math.nan),
        ],
        ids=["nan-delta", "negative-length", "infinite-length", "negative-n", "nan-n"],
    )
    def test_invalid_point_raises_its_params_error(self, bad):
        # the first invalid point is named, as its SystemParams names it; a nan
        # n, which SystemParams accepts, is named by its values
        try:
            SystemParams(*bad)
            want = f"invalid parameters (delta/g, kappa L, n) = {bad}"
        except DomainError as e:
            want = str(e)
        points = [(0.0, 10.0, 0), bad, (-math.inf, 0.0, -5)]
        d, kl, n = (np.array(column) for column in zip(*points))
        with pytest.raises(DomainError, match=f"^{re.escape(want)}$"):
            solve_mesa(np.full(3, 0.1), d, kl, n)


def boundary_systems(monkeypatch, segments, k, params):
    """The stack of boundary systems that `_solve_stack` bounds, and its bound."""
    seen = []

    def spy(A):
        seen.append((A, bound(A)))  # after any per-system calls it makes
        return seen[-1][1]

    bound = oracle._condition_bound
    monkeypatch.setattr(oracle, "_condition_bound", spy)
    try:
        oracle._solve_stack(segments, k, *inputs(params))
    except oracle.OracleSolveError:
        pass  # the systems were bounded before the rejection
    return seen[-1]


def oracle_check_draws(seed, size):
    """(k, params) of `size` points drawn from the `oracle-check` default domain."""
    rng = np.random.default_rng(seed)
    k = 10.0 ** rng.uniform(-3.0, 0.0, size)
    params = [
        SystemParams(d, kl, int(n))
        for d, kl, n in zip(
            rng.uniform(-500.0, 10.0, size),
            10.0 ** rng.uniform(2.0, 4.0, size),
            rng.integers(0, 4, size),
        )
    ]
    return k, params


def from_hex(re: str, im: str) -> complex:
    return complex(float.fromhex(re), float.fromhex(im))


# (t_a, t_b, k, delta/g, n, kappa L) of mesa points, each amplitude as the
# float.hex of its parts, as the dense solve gave them with numpy 2.4's LAPACK
RECORDED_AMPLITUDES = [
    (("0x1.9b3dd2323ce7ep-2", "-0x1.9eddbe042a5adp-6"),
     ("-0x1.9bbf458d5dc11p-2", "0x1.0014c7ac40d24p-6"), 0.05, -0.003, 0, KL),
    (("0x1.3342069e21b37p-1", "-0x1.dc8b4ecac5fc1p-2"),
     ("-0x1.1893f88c78e9bp-1", "0x1.e1e87057fa9f9p-2"), 0.05, 0.005, 0, KL),
    (("0x1.34e4bca8ca754p-1", "0x1.91e44aacfd96fp-1"),
     ("-0x1.8fc020b3e1e35p-9", "0x1.647f5e75286bdp-9"), 0.3, -120.0, 2, 250.0),
    (("-0x1.45f9d4ac67f81p-17", "0x1.53a87b0d66191p-8"),
     ("0x1.d55931d1fb77bp-21", "-0x1.194e44c99fd65p-10"), 0.002, 3.0, 1, 5000.0),
]


class TestConditionBound:
    @pytest.mark.parametrize("mode", BATCHES)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_bound_lies_between_cond_and_n_cond(self, monkeypatch, mode, seed):
        k, params = oracle_check_draws(seed, 200)
        segments = STEP.segments
        if mode == "mesa":
            segments = ((np.array([p.coupling_length for p in params]), 1.0),)
        A, bound = boundary_systems(monkeypatch, segments, k, params)
        cond = np.linalg.cond(A)
        nunk = A.shape[-1]
        assert np.all(bound >= cond * (1.0 - 1e-12))
        assert np.all(bound <= nunk * cond * (1.0 + 1e-12))
        assert np.max(bound) < oracle.CONDITION_LIMIT

    @pytest.mark.parametrize("kl", [100.0, 1000.0])
    def test_threshold_points_still_raise(self, kl):
        # k = 1 lies on the dressed threshold k^2 = mu_+ at delta/g = 0, n = 0
        params = SystemParams(0.0, kl, 0)
        with pytest.raises(oracle.OracleSolveError) as exc:
            solve(ModeFunction.mesa(kl), 1.0, params)
        with pytest.raises(oracle.OracleSolveError) as batch_exc:
            mesa_batch(np.array([0.5, 1.0, 1.0]), [SystemParams(0.0, 50.0, 0), params, params])
        assert str(batch_exc.value) == str(exc.value)
        assert f"at k=1.0, params={params}" in str(exc.value)

    def test_singular_and_nan_systems_raise_oracle_solve_error(self, monkeypatch):
        # a free segment (u = 0) at k^2 = delta/g has q_b = 0 exactly: two equal
        # columns, so the batched inverse itself fails
        free = ModeFunction(((10.0, 0.0),))
        k = np.array([0.3, 0.5, 0.5])
        params = [SystemParams(0.25, 10.0, 0), SystemParams(0.25, 10.0, 0),
                  SystemParams(0.25, 10.0, 1)]
        A, bound = boundary_systems(monkeypatch, free.segments, k, params)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(A)
        assert np.isfinite(bound[0]) and np.all(bound[1:] == np.inf)
        monkeypatch.undo()
        with pytest.raises(oracle.OracleSolveError) as exc:
            solve(free, 0.5, params[1])
        with pytest.raises(oracle.OracleSolveError) as batch_exc:
            oracle._solve_stack(free.segments, k, *inputs(params))
        assert str(batch_exc.value) == str(exc.value)
        assert "(cond=inf) at k=0.5, params=SystemParams(detuning_ratio=0.25" in str(exc.value)
        # a nan length fills its system with nan; the singular point comes after it
        lengths = np.array([10.0, math.nan, 10.0])
        with pytest.raises(oracle.OracleSolveError) as exc:
            oracle._solve_stack(((lengths, 0.0),), k, *inputs(params))
        assert "(cond=nan) at k=0.5, params=SystemParams(detuning_ratio=0.25, " \
            "coupling_length=10.0, photon_number=0)" in str(exc.value)

    def test_huge_k_is_a_domain_error(self):
        # k^2 overflows above about 1.34e154
        params = SystemParams(0.0, 100.0, 0)
        with pytest.raises(DomainError, match="finite square, got 1e\\+300"):
            solve(ModeFunction.mesa(100.0), 1e300, params)
        with pytest.raises(DomainError, match="finite square, got 2e\\+154"):
            mesa_batch(np.array([0.5, 2e154, 1e300]), [params] * 3)

    def test_amplitudes_keep_their_bits(self):
        k = np.array([p[2] for p in RECORDED_AMPLITUDES])
        params = [SystemParams(d, kl, n) for *_, d, n, kl in RECORDED_AMPLITUDES]
        res = mesa_batch(k, params)
        for i, (a, b, *_) in enumerate(RECORDED_AMPLITUDES):
            recorded = [from_hex(*a), from_hex(*b)]
            assert np.array_equal(bits([res.t_a[i], res.t_b[i]]), bits(recorded))
        one = solve(STEP, 0.2, SystemParams(-1.0, 50.0, 1))
        recorded = [from_hex("-0x1.a41bd5ab36fb7p-4", "-0x1.59f3c544f2fb9p-4"),
                    from_hex("0x1.893b3ddd5c355p-6", "0x1.0ba20a975bd23p-3")]
        assert np.array_equal(bits([one.t_a, one.t_b]), bits(recorded))


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


def test_oracle_reads_no_derived_quantity():
    # the oracle reads a point's inputs only: without the dressed-state
    # attributes of its SystemParams, solve gives the same amplitudes
    from mazer.core import _DERIVED

    params = SystemParams(-1.0, 50.0, 1)
    want = solve(STEP, 0.2, params)
    bare = SystemParams(-1.0, 50.0, 1)
    for name in _DERIVED:
        del vars(bare)[name]
    with pytest.raises(AttributeError):
        bare.theta
    assert solve(STEP, 0.2, bare) == want
