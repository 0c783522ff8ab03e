import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdckit import hom_reference as hom
from pdckit import jsa, units

import quadrature
from conftest import WAVELENGTH_M, _grid

TWO_FOLD = hom.SignalState(p0=0.997896, p1=0.002101, p2=0.000003)
THREE_FOLD = hom.SignalState(p0=0.94920, p1=0.05065, p2=0.00015)


def _pure_density(axis, width):
    """Rank-one density from a normalized centred Gaussian mode."""
    amplitude = np.exp(-((axis / width) ** 2))
    weights = quadrature.trapezoid_weights(axis)
    amplitude = amplitude / math.sqrt(float(amplitude**2 @ weights))
    density = np.outer(amplitude, np.conj(amplitude))
    return quadrature.ReducedDensity(nu_axis=axis, density=density)


def _closed_form_overlap(params, w_signal_filter, w_trigger, w_ref, tau):
    """Gaussian algebra for the filtered overlap, written independently.

    Integrating the idler out of the correlated Gaussian amplitude with
    an intensity-transmission trigger filter leaves a kernel
    exp(-A(w1^2+w2^2) + 2B w1 w2) carrying a residual linear phase
    delta (w1 - w2) from the group delay.  Contracting with a Gaussian
    reference of width w_ref gives the dip profile in closed form.
    """
    pump = 1.0 / params.sigma_pump**2
    pm = jsa.GAMMA * params.length**2 / 4.0
    a = pump + pm * params.kappa_s**2
    b = pump + pm * params.kappa_s * params.kappa_i
    c = pump + pm * params.kappa_i**2
    d = 2.0 * c + (0.0 if math.isinf(w_trigger) else 2.0 / w_trigger**2)
    b_eff = b * b / d
    a_eff = a + 1.0 / w_signal_filter**2 - b_eff
    a_ref = a_eff + 1.0 / w_ref**2
    t_max = 2.0 * math.sqrt(
        (a_eff - b_eff) / (w_ref**2 * (a_ref - b_eff) * (a_ref + b_eff))
    )
    tau_center = -params.length * params.kappa_s / 2.0
    sigma_sq = (
        1.0 / params.sigma_pump**2
        + 1.0 / w_ref**2
        + 1.0 / w_signal_filter**2
        + pm * params.kappa_s**2
    )
    return t_max * math.exp(-((tau - tau_center) ** 2) / (2.0 * sigma_sq))


class TestOverlapT:
    def test_matched_pure_mode_gives_unity(self):
        axis = np.linspace(-8.0, 8.0, 301)
        g = _pure_density(axis, 1.3)
        assert quadrature.overlap_T(1.3, g) == pytest.approx(1.0, abs=1e-9)

    def test_matches_gaussian_closed_form(self, source_params, one_nm_width):
        grid = _grid(jsa.filtered_source(source_params), 10, 3.5)
        g = quadrature.reduced_density(grid, one_nm_width, one_nm_width)
        center = -source_params.length * source_params.kappa_s / 2.0
        for tau in (center, 0.0, center + 1e-12, center - 0.5e-12):
            expected = _closed_form_overlap(
                source_params, one_nm_width, one_nm_width, one_nm_width, tau
            )
            assert quadrature.overlap_T(one_nm_width, g, tau) == pytest.approx(
                expected, rel=1e-4, abs=1e-9
            )

    def test_even_in_tau_with_peak_at_zero_for_real_kernels(self):
        axis = np.linspace(-8.0, 8.0, 257)
        g = _pure_density(axis, 1.1)
        taus = np.linspace(0.1, 3.0, 7)
        t0 = quadrature.overlap_T(0.8, g, 0.0)
        for tau in taus:
            forward = quadrature.overlap_T(0.8, g, float(tau))
            backward = quadrature.overlap_T(0.8, g, float(-tau))
            assert forward == pytest.approx(backward, rel=1e-9)
            assert t0 >= forward


class TestCoincidence:
    def test_dark_input_gives_none(self):
        state = hom.SignalState(p0=1.0, p1=0.0, p2=0.0)
        assert hom.coincidence_full(state, 0.0, 1.0, 1.0) == 0.0

    def test_perfect_bunching_is_fourth_order(self):
        state = hom.SignalState(p0=0.0, p1=1.0, p2=0.0)
        for beta_sq in (1e-3, 1e-2, 5e-2):
            assert hom.coincidence_full(state, beta_sq, 1.0, 1.0) < beta_sq**2

    def test_reference_only_accidentals(self):
        state = hom.SignalState(p0=1.0, p1=0.0, p2=0.0)
        value = hom.coincidence_simplified(state, 0.1, 0.9)
        assert value == pytest.approx(0.1**2 / 4.0, rel=1e-12)

    def test_pure_single_photon_dip_reaches_zero(self):
        state = hom.SignalState(p0=0.0, p1=1.0, p2=0.0)
        assert hom.coincidence_simplified(state, 0.05, 1.0) == 0.0

    def test_simplified_requires_weak_reference(self):
        state = hom.SignalState(p0=1.0, p1=0.0, p2=0.0)
        with pytest.raises(ValueError, match="coincidence_full"):
            hom.coincidence_simplified(state, 0.25, 1.0)

    def test_negative_beta_sq_is_refused(self):
        state = hom.SignalState(p0=0.9, p1=0.1, p2=0.0)
        for call in (
            lambda: hom.coincidence_full(state, -1e-3, 1.0, 1.0),
            lambda: hom.coincidence_simplified(state, -1e-3, 1.0),
            lambda: hom.hom_scan_analytic(state, -1e-3, 2.0, -1.0),
        ):
            with pytest.raises(ValueError, match="^beta_sq must be nonnegative"):
                call()

    @pytest.mark.parametrize("p1", [0.05, 0.3, 0.7])
    @pytest.mark.parametrize("p2", [1e-4, 1e-3])
    @pytest.mark.parametrize("overlap", [0.0, 0.41, 0.65, 0.9])
    def test_full_reduces_to_simplified_for_weak_reference(
        self, p1, p2, overlap
    ):
        # the linearized terms are accurate to a relative |beta|^2/2, so
        # the sub-percent regime ends near |beta|^2 = 0.02
        state = hom.SignalState(p0=1.0 - p1 - p2, p1=p1, p2=p2)
        for beta_sq, bound in ((1e-3, 0.01), (2e-2, 0.01), (5e-2, 0.03)):
            full = hom.coincidence_full(state, beta_sq, overlap, overlap**2)
            simplified = hom.coincidence_simplified(state, beta_sq, overlap)
            baseline = hom.coincidence_simplified(state, beta_sq, 0.0)
            assert abs(full - simplified) / baseline < bound

    def test_three_fold_visibility_near_optimum(self):
        beta_opt = hom.beta_opt(THREE_FOLD)
        visibility = hom.visibility_vs_beta(THREE_FOLD, 0.65, beta_opt)
        assert visibility == pytest.approx(0.48, abs=0.03)

    @pytest.mark.parametrize("beta_sq", [0.02, 0.05])
    def test_isolated_component_visibilities(self, beta_sq):
        # diagnostic from the exact formula: a lone one-photon component
        # interferes almost perfectly while a lone two-photon component
        # contributes only a few percent, so it acts as background
        def dip_visibility(state):
            baseline = hom.coincidence_full(state, beta_sq, 0.0, 0.0)
            bottom = hom.coincidence_full(state, beta_sq, 1.0, 1.0)
            return (baseline - bottom) / baseline

        one_photon = hom.SignalState(p0=0.0, p1=1.0, p2=0.0)
        two_photon = hom.SignalState(p0=0.0, p1=0.0, p2=1.0)
        assert dip_visibility(one_photon) > 0.98
        assert dip_visibility(two_photon) < 0.05


class TestVisibilityCurve:
    def test_table_maxima_with_unit_overlap(self):
        assert hom.max_visibility(TWO_FOLD, 1.0) == pytest.approx(0.46, abs=0.005)
        assert hom.max_visibility(THREE_FOLD, 1.0) == pytest.approx(
            0.75, abs=0.005
        )

    def test_dense_scan_argmax_matches_closed_form(self):
        betas = np.geomspace(1e-4, 1.0, 20001)
        values = [
            hom.visibility_vs_beta(THREE_FOLD, 1.0, float(b)) for b in betas
        ]
        best = betas[int(np.argmax(values))]
        assert best == pytest.approx(hom.beta_opt(THREE_FOLD), rel=1e-3)

    def test_unimodal_derivative_sign_change(self):
        betas = np.geomspace(1e-4, 1.0, 2001)
        values = np.array(
            [hom.visibility_vs_beta(THREE_FOLD, 1.0, float(b)) for b in betas]
        )
        differences = np.sign(np.diff(values))
        switch = np.where(differences < 0)[0]
        assert switch.size > 0
        assert np.all(differences[: switch[0]] > 0)
        assert np.all(differences[switch[0] :] < 0)

    def test_no_two_photon_background_limit(self):
        state = hom.SignalState(p0=0.9, p1=0.1, p2=0.0)
        assert hom.visibility_vs_beta(state, 0.8, 0.0) == pytest.approx(0.8)
        assert hom.beta_opt(state) == 0.0

    def test_beta_opt_without_vacuum(self):
        state = hom.SignalState(p0=0.0, p1=0.9, p2=0.1)
        assert math.isinf(hom.beta_opt(state))

    @pytest.mark.parametrize("probs", [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0)])
    def test_no_one_photon_component_gives_no_dip(self, probs):
        state = hom.SignalState(*probs)
        assert hom.max_visibility(state, 0.8) == 0.0
        for beta_sq in (0.0, 5e-324, 0.1):  # 5e-324 underflows p0 beta^2/2
            assert hom.visibility_vs_beta(state, 0.8, beta_sq) == 0.0


class TestFitOverlap:
    @staticmethod
    def _dataset(state, overlap, betas, noise=0.0, seed=0):
        rng = np.random.default_rng(seed)
        return [
            (
                float(b),
                hom.visibility_vs_beta(state, overlap, float(b))
                + (rng.normal(0.0, noise) if noise else 0.0),
            )
            for b in betas
        ]

    def test_exact_self_consistency(self):
        betas = np.geomspace(5e-3, 0.1, 9)
        fit = hom.fit_overlap(self._dataset(THREE_FOLD, 0.65, betas), THREE_FOLD)
        assert fit.overlap == pytest.approx(0.65, abs=1e-12)
        assert fit.stderr == pytest.approx(0.0, abs=1e-12)

    def test_three_fold_shape_with_noise(self):
        betas = np.geomspace(5e-3, 0.1, 12)
        data = self._dataset(THREE_FOLD, 0.65, betas, noise=0.01, seed=4)
        fit = hom.fit_overlap(data, THREE_FOLD)
        assert fit.overlap == pytest.approx(0.65, abs=0.03)
        assert 0.0 < fit.stderr < 0.05

    def test_two_fold_shape_with_noise(self):
        betas = np.geomspace(5e-4, 0.02, 12)
        data = self._dataset(TWO_FOLD, 0.41, betas, noise=0.005, seed=8)
        fit = hom.fit_overlap(data, TWO_FOLD)
        assert fit.overlap == pytest.approx(0.41, abs=0.02)

    def test_tiny_one_photon_probability(self):
        # p1 = 1e-170 makes each predictor about 1e-170, whose square
        # underflows to zero
        state = hom.SignalState(p0=0.99, p1=1e-170, p2=0.01)
        betas = np.geomspace(5e-3, 0.1, 9)
        fit = hom.fit_overlap(self._dataset(state, 0.65, betas), state)
        assert fit.overlap == pytest.approx(0.65, abs=1e-12)
        # and so do the squared residuals of noisy data
        noisy = [(b, v * 1.01) for b, v in self._dataset(state, 0.65, betas)]
        noisy[0] = (noisy[0][0], noisy[0][1] * 0.95)
        assert hom.fit_overlap(noisy, state).stderr > 1e-4

    @pytest.mark.parametrize(
        "state, overlap, betas, noise",
        [
            (THREE_FOLD, 0.65, np.geomspace(5e-3, 0.1, 12), 0.01),
            (TWO_FOLD, 0.41, np.geomspace(5e-4, 0.02, 12), 0.005),
            (hom.SignalState(0.0, 1.0, 0.0), 0.9, [0.01, 0.02, 0.05], 0.01),
        ],
    )
    def test_equals_unscaled_normal_equations(
        self, state, overlap, betas, noise
    ):
        # the predictor's power-of-two scale is exact: the estimate and
        # its error equal the textbook route's bit for bit
        data = self._dataset(state, overlap, betas, noise=noise, seed=3)
        predictor = [hom.visibility_vs_beta(state, 1.0, b) for b, _ in data]
        gram = math.fsum(p * p for p in predictor)
        estimate = math.fsum(p * v for p, (_, v) in zip(predictor, data))
        estimate /= gram
        squares = math.fsum(
            (v - estimate * p) ** 2 for p, (_, v) in zip(predictor, data)
        )
        stderr = math.sqrt(squares / (len(data) - 1) / gram)
        fit = hom.fit_overlap(data, state)
        assert _bits([fit.overlap, fit.stderr]) == _bits([estimate, stderr])

    def test_design_validation(self):
        with pytest.raises(ValueError, match="three"):
            hom.fit_overlap([(0.01, 0.3), (0.02, 0.4)], THREE_FOLD)
        with pytest.raises(ValueError, match="degenerate"):
            hom.fit_overlap(
                [(0.01, 0.3), (0.01, 0.31), (0.01, 0.29)], THREE_FOLD
            )


# -- the functions against their rules -----------------------------------------
#
# The rules below are the textbook forms, in Python floats, with the
# beta_sq = 0 limits spelled out; each function must equal them bit for
# bit, overflow to inf included.


def _coincidence_rule(state, mean_photons, overlap):
    x = mean_photons / 2.0
    return state.p0 * x * x + state.p1 * x * (1.0 - overlap) + state.p2 / 2.0


def _visibility_rule(state, overlap, beta_sq):
    if state.p1 == 0.0:
        return 0.0
    if beta_sq == 0.0:
        return 0.0 if state.p2 > 0.0 else overlap
    denominator = state.p0 * beta_sq / 2.0 + state.p1 + state.p2 / beta_sq
    return state.p1 * overlap / denominator


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


_STATES = st.one_of(
    st.sampled_from(
        [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.9, 0.1, 0.0),
         (0.0, 0.5, 0.5), (0.94920, 0.05065, 0.00015)]
    ),
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    ).filter(lambda p: p[0] + p[1] <= 1.0).map(
        lambda p: (p[0], p[1], max(0.0, 1.0 - p[0] - p[1]))
    ),
).map(lambda p: hom.SignalState(*p))
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# zero of both signs, the subnormal and huge ends, and any finite power
_BETAS = st.lists(
    st.one_of(
        st.sampled_from(
            [0.0, -0.0, 5e-324, 1e-310, 1e-300, 1e300, 1.7976931348623157e308]
        ),
        st.floats(min_value=0.0, allow_infinity=False),
    ),
    min_size=1,
    max_size=8,
)


class TestScalarRules:
    @settings(max_examples=300, deadline=None)
    @given(_STATES, _FINITE, _BETAS)
    @example(hom.SignalState(0.0, 0.5, 0.5), -0.65, [0.0, 5e-324, 1e-3])
    @example(hom.SignalState(0.9, 0.1, 0.0), -0.8, [0.0, -0.0, 1e300])
    @example(hom.SignalState(1.0, 0.0, 0.0), -0.8, [0.0, 0.1])
    def test_visibility_matches_rule(self, state, overlap, betas):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [hom.visibility_vs_beta(state, overlap, b) for b in betas]
        expected = _bits([_visibility_rule(state, overlap, b) for b in betas])
        assert all(type(value) is float for value in values)
        assert _bits(values) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        _STATES,
        st.floats(min_value=0.0, max_value=0.2, exclude_max=True),
        st.lists(_FINITE, min_size=1, max_size=8),
    )
    def test_coincidence_matches_rule(self, state, mean_photons, overlaps):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [
                hom.coincidence_simplified(state, mean_photons, t)
                for t in overlaps
            ]
        expected = [_coincidence_rule(state, mean_photons, t) for t in overlaps]
        assert all(type(value) is float for value in values)
        assert _bits(values) == _bits(expected)

    def test_refusals(self):
        with pytest.raises(ValueError, match="coincidence_full"):
            hom.coincidence_simplified(THREE_FOLD, 0.2, 0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            hom.visibility_vs_beta(THREE_FOLD, 0.65, -1e-300)


class TestDipWidth:
    def test_single_term_limits(self):
        inf = math.inf
        # kappa_s = 0 leaves the pump alone in m11
        pump_only = jsa.PdcModelParams(
            sigma_pump=2.0, kappa_s=0.0, kappa_i=1.0, length=1.0
        )
        assert jsa.filtered_source(pump_only).dip_sigma(inf) == 0.5
        # a pump this wide adds 1e-60 to m11, and GAMMA L^2 = 1
        wide = dict(sigma_pump=1e30, length=1.0 / math.sqrt(jsa.GAMMA))
        no_pm = jsa.PdcModelParams(kappa_s=0.0, kappa_i=1.0, **wide)
        assert jsa.filtered_source(no_pm).dip_sigma(4.0) == pytest.approx(
            0.25, rel=1e-12
        )
        assert jsa.filtered_source(no_pm, 8.0).dip_sigma(
            inf
        ) == pytest.approx(0.125, rel=1e-12)
        # tilt 90 deg: kappa_i = 0; phase-matching width 2 for kappa_s = 1
        pm_only = jsa.PdcModelParams(kappa_s=1.0, kappa_i=0.0, **wide)
        assert jsa.pm_width(pm_only) == pytest.approx(2.0, rel=1e-12)
        assert jsa.filtered_source(pm_only).dip_sigma(inf) == pytest.approx(
            0.5, rel=1e-12
        )

    def test_guide_parameters_give_two_picoseconds(self, source_params):
        sigma_filter = units.wavelength_fwhm_to_width(1.0e-9, WAVELENGTH_M)
        source = jsa.filtered_source(source_params, sigma_filter)
        fwhm = units.normal_sigma_to_fwhm(source.dip_sigma(sigma_filter))
        assert fwhm == pytest.approx(2.0e-12, abs=0.3e-12)

    def test_validation(self, source_params):
        with pytest.raises(ValueError):
            jsa.filtered_source(source_params, 0.0, 1.0)
        with pytest.raises(ValueError):
            jsa.filtered_source(source_params, 1.0, -1.0)


class TestFidelity:
    def test_headline_value(self):
        assert hom.fidelity(0.65, 0.931) == pytest.approx(0.78, abs=0.01)

    def test_perfect(self):
        assert hom.fidelity(1.0, 1.0) == 1.0

    def test_reduced_overlap(self):
        assert hom.fidelity(0.41, 0.931) == pytest.approx(
            0.618, abs=5e-4
        )

    def test_monotone_in_each_argument(self):
        values = [hom.fidelity(t, 0.9) for t in (0.2, 0.5, 0.9)]
        assert values[0] < values[1] < values[2]
        values = [hom.fidelity(0.6, r) for r in (0.2, 0.5, 0.9)]
        assert values[0] < values[1] < values[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            hom.fidelity(1.2, 0.5)


def _grid_density(params, signal_width, trigger_width, samples=10, extent=3.5):
    """The sampled route: the filtered reduced density on a default grid."""
    grid = _grid(jsa.filtered_source(params), samples, extent)
    return quadrature.reduced_density(grid, signal_width, trigger_width)


class TestTmaxPrediction:
    def test_separable_matched_reference_is_unity(self):
        sigma, ks, length = 1.0, 2.0, 2.0
        pm = jsa.GAMMA * length**2 / 4.0
        params = jsa.PdcModelParams(
            sigma_pump=sigma,
            kappa_s=ks,
            kappa_i=-1.0 / (sigma**2 * pm * ks),
            length=length,
        )
        source = jsa.filtered_source(params)
        mode_width = 1.0 / math.sqrt(source.m11)
        assert source.tmax(mode_width) == pytest.approx(1.0, abs=1e-12)
        g = _grid_density(params, math.inf, math.inf, extent=4.0)
        value = quadrature.overlap_T(mode_width, g, source.delay)
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_heralding_beats_two_fold(self, source_params, one_nm_width):
        values = {}
        for trigger in (one_nm_width, math.inf):
            source = jsa.filtered_source(source_params, one_nm_width, trigger)
            g = _grid_density(source_params, one_nm_width, trigger)
            values[trigger] = source.tmax(one_nm_width)
            assert quadrature.overlap_T(
                one_nm_width, g, source.delay
            ) == pytest.approx(values[trigger], rel=1e-9)
        three_fold, two_fold = values[one_nm_width], values[math.inf]
        assert three_fold > two_fold
        assert 0.0 < two_fold < 1.0

    def test_stable_under_grid_refinement(self, source_params, one_nm_width):
        for trigger in (math.inf, one_nm_width):
            source = jsa.filtered_source(source_params, one_nm_width, trigger)
            for samples in (8, 16):  # double the quadrature resolution
                g = _grid_density(
                    source_params, one_nm_width, trigger, samples, 3.0
                )
                assert quadrature.overlap_T(
                    one_nm_width, g, source.delay
                ) == pytest.approx(source.tmax(one_nm_width), rel=1e-9)

    def test_narrowing_trigger_does_not_reduce_overlap(
        self, source_params, one_nm_width
    ):
        values = []
        for factor in (2.5, 1.6, 1.0):  # trigger narrows left to right
            trigger = factor * one_nm_width
            source = jsa.filtered_source(source_params, one_nm_width, trigger)
            values.append(source.tmax(one_nm_width))
            g = _grid_density(source_params, one_nm_width, trigger)
            assert quadrature.overlap_T(
                one_nm_width, g, source.delay
            ) == pytest.approx(values[-1], rel=1e-9)
        assert values[0] <= values[1] <= values[2]


class TestHomScan:
    def test_matched_single_photon_dips_to_zero(self):
        state = hom.SignalState(p0=0.0, p1=1.0, p2=0.0)
        scan = hom.hom_scan_analytic(state, 0.05, 1.0, sigma_t=2.0)
        center = np.argmin(np.abs(scan.tau_axis))
        assert scan.coincidence[center] == pytest.approx(0.0, abs=1e-15)
        assert scan.visibility == pytest.approx(1.0)

    # 1.34e154 s is the smallest of these whose square overflows a double
    @pytest.mark.parametrize(
        "sigma_t", [2e-12, 1.3407807929942597e154, 1e307]
    )
    def test_analytic_overlap_is_gaussian_in_delay(self, sigma_t):
        scan = hom.hom_scan_analytic(
            THREE_FOLD, 0.05, 0.65, sigma_t, n_points=41
        )
        assert scan.tau_axis[0] == pytest.approx(-4.0 * sigma_t)
        assert scan.tau_axis[-1] == pytest.approx(4.0 * sigma_t)
        expected = 0.65 * np.exp(-0.5 * np.linspace(-4.0, 4.0, 41) ** 2)
        np.testing.assert_allclose(scan.overlap, expected, rtol=1e-12)
        assert np.all(np.isfinite(scan.coincidence))
        assert scan.coincidence[20] == np.min(scan.coincidence)

    def test_spectral_scan_matches_width_formula(
        self, source_params, one_nm_width
    ):
        source = jsa.filtered_source(source_params, one_nm_width, one_nm_width)
        g = _grid_density(source_params, one_nm_width, one_nm_width)
        scan = hom.hom_scan_analytic(
            THREE_FOLD,
            0.02,
            source.tmax(one_nm_width),
            source.dip_sigma(one_nm_width),
        )
        # the quadrature overlap is the closed-form Gaussian around the delay
        integrated = [
            quadrature.overlap_T(one_nm_width, g, source.delay + tau)
            for tau in scan.tau_axis
        ]
        np.testing.assert_allclose(scan.overlap, integrated, rtol=1e-9)
        center = np.argmin(np.abs(scan.tau_axis))
        assert scan.coincidence[center] == np.min(scan.coincidence)
        assert 0.0 < scan.visibility < 1.0
