import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdckit import hom_reference as hom
from pdckit import jsa, units
from pdckit.errors import NumericalError

from conftest import LENGTH_M, PM_FWHM_M, TILT_DEG, WAVELENGTH_M


def _params(sigma=2.0, ks=1.5, ki=1.0, length=2.0, gamma=0.193):
    # dimensionless-scale source; every operation is scale invariant
    return jsa.PdcModelParams(
        sigma_pump=sigma, kappa_s=ks, kappa_i=ki, length=length, gamma=gamma
    )


def _matrix_by_hand(p):
    # pump term plus phase-matching term, written out independently
    pump = 1.0 / p.sigma_pump**2
    pm = p.gamma * p.length**2 / 4.0
    return np.array(
        [
            [pump + pm * p.kappa_s**2, pump + pm * p.kappa_s * p.kappa_i],
            [pump + pm * p.kappa_s * p.kappa_i, pump + pm * p.kappa_i**2],
        ]
    )


class TestParamsValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            _params(sigma=0.0)
        with pytest.raises(ValueError):
            _params(length=-1.0)
        with pytest.raises(ValueError):
            _params(gamma=1.5)
        with pytest.raises(ValueError):
            _params(ks=0.0, ki=0.0)


class TestBuildEllipse:
    def test_equal_kappas_tilt_45_and_degenerate(self):
        ellipse = jsa.build_ellipse(_params(ks=1.2, ki=1.2))
        assert ellipse.tilt_deg == pytest.approx(45.0, abs=1e-12)
        assert math.isinf(ellipse.major_width)
        assert math.isinf(ellipse.aspect_ratio)

    def test_broadband_pump_limit(self):
        # nearly flat pump: tilt -> atan(kappa_s/kappa_i), minor axis ->
        # pure phase-matching width
        tilt = 54.7
        ks, ki = math.sin(math.radians(tilt)), math.cos(math.radians(tilt))
        probe = _params(sigma=1.0, ks=ks, ki=ki)
        sigma_pm = jsa.pm_width(probe)
        params = _params(sigma=1e6 * sigma_pm, ks=ks, ki=ki)
        ellipse = jsa.build_ellipse(params)
        assert ellipse.tilt_deg == pytest.approx(tilt, abs=1e-4)
        assert ellipse.minor_width == pytest.approx(
            jsa.pm_width(params), rel=1e-6
        )
        assert math.isfinite(ellipse.major_width)

    def test_matches_brute_force_eigensolver(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            ks, ki = rng.uniform(0.2, 3.0, size=2) * rng.choice([-1.0, 1.0], 2)
            if abs(ks - ki) < 0.1 * max(abs(ks), abs(ki)):
                continue
            params = _params(
                sigma=rng.uniform(0.3, 5.0), ks=ks, ki=ki,
                length=rng.uniform(0.5, 4.0),
            )
            ellipse = jsa.build_ellipse(params)

            eigenvalues, eigenvectors = np.linalg.eigh(_matrix_by_hand(params))
            order = np.argsort(eigenvalues)
            lam_min, lam_max = eigenvalues[order[0]], eigenvalues[order[1]]
            assert ellipse.major_width == pytest.approx(
                1.0 / math.sqrt(lam_min), rel=1e-6
            )
            assert ellipse.minor_width == pytest.approx(
                1.0 / math.sqrt(lam_max), rel=1e-9
            )
            major_vec = eigenvectors[:, order[0]]
            fold_angle = math.degrees(
                math.atan2(abs(major_vec[1]), abs(major_vec[0]))
            )
            assert ellipse.tilt_deg == pytest.approx(fold_angle, abs=1e-6)

    def test_tilt_invariant_under_uniform_scaling(self):
        rng = np.random.default_rng(11)
        base = _params(sigma=2.0, ks=1.7, ki=0.9)
        reference = jsa.build_ellipse(base).tilt_deg
        for _ in range(20):
            scale = rng.uniform(0.01, 100.0)
            scaled = _params(
                sigma=base.sigma_pump / scale,
                ks=base.kappa_s * scale,
                ki=base.kappa_i * scale,
            )
            assert jsa.build_ellipse(scaled).tilt_deg == pytest.approx(
                reference, rel=1e-9
            )

    def test_separable_tilt_convention(self):
        # diagonal form: tilt 0 when the signal axis is the wide one
        params = _params(sigma=1.0, ks=2.0, ki=-1.0 / (1.0**2 * 0.193 * 1.0 * 2.0), length=2.0)
        m11, m12, m22 = jsa.correlation_matrix(params)
        assert m12 == pytest.approx(0.0, abs=1e-15)
        ellipse = jsa.build_ellipse(params)
        assert ellipse.tilt_deg in (0.0, 90.0)


class TestPmWidth:
    def test_doubling_length_halves_width(self):
        widths = jsa.pm_width(_params(), np.array([1.0, 2.0]))
        assert widths[0] == pytest.approx(2.0 * widths[1], rel=1e-12)

    def test_strictly_decreasing_in_length(self):
        widths = jsa.pm_width(_params(), np.linspace(0.5, 4.0, 9))
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_array_of_lengths_matches_each_length(self):
        params = _params()
        lengths = np.linspace(0.5, 4.0, 9)
        widths = jsa.pm_width(params, lengths)
        assert widths.shape == lengths.shape
        for length, width in zip(lengths.tolist(), widths.tolist()):
            assert width == jsa.pm_width(params, length)
        assert jsa.pm_width(params) == jsa.pm_width(params, params.length)

    def test_guide_scale_bandwidth(self):
        # mismatch coefficients of a few-mm potassium-titanyl-phosphate
        # guide around 796 nm put the bandwidth near half a nanometer
        params = jsa.PdcModelParams(
            sigma_pump=6.3e12,
            kappa_s=1.40e-9,
            kappa_i=0.99e-9,
            length=2.1e-3,
        )
        fwhm = units.width_to_wavelength_fwhm(jsa.pm_width(params), WAVELENGTH_M)
        assert 0.4e-9 <= fwhm <= 0.6e-9

    def test_single_point_hand_evaluation(self):
        params = _params(sigma=3.0, ks=1.1, ki=0.4, length=2.5, gamma=0.2)
        expected = 2.0 / (2.5 * math.sqrt(0.2 * (1.1**2 + 0.4**2)))
        assert jsa.pm_width(params) == pytest.approx(expected, rel=1e-12)


class TestEvaluateJsa:
    def test_unit_amplitude_at_origin(self, source_params, source_grid):
        i0 = np.argmin(np.abs(source_grid.nu_s_axis))
        j0 = np.argmin(np.abs(source_grid.nu_i_axis))
        assert source_grid.nu_s_axis[i0] == 0.0
        assert abs(source_grid.amplitude[i0, j0]) == pytest.approx(1.0)

    def test_pump_factor_is_one_on_antidiagonal(self, source_params):
        params = source_params
        axis = jsa.default_axes(params, samples_per_width=10, extent_widths=3.5)
        grid = jsa.evaluate_jsa(params, axis, axis)
        # on nu_i = -nu_s only the phase-matching factor survives
        pm = params.gamma * params.length**2 / 4.0
        idx = np.arange(axis.size)
        anti = np.abs(grid.amplitude[idx, idx[::-1]])
        expected = np.exp(
            -pm * ((params.kappa_s - params.kappa_i) * axis) ** 2
        )
        assert np.allclose(anti, expected, rtol=1e-10, atol=1e-300)

    def test_norm_matches_gaussian_closed_form(self, source_params, source_grid):
        matrix = _matrix_by_hand(source_params)
        expected = math.pi / (2.0 * math.sqrt(np.linalg.det(matrix)))
        assert source_grid.norm == pytest.approx(expected, rel=1e-4)

    def test_modulus_symmetric_under_sign_flip(self, source_grid):
        modulus = np.abs(source_grid.amplitude)
        assert np.allclose(modulus, modulus[::-1, ::-1], rtol=1e-12)

    def test_rejects_coarse_grid(self, source_params):
        axis = jsa.default_axes(source_params)
        with pytest.raises(ValueError, match="too coarse"):
            jsa.evaluate_jsa(source_params, axis[::24], axis[::24])

    def test_rejects_short_span(self, source_params):
        fine = np.linspace(-1e11, 1e11, 64)  # resolves but does not span
        with pytest.raises(ValueError, match="spans"):
            jsa.evaluate_jsa(source_params, fine, fine)

    def test_default_axes_rejects_degenerate(self):
        with pytest.raises(ValueError, match="rank one"):
            jsa.default_axes(_params(ks=1.0, ki=1.0))


class TestReducedDensity:
    @staticmethod
    def _separable_params():
        # kappa_i chosen to cancel the off-diagonal entry exactly
        sigma, ks, length, gamma = 1.0, 2.0, 2.0, 0.25
        pm = gamma * length**2 / 4.0
        ki = -1.0 / (sigma**2 * pm * ks)
        return jsa.PdcModelParams(
            sigma_pump=sigma, kappa_s=ks, kappa_i=ki, length=length, gamma=gamma
        )

    def _density(self, params, ws=math.inf, wi=math.inf, spw=10, extent=3.5):
        axis = jsa.default_axes(params, samples_per_width=spw, extent_widths=extent)
        grid = jsa.evaluate_jsa(params, axis, axis)
        return jsa.reduced_density(grid, ws, wi)

    def test_separable_state_is_pure(self):
        g = self._density(self._separable_params())
        assert jsa.purity(g) == pytest.approx(1.0, abs=1e-9)

    def test_correlated_state_is_mixed(self, source_params):
        g = self._density(source_params)
        assert jsa.purity(g) < 0.5

    def test_trace_and_spectrum(self, source_params):
        g = self._density(source_params)
        assert g.trace() == pytest.approx(1.0, abs=1e-6)
        assert np.all(g.eigenvalues() >= -1e-9)
        assert np.allclose(g.density, np.conj(g.density.T))

    def test_equal_mixture_of_two_modes_has_purity_half(self):
        axis = np.linspace(-30.0, 30.0, 1201)
        modes = []
        for center in (-10.0, 10.0):  # far enough apart to be orthogonal
            amplitude = np.exp(-((axis - center) ** 2))
            weights = jsa.trapezoid_weights(axis)
            amplitude /= math.sqrt(float(amplitude**2 @ weights))
            modes.append(amplitude)
        density = 0.5 * (
            np.outer(modes[0], modes[0]) + np.outer(modes[1], modes[1])
        )
        g = jsa.ReducedDensity(nu_axis=axis, density=density)
        assert jsa.purity(g) == pytest.approx(0.5, abs=1e-9)

    def test_purity_equals_sum_of_squared_eigenvalues(self, source_params):
        g = self._density(source_params)
        spectrum = g.eigenvalues()
        assert jsa.purity(g) == pytest.approx(
            float(np.sum(spectrum**2)), rel=1e-9
        )

    def test_purity_matches_gaussian_closed_form(self, source_params):
        g = self._density(source_params)
        matrix = _matrix_by_hand(source_params)
        expected = math.sqrt(
            np.linalg.det(matrix) / (matrix[0, 0] * matrix[1, 1])
        )
        assert jsa.purity(g) == pytest.approx(expected, rel=1e-3)

    def test_purity_decreases_as_idler_filter_widens(
        self, source_params, one_nm_width
    ):
        purities = []
        for factor in (1.0, 2.5, 5.0):
            wi = factor * one_nm_width
            purities.append(jsa.purity(self._density(source_params, wi=wi)))
        assert purities[0] > purities[1] > purities[2]

    def test_filters_between_samples_raise(self, source_params, one_nm_width):
        # shifted by half a step, the axes miss the filters' centre, and
        # filters this narrow transmit nothing at any sample
        axis = jsa.default_axes(
            source_params, samples_per_width=10, extent_widths=3.5
        )
        axis = axis + 0.5 * (axis[1] - axis[0])
        grid = jsa.evaluate_jsa(source_params, axis, axis)
        narrow = one_nm_width / 1e4
        with pytest.raises(NumericalError, match="support"):
            jsa.reduced_density(grid, narrow, narrow)

    def test_open_filters_are_infinite_widths(self, source_params):
        axis = jsa.default_axes(
            source_params, samples_per_width=10, extent_widths=3.5
        )
        grid = jsa.evaluate_jsa(source_params, axis, axis)
        g = jsa.reduced_density(grid)
        assert g.density.shape == (axis.size, axis.size)
        assert np.array_equal(
            g.density, jsa.reduced_density(grid, math.inf, math.inf).density
        )
        for width in (0.0, -1.0):
            with pytest.raises(ValueError, match="positive"):
                jsa.reduced_density(grid, width)


def _nm(fwhm_nm):
    return units.wavelength_fwhm_to_width(fwhm_nm * 1e-9, WAVELENGTH_M)


def _quadrature_axis(params, source, reference_width, samples_per_width):
    """A common detuning axis for the sampled route.

    The step resolves the unfiltered amplitude as default_axes does.
    The span covers four widths of the filtered amplitude
    exp(-nu^T M' nu), whose support is what the filtered density
    integrates, and of the reference, which overlap_T normalises on
    the axis; and the four pump and phase-matching widths that
    evaluate_jsa asks for.  The unfiltered support of a strongly
    correlated source would need up to 24 times as many points.
    """
    m11, _, m22 = jsa.correlation_matrix(params)
    pm = [
        2.0 / (math.sqrt(params.gamma) * params.length * abs(kappa))
        for kappa in (params.kappa_s, params.kappa_i)
    ]
    half = max(
        4.0 * math.sqrt(max(source.m11, source.m22) / source.determinant),
        4.0 * reference_width,
        2.0 * max(params.sigma_pump, *pm),
    )
    step = 1.0 / math.sqrt(max(m11, m22)) / samples_per_width
    return np.linspace(-half, half, 2 * math.ceil(half / step) + 1)


class TestFilteredSource:
    @settings(max_examples=10, deadline=None)
    @given(
        pump=st.floats(1.5, 4.0),
        phase_matching=st.floats(0.3, 0.8),
        tilt=st.floats(48.0, 62.0),
        signal=st.floats(0.5, 3.0),
        trigger=st.one_of(st.none(), st.floats(0.5, 3.0)),
        reference=st.floats(0.5, 3.0),
        samples=st.sampled_from([8, 12, 16]),
    )
    def test_closed_forms_match_quadrature(
        self, pump, phase_matching, tilt, signal, trigger, reference, samples
    ):
        """Tmax, purity and dip sigma of the form equal the sampled route's."""
        params = jsa.params_from_pm_estimate(
            _nm(pump), _nm(phase_matching), tilt, LENGTH_M
        )
        ws, wr = _nm(signal), _nm(reference)
        wt = math.inf if trigger is None else _nm(trigger)
        source = jsa.filtered_source(params, ws, wt)
        axis = _quadrature_axis(params, source, wr, samples)
        g = jsa.reduced_density(jsa.evaluate_jsa(params, axis, axis), ws, wt)
        peak = hom.overlap_T(wr, g, source.delay)
        assert peak == pytest.approx(source.tmax(wr), rel=1e-12)
        assert jsa.purity(g) == pytest.approx(source.purity, rel=1e-12)
        sigma = source.dip_sigma(wr)
        for tau in (source.delay - sigma, source.delay + sigma):
            assert hom.overlap_T(wr, g, tau) / peak == pytest.approx(
                math.exp(-0.5), rel=1e-12
            )


class TestPaperScaleEllipse:
    def test_reconstructed_source_geometry(self, source_params):
        ellipse = jsa.build_ellipse(source_params)
        # measured tilt 54.7 +- 1.5 deg brackets the rebuilt ellipse
        assert 53.2 <= ellipse.tilt_deg <= 56.2
        assert 20.0 <= ellipse.aspect_ratio <= 25.0
        minor_fwhm = units.width_to_wavelength_fwhm(
            ellipse.minor_width, WAVELENGTH_M
        )
        # finite pump narrows the minor axis slightly below the
        # phase-matching bandwidth
        assert PM_FWHM_M * 0.9 <= minor_fwhm <= PM_FWHM_M

    def test_pm_estimate_roundtrip(self, source_params):
        sigma_pm = jsa.pm_width(source_params)
        expected = units.wavelength_fwhm_to_width(PM_FWHM_M, WAVELENGTH_M)
        assert sigma_pm == pytest.approx(expected, rel=1e-12)
        assert math.tan(math.radians(TILT_DEG)) == pytest.approx(
            source_params.kappa_s / source_params.kappa_i, rel=1e-12
        )
        assert source_params.length == LENGTH_M
