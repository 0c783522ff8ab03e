import math

import numpy as np
import pytest

from pdckit import jsa, twin_hom

import quadrature
from conftest import _grid


def _total(aspect, tilt):
    spectral, temporal = twin_hom.model_source(aspect, tilt).twin_overlap()
    return spectral * temporal


class TestClosedFormOverlaps:
    def test_circular_spectral_overlap_is_one(self):
        for tilt in (10.0, 45.0, 54.7, 80.0):
            spectral, _ = twin_hom.model_source(1.0, tilt).twin_overlap()
            assert spectral == pytest.approx(1.0)

    def test_45_degree_tilt_is_perfect(self):
        for aspect in (1.0, 1.7, 4.2, 95.0):
            spectral, temporal = twin_hom.model_source(
                aspect, 45.0
            ).twin_overlap()
            assert spectral == pytest.approx(1.0)
            assert temporal == pytest.approx(1.0)

    def test_spot_values(self):
        # frozen from direct evaluation of the closed forms
        spectral, temporal = twin_hom.model_source(1.7, 54.7).twin_overlap()
        assert spectral == pytest.approx(0.983377, abs=1e-6)
        assert temporal == pytest.approx(0.817321, abs=1e-6)
        _, temporal = twin_hom.model_source(95.0, 54.7).twin_overlap()
        assert temporal == pytest.approx(0.075707, abs=1e-6)

    def test_tilt_reflection_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            aspect = rng.uniform(1.0, 30.0)
            tilt = rng.uniform(1.0, 89.0)
            spectral, temporal = twin_hom.model_source(
                aspect, tilt
            ).twin_overlap()
            mirrored = twin_hom.model_source(aspect, 90.0 - tilt)
            assert (spectral, temporal) == pytest.approx(
                mirrored.twin_overlap(), rel=1e-12
            )

    def test_total_overlap_decreases_with_aspect(self):
        totals = [_total(aspect, 54.7) for aspect in (1.7, 4.2, 95.0)]
        assert totals[0] > totals[1] > totals[2]

    def test_breakdown_consistency(self):
        # the spectral factor is the overlap of the modulus alone, and
        # the two factors multiply to the overlap of the full amplitude
        source = twin_hom.model_source(4.2, 54.7)
        spectral, temporal = source.twin_overlap()
        grid = _grid(source, extent_widths=6.0)
        modulus = quadrature.SpectralGrid.from_amplitude(
            grid.nu_axis.copy(), np.abs(grid.amplitude)
        )
        assert quadrature.overlap_numeric(modulus) == pytest.approx(
            spectral, rel=1e-12
        )
        assert quadrature.overlap_numeric(grid) == pytest.approx(
            spectral * temporal, rel=1e-12
        )

    def test_model_source_validation(self):
        with pytest.raises(ValueError, match="aspect_ratio"):
            twin_hom.model_source(0.5, 45.0)
        # an aspect ratio whose square overflows
        with pytest.raises(OverflowError):
            twin_hom.model_source(1e200, 45.0)


class TestSourceForm:
    @pytest.mark.parametrize("filtered", [False, True])
    def test_twin_overlap_matches_quadrature(
        self, source_params, one_nm_width, filtered
    ):
        """The paper source's closed form equals the exchange integral of
        its sampled amplitude, open and behind 1 nm filters on both arms."""
        width = one_nm_width if filtered else math.inf
        spectral, temporal = jsa.filtered_source(
            source_params, width, width
        ).twin_overlap()
        grid = _grid(jsa.filtered_source(source_params))
        axis = grid.nu_axis
        channel = np.exp(-((axis / width) ** 2))
        grid = quadrature.SpectralGrid.from_amplitude(
            axis, grid.amplitude * np.outer(channel, channel)
        )
        assert quadrature.overlap_numeric(grid) == pytest.approx(
            spectral * temporal, rel=1e-12
        )

    @pytest.mark.parametrize("tilt", [44.999, 45.001])
    @pytest.mark.parametrize("aspect", [1e4, 1e5, 1e6, 1e7, 1e8])
    def test_accurate_near_45_degrees(self, aspect, tilt):
        # in the basis (1, 1), (1, -1) the exchanged form is diagonal,
        # D+- = lam (s -+ c)^2 + (s +- c)^2, with no cancellation
        s, c = math.sin(math.radians(tilt)), math.cos(math.radians(tilt))
        lam = 1.0 / aspect**2
        d_plus = lam * (s - c) ** 2 + (s + c) ** 2
        d_minus = lam * (s + c) ** 2 + (c - s) ** 2
        spectral, temporal = twin_hom.model_source(aspect, tilt).twin_overlap()
        assert spectral == pytest.approx(
            2.0 * math.sqrt(lam / (d_plus * d_minus)), rel=1e-10
        )
        assert temporal == pytest.approx(
            math.exp(-((s - c) ** 2) / jsa.GAMMA / (2.0 * d_minus)),
            rel=1e-10,
        )

    def test_model_source_geometry(self):
        for aspect in (1.7, 4.2, 95.0):
            for tilt in (10.0, 45.0, 54.7, 80.0):
                axes = twin_hom.model_source(aspect, tilt).axes()
                assert axes == pytest.approx(
                    (tilt, aspect, 1.0, aspect), rel=1e-12
                )


class TestNumericOverlap:
    def test_symmetric_real_amplitude_gives_unity(self):
        # zero-phase, 45-degree-tilt Gaussian: exchange leaves it invariant
        grid = _grid(twin_hom.model_source(2.0, 45.0))
        real_grid = quadrature.SpectralGrid.from_amplitude(
            grid.nu_axis.copy(), np.abs(grid.amplitude)
        )
        assert quadrature.overlap_numeric(real_grid) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_matches_closed_form_product(self):
        grid = _grid(twin_hom.model_source(4.2, 54.7))
        numeric = quadrature.overlap_numeric(grid)
        assert numeric == pytest.approx(_total(4.2, 54.7), abs=1e-3)

    def test_strong_correlation_overlap_below_percent(self):
        grid = _grid(
            twin_hom.model_source(95.0, 54.7),
            samples_per_width=8,
            extent_widths=2.5,
        )
        numeric = quadrature.overlap_numeric(grid)
        assert numeric < 0.01
        assert numeric == pytest.approx(_total(95.0, 54.7), abs=1e-3)

    def test_property_sweep_against_closed_form(self):
        rng = np.random.default_rng(9)
        for _ in range(6):
            aspect = rng.uniform(1.0, 20.0)
            tilt = rng.uniform(30.0, 75.0)
            grid = _grid(
                twin_hom.model_source(aspect, tilt),
                samples_per_width=10,
                extent_widths=3.5,
            )
            numeric = quadrature.overlap_numeric(grid)
            assert numeric == pytest.approx(_total(aspect, tilt), abs=1e-3)

    def test_delay_reduces_overlap(self):
        # a relative delay tau shifts the signal phase slope by tau; at
        # tau = 1 the overlap of this form is exp(-1)
        source = twin_hom.model_source(2.0, 45.0)
        delayed = source._replace(phase_s=source.phase_s + 1.0)
        spectral, temporal = delayed.twin_overlap()
        assert spectral * temporal == pytest.approx(math.exp(-1.0), rel=1e-12)
        numeric = quadrature.overlap_numeric(_grid(delayed))
        assert numeric == pytest.approx(spectral * temporal, rel=1e-12)
        assert numeric < quadrature.overlap_numeric(_grid(source))


class TestVisibility:
    def test_zero_overlap_gives_one_third(self):
        assert twin_hom.visibility_from_overlap(0.0) == pytest.approx(1 / 3)

    def test_unit_overlap_gives_one(self):
        assert twin_hom.visibility_from_overlap(1.0) == pytest.approx(1.0)
