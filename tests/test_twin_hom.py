import numpy as np
import pytest

from pdckit import jsa, twin_hom


class TestClosedFormOverlaps:
    def test_circular_spectral_overlap_is_one(self):
        for tilt in (10.0, 45.0, 54.7, 80.0):
            assert twin_hom.spectral_overlap(1.0, tilt) == pytest.approx(1.0)

    def test_45_degree_tilt_is_perfect(self):
        for aspect in (1.0, 1.7, 4.2, 95.0):
            assert twin_hom.spectral_overlap(aspect, 45.0) == pytest.approx(1.0)
            assert twin_hom.temporal_overlap(aspect, 45.0) == pytest.approx(1.0)

    def test_spot_values(self):
        # frozen from direct evaluation of the closed forms
        assert twin_hom.spectral_overlap(1.7, 54.7) == pytest.approx(
            0.983377, abs=1e-6
        )
        assert twin_hom.temporal_overlap(1.7, 54.7, 0.193) == pytest.approx(
            0.817321, abs=1e-6
        )
        assert twin_hom.temporal_overlap(95.0, 54.7, 0.193) == pytest.approx(
            0.075707, abs=1e-6
        )

    def test_tilt_reflection_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            aspect = rng.uniform(1.0, 30.0)
            tilt = rng.uniform(1.0, 89.0)
            assert twin_hom.spectral_overlap(aspect, tilt) == pytest.approx(
                twin_hom.spectral_overlap(aspect, 90.0 - tilt), rel=1e-12
            )
            assert twin_hom.temporal_overlap(aspect, tilt) == pytest.approx(
                twin_hom.temporal_overlap(aspect, 90.0 - tilt), rel=1e-12
            )

    def test_total_overlap_decreases_with_aspect(self):
        totals = [
            twin_hom.overlap_breakdown(aspect, 54.7).o_total
            for aspect in (1.7, 4.2, 95.0)
        ]
        assert totals[0] > totals[1] > totals[2]

    def test_breakdown_consistency(self):
        breakdown = twin_hom.overlap_breakdown(4.2, 54.7)
        assert breakdown.o_total == pytest.approx(
            breakdown.o_spectral * breakdown.o_temporal, abs=1e-12
        )

    def test_breakdown_validation(self):
        with pytest.raises(ValueError):
            twin_hom.OverlapBreakdown(0.5, 0.5, 0.3)
        with pytest.raises(ValueError):
            twin_hom.OverlapBreakdown(1.2, 0.5, 0.6)
        with pytest.raises(ValueError):
            twin_hom.spectral_overlap(0.5, 45.0)


class TestNumericOverlap:
    def test_symmetric_real_amplitude_gives_unity(self):
        # zero-phase, 45-degree-tilt Gaussian: exchange leaves it invariant
        grid = twin_hom.model_grid(2.0, 45.0)
        real_grid = jsa.SpectralGrid.from_amplitude(
            grid.nu_s_axis.copy(),
            grid.nu_i_axis.copy(),
            np.abs(grid.amplitude),
        )
        assert twin_hom.overlap_numeric(real_grid) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_matches_closed_form_product(self):
        grid = twin_hom.model_grid(4.2, 54.7)
        numeric = twin_hom.overlap_numeric(grid)
        closed = twin_hom.overlap_breakdown(4.2, 54.7).o_total
        assert numeric == pytest.approx(closed, abs=1e-3)

    def test_strong_correlation_overlap_below_percent(self):
        grid = twin_hom.model_grid(
            95.0, 54.7, samples_per_width=8, extent_widths=2.5
        )
        numeric = twin_hom.overlap_numeric(grid)
        assert numeric < 0.01
        closed = twin_hom.overlap_breakdown(95.0, 54.7).o_total
        assert numeric == pytest.approx(closed, abs=1e-3)

    def test_property_sweep_against_closed_form(self):
        rng = np.random.default_rng(9)
        for _ in range(6):
            aspect = rng.uniform(1.0, 20.0)
            tilt = rng.uniform(30.0, 75.0)
            grid = twin_hom.model_grid(
                aspect, tilt, samples_per_width=10, extent_widths=3.5
            )
            numeric = twin_hom.overlap_numeric(grid)
            closed = twin_hom.overlap_breakdown(aspect, tilt).o_total
            assert numeric == pytest.approx(closed, abs=1e-3)

    def test_rejects_asymmetric_axes(self):
        grid = twin_hom.model_grid(2.0, 50.0)
        shifted = jsa.SpectralGrid.from_amplitude(
            grid.nu_s_axis.copy(),
            grid.nu_i_axis + 0.5 * (grid.nu_i_axis[1] - grid.nu_i_axis[0]),
            grid.amplitude.copy(),
        )
        with pytest.raises(ValueError, match="identical"):
            twin_hom.overlap_numeric(shifted)

    def test_delay_hook_reduces_overlap(self):
        grid = twin_hom.model_grid(2.0, 45.0)
        aligned = twin_hom.overlap_numeric(grid)
        delayed = twin_hom.overlap_numeric(grid, delay=5.0)
        assert delayed < aligned


class TestVisibility:
    def test_zero_overlap_gives_one_third(self):
        assert twin_hom.visibility_from_overlap(0.0) == pytest.approx(1 / 3)

    def test_unit_overlap_gives_one(self):
        assert twin_hom.visibility_from_overlap(1.0) == pytest.approx(1.0)
