"""Acceptance suite: one test per headline requirement.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion with its runtime.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from pdckit import hom_reference as hom
from pdckit import jsa, photon_stats, twin_hom, units

WAVELENGTH = 796e-9
TWO_FOLD = hom.SignalState(p0=0.997896, p1=0.002101, p2=0.000003)
THREE_FOLD = hom.SignalState(p0=0.94920, p1=0.05065, p2=0.00015)


@contextmanager
def criterion(number: int, description: str, time_limit: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < time_limit, (
            f"runtime {elapsed:.2f} s exceeds the {time_limit:.0f} s budget"
        )
    except AssertionError:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(
        f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.2f} s)"
    )


def _nm_width(fwhm_nm: float) -> float:
    return units.wavelength_fwhm_to_width(fwhm_nm * 1e-9, WAVELENGTH)


def _reconstructed_source() -> jsa.PdcModelParams:
    return jsa.params_from_pm_estimate(
        sigma_pump=_nm_width(2.5),
        pm_amplitude_width=_nm_width(0.5),
        tilt_deg=54.7,
        length=2.1e-3,
    )


def test_criterion_1_maximum_visibilities():
    with criterion(
        1, "maximal visibilities from measured statistics", time_limit=1.0
    ):
        assert hom.max_visibility(TWO_FOLD, 1.0) == pytest.approx(
            0.46, abs=0.005
        )
        assert hom.max_visibility(THREE_FOLD, 1.0) == pytest.approx(
            0.75, abs=0.005
        )
        # the closed-form optimum agrees with a dense scan
        for state in (TWO_FOLD, THREE_FOLD):
            betas = np.geomspace(1e-5, 1.0, 2001)
            scanned = max(
                hom.visibility_vs_beta(state, 1.0, float(b)) for b in betas
            )
            assert scanned <= hom.max_visibility(state, 1.0) + 1e-9


def test_criterion_2_fidelity_headline():
    with criterion(2, "heralded-state fidelity", time_limit=1.0):
        result = hom.fidelity(0.65, 0.931)
        assert result.fidelity == pytest.approx(0.78, abs=0.01)


def test_criterion_3_maximum_likelihood_inversion():
    with criterion(
        3, "loss inversion of the measured heralded statistics", time_limit=5.0
    ):
        observed = np.array([0.94920, 0.05065, 0.00015])
        result = photon_stats.invert_loss_only(
            observed,
            0.048,
            max_iter=400_000,
            tol=1e-12,
        )
        assert result.converged
        rho = result.state.probs
        assert 0.925 <= rho[1] <= 0.937
        assert 0.060 <= rho[2] <= 0.072


def test_criterion_4_twin_interference_chain():
    with criterion(
        4, "twin interference visibility against aspect ratio", time_limit=1.0
    ):
        strong = twin_hom.overlap_breakdown(95.0, 54.7).o_total
        assert twin_hom.visibility_from_overlap(strong) == pytest.approx(
            0.34, abs=0.02
        )
        weak = twin_hom.overlap_breakdown(1.7, 54.7).o_total
        assert 0.78 <= twin_hom.visibility_from_overlap(weak) <= 0.86


def test_criterion_5_overlap_oracle_equivalence():
    with criterion(
        5, "numeric exchange overlap equals the closed form", time_limit=10.0
    ):
        worst = 0.0
        for aspect in (1.0, 1.7, 4.2, 10.0, 20.0):
            for tilt in (45.0, 54.7, 60.0):
                grid = twin_hom.model_grid(
                    aspect, tilt, samples_per_width=10, extent_widths=3.5
                )
                numeric = twin_hom.overlap_numeric(grid)
                closed = twin_hom.overlap_breakdown(aspect, tilt).o_total
                worst = max(worst, abs(numeric - closed))
        assert worst < 1e-3


def test_criterion_6_dip_width():
    with criterion(
        6, "temporal dip width formula and numeric scan", time_limit=10.0
    ):
        params = _reconstructed_source()
        one_nm = _nm_width(1.0)
        source = jsa.filtered_source(params, one_nm, one_nm)
        sigma_t = source.dip_sigma(one_nm)
        assert units.normal_sigma_to_fwhm(sigma_t) == pytest.approx(
            2.0e-12, abs=0.3e-12
        )

        axis = jsa.default_axes(params, samples_per_width=10, extent_widths=3.5)
        grid = jsa.evaluate_jsa(params, axis, axis)
        g = jsa.reduced_density(grid, one_nm, one_nm)
        taus = np.linspace(-4.0 * sigma_t, 4.0 * sigma_t, 81)
        overlap = [hom.overlap_T(one_nm, g, source.delay + t) for t in taus]
        fit = np.polyfit(taus, np.log(overlap), 2)
        fitted_sigma = math.sqrt(-1.0 / (2.0 * fit[0]))
        assert fitted_sigma == pytest.approx(sigma_t, rel=1e-6)


def test_criterion_7_statistics_round_trip():
    with criterion(
        7, "click-statistics inversion recovers random states", time_limit=30.0
    ):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(50):
            front = rng.dirichlet([1.0, 1.0, 1.0])
            truth = np.zeros(7)  # states embedded at the forward cutoff
            truth[:3] = front
            eta = rng.uniform(0.03, 0.5)
            clicks = photon_stats.forward_click_dist(
                photon_stats.PhotonNumberDist(truth),
                eta,
            )
            result = photon_stats.ml_invert(
                clicks,
                eta,
                max_iter=400_000,
                tol=1e-13,
            )
            assert result.converged
            recovered = np.zeros(truth.size)
            recovered[: result.state.probs.size] = result.state.probs
            worst = max(worst, float(np.max(np.abs(recovered - truth))))
        assert worst < 1e-3


def test_criterion_8_mode_count_estimation():
    with criterion(
        8, "mode-count ratio from power-dependence slopes", time_limit=5.0
    ):
        gains = [0.01, 0.02, 0.03, 0.04, 0.05]

        def series(n_modes):
            points = []
            for gain in gains:
                dist = photon_stats.multimode_dist(
                    photon_stats.MultimodeSource(n_modes=n_modes, gain_sq=gain),
                    nmax=16,
                )
                points.append(
                    (gain, photon_stats.heralded_dist(dist, 0.0).mean())
                )
            return points

        fit = photon_stats.estimate_mode_reduction(series(31), series(1))
        implied = photon_stats.implied_mode_count(fit.slope_ratio, 1)
        assert implied == pytest.approx(31.0, rel=0.05)
        assert 10.0 <= implied <= 100.0  # an order-thirty reduction


def test_criterion_9_heralding_monotonicity():
    with criterion(
        9, "filtered herald raises overlap and purity", time_limit=30.0
    ):
        params = _reconstructed_source()
        one_nm = _nm_width(1.0)
        axis = jsa.default_axes(params, samples_per_width=10, extent_widths=3.5)
        grid = jsa.evaluate_jsa(params, axis, axis)

        tmax, purities = {}, []
        # no trigger filter, then a trigger that narrows
        for trigger_fwhm_nm in (math.inf, 2.5, 1.75, 1.0):
            trigger = _nm_width(trigger_fwhm_nm)
            source = jsa.filtered_source(params, one_nm, trigger)
            g = jsa.reduced_density(grid, one_nm, trigger)
            tmax[trigger_fwhm_nm] = source.tmax(one_nm)
            purities.append(source.purity)
            # the sampled route agrees with the closed forms
            assert hom.overlap_T(one_nm, g, source.delay) == pytest.approx(
                tmax[trigger_fwhm_nm], rel=1e-9
            )
            assert jsa.purity(g) == pytest.approx(purities[-1], rel=1e-9)
        assert tmax[1.0] > tmax[math.inf]
        assert purities[1] < purities[2] < purities[3]
