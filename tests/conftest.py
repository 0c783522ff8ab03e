import pytest

from pdckit import jsa, units

import quadrature

# Reconstructed source used across the suite: 2.5 nm pump, 0.5 nm
# phase-matching bandwidth (both intensity FWHM at 796 nm), tilt of
# 54.7 degrees, 2.1 mm guide.
PUMP_FWHM_M = 2.5e-9
PM_FWHM_M = 0.5e-9
TILT_DEG = 54.7
LENGTH_M = 2.1e-3
WAVELENGTH_M = 796e-9


@pytest.fixture(scope="session")
def source_params() -> jsa.PdcModelParams:
    return jsa.params_from_pm_estimate(
        sigma_pump=units.wavelength_fwhm_to_width(PUMP_FWHM_M, WAVELENGTH_M),
        pm_amplitude_width=units.wavelength_fwhm_to_width(
            PM_FWHM_M, WAVELENGTH_M
        ),
        tilt_deg=TILT_DEG,
        length=LENGTH_M,
    )


def _grid(
    source: jsa.FilteredSource,
    samples_per_width: int = 12,
    extent_widths: float = 4.0,
) -> quadrature.SpectralGrid:
    """The source's amplitude on the axis default_axes chooses for it."""
    axis = quadrature.default_axes(source, samples_per_width, extent_widths)
    return quadrature.sample(source, axis)


@pytest.fixture(scope="session")
def source_grid(source_params) -> quadrature.SpectralGrid:
    return _grid(jsa.filtered_source(source_params), 10, 3.5)


@pytest.fixture(scope="session")
def one_nm_width() -> float:
    return units.wavelength_fwhm_to_width(1.0e-9, WAVELENGTH_M)
