"""Spectral width and unit conversions.

One convention is used everywhere in this package: a Gaussian amplitude
profile exp(-nu^2/w^2) is described by its amplitude 1/e half-width w in
rad/s.  The corresponding intensity profile exp(-2 nu^2/w^2) has FWHM
w*sqrt(2 ln 2), and near a center wavelength lambda an angular-frequency
interval maps to a wavelength interval through lambda^2/(2 pi c).
"""

from __future__ import annotations

import math

C_LIGHT = 299_792_458.0  # m/s

_SQRT_2LN2 = math.sqrt(2.0 * math.log(2.0))


def wavelength_fwhm_to_width(fwhm_lambda: float, wavelength: float) -> float:
    """Amplitude 1/e half-width (rad/s) from an intensity FWHM in meters."""
    return 2.0 * math.pi * C_LIGHT / wavelength**2 * fwhm_lambda / _SQRT_2LN2


def width_to_wavelength_fwhm(width: float, wavelength: float) -> float:
    """Intensity FWHM in meters from an amplitude 1/e half-width (rad/s)."""
    return wavelength**2 / (2.0 * math.pi * C_LIGHT) * (width * _SQRT_2LN2)


def normal_sigma_to_fwhm(sigma: float) -> float:
    """FWHM of exp(-x^2/(2 sigma^2)), e.g. the temporal dip profile."""
    return 2.0 * _SQRT_2LN2 * sigma
