"""Spectral width and unit conversions, and evenly spaced axes.

One convention is used everywhere in this package: a Gaussian amplitude
profile exp(-nu^2/w^2) is described by its amplitude 1/e half-width w in
rad/s.  The corresponding intensity profile exp(-2 nu^2/w^2) has FWHM
w*sqrt(2 ln 2), and near a center wavelength lambda an angular-frequency
interval maps to a wavelength interval through lambda^2/(2 pi c).

linspace and geomspace build the sweeps and delay axes of the command
line as lists of Python floats, point for point the values numpy's
functions of the same names give, so no command needs an array.
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


def linspace(low: float, high: float, n: int) -> list[float]:
    """n >= 1 evenly spaced points from low to high, both included.

    Point i is low + i * step with step = (high - low) / (n - 1), and
    the last point is high itself: the values np.linspace(low, high, n)
    holds, bit for bit.  As there, a step that rounds to zero (a
    zero or subnormal span) is replaced by the fraction i / (n - 1) of
    the span, and a single point is low + 0 * (high - low).
    """
    span = high - low
    if n == 1:
        return [0.0 * span + low]
    divisions = n - 1
    step = span / divisions
    if step == 0:
        points = [i / divisions * span + low for i in range(n)]
    else:
        points = [i * step + low for i in range(n)]
    points[-1] = high
    return points


def geomspace(low: float, high: float, n: int) -> list[float]:
    """n >= 1 points from low to high, both positive, in geometric
    progression, both ends included.

    The interior points are 10**x over linspace(log10(low), log10(high),
    n) and the end points are low and high themselves, as in
    np.geomspace; a power beyond the float range is inf, as there.  The
    values equal numpy's where its log10 and power round as the C
    library's do; its SIMD kernels (AVX-512) can differ by an ulp.
    """
    logs = linspace(math.log10(low), math.log10(high), n)
    points = [low]
    for x in logs[1:-1]:
        try:
            points.append(10.0**x)
        except OverflowError:
            points.append(math.inf)
    if n > 1:
        points.append(high)
    return points
