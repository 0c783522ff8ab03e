"""Hong-Ou-Mandel interference between the twin beams of one source.

The interference contrast is set by the overlap of the joint amplitude
with its argument-swapped mirror image.  In the Gaussian model the
overlap factors into a spectral part, fixed by the correlation-ellipse
geometry, and a temporal part produced by the phase-matching phase;
both depend on the tilt only through sin(2*tilt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jsa import SpectralGrid, _symmetric_axis, trapezoid_weights

__all__ = [
    "OverlapBreakdown",
    "spectral_overlap",
    "temporal_overlap",
    "overlap_breakdown",
    "overlap_numeric",
    "model_grid",
    "visibility_from_overlap",
]


@dataclass(frozen=True)
class OverlapBreakdown:
    """Spectral, temporal and total twin overlap, each in [0, 1]."""

    o_spectral: float
    o_temporal: float
    o_total: float

    def __post_init__(self) -> None:
        for value in (self.o_spectral, self.o_temporal, self.o_total):
            if not 0.0 <= value <= 1.0:
                raise ValueError("overlap factors must lie in [0, 1]")
        if abs(self.o_total - self.o_spectral * self.o_temporal) > 1e-12:
            raise ValueError("o_total must equal o_spectral * o_temporal")


def _sin_two_tilt(tilt_deg: float) -> float:
    return math.sin(2.0 * math.radians(tilt_deg))


def spectral_overlap(aspect_ratio: float, tilt_deg: float) -> float:
    """Closed-form spectral overlap of the twins.

    2A / sqrt((1+A^4)(1-sin^2 2t) + 2A^2 (1+sin^2 2t)) for aspect ratio
    A and tilt t; equals 1 for a circular correlation function or for a
    45-degree tilt.
    """
    if aspect_ratio < 1.0:
        raise ValueError("aspect_ratio must be at least 1")
    if math.isinf(aspect_ratio):
        return 0.0
    s2 = _sin_two_tilt(tilt_deg) ** 2
    a2 = aspect_ratio**2
    denominator = (1.0 + a2 * a2) * (1.0 - s2) + 2.0 * a2 * (1.0 + s2)
    return 2.0 * aspect_ratio / math.sqrt(denominator)


def temporal_overlap(
    aspect_ratio: float, tilt_deg: float, gamma: float = 0.193
) -> float:
    """Closed-form temporal overlap produced by the phase-matching phase.

    Uses the identification of the phase-matching width with the
    ellipse minor axis; equal to 1 at a 45-degree tilt where the phase
    is symmetric under exchange of the twins.
    """
    if aspect_ratio < 1.0:
        raise ValueError("aspect_ratio must be at least 1")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    s = _sin_two_tilt(tilt_deg)
    a2 = aspect_ratio**2
    if math.isinf(aspect_ratio):
        # limit of the expression below for unbounded aspect ratio
        return 1.0 if s == 1.0 else math.exp(-1.0 / (2.0 * gamma))
    numerator = (1.0 - s * s) * a2 + (1.0 - s) ** 2
    denominator = (1.0 + a2 * a2) * (1.0 - s * s) + 2.0 * a2 * (1.0 + s * s)
    return math.exp(-a2 / (2.0 * gamma) * numerator / denominator)


def overlap_breakdown(
    aspect_ratio: float, tilt_deg: float, gamma: float = 0.193
) -> OverlapBreakdown:
    o_s = spectral_overlap(aspect_ratio, tilt_deg)
    o_t = temporal_overlap(aspect_ratio, tilt_deg, gamma)
    return OverlapBreakdown(o_spectral=o_s, o_temporal=o_t, o_total=o_s * o_t)


def overlap_numeric(grid: SpectralGrid, delay: float = 0.0) -> float:
    """Twin overlap by direct quadrature of the exchange integral.

    Evaluates |integral of phi(nu_s, nu_i) phi*(nu_i, nu_s)| divided by
    the squared norm.  The two detuning axes must be identical so the
    argument swap is a transposition.  delay inserts a relative delay
    phase exp(i delay (nu_s - nu_i)); no compensation is applied by
    default.
    """
    if grid.nu_s_axis.shape != grid.nu_i_axis.shape or not np.array_equal(
        grid.nu_s_axis, grid.nu_i_axis
    ):
        raise ValueError(
            "overlap_numeric needs identical signal and idler axes"
        )
    weights = trapezoid_weights(grid.nu_s_axis)
    integrand = grid.amplitude * np.conj(grid.amplitude.T)
    if delay != 0.0:
        axis = grid.nu_s_axis
        integrand = integrand * np.exp(
            1j * delay * (axis[:, None] - axis[None, :])
        )
    numerator = complex(weights @ integrand @ weights)
    modulus = abs(numerator)
    # flag structural asymmetry, not quadrature roundoff: tiny overlaps
    # sit at the rounding floor of the norm-scale summation
    rounding_floor = 1e-12 * grid.norm
    if abs(numerator.imag) > max(1e-9 * modulus, rounding_floor):
        raise RuntimeError(
            "exchange integral has an unexpectedly large imaginary part"
        )
    return modulus / grid.norm


def model_grid(
    aspect_ratio: float,
    tilt_deg: float,
    minor_width: float = 1.0,
    gamma: float = 0.193,
    samples_per_width: int = 12,
    extent_widths: float = 4.0,
) -> SpectralGrid:
    """Joint-amplitude grid for a prescribed ellipse geometry.

    The modulus is the Gaussian ellipse with the given aspect ratio,
    tilt and minor width (major axis oriented along decreasing idler
    detuning, the physical orientation for co-signed group-velocity
    mismatch).  The phase grows along the gradient of the
    phase-matching argument, direction (sin t, cos t), with the slope
    fixed by identifying the phase-matching width with the minor axis.
    """
    if aspect_ratio < 1.0:
        raise ValueError("aspect_ratio must be at least 1")
    if not 0.0 < tilt_deg < 90.0:
        raise ValueError("tilt must lie strictly in (0, 90) deg")
    lam_min = 1.0 / (aspect_ratio * minor_width) ** 2
    lam_max = 1.0 / minor_width**2
    s, c = math.sin(math.radians(tilt_deg)), math.cos(math.radians(tilt_deg))
    t11 = lam_min * c * c + lam_max * s * s
    t22 = lam_min * s * s + lam_max * c * c
    t12 = (lam_max - lam_min) * s * c
    axis = _symmetric_axis(
        t11, t22, lam_min * lam_max, samples_per_width, extent_widths
    )

    ns = axis[:, None]
    ni = axis[None, :]
    modulus = np.exp(-(t11 * ns**2 + 2.0 * t12 * ns * ni + t22 * ni**2))
    phase = (s * ns + c * ni) / (math.sqrt(gamma) * minor_width)
    return SpectralGrid.from_amplitude(axis, axis, modulus * np.exp(1j * phase))


def visibility_from_overlap(overlap: float) -> float:
    """Interference visibility (1+O)/(3-O); 1/3 for distinguishable twins."""
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must lie in [0, 1]")
    return (1.0 + overlap) / (3.0 - overlap)
