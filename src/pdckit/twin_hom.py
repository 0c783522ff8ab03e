"""Hong-Ou-Mandel interference between the twin beams of one source.

The interference contrast is set by the overlap of the joint amplitude
with its argument-swapped mirror image.  In the Gaussian model that
overlap is a closed form of the source's quadratic form and phase,
jsa.FilteredSource.twin_overlap, and factors into a spectral part, set
by the correlation ellipse, and a temporal part produced by the
phase-matching phase.  model_source builds the form that a given
ellipse geometry prescribes.  The tests check the closed form against
the exchange integral of a sampled amplitude (tests/quadrature.py).
"""

from __future__ import annotations

import math

from .jsa import GAMMA, FilteredSource

__all__ = ["model_source", "visibility_from_overlap"]


def model_source(aspect_ratio: float, tilt_deg: float) -> FilteredSource:
    """The Gaussian form of a correlation ellipse of minor width 1.

    With s, c = sin, cos of the tilt and lam = 1/A^2 for aspect ratio A,
    m11 = lam c^2 + s^2, m12 = (1 - lam) s c, m22 = lam s^2 + c^2 and
    det = lam: the major axis runs along decreasing idler detuning, as
    for co-signed group-velocity mismatch.  The phase slopes are
    (s, c) / sqrt(GAMMA), which identifies the phase-matching width
    with the minor axis.
    """
    if aspect_ratio < 1.0:
        raise ValueError("aspect_ratio must be at least 1")
    lam = 1.0 / aspect_ratio**2
    # reduced in degrees, where fmod is exact, and c taken from the
    # complementary angle, so that s == c at exactly 45 deg
    tilt = math.fmod(tilt_deg, 360.0)
    s = math.sin(math.radians(tilt))
    c = math.sin(math.radians(90.0 - tilt))
    slope = 1.0 / math.sqrt(GAMMA)
    return FilteredSource(
        m11=lam * c * c + s * s,
        m12=(1.0 - lam) * s * c,
        m22=lam * s * s + c * c,
        determinant=lam,
        phase_s=s * slope,
        phase_i=c * slope,
    )


def visibility_from_overlap(overlap: float) -> float:
    """Interference visibility (1+O)/(3-O); 1/3 for distinguishable twins."""
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must lie in [0, 1]")
    return (1.0 + overlap) / (3.0 - overlap)
