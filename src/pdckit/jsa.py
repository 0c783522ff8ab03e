"""Gaussian model of the joint spectral amplitude of a waveguided
parametric down-conversion source.

The joint amplitude of a signal/idler pair at detunings (nu_s, nu_i)
from the central frequencies is modeled as the product of a Gaussian
pump envelope exp(-(nu_s+nu_i)^2/sigma^2) and a Gaussian
phase-matching factor

    exp(-GAMMA L^2 (kappa_s nu_s + kappa_i nu_i)^2 / 4)
    * exp(i L (kappa_s nu_s + kappa_i nu_i) / 2),

where kappa_s, kappa_i are group-velocity mismatch coefficients, L the
medium length, and GAMMA the fixed factor that fits the Gaussian
exp(-GAMMA x^2) to the main lobe of sinc(x) (U'Ren et al., Laser
Phys. 15, 146 (2005)).  The modulus is exp(-nu^T M nu) for a symmetric
positive 2x2 form M.

A Gaussian filter of amplitude width w transmits the intensity
exp(-2 nu^2/w^2), centred on the channel's central frequency; an
infinite width leaves the channel open.  Filters keep the amplitude
Gaussian: they add 1/w^2 to the diagonal of M.  FilteredSource holds
the filtered form M' and the slopes of the linear phase.  The
correlation ellipse (whose tilt and aspect ratio quantify the spectral
correlation of the pair), the purity of the heralded signal, its
overlap with a Gaussian reference and the twins' exchange overlap are
Gaussian integrals of that form, in closed form.  The tests check
them against quadrature of the sampled amplitude (tests/quadrature.py).

All widths follow the amplitude 1/e convention of :mod:`pdckit.units`.
Every type is immutable after construction and every operation is a
pure function.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import require

__all__ = [
    "GAMMA",
    "PdcModelParams",
    "FilteredSource",
    "pm_width",
    "params_from_pm_estimate",
    "filtered_source",
]

# the factor of the Gaussian exp(-GAMMA x^2) that stands in for sinc(x)
GAMMA = 0.193


class _PdcModelParamsFields(NamedTuple):
    sigma_pump: float
    kappa_s: float
    kappa_i: float
    length: float


class PdcModelParams(_PdcModelParamsFields):
    """Physical description of the down-conversion source.

    The values are checked at construction and again by _replace.

    Attributes:
        sigma_pump: pump amplitude 1/e half-width (rad/s).
        kappa_s, kappa_i: group-velocity mismatch of signal/idler against
            the pump (s/m).  Material inputs, not computed here.
        length: length of the nonlinear medium (m).
    """

    __slots__ = ()

    def __new__(
        cls,
        sigma_pump: float,
        kappa_s: float,
        kappa_i: float,
        length: float,
    ) -> PdcModelParams:
        require(sigma_pump > 0, "sigma_pump must be positive")
        require(length > 0, "length must be positive")
        require(
            kappa_s != 0 or kappa_i != 0,
            "kappa_s and kappa_i must not both vanish",
        )
        return super().__new__(cls, sigma_pump, kappa_s, kappa_i, length)

    @classmethod
    def _make(cls, iterable) -> PdcModelParams:
        # the inherited _make, which _replace calls, skips __new__
        return cls(*iterable)


class FilteredSource(NamedTuple):
    """Gaussian form of a source behind Gaussian filters.

    The amplitude is exp(-nu^T M' nu + i (phase_s nu_s + phase_i nu_i)).
    m11, m12, m22 are the entries of M' = M + diag(1/w_s^2, 1/w_i^2) in
    s^2, and determinant is det M', accurate also where M' is close to
    rank one.  phase_s and phase_i are the slopes L kappa / 2 (s) of the
    phase-matching phase.

    Tracing out the idler, filtered in intensity by exp(-2 nu^2/w_i^2),
    leaves the signal kernel exp(-A (w1^2 + w2^2) + 2 B w1 w2) times the
    signal's phase, with A + B = m11 and A - B = det M' / m22.  purity,
    tmax and dip_sigma are its Gaussian integrals.
    """

    m11: float
    m12: float
    m22: float
    determinant: float
    phase_s: float
    phase_i: float

    @property
    def delay(self) -> float:
        """Delay (s) at which the heralded signal overlaps a centred
        reference best: the phase delays the signal by -phase_s, and the
        idler's part drops out when the idler is traced out."""
        return -self.phase_s

    def axes(self) -> tuple[float, float, float, float]:
        """(tilt_deg, major_width, minor_width, aspect_ratio) of the
        correlation ellipse, the level set exp(-nu^T M' nu) = 1/e.

        The widths are amplitude 1/e half-widths (rad/s) along the
        eigen-axes; the smaller eigenvalue's axis is the major one, and
        is infinite for a rank-one form.  tilt_deg is the acute angle
        between the major axis and the signal-detuning axis, which is
        what marginal-width measurements determine.
        """
        m11, m12, m22 = self.m11, self.m12, self.m22
        require(m11 > 0 and m22 > 0, "diagonal entries must be positive")
        half_trace = 0.5 * (m11 + m22)
        discriminant = math.hypot(0.5 * (m11 - m22), m12)
        lam_max = half_trace + discriminant
        # lam_min via det/lam_max keeps precision when the form is nearly
        # singular; the subtraction half_trace - discriminant does not.
        require(
            self.determinant >= 0.0, "the form must be positive semi-definite"
        )
        lam_min = self.determinant / lam_max

        minor_width = 1.0 / math.sqrt(lam_max)
        if lam_min == 0.0:
            major_width = math.inf
            aspect_ratio = math.inf
        else:
            major_width = 1.0 / math.sqrt(lam_min)
            aspect_ratio = major_width / minor_width

        if m12 == 0.0:
            tilt_deg = 0.0 if m11 <= m22 else 90.0
        else:
            tilt_deg = math.degrees(math.atan((m11 - lam_min) / abs(m12)))
        return tilt_deg, major_width, minor_width, aspect_ratio

    @property
    def purity(self) -> float:
        """Purity of the heralded signal, sqrt((A - B)/(A + B))."""
        return math.sqrt(self.determinant / (self.m11 * self.m22))

    def tmax(self, reference_width: float) -> float:
        """Overlap at the dip centre with a centred Gaussian reference.

        For a reference exp(-nu^2/w_r^2), r = 1/w_r^2, the overlap is
        2 sqrt(r (A - B)) / sqrt((A - B + r)(A + B + r)).
        """
        r = 1.0 / reference_width**2
        marginal = self.determinant / self.m22  # A - B
        numerator = r * marginal
        if math.isinf(numerator):  # and so is the denominator
            raise OverflowError("the overlap's form overflows a float")
        denominator = (marginal + r) * (self.m11 + r)
        if math.isinf(denominator):  # the quotient may still be a float
            return 2.0 * math.sqrt(numerator / (marginal + r) / (self.m11 + r))
        return 2.0 * math.sqrt(numerator / denominator)

    def dip_sigma(self, reference_width: float) -> float:
        """Gaussian sigma (s) of the overlap against delay, sqrt(m11 + r).

        The overlap falls off as exp(-(tau - delay)^2 / (2 sigma^2)).
        """
        total = self.m11 + 1.0 / reference_width**2
        if math.isinf(total):
            raise OverflowError("the overlap's form overflows a float")
        return math.sqrt(total)

    def twin_overlap(self) -> tuple[float, float]:
        """Spectral and temporal factors of the twins' exchange overlap.

        The overlap of the amplitude with its twin-swapped image is a
        Gaussian integral of M' + P M' P (P swaps the arms), whose
        eigenvalues D+- = m11 + m22 +- 2 m12 lie along (1, 1) and
        (1, -1): 2 sqrt(det M' / (D+ D-)) times
        exp(-(phase_s - phase_i)^2 / (2 D-)).  The product
        D+ D- = 4 det M' + (m11 - m22)^2 has no cancellation, and gives
        D- where m11 + m22 - 2 m12 would cancel, for m12 > 0.
        """
        product = 4.0 * self.determinant + (self.m11 - self.m22) ** 2
        total = self.m11 + self.m22
        if self.m12 > 0.0:
            d_minus = product / (total + 2.0 * self.m12)
        else:
            d_minus = total - 2.0 * self.m12
        spread = self.phase_s - self.phase_i
        return (
            2.0 * math.sqrt(self.determinant / product),
            math.exp(-spread * spread / (2.0 * d_minus)),
        )


def pm_width(params: PdcModelParams, length: float | None = None) -> float:
    """Phase-matching amplitude width, the broadband-pump minor axis,
    2 / (L sqrt(GAMMA (kappa_s^2 + kappa_i^2))).

    It is taken at params.length, or at the given length.  A denominator
    that underflows to zero gives an infinite width.
    """
    if length is None:
        length = params.length
    scale = length * math.sqrt(
        GAMMA * (params.kappa_s**2 + params.kappa_i**2)
    )
    return 2.0 / scale if scale else math.inf


def params_from_pm_estimate(
    sigma_pump: float,
    pm_amplitude_width: float,
    tilt_deg: float,
    length: float,
) -> PdcModelParams:
    """Reconstruct source parameters from measured estimates.

    Inverts the broadband-pump relations: the group-velocity mismatch
    magnitude follows from the phase-matching width and the ratio from
    the tilt, tan(tilt) = kappa_s/kappa_i.

    Args:
        sigma_pump: pump amplitude width (rad/s).
        pm_amplitude_width: phase-matching amplitude width (rad/s).
        tilt_deg: measured ellipse tilt in (0, 90) degrees.
        length: medium length (m).
    """
    require(0.0 < tilt_deg < 90.0, "tilt must lie strictly in (0, 90) deg")
    require(pm_amplitude_width > 0, "phase-matching width must be positive")
    tilt = math.radians(tilt_deg)
    magnitude = 2.0 / (math.sqrt(GAMMA) * length * pm_amplitude_width)
    return PdcModelParams(
        sigma_pump=sigma_pump,
        kappa_s=magnitude * math.sin(tilt),
        kappa_i=magnitude * math.cos(tilt),
        length=length,
    )


def filtered_source(
    params: PdcModelParams,
    signal_width: float = math.inf,
    idler_width: float = math.inf,
) -> FilteredSource:
    """The source behind centred Gaussian filters on signal and idler.

    A filter of amplitude width w multiplies the amplitude by
    exp(-nu^2/w^2), so it adds 1/w^2 to its diagonal entry of M; an
    infinite width leaves the channel open.
    """
    require(
        signal_width > 0 and idler_width > 0, "filter widths must be positive"
    )
    pump = 1.0 / params.sigma_pump**2
    pm = GAMMA * params.length**2 / 4.0
    m11 = pump + pm * params.kappa_s**2
    m12 = pump + pm * params.kappa_s * params.kappa_i
    m22 = pump + pm * params.kappa_i**2
    # det M written without the cancellation of m11 m22 - m12^2, which
    # would lose the strongly correlated (nearly rank-one) regime
    determinant = (
        pm * (params.kappa_s - params.kappa_i) ** 2 / params.sigma_pump**2
    )
    s = 1.0 / signal_width**2
    t = 1.0 / idler_width**2
    if s or t:  # an open pair adds nothing, not even 0 * inf
        determinant += s * m22 + t * m11 + s * t
    form = (m11 + s, m12, m22 + t, determinant)
    # an entry can overflow although each of its terms is finite
    if not all(map(math.isfinite, form)):
        raise OverflowError("the filtered form overflows a float")
    return FilteredSource(
        *form,
        phase_s=0.5 * params.length * params.kappa_s,
        phase_i=0.5 * params.length * params.kappa_i,
    )
