"""Gaussian model of the joint spectral amplitude of a waveguided
parametric down-conversion source.

The joint amplitude of a signal/idler pair at detunings (nu_s, nu_i)
from the central frequencies is modeled as the product of a Gaussian
pump envelope exp(-(nu_s+nu_i)^2/sigma^2) and a Gaussian
phase-matching factor

    exp(-gamma L^2 (kappa_s nu_s + kappa_i nu_i)^2 / 4)
    * exp(i L (kappa_s nu_s + kappa_i nu_i) / 2),

where kappa_s, kappa_i are group-velocity mismatch coefficients, L the
medium length, and gamma rescales a Gaussian to the width of the sinc
main lobe.  The modulus is exp(-nu^T M nu) for a symmetric positive
2x2 form M.

A Gaussian filter of amplitude width w transmits the intensity
exp(-2 nu^2/w^2), centred on the channel's central frequency; an
infinite width leaves the channel open.  Filters keep the amplitude
Gaussian: they add 1/w^2 to the diagonal of M.  FilteredSource holds
the filtered form M' and the slopes of the linear phase.  The
correlation ellipse (whose tilt and aspect ratio quantify the spectral
correlation of the pair), the purity of the heralded signal, its
overlap with a Gaussian reference and the twins' exchange overlap are
Gaussian integrals of that form, in closed form.  The sampled route
computes them by quadrature and serves as their independent reference:
default_axes sizes one common detuning axis from a form, sample puts
the form's amplitude on the square grid of that axis (a SpectralGrid),
and reduced_density filters it and traces out the idler; purity and
overlap_T integrate the density, overlap_numeric the grid.

All widths follow the amplitude 1/e convention of :mod:`pdckit.units`.
Every type is immutable after construction and every operation is a
pure function; array payloads are marked read-only.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import NumericalError, require

# numpy is imported inside each function that builds an array, so that
# importing this module does not load it
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DEFAULT_GAMMA",
    "PdcModelParams",
    "FilteredSource",
    "SpectralGrid",
    "ReducedDensity",
    "pm_width",
    "params_from_pm_estimate",
    "filtered_source",
    "default_axes",
    "sample",
    "reduced_density",
    "purity",
    "overlap_T",
    "overlap_numeric",
    "trapezoid_weights",
]

# the sinc-to-Gaussian width factor gamma that every source defaults to
DEFAULT_GAMMA = 0.193


class _PdcModelParamsFields(NamedTuple):
    sigma_pump: float
    kappa_s: float
    kappa_i: float
    length: float
    gamma: float = DEFAULT_GAMMA


class PdcModelParams(_PdcModelParamsFields):
    """Physical description of the down-conversion source.

    The values are checked at construction and again by _replace.

    Attributes:
        sigma_pump: pump amplitude 1/e half-width (rad/s).
        kappa_s, kappa_i: group-velocity mismatch of signal/idler against
            the pump (s/m).  Material inputs, not computed here.
        length: length of the nonlinear medium (m).
        gamma: sinc-to-Gaussian width adaptation factor, DEFAULT_GAMMA.
    """

    __slots__ = ()

    def __new__(
        cls,
        sigma_pump: float,
        kappa_s: float,
        kappa_i: float,
        length: float,
        gamma: float = DEFAULT_GAMMA,
    ) -> PdcModelParams:
        require(sigma_pump > 0, "sigma_pump must be positive")
        require(length > 0, "length must be positive")
        require(0 < gamma <= 1, "gamma must lie in (0, 1]")
        require(
            kappa_s != 0 or kappa_i != 0,
            "kappa_s and kappa_i must not both vanish",
        )
        return super().__new__(
            cls, sigma_pump, kappa_s, kappa_i, length, gamma
        )

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
        return 2.0 * math.sqrt(
            r * marginal / ((marginal + r) * (self.m11 + r))
        )

    def dip_sigma(self, reference_width: float) -> float:
        """Gaussian sigma (s) of the overlap against delay, sqrt(m11 + r).

        The overlap falls off as exp(-(tau - delay)^2 / (2 sigma^2)).
        """
        return math.sqrt(self.m11 + 1.0 / reference_width**2)

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


def trapezoid_weights(axis: np.ndarray) -> np.ndarray:
    """Trapezoid quadrature weights of a uniform axis."""
    import numpy as np
    step = axis[1] - axis[0]
    weights = np.full(axis.size, step)
    weights[0] = weights[-1] = step / 2.0
    return weights


def _check_axis(axis: np.ndarray) -> np.ndarray:
    import numpy as np
    axis = np.asarray(axis, dtype=float)
    require(axis.ndim == 1 and axis.size >= 8, "nu_axis must be a 1-d axis")
    steps = np.diff(axis)
    require(np.all(steps > 0), "nu_axis must be strictly increasing")
    require(
        np.allclose(steps, steps[0], rtol=1e-9, atol=0.0),
        "nu_axis must be uniformly spaced",
    )
    return axis


class SpectralGrid(NamedTuple):
    """Sampled complex joint amplitude on a square detuning grid.

    amplitude[i, j] is the amplitude at signal detuning nu_axis[i] and
    idler detuning nu_axis[j]; both arms share the one axis, so the
    exchange of signal and idler is a transposition.  norm is the
    squared norm under trapezoid quadrature.
    """

    nu_axis: np.ndarray
    amplitude: np.ndarray
    norm: float

    @classmethod
    def from_amplitude(
        cls, nu_axis: np.ndarray, amplitude: np.ndarray
    ) -> "SpectralGrid":
        import numpy as np
        # own copies only: locking caller arrays would be a side effect
        nu_axis = _check_axis(nu_axis).copy()
        amplitude = np.array(amplitude, dtype=complex)
        require(
            amplitude.shape == (nu_axis.size, nu_axis.size),
            "amplitude shape must match the axis",
        )
        weights = trapezoid_weights(nu_axis)
        norm = float(np.real(weights @ (np.abs(amplitude) ** 2) @ weights))
        for array in (nu_axis, amplitude):
            array.setflags(write=False)
        return cls(nu_axis, amplitude, norm)


class ReducedDensity(NamedTuple):
    """Normalized one-photon spectral density g(omega1, omega2).

    Hermitian kernel on a common detuning axis with unit trace under
    trapezoid quadrature.
    """

    nu_axis: np.ndarray
    density: np.ndarray

    def trace(self) -> float:
        import numpy as np
        weights = trapezoid_weights(self.nu_axis)
        return float(np.real(np.diag(self.density) @ weights))

    def eigenvalues(self) -> np.ndarray:
        """Spectrum of the kernel with respect to the quadrature measure."""
        import numpy as np
        root_w = np.sqrt(trapezoid_weights(self.nu_axis))
        symmetric = self.density * np.outer(root_w, root_w)
        return np.linalg.eigvalsh(symmetric)


def pm_width(params: PdcModelParams, length: float | None = None) -> float:
    """Phase-matching amplitude width, the broadband-pump minor axis,
    2 / (L sqrt(gamma (kappa_s^2 + kappa_i^2))).

    It is taken at params.length, or at the given length.  A denominator
    that underflows to zero gives an infinite width.
    """
    if length is None:
        length = params.length
    scale = length * math.sqrt(
        params.gamma * (params.kappa_s**2 + params.kappa_i**2)
    )
    return 2.0 / scale if scale else math.inf


def params_from_pm_estimate(
    sigma_pump: float,
    pm_amplitude_width: float,
    tilt_deg: float,
    length: float,
    gamma: float = DEFAULT_GAMMA,
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
        gamma: sinc adaptation factor.
    """
    require(0.0 < tilt_deg < 90.0, "tilt must lie strictly in (0, 90) deg")
    require(pm_amplitude_width > 0, "phase-matching width must be positive")
    tilt = math.radians(tilt_deg)
    magnitude = 2.0 / (math.sqrt(gamma) * length * pm_amplitude_width)
    return PdcModelParams(
        sigma_pump=sigma_pump,
        kappa_s=magnitude * math.sin(tilt),
        kappa_i=magnitude * math.cos(tilt),
        length=length,
        gamma=gamma,
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
    pm = params.gamma * params.length**2 / 4.0
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
    return FilteredSource(
        m11=m11 + s,
        m12=m12,
        m22=m22 + t,
        determinant=determinant,
        phase_s=0.5 * params.length * params.kappa_s,
        phase_i=0.5 * params.length * params.kappa_i,
    )


def default_axes(
    source: FilteredSource,
    samples_per_width: int = 12,
    extent_widths: float = 4.0,
) -> np.ndarray:
    """Common symmetric detuning axis resolving and covering the amplitude.

    The axis spans extent_widths times the widest single-axis projection
    of the amplitude support on either side of zero, with at least
    samples_per_width samples across the narrowest single-axis cut.

    Raises:
        ValueError: for a rank-one correlation form, whose support is
            unbounded along the major axis.
    """
    import numpy as np
    if source.determinant == 0.0:
        raise ValueError(
            "correlation form is rank one; the amplitude has unbounded "
            "support and cannot be sampled on a finite grid"
        )
    require(samples_per_width >= 8, "need at least 8 samples per width")
    widest = max(source.m11, source.m22)
    projection = math.sqrt(widest / source.determinant)
    step = 1.0 / math.sqrt(widest) / samples_per_width
    half = extent_widths * projection
    n = 2 * int(math.ceil(half / step)) + 1
    return np.linspace(-half, half, n)


def sample(source: FilteredSource, nu_axis: np.ndarray) -> SpectralGrid:
    """The source's complex amplitude on the square grid of one axis.

    amplitude[i, j] = exp(-nu^T M' nu + i (phase_s nu_s + phase_i nu_i))
    at (nu_axis[i], nu_axis[j]); the value at the origin is exactly 1.
    Whether the axis spans the support is the caller's choice;
    default_axes gives one that does.

    Raises:
        ValueError: if the axis is non-uniform, or resolves a
            single-axis amplitude cut with fewer than 8 samples: its
            step exceeds 1/(8 sqrt(max(m11, m22))).
    """
    import numpy as np
    nu_axis = _check_axis(nu_axis)
    step = nu_axis[1] - nu_axis[0]
    line_width = 1.0 / math.sqrt(max(source.m11, source.m22))
    if step > line_width / 8.0:
        raise ValueError(
            f"nu_axis too coarse: fewer than 8 samples per amplitude "
            f"width (step {step:.3e}, width {line_width:.3e})"
        )
    ns = nu_axis[:, None]
    ni = nu_axis[None, :]
    exponent = -(
        source.m11 * ns**2 + 2.0 * source.m12 * ns * ni + source.m22 * ni**2
    )
    phase = source.phase_s * ns + source.phase_i * ni
    amplitude = np.exp(exponent + 1j * phase)
    return SpectralGrid.from_amplitude(nu_axis, amplitude)


def reduced_density(
    grid: SpectralGrid,
    signal_width: float = math.inf,
    idler_width: float = math.inf,
) -> ReducedDensity:
    """One-photon spectral density after filtering and idler trace-out.

    g(w1, w2) is the idler-integrated product
    phi(w1, nu) phi*(w2, nu) t_i(nu), bracketed by the signal filter
    amplitudes sqrt(t_s(w1)) sqrt(t_s(w2)) and normalized to unit trace
    under trapezoid quadrature.  The filters are those of
    filtered_source: t(nu) = exp(-2 nu^2/w^2) for amplitude width w, and
    an infinite width leaves the channel open.  The kernel is Hermitian
    and positive semi-definite by construction.

    Raises:
        NumericalError: when the filters remove essentially all spectral
            weight and no normalizable kernel remains.
    """
    import numpy as np
    require(
        signal_width > 0 and idler_width > 0, "filter widths must be positive"
    )
    axis = grid.nu_axis
    weights = trapezoid_weights(axis)
    ti = np.exp(-2.0 * (axis / idler_width) ** 2)
    ts_amp = np.exp(-((axis / signal_width) ** 2))

    kernel = (grid.amplitude * (ti * weights)[None, :]) @ np.conj(
        grid.amplitude.T
    )
    kernel *= np.outer(ts_amp, ts_amp)
    kernel = 0.5 * (kernel + np.conj(kernel.T))

    trace = float(np.real(np.diag(kernel) @ weights))
    if not trace > grid.norm * 1e-14:
        raise NumericalError(
            "filters lie outside the amplitude support; the reduced "
            "density norm vanishes"
        )
    density = kernel / trace
    density.setflags(write=False)
    # the grid's axis is read-only already, so the density may share it
    return ReducedDensity(nu_axis=axis, density=density)


def purity(g: ReducedDensity) -> float:
    """Trace of the squared kernel under quadrature, in (0, 1]: the
    quadrature of FilteredSource.purity."""
    import numpy as np
    weights = trapezoid_weights(g.nu_axis)
    value = np.abs(g.density) ** 2 * np.outer(weights, weights)
    return float(np.real(value.sum()))


def overlap_T(
    reference_width: float, g: ReducedDensity, tau: float = 0.0
) -> float:
    """Spectral overlap of the reference with a mixed one-photon density.

    Evaluates the double integral of u*(w1) g(w1, w2) u(w2)
    exp(i tau (w1 - w2)) by trapezoid quadrature, where u is the
    reference amplitude exp(-nu^2/w_r^2) normalised to unit quadrature
    norm on the density's axis.  For a Hermitian kernel the result is
    real; an imaginary remnant above 1e-9 of the modulus raises.  It is
    the quadrature of FilteredSource.tmax at the delay and of
    dip_sigma away from it.

    Args:
        reference_width: amplitude 1/e half-width w_r of the reference
            (rad/s).
        g: unit-trace spectral density.
        tau: relative delay in seconds.
    """
    import numpy as np
    require(reference_width > 0.0, "reference_width must be positive")
    weights = trapezoid_weights(g.nu_axis)
    u = np.exp(-((g.nu_axis / reference_width) ** 2))
    norm = math.sqrt(float(u**2 @ weights))
    require(norm > 0.0, "reference support does not meet the grid")
    vector = u / norm * np.exp(-1j * tau * g.nu_axis) * weights
    value = complex(np.vdot(vector, g.density @ vector))
    if abs(value) > 0 and abs(value.imag) > 1e-9 * abs(value):
        raise AssertionError("overlap of a Hermitian kernel must be real")
    return float(value.real)


def overlap_numeric(grid: SpectralGrid) -> float:
    """Twin overlap by direct quadrature of the exchange integral.

    Evaluates |integral of phi(nu_s, nu_i) phi*(nu_i, nu_s)| divided by
    the squared norm: the quadrature of the product of
    FilteredSource.twin_overlap.  A relative delay tau is a shift of the
    form's phase_s by tau.
    """
    import numpy as np
    weights = trapezoid_weights(grid.nu_axis)
    integrand = grid.amplitude * np.conj(grid.amplitude.T)
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
