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
2x2 form M; its unit level set is the correlation ellipse whose tilt
and aspect ratio quantify the spectral correlation of the pair.

Gaussian filters keep the amplitude Gaussian: they add 1/w^2 to the
diagonal of M.  The filtered form M' and the group delay of the
linear phase, held by FilteredSource, give the purity of the heralded
signal and its overlap with a Gaussian reference in closed form.  The
sampled route (default_axes, evaluate_jsa, reduced_density, purity)
computes the same quantities by quadrature and serves as their
independent reference.

All widths follow the amplitude 1/e convention of :mod:`pdckit.units`.
Every type is immutable after construction and every operation is a
pure function; array payloads are marked read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import units
from .errors import NumericalError, require

__all__ = [
    "PdcModelParams",
    "CorrelationEllipse",
    "SpectralFilter",
    "FilteredSource",
    "SpectralGrid",
    "ReducedDensity",
    "build_ellipse",
    "ellipse_from_matrix",
    "correlation_matrix",
    "pm_width",
    "pm_width_vs_length",
    "params_from_pm_estimate",
    "filtered_source",
    "evaluate_jsa",
    "default_axes",
    "reduced_density",
    "purity",
    "trapezoid_weights",
]


@dataclass(frozen=True)
class PdcModelParams:
    """Physical description of the down-conversion source.

    Attributes:
        sigma_pump: pump amplitude 1/e half-width (rad/s).
        kappa_s, kappa_i: group-velocity mismatch of signal/idler against
            the pump (s/m).  Material inputs, not computed here.
        length: length of the nonlinear medium (m).
        gamma: sinc-to-Gaussian width adaptation factor, 0.193 by default.
        center_wavelengths: (pump, signal, idler) central wavelengths in
            meters; metadata used only for unit conversion.
    """

    sigma_pump: float
    kappa_s: float
    kappa_i: float
    length: float
    gamma: float = 0.193
    center_wavelengths: tuple[float, float, float] = (398e-9, 796e-9, 796e-9)

    def __post_init__(self) -> None:
        require(self.sigma_pump > 0, "sigma_pump must be positive")
        require(self.length > 0, "length must be positive")
        require(0 < self.gamma <= 1, "gamma must lie in (0, 1]")
        require(
            self.kappa_s != 0 or self.kappa_i != 0,
            "kappa_s and kappa_i must not both vanish",
        )
        require(
            len(self.center_wavelengths) == 3
            and all(w > 0 for w in self.center_wavelengths),
            "center_wavelengths must be three positive lengths",
        )

    @property
    def signal_wavelength(self) -> float:
        return self.center_wavelengths[1]


@dataclass(frozen=True)
class CorrelationEllipse:
    """Quadratic form of the joint-amplitude modulus and derived geometry.

    m11, m12, m22 are the entries of the symmetric matrix M in
    |phi| = exp(-nu^T M nu), in s^2.  The widths are amplitude 1/e
    half-widths along the eigen-axes (rad/s); the eigenvector of the
    smaller eigenvalue spans the major axis.  tilt_deg is the acute
    angle between the major axis and the signal-detuning axis, which is
    what marginal-width measurements determine.
    """

    m11: float
    m12: float
    m22: float
    tilt_deg: float
    major_width: float
    minor_width: float
    aspect_ratio: float


@dataclass(frozen=True)
class SpectralFilter:
    """Gaussian spectral filter acting on intensity transmission.

    The intensity transmission is
    exp(-2 (nu - center)^2 / amplitude_width^2), so amplitude_width
    follows the same amplitude 1/e convention as every other width and
    the intensity FWHM converts with sqrt(2 ln 2).
    """

    center_detuning: float = 0.0
    amplitude_width: float = math.inf

    def __post_init__(self) -> None:
        require(self.amplitude_width > 0, "filter width must be positive")

    @classmethod
    def open_filter(cls) -> "SpectralFilter":
        """Unit transmission everywhere (no filtering)."""
        return cls()

    def amplitude_transmission(self, nu: np.ndarray) -> np.ndarray:
        detuning = np.asarray(nu, dtype=float) - self.center_detuning
        if math.isinf(self.amplitude_width):
            return np.ones_like(detuning)
        return np.exp(-(detuning / self.amplitude_width) ** 2)

    def intensity_transmission(self, nu: np.ndarray) -> np.ndarray:
        return self.amplitude_transmission(nu) ** 2


@dataclass(frozen=True)
class FilteredSource:
    """Quadratic form and group delay of a source behind Gaussian filters.

    m11, m12, m22 are the entries of M' = M + diag(1/w_s^2, 1/w_i^2) in
    s^2, and determinant is det M', accurate also where M' is close to
    rank one.  delay is the delay (s) at which the heralded signal
    overlaps a centred reference best: the linear phase
    L (kappa_s nu_s + kappa_i nu_i) / 2 of the amplitude delays the
    signal by -L kappa_s / 2, and the idler's part drops out when the
    idler is traced out.

    Tracing out the idler, filtered in intensity by exp(-2 nu^2/w_i^2),
    leaves the signal kernel exp(-A (w1^2 + w2^2) + 2 B w1 w2) times that
    phase, with A + B = m11 and A - B = det M' / m22.  The results below
    are its Gaussian integrals.
    """

    m11: float
    m12: float
    m22: float
    determinant: float
    delay: float

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


def trapezoid_weights(axis: np.ndarray) -> np.ndarray:
    """Trapezoid quadrature weights of a uniform axis."""
    step = axis[1] - axis[0]
    weights = np.full(axis.size, step)
    weights[0] = weights[-1] = step / 2.0
    return weights


def _check_axis(axis: np.ndarray, name: str) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    require(axis.ndim == 1 and axis.size >= 8, f"{name} must be a 1-d axis")
    steps = np.diff(axis)
    require(np.all(steps > 0), f"{name} must be strictly increasing")
    require(
        np.allclose(steps, steps[0], rtol=1e-9, atol=0.0),
        f"{name} must be uniformly spaced",
    )
    return axis


@dataclass(frozen=True, eq=False)
class SpectralGrid:
    """Sampled complex joint amplitude on a rectangular detuning grid."""

    nu_s_axis: np.ndarray
    nu_i_axis: np.ndarray
    amplitude: np.ndarray
    norm: float = 0.0

    @classmethod
    def from_amplitude(
        cls,
        nu_s_axis: np.ndarray,
        nu_i_axis: np.ndarray,
        amplitude: np.ndarray,
    ) -> "SpectralGrid":
        # own copies only: locking caller arrays would be a side effect
        nu_s_axis = _check_axis(nu_s_axis, "nu_s_axis").copy()
        nu_i_axis = _check_axis(nu_i_axis, "nu_i_axis").copy()
        amplitude = np.array(amplitude, dtype=complex)
        require(
            amplitude.shape == (nu_s_axis.size, nu_i_axis.size),
            "amplitude shape must match the axes",
        )
        ws = trapezoid_weights(nu_s_axis)
        wi = trapezoid_weights(nu_i_axis)
        norm = float(np.real(ws @ (np.abs(amplitude) ** 2) @ wi))
        for array in (nu_s_axis, nu_i_axis, amplitude):
            array.setflags(write=False)
        return cls(nu_s_axis, nu_i_axis, amplitude, norm)


@dataclass(frozen=True, eq=False)
class ReducedDensity:
    """Normalized one-photon spectral density g(omega1, omega2).

    Hermitian kernel on a common detuning axis with unit trace under
    trapezoid quadrature.
    """

    nu_axis: np.ndarray
    density: np.ndarray

    def trace(self) -> float:
        weights = trapezoid_weights(self.nu_axis)
        return float(np.real(np.diag(self.density) @ weights))

    def eigenvalues(self) -> np.ndarray:
        """Spectrum of the kernel with respect to the quadrature measure."""
        root_w = np.sqrt(trapezoid_weights(self.nu_axis))
        symmetric = self.density * np.outer(root_w, root_w)
        return np.linalg.eigvalsh(symmetric)


def correlation_matrix(params: PdcModelParams) -> tuple[float, float, float]:
    """Entries (m11, m12, m22) of the joint-amplitude quadratic form."""
    pump = 1.0 / params.sigma_pump**2
    pm = params.gamma * params.length**2 / 4.0
    m11 = pump + pm * params.kappa_s**2
    m12 = pump + pm * params.kappa_s * params.kappa_i
    m22 = pump + pm * params.kappa_i**2
    return m11, m12, m22


def _matrix_determinant(params: PdcModelParams) -> float:
    # Algebraically equal to m11*m22 - m12^2 but immune to cancellation
    # for the strongly correlated (nearly rank-one) regime.
    pm = params.gamma * params.length**2 / 4.0
    return pm * (params.kappa_s - params.kappa_i) ** 2 / params.sigma_pump**2


def ellipse_from_matrix(
    m11: float,
    m12: float,
    m22: float,
    determinant: float | None = None,
) -> CorrelationEllipse:
    """Geometry of the amplitude level set exp(-nu^T M nu) = 1/e.

    Args:
        m11, m12, m22: entries of the symmetric positive form (s^2).
        determinant: optional externally computed det M for forms close
            to rank one, where m11*m22 - m12^2 cancels badly.
    """
    require(m11 > 0 and m22 > 0, "diagonal entries must be positive")
    half_trace = 0.5 * (m11 + m22)
    discriminant = math.hypot(0.5 * (m11 - m22), m12)
    lam_max = half_trace + discriminant
    # lam_min via det/lam_max keeps precision when the form is nearly
    # singular; the subtraction half_trace - discriminant does not.
    if determinant is None:
        determinant = m11 * m22 - m12 * m12
    require(determinant >= 0.0, "the form must be positive semi-definite")
    lam_min = determinant / lam_max

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

    return CorrelationEllipse(
        m11=m11,
        m12=m12,
        m22=m22,
        tilt_deg=tilt_deg,
        major_width=major_width,
        minor_width=minor_width,
        aspect_ratio=aspect_ratio,
    )


def build_ellipse(params: PdcModelParams) -> CorrelationEllipse:
    """Construct the correlation ellipse of the source.

    The eigenvalues of M set the inverse squared widths of the
    amplitude level set; the smaller eigenvalue therefore belongs to
    the major axis.  A rank-one form (kappa_s equal to kappa_i) is
    reported with an infinite major axis instead of an overflowing
    float.
    """
    m11, m12, m22 = correlation_matrix(params)
    return ellipse_from_matrix(
        m11, m12, m22, determinant=_matrix_determinant(params)
    )


def pm_width(params: PdcModelParams, length=None):
    """Phase-matching amplitude width, the broadband-pump minor axis.

    It is taken at params.length, or at the given length: one length
    or a numpy array of lengths, whose shape the result has.
    """
    if length is None:
        length = params.length
    return 2.0 / (
        length
        * math.sqrt(
            params.gamma * (params.kappa_s**2 + params.kappa_i**2)
        )
    )


def pm_width_vs_length(
    params: PdcModelParams, lengths: "list[float]"
) -> "list[tuple[float, float]]":
    """Predicted phase-matching bandwidth against medium length.

    The bandwidth is reported as the intensity FWHM in wavelength units
    at the signal central wavelength; it scales as 1/L.

    Args:
        params: source description (only kappas and gamma are used).
        lengths: medium lengths in meters, all positive.

    Returns:
        List of (length, fwhm_in_meters) pairs.
    """
    lengths = np.asarray(lengths, dtype=float)
    require(np.all(lengths > 0), "lengths must be positive")
    # a width too large for a float is inf, and the table says so
    with np.errstate(divide="ignore", over="ignore"):
        fwhm = units.width_to_wavelength_fwhm(
            pm_width(params, lengths), params.signal_wavelength
        )
    return list(zip(lengths.tolist(), fwhm.tolist()))


def params_from_pm_estimate(
    sigma_pump: float,
    pm_amplitude_width: float,
    tilt_deg: float,
    length: float,
    gamma: float = 0.193,
    center_wavelengths: tuple[float, float, float] = (398e-9, 796e-9, 796e-9),
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
        center_wavelengths: metadata passed through.
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
        center_wavelengths=center_wavelengths,
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
    m11, m12, m22 = correlation_matrix(params)
    s = 1.0 / signal_width**2
    t = 1.0 / idler_width**2
    return FilteredSource(
        m11=m11 + s,
        m12=m12,
        m22=m22 + t,
        determinant=_matrix_determinant(params) + s * m22 + t * m11 + s * t,
        delay=-0.5 * params.length * params.kappa_s,
    )


def default_axes(
    params: PdcModelParams,
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
    m11, m12, m22 = correlation_matrix(params)
    determinant = _matrix_determinant(params)
    if determinant == 0.0:
        raise ValueError(
            "correlation form is rank one; the amplitude has unbounded "
            "support and cannot be sampled on a finite grid"
        )
    return _symmetric_axis(m11, m22, determinant, samples_per_width, extent_widths)


def _symmetric_axis(
    m11: float,
    m22: float,
    determinant: float,
    samples_per_width: int,
    extent_widths: float,
) -> np.ndarray:
    """default_axes for the form exp(-nu^T M nu) given by m11, m22, det M."""
    require(samples_per_width >= 8, "need at least 8 samples per width")
    projection = math.sqrt(max(m11, m22) / determinant)
    step = 1.0 / math.sqrt(max(m11, m22)) / samples_per_width
    half = extent_widths * projection
    n = 2 * int(math.ceil(half / step)) + 1
    return np.linspace(-half, half, n)


def evaluate_jsa(
    params: PdcModelParams,
    nu_s_axis: np.ndarray,
    nu_i_axis: np.ndarray,
) -> SpectralGrid:
    """Sample the complex joint amplitude on a rectangular grid.

    amplitude[i, j] is the pump envelope times the phase-matching
    factor (including its linear phase) at
    (nu_s_axis[i], nu_i_axis[j]); the value at the origin is exactly 1.

    Args:
        params: source description.
        nu_s_axis, nu_i_axis: uniform, strictly increasing detuning axes
            spanning at least four amplitude widths of both the pump and
            the phase-matching function on each axis.

    Raises:
        ValueError: if an axis is non-uniform, spans too little, or
            resolves a single-axis amplitude cut with fewer than 8
            samples.
    """
    nu_s_axis = _check_axis(nu_s_axis, "nu_s_axis")
    nu_i_axis = _check_axis(nu_i_axis, "nu_i_axis")
    m11, m12, m22 = correlation_matrix(params)

    for axis, m_diag, kappa, name in (
        (nu_s_axis, m11, params.kappa_s, "nu_s_axis"),
        (nu_i_axis, m22, params.kappa_i, "nu_i_axis"),
    ):
        step = axis[1] - axis[0]
        line_width = 1.0 / math.sqrt(m_diag)
        if step > line_width / 8.0:
            raise ValueError(
                f"{name} too coarse: fewer than 8 samples per amplitude "
                f"width (step {step:.3e}, width {line_width:.3e})"
            )
        span = axis[-1] - axis[0]
        pm_axis_width = (
            math.inf
            if kappa == 0
            else 2.0 / (math.sqrt(params.gamma) * params.length * abs(kappa))
        )
        needed = 4.0 * max(
            params.sigma_pump,
            pm_axis_width if math.isfinite(pm_axis_width) else 0.0,
        )
        if span < needed:
            raise ValueError(
                f"{name} spans {span:.3e} rad/s; needs at least "
                f"{needed:.3e} (four pump/phase-matching widths)"
            )

    ns = nu_s_axis[:, None]
    ni = nu_i_axis[None, :]
    exponent = -(m11 * ns**2 + 2.0 * m12 * ns * ni + m22 * ni**2)
    phase = (
        0.5
        * params.length
        * (params.kappa_s * ns + params.kappa_i * ni)
    )
    amplitude = np.exp(exponent + 1j * phase)
    return SpectralGrid.from_amplitude(nu_s_axis, nu_i_axis, amplitude)


def reduced_density(
    grid: SpectralGrid, fs: SpectralFilter, fi: SpectralFilter
) -> ReducedDensity:
    """One-photon spectral density after filtering and idler trace-out.

    g(w1, w2) is the idler-integrated product
    phi(w1, nu) phi*(w2, nu) t_i(nu), bracketed by the signal filter
    amplitudes sqrt(t_s(w1)) sqrt(t_s(w2)) and normalized to unit trace
    under trapezoid quadrature.  The kernel is Hermitian and positive
    semi-definite by construction.

    Raises:
        NumericalError: when the filters remove essentially all spectral
            weight and no normalizable kernel remains.
    """
    weights_i = trapezoid_weights(grid.nu_i_axis)
    ti = fi.intensity_transmission(grid.nu_i_axis)
    ts_amp = fs.amplitude_transmission(grid.nu_s_axis)

    kernel = (grid.amplitude * (ti * weights_i)[None, :]) @ np.conj(
        grid.amplitude.T
    )
    kernel *= np.outer(ts_amp, ts_amp)
    kernel = 0.5 * (kernel + np.conj(kernel.T))

    weights_s = trapezoid_weights(grid.nu_s_axis)
    trace = float(np.real(np.diag(kernel) @ weights_s))
    if not trace > grid.norm * 1e-14:
        raise NumericalError(
            "filters lie outside the amplitude support; the reduced "
            "density norm vanishes"
        )
    density = kernel / trace
    density.setflags(write=False)
    axis = grid.nu_s_axis.copy()
    axis.setflags(write=False)
    return ReducedDensity(nu_axis=axis, density=density)


def purity(g: ReducedDensity) -> float:
    """Trace of the squared kernel under quadrature, in (0, 1]."""
    weights = trapezoid_weights(g.nu_axis)
    value = np.abs(g.density) ** 2 * np.outer(weights, weights)
    return float(np.real(value.sum()))
