"""Hong-Ou-Mandel interference of the heralded signal with a coherent
reference.

The signal is truncated at two photons and interfered with a weak
coherent field on a balanced splitter.  The coincidence probability
depends on the photon statistics, on the reference strength, and on the
spectral overlap T between the reference mode and the one-photon
spectral density of the signal.  From the visibility against reference
power the overlap can be fitted, and together with the one-photon
probability it fixes the preparation fidelity sqrt(T * rho1).

The reference is a centred Gaussian amplitude exp(-nu^2/w_r^2) with
mean photon number beta_sq; every function takes these two numbers
directly.  For the Gaussian model, T at the dip centre and the dip
width are closed forms of the filtered source (jsa.FilteredSource),
and the dip is Gaussian in delay (hom_scan_analytic).  overlap_T
evaluates T by quadrature of a sampled density at any delay; it is the
reference the closed forms are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import require
from .jsa import ReducedDensity, trapezoid_weights

__all__ = [
    "SignalState",
    "HomScan",
    "FidelityResult",
    "OverlapFit",
    "overlap_T",
    "coincidence_full",
    "coincidence_simplified",
    "visibility_vs_beta",
    "beta_opt",
    "max_visibility",
    "fit_overlap",
    "fidelity",
    "hom_scan_analytic",
]


@dataclass(frozen=True)
class SignalState:
    """Signal photon statistics truncated at the two-photon component."""

    p0: float
    p1: float
    p2: float

    def __post_init__(self) -> None:
        for p in (self.p0, self.p1, self.p2):
            require(p >= 0.0, "probabilities must be nonnegative")
        require(
            abs(self.p0 + self.p1 + self.p2 - 1.0) <= 1e-9,
            "p0 + p1 + p2 must equal one within 1e-9",
        )


@dataclass(frozen=True, eq=False)
class HomScan:
    """Coincidence probability against relative delay, dip centered at zero."""

    tau_axis: np.ndarray
    coincidence: np.ndarray
    visibility: float
    overlap: np.ndarray


@dataclass(frozen=True)
class FidelityResult:
    """Spectral overlap, one-photon probability and resulting fidelity."""

    spectral_overlap: float
    one_photon: float
    fidelity: float


@dataclass(frozen=True)
class OverlapFit:
    """Least-squares overlap estimate from visibility measurements."""

    overlap: float
    stderr: float
    n_points: int


def overlap_T(
    reference_width: float, g: ReducedDensity, tau: float = 0.0
) -> float:
    """Spectral overlap of the reference with a mixed one-photon density.

    Evaluates the double integral of u*(w1) g(w1, w2) u(w2)
    exp(i tau (w1 - w2)) by trapezoid quadrature, where u is the
    reference amplitude exp(-nu^2/w_r^2) normalised to unit quadrature
    norm on the density's axis.  For a Hermitian kernel the result is
    real; an imaginary remnant above 1e-9 of the modulus raises.

    Args:
        reference_width: amplitude 1/e half-width w_r of the reference
            (rad/s).
        g: unit-trace spectral density.
        tau: relative delay in seconds.
    """
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


def coincidence_full(
    state: SignalState,
    beta_sq: float,
    overlap_t: float,
    overlap_tprime: float,
) -> float:
    """Coincidence probability with no small-amplitude approximations.

    All five contributions are kept: reference-only accidentals, the
    signal/reference singles term with its interference reduction, the
    two-photon background and its two interference corrections.  The
    splitter halves the reference, so the working amplitude is
    beta/sqrt(2).  beta_sq is the reference mean photon number |beta|^2.
    """
    require(beta_sq >= 0.0, "beta_sq must be nonnegative")
    x = beta_sq / 2.0  # |beta'|^2 after the balanced splitter
    e = math.exp(-x)
    return (
        state.p0 * (1.0 - e) ** 2
        + state.p1 * (1.0 - e)
        - state.p1 * overlap_t * x * e
        + state.p2 * (1.0 - 0.5 * e)
        - state.p2 * e * (overlap_t * x + overlap_tprime * x * x / 4.0)
    )


def coincidence_simplified(state: SignalState, beta_sq: float, overlap_t):
    """Leading-order coincidence probability p0 x^2 + p1 x (1 - T) + p2/2,
    x = beta_sq / 2.

    overlap_t is one overlap or a numpy array of them; the result has
    its shape.  Valid for weak references; enforce beta_sq < 0.2 so
    that 1 - exp(-x) is linear to better than ten percent.  Use
    coincidence_full beyond that.
    """
    require(beta_sq >= 0.0, "beta_sq must be nonnegative")
    if beta_sq >= 0.2:
        raise ValueError(
            "beta_sq >= 0.2 is outside the linearized regime; "
            "use coincidence_full"
        )
    x = beta_sq / 2.0
    return state.p0 * x * x + state.p1 * x * (1.0 - overlap_t) + state.p2 / 2.0


def visibility_vs_beta(state: SignalState, overlap_t0: float, beta_sq):
    """Dip visibility at one reference mean photon number or at a
    sequence of them; the result has the shape of beta_sq.

    p1 T / (p0 beta^2/2 + p1 + p2/beta^2); the beta_sq -> 0 limit is 0
    when a two-photon background exists and T otherwise.  Without a
    one-photon component there is no dip.
    """
    beta_sq = np.asarray(beta_sq, dtype=float)
    require(np.all(beta_sq >= 0.0), "beta_sq must be nonnegative")
    if state.p1 == 0.0:
        return np.zeros_like(beta_sq)[()]
    # p2/beta_sq may overflow to inf, silently as in Python floats; the
    # entries at beta_sq = 0, divisions by zero, take the limit below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        denominator = (
            state.p0 * beta_sq / 2.0 + state.p1 + state.p2 / beta_sq
        )
        visibility = state.p1 * overlap_t0 / denominator
    limit = 0.0 if state.p2 > 0.0 else overlap_t0
    return np.where(beta_sq == 0.0, limit, visibility)[()]


def beta_opt(state: SignalState) -> float:
    """Reference power maximizing the visibility, sqrt(2 p2 / p0)."""
    if state.p0 == 0.0:
        return math.inf
    return math.sqrt(2.0 * state.p2 / state.p0)


def max_visibility(state: SignalState, overlap_t0: float = 1.0) -> float:
    """Visibility at the optimal reference power; 0 without a one-photon
    component."""
    if state.p1 == 0.0:
        return 0.0
    return state.p1 * overlap_t0 / (
        state.p1 + math.sqrt(2.0 * state.p0 * state.p2)
    )


def fit_overlap(measurements, state: SignalState) -> OverlapFit:
    """Least-squares spectral overlap from (beta_sq, visibility) data.

    The visibility model is linear in the overlap, so the estimate is
    the normal-equation solution with an ordinary standard error
    (equal weights; no error model on the data).

    Raises:
        ValueError: with fewer than three points or a design containing
            a single distinct reference power.
    """
    data = np.asarray(measurements, dtype=float)
    require(
        data.ndim == 2 and data.shape[1] == 2 and data.shape[0] >= 3,
        "need at least three (beta_sq, visibility) points",
    )
    beta_sq, visibility = data[:, 0], data[:, 1]
    require(np.all(beta_sq > 0), "beta_sq values must be positive")
    require(
        np.unique(beta_sq).size >= 2,
        "degenerate design: need at least two distinct beta_sq values",
    )
    predictor = visibility_vs_beta(state, 1.0, beta_sq)
    gram = float(predictor @ predictor)
    require(gram > 0.0, "predictor vanishes for this state")
    estimate = float(predictor @ visibility) / gram
    residual = visibility - estimate * predictor
    dof = data.shape[0] - 1
    # a residual too large to square gives an infinite error, silently
    with np.errstate(over="ignore"):
        squares = float(residual @ residual)
    stderr = math.sqrt(squares / dof / gram)
    return OverlapFit(overlap=estimate, stderr=stderr, n_points=data.shape[0])


def fidelity(spectral_overlap: float, one_photon: float) -> FidelityResult:
    """Preparation fidelity sqrt(T * rho1) against the one-photon target."""
    require(0.0 <= spectral_overlap <= 1.0, "overlap must lie in [0, 1]")
    require(0.0 <= one_photon <= 1.0, "one_photon must lie in [0, 1]")
    return FidelityResult(
        spectral_overlap=spectral_overlap,
        one_photon=one_photon,
        fidelity=math.sqrt(spectral_overlap * one_photon),
    )


def hom_scan_analytic(
    state: SignalState,
    beta_sq: float,
    overlap_max: float,
    sigma_t: float,
    n_points: int = 81,
    span_sigmas: float = 4.0,
) -> HomScan:
    """Coincidence dip for the Gaussian overlap profile
    overlap_max exp(-tau^2 / (2 sigma_t^2)).

    The delay axis spans span_sigmas * sigma_t on either side of the
    dip centre.  Coincidences use the leading-order model, so the
    reference mean photon number beta_sq must be below 0.2.
    """
    require(beta_sq >= 0.0, "beta_sq must be nonnegative")
    require(0.0 <= overlap_max <= 1.0, "overlap_max must lie in [0, 1]")
    require(sigma_t > 0.0, "sigma_t must be positive")
    tau_axis = np.linspace(
        -span_sigmas * sigma_t, span_sigmas * sigma_t, n_points
    )
    # in units of sigma_t, so a huge finite sigma_t cannot overflow
    overlap = overlap_max * np.exp(-0.5 * (tau_axis / sigma_t) ** 2)
    coincidence = coincidence_simplified(state, beta_sq, overlap)
    baseline = coincidence_simplified(state, beta_sq, 0.0)
    dip = coincidence_simplified(state, beta_sq, overlap_max)
    visibility = (baseline - dip) / baseline if baseline > 0 else 0.0
    for array in (tau_axis, overlap, coincidence):
        array.setflags(write=False)
    return HomScan(
        tau_axis=tau_axis,
        coincidence=coincidence,
        visibility=visibility,
        overlap=overlap,
    )
