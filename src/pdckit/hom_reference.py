"""Hong-Ou-Mandel interference of the heralded signal with a coherent
reference.

The signal is truncated at two photons and interfered with a weak
coherent field on a balanced splitter.  The coincidence probability
depends on the photon statistics, on the reference strength, and on the
spectral overlap T between the reference mode and the one-photon
spectral density of the signal.  From the visibility against reference
power the overlap can be fitted, and together with the one-photon
probability it fixes the preparation fidelity sqrt(T * rho1), a float.

The reference is a centred Gaussian amplitude exp(-nu^2/w_r^2) with
mean photon number beta_sq; every function takes these two numbers
directly.  For the Gaussian model, T at the dip centre and the dip
width are closed forms of the filtered source (jsa.FilteredSource),
and the dip is Gaussian in delay (hom_scan_analytic, on a delay axis
of SPAN_SIGMAS dip sigmas either side of its centre).  The tests check
these closed forms against T integrated by quadrature on a sampled
amplitude, at any delay (tests/quadrature.py).

No function here builds an array: each takes one reference power,
overlap or delay and returns floats, a sweep or a delay scan is a loop
over such calls, and HomScan holds its axes as tuples.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import require
from .units import linspace

__all__ = [
    "SignalState",
    "HomScan",
    "OverlapFit",
    "coincidence_full",
    "coincidence_simplified",
    "visibility_vs_beta",
    "beta_opt",
    "max_visibility",
    "fit_overlap",
    "fidelity",
    "SPAN_SIGMAS",
    "hom_scan_analytic",
]


class _SignalStateFields(NamedTuple):
    p0: float
    p1: float
    p2: float


class SignalState(_SignalStateFields):
    """Signal photon statistics truncated at the two-photon component.

    The probabilities are checked at construction and again by
    _replace.
    """

    __slots__ = ()

    def __new__(cls, p0: float, p1: float, p2: float) -> SignalState:
        for p in (p0, p1, p2):
            require(p >= 0.0, "probabilities must be nonnegative")
        require(
            abs(p0 + p1 + p2 - 1.0) <= 1e-9,
            "p0 + p1 + p2 must equal one within 1e-9",
        )
        return super().__new__(cls, p0, p1, p2)

    @classmethod
    def _make(cls, iterable) -> SignalState:
        # the inherited _make, which _replace calls, skips __new__
        return cls(*iterable)


class HomScan(NamedTuple):
    """Coincidence probability against relative delay, dip centered at zero.

    tau_axis, overlap and coincidence are tuples of floats, one entry
    per delay.
    """

    tau_axis: tuple[float, ...]
    coincidence: tuple[float, ...]
    visibility: float
    overlap: tuple[float, ...]


class OverlapFit(NamedTuple):
    """Least-squares overlap estimate from visibility measurements."""

    overlap: float
    stderr: float


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


def coincidence_simplified(
    state: SignalState, beta_sq: float, overlap_t: float
) -> float:
    """Leading-order coincidence probability p0 x^2 + p1 x (1 - T) + p2/2,
    x = beta_sq / 2, at one overlap T.

    Valid for weak references, 0 <= beta_sq < 0.2, where 1 - exp(-x)
    is linear to better than ten percent; the command line refuses any
    other beta_sq.  Use coincidence_full beyond that.
    """
    x = beta_sq / 2.0
    return state.p0 * x * x + state.p1 * x * (1.0 - overlap_t) + state.p2 / 2.0


def visibility_vs_beta(
    state: SignalState, overlap_t0: float, beta_sq: float
) -> float:
    """Dip visibility at one reference mean photon number beta_sq.

    p1 T / (p0 beta^2/2 + p1 + p2/beta^2); the beta_sq -> 0 limit is 0
    when a two-photon background exists and T otherwise.  Without a
    one-photon component there is no dip.  beta_sq must be nonnegative.
    """
    if state.p1 == 0.0:
        return 0.0
    if beta_sq == 0.0:
        return 0.0 if state.p2 > 0.0 else overlap_t0
    # p2/beta_sq may overflow to inf, silently as float division does
    denominator = state.p0 * beta_sq / 2.0 + state.p1 + state.p2 / beta_sq
    return state.p1 * overlap_t0 / denominator


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
    (equal weights; no error model on the data).  The measurements are
    at least three pairs of floats, with positive beta_sq taking at
    least two distinct values, as the command line requires.

    Raises:
        ValueError: when the predictor vanishes for this state.
    """
    predictor = [visibility_vs_beta(state, 1.0, b) for b, _ in measurements]
    peak = max(predictor)
    require(peak >= sys.float_info.min, "predictor vanishes for this state")
    # the predictor and the residuals scaled by a power of two, which is
    # exact, to a largest predictor in [0.5, 1), so that no square
    # underflows however small p1 is
    scale = math.ldexp(1.0, -math.frexp(peak)[1])
    scaled = [p * scale for p in predictor]
    gram = _sum([q * q for q in scaled])
    estimate = _sum([q * v for q, (_, v) in zip(scaled, measurements)]) / gram
    estimate *= scale
    residual = [
        (v - estimate * p) * scale
        for p, (_, v) in zip(predictor, measurements)
    ]
    # a residual too large to square gives an infinite error, silently
    squares = _sum([r * r for r in residual])
    stderr = math.sqrt(squares / (len(measurements) - 1) / gram)
    return OverlapFit(overlap=estimate, stderr=stderr)


def _sum(terms: list[float]) -> float:
    """The correctly rounded sum; one beyond the float range is +-inf,
    silently, as ordinary float addition gives it."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return sum(terms)


def fidelity(spectral_overlap: float, one_photon: float) -> float:
    """Preparation fidelity sqrt(T * rho1) against the one-photon target,
    for T and rho1 in [0, 1]."""
    return math.sqrt(spectral_overlap * one_photon)


# half-width of hom_scan_analytic's delay axis, in units of sigma_t
SPAN_SIGMAS = 4.0


def hom_scan_analytic(
    state: SignalState,
    beta_sq: float,
    overlap_max: float,
    sigma_t: float,
    n_points: int = 81,
) -> HomScan:
    """Coincidence dip for the Gaussian overlap profile
    overlap_max exp(-tau^2 / (2 sigma_t^2)).

    The delay axis spans SPAN_SIGMAS * sigma_t on either side of the
    dip centre, sigma_t > 0.  Coincidences use the leading-order model,
    so the reference mean photon number beta_sq must lie in [0, 0.2).
    overlap_max is refused outside [0, 1]: FilteredSource.tmax can
    round to just above 1.
    """
    require(0.0 <= overlap_max <= 1.0, "overlap_max must lie in [0, 1]")
    half = SPAN_SIGMAS * sigma_t
    tau_axis = tuple(linspace(-half, half, n_points))
    # in units of sigma_t, so a huge finite sigma_t cannot overflow
    ratios = [tau / sigma_t for tau in tau_axis]
    overlap = tuple(overlap_max * math.exp(-0.5 * (r * r)) for r in ratios)
    coincidence = tuple(
        coincidence_simplified(state, beta_sq, t) for t in overlap
    )
    visibility = 0.0  # (baseline - dip) / baseline, free of cancellation
    if coincidence_simplified(state, beta_sq, 0.0) > 0.0:
        visibility = visibility_vs_beta(state, overlap_max, beta_sq)
    return HomScan(
        tau_axis=tau_axis,
        coincidence=coincidence,
        visibility=visibility,
        overlap=overlap,
    )
