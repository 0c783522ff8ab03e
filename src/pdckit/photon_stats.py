"""Photon-number statistics of the heralded source.

Covers the thermal statistics of one or more down-conversion modes
(K identical modes sum to a negative binomial distribution, evaluated
in closed form), heralding on a lossy trigger detector, the forward
model of a two-bin time-multiplexed click detector (loss matrix
followed by a splitting convolution), its maximum-likelihood inversion,
and the mode-count estimate from the power dependence of the heralded
mean.  heralded_mean gives that mean exactly, in closed form from the
pair-number generating function, without building a distribution;
multimode_dist and heralded_dist are the route it is checked against.
Distributions are plain vectors; those returned are read-only.

A note on inversion: a two-bin detector resolves three outcomes, so at
most the photon-number components 0, 1 and 2 are identifiable from one
click distribution.  ml_invert therefore reconstructs on that
identifiable support, where the response matrix is square: when its
direct solve is a distribution it reproduces the data exactly and is
the maximum-likelihood state.  Otherwise the optimum lies on a face of
the simplex and the multiplicative expectation-maximization iteration
finds it, stopping on a KKT gap that certifies optimality.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import require, require_pairs

# numpy is imported inside each function that builds an array, so that
# importing this module does not load it
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "InversionResult",
    "ModeReductionFit",
    "multimode_dist",
    "heralded_dist",
    "heralded_mean",
    "loss_matrix",
    "tmd_convolution_matrix",
    "forward_click_dist",
    "ml_invert",
    "invert_loss_only",
    "estimate_mode_reduction",
    "implied_mode_count",
]

_TAIL_LIMIT = 1e-6
_TINY = 2.2250738585072014e-308  # smallest normal float, sys.float_info.min


def _checked_probabilities(probs: np.ndarray) -> np.ndarray:
    """A read-only copy of a nonnegative vector that sums to one."""
    import numpy as np
    require(np.all(probs >= 0), "probabilities must be nonnegative")
    require(
        abs(probs.sum() - 1.0) <= 1e-9,
        "probabilities must sum to one within 1e-9",
    )
    probs = probs.copy()
    probs.setflags(write=False)
    return probs


def _distribution(probs) -> np.ndarray:
    """A caller's photon-number distribution, checked and read-only."""
    import numpy as np
    probs = np.asarray(probs, dtype=float)
    require(probs.ndim == 1 and probs.size >= 1, "probs must be 1-d")
    return _checked_probabilities(probs)


def _finalize(raw: np.ndarray, nmax: int, what: str) -> np.ndarray:
    # Both the stored tail and the mass beyond the cutoff must stay
    # negligible, or the cutoff distorts moments.
    if raw[nmax] >= _TAIL_LIMIT:
        raise ValueError(
            f"cutoff too small for {what}: tail probability "
            f"{raw[nmax]:.2e} at n={nmax} exceeds {_TAIL_LIMIT:.0e}; "
            "increase nmax"
        )
    total = raw.sum()
    if 1.0 - total >= _TAIL_LIMIT:
        raise ValueError(
            f"cutoff too small for {what}: probability {1.0 - total:.2e} "
            f"beyond n={nmax} exceeds {_TAIL_LIMIT:.0e}; increase nmax"
        )
    probs = raw / total
    probs.setflags(write=False)
    return probs


def multimode_dist(n_modes: int, gain_sq: float, nmax: int = 10) -> np.ndarray:
    """Photon-number distribution of n_modes identical thermal modes of
    gain gain_sq in [0, 1), as a read-only vector P(0) .. P(nmax).

    The sum of K thermal modes of gain g is negative binomial,
    P(n) = C(n + K - 1, n) (1 - g)^K g^n, whose head n <= nmax is
    computed exactly in log space,
    log P(n) = K log(1 - g) + sum_{j <= n} log(g (j + K - 1) / j),
    and then exponentiated, so a factor (1 - g)^K below the float range
    does not zero it.  The sums are accumulated outward from the mode,
    which keeps their rounding small where the probabilities are large.
    The head is renormalized once the cutoff is shown to lose nothing:
    the last stored entry P(nmax) and the mass beyond the cutoff,
    1 - sum_{n <= nmax} P(n), must each stay below 1e-6.
    """
    import numpy as np
    require(n_modes >= 1, "n_modes must be at least 1")
    require(0.0 <= gain_sq < 1.0, "gain_sq must lie in [0, 1)")
    require(nmax >= 1, "nmax must be at least 1")
    K, g = n_modes, gain_sq
    if g == 0.0:  # the vacuum, exactly
        raw = np.zeros(nmax + 1)
        raw[0] = 1.0
        return _finalize(raw, nmax, "multimode distribution")
    j = np.arange(1.0, nmax + 1)
    steps = np.log(g * (j + (K - 1)) / j)  # log P(j) - log P(j - 1)
    m = min(nmax, int((K - 1) * g / (1.0 - g)))  # the mode, or the cutoff
    above = np.cumsum(steps[m:])  # log P(n) - log P(m), n = m + 1 ... nmax
    below = np.cumsum(steps[:m][::-1])  # log P(m) - log P(n), n = m - 1 ... 0
    log_pm = K * math.log1p(-g) + (below[-1] if m else 0.0)
    log_p = np.concatenate((log_pm - below[::-1], [log_pm], log_pm + above))
    return _finalize(np.exp(log_p), nmax, "multimode distribution")


def heralded_dist(joint, eta_t: float) -> np.ndarray:
    """Signal statistics conditioned on at least one trigger click.

    The joint probability of n pairs and a click is
    p_n * (1 - (1 - eta_t)^n).  eta_t = 0 selects the vanishing-loss
    limit n * p_n / mean, which the conditional distribution approaches
    from above in trigger efficiency.

    Raises:
        ValueError: when the input carries no photons, so the click
            probability vanishes.
    """
    import numpy as np
    joint = _distribution(joint)
    require(0.0 <= eta_t <= 1.0, "eta_t must lie in [0, 1]")
    n = np.arange(joint.size, dtype=float)
    if eta_t == 0.0:
        weights = n
    elif eta_t == 1.0:  # every pair clicks; log1p(-1) would give 0 * -inf
        weights = np.minimum(n, 1.0)
    else:
        # 1 - (1 - eta_t)^n; that form rounds to 0 for eta_t below 1.1e-16
        weights = -np.expm1(n * np.log1p(-eta_t))
    raw = joint * weights
    total = raw.sum()
    if total <= 0.0:
        raise ValueError(
            "click probability vanishes: the joint distribution is vacuum"
        )
    return _finalize(raw / total, joint.size - 1, "heralded distribution")


def heralded_mean(n_modes: int, gain_sq: float, eta_t: float) -> float:
    """Exact mean photon number of n_modes identical thermal modes of
    gain gain_sq, conditioned on a click of a trigger of efficiency eta_t.

    The pair number has generating function E[z^n] = (1 + mu (1 - z))^-K
    with mu = g / (1 - g).  A click has probability
    1 - (1 + mu eta)^-K, and n pairs with a click have total
    E[n] - (1 - eta) G'(1 - eta) = K mu (1 - (1 - eta)(1 + mu eta)^-(K+1)),
    so with x = log1p(mu eta) the mean is
    K mu (-expm1(log1p(-eta) - (K + 1) x)) / (-expm1(-K x)),
    free of cancellation at every eta.  eta_t = 0 gives the
    vanishing-loss limit 1 + (K + 1) mu, which the mean approaches from
    below as eta_t falls.  Refuses what multimode_dist and heralded_dist
    refuse, in their order, but has no cutoff.
    """
    require(n_modes >= 1, "n_modes must be at least 1")
    require(0.0 <= gain_sq < 1.0, "gain_sq must lie in [0, 1)")
    require(0.0 <= eta_t <= 1.0, "eta_t must lie in [0, 1]")
    if gain_sq == 0.0:
        raise ValueError(
            "click probability vanishes: the joint distribution is vacuum"
        )
    K = n_modes
    mu = gain_sq / (1.0 - gain_sq)
    if mu * eta_t < _TINY:
        # eta_t = 0, or a product so small that the limit is exact in
        # floats, where a subnormal x would lose digits
        return 1.0 + (K + 1) * mu
    x = math.log1p(mu * eta_t)
    clicks = -math.expm1(-K * x)
    if eta_t == 1.0:  # every pair clicks; log1p(-1) is a domain error
        return K * mu / clicks
    return K * mu * -math.expm1(math.log1p(-eta_t) - (K + 1) * x) / clicks


def loss_matrix(efficiency: float, nmax: int) -> np.ndarray:
    """Binomial loss map from n <= nmax photons to m surviving photons.

    L[m, n] = C(n, m) eta^m (1-eta)^(n-m); every column sums to one.
    Column n is built from column n - 1 by Pascal's rule: each photon
    survives with probability eta, so
    L[m, n] = (1 - eta) L[m, n-1] + eta L[m-1, n-1].  Every entry is a
    convex combination of earlier ones, so none overflows.
    """
    import numpy as np
    require(0.0 <= efficiency <= 1.0, "efficiency must be in [0, 1]")
    eta = efficiency
    size = nmax + 1
    L = np.zeros((size, size))
    L[0, 0] = 1.0
    for n in range(1, size):
        previous = L[:n, n - 1]
        L[:n, n] = (1.0 - eta) * previous
        L[1 : n + 1, n] += eta * previous
    return L


def tmd_convolution_matrix(nmax: int) -> np.ndarray:
    """Click-count map of a two-bin splitter with two threshold detectors.

    n photons split 50/50 produce one click unless they all bunch into
    one bin: P(1|n) = 2^(1-n) and P(2|n) = 1 - 2^(1-n) for n >= 1.
    """
    import numpy as np
    require(nmax >= 2, "nmax must be at least 2")
    C = np.zeros((3, nmax + 1))
    C[0, 0] = 1.0
    for n in range(1, nmax + 1):
        C[1, n] = 2.0 ** (1 - n)
        C[2, n] = 1.0 - 2.0 ** (1 - n)
    return C


def forward_click_dist(rho, efficiency: float) -> np.ndarray:
    """Predicted 0/1/2-click probabilities: loss first, then the splitter map."""
    import numpy as np
    probs = _distribution(rho)
    if probs.size < 3:  # the splitter map needs at least two photons
        probs = np.pad(probs, (0, 3 - probs.size))
    nmax = probs.size - 1
    clicks = tmd_convolution_matrix(nmax) @ (
        loss_matrix(efficiency, nmax) @ probs
    )
    clicks.setflags(write=False)
    return clicks


class InversionResult(NamedTuple):
    """Outcome of a maximum-likelihood inversion.

    Attributes:
        state: the reconstructed photon-number distribution, read-only.
        converged: whether kkt_gap reached the tolerance, which certifies
            that log_likelihood is within log(1 + tol) of its maximum.
        iterations: multiplicative updates taken from the starting
            point; 0 when the direct solve was already optimal.
        log_likelihood: sum of observed * log(predicted) over the
            observed outcomes; -inf when one of them has zero predicted
            probability.
        kkt_gap: max_n g_n - 1 at the returned state, where
            g = R^T (observed / R rho) for response matrix R; it is
            zero up to rounding exactly at the optimum, and infinite
            when an observed outcome has zero predicted probability.
        condition: 1-norm condition number of R, which bounds how far
            rounding moves a direct solve; infinite when R is singular.
    """

    state: np.ndarray
    converged: bool
    iterations: int
    log_likelihood: float
    kkt_gap: float
    condition: float


def _ml_estimate(
    observed: np.ndarray,
    response: np.ndarray,
    max_iter: int,
    tol: float,
) -> InversionResult:
    """Maximum-likelihood distribution rho for observed = response @ rho.

    A direct solve of the square response that is a distribution starts
    the search at that solve, which reproduces the observation exactly
    and is therefore the optimum.  Otherwise the optimum lies on a face
    of the simplex and the search starts from the uniform state.  Each
    pass computes g = R^T (observed / R rho) and stops once the KKT gap
    max(g) - 1 is at most tol; by Cover's bound the log-likelihood is
    then within log(1 + gap) of its maximum.  Otherwise it takes the multiplicative
    step rho <- rho * g.  The response matrix must have unit column
    sums, which makes every step normalization-preserving and the
    likelihood non-decreasing; that monotonicity is asserted on every
    step.
    """
    import numpy as np
    observed = observed / observed.sum()
    support = observed > 0
    size = response.shape[1]
    condition = float(np.linalg.cond(response, 1))
    rho = np.full(size, 1.0 / size)
    if math.isfinite(condition):  # a singular response has no solve
        direct = np.linalg.solve(response, observed)
        if np.all(direct >= 0.0):
            rho = direct / direct.sum()

    predicted = response @ rho
    log_likelihood = -math.inf
    iterations = 0
    while True:
        if predicted[support].min() < 1e-300:
            # an observed outcome that every state rules out, as when a
            # tiny efficiency underflows a row of R: no likelihood is
            # finite, so no gap certifies the result
            log_likelihood, gap = -math.inf, math.inf
            break
        current = float(observed[support] @ np.log(predicted[support]))
        if current < log_likelihood - 1e-9 * max(1.0, abs(log_likelihood)):
            raise AssertionError(
                "EM likelihood decreased; response matrix is inconsistent"
            )
        log_likelihood = current
        ratio = np.zeros_like(observed)
        ratio[support] = observed[support] / predicted[support]
        gain = response.T @ ratio
        gap = float(gain.max()) - 1.0
        if gap <= tol or iterations >= max_iter:
            break
        rho = rho * gain
        rho /= rho.sum()
        predicted = response @ rho
        iterations += 1
    rho.setflags(write=False)
    return InversionResult(
        state=rho,
        converged=gap <= tol,
        iterations=iterations,
        log_likelihood=log_likelihood,
        kkt_gap=gap,
        condition=condition,
    )


def ml_invert(
    clicks,
    efficiency: float,
    max_iter: int = 100_000,
    tol: float = 1e-10,
) -> InversionResult:
    """Maximum-likelihood photon statistics behind observed click statistics.

    The forward model is splitter_map @ loss_matrix on the photon
    numbers 0, 1 and 2, the largest support that three click outcomes
    identify, so the response is square.  The direct solve is returned
    when it is a distribution (iterations = 0); otherwise the
    multiplicative expectation-maximization iteration runs from the
    uniform state until its KKT gap falls to tol.  Never fails
    silently: a result that stopped on the iteration budget is returned
    with converged=False.

    Args:
        clicks: observed probabilities of 0, 1 and 2 clicks.
        efficiency: calibrated detection efficiency in (0, 1].
        max_iter: iteration budget.
        tol: bound on the KKT gap max_n g_n - 1 at which the result
            counts as converged; the log-likelihood is then within
            log(1 + tol) of its maximum.
    """
    import numpy as np
    clicks = np.asarray(clicks, dtype=float)
    require(clicks.shape == (3,), "a two-bin detector has 3 outcomes")
    clicks = _checked_probabilities(clicks)
    # loss_matrix refuses an efficiency outside [0, 1] before this
    # function refuses zero
    response = tmd_convolution_matrix(2) @ loss_matrix(efficiency, 2)
    require(efficiency > 0.0, "inversion requires efficiency > 0")
    return _ml_estimate(clicks, response, max_iter, tol)


def invert_loss_only(
    observed: np.ndarray,
    efficiency: float,
    max_iter: int = 100_000,
    tol: float = 1e-10,
) -> InversionResult:
    """Undo detection loss from photon-number-basis statistics.

    For data already expressed as photon counts (for example click
    statistics that the splitter map has been removed from), the
    forward model is the loss matrix alone, on the photon numbers
    0 .. K-1 that K observed outcomes identify.  The estimate is the one
    ml_invert makes: the direct solve when it is a distribution, else
    the iteration stopped on its KKT gap.

    Args:
        observed: probabilities of 0 .. K-1 detected photons, K >= 2,
            summing to one.
        efficiency: calibrated detection efficiency in (0, 1].
        max_iter: iteration budget.
        tol: bound on the KKT gap, as for ml_invert.
    """
    import numpy as np
    observed = np.asarray(observed, dtype=float)
    require(observed.ndim == 1 and observed.size >= 2, "need >= 2 outcomes")
    observed = _checked_probabilities(observed)
    response = loss_matrix(efficiency, observed.size - 1)
    require(efficiency > 0.0, "inversion requires efficiency > 0")
    return _ml_estimate(observed, response, max_iter, tol)


class ModeReductionFit(NamedTuple):
    """Linear fits of heralded mean versus power for two filter settings.

    slope_ratio estimates (M_unfiltered + 1) / (M_filtered + 1); the
    intercepts are diagnostics that should sit near one in the low-gain
    regime.
    """

    slope_ratio: float
    intercept_unfiltered: float
    intercept_filtered: float


def _fit_line(points) -> tuple[float, float]:
    """Least-squares slope and intercept of mean against power, from
    sums centred on the mean power and the mean of the means.

    The centred powers are taken in units of the largest of them, so no
    square underflows however small the powers are.
    """
    power, mean = zip(
        *require_pairs(
            points, 2, "each series needs at least two (power, mean) points"
        )
    )
    require(all(p > 0 for p in power), "powers must be positive")
    require(max(power) > min(power), "powers must not all coincide")
    power_bar = sum(power) / len(power)
    mean_bar = sum(mean) / len(mean)
    scale = max(abs(p - power_bar) for p in power)
    centred = [(p - power_bar) / scale for p in power]
    slope = sum(c * (m - mean_bar) for c, m in zip(centred, mean)) / (
        sum(c * c for c in centred) * scale
    )
    return slope, mean_bar - slope * power_bar


def estimate_mode_reduction(unfiltered, filtered) -> ModeReductionFit:
    """Slope ratio of heralded mean photon number against pump power.

    In the uniform multimode model the heralded mean grows like
    1 + (M + 1) * gain_sq, so the ratio of fitted slopes for two filter
    settings estimates (M_unfiltered + 1) / (M_filtered + 1).
    """
    slope_u, intercept_u = _fit_line(unfiltered)
    slope_f, intercept_f = _fit_line(filtered)
    require(slope_f != 0.0, "filtered series has zero slope")
    return ModeReductionFit(
        slope_ratio=slope_u / slope_f,
        intercept_unfiltered=intercept_u,
        intercept_filtered=intercept_f,
    )


def implied_mode_count(slope_ratio: float, modes_filtered: int = 1) -> float:
    """Unfiltered mode count implied by a slope ratio and a known reference."""
    require(modes_filtered >= 1, "modes_filtered must be at least 1")
    return slope_ratio * (modes_filtered + 1) - 1.0
