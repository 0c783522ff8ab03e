"""Photon-number distributions, built in full, and the mode-count
estimate they feed: the test oracle.

The package computes the heralded mean of K thermal modes in closed
form (`photon_stats.heralded_mean`) and builds no distribution.  The
tests check that closed form against the route here: the negative
binomial head of K modes, heralded on a lossy trigger, as numpy
vectors that are returned read-only.

The mode reduction that filtering buys shows in the power dependence
of the heralded mean (Christ et al., NJP 13, 033027 (2011)): the
ratio of the slopes fitted to two filter settings estimates
(M_unfiltered + 1) / (M_filtered + 1).  No command fits it, since a
fit to the command's own model only returns the mode counts it was
given; the tests fit it to the distributions above.
"""

import math
from typing import NamedTuple

import numpy as np

from pdckit.errors import require, require_pairs

_TAIL_LIMIT = 1e-6


def _distribution(probs) -> np.ndarray:
    """A caller's photon-number distribution, checked and read-only."""
    probs = np.asarray(probs, dtype=float)
    require(probs.ndim == 1 and probs.size >= 1, "probs must be 1-d")
    require(np.all(probs >= 0), "probabilities must be nonnegative")
    require(
        abs(probs.sum() - 1.0) <= 1e-9,
        "probabilities must sum to one within 1e-9",
    )
    probs = probs.copy()
    probs.setflags(write=False)
    return probs


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
