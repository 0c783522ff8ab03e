"""Photon-number statistics of the heralded source.

Covers the exact mean photon number of one or more heralded
down-conversion modes (K identical thermal modes sum to a negative
binomial distribution, whose generating function gives that mean in
closed form), the forward model of a two-bin time-multiplexed click
detector (loss matrix followed by a splitting convolution) and its
maximum-likelihood inversion.  Everything runs on Python
floats: matrices are lists of rows, and the distributions returned are
tuples, so read-only.

A note on inversion: a two-bin detector resolves three outcomes, so at
most the photon-number components 0, 1 and 2 are identifiable from one
click distribution.  ml_invert therefore reconstructs on that
identifiable support, where the response matrix is square and upper
triangular: when its direct solve, by back-substitution, is a
distribution it reproduces the data exactly and is the
maximum-likelihood state.  Otherwise the optimum lies on a face of the
simplex and the multiplicative expectation-maximization iteration
finds it, stopping on a KKT gap that certifies optimality.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import require

__all__ = [
    "InversionResult",
    "heralded_mean",
    "loss_matrix",
    "tmd_convolution_matrix",
    "forward_click_dist",
    "ml_invert",
    "invert_loss_only",
]

_TINY = 2.2250738585072014e-308  # smallest normal float, sys.float_info.min


def _probabilities(
    values, message: str, least: int, most: float
) -> tuple[float, ...]:
    """A caller's probability vector as a tuple of floats.

    Refused with message unless it is flat with least to most entries,
    then unless it is nonnegative and sums to one within 1e-9.
    """
    try:
        probs = tuple([float(p) for p in values])
    except TypeError:  # a scalar, or a nested sequence
        probs = ()
    require(least <= len(probs) <= most, message)
    require(all(p >= 0.0 for p in probs), "probabilities must be nonnegative")
    require(
        abs(sum(probs) - 1.0) <= 1e-9,
        "probabilities must sum to one within 1e-9",
    )
    return probs


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
    below as eta_t falls.  Refuses a mode count below one, a gain outside
    [0, 1), an efficiency outside [0, 1] and a zero gain, in that order,
    and has no photon-number cutoff.
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


def loss_matrix(efficiency: float, nmax: int) -> list[list[float]]:
    """Binomial loss map from n <= nmax photons to m surviving photons,
    as rows L[m] of floats.

    L[m][n] = C(n, m) eta^m (1-eta)^(n-m); every column sums to one, and
    L is upper triangular.  Column n is built from column n - 1 by
    Pascal's rule: each photon survives with probability eta, so
    L[m][n] = (1 - eta) L[m][n-1] + eta L[m-1][n-1].  Every entry is a
    convex combination of earlier ones, so none overflows.
    """
    require(0.0 <= efficiency <= 1.0, "efficiency must be in [0, 1]")
    eta, keep = efficiency, 1.0 - efficiency
    size = nmax + 1
    L = [[0.0] * size for _ in range(size)]
    L[0][0] = 1.0
    for n in range(1, size):
        L[0][n] = keep * L[0][n - 1]
        for m in range(1, n):
            L[m][n] = keep * L[m][n - 1] + eta * L[m - 1][n - 1]
        L[n][n] = eta * L[n - 1][n - 1]
    return L


def tmd_convolution_matrix(nmax: int) -> list[list[float]]:
    """Click-count map of a two-bin splitter with two threshold detectors,
    as three rows C[k] of floats, for k = 0, 1 and 2 clicks.

    n photons split 50/50 produce one click unless they all bunch into
    one bin: P(1|n) = 2^(1-n) and P(2|n) = 1 - 2^(1-n) for n >= 1.
    """
    require(nmax >= 2, "nmax must be at least 2")
    one = [2.0 ** (1 - n) for n in range(1, nmax + 1)]
    return [
        [1.0] + [0.0] * nmax,
        [0.0] + one,
        [0.0] + [1.0 - p for p in one],
    ]


def _apply(rows, vector) -> list[float]:
    """rows @ vector, each entry summed in index order."""
    import operator  # loaded at interpreter start-up

    return [sum(map(operator.mul, row, vector)) for row in rows]


def forward_click_dist(rho, efficiency: float) -> tuple[float, ...]:
    """Predicted 0/1/2-click probabilities: loss first, then the splitter map."""
    probs = _probabilities(rho, "probs must be 1-d", 1, math.inf)
    probs += (0.0,) * (3 - len(probs))  # the splitter map needs two photons
    nmax = len(probs) - 1
    splitter = tmd_convolution_matrix(nmax)
    survivors = _apply(loss_matrix(efficiency, nmax), probs)
    return tuple(_apply(splitter, survivors))


class InversionResult(NamedTuple):
    """Outcome of a maximum-likelihood inversion.

    Attributes:
        state: the reconstructed photon-number distribution, a tuple of
            floats.
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

    state: tuple[float, ...]
    converged: bool
    iterations: int
    log_likelihood: float
    kkt_gap: float
    condition: float


def _back_substitute(upper, b) -> list[float]:
    """x with upper @ x = b for an upper triangular matrix with a nonzero
    diagonal, solved column by column from the last, in the order of
    LAPACK's triangular solve.  A shorter b solves the leading block."""
    x = list(b)
    for j in range(len(x) - 1, -1, -1):
        x[j] /= upper[j][j]
        for i in range(j):
            x[i] -= x[j] * upper[i][j]
    return x


def _loss_condition(efficiency: float, size: int) -> float:
    """1-norm condition number of the size x size loss matrix, in closed
    form; infinite when it overflows.

    Its columns are stochastic, so its norm is one.  Its inverse is the
    loss map of efficiency 1/eta, whose column n sums in absolute value
    to eta^-n (1 + (1 - eta))^n, largest at n = size - 1.
    """
    try:
        return ((2.0 - efficiency) / efficiency) ** (size - 1)
    except OverflowError:
        return math.inf


def _ml_estimate(
    observed: tuple[float, ...],
    response: list[list[float]],
    condition: float,
    max_iter: int,
    tol: float,
) -> InversionResult:
    """Maximum-likelihood distribution rho for observed = response @ rho.

    The square response is upper triangular with unit column sums, and
    condition is its 1-norm condition number.  A direct solve by
    back-substitution that is a distribution starts the search at that
    solve, which reproduces the observation exactly and is therefore
    the optimum.  Otherwise the optimum lies on a face of the simplex
    and the search starts from the uniform state.  Each pass computes
    g = R^T (observed / R rho) and stops once the KKT gap max(g) - 1 is
    at most tol; by Cover's bound the log-likelihood is then within
    log(1 + gap) of its maximum.  Otherwise it takes the multiplicative
    step rho <- rho * g.  The unit column sums make every step
    normalization-preserving and the likelihood non-decreasing; that
    monotonicity is asserted on every step.
    """
    import operator  # loaded at interpreter start-up

    mul, truediv, log = operator.mul, operator.truediv, math.log
    total = sum(observed)
    observed = [y / total for y in observed]
    size = len(response)
    rho = [1.0 / size] * size
    if math.isfinite(condition):  # a singular response has no solve
        direct = _back_substitute(response, observed)
        if all(x >= 0.0 for x in direct):
            total = sum(direct)
            rho = [x / total for x in direct]

    # only the observed outcomes enter the likelihood and the gain
    kept = [m for m, y in enumerate(observed) if y > 0.0]
    rows = [response[m] for m in kept]
    weights = [observed[m] for m in kept]
    # R is upper triangular, so column n ends at the last kept row m <= n
    # and a shorter column drops only zero terms from its gain sum
    columns = [
        column[: sum(m <= n for m in kept)]
        for n, column in enumerate(zip(*rows))
    ]
    predicted = [sum(map(mul, row, rho)) for row in rows]
    log_likelihood = -math.inf
    iterations = 0
    while True:
        if min(predicted) < 1e-300:
            # an observed outcome that every state rules out, as when a
            # tiny efficiency underflows a row of R: no likelihood is
            # finite, so no gap certifies the result
            log_likelihood, gap = -math.inf, math.inf
            break
        current = sum(map(mul, weights, map(log, predicted)))
        if current < log_likelihood - 1e-9 * max(1.0, abs(log_likelihood)):
            raise AssertionError(
                "EM likelihood decreased; response matrix is inconsistent"
            )
        log_likelihood = current
        ratio = list(map(truediv, weights, predicted))
        gain = [sum(map(mul, column, ratio)) for column in columns]
        gap = max(gain) - 1.0
        if gap <= tol or iterations >= max_iter:
            break
        rho = list(map(mul, rho, gain))
        total = sum(rho)
        rho = [r / total for r in rho]
        predicted = [sum(map(mul, row, rho)) for row in rows]
        iterations += 1
    return InversionResult(
        state=tuple(rho),
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
    clicks = _probabilities(clicks, "a two-bin detector has 3 outcomes", 3, 3)
    splitter = tmd_convolution_matrix(2)
    # loss_matrix refuses an efficiency outside [0, 1] before this
    # function refuses zero
    loss_columns = list(zip(*loss_matrix(efficiency, 2)))
    require(efficiency > 0.0, "inversion requires efficiency > 0")
    response = [_apply(loss_columns, row) for row in splitter]
    # both maps have stochastic columns, so the norm of R is one.  R^-1,
    # the loss map of 1/eta times the splitter's inverse, has the largest
    # absolute column sum q (1 + 2 q).  It overflows (eta below 2.1e-154)
    # before R's last pivot eta^2/2 underflows to zero (below 1e-160), so
    # an infinite condition keeps the direct solve from a zero pivot.
    q = (2.0 - efficiency) / efficiency
    condition = q * (1.0 + 2.0 * q)
    return _ml_estimate(clicks, response, condition, max_iter, tol)


def invert_loss_only(
    observed,
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
    observed = _probabilities(observed, "need >= 2 outcomes", 2, math.inf)
    response = loss_matrix(efficiency, len(observed) - 1)
    require(efficiency > 0.0, "inversion requires efficiency > 0")
    condition = _loss_condition(efficiency, len(observed))
    return _ml_estimate(observed, response, condition, max_iter, tol)
