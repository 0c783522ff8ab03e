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
identifiable support, where the response matrix R is square and upper
triangular: when its direct solve, by back-substitution, is a
distribution it reproduces the data exactly and is the
maximum-likelihood state.  Otherwise the optimum lies on a face of the
simplex, and Newton steps on the support of rho climb to it.  A
component that reaches zero leaves the support, and the index of
largest g = R^T (y / R rho) joins it once g <= 1 + KKT_GAP on it.  The
solve stops on a KKT gap max(g) - 1 <= KKT_GAP, which by Cover's bound
puts the log-likelihood within log(1 + gap) of its maximum.
"""

from __future__ import annotations

import math
from operator import mul, truediv
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
    "KKT_GAP",
]

_TINY = 2.2250738585072014e-308  # smallest normal float, sys.float_info.min
# the KKT gap that certifies an inversion, some 50 times the rounding of
# the gap at 16 outcomes: the log-likelihood is within 1e-13 of its best
KKT_GAP = 1e-13


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
    return [sum(map(mul, row, vector)) for row in rows]


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
        state: the reconstructed photon-number distribution, as floats.
        converged: whether kkt_gap is at most KKT_GAP, which certifies
            that log_likelihood is within log(1 + KKT_GAP) of its maximum.
        iterations: Newton steps taken from the starting point; 0 when
            the direct solve was already optimal.
        log_likelihood: sum of observed * log(predicted) over the
            observed outcomes; -inf when one of them is predicted zero.
        kkt_gap: max_n g_n - 1 at the returned state, where
            g = R^T (observed / R rho) for response matrix R: zero up to
            rounding at the optimum, infinite where log_likelihood is.
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


def _normal_solve(columns, rhs) -> list[float] | None:
    """u with A^T A u = rhs for the matrix A of these columns, through R
    of a Householder QR of A: forming A^T A would lose its small
    eigenvalues to rounding.  None for dependent columns."""
    columns = [column[:] for column in columns]
    for j, column in enumerate(columns):
        reflector = column[j:] + [0.0]  # dependent past the last row
        reflector[0] += math.copysign(math.hypot(*reflector), reflector[0])
        size = math.hypot(*reflector)
        if size == 0.0:
            return None
        reflector = [v / size for v in reflector]
        for other in columns[j:]:
            factor = 2.0 * sum(map(mul, reflector, other[j:]))
            other[j:] = [a - factor * v for a, v in zip(other[j:], reflector)]
    middle = []  # R^T middle = rhs; column j of R is row j of R^T
    for j, column in enumerate(columns):
        middle.append((rhs[j] - sum(map(mul, column, middle))) / column[j])
    return _back_substitute(list(zip(*columns)), middle)


def _evaluate(rows, weights, rho):
    """(log-likelihood, predicted, g, KKT gap) at rho on the observed rows;
    -inf, None and inf where one is predicted below 1e-306 (R underflows).
    Above that floor y/p <= 1e306, so g, a sum of K <= 16 such ratios
    weighted by at most one, stays finite."""
    predicted = _apply(rows, rho)
    if min(predicted) < 1e-306:
        return -math.inf, predicted, None, math.inf
    gain = _apply(list(zip(*rows)), list(map(truediv, weights, predicted)))
    log_likelihood = sum(map(mul, weights, map(math.log, predicted)))
    return log_likelihood, predicted, gain, max(gain) - 1.0


def _newton_step(rows, weights, rho, evaluation):
    """(state, evaluation) one Newton step up from the distribution rho
    on its support, or None without ascent.

    It maximizes F = sum y log(R rho) - sum(rho) - (sum(rho) - 1)^2 / 2,
    concave with its maximum over rho >= 0 on the simplex, where its
    gradient is g - 1 and its Hessian -A^T A, for A the observed rows of
    R scaled by sqrt(y) / (R rho) over a row of ones.  The step is cut
    where a component reaches zero, then halved until F rises by 1e-4
    of the slope's prediction, a rise summed free of F's rounding.
    """
    _, predicted, gain, _ = evaluation
    support = [n for n, x in enumerate(rho) if x > 0.0]
    if max(gain[n] for n in support) - 1.0 <= KKT_GAP:
        support.append(gain.index(max(gain)))
    root = [math.sqrt(w) / p for w, p in zip(weights, predicted)]
    columns = [[a[n] * r for a, r in zip(rows, root)] + [1.0] for n in support]
    solution = _normal_solve(columns, [gain[n] - 1.0 for n in support])
    if solution is None:
        return None
    moves = dict(zip(support, solution))
    step = [moves.get(n, 0.0) for n in range(len(rho))]
    slope = sum((g - 1.0) * d for g, d in zip(gain, step))
    if not 0.0 < slope < math.inf:
        return None
    length = min([1.0] + [-x / d for x, d in zip(rho, step) if d < 0.0])
    change = list(map(truediv, _apply(rows, step), predicted))
    while True:
        state = [
            0.0 if d < 0.0 and -x / d <= length else max(x + length * d, 0.0)
            for x, d in zip(rho, step)
        ]
        if state == rho:
            return None
        total = sum(state)
        state = [x / total for x in state]
        evaluation = _evaluate(rows, weights, state)
        if evaluation[0] > -math.inf and min(change) * length > -1.0:
            rise = sum(
                w * (math.log1p(length * q) - length * q)
                for w, q in zip(weights, change)
            ) + length * slope - (length * sum(step)) ** 2 / 2.0
            if rise >= 1e-4 * length * slope:
                return state, evaluation
        length /= 2.0


def _ml_estimate(observed, response, condition) -> InversionResult:
    """Maximum-likelihood distribution rho for observed = response @ rho,
    by the solve of the module's note; R is upper triangular with unit
    column sums and condition its 1-norm condition number.  The face
    solve starts from the direct solve with negative and unobserved
    entries zeroed or, where that explains too little, from the uniform
    state on the observed outcomes."""
    total = sum(observed)
    observed = [y / total for y in observed]
    # only the observed outcomes enter the likelihood and the gain
    rows = [row for row, y in zip(response, observed) if y > 0.0]
    weights = [y for y in observed if y > 0.0]
    rho = [float(y > 0.0) for y in observed]
    if math.isfinite(condition):  # a singular response has no solve
        direct = _back_substitute(response, observed)
        clipped = [max(x, 0.0) * (y > 0.0) for x, y in zip(direct, observed)]
        if min(direct) >= 0.0 or min(_apply(rows, clipped)) > 0.0:
            rho = clipped
    total = sum(rho)
    rho = [x / total for x in rho]
    evaluation = _evaluate(rows, weights, rho)
    iterations = 0
    while KKT_GAP < evaluation[3] < math.inf:
        step = _newton_step(rows, weights, rho, evaluation)
        if step is None:
            break
        rho, evaluation = step
        iterations += 1
    log_likelihood, _, _, gap = evaluation
    return InversionResult(
        tuple(rho), gap <= KKT_GAP, iterations, log_likelihood, gap, condition
    )


def ml_invert(clicks, efficiency: float) -> InversionResult:
    """Maximum-likelihood photon statistics behind observed click statistics.

    The forward model is splitter_map @ loss_matrix on the photon
    numbers 0, 1 and 2, the largest support that three click outcomes
    identify, so the response is square.  The estimate is the direct
    solve or the face solve of the module's note; data that no state
    explains are returned with converged=False.

    Args:
        clicks: observed probabilities of 0, 1 and 2 clicks.
        efficiency: calibrated detection efficiency in (0, 1].
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
    return _ml_estimate(clicks, response, condition)


def invert_loss_only(observed, efficiency: float) -> InversionResult:
    """Undo detection loss from photon-number-basis statistics.

    For data already expressed as photon counts (for example click
    statistics that the splitter map has been removed from), the
    forward model is the loss matrix alone, on the photon numbers
    0 .. K-1 that K observed outcomes identify.  The estimate is the one
    ml_invert makes.

    Args:
        observed: probabilities of 0 .. K-1 detected photons, K >= 2,
            summing to one.
        efficiency: calibrated detection efficiency in (0, 1].
    """
    observed = _probabilities(observed, "need >= 2 outcomes", 2, math.inf)
    response = loss_matrix(efficiency, len(observed) - 1)
    require(efficiency > 0.0, "inversion requires efficiency > 0")
    # R's columns are stochastic, so its norm is one.  R^-1 is the loss
    # map of efficiency 1/eta, whose column n sums in absolute value to
    # ((2 - eta) / eta)^n, largest at n = K - 1
    try:
        condition = ((2.0 - efficiency) / efficiency) ** (len(observed) - 1)
    except OverflowError:
        condition = math.inf
    return _ml_estimate(observed, response, condition)
