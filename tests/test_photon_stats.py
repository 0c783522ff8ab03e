import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pdckit import photon_stats as ps
from photon_distributions import (
    estimate_mode_reduction,
    face_input,
    heralded_dist,
    implied_mode_count,
    multimode_dist,
)


def _thermal(gain_sq, nmax):
    """One thermal mode: the single-mode case of the multimode model."""
    return multimode_dist(1, gain_sq, nmax=nmax)


def _moment(probs, power=1):
    """<n^power> of a photon-number distribution."""
    return float(np.arange(probs.size) ** power @ probs)


def _mean(probs):
    return _moment(probs)


class TestThermal:
    def test_zero_gain_is_vacuum(self):
        dist = _thermal(0.0, nmax=4)
        assert np.array_equal(dist, [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_geometric_sequence(self):
        dist = _thermal(0.5, nmax=24)
        assert np.allclose(dist[:4], [0.5, 0.25, 0.125, 0.0625], atol=1e-6)
        assert _mean(dist) == pytest.approx(1.0, abs=1e-5)

    def test_second_moment_identity(self):
        # <n^2> = 2 mu^2 + mu for a thermal state; the brute-force sum
        # over the stored vector must agree
        dist = _thermal(0.35, nmax=30)
        mu = _mean(dist)
        brute = float(sum(n * n * p for n, p in enumerate(dist)))
        assert brute == pytest.approx(2 * mu * mu + mu, rel=1e-9)
        assert _moment(dist, 2) == pytest.approx(brute, rel=1e-12)

    def test_cutoff_too_small_rejected(self):
        with pytest.raises(ValueError, match="increase nmax"):
            _thermal(0.5, nmax=8)

    def test_validation(self):
        with pytest.raises(ValueError):
            _thermal(1.0, nmax=10)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, 1.0, 0), "n_modes must be at least 1"),
            ((1, 1.0, 0), r"gain_sq must lie in \[0, 1\)"),
            ((1, -0.1, 0), r"gain_sq must lie in \[0, 1\)"),
            ((1, 0.5, 0), "nmax must be at least 1"),
        ],
    )
    def test_checks_in_order(self, args, message):
        with pytest.raises(ValueError, match=message):
            multimode_dist(*args)


class TestMultimode:
    def test_single_mode_matches_thermal(self):
        geometric = 0.8 * 0.2 ** np.arange(13)
        assert np.allclose(
            multimode_dist(1, 0.2, nmax=12),
            geometric / geometric.sum(),
            atol=1e-15,
        )

    def test_two_mode_mean(self):
        dist = multimode_dist(2, 0.5, nmax=40)
        assert _mean(dist) == pytest.approx(2.0, abs=1e-4)

    def test_head_matches_direct_convolution(self):
        dist = multimode_dist(3, 0.3, nmax=25)
        single = [(1 - 0.3) * 0.3**n for n in range(26)]
        direct = [0.0] * 26
        for a in range(26):
            for b in range(26 - a):
                for c in range(26 - a - b):
                    direct[a + b + c] += single[a] * single[b] * single[c]
        assert np.allclose(dist[:10], np.array(direct[:10]) / sum(direct),
                           atol=1e-9)

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("gain_sq", [0.1, 0.3])
    def test_moment_identities(self, n_modes, gain_sq):
        dist = multimode_dist(n_modes, gain_sq, nmax=40)
        single = _thermal(gain_sq, nmax=40)
        mu, mu2 = _mean(single), _moment(single, 2)
        assert _mean(dist) == pytest.approx(n_modes * mu, abs=1e-9)
        assert _moment(dist, 2) == pytest.approx(
            n_modes * mu2 + n_modes * (n_modes - 1) * mu * mu, abs=1e-9
        )


def _convolved(n_modes, gain_sq, nmax):
    """n_modes-fold convolution of the single-mode distribution, truncated.

    The power is taken by repeated squaring, so about 2 log2(n_modes)
    convolutions replace n_modes of them; the head of a truncated
    product is exact either way.  It is the reference the negative
    binomial closed form is checked against.
    """
    def times(a, b):
        return np.convolve(a, b)[: nmax + 1]

    power = (1.0 - gain_sq) * gain_sq ** np.arange(nmax + 1, dtype=float)
    acc = np.zeros(nmax + 1)
    acc[0] = 1.0
    while n_modes:
        if n_modes & 1:
            acc = times(acc, power)
        n_modes >>= 1
        if n_modes:
            power = times(power, power)
    return acc / acc.sum()


class TestNegativeBinomial:
    # The reference costs O(log K nmax^2), about 6 ms an example at
    # K = nmax = 1000.
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 1000),
        st.floats(0.0, 0.5, exclude_max=True),
        st.integers(1, 1000),
    )
    @example(1000, 0.42, 1000)
    @example(1000, 0.2, 1000)
    def test_matches_convolution(self, n_modes, gain_sq, nmax):
        try:
            dist = multimode_dist(n_modes, gain_sq, nmax)
        except ValueError:
            assume(False)  # the cutoff refuses this draw
        reference = _convolved(n_modes, gain_sq, nmax)
        gap = np.abs(dist - reference)
        assert gap.max() <= 1e-13 * reference.max()
        large = reference > 1e-250
        assert np.all(gap[large] <= 1e-9 * reference[large])

    def test_moments_where_the_vacuum_factor_underflows(self):
        # (1 - g)^K is exactly 0 in floating point here, so only a
        # log-space evaluation keeps the distribution
        n_modes, gain_sq = 1000, 0.53
        assert (1.0 - gain_sq) ** n_modes == 0.0
        dist = multimode_dist(n_modes, gain_sq, 5000)
        mean = _mean(dist)
        variance = _moment(dist, 2) - mean * mean
        assert mean == pytest.approx(
            n_modes * gain_sq / (1 - gain_sq), rel=1e-9
        )
        assert variance == pytest.approx(
            n_modes * gain_sq / (1 - gain_sq) ** 2, rel=1e-9
        )

    def test_mass_beyond_cutoff_rejected(self):
        # mean K g / (1 - g) = 1500 lies beyond nmax: the stored head
        # holds about 1e-19 of the mass although its last entry is tiny
        with pytest.raises(ValueError, match="beyond n=1000"):
            multimode_dist(1000, 0.6, nmax=1000)


class TestHeralded:
    def test_single_photon_is_fixed_point(self):
        dist = np.array([0.0, 1.0, 0.0])
        for eta in (1e-3, 0.3, 1.0):
            heralded = heralded_dist(dist, eta)
            assert heralded[1] == pytest.approx(1.0)

    def test_thermal_low_loss_mean(self):
        dist = _thermal(0.15, nmax=20)
        mu = _mean(dist)
        heralded = heralded_dist(dist, 0.0)
        assert _mean(heralded) == pytest.approx(2 * mu + 1, abs=1e-7)

    @pytest.mark.parametrize("n_modes", [1, 5, 31])
    @pytest.mark.parametrize("gain_sq", [0.01, 0.03])
    def test_low_gain_multimode_mean(self, n_modes, gain_sq):
        joint = multimode_dist(n_modes, gain_sq, nmax=14)
        heralded = heralded_dist(joint, 0.0)
        prediction = 1 + (n_modes + 1) * gain_sq
        slack = 3 * (n_modes + 1) * gain_sq**2  # next order in the gain
        assert abs(_mean(heralded) - prediction) <= slack

    @pytest.mark.parametrize("eta_t", [1e-4, 1e-3])
    def test_total_variation_against_low_loss_limit(self, eta_t):
        for dist in (
            _thermal(0.15, nmax=20),
            multimode_dist(4, 0.05, 20),
        ):
            lossy = heralded_dist(dist, eta_t)
            limit = heralded_dist(dist, 0.0)
            tv = 0.5 * float(np.abs(lossy - limit).sum())
            assert tv < eta_t * _mean(dist)

    def test_tiny_trigger_efficiency_approaches_low_loss_limit(self):
        # 1 - (1 - eta_t)^n rounds to 0 here; its log1p form does not
        for dist in (
            _thermal(0.15, nmax=20),
            multimode_dist(4, 0.05, 20),
        ):
            np.testing.assert_allclose(
                heralded_dist(dist, 1e-17),
                heralded_dist(dist, 0.0),
                rtol=0.0,
                atol=1e-12,
            )

    def test_vacuum_rejected(self):
        vacuum = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="vacuum"):
            heralded_dist(vacuum, 0.5)

    def test_joint_is_checked_first(self):
        for joint, message in (
            ([[0.5, 0.5]], "probs must be 1-d"),
            ([0.5, 0.4], "probabilities must sum to one"),
            ([1.1, -0.1], "probabilities must be nonnegative"),
        ):
            with pytest.raises(ValueError, match=message):
                heralded_dist(joint, 2.0)
            with pytest.raises(ValueError, match=message):
                ps.forward_click_dist(joint, 2.0)

    def test_results_are_read_only(self):
        joint = multimode_dist(2, 0.1, 12)
        clicks = ps.forward_click_dist(joint, 0.3)
        state = ps.ml_invert(clicks, 0.3).state
        for probs in (joint, heralded_dist(joint, 0.1)):
            assert not probs.flags.writeable
        # the package returns tuples of floats, which cannot be assigned
        for probs in (clicks, state):
            assert isinstance(probs, tuple)
            assert all(isinstance(p, float) for p in probs)


def _lossless_cutoff(n_modes, gain_sq, loss=1e-15):
    """A cutoff beyond which the negative binomial holds less than loss
    of sum n^2 P(n), which bounds what the cutoff takes from the
    heralded mean at any trigger efficiency.

    The terms t_n = n^2 P(n) have ratio g (n + 1)(n + K) / n^2, which
    falls with n, so once it is below one the rest of the series is at
    most t_n r / (1 - r).
    """
    K, g = n_modes, gain_sq
    log_p, total, n = K * math.log1p(-g), 0.0, 0
    while True:
        n += 1
        log_p += math.log(g * (n + K - 1) / n)  # log P(n)
        term = n * n * math.exp(log_p)
        total += term
        ratio = g * (n + 1) * (n + K) / (n * n)
        if ratio < 1.0 and term * ratio / (1.0 - ratio) < loss * total:
            return n


class TestHeraldedMean:
    # The reference builds and heralds the whole distribution, about
    # 1,400 entries at K = 1000 and g = 0.5.
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 1000),
        st.floats(1e-6, 0.5),
        st.one_of(st.just(0.0), st.floats(1e-30, 1.0)),
    )
    @example(31, 0.05, 0.0)
    @example(31, 0.05, 1e-17)
    @example(31, 0.05, 1.0)
    @example(1000, 0.5, 0.0)
    @example(1000, 0.5, 1e-17)
    @example(1000, 0.5, 1.0)
    @example(1000, 0.2, 0.3)
    def test_matches_heralded_distribution(self, n_modes, gain_sq, eta_t):
        nmax = _lossless_cutoff(n_modes, gain_sq)
        heralded = heralded_dist(
            multimode_dist(n_modes, gain_sq, nmax), eta_t
        )
        mean = ps.heralded_mean(n_modes, gain_sq, eta_t)
        assert isinstance(mean, float)
        assert mean == pytest.approx(_mean(heralded), rel=1e-12)

    @pytest.mark.parametrize("n_modes", [1, 31, 1000])
    @pytest.mark.parametrize("gain_sq", [1e-300, 0.01, 0.5, 0.999])
    def test_vanishing_loss_limit(self, n_modes, gain_sq):
        mu = gain_sq / (1.0 - gain_sq)
        limit = 1.0 + (n_modes + 1) * mu
        assert ps.heralded_mean(n_modes, gain_sq, 0.0) == limit
        # to first order in eta the mean falls by (K + 1)(1 + mu) mu eta / 2
        slope = (n_modes + 1) * (1.0 + mu) * mu / 2.0
        for eta_t in (1e-300, 1e-17, 1e-12):
            assert ps.heralded_mean(n_modes, gain_sq, eta_t) == pytest.approx(
                limit - slope * eta_t, rel=1e-15
            )
        # a lossless trigger accepts any nonzero pair number, which lowers
        # the mean below the limit
        assert ps.heralded_mean(n_modes, gain_sq, 1.0) <= limit

    def test_no_cutoff_at_any_gain(self):
        # the distribution route refuses this at every nmax up to 1000
        mean = ps.heralded_mean(1000, 0.6, 0.0)
        assert mean == pytest.approx(1.0 + 1001 * 1.5, rel=1e-15)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((1, 0.0, 0.5), "click probability vanishes"),
            ((1, 0.0, 0.0), "click probability vanishes"),
        ],
    )
    def test_refusals_follow_the_distribution_route(self, args, message):
        n_modes, gain_sq, eta_t = args
        with pytest.raises(ValueError, match=re.escape(message)):
            ps.heralded_mean(n_modes, gain_sq, eta_t)
        with pytest.raises(ValueError, match=re.escape(message)):
            heralded_dist(multimode_dist(n_modes, gain_sq, 4), eta_t)


class TestDetectorMatrices:
    def test_rows_of_floats(self):
        for matrix, shape in (
            (ps.loss_matrix(0.3, 4), (5, 5)),
            (ps.tmd_convolution_matrix(4), (3, 5)),
        ):
            assert len(matrix) == shape[0]
            for row in matrix:
                assert len(row) == shape[1]
                assert all(isinstance(entry, float) for entry in row)

    def test_loss_identity_and_absorbing(self):
        identity = ps.loss_matrix(1.0, 5)
        assert np.array_equal(identity, np.eye(6))
        dark = ps.loss_matrix(0.0, 5)
        assert np.allclose(dark[0], 1.0)
        assert np.allclose(dark[1:], 0.0)

    def test_loss_half_two_photons(self):
        L = np.array(ps.loss_matrix(0.5, 3))
        assert np.allclose(L[:3, 2], [0.25, 0.5, 0.25])

    def test_columns_are_stochastic(self):
        for eta in (0.048, 0.3, 0.77):
            L = np.array(ps.loss_matrix(eta, 9))
            assert np.allclose(L.sum(axis=0), 1.0, atol=1e-12)
            assert np.all(L >= 0)

    def test_columns_sum_to_one_beyond_float_binomials(self):
        # C(1099, 549) is far beyond the float range
        for eta in (0.048, 0.5, 0.77):
            L = np.array(ps.loss_matrix(eta, 1099))
            assert np.allclose(L.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)
            assert np.all(L >= 0)

    def test_matches_binomial_coefficients(self):
        for eta in (0.0, 0.048, 0.3, 0.5, 0.77, 1.0):
            for nmax in range(1, 13):
                expected = np.zeros((nmax + 1, nmax + 1))
                for n in range(nmax + 1):
                    for m in range(n + 1):
                        expected[m, n] = (
                            math.comb(n, m) * eta**m * (1.0 - eta) ** (n - m)
                        )
                np.testing.assert_allclose(
                    ps.loss_matrix(eta, nmax), expected, rtol=1e-14, atol=0.0
                )

    def test_two_bin_map(self):
        C = np.array(ps.tmd_convolution_matrix(3))
        assert np.array_equal(C[:, 0], [1.0, 0.0, 0.0])
        assert np.array_equal(C[:, 1], [0.0, 1.0, 0.0])
        assert np.array_equal(C[:, 2], [0.0, 0.5, 0.5])
        assert np.array_equal(C[:, 3], [0.0, 0.25, 0.75])
        assert np.allclose(C.sum(axis=0), 1.0)


class TestForwardModel:
    def test_vacuum(self):
        clicks = ps.forward_click_dist(np.array([1.0, 0.0, 0.0]), 0.5)
        assert np.array_equal(clicks, [1.0, 0.0, 0.0])

    def test_single_photon_low_efficiency(self):
        clicks = ps.forward_click_dist(np.array([0.0, 1.0, 0.0]), 0.048)
        assert np.allclose(clicks, [0.952, 0.048, 0.0], atol=1e-12)

    def test_two_photons_by_enumeration(self):
        # survivors: 0 w.p. 1/4, 1 w.p. 1/2, 2 w.p. 1/4; two survivors
        # split across the bins half of the time
        expected = np.zeros(3)
        for survivors, weight in ((0, 0.25), (1, 0.5), (2, 0.25)):
            if survivors == 0:
                expected[0] += weight
            elif survivors == 1:
                expected[1] += weight
            else:
                expected[1] += weight * 0.5
                expected[2] += weight * 0.5
        clicks = ps.forward_click_dist(np.array([0.0, 0.0, 1.0]), 0.5)
        assert np.allclose(clicks, expected, atol=1e-12)


class TestInversion:
    def test_round_trip_low_gain_state(self):
        truth = np.array([0.9488, 0.051, 0.0002, 0.0, 0.0, 0.0, 0.0])
        clicks = ps.forward_click_dist(truth, 0.048)
        result = ps.ml_invert(clicks, 0.048)
        assert result.converged
        recovered = np.zeros(truth.size)
        recovered[: len(result.state)] = result.state
        assert np.max(np.abs(recovered - truth)) < 1e-3

    def test_vacuum_clicks_give_vacuum(self):
        result = ps.ml_invert([1.0, 0.0, 0.0], 0.3)
        assert result.state[0] == pytest.approx(1.0, abs=1e-6)

    def test_loss_only_inversion_of_tmd_corrected_statistics(self):
        observed = np.array([0.94920, 0.05065, 0.00015])
        result = ps.invert_loss_only(observed, 0.048)
        assert result.converged
        rho = result.state
        assert 0.925 <= rho[1] <= 0.937
        assert 0.060 <= rho[2] <= 0.072

    def test_random_round_trips(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            p = rng.dirichlet([1.0, 1.0, 1.0])
            eta = rng.uniform(0.05, 0.5)
            truth = np.zeros(7)
            truth[:3] = p
            clicks = ps.forward_click_dist(truth, eta)
            result = ps.ml_invert(clicks, eta)
            recovered = np.zeros(7)
            recovered[:3] = result.state
            assert np.max(np.abs(recovered - truth)) < 1e-3

    @pytest.mark.parametrize("observable", ["clicks", "photon"])
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        eta=st.floats(min_value=0.03, max_value=0.5),
    )
    def test_feasible_data_are_solved_directly(self, observable, seed, eta):
        truth = np.random.default_rng(seed).dirichlet([1.0, 1.0, 1.0])
        assume(truth.min() >= 1e-3)
        if observable == "clicks":
            clicks = ps.forward_click_dist(truth, eta)
            result = ps.ml_invert(clicks, eta)
        else:
            observed = ps.loss_matrix(eta, 2) @ truth
            result = ps.invert_loss_only(observed, eta)
        assert result.converged
        assert result.iterations == 0
        assert result.kkt_gap <= 1e-14
        error = np.max(np.abs(result.state - truth))
        assert error <= 1e-12 * result.condition

    def test_face_optimum_is_certified(self):
        # at this efficiency the direct solve has p0 < 0: the optimum
        # lies on the face p0 = 0 and only the Newton solve reaches it
        observed = np.array([0.94920, 0.05065, 0.00015])
        eta = 0.046
        result = ps.invert_loss_only(observed, eta)
        assert result.converged
        assert result.iterations > 0
        assert result.kkt_gap <= ps.KKT_GAP
        assert result.state[0] == 0.0
        response = np.array(ps.loss_matrix(eta, 2))
        rng = np.random.default_rng(5)
        candidates = np.vstack([np.eye(3), rng.dirichlet([1.0, 1.0, 1.0], 2000)])
        with np.errstate(divide="ignore"):
            others = np.log(candidates @ response.T) @ observed
        assert np.all(result.log_likelihood >= others)

    def test_low_efficiency_states_converge(self):
        # two of these four states stopped unconverged, 8e-3 and 6e-6
        # from the truth, when an iteration started from the uniform
        # state and stopped on its step size
        rng = np.random.default_rng(0)
        eta = 0.03
        for _ in range(4):
            truth = rng.dirichlet([1.0, 1.0, 1.0])
            clicks = ps.forward_click_dist(truth, eta)
            result = ps.ml_invert(clicks, eta)
            assert result.converged
            assert result.kkt_gap <= ps.KKT_GAP
            error = np.max(np.abs(result.state - truth))
            assert error <= 1e-12 * result.condition

    def test_unexplained_outcome_is_not_converged(self):
        # eta^2 underflows, so no state predicts the observed two clicks
        # and no log-likelihood is finite
        result = ps.ml_invert([0.7, 0.25, 0.05], 1e-200)
        assert not result.converged
        assert result.kkt_gap == math.inf

    def test_unexplained_outcome_has_no_finite_likelihood(self):
        # no state gives the data a nonzero probability; a numpy warning
        # from log(0) would fail the test
        result = ps.ml_invert([0.7, 0.25, 0.05], 1e-200)
        assert result.log_likelihood == -math.inf
        assert result.iterations == 0

    @pytest.mark.parametrize(
        "clicks, message",
        [
            ([0.7, 0.3], "a two-bin detector has 3 outcomes"),
            ([1.2, -0.1, -0.2], "probabilities must be nonnegative"),
            ([0.7, 0.25, 0.25], "probabilities must sum to one"),
            ([0.7, 0.25, 0.05], r"efficiency must be in \[0, 1\]"),
        ],
    )
    def test_click_checks_in_order(self, clicks, message):
        with pytest.raises(ValueError, match=message):
            ps.ml_invert(clicks, 1.5)

    @pytest.mark.parametrize(
        "efficiency, message",
        [
            (-1.0, r"efficiency must be in \[0, 1\]"),
            (1.5, r"efficiency must be in \[0, 1\]"),
        ],
    )
    def test_efficiency_checks_in_order(self, efficiency, message):
        with pytest.raises(ValueError, match=message):
            ps.ml_invert([0.7, 0.25, 0.05], efficiency)
        with pytest.raises(ValueError, match=message):
            ps.invert_loss_only([0.7, 0.25, 0.05], efficiency)
        with pytest.raises(ValueError, match=message):
            ps.loss_matrix(efficiency, 2)


# -- the float route against numpy ------------------------------------------
#
# The inversion runs on Python floats.  Its references here are built
# with numpy inside the tests: the loss and splitter maps from their
# closed forms, numpy's condition number and solve, and the
# multiplicative expectation-maximization iteration, whose likelihood
# the Newton solve must match or beat.  K runs up to the 16 outcomes
# that `invert` accepts.

HEADLINE = [0.94920, 0.05065, 0.00015]


def _loss_reference(eta, size):
    matrix = np.zeros((size, size))
    for n in range(size):
        for m in range(n + 1):
            matrix[m, n] = math.comb(n, m) * eta**m * (1.0 - eta) ** (n - m)
    return matrix


def _click_reference(eta):
    splitter = np.array(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.0, 0.5]]
    )
    return splitter @ _loss_reference(eta, 3)


def _numpy_em(observed, response, max_iter, tol):
    """(state, iterations) of the multiplicative iteration from the
    uniform state, stopped on the KKT gap as the numpy route stopped."""
    observed = np.asarray(observed) / np.sum(observed)
    support = observed > 0
    size = response.shape[1]
    rho = np.full(size, 1.0 / size)
    iterations = 0
    while True:
        ratio = np.zeros_like(observed)
        ratio[support] = observed[support] / (response @ rho)[support]
        gain = response.T @ ratio
        if gain.max() - 1.0 <= tol or iterations >= max_iter:
            return rho, iterations
        rho = rho * gain
        rho /= rho.sum()
        iterations += 1


_SIZES = st.integers(min_value=2, max_value=16)
_EFFICIENCIES = st.floats(min_value=0.03, max_value=1.0)
_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


class TestFloatRoute:
    @settings(max_examples=200, deadline=None)
    @given(size=_SIZES, eta=_EFFICIENCIES)
    @example(size=16, eta=0.03)
    @example(size=2, eta=1.0)
    def test_loss_condition_matches_numpy(self, size, eta):
        observed = [1.0 / size] * size
        result = ps.invert_loss_only(observed, eta)
        reference = np.linalg.cond(_loss_reference(eta, size), 1)
        assert result.condition == pytest.approx(reference, rel=1e-11)

    @settings(max_examples=200, deadline=None)
    @given(eta=_EFFICIENCIES)
    @example(eta=0.03)
    @example(eta=1.0)
    def test_click_condition_matches_numpy(self, eta):
        result = ps.ml_invert([0.7, 0.25, 0.05], eta)
        reference = np.linalg.cond(_click_reference(eta), 1)
        assert result.condition == pytest.approx(reference, rel=1e-11)

    def test_condition_overflow_is_infinite(self):
        # (2 - eta) / eta to the 15th overflows; the diagonal eta^15 and
        # the two-click row of R underflow
        assert ps.invert_loss_only([1 / 16] * 16, 1e-30).condition == (
            math.inf
        )
        assert ps.ml_invert([0.7, 0.25, 0.05], 1e-200).condition == math.inf

    # eta^2/2, the last pivot of R, is subnormal at 1e-160 and zero just
    # below it; cond(R) has overflowed already below 2.1e-154
    @pytest.mark.parametrize("eta", [1e-160, 1e-163, 5e-324])
    def test_infinite_condition_skips_a_zero_pivot(self, eta):
        result = ps.ml_invert([0.7, 0.25, 0.05], eta)
        assert result.condition == math.inf
        assert result.log_likelihood == -math.inf
        assert not result.converged

    @settings(max_examples=200, deadline=None)
    @given(size=_SIZES, eta=_EFFICIENCIES, seed=_SEEDS)
    @example(size=16, eta=0.03, seed=0)
    def test_direct_solve_matches_numpy(self, size, eta, seed):
        rhs = np.random.default_rng(seed).dirichlet(np.ones(size))
        reference_matrix = _loss_reference(eta, size)
        condition = np.linalg.cond(reference_matrix, 1)
        solved = ps._back_substitute(ps.loss_matrix(eta, size - 1), rhs)
        reference = np.linalg.solve(reference_matrix, rhs)
        assert np.max(np.abs(solved - reference)) <= 1e-12 * condition
        if size == 3:
            response = _click_reference(eta)
            solved = ps._back_substitute(response.tolist(), rhs)
            reference = np.linalg.solve(response, rhs)
            bound = 1e-12 * np.linalg.cond(response, 1)
            assert np.max(np.abs(solved - reference)) <= bound

    @settings(max_examples=100, deadline=None)
    @given(size=_SIZES, eta=_EFFICIENCIES, seed=_SEEDS)
    def test_feasible_states_match_numpy(self, size, eta, seed):
        truth = np.random.default_rng(seed).dirichlet(np.ones(size))
        observed = _loss_reference(eta, size) @ truth
        assume(np.all(np.linalg.solve(_loss_reference(eta, size),
                                      observed) >= 0.0))
        result = ps.invert_loss_only(observed, eta)
        assert result.converged and result.iterations == 0
        error = np.max(np.abs(np.array(result.state) - truth))
        assert error <= 1e-12 * result.condition

    @pytest.mark.parametrize(
        "clicks, eta", [([0.9, 0.08, 0.02], 0.3), ([0.7, 0.25, 0.05], 0.4)]
    )
    def test_click_face_inputs_match_numpy(self, clicks, eta):
        result = ps.ml_invert(clicks, eta)
        _assert_certified(result, clicks, _click_reference(eta), 20_000)
        assert result.iterations > 0


def _log_likelihood(observed, response, state):
    observed = np.asarray(observed) / np.sum(observed)
    seen = observed > 0
    return float(observed[seen] @ np.log((response @ state)[seen]))


def _assert_certified(result, observed, response, em_steps):
    """A distribution with a certified KKT gap, whose likelihood is
    no worse than em_steps steps of the numpy iteration reach."""
    state = np.array(result.state)
    assert np.all(state >= 0.0) and abs(state.sum() - 1.0) <= 1e-12
    assert result.converged and result.kkt_gap <= ps.KKT_GAP
    reference, _ = _numpy_em(observed, response, em_steps, 1e-10)
    best = _log_likelihood(observed, response, reference)
    assert result.log_likelihood >= best - 1e-12
    assert result.log_likelihood == pytest.approx(
        _log_likelihood(observed, response, state), rel=1e-12, abs=1e-14
    )


def _face_clicks():
    """Click frequencies of 10,000 heralds whose direct solve is not a
    distribution: 35 of 400 draws of a uniform state and an efficiency
    in [0.03, 0.5].  The multiplicative iteration did not converge in
    100,000 steps on six of them."""
    rng = np.random.default_rng(20261019)
    faces = []
    for _ in range(400):
        state = rng.dirichlet([1.0, 1.0, 1.0])
        eta = rng.uniform(0.03, 0.5)
        counts = rng.multinomial(10_000, ps.forward_click_dist(state, eta))
        clicks = counts / 10_000
        if np.any(np.linalg.solve(_click_reference(eta), clicks) < 0.0):
            faces.append((clicks.tolist(), eta))
    return faces


# photon-number frequencies whose last outcome is unobserved, so that
# the observed rows of R are fewer than its columns
SIXTEEN_OUTCOMES = [
    0.4657, 0.041, 0.0647, 0.07, 0.0494, 0.0441, 0.0554, 0.0617,
    0.0566, 0.0454, 0.0274, 0.0126, 0.0047, 0.0008, 0.0005, 0.0,
]


class TestFaceSolve:
    def test_sampled_click_faces_are_certified(self):
        faces = _face_clicks()
        assert len(faces) == 35
        for clicks, eta in faces:
            result = ps.ml_invert(clicks, eta)
            _assert_certified(result, clicks, _click_reference(eta), 3_000)

    def test_sixteen_outcomes_with_a_zero_are_certified(self):
        eta = 0.5870540947228361
        result = ps.invert_loss_only(SIXTEEN_OUTCOMES, eta)
        response = _loss_reference(eta, 16)
        _assert_certified(result, SIXTEEN_OUTCOMES, response, 20_000)

    @pytest.mark.parametrize(
        "eta, expected",
        [
            (0.046, [0.0, 0.9038436336, 0.0961563664]),
            (0.03, [0.0, 0.3089166483, 0.6910833517]),
        ],
    )
    def test_headline_face_optimum(self, eta, expected):
        result = ps.invert_loss_only(HEADLINE, eta)
        _assert_certified(result, HEADLINE, _loss_reference(eta, 3), 3_000)
        assert result.iterations > 0
        assert np.max(np.abs(np.array(result.state) - expected)) <= 1e-9

    def test_outcome_near_the_float_floor_is_certified(self):
        # on the way to the optimum e9, rho9 of about 3e-290 alone explains
        # the last outcome and predicts it as 1e-300, which the solve must
        # not take for an underflow
        observed = [0, 0, 1, 0, 0, 9.89e-159, 1, 0.5, 0, 1e-290]
        observed = [y / sum(observed) for y in observed]
        eta = 0.06905
        result = ps.invert_loss_only(observed, eta)
        _assert_certified(result, observed, _loss_reference(eta, 10), 3_000)
        assert result.state == (0.0,) * 9 + (1.0,)

    @pytest.mark.parametrize(
        "index, steps, gap",
        [(84, 0, 5345.888249386741), (143, 1, 0.34173502835169867)],
    )
    def test_no_ascent_ends_unconverged(self, index, steps, gap):
        # input 84's first step has a slope outside (0, inf), and input
        # 143's second step leaves the state as it was
        result = ps.invert_loss_only(*face_input(index))
        assert (result.converged, result.iterations) == (False, steps)
        assert result.kkt_gap == gap

    def test_step_budget_ends_a_stalled_solve(self, monkeypatch):
        # from its second step on, input 2997's steps move rho only by
        # rounding and leave the gap and the log-likelihood as they are
        monkeypatch.setattr(ps, "_STEP_BUDGET", 20)
        result = ps.invert_loss_only(*face_input(2997))
        assert (result.converged, result.iterations) == (False, 20)
        assert result.kkt_gap == pytest.approx(69.03, abs=0.01)
        assert result.log_likelihood == pytest.approx(-5.3795, abs=1e-4)

    @settings(max_examples=100, deadline=None)
    @given(
        eta=_EFFICIENCIES,
        entries=st.lists(
            st.one_of(
                st.just(0.0), st.floats(min_value=1e-100, max_value=1.0)
            ),
            min_size=3,
            max_size=3,
        ),
    )
    @example(eta=1.0, entries=[0.0, 0.5, 0.5])
    def test_any_click_observation_is_certified(self, eta, entries):
        assume(sum(entries) > 0.0)
        observed = np.array(entries) / sum(entries)
        result = ps.ml_invert(observed, eta)
        _assert_certified(result, observed, _click_reference(eta), 1_000)

    @settings(max_examples=100, deadline=None)
    @given(size=st.integers(min_value=1, max_value=17), seed=_SEEDS,
           data=st.data())
    def test_normal_solve_matches_numpy(self, size, seed, data):
        columns = data.draw(st.integers(min_value=1, max_value=size))
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(size, columns))
        rhs = rng.normal(size=columns)
        solved = ps._normal_solve(matrix.T.tolist(), rhs.tolist())
        reference = np.linalg.solve(matrix.T @ matrix, rhs)
        bound = 1e-12 * np.linalg.cond(matrix) ** 2 * np.abs(reference).max()
        assert np.max(np.abs(np.array(solved) - reference)) <= bound

    def test_normal_solve_refuses_dependent_columns(self):
        assert ps._normal_solve([[1.0, 0.0], [2.0, 0.0]], [1.0, 1.0]) is None
        # two columns of one row
        assert ps._normal_solve([[1.0], [2.0]], [1.0, 1.0]) is None

    # entries down to 1e-100 of the largest: a line search that judged
    # progress by the rounded log-likelihood stopped short on the
    # examples with entries of 1e-16
    @settings(max_examples=100, deadline=None)
    @given(
        eta=_EFFICIENCIES,
        entries=st.lists(
            st.one_of(
                st.just(0.0), st.floats(min_value=1e-100, max_value=1.0)
            ),
            min_size=2,
            max_size=16,
        ),
    )
    @example(eta=0.03, entries=[1.0] + [0.0] * 14 + [1.0])
    @example(eta=1.0, entries=[0.0, 0.0, 1.0])
    @example(eta=0.5, entries=[1.0, 1e-9, 1e-9])
    @example(eta=0.671875, entries=[0.0, 0.0, 1.0, 2.2e-16, 2.2e-16])
    @example(
        eta=0.26948339053370535,
        entries=[0.4965960294305393, 0.4965960294305393, 0.0, 1e-16, 0.0],
    )
    @example(
        eta=0.6018938426108575,
        entries=[0.8408905262683777, 0.12786367021052725, 0.253415214526555,
                 0.0, 1e-16, 0.0],
    )
    def test_any_observation_is_certified(self, eta, entries):
        assume(sum(entries) > 0.0)
        observed = np.array(entries) / sum(entries)
        result = ps.invert_loss_only(observed, eta)
        response = _loss_reference(eta, len(entries))
        _assert_certified(result, observed, response, 1_000)


class TestModeReduction:
    @staticmethod
    def _series(n_modes, gains):
        points = []
        for gain in gains:
            dist = multimode_dist(n_modes, gain, nmax=16)
            points.append((gain, _mean(heralded_dist(dist, 0.0))))
        return points

    def test_identical_series_ratio_one(self):
        gains = [0.01, 0.02, 0.03]
        series = self._series(2, gains)
        fit = estimate_mode_reduction(series, series)
        assert fit.slope_ratio == pytest.approx(1.0, rel=1e-12)

    def test_synthetic_thirty_one_modes(self):
        gains = [0.01, 0.02, 0.03, 0.04, 0.05]
        fit = estimate_mode_reduction(
            self._series(31, gains), self._series(1, gains)
        )
        assert fit.slope_ratio == pytest.approx(16.0, rel=0.02)
        implied = implied_mode_count(fit.slope_ratio, modes_filtered=1)
        assert implied == pytest.approx(31.0, rel=0.05)
        assert fit.intercept_filtered == pytest.approx(1.0, abs=0.05)
        assert fit.intercept_unfiltered == pytest.approx(1.0, abs=0.2)

    def test_order_thirty_reduction_regime(self):
        gains = [0.01, 0.02, 0.03, 0.04, 0.05]
        fit = estimate_mode_reduction(
            self._series(31, gains), self._series(1, gains)
        )
        reduction = implied_mode_count(fit.slope_ratio, 1) / 1.0
        assert 10.0 <= reduction <= 100.0

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(1e-4, 0.5), st.floats(1.0, 100.0)),
            min_size=2,
            max_size=12,
        )
    )
    def test_line_matches_polyfit(self, points):
        power, mean = np.array(points).T
        assume(np.ptp(power) > 1e-3)
        slope, intercept = np.polyfit(power, mean, 1)
        fit = estimate_mode_reduction(points, [(1.0, 1.0), (2.0, 2.0)])
        scale = np.abs(mean).max() / np.ptp(power)
        assert fit.slope_ratio == pytest.approx(slope, abs=1e-9 * scale)
        assert fit.intercept_unfiltered == pytest.approx(
            intercept, abs=1e-9 * np.abs(mean).max()
        )

    def test_tiny_powers(self):
        # squares of these centred powers underflow to zero
        fit = estimate_mode_reduction(
            [(1e-170, 3e-170), (2e-170, 6e-170)], [(1.0, 1.0), (2.0, 2.0)]
        )
        assert fit.slope_ratio == pytest.approx(3.0, rel=1e-15)
        assert fit.intercept_unfiltered == pytest.approx(0.0, abs=1e-185)

    def test_degenerate_fits_rejected(self):
        with pytest.raises(ValueError):
            estimate_mode_reduction([(1.0, 1.0)], [(1.0, 1.0), (2.0, 1.1)])
        with pytest.raises(ValueError):
            estimate_mode_reduction(
                [(1.0, 1.0), (1.0, 1.1)], [(1.0, 1.0), (2.0, 1.1)]
            )
