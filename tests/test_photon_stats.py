import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pdckit import photon_stats as ps


def _thermal(gain_sq, nmax):
    """One thermal mode: the single-mode case of the multimode model."""
    return ps.multimode_dist(ps.MultimodeSource(1, gain_sq), nmax=nmax)


class TestThermal:
    def test_zero_gain_is_vacuum(self):
        dist = _thermal(0.0, nmax=4)
        assert np.array_equal(dist.probs, [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_geometric_sequence(self):
        dist = _thermal(0.5, nmax=24)
        assert np.allclose(dist.probs[:4], [0.5, 0.25, 0.125, 0.0625], atol=1e-6)
        assert dist.mean() == pytest.approx(1.0, abs=1e-5)

    def test_second_moment_identity(self):
        # <n^2> = 2 mu^2 + mu for a thermal state; the brute-force sum
        # over the stored vector must agree
        dist = _thermal(0.35, nmax=30)
        mu = dist.mean()
        brute = float(sum(n * n * p for n, p in enumerate(dist.probs)))
        assert brute == pytest.approx(2 * mu * mu + mu, rel=1e-9)
        assert dist.second_moment() == pytest.approx(brute, rel=1e-12)

    def test_cutoff_too_small_rejected(self):
        with pytest.raises(ValueError, match="increase nmax"):
            _thermal(0.5, nmax=8)

    def test_validation(self):
        with pytest.raises(ValueError):
            _thermal(1.0, nmax=10)
        with pytest.raises(ValueError):
            ps.PhotonNumberDist([0.5, 0.4])  # does not sum to one


class TestMultimode:
    def test_single_mode_matches_thermal(self):
        source = ps.MultimodeSource(n_modes=1, gain_sq=0.2)
        geometric = 0.8 * 0.2 ** np.arange(13)
        assert np.allclose(
            ps.multimode_dist(source, nmax=12).probs,
            geometric / geometric.sum(),
            atol=1e-15,
        )

    def test_two_mode_mean(self):
        source = ps.MultimodeSource(n_modes=2, gain_sq=0.5)
        dist = ps.multimode_dist(source, nmax=40)
        assert dist.mean() == pytest.approx(2.0, abs=1e-4)

    def test_head_matches_direct_convolution(self):
        source = ps.MultimodeSource(n_modes=3, gain_sq=0.3)
        dist = ps.multimode_dist(source, nmax=25)
        single = [(1 - 0.3) * 0.3**n for n in range(26)]
        direct = [0.0] * 26
        for a in range(26):
            for b in range(26 - a):
                for c in range(26 - a - b):
                    direct[a + b + c] += single[a] * single[b] * single[c]
        assert np.allclose(dist.probs[:10], np.array(direct[:10]) / sum(direct),
                           atol=1e-9)

    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("gain_sq", [0.1, 0.3])
    def test_moment_identities(self, n_modes, gain_sq):
        source = ps.MultimodeSource(n_modes=n_modes, gain_sq=gain_sq)
        dist = ps.multimode_dist(source, nmax=40)
        single = _thermal(gain_sq, nmax=40)
        mu, mu2 = single.mean(), single.second_moment()
        assert dist.mean() == pytest.approx(n_modes * mu, abs=1e-9)
        assert dist.second_moment() == pytest.approx(
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
            dist = ps.multimode_dist(ps.MultimodeSource(n_modes, gain_sq), nmax)
        except ValueError:
            assume(False)  # the cutoff refuses this draw
        reference = _convolved(n_modes, gain_sq, nmax)
        gap = np.abs(dist.probs - reference)
        assert gap.max() <= 1e-13 * reference.max()
        large = reference > 1e-250
        assert np.all(gap[large] <= 1e-9 * reference[large])

    def test_moments_where_the_vacuum_factor_underflows(self):
        # (1 - g)^K is exactly 0 in floating point here, so only a
        # log-space evaluation keeps the distribution
        n_modes, gain_sq = 1000, 0.53
        assert (1.0 - gain_sq) ** n_modes == 0.0
        dist = ps.multimode_dist(ps.MultimodeSource(n_modes, gain_sq), 5000)
        mean = dist.mean()
        variance = dist.second_moment() - mean * mean
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
            ps.multimode_dist(ps.MultimodeSource(1000, 0.6), nmax=1000)


class TestHeralded:
    def test_single_photon_is_fixed_point(self):
        dist = ps.PhotonNumberDist([0.0, 1.0, 0.0])
        for eta in (1e-3, 0.3, 1.0):
            heralded = ps.heralded_dist(dist, eta)
            assert heralded.probs[1] == pytest.approx(1.0)

    def test_thermal_low_loss_mean(self):
        dist = _thermal(0.15, nmax=20)
        mu = dist.mean()
        heralded = ps.heralded_dist(dist, 0.0)
        assert heralded.mean() == pytest.approx(2 * mu + 1, abs=1e-7)

    @pytest.mark.parametrize("n_modes", [1, 5, 31])
    @pytest.mark.parametrize("gain_sq", [0.01, 0.03])
    def test_low_gain_multimode_mean(self, n_modes, gain_sq):
        source = ps.MultimodeSource(n_modes=n_modes, gain_sq=gain_sq)
        heralded = ps.heralded_dist(ps.multimode_dist(source, nmax=14), 0.0)
        prediction = 1 + (n_modes + 1) * gain_sq
        slack = 3 * (n_modes + 1) * gain_sq**2  # next order in the gain
        assert abs(heralded.mean() - prediction) <= slack

    @pytest.mark.parametrize("eta_t", [1e-4, 1e-3])
    def test_total_variation_against_low_loss_limit(self, eta_t):
        for dist in (
            _thermal(0.15, nmax=20),
            ps.multimode_dist(ps.MultimodeSource(n_modes=4, gain_sq=0.05), 20),
        ):
            lossy = ps.heralded_dist(dist, eta_t)
            limit = ps.heralded_dist(dist, 0.0)
            tv = 0.5 * float(np.abs(lossy.probs - limit.probs).sum())
            assert tv < eta_t * dist.mean()

    def test_vacuum_rejected(self):
        vacuum = ps.PhotonNumberDist([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="vacuum"):
            ps.heralded_dist(vacuum, 0.5)


class TestDetectorMatrices:
    def test_loss_identity_and_absorbing(self):
        identity = ps.loss_matrix(1.0, 5)
        assert np.array_equal(identity, np.eye(6))
        dark = ps.loss_matrix(0.0, 5)
        assert np.allclose(dark[0], 1.0)
        assert np.allclose(dark[1:], 0.0)

    def test_loss_half_two_photons(self):
        L = ps.loss_matrix(0.5, 3)
        assert np.allclose(L[:3, 2], [0.25, 0.5, 0.25])

    def test_columns_are_stochastic(self):
        for eta in (0.048, 0.3, 0.77):
            L = ps.loss_matrix(eta, 9)
            assert np.allclose(L.sum(axis=0), 1.0, atol=1e-12)
            assert np.all(L >= 0)

    def test_two_bin_map(self):
        C = ps.tmd_convolution_matrix(3)
        assert np.array_equal(C[:, 0], [1.0, 0.0, 0.0])
        assert np.array_equal(C[:, 1], [0.0, 1.0, 0.0])
        assert np.array_equal(C[:, 2], [0.0, 0.5, 0.5])
        assert np.array_equal(C[:, 3], [0.0, 0.25, 0.75])
        assert np.allclose(C.sum(axis=0), 1.0)


class TestForwardModel:
    def test_vacuum(self):
        clicks = ps.forward_click_dist(
            ps.PhotonNumberDist([1.0, 0.0, 0.0]), 0.5
        )
        assert np.array_equal(clicks.probs, [1.0, 0.0, 0.0])

    def test_single_photon_low_efficiency(self):
        clicks = ps.forward_click_dist(
            ps.PhotonNumberDist([0.0, 1.0, 0.0]), 0.048
        )
        assert np.allclose(clicks.probs, [0.952, 0.048, 0.0], atol=1e-12)

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
        clicks = ps.forward_click_dist(
            ps.PhotonNumberDist([0.0, 0.0, 1.0]), 0.5
        )
        assert np.allclose(clicks.probs, expected, atol=1e-12)


class TestInversion:
    def test_round_trip_low_gain_state(self):
        truth = np.array([0.9488, 0.051, 0.0002, 0.0, 0.0, 0.0, 0.0])
        clicks = ps.forward_click_dist(
            ps.PhotonNumberDist(truth), 0.048
        )
        result = ps.ml_invert(
            clicks, 0.048, max_iter=400_000, tol=1e-13
        )
        assert result.converged
        recovered = np.zeros(truth.size)
        recovered[: result.state.probs.size] = result.state.probs
        assert np.max(np.abs(recovered - truth)) < 1e-3

    def test_vacuum_clicks_give_vacuum(self):
        result = ps.ml_invert(
            ps.ClickDist([1.0, 0.0, 0.0]), 0.3
        )
        assert result.state.probs[0] == pytest.approx(1.0, abs=1e-6)

    def test_non_convergence_is_flagged(self):
        clicks = ps.ClickDist([0.9, 0.08, 0.02])
        result = ps.ml_invert(clicks, 0.1, max_iter=3)
        assert not result.converged
        assert result.iterations == 3

    def test_loss_only_inversion_of_tmd_corrected_statistics(self):
        observed = np.array([0.94920, 0.05065, 0.00015])
        result = ps.invert_loss_only(
            observed, 0.048, max_iter=400_000, tol=1e-12
        )
        assert result.converged
        rho = result.state.probs
        assert 0.925 <= rho[1] <= 0.937
        assert 0.060 <= rho[2] <= 0.072

    def test_likelihood_is_monotone(self):
        # the iteration asserts monotonicity internally on every step
        clicks = ps.ClickDist([0.7, 0.25, 0.05])
        result = ps.ml_invert(clicks, 0.4, max_iter=5_000)
        assert math.isfinite(result.log_likelihood)

    def test_random_round_trips(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            p = rng.dirichlet([1.0, 1.0, 1.0])
            eta = rng.uniform(0.05, 0.5)
            truth = np.zeros(7)
            truth[:3] = p
            clicks = ps.forward_click_dist(
                ps.PhotonNumberDist(truth), eta
            )
            result = ps.ml_invert(
                clicks, eta, max_iter=400_000, tol=1e-13
            )
            recovered = np.zeros(7)
            recovered[:3] = result.state.probs
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
            clicks = ps.forward_click_dist(ps.PhotonNumberDist(truth), eta)
            result = ps.ml_invert(clicks, eta)
        else:
            observed = ps.loss_matrix(eta, 2) @ truth
            result = ps.invert_loss_only(observed, eta)
        assert result.converged
        assert result.iterations == 0
        assert result.kkt_gap <= 1e-14
        error = np.max(np.abs(result.state.probs - truth))
        assert error <= 1e-12 * result.condition

    def test_face_optimum_is_certified(self):
        # at this efficiency the direct solve has p0 < 0: the optimum
        # lies on the face p0 = 0 and only the iteration reaches it
        observed = np.array([0.94920, 0.05065, 0.00015])
        eta, tol = 0.046, 1e-12
        result = ps.invert_loss_only(
            observed, eta, max_iter=400_000, tol=tol
        )
        assert result.converged
        assert 0 < result.iterations < 400_000
        assert result.kkt_gap <= tol
        assert result.state.probs[0] < 1e-6
        response = ps.loss_matrix(eta, 2)
        rng = np.random.default_rng(5)
        candidates = np.vstack([np.eye(3), rng.dirichlet([1.0, 1.0, 1.0], 2000)])
        with np.errstate(divide="ignore"):
            others = np.log(candidates @ response.T) @ observed
        assert np.all(result.log_likelihood >= others)

    def test_low_efficiency_states_converge(self):
        # two of these four states stopped unconverged, 8e-3 and 6e-6
        # from the truth, when the iteration started from the uniform
        # state and stopped on its step size
        rng = np.random.default_rng(0)
        eta = 0.03
        for _ in range(4):
            truth = rng.dirichlet([1.0, 1.0, 1.0])
            clicks = ps.forward_click_dist(ps.PhotonNumberDist(truth), eta)
            result = ps.ml_invert(clicks, eta, max_iter=400_000, tol=1e-13)
            assert result.converged
            assert result.kkt_gap <= 1e-13
            error = np.max(np.abs(result.state.probs - truth))
            assert error <= 1e-12 * result.condition

    def test_unexplained_outcome_is_not_converged(self):
        # eta^2 underflows, so no state predicts the observed two clicks
        # and no log-likelihood is finite
        result = ps.ml_invert(
            ps.ClickDist([0.7, 0.25, 0.05]), 1e-200
        )
        assert not result.converged
        assert result.kkt_gap == math.inf

    def test_requires_positive_efficiency(self):
        with pytest.raises(ValueError):
            ps.ml_invert(ps.ClickDist([1.0, 0, 0]), 0.0)

    @pytest.mark.parametrize(
        "efficiency, message",
        [
            (-1.0, r"efficiency must be in \[0, 1\]"),
            (1.5, r"efficiency must be in \[0, 1\]"),
            (0.0, "inversion requires efficiency > 0"),
        ],
    )
    def test_efficiency_checks_in_order(self, efficiency, message):
        with pytest.raises(ValueError, match=message):
            ps.ml_invert(ps.ClickDist([0.7, 0.25, 0.05]), efficiency)
        with pytest.raises(ValueError, match=message):
            ps.invert_loss_only([0.7, 0.25, 0.05], efficiency)
        if efficiency != 0.0:
            with pytest.raises(ValueError, match=message):
                ps.loss_matrix(efficiency, 2)


class TestModeReduction:
    @staticmethod
    def _series(n_modes, gains):
        points = []
        for gain in gains:
            dist = ps.multimode_dist(
                ps.MultimodeSource(n_modes=n_modes, gain_sq=gain), nmax=16
            )
            points.append((gain, ps.heralded_dist(dist, 0.0).mean()))
        return points

    def test_identical_series_ratio_one(self):
        gains = [0.01, 0.02, 0.03]
        series = self._series(2, gains)
        fit = ps.estimate_mode_reduction(series, series)
        assert fit.slope_ratio == pytest.approx(1.0, rel=1e-12)

    def test_synthetic_thirty_one_modes(self):
        gains = [0.01, 0.02, 0.03, 0.04, 0.05]
        fit = ps.estimate_mode_reduction(
            self._series(31, gains), self._series(1, gains)
        )
        assert fit.slope_ratio == pytest.approx(16.0, rel=0.02)
        implied = ps.implied_mode_count(fit.slope_ratio, modes_filtered=1)
        assert implied == pytest.approx(31.0, rel=0.05)
        assert fit.intercept_filtered == pytest.approx(1.0, abs=0.05)
        assert fit.intercept_unfiltered == pytest.approx(1.0, abs=0.2)

    def test_order_thirty_reduction_regime(self):
        gains = [0.01, 0.02, 0.03, 0.04, 0.05]
        fit = ps.estimate_mode_reduction(
            self._series(31, gains), self._series(1, gains)
        )
        reduction = ps.implied_mode_count(fit.slope_ratio, 1) / 1.0
        assert 10.0 <= reduction <= 100.0

    def test_degenerate_fits_rejected(self):
        with pytest.raises(ValueError):
            ps.estimate_mode_reduction([(1.0, 1.0)], [(1.0, 1.0), (2.0, 1.1)])
        with pytest.raises(ValueError):
            ps.estimate_mode_reduction(
                [(1.0, 1.0), (1.0, 1.1)], [(1.0, 1.0), (2.0, 1.1)]
            )
