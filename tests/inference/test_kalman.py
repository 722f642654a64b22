"""Tests for repro.inference.kalman (filter + smoother recursions)."""

import numpy as np
import pytest

from repro.inference.kalman import (
    KalmanState,
    kalman_filter_batch,
    kalman_filter_scalar,
    kalman_predict,
    kalman_update,
    rts_smoother_batch,
    rts_smoother_scalar,
)


def simulate(n_channels=3, n_samples=400, seed=7,
             a_signal=0.95, sigma_signal=2.0, a_wander=0.99,
             sigma_wander=0.5, r=1.0, gain=1.5, offset=10.0):
    """A synthetic cohort drawn exactly from the filter's model."""
    rng = np.random.default_rng(seed)
    q_s = sigma_signal ** 2 * (1.0 - a_signal ** 2)
    q_w = sigma_wander ** 2 * (1.0 - a_wander ** 2)
    d = np.zeros(n_channels)
    w = np.zeros(n_channels)
    truth = np.empty((n_channels, n_samples))
    z = np.empty((n_channels, n_samples))
    for k in range(n_samples):
        d = a_signal * d + np.sqrt(q_s) * rng.standard_normal(n_channels)
        w = a_wander * w + np.sqrt(q_w) * rng.standard_normal(n_channels)
        truth[:, k] = d
        z[:, k] = (offset + gain * d + w
                   + np.sqrt(r) * rng.standard_normal(n_channels))
    params = dict(gain=np.full((n_channels, n_samples), gain),
                  offset=np.full((n_channels, n_samples), offset),
                  r=np.full(n_channels, r),
                  a_signal=a_signal, q_signal=q_s,
                  a_wander=a_wander, q_wander=q_w)
    return truth, z, params


def run_both(z, params):
    args = (params["gain"], params["offset"], params["r"],
            params["a_signal"], params["q_signal"],
            params["a_wander"], params["q_wander"])
    return kalman_filter_batch(z, *args), kalman_filter_scalar(z, *args)


class TestFilter:
    def test_batch_matches_scalar_reference(self):
        _, z, params = simulate()
        batch, scalar = run_both(z, params)
        for name in ("m1", "m2", "p11", "p12", "p22",
                     "pm1", "pm2", "pp11", "pp12", "pp22"):
            np.testing.assert_allclose(
                getattr(batch, name), getattr(scalar, name),
                rtol=0.0, atol=1e-9, err_msg=name)

    def test_filter_beats_raw_inversion(self):
        truth, z, params = simulate()
        trace, _ = run_both(z, params)
        raw = (z - params["offset"]) / params["gain"]
        filter_rmse = np.sqrt(np.mean((trace.m1 - truth) ** 2))
        raw_rmse = np.sqrt(np.mean((raw - truth) ** 2))
        assert filter_rmse < 0.8 * raw_rmse

    def test_variance_converges_and_covers(self):
        truth, z, params = simulate(n_channels=8, n_samples=2000)
        trace, _ = run_both(z, params)
        # Steady-state posterior variance: positive, below the prior
        # stationary variance, and calibrated (95 % band covers ~95 %).
        stationary = params["q_signal"] / (1.0 - params["a_signal"] ** 2)
        tail = trace.p11[:, 100:]
        assert np.all(tail > 0)
        assert np.all(tail < stationary)
        band = 1.96 * np.sqrt(trace.p11)
        coverage = np.mean(np.abs(trace.m1 - truth) <= band)
        assert 0.90 <= coverage <= 0.99

    def test_infinite_variance_sample_is_skipped(self):
        """A censored reading (r = inf) must leave the state at its
        prediction — no information, no update."""
        _, z, params = simulate(n_channels=2, n_samples=5)
        r = np.full_like(z, params["r"][0])
        r[:, 2] = np.inf
        trace = kalman_filter_batch(
            z, params["gain"], params["offset"], r,
            params["a_signal"], params["q_signal"],
            params["a_wander"], params["q_wander"])
        np.testing.assert_array_equal(trace.m1[:, 2], trace.pm1[:, 2])
        np.testing.assert_array_equal(trace.p11[:, 2], trace.pp11[:, 2])

    def test_zero_noise_model_stays_pinned(self):
        """With no process noise and an exact start the posterior stays
        a point mass at the deterministic trajectory."""
        z = np.full((1, 10), 3.0)
        trace = kalman_filter_batch(
            z, gain=np.ones((1, 10)), offset=np.zeros((1, 10)),
            r=np.array([1.0]), a_signal=0.9, q_signal=0.0,
            a_wander=0.9, q_wander=0.0)
        np.testing.assert_array_equal(trace.m1, 0.0)
        np.testing.assert_array_equal(trace.p11, 0.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="n_channels"):
            kalman_filter_batch(np.zeros(5), 1.0, 0.0, 1.0,
                                0.9, 1.0, 0.9, 1.0)
        with pytest.raises(ValueError, match=">= 0"):
            kalman_filter_batch(np.zeros((1, 5)), 1.0, 0.0, -1.0,
                                0.9, 1.0, 0.9, 1.0)

    def test_initial_state_is_respected(self):
        _, z, params = simulate(n_channels=2, n_samples=3)
        start = KalmanState.zeros(2)
        start.m1[:] = 5.0
        trace = kalman_filter_batch(
            z, params["gain"], params["offset"], params["r"],
            params["a_signal"], params["q_signal"],
            params["a_wander"], params["q_wander"], initial=start)
        np.testing.assert_allclose(trace.pm1[:, 0],
                                   params["a_signal"] * 5.0)
        assert np.all(start.m1 == 5.0)  # inputs never mutated


class TestPredictUpdate:
    def test_predict_propagates_covariance(self):
        state = KalmanState.zeros(2)
        state.p11[:] = 4.0
        out = kalman_predict(state, 0.5, 1.0, 1.0, 0.0)
        np.testing.assert_allclose(out.p11, 0.25 * 4.0 + 1.0)
        np.testing.assert_allclose(out.p22, 0.0)

    def test_update_moves_toward_measurement(self):
        state = KalmanState.zeros(1)
        state.p11[:] = 1.0
        out = kalman_update(state, np.array([2.0]), 1.0, 0.0, 1.0)
        assert 0.0 < out.m1[0] < 2.0
        assert out.p11[0] < 1.0


class TestSmoother:
    def test_batch_matches_scalar_reference(self):
        _, z, params = simulate()
        batch_trace, scalar_trace = run_both(z, params)
        batch = rts_smoother_batch(batch_trace, params["a_signal"],
                                   params["a_wander"])
        scalar = rts_smoother_scalar(scalar_trace, params["a_signal"],
                                     params["a_wander"])
        for name in ("m1", "m2", "p11", "p12", "p22"):
            np.testing.assert_allclose(
                getattr(batch, name), getattr(scalar, name),
                rtol=0.0, atol=1e-9, err_msg=name)

    def test_smoothing_reduces_variance_and_error(self):
        truth, z, params = simulate(n_channels=6, n_samples=1000)
        trace, _ = run_both(z, params)
        smoothed = rts_smoother_batch(trace, params["a_signal"],
                                      params["a_wander"])
        interior = slice(10, -10)
        assert np.all(smoothed.p11[:, interior]
                      <= trace.p11[:, interior] + 1e-12)
        filter_rmse = np.sqrt(np.mean((trace.m1 - truth) ** 2))
        smooth_rmse = np.sqrt(np.mean((smoothed.m1 - truth) ** 2))
        assert smooth_rmse < filter_rmse

    def test_last_sample_equals_filter(self):
        _, z, params = simulate(n_samples=50)
        trace, _ = run_both(z, params)
        smoothed = rts_smoother_batch(trace, params["a_signal"],
                                      params["a_wander"])
        np.testing.assert_array_equal(smoothed.m1[:, -1],
                                      trace.m1[:, -1])

    def test_singular_wander_block_is_handled(self):
        """q_wander = 0 keeps the wander covariance identically zero;
        the smoother must fall back to the signal block instead of
        dividing by a zero determinant."""
        _, z, params = simulate(n_channels=2, n_samples=60,
                                sigma_wander=0.0)
        trace, _ = run_both(z, params)
        smoothed = rts_smoother_batch(trace, params["a_signal"],
                                      params["a_wander"])
        assert np.all(np.isfinite(smoothed.m1))
        assert np.all(np.isfinite(smoothed.p11))
        np.testing.assert_array_equal(smoothed.m2, 0.0)


class TestInverse2x2:
    """The smoother's symmetric 2x2 inverse and its diagonal fallback."""

    @staticmethod
    def invert(p11, p12, p22):
        from repro.inference.kalman import _inverse_2x2

        return _inverse_2x2(np.array([p11]), np.array([p12]),
                            np.array([p22]))

    def test_positive_definite_block_is_exact_inverse(self):
        i11, i12, i22 = self.invert(2.0, 0.5, 1.0)
        inverse = np.array([[i11[0], i12[0]], [i12[0], i22[0]]])
        np.testing.assert_allclose(
            inverse @ np.array([[2.0, 0.5], [0.5, 1.0]]), np.eye(2),
            rtol=0.0, atol=1e-15)

    def test_dead_wander_block_falls_back_to_signal(self):
        i11, i12, i22 = self.invert(4.0, 0.0, 0.0)
        assert (i11[0], i12[0], i22[0]) == (0.25, 0.0, 0.0)

    def test_both_blocks_dead_give_zeros(self):
        i11, i12, i22 = self.invert(0.0, 0.0, 0.0)
        assert (i11[0], i12[0], i22[0]) == (0.0, 0.0, 0.0)

    def test_determinant_rounding_below_zero_uses_diagonal(self):
        """A numerically rank-1 block whose determinant rounds negative
        must not produce a negative or infinite "inverse"."""
        p12 = np.nextafter(1.0, 2.0)
        assert 1.0 * 1.0 - p12 * p12 < 0.0
        i11, i12, i22 = self.invert(1.0, p12, 1.0)
        assert (i11[0], i12[0], i22[0]) == (1.0, 0.0, 1.0)


class TestAllCensoredChannel:
    def test_filter_and_smoother_stay_finite_and_match_scalar(self):
        """A channel pinned at a rail for its whole record (r = inf on
        every sample) beside normal channels: the filter only predicts
        for it, and batch and scalar paths still agree."""
        _, z, params = simulate(n_channels=3, n_samples=120)
        r = np.broadcast_to(params["r"][:, None], z.shape).copy()
        r[1, :] = np.inf
        params = dict(params, r=r)
        batch, scalar = run_both(z, params)
        smoothed = [smoother(trace, params["a_signal"],
                             params["a_wander"])
                    for smoother, trace in ((rts_smoother_batch, batch),
                                            (rts_smoother_scalar,
                                             scalar))]
        for name in ("m1", "m2", "p11", "p12", "p22"):
            for fast, slow in ((batch, scalar), tuple(smoothed)):
                assert np.all(np.isfinite(getattr(fast, name))), name
                np.testing.assert_allclose(
                    getattr(fast, name), getattr(slow, name),
                    rtol=0.0, atol=1e-9, err_msg=name)
        # No update ever lands on the censored channel: its mean stays
        # at the prior while its neighbours track their readings.
        np.testing.assert_array_equal(batch.m1[1], 0.0)
        assert np.any(batch.m1[0] != 0.0)
